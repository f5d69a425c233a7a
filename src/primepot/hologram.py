"""Phase-only Fourier holography simulation: synth a potential as an
intensity profile, retrieve the modulator phase, and read the profile back.

The modulator plane (m x m) is lit by a uniform unit-power beam, 1/m per
pixel, and sits in a zero-padded 2m x 2m plane; light propagates to the
output plane by a centered unitary Fourier transform. The cost is the
steepened squared deficit of the amplitude overlap accumulated over the
signal region (SR), a single pixel row holding the 1D intensity profile;
everywhere else the field is unconstrained. The overlap takes the modulus
per pixel before summing, so a zero cost means the SR intensity profile
matches exactly while the output phase stays free.

The SR length is derived from the potential, not set. Its pixel pitch
2 span / (n - 1) times k_max = sqrt(asymptote - min V) / c, the largest
wavenumber of the top level, must stay at or below 0.5: the Nyquist
condition on the well's fastest oscillation (Shannon, Proc. IRE 37, 10
(1949)). Above it the read-back levels drift by sampling alone, with perfect
optics (pitch x k_max near 1: 0.016-0.08; 1.5-1.9: up to 2.4). The length is
max(100, ceil(4 span k_max) + 1): primes:10 keeps 100 pixels (its rule gives
97), primes:20 takes 191, lucky:20 213, primes:30 310 and primes:40 372. A
modulator side m must exceed half the length; a smaller one is refused with
the smallest m that fits. No m may exceed ``MODULATOR_LIMIT`` = 4096, the side
of a 4K spatial light modulator. No m x m array is ever held: the limit bounds
the m^2 seeded draws and phase.csv, about 420 MB (``holo synth --m 4096
--iters 1`` peaks at 80 MB resident). A larger m is refused before any phase
is drawn, and an SR of 2 x 4096 pixels or more, which no allowed m holds,
before any row is built.

The SR lies on the zero-vertical-frequency row of the output plane, which is
the 1D centered transform of the modulated plane's column sums
s_j = (1/m) sum_i exp(i phi_ij), scaled by 1/(2m). The cost therefore depends
on the phase only through those m complex sums, and only that row is ever
computed: one length-2m FFT forward, one length-2m inverse FFT for the
adjoint. The 2m x 2m output plane exists only as a reference implementation
in the tests.

A ``HologramState`` holds those sums, at first of a seeded random plane, and
the optimizer's unknowns are their 2m real and imaginary parts. The cost is
invariant to s -> lambda s for any complex lambda != 0 (the overlap is
normalized by the SR power), so they need no constraint. The result is
realized by double-phase encoding (Hsueh & Sawchuk, Appl. Opt. 17, 3874
(1978); Arrizon et al., JOSA A 24, 3500 (2007)): with t_j = |s_j| / max|s|
and a_j = arg s_j, the rows of column j alternate a_j + b_j and a_j - b_j,
where cos b_j = t_j for even m; for odd m the last row is a_j and
cos b_j = (m t_j - 1)/(m - 1). Each column sums to exactly s_j / max|s|, so
the plane has the optimized cost. Only its 2 (odd m: 3) distinct rows are
kept; ``plane_row_index`` maps each plane row to one, the optimized sums are
formed from them and their multiplicities, and the plane exists only as the
file written from them.

Minimization is scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
Comput. 16, 1190 (1995)) with its default options and no bounds. Its line
search enforces sufficient decrease, so the cost never rises. It stops at the
iteration cap or at the first of two tests: the largest component of the
projected gradient is at most pgtol = 1e-5, or the last reduction
(f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) is at most ftol = 2.2e-9. Both tests
are absolute once the cost is below 1. At m = 64, SR 100 and primes:10
(seeds 1-8) runs stop on the reduction test after 228-307 iterations, at a
median cost of 3.7e-7. Its first iterations are weaker than those of a
Polak-Ribiere conjugate gradient: at caps of 15-20 iterations the level error
of the read-back potential is about twice CG's (median 0.025 against 0.012 at
m = 64 and 20 iterations), while from 40 iterations on the final cost is
lower (0.021 against 0.092 at m = 256 and 40 iterations).

The steepness prefactor 10^d (Bowman et al., Opt. Express 25, 11692 (2017))
is fixed at d = 9, ``STEEPNESS``. L-BFGS-B is close to invariant under
scaling the cost until a stop test acts: d = 12 repeats the d = 9 run at
m = 256, 40 iterations, to 7e-11 in cost / 10^d. The absolute stop tests do
not scale with d, so a lower d stops early (m = 64, d = 2: 17 iterations, SR
intensity error near 0.03) and d = 12 runs all 500 iterations at m = 64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .grid import Grid, PotentialGrid, read_table, write_table
from .susy import KINETIC_HALF

__all__ = [
    "MODULATOR_LIMIT",
    "STEEPNESS",
    "TargetMap",
    "HologramState",
    "OptimizeResult",
    "potential_to_target",
    "make_state",
    "plane_row_index",
    "propagate",
    "cost_and_gradient",
    "optimize_phase",
    "extract_profile",
    "intensity_to_potential",
    "write_phase_csv",
    "write_intensity_csv",
    "read_intensity_csv",
    "sr_intensity_error",
]

STEEPNESS = 10.0**9  # cost prefactor 10^d at d = 9 (module docstring)
MODULATOR_LIMIT = 4096  # largest modulator side m (module docstring)


@dataclass(frozen=True)
class TargetMap:
    """Affine map linking a potential to its SR intensity profile."""

    ceiling: float
    span: float
    norm: float
    asymptote: float
    sr_length: int
    grid_half_width: float
    grid_points: int

    @property
    def x_sr(self) -> np.ndarray:
        """Design-frame positions of the SR pixels."""
        return np.linspace(-self.span, self.span, self.sr_length)


@dataclass
class HologramState:
    """Column sums of the modulated beam plus the SR row's unit-power target."""

    sums: np.ndarray
    target_row: np.ndarray
    target_map: TargetMap | None = None

    def __post_init__(self):
        self.sums = np.asarray(self.sums, dtype=np.complex128)
        if self.sums.ndim != 1:
            raise ValueError("column sums must be a 1D array")
        self.target_row = np.asarray(self.target_row, dtype=np.float64)
        sr, m = self.target_row.size, self.m
        if self.target_row.ndim != 1 or sr >= 2 * m:
            raise ValueError(
                f"signal region (sr_length = {sr}) must sit strictly inside the output row of "
                f"2m = {2 * m} pixels: m = {m} is too small, the smallest m that fits is {sr // 2 + 1}"
            )
        if abs(float(np.sum(self.target_row**2)) - 1.0) > 1e-9:
            raise ValueError("target amplitude must carry unit power over the SR")

    @property
    def m(self) -> int:
        return self.sums.size

    @property
    def sr_columns(self) -> slice:
        """Output-row pixels of the SR, centred on the zero-frequency pixel m."""
        start = self.m - self.target_row.size // 2
        return slice(start, start + self.target_row.size)


@dataclass
class OptimizeResult:
    """Optimized state, its double-phase plane's distinct rows and the cost
    history. `line_search_failed` is L-BFGS-B's status 2, "ABNORMAL" (no
    step along the search direction lowered the cost) or "WARNING"; the
    iteration cap (status 1) and the stop tests (status 0) leave it False."""

    state: HologramState
    rows: np.ndarray  # (2 + m % 2, m); state.sums are rows[plane_row_index(m)]'s column sums to roundoff
    history: np.ndarray
    line_search_failed: bool = False


def potential_to_target(potential: PotentialGrid):
    """Resample ceiling - V to the SR row; return (amplitude row, map).

    Higher intensity encodes lower potential (red-detuned trapping), so the
    amplitude is the square root of the affinely inverted potential,
    normalized to unit power over the row. The ceiling lies 2% of the well
    depth (at least 0.02) above the potential maximum. The row spans 1.15
    times the extent where V departs from its asymptote, within the grid.
    Its length keeps the pixel pitch at or below 0.5 / k_max (module
    docstring), and at least 100 pixels.
    """
    v = potential.values
    depth = max(potential.max() - potential.min(), 1.0)
    ceiling = potential.max() + 0.02 * depth
    # Python floats overflow to inf without a warning; below this bound no
    # difference of V, the asymptote and the ceiling, nor the row's sum of
    # fewer than 2 * MODULATOR_LIMIT intensities, can overflow
    low, high = min(potential.min(), potential.asymptote), max(ceiling, potential.asymptote)
    if not math.isfinite((high - low) * 2 * MODULATOR_LIMIT):
        raise ValueError(f"potential range [{low:.3g}, {high:.3g}] overflows a float")
    tol = 0.005 * max(potential.asymptote - potential.min(), 1e-12)
    away = np.nonzero(np.abs(v - potential.asymptote) > tol)[0]
    if away.size == 0:
        span = potential.grid.half_width
    else:
        x_edge = max(abs(potential.x[away[0]]), abs(potential.x[away[-1]]))
        span = min(1.15 * x_edge, potential.grid.half_width)
    k_max = math.sqrt(max(potential.asymptote - potential.min(), 0.0)) / KINETIC_HALF
    # the floor keeps every list whose rule asks for fewer pixels (primes:10: 97) at 100
    sr_length = max(100, math.ceil(4.0 * span * k_max) + 1)
    if sr_length >= 2 * MODULATOR_LIMIT:
        raise ValueError(
            f"signal region (sr_length = {sr_length}) needs m = {sr_length // 2 + 1}, past the limit of {MODULATOR_LIMIT}"
        )
    x_sr = np.linspace(-span, span, sr_length)
    v_sr = np.interp(x_sr, potential.x, v)
    intensity = ceiling - v_sr
    norm = float(intensity.sum())
    amplitude = np.sqrt(intensity / norm)
    target_map = TargetMap(
        ceiling=float(ceiling),
        span=float(span),
        norm=norm,
        asymptote=potential.asymptote,
        sr_length=sr_length,
        grid_half_width=potential.grid.half_width,
        grid_points=potential.grid.points,
    )
    return amplitude, target_map


def make_state(m: int, amplitude_row: np.ndarray, seed: int, target_map: TargetMap | None = None) -> HologramState:
    """Column sums of a seeded random-phase plane; the 1D target centred on the output row."""
    if m < 1:
        raise ValueError(f"modulator side m must be at least 1, got {m}")
    if m > MODULATOR_LIMIT:
        raise ValueError(f"modulator side m = {m} exceeds the limit of {MODULATOR_LIMIT}")
    rng = np.random.default_rng(seed)
    sums = np.zeros(m, dtype=np.complex128)
    for _ in range(m):  # row by row in draw order: numpy's sum over the whole plane's rows, bit for bit
        sums += np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m)) * (1.0 / m)
    return HologramState(sums=sums, target_row=amplitude_row, target_map=target_map)


@functools.lru_cache
def _unshifted(start: int, stop: int, m: int) -> np.ndarray:
    """Positions of centred pixels start..stop-1 of a length-2m row in FFT
    order: fftshift and ifftshift both roll by m, so pixel k sits at
    (k - m) mod 2m. Cached, since every cost evaluation asks for the same
    three; read-only, since every caller shares the array."""
    index = (np.arange(start, stop) - m) % (2 * m)
    index.flags.writeable = False
    return index


def _sr_index(state: HologramState) -> np.ndarray:
    """FFT-order positions of the SR pixels on the output row."""
    sr = state.sr_columns
    return _unshifted(sr.start, sr.stop, state.m)


def _output_row(sums: np.ndarray) -> np.ndarray:
    """Zero-vertical-frequency row of the centered unitary 2m x 2m transform
    of the zero-padded plane with these column sums: their FFT over 2m, in
    FFT order (``_unshifted``). The sums are written straight into their
    rolled positions, so no shift is ever applied."""
    m = sums.size
    padded = np.zeros(2 * m, dtype=np.complex128)
    padded[_unshifted(m // 2, m // 2 + m, m)] = sums
    return np.fft.fft(padded) / (2 * m)


def propagate(state: HologramState) -> np.ndarray:
    """Complex output field on the SR row for the modulated beam."""
    return _output_row(state.sums)[_sr_index(state)]


def cost_and_gradient(state: HologramState, sums: np.ndarray | None = None):
    """Steepened squared overlap deficit of any plane with the m column sums
    `sums` (default `state.sums`), and its gradient d/dRe s + i d/dIm s via
    the adjoint transform."""
    if sums is None:
        sums = state.sums
    row = _output_row(sums)
    sr = _sr_index(state)
    f_sr = row[sr]
    power_sr = float(np.sum(np.abs(f_sr) ** 2))
    if power_sr <= 0.0:
        raise ValueError("no power in the signal region; normalization undefined")
    w_sr = state.target_row
    amp = np.abs(f_sr)
    sqrt_p = np.sqrt(power_sr)
    overlap = float(np.sum(w_sr * amp) / sqrt_p)
    cost = STEEPNESS * (1.0 - overlap) ** 2

    amp_safe = np.where(amp > 0.0, amp, 1.0)
    bracket = w_sr / (amp_safe * sqrt_p) - overlap / power_sr
    adj = np.zeros_like(row)
    adj[sr] = f_sr * bracket
    # adjoint of _output_row, read back at the sums' rolled positions
    lo = state.m // 2
    back = np.fft.ifft(adj)[_unshifted(lo, lo + state.m, state.m)]
    return cost, -2.0 * STEEPNESS * (1.0 - overlap) * back


def _double_phase(sums: np.ndarray) -> np.ndarray:
    """Distinct rows in [0, 2 pi) of the double-phase plane whose column sums
    are sums / max|sums|: a_j + b_j and a_j - b_j, and a_j for odd m."""
    m = sums.size
    t = np.abs(sums) / np.max(np.abs(sums))
    spread = np.arccos((m * t - 1.0) / max(m - 1, 1) if m % 2 else t)
    sign = np.array([1.0, -1.0, 0.0][: 2 + m % 2])
    return np.mod(np.angle(sums) + sign[:, None] * spread, 2.0 * np.pi)


def plane_row_index(m: int) -> np.ndarray:
    """Row of ``_double_phase``'s output that each of the m plane rows
    repeats: the rows alternate 0, 1, and for odd m the last is 2."""
    index = np.arange(m) % 2
    if m % 2:
        index[-1] = 2
    return index


def optimize_phase(state: HologramState, max_iters: int) -> OptimizeResult:
    """L-BFGS-B (scipy's, default options) over the real and imaginary parts
    of the m column sums.

    Starts from `state.sums` and realizes the result by double-phase
    encoding (module docstring): the result holds the plane's distinct rows
    and a state with the plane's column sums to roundoff. Stops after
    `max_iters` iterations, or earlier on either of L-BFGS-B's tests: the
    largest projected-gradient component of the 2m-real gradient is at most
    pgtol = 1e-5, or a step lowers the cost by at most ftol = 2.2e-9 times
    max(cost, 1). The history holds the start cost, then the cost of every
    accepted iterate; the line search's sufficient-decrease test keeps it
    non-increasing. A failed line search (status 2, "ABNORMAL" or "WARNING")
    stops early and sets `line_search_failed`.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    # imported on first use, so commands without a hologram start without scipy.optimize
    from scipy.optimize import minimize

    m = state.m
    history = []

    def cost(x):
        value, grad = cost_and_gradient(state, x[:m] + 1j * x[m:])
        if not history:
            history.append(value)
        return value, np.concatenate((grad.real, grad.imag))

    result = minimize(
        cost,
        np.concatenate((state.sums.real, state.sums.imag)),
        jac=True,
        method="L-BFGS-B",
        callback=lambda intermediate_result: history.append(intermediate_result.fun),
        options={"maxiter": max_iters},
    )
    rows = _double_phase(result.x[:m] + 1j * result.x[m:])
    return OptimizeResult(
        state=replace(state, sums=np.bincount(plane_row_index(m)) / m @ np.exp(1j * rows)),
        rows=rows,
        history=np.asarray(history),
        line_search_failed=result.status == 2,
    )


def intensity_to_potential(intensity: np.ndarray, tmap: TargetMap) -> PotentialGrid:
    """Invert an SR intensity row through its target map to a potential on the
    design grid (the asymptote outside the SR span)."""
    intensity = np.asarray(intensity, dtype=np.float64)
    total = float(intensity.sum())
    if total <= 0.0:
        raise ValueError("no power in the signal region")
    v_sr = tmap.ceiling - intensity / total * tmap.norm
    grid = Grid(half_width=tmap.grid_half_width, points=tmap.grid_points)
    from scipy.interpolate import CubicSpline  # on first use, like minimize above

    spline = CubicSpline(tmap.x_sr, v_sr, bc_type="natural")
    values = np.where(np.abs(grid.x) <= tmap.span, spline(grid.x), tmap.asymptote)
    return PotentialGrid(grid=grid, values=values, asymptote=tmap.asymptote)


def extract_profile(field: np.ndarray, state: HologramState) -> PotentialGrid:
    """Invert the SR intensity row back to a potential on the design grid."""
    if state.target_map is None:
        raise ValueError("state carries no target map; build it with potential_to_target")
    return intensity_to_potential(np.abs(field) ** 2, state.target_map)


def write_phase_csv(path, rows: np.ndarray) -> None:
    """The bytes of ``np.savetxt(path, plane, delimiter=",")`` for the m x m
    double-phase plane with these distinct rows: one line of comma-separated
    ``%.18e`` per plane row, each distinct row formatted once."""
    m = rows.shape[1]
    row_format = ",".join(["%.18e"] * m) + "\n"
    lines = [row_format % tuple(row.tolist()) for row in rows]
    with open(path, "w") as fh:
        fh.writelines(lines[i] for i in plane_row_index(m))


def write_intensity_csv(path, intensity: np.ndarray, tmap: TargetMap) -> None:
    """SR intensity as `x,I` rows under the target map's `# key=value` lines."""
    meta = {f.name: getattr(tmap, f.name) for f in fields(TargetMap)}
    write_table(path, meta, "x,I", tmap.x_sr, intensity)


def read_intensity_csv(path) -> tuple[np.ndarray, TargetMap]:
    """Inverse of write_intensity_csv: (intensity row, target map)."""
    meta, _, intensity = read_table(path, get_type_hints(TargetMap))
    names = [f.name for f in fields(TargetMap)]
    missing = set(names) - meta.keys()
    if missing:
        raise ValueError(f"{path}: missing metadata {sorted(missing)}")
    if intensity.size != meta["sr_length"]:
        raise ValueError(f"{path}: {intensity.size} intensity rows, but sr_length={meta['sr_length']}")
    return intensity, TargetMap(**{name: meta[name] for name in names})


def sr_intensity_error(field: np.ndarray, state: HologramState) -> float:
    """RMS fractional mismatch between normalized SR intensity and target."""
    intensity = np.abs(field) ** 2
    intensity = intensity / intensity.sum()
    target = state.target_row**2
    target = target / target.sum()
    return float(np.sqrt(np.mean((intensity - target) ** 2)) / np.mean(target))
