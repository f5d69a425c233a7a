"""Transmission through truncated potentials and the lucky-prime filter.

Transfer matrices over piecewise-constant grid cells give T(E), R(E) with
semi-infinite flat leads attached at the boundary value. ``truncate_potential``
has two modes:

* cap-and-shift (default): clip the potential at the cutoff, flatten beyond
  the last crossing, and re-reference energies so the flat value sits at
  zero. Bound levels below the cutoff survive (shifted), which is what the
  before/after eigensolver check exercises.
* opened (``open_baseline`` given): keep the well in its original energy
  frame, cap the walls at the cutoff, and drop the potential to the given
  baseline outside the wall region. Levels between baseline and rim become
  quasi-bound, so a transmission scan shows a sharp resonance at (almost)
  every original bound level. This is the geometry the composite filter
  needs: a wave arriving at energy w can only cross the apparatus when both
  wells hold a level at w.

Resonance widths shrink exponentially with level depth, so the windowed
filter search refines adaptively around local maxima; the refinement floor
deliberately under-resolves the far narrower inter-well cavity modes, which
would otherwise transmit at energies unrelated to any level.

The filter never scans the composed grid: one kernel pass gives both wells'
transfer matrices (the wells run in lockstep), and the flat gap between them
is the exact lead-basis phase ``diag(exp(ikL), exp(-ikL))``, so every
separation costs one 2x2 product per energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import Grid, PotentialGrid
from .sequences import first_lucky, first_primes
from .susy import KINETIC_HALF, design_potential

__all__ = [
    "TransmissionScan",
    "FilterApparatus",
    "FilterResult",
    "truncate_potential",
    "transmission",
    "transmission_from_cells",
    "transmission_scan",
    "compose_apparatus",
    "windowed_max_transmission",
    "lucky_prime_test",
    "build_filter_apparatus",
    "filter_lucky_prime",
]

RESONANCE_HEIGHT = 0.5
RESOLUTION_FLOOR = 1e-6


@dataclass
class TransmissionScan:
    """T(E) samples plus detected resonance peaks (energy, peak T)."""

    energies: np.ndarray
    t_values: np.ndarray
    resonances: list[tuple[float, float]]

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=np.float64)
        self.t_values = np.asarray(self.t_values, dtype=np.float64)
        if self.energies.shape != self.t_values.shape:
            raise ValueError("energies and t_values must align")
        if np.any((self.t_values < -1e-9) | (self.t_values > 1.0 + 1e-9)):
            raise ValueError("transmission outside [0, 1]")

    def as_dict(self) -> dict:
        return {
            "energies": self.energies.tolist(),
            "T": self.t_values.tolist(),
            "resonances": [[e, t] for e, t in self.resonances],
        }


def truncate_potential(
    potential: PotentialGrid,
    cutoff: float,
    open_baseline: float | None = None,
    flat_fraction: float = 0.02,
) -> PotentialGrid:
    """Clip at `cutoff` and prepare asymptotically free states.

    Default mode re-references energies so the flat outer value is zero
    (shift recorded in ``energy_shift``). With ``open_baseline`` the original
    frame is kept and the outside drops to the baseline instead, turning
    bound levels into scattering resonances at their original energies.
    """
    if cutoff <= potential.min():
        raise ValueError("cutoff must exceed the potential minimum")
    values = np.minimum(potential.values, cutoff)

    if open_baseline is None:
        # beyond the last crossing the capped potential is identically the
        # cutoff, so min() already flattens it; the flat value becomes zero
        crossed = bool(np.any(potential.values > cutoff))
        flat = cutoff if crossed else potential.asymptote
        return PotentialGrid(
            grid=potential.grid,
            values=values - flat,
            asymptote=0.0,
            even_symmetric=potential.even_symmetric,
            energy_shift=flat,
        )

    if not potential.even_symmetric:
        raise ValueError("opened truncation expects an even designed potential")
    baseline = float(open_baseline)
    rim = min(cutoff, potential.asymptote)
    if rim <= baseline:
        raise ValueError("rim must sit above the baseline")
    grid = potential.grid
    center = grid.center_index
    right = values[center:]
    flat_tol = flat_fraction * (rim - float(values.min()))
    below = np.nonzero(rim - right > flat_tol)[0]
    if below.size == 0:
        raise ValueError("potential never departs from its rim; nothing to open")
    i_wall_end = int(below[-1]) + 1
    # keep two baseline nodes outside the wall so the boundary is flat
    i_keep = min(i_wall_end + 2, right.size - 1)
    new_right = right[: i_keep + 1].copy()
    new_right[i_wall_end + 1 :] = baseline
    points = 2 * i_keep + 1
    new_grid = Grid(half_width=i_keep * grid.spacing, points=points)
    return PotentialGrid.from_even_half(new_grid, new_right, asymptote=baseline)


def _gap_cells(points_a: int, points_b: int, separation: float, spacing: float) -> int:
    """Flat cells between two devices `separation` apart: the nearest whole
    number of cells, at least one, plus one if needed to keep the composed
    node count odd (x = 0 on a node)."""
    if separation < 0.0:
        raise ValueError("separation must be non-negative")
    n = max(int(round(separation / spacing)), 1)
    return n + (points_a + points_b + n) % 2


def compose_apparatus(
    pot_a: PotentialGrid, pot_b: PotentialGrid, separation: float
) -> PotentialGrid:
    """Concatenate A, a flat gap, and B on one merged grid."""
    h_a, h_b = pot_a.grid.spacing, pot_b.grid.spacing
    if abs(h_a - h_b) > 1e-12 * max(h_a, h_b):
        raise ValueError("grids must share the same spacing")
    if abs(pot_a.asymptote - pot_b.asymptote) > 1e-9:
        raise ValueError("asymptote mismatch between the two devices")
    flat = pot_a.asymptote
    n_gap = _gap_cells(pot_a.grid.points, pot_b.grid.points, separation, h_a)
    values = np.concatenate([pot_a.values, np.full(n_gap - 1, flat), pot_b.values])
    grid = Grid(half_width=(values.size - 1) * h_a / 2.0, points=values.size)
    return PotentialGrid(
        grid=grid,
        values=values,
        asymptote=flat,
        even_symmetric=bool(np.array_equal(values, values[::-1])),
    )


def transmission_from_cells(
    cells, spacing: float, energies, kinetic_scale: float = KINETIC_HALF, lead_potential: float = 0.0
):
    """(T, R) for an explicit piecewise-constant cell profile.

    Exact (to roundoff) for genuinely piecewise-constant potentials such as
    rectangular barriers, since the matrix product is the analytic solution.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    if np.any(energies <= lead_potential):
        raise ValueError("scan energies must exceed the lead potential")
    return _kernels.transmission_reflection(
        *_kernels.transfer_scan(
            np.asarray(cells, dtype=np.float64), float(spacing), energies, float(kinetic_scale), float(lead_potential)
        )
    )


def transmission(potential: PotentialGrid, energies, kinetic_scale: float = KINETIC_HALF):
    """(T, R) arrays from the piecewise-constant transfer-matrix product."""
    v = potential.values
    if abs(float(v[0]) - float(v[-1])) > 1e-9:
        raise ValueError("potential must have equal asymptotes (truncate it first)")
    cells = 0.5 * (v[:-1] + v[1:])
    return transmission_from_cells(
        cells, potential.grid.spacing, energies, kinetic_scale, float(v[0])
    )


def transmission_scan(
    potential: PotentialGrid,
    energies,
    kinetic_scale: float = KINETIC_HALF,
    resonance_height: float = RESONANCE_HEIGHT,
) -> TransmissionScan:
    """T over the energy list plus local maxima with T above the threshold."""
    energies = np.asarray(energies, dtype=np.float64)
    if np.any(energies <= 0.0):
        raise ValueError("energies must be positive")
    from scipy.signal import find_peaks

    t_values, _ = transmission(potential, energies, kinetic_scale)
    # prominence floor keeps roundoff ripples on flat T = 1 stretches out
    peaks, _ = find_peaks(t_values, height=resonance_height, prominence=1e-3)
    resonances = [(float(energies[i]), float(t_values[i])) for i in peaks]
    return TransmissionScan(energies=energies, t_values=t_values, resonances=resonances)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima; a flat top counts once, at its
    middle sample (the peaks ``scipy.signal.find_peaks`` reports)."""
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    top = values[starts]
    inner = (top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])
    return (starts[1:-1][inner] + ends[1:-1][inner]) // 2


def windowed_max_transmission(
    source,
    lo: float,
    hi: float,
    kinetic_scale: float = KINETIC_HALF,
    coarse: int = 241,
    resolution: float = RESOLUTION_FLOOR,
    top_k: int = 3,
    stop_above: float | None = None,
) -> tuple[float, float]:
    """(max T, argmax E) over [lo, hi] by zooming on local maxima.

    `source` is a PotentialGrid, scanned at `kinetic_scale`, or a callable
    mapping an energy array to T (the filter's composed devices). The
    refinement step never drops below `resolution`: peaks narrower than
    that (inter-well cavity modes) stay unresolved on purpose, while genuine
    level resonances are orders of magnitude wider.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")

    def scan(e_arr):
        return source(e_arr) if callable(source) else transmission(source, e_arr, kinetic_scale)[0]

    energies = np.linspace(lo, hi, coarse)
    t = scan(energies)
    best_t = float(t.max())
    best_e = float(energies[int(t.argmax())])
    if stop_above is not None and best_t >= stop_above:
        return best_t, best_e
    peaks = _local_maxima(t)
    if peaks.size:
        order = np.argsort(t[peaks])[::-1][:top_k]
        seeds = [int(peaks[i]) for i in order]
    else:
        seeds = [int(t.argmax())]
    step0 = (hi - lo) / (coarse - 1)
    for seed in seeds:
        e_center = float(energies[seed])
        step = step0
        while step > resolution:
            e_lo = max(lo, e_center - step)
            e_hi = min(hi, e_center + step)
            local = np.linspace(e_lo, e_hi, 33)
            t_loc = scan(local)
            idx = int(t_loc.argmax())
            if t_loc[idx] > best_t:
                best_t = float(t_loc[idx])
                best_e = float(local[idx])
                if stop_above is not None and best_t >= stop_above:
                    return best_t, best_e
            e_center = float(local[idx])
            step = (e_hi - e_lo) / 16.0
    return best_t, best_e


def lucky_prime_test(
    w: int,
    apparatus: PotentialGrid,
    kinetic_scale: float = KINETIC_HALF,
    threshold: float = 0.5,
    window: float = 0.5,
    resolution: float = RESOLUTION_FLOOR,
) -> bool:
    """True iff the composite apparatus transmits above `threshold` near w.

    The +-window search absorbs the small resonance shift truncation causes.
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    rim = float(apparatus.values.max())
    if w >= rim:
        raise ValueError(f"w={w} is not below the apparatus cutoff {rim:.3f}")
    lo = max(w - window, 0.25 * apparatus.grid.spacing, 1e-6)
    hi = w + window
    best_t, _ = windowed_max_transmission(
        apparatus,
        lo,
        hi,
        kinetic_scale=kinetic_scale,
        resolution=resolution,
        stop_above=threshold,
    )
    return bool(best_t >= threshold)


@dataclass
class FilterApparatus:
    """Opened lucky and prime wells ready for composition at any separation.

    ``w_max`` is the largest integer safely below both rims; the filter is
    only meaningful inside that window.
    """

    device_lucky: PotentialGrid
    device_prime: PotentialGrid
    lucky_levels: np.ndarray
    prime_levels: np.ndarray
    separation: float
    kinetic_scale: float
    w_max: int

    def __post_init__(self):
        a, b = self.device_lucky, self.device_prime
        if abs(a.grid.spacing - b.grid.spacing) > 1e-12 * max(a.grid.spacing, b.grid.spacing):
            raise ValueError("grids must share the same spacing")
        for device in (a, b):
            if device.values[0] != a.asymptote or device.values[-1] != a.asymptote:
                raise ValueError("both devices must start and end at one lead potential")

    def composed(self, separation: float | None = None) -> PotentialGrid:
        s = self.separation if separation is None else separation
        return compose_apparatus(self.device_lucky, self.device_prime, s)

    def device_matrices(self, energies):
        """Both wells' transfer matrices at `energies`, from one kernel pass.

        The wells run in lockstep as two cell profiles; the shorter one is
        padded with lead cells on its outer side (before the lucky well,
        after the prime well), a phase on the lead amplitudes that neither
        T nor R sees. Returns ``transfer_scan``'s ``(m, log_scale)``, the
        last axis being (lucky, prime).
        """
        lead = self.device_lucky.asymptote
        a, b = (0.5 * (d.values[:-1] + d.values[1:]) for d in (self.device_lucky, self.device_prime))
        n = max(a.size, b.size)
        cells = np.full((n, 2), lead)
        cells[n - a.size :, 0] = a
        cells[: b.size, 1] = b
        return _kernels.transfer_scan(cells, self.device_lucky.grid.spacing, energies, self.kinetic_scale, lead)

    def compose(self, energies, matrices, separation: float | None = None):
        """(T, R) of the lucky well, a flat gap and the prime well.

        ``M = M_prime G M_lucky``, with ``G = diag(exp(ikL), exp(-ikL))`` the
        gap in the lead basis and L from the same gap-cell rule as
        ``compose_apparatus``, so T matches ``transmission(composed(s))``.
        """
        s = self.separation if separation is None else separation
        a, b = self.device_lucky, self.device_prime
        h = a.grid.spacing
        gap = _gap_cells(a.grid.points, b.grid.points, s, h) * h
        energies = np.asarray(energies, dtype=np.float64)
        k = np.sqrt((energies - a.asymptote).astype(np.complex128)) / self.kinetic_scale
        m, log_scale = matrices
        through_gap = np.stack([np.exp(1j * k * gap), np.exp(-1j * k * gap)])[:, None] * m[..., 0]
        total = np.einsum("ij...,jk...->ik...", m[..., 1], through_gap)
        return _kernels.transmission_reflection(total, log_scale.sum(axis=-1))


@dataclass(frozen=True)
class FilterResult:
    w: int
    is_lucky_prime: bool
    peak_energy: float
    peak_transmission: float
    confirmed: bool

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "lucky_prime": self.is_lucky_prime,
            "peak_energy": self.peak_energy,
            "peak_T": self.peak_transmission,
            "confirmed": self.confirmed,
        }


def build_filter_apparatus(
    lucky_count: int = 10,
    prime_count: int = 10,
    cutoff_factor: float = 1.2,
    separation: float = 2.0,
    flat_fraction: float = 0.05,
    resample: int = 4,
    grid: Grid | None = None,
    kinetic_scale: float = KINETIC_HALF,
) -> FilterApparatus:
    """Design both wells, open them for scattering, and fix the valid window.

    The designed staircase is resampled finer before opening so the two
    wells' quasi-levels agree to well within their resonance widths.
    """
    lucky_levels = first_lucky(lucky_count)
    prime_levels = first_primes(prime_count)
    device = {}
    for name, levels in (("lucky", lucky_levels), ("prime", prime_levels)):
        designed = design_potential(levels, grid, kinetic_scale)
        fine = designed.resampled(resample)
        device[name] = truncate_potential(
            fine,
            cutoff_factor * designed.asymptote,
            open_baseline=0.0,
            flat_fraction=flat_fraction,
        )
    w_max = int(min(device["lucky"].max(), device["prime"].max()) - 1.0)
    return FilterApparatus(
        device_lucky=device["lucky"],
        device_prime=device["prime"],
        lucky_levels=lucky_levels,
        prime_levels=prime_levels,
        separation=separation,
        kinetic_scale=kinetic_scale,
        w_max=w_max,
    )


def filter_lucky_prime(
    w: int,
    apparatus: FilterApparatus,
    threshold: float = 0.5,
    window: float = 0.5,
    resolution: float = RESOLUTION_FLOOR,
    confirm_window: float = 0.01,
) -> FilterResult:
    """Windowed peak search plus separation-insensitivity confirmation.

    A genuine level resonance sits at a quasi-bound energy of the individual
    wells, so its position survives changing the flat gap between them;
    cavity modes of the gap move with the gap length and fail the re-check
    at doubled and tripled separation.
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    if w > apparatus.w_max:
        raise ValueError(f"w={w} is outside the filter window (w_max={apparatus.w_max})")
    # one device pass per distinct energy list of this verdict: the coarse
    # scans at 2s and 3s use the same energies and share theirs
    passes: dict[bytes, tuple] = {}

    def scan_at(separation):
        def scan(energies):
            key = energies.tobytes()
            if key not in passes:
                passes[key] = apparatus.device_matrices(energies)
            return apparatus.compose(energies, passes[key], separation)[0]

        return scan

    lo = max(w - window, 1e-6)
    hi = w + window
    peak_t, peak_e = windowed_max_transmission(
        scan_at(apparatus.separation), lo, hi, resolution=resolution
    )
    if peak_t < threshold:
        return FilterResult(w, False, peak_e, peak_t, confirmed=False)
    for factor in (2.0, 3.0):
        t_alt, _ = windowed_max_transmission(
            scan_at(factor * apparatus.separation),
            peak_e - confirm_window,
            peak_e + confirm_window,
            resolution=resolution,
            stop_above=threshold,
        )
        if t_alt < threshold:
            return FilterResult(w, False, peak_e, peak_t, confirmed=False)
    return FilterResult(w, True, peak_e, peak_t, confirmed=True)
