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

The filter decides from the transmission of the two wells in series averaged
over the phase the flat gap between them adds,
``<T> = T_a T_b / (1 - R_a R_b)`` (two incoherent scatterers; Datta,
*Electronic Transport in Mesoscopic Systems*, 1995, ch. 2). A coherent scan
of the composed grid also shows inter-well cavity modes, which transmit at
energies unrelated to any level and move with the gap length; the average
over the gap phase has none, so it is near 1 only where both wells hold a
level and the verdict does not depend on the separation. One kernel pass
gives both wells' transfer matrices (the wells run in lockstep as two cell
profiles). Resonance widths shrink exponentially with level depth, so the
windowed search refines adaptively around local maxima.
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
    "build_filter_apparatus",
    "filter_lucky_prime",
]

RESONANCE_HEIGHT = 0.5
COARSE = 241  # energies of the first scan of a search window
TOP_K = 3  # coarse local maxima refined
RESOLUTION_FLOOR = 1e-6  # refinement stops once the step is below this
FILTER_WINDOW = 0.5  # half-width around w absorbing the truncation shift
CUTOFF_FACTOR = 1.2  # filter wells are capped at this multiple of their asymptote
FLAT_FRACTION = 0.05  # opened walls end where they come this close to the rim, relative to the depth
RESAMPLE = 4  # filter wells are opened on a grid this many times finer than the design grid


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
    flat_tol = FLAT_FRACTION * (rim - float(values.min()))
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


def compose_apparatus(
    pot_a: PotentialGrid, pot_b: PotentialGrid, separation: float
) -> PotentialGrid:
    """Concatenate A, a flat gap, and B on one merged grid.

    The gap is the nearest whole number of cells to `separation`, at least
    one, plus one if needed to keep the composed node count odd (x = 0 on a
    node).
    """
    h_a, h_b = pot_a.grid.spacing, pot_b.grid.spacing
    if abs(h_a - h_b) > 1e-12 * max(h_a, h_b):
        raise ValueError("grids must share the same spacing")
    if abs(pot_a.asymptote - pot_b.asymptote) > 1e-9:
        raise ValueError("asymptote mismatch between the two devices")
    if separation < 0.0:
        raise ValueError("separation must be non-negative")
    flat = pot_a.asymptote
    n_gap = max(int(round(separation / h_a)), 1)
    n_gap += (pot_a.grid.points + pot_b.grid.points + n_gap) % 2
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


def windowed_max_transmission(scan, lo: float, hi: float) -> tuple[float, float]:
    """(max T, argmax E) over [lo, hi] by zooming on local maxima.

    `scan` maps an energy array to T. A coarse scan of ``COARSE`` energies
    seeds the ``TOP_K`` highest local maxima; each is refined by 33-point
    scans of shrinking width until the step drops below
    ``RESOLUTION_FLOOR``, far below the width of any level resonance the
    filter resolves.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    energies = np.linspace(lo, hi, COARSE)
    t = scan(energies)
    best_t = float(t.max())
    best_e = float(energies[int(t.argmax())])
    peaks = _local_maxima(t)
    if peaks.size:
        order = np.argsort(t[peaks])[::-1][:TOP_K]
        seeds = [int(peaks[i]) for i in order]
    else:
        seeds = [int(t.argmax())]
    step0 = (hi - lo) / (COARSE - 1)
    for seed in seeds:
        e_center = float(energies[seed])
        step = step0
        while step > RESOLUTION_FLOOR:
            e_lo = max(lo, e_center - step)
            e_hi = min(hi, e_center + step)
            local = np.linspace(e_lo, e_hi, 33)
            t_loc = scan(local)
            idx = int(t_loc.argmax())
            if t_loc[idx] > best_t:
                best_t = float(t_loc[idx])
                best_e = float(local[idx])
            e_center = float(local[idx])
            step = (e_hi - e_lo) / 16.0
    return best_t, best_e


@dataclass
class FilterApparatus:
    """Opened lucky and prime wells, the two halves of the filter.

    ``w_max`` is the largest integer safely below both rims; the filter is
    only meaningful inside that window.
    """

    device_lucky: PotentialGrid
    device_prime: PotentialGrid
    lucky_levels: np.ndarray
    prime_levels: np.ndarray
    kinetic_scale: float
    w_max: int

    def __post_init__(self):
        a, b = self.device_lucky, self.device_prime
        if abs(a.grid.spacing - b.grid.spacing) > 1e-12 * max(a.grid.spacing, b.grid.spacing):
            raise ValueError("grids must share the same spacing")
        for device in (a, b):
            if device.values[0] != a.asymptote or device.values[-1] != a.asymptote:
                raise ValueError("both devices must start and end at one lead potential")

    def composed(self, separation: float = 2.0) -> PotentialGrid:
        """Both wells on one grid, `separation` apart (for coherent checks)."""
        return compose_apparatus(self.device_lucky, self.device_prime, separation)

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

    def averaged_transmission(self, energies):
        """T of the lucky well, a flat gap and the prime well, averaged over
        the gap phase: ``T_a T_b / (1 - R_a R_b)``.

        The denominator is written ``T_a + T_b - T_a T_b`` (equal given
        T + R = 1): deep in both wells' tunnelling regime ``1 - R_a R_b``
        cancels to roundoff, and can go negative, while this form stays
        positive.
        """
        t, _ = _kernels.transmission_reflection(*self.device_matrices(energies))
        t_a, t_b = t[..., 0], t[..., 1]
        return t_a * t_b / (t_a + t_b - t_a * t_b)


@dataclass(frozen=True)
class FilterResult:
    w: int
    is_lucky_prime: bool
    peak_energy: float
    peak_transmission: float

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "lucky_prime": self.is_lucky_prime,
            "peak_energy": self.peak_energy,
            "peak_T": self.peak_transmission,
        }


def build_filter_apparatus(
    lucky_count: int = 10,
    prime_count: int = 10,
    kinetic_scale: float = KINETIC_HALF,
) -> FilterApparatus:
    """Design both wells, open them for scattering, and fix the valid window.

    Each well is designed on the default grid and resampled ``RESAMPLE``
    times finer before opening, so the two wells' quasi-levels agree to well
    within their resonance widths.
    """
    lucky_levels = first_lucky(lucky_count)
    prime_levels = first_primes(prime_count)
    device = {}
    for name, levels in (("lucky", lucky_levels), ("prime", prime_levels)):
        designed = design_potential(levels, kinetic_scale=kinetic_scale)
        device[name] = truncate_potential(
            designed.resampled(RESAMPLE), CUTOFF_FACTOR * designed.asymptote, open_baseline=0.0
        )
    w_max = int(min(device["lucky"].max(), device["prime"].max()) - 1.0)
    return FilterApparatus(
        device_lucky=device["lucky"],
        device_prime=device["prime"],
        lucky_levels=lucky_levels,
        prime_levels=prime_levels,
        kinetic_scale=kinetic_scale,
        w_max=w_max,
    )


def filter_lucky_prime(w: int, apparatus: FilterApparatus, threshold: float = 0.5) -> FilterResult:
    """w is lucky and prime when the gap-averaged transmission of the two
    wells peaks at or above `threshold` within ``FILTER_WINDOW`` of w."""
    if w < 1:
        raise ValueError("w must be a positive integer")
    if w > apparatus.w_max:
        raise ValueError(f"w={w} is outside the filter window (w_max={apparatus.w_max})")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold={threshold} must lie strictly between 0 and 1")
    peak_t, peak_e = windowed_max_transmission(
        apparatus.averaged_transmission, max(w - FILTER_WINDOW, 1e-6), w + FILTER_WINDOW
    )
    return FilterResult(w, peak_t >= threshold, peak_e, peak_t)
