"""Transmission through truncated potentials and the lucky-prime filter.

Transfer matrices give T(E), R(E) with semi-infinite flat leads attached
at the boundary value. One real kernel carries ``(psi, psi')`` across each
cell by the fourth-order two-point Gauss Magnus step
(``_kernels.transfer_scan``); a potential sampled on grid nodes enters as
piecewise-constant cells (node midpoints), the kernel's exact special case.
``truncate_potential`` opens a well: it keeps the well in its original
energy frame and drops the potential outside the wall region to 0, the lead
potential. A designed well is reflectionless, so it lies below its asymptote
(Kay & Moses 1956) and its walls need no cap. Levels between 0 and the rim
become quasi-bound, so a transmission scan shows a sharp resonance at
(almost) every original bound level. This is the geometry the composite filter
needs: a wave arriving at energy w can only cross the apparatus when both
wells hold a level at w.

The filter decides from the transmission of the two wells in series averaged
over the phase the flat gap between them adds,
``<T> = T_a T_b / (1 - R_a R_b)`` (two incoherent scatterers; Datta,
*Electronic Transport in Mesoscopic Systems*, 1995, ch. 2). A coherent scan
of the two wells on one grid (``FilterApparatus.composed``, which designs
them again for flux-conservation checks) also shows inter-well cavity
modes, which transmit at energies unrelated to any level and move with the
gap length; the average over the gap phase has none, so it is near 1 only
where both wells hold a level and the verdict does not depend on the
separation. Every designed well is even, so one kernel pass per well scans
only its left half, and ``_kernels.mirror_resonance`` turns the half's
transfer matrix into the whole well's resonance function G, with
``T = 1/(1 + G^2)``; then ``<T> = 1/(1 + G_a^2 + G_b^2)``. Each well is
scanned on the cells of its design grid, with the potential at each cell's
two Gauss points taken from a cubic through the designed nodes, so its
quasi-levels carry only the fourth-order error of the Magnus step. G is
smooth with a simple root at each resonance, however narrow, so a window's
peak is the minimum of ``G_a^2 + G_b^2``, which a few Gauss-Newton steps
find from a coarse start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import GAUSS_POINTS, cell_samples
from .grid import Grid, PotentialGrid
from .sequences import first_lucky, first_primes
from .susy import KINETIC_HALF, design_potential

__all__ = [
    "DEFAULT_LEVEL_COUNT",
    "FilterApparatus",
    "FilterResult",
    "truncate_potential",
    "opened_cells",
    "transmission",
    "transmission_scan",
    "windowed_max_transmission",
    "build_filter_apparatus",
    "filter_lucky_prime",
]

RESONANCE_HEIGHT = 0.5  # T a scan peak and an accepted filter verdict must reach
COARSE = 17  # energies a window search starts from
NEWTON_STEPS = 8  # Gauss-Newton steps a window search takes at most
FILTER_WINDOW = 0.5  # half-width around w absorbing the truncation shift
FLAT_FRACTION = 0.05  # opened walls end where they come this close to the rim, relative to the depth
SCAN_STEP_LIMIT = 20_000  # most energies `scatter --steps` takes: about 2.9 KB of scan buffers each
DEFAULT_LEVEL_COUNT = 10  # levels in each well of the default filter apparatus, lucky and prime alike
COMPOSED_GAP = 2.0  # length of the flat gap between the wells of `FilterApparatus.composed`


def truncate_potential(potential: PotentialGrid) -> PotentialGrid:
    """Open an even well: drop the outside of its walls to 0, keeping the
    original energy frame, so bound levels become scattering resonances at
    their original energies."""
    i_wall_end, i_keep = _opened_extent(potential)
    grid = potential.grid
    new_right = potential.values[grid.center_index :][: i_keep + 1].copy()
    new_right[i_wall_end + 1 :] = 0.0
    new_grid = Grid(half_width=i_keep * grid.spacing, points=2 * i_keep + 1)
    return PotentialGrid.from_even_half(new_grid, new_right, asymptote=0.0)


def _opened_extent(potential: PotentialGrid) -> tuple[int, int]:
    """Where an opened well ends, in nodes from the center: ``(i_wall_end,
    i_keep)``.

    The wall ends at the first node past the last one further than
    ``FLAT_FRACTION`` of the depth below the rim, the asymptote; two lead
    nodes follow, so the opened well keeps ``i_keep`` nodes on each side of
    the center.
    """
    if not potential.even:
        raise ValueError("opened truncation expects an even designed potential")
    rim = potential.asymptote
    if rim <= 0.0:
        raise ValueError("asymptote must sit above the lead potential, 0")
    right = potential.values[potential.grid.center_index :]
    flat_tol = FLAT_FRACTION * (rim - float(right.min()))
    below = np.nonzero(rim - right > flat_tol)[0]
    if below.size == 0:
        raise ValueError("potential never departs from its rim; nothing to open")
    i_wall_end = int(below[-1]) + 1
    return i_wall_end, min(i_wall_end + 2, right.size - 1)


def opened_cells(potential: PotentialGrid, fractions=GAUSS_POINTS) -> np.ndarray:
    """The cells of ``truncate_potential(potential)``, sampled at `fractions`
    of each cell: shape (2 i_keep, len(fractions)).

    The samples come from the designed potential (``cell_samples``). The
    wall keeps the cell that starts at its end node; the cells past it sit
    at 0. With the default two Gauss points these are
    ``_kernels.transfer_scan``'s cells.
    """
    i_wall_end, i_keep = _opened_extent(potential)
    center = potential.grid.center_index
    samples = cell_samples(potential.values, fractions)[center - i_keep : center + i_keep]
    middles = np.abs(np.arange(-i_keep, i_keep) + 0.5)  # in cells from the center
    samples[middles > i_wall_end + 1] = 0.0
    return samples


def transmission(potential: PotentialGrid, energies, kinetic_scale: float = KINETIC_HALF):
    """(T, R) arrays with the potential constant on each cell at its node
    midpoint and the leads at its boundary value; ``kinetic_scale`` stays the
    third argument, which the benchmark's filter check passes."""
    v = potential.values
    low, high = float(v.min()), float(v.max())
    # each cell sums two neighbouring nodes, which must not overflow
    if not math.isfinite(2.0 * max(abs(low), abs(high))):
        raise ValueError(f"potential range [{low:.3g}, {high:.3g}] overflows a float")
    lead = float(v[0])
    if abs(lead - float(v[-1])) > 1e-9:
        raise ValueError("potential must have equal asymptotes (truncate it first)")
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    if not np.all(np.isfinite(energies)):
        raise ValueError("scan energies must be finite")
    if np.any(energies <= lead):
        raise ValueError("scan energies must exceed the lead potential")
    cells = 0.5 * (v[:-1] + v[1:])
    return _kernels.transmission_reflection(
        *_kernels.transfer_scan(cells, potential.grid.spacing, energies, float(kinetic_scale), lead)
    )


def transmission_scan(potential: PotentialGrid, energies) -> dict:
    """``scatter``'s payload: the energies, T over them, and as resonances its
    local maxima above ``RESONANCE_HEIGHT``, [energy, T] pairs. A T outside
    [0, 1] beyond roundoff is a numerical breakdown: ArithmeticError."""
    energies = np.asarray(energies, dtype=np.float64)
    from scipy.signal import find_peaks

    t_values, _ = transmission(potential, energies)
    if not np.all((t_values >= -1e-9) & (t_values <= 1.0 + 1e-9)):  # nan included
        raise ArithmeticError("transmission outside [0, 1]")
    # prominence floor keeps roundoff ripples on flat T = 1 stretches out
    peaks, _ = find_peaks(t_values, height=RESONANCE_HEIGHT, prominence=1e-3)
    return {
        "energies": energies.tolist(),
        "T": t_values.tolist(),
        "resonances": [[float(energies[i]), float(t_values[i])] for i in peaks],
    }


def windowed_max_transmission(resonance, lo: float, hi: float) -> tuple[float, float]:
    """(max T, argmax E) over [lo, hi] with ``T = 1/(1 + sum G^2)``.

    `resonance` maps energies, shape (n,), to resonance functions G, shape
    (n, k), one column per well in series. Each G is smooth with a simple
    root at each of its well's resonances, near which
    ``G ~ (E - E_r)/gamma`` (Breit & Wigner 1936), so the peak is the
    minimum of a sum of squares of smooth residuals. Gauss-Newton runs from
    ``COARSE`` energies across the window at once; each step is one
    `resonance` call on the iterates and, for a forward-difference slope,
    the iterates shifted by 1e-9 E. The lowest sum seen is kept, and the
    search stops once a step lowers it by no more than 1e-10 relative, or
    after ``NEWTON_STEPS`` steps.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    energies = np.linspace(lo, hi, COARSE)
    best_s, best_e = np.inf, lo
    for _ in range(NEWTON_STEPS + 1):
        shift = 1e-9 * energies
        g = resonance(np.concatenate([energies, energies + shift]))
        g, slope = g[:COARSE], (g[COARSE:] - g[:COARSE]) / shift[:, None]
        s = np.sum(g * g, axis=1)
        i = int(s.argmin())
        if not s[i] < best_s * (1.0 - 1e-10):
            break
        best_s, best_e = float(s[i]), float(energies[i])
        curvature = np.sum(slope * slope, axis=1)
        step = np.divide(np.sum(g * slope, axis=1), curvature, out=np.zeros(COARSE), where=curvature > 0.0)
        energies = np.clip(energies - step, lo, hi)
    return 1.0 / (1.0 + best_s), best_e


@dataclass
class FilterApparatus:
    """Opened lucky and prime wells, the two halves of the filter, built from
    their two level lists: each well is designed on the default grid and
    opened, lucky first. ``cells_lucky`` and ``cells_prime`` are the wells
    the transfer scans see (``opened_cells``), on cells of width ``spacing``,
    the opened grid's; designed wells are even, so ``resonance_functions``
    scans each left half once. The wells in series transmit
    ``<T> = 1/(1 + G_a^2 + G_b^2)`` averaged over the gap phase. ``w_max`` is
    the largest integer safely below both rims; the filter is only
    meaningful inside that window.
    """

    lucky_levels: np.ndarray
    prime_levels: np.ndarray
    cells_lucky: np.ndarray = field(init=False)
    cells_prime: np.ndarray = field(init=False)
    spacing: float = field(init=False)
    w_max: int = field(init=False)
    kinetic_scale = KINETIC_HALF

    def __post_init__(self):
        designed = [design_potential(levels) for levels in (self.lucky_levels, self.prime_levels)]
        self.cells_lucky, self.cells_prime = map(opened_cells, designed)
        lucky, prime = map(truncate_potential, designed)
        self.spacing = lucky.grid.spacing
        self.w_max = int(min(lucky.max(), prime.max()) - 1.0)

    def composed(self) -> PotentialGrid:
        """The lucky well, a flat gap at the lead potential 0 and the prime
        well on one grid, for coherent checks: both wells are designed and
        opened again (``truncate_potential``), and the gap is ``COMPOSED_GAP``
        in whole cells, one more if the node count would be even (x = 0 on a
        node)."""
        wells = (truncate_potential(design_potential(levels)) for levels in (self.lucky_levels, self.prime_levels))
        a, b = (well.values for well in wells)
        n_gap = int(round(COMPOSED_GAP / self.spacing))
        n_gap += (a.size + b.size + n_gap) % 2
        values = np.concatenate([a, np.zeros(n_gap - 1), b])
        grid = Grid(half_width=(values.size - 1) * self.spacing / 2.0, points=values.size)
        return PotentialGrid(grid=grid, values=values, asymptote=0.0)

    def resonance_functions(self, energies):
        """Both wells' resonance functions G at `energies`, shape (n, 2), the
        columns (lucky, prime): one kernel pass over each well's left half,
        closed with its mirror image by ``_kernels.mirror_resonance``. A well
        transmits ``1/(1 + G^2)``.
        """
        scans = [
            _kernels.transfer_scan(cells[: len(cells) // 2], self.spacing, energies, self.kinetic_scale)
            for cells in (self.cells_lucky, self.cells_prime)
        ]
        return np.stack([_kernels.mirror_resonance(*scan) for scan in scans], axis=-1)


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
    lucky_count: int = DEFAULT_LEVEL_COUNT, prime_count: int = DEFAULT_LEVEL_COUNT
) -> FilterApparatus:
    """The apparatus of the first `lucky_count` lucky numbers and the first
    `prime_count` primes."""
    return FilterApparatus(first_lucky(lucky_count), first_primes(prime_count))


def filter_lucky_prime(w: int, apparatus: FilterApparatus) -> FilterResult:
    """w is lucky and prime when the gap-averaged transmission of the two
    wells peaks at or above ``RESONANCE_HEIGHT`` within ``FILTER_WINDOW`` of w."""
    if w < 1:
        raise ValueError("w must be a positive integer")
    if w > apparatus.w_max:
        raise ValueError(f"w={w} is outside the filter window (w_max={apparatus.w_max})")
    peak_t, peak_e = windowed_max_transmission(
        apparatus.resonance_functions, max(w - FILTER_WINDOW, 1e-6), w + FILTER_WINDOW
    )
    return FilterResult(w, peak_t >= RESONANCE_HEIGHT, peak_e, peak_t)
