"""Scalable smooth potential from a density of states, by Abel-type inversion.

With the prime counting density this yields the potential whose spectrum
tracks the primes on average; it trades the exactness of the chain
construction for the ability to extend to any energy without redesigning.
The substitution V - E = (V - e0) sin^2(phi) removes the inverse-square-root
endpoint of the inversion integral analytically and spreads the energies
near e0, where the density varies fastest, over a fixed share of phi in
[0, pi/2]; one Gauss-Legendre panel of 64 nodes then holds x(V) to a few
ulp from V = 2.5 up to V = 1000. The phi nodes and weights are computed once
per rule. The (samples - 1) x (panels * nodes) lattice of quadrature
energies is evaluated in blocks of whole rows, at most ``LATTICE_BLOCK``
energies each: one density call and one weighted sum per row per block, on
arrays small enough that the allocator reuses them instead of mapping
fresh pages on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, PotentialGrid
from .sequences import DEFAULT_TERMS, moebius_table
from .susy import KINETIC_HALF

__all__ = [
    "SemiclassicalProfile",
    "prime_density_of_states",
    "invert_to_potential",
    "profile_to_potential",
    "wkb_level_count",
]

PROFILE_SPACING = 0.005  # grid spacing of profile_to_potential's output
SAMPLE_LIMIT = 10**4  # most x(V) samples: the lattice has (samples - 1) * panels * nodes energies, evaluated blockwise
LATTICE_BLOCK = 8192  # most lattice energies per density call: 64 KiB per float64 array, under glibc's 128 KiB mmap threshold
WKB_POINTS = 4001  # trapezoid nodes of wkb_level_count's phase integral


@dataclass(frozen=True)
class SemiclassicalProfile:
    """Monotone x(V) samples on the half line, x(e0) = 0; ``kinetic_scale``
    is read by ``wkb_level_count`` and set by the benchmark's self-test."""

    v_values: np.ndarray
    x_values: np.ndarray
    e0: float
    kinetic_scale: float

    def __post_init__(self):
        object.__setattr__(self, "v_values", np.asarray(self.v_values, dtype=np.float64))
        object.__setattr__(self, "x_values", np.asarray(self.x_values, dtype=np.float64))
        if self.v_values.shape != self.x_values.shape:
            raise ValueError("v and x sample arrays must align")
        if not (np.all(np.isfinite(self.v_values)) and np.all(np.isfinite(self.x_values))):
            raise ValueError("profile samples must be finite")
        if self.x_values[0] != 0.0:
            raise ValueError("profile must start at x(e0) = 0")
        if np.any(np.diff(self.v_values) <= 0.0) or np.any(np.diff(self.x_values) <= 0.0):
            raise ValueError("profile must be strictly increasing")

    @property
    def v_max(self) -> float:
        return float(self.v_values[-1])


@functools.lru_cache(maxsize=8)
def _density_terms(terms: int) -> tuple[tuple[float, float], ...]:
    """(moebius(m)/m, (1 - m)/m) for the nonzero terms m = 2..terms of the
    density series, from the shared Moebius table; cached per term count."""
    return tuple((mu / m, (1.0 - m) / m) for m, mu in moebius_table(terms) if m > 1)


def prime_density_of_states(energy, terms: int = DEFAULT_TERMS):
    """Truncated Moebius series for the smoothed level density at `energy`,
    sum over m of moebius(m)/m * energy**((1 - m)/m), divided by log(energy).

    `energy` is a finite scalar or array above 2. The logarithm is taken once
    per call, and each term is exp(((1 - m)/m) * log(energy)), formed in one
    buffer of the input's shape that every term reuses, scaled by
    moebius(m)/m and added into the total; the m = 1 term is 1. A scalar
    gives a scalar, and an array call equals the element-wise scalar calls
    bit for bit. All `terms` terms are kept: unlike the counting series,
    dropping terms below energy**(1/m) = 2 would make the density
    discontinuous at powers of two and the inverted profile non-monotone.
    """
    energy = np.asarray(energy, dtype=np.float64)
    if not np.all((energy > 2.0) & (energy < math.inf)):
        raise ValueError("density series needs finite energy > 2")
    log_energy = np.log(energy)
    total = np.ones_like(energy)
    term = np.empty_like(energy)
    for weight, exponent in _density_terms(terms):
        np.multiply(log_energy, exponent, out=term)
        np.exp(term, out=term)
        term *= weight
        total += term
    total /= log_energy
    return total[()]


@functools.lru_cache(maxsize=8)
def _phi_rule(panels: int, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos^2 phi, weight) at the nodes of `panels` Gauss-Legendre panels of
    `nodes_per_panel` nodes on phi in [0, pi/2], in panel order; a weight is
    the panel half-width times the Gauss weight times 2 cos phi. Cached and
    read-only, since every inversion with the same rule shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    half = 0.25 * math.pi / panels
    phi = (half * (nodes + 2.0 * np.arange(panels)[:, None] + 1.0)).ravel()
    cos = np.cos(phi)
    cos2 = cos * cos
    node_weights = np.tile(half * weights, panels) * 2.0 * cos
    cos2.flags.writeable = False
    node_weights.flags.writeable = False
    return cos2, node_weights


def invert_to_potential(
    dos,
    e0: float,
    v_max: float,
    samples: int,
    panels: int = 1,
    nodes_per_panel: int = 64,
) -> SemiclassicalProfile:
    """x(V) = c * integral of dos(E)/sqrt(V - E) from e0 to V, per V sample,
    with c = ``KINETIC_HALF``.

    After V - E = (V - e0) sin^2(phi) the integrand is
    2 c dos(E) sqrt(V - e0) cos(phi) on phi in [0, pi/2], with
    E = e0 + (V - e0) cos^2(phi) (no cancellation near e0), handled by
    `panels` Gauss-Legendre panels of `nodes_per_panel` nodes. `dos` is
    called once per block of whole lattice rows, in row order, on a
    (rows, panels * nodes_per_panel) array of at most ``LATTICE_BLOCK``
    energies (a single longer row is a block by itself); a scalar it returns
    stands for a constant density.
    """
    if not (math.isfinite(e0) and math.isfinite(v_max)):
        raise ValueError(f"e0 and v_max must be finite, got e0={e0!r}, v_max={v_max!r}")
    if v_max <= e0:
        raise ValueError("v_max must exceed e0")
    if not 2 <= samples <= SAMPLE_LIMIT:
        raise ValueError(f"samples={samples} must be at least 2 and not exceed {SAMPLE_LIMIT:.0e}")
    if panels < 1:
        raise ValueError(f"panels={panels} must be at least 1")
    if nodes_per_panel < 1:
        raise ValueError(f"nodes_per_panel={nodes_per_panel} must be at least 1")
    cos2, weights = _phi_rule(panels, nodes_per_panel)
    v_values = np.linspace(e0, v_max, samples)
    span = v_values[1:] - e0
    row_sums = np.empty_like(span)
    rows = max(1, LATTICE_BLOCK // cos2.size)
    for start in range(0, span.size, rows):
        energies = span[start : start + rows, None] * cos2 + e0
        rho = np.broadcast_to(dos(energies), energies.shape)
        valid = (rho > 0.0) & (rho < math.inf)
        if not np.all(valid):
            bad = float(energies.flat[np.argmin(valid)])
            raise ValueError(f"density of states not positive and finite at E={bad:.6g}")
        np.sum(rho * weights, axis=1, out=row_sums[start : start + rows])
    x_values = np.concatenate(([0.0], KINETIC_HALF * np.sqrt(span) * row_sums))
    return SemiclassicalProfile(v_values=v_values, x_values=x_values, e0=float(e0), kinetic_scale=KINETIC_HALF)


def profile_to_potential(profile: SemiclassicalProfile) -> PotentialGrid:
    """Mirror x(V) into an even potential grid, flat at v_max beyond the edge."""
    x_max = float(profile.x_values[-1])
    points = int(round(2.0 * 1.05 * x_max / PROFILE_SPACING)) + 1
    if points % 2 == 0:
        points += 1
    grid = Grid(half_width=(points - 1) * PROFILE_SPACING / 2.0, points=points)
    values = np.interp(
        np.abs(grid.x), profile.x_values, profile.v_values, right=profile.v_max
    )
    return PotentialGrid(grid=grid, values=values, asymptote=profile.v_max)


def wkb_level_count(profile: SemiclassicalProfile, energy: float) -> int:
    """Semiclassical count of levels at or below `energy` for the profile.

    Uses the standard half-integer quantization of the phase integral over
    the classically allowed region.
    """
    if energy <= profile.e0:
        return 0
    if energy > profile.v_max:
        raise ValueError("energy exceeds the profile range")
    x_turn = float(np.interp(energy, profile.v_values, profile.x_values))
    x = np.linspace(0.0, x_turn, WKB_POINTS)
    v = np.interp(x, profile.x_values, profile.v_values)
    integrand = np.sqrt(np.clip(energy - v, 0.0, None)) / profile.kinetic_scale
    phase = 2.0 * np.trapezoid(integrand, x)
    return int(math.floor(phase / math.pi + 0.5))
