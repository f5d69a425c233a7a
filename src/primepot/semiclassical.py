"""Scalable smooth potential from a density of states, by Abel-type inversion.

With the prime counting density this yields the potential whose spectrum
tracks the primes on average; it trades the exactness of the chain
construction for the ability to extend to any energy without redesigning.
The substitution E = V - t^2 removes the inverse-square-root endpoint of
the inversion integral analytically, leaving a smooth integrand for
composite Gauss-Legendre panels. The density is called once per inversion,
on the whole (samples - 1) x (panels * nodes) array of quadrature energies,
and every x(V) is one weighted sum over its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, PotentialGrid
from .sequences import DEFAULT_TERMS, moebius
from .susy import KINETIC_HALF

__all__ = [
    "SemiclassicalProfile",
    "prime_density_of_states",
    "invert_to_potential",
    "profile_to_potential",
    "wkb_level_count",
]

PROFILE_SPACING = 0.005  # grid spacing of profile_to_potential's output
SAMPLE_LIMIT = 10**4  # most x(V) samples: the quadrature lattice has (samples - 1) * panels * nodes energies
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
        if self.x_values[0] != 0.0:
            raise ValueError("profile must start at x(e0) = 0")
        if np.any(np.diff(self.v_values) <= 0.0) or np.any(np.diff(self.x_values) <= 0.0):
            raise ValueError("profile must be strictly increasing")

    @property
    def v_max(self) -> float:
        return float(self.v_values[-1])


def prime_density_of_states(energy, terms: int = DEFAULT_TERMS):
    """Truncated Moebius series for the smoothed level density at `energy`.

    `energy` is a scalar or an array; the Moebius weights are computed once
    and the series is summed over the whole array. All `terms` terms are
    kept: unlike the counting series, dropping terms below
    energy**(1/m) = 2 would make the density discontinuous at powers of two
    and the inverted profile non-monotone.
    """
    energy = np.asarray(energy, dtype=np.float64)
    if np.any(energy <= 2.0):
        raise ValueError("density series needs energy > 2")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    total = np.zeros_like(energy)
    for m in range(1, terms + 1):
        mu = moebius(m)
        if mu:
            total += mu / m * energy ** ((1.0 - m) / m)
    return total / np.log(energy)


def invert_to_potential(
    dos,
    e0: float,
    v_max: float,
    samples: int,
    panels: int = 4,
    nodes_per_panel: int = 64,
) -> SemiclassicalProfile:
    """x(V) = c * integral of dos(E)/sqrt(V - E) from e0 to V, per V sample,
    with c = ``KINETIC_HALF``.

    After E = V - t^2 the integrand is 2 c dos(V - t^2) on t in [0, sqrt(V-e0)],
    handled by `panels` Gauss-Legendre panels of `nodes_per_panel` nodes.
    `dos` is called once, on the array of all quadrature energies; a scalar
    it returns stands for a constant density.
    """
    if not (math.isfinite(e0) and math.isfinite(v_max)):
        raise ValueError(f"e0 and v_max must be finite, got e0={e0!r}, v_max={v_max!r}")
    if v_max <= e0:
        raise ValueError("v_max must exceed e0")
    if not 2 <= samples <= SAMPLE_LIMIT:
        raise ValueError(f"samples={samples} must be at least 2 and not exceed {SAMPLE_LIMIT:.0e}")
    c = KINETIC_HALF
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    v_values = np.linspace(e0, v_max, samples)
    v = v_values[1:, None]
    edges = np.linspace(0.0, np.sqrt(v - e0), panels + 1, axis=1)
    half = 0.5 * np.diff(edges, axis=1)
    t = half * nodes + 0.5 * (edges[:, :-1] + edges[:, 1:])
    energies = (v[..., None] - t * t).reshape(samples - 1, panels * nodes_per_panel)
    rho = np.broadcast_to(dos(energies), energies.shape)
    if np.any(rho <= 0.0):
        bad = float(energies.flat[np.argmax(rho <= 0.0)])
        raise ValueError(f"density of states not positive at E={bad:.6g}")
    panel_sums = np.sum(weights * 2.0 * rho.reshape(t.shape), axis=-1)
    x_values = np.concatenate(([0.0], c * np.sum(half[..., 0] * panel_sums, axis=-1)))
    return SemiclassicalProfile(v_values=v_values, x_values=x_values, e0=float(e0), kinetic_scale=c)


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
