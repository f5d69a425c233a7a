"""Exact inverse spectral construction via a chain of superpotential steps.

A finite target spectrum is shifted so its top level sits at zero; the
remaining negative gaps are inserted one by one, each step solving
``c W' - W^2 + V = gap`` through the log-derivative linearization
``u'' = (V - gap) u / c^2``, ``W = -c u'/u``. The partner update
``V_next = 2 gap + 2 W^2 - V`` then adds a new ground state at the gap
energy. The chain runs on the half line x >= 0 from start to end: u'(0) = 0
makes every W odd and every intermediate potential even, so each step holds
V on the nodes x = 0, h, 2h, ... only, and the finished potential is
mirrored to the full grid once.

The kinetic term is ``-c^2 d^2/dx^2`` with a single scale ``c``. The value
``c = 1/sqrt(2)`` (``KINETIC_HALF``, the one every command uses) is the
calibrated default: it is the unique scale at which the chain run on the gap
ladder ``{-1/2, -2, ..., -N^2/2}`` closes onto ``-N(N+1)/(2 cosh^2 x)``,
the one family that reproduces itself analytically. Any other scale gives
the same well stretched by ``c sqrt(2)``: ``V_c(x) = V_half(x / (c sqrt 2))``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .eigensolver import check_resolution
from .grid import Grid, PotentialGrid, default_grid

__all__ = [
    "KINETIC_HALF",
    "ChainError",
    "gaps_from_spectrum",
    "chain_step",
    "chain_from_gaps",
    "design_potential",
    "riccati_residual",
]

KINETIC_HALF = math.sqrt(0.5)

# Minimum e-foldings of the shallowest gap state's decay inside the box.
_MIN_EFOLDINGS = 5.0


class ChainError(RuntimeError):
    """A gap could not be inserted below the current ground state."""


def gaps_from_spectrum(levels) -> np.ndarray:
    """Shift levels e_0..e_{N-1} to the negative gaps e_{N-1-k} - e_{N-1},
    k = 1..N-1, nearest the top first."""
    values = np.asarray(levels, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two levels")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"levels must be finite; got {values[~np.isfinite(values)].tolist()}")
    if not np.all(np.diff(values) > 0.0):
        raise ValueError("levels must be strictly increasing")
    return values[-2::-1] - values[-1]


def chain_step(v: np.ndarray, gap: float, h: float, kinetic_scale: float):
    """One superpotential step on the half line: returns (W, next V).

    `v` holds V on the nodes x = 0, h, 2h, ...; W, on the same nodes, is the
    half of an odd superpotential, W(0) = 0. `gap` must lie strictly below
    the ground state already present in V; a node in the linearizing
    solution u signals that it does not, and raises ChainError.
    """
    if gap > 0.0:
        raise ValueError("gap must be non-positive")
    c = float(kinetic_scale)
    if c <= 0.0:
        raise ValueError("kinetic_scale must be positive")
    w, status = _kernels.riccati_sweep((v - gap) / (c * c), h, c)
    if status >= 0:
        raise ChainError(
            f"gap {gap} not addable below current ground state "
            f"(u crossed zero at x = {h * status:.4f})"
        )
    return w, 2.0 * gap + 2.0 * w**2 - v


def chain_from_gaps(gaps, grid: Grid, kinetic_scale: float) -> PotentialGrid:
    """Run every Riccati step in gap order (smallest magnitude first) on the
    right half of `grid`, then mirror the result."""
    v = np.zeros(grid.center_index + 1)
    for k, gap in enumerate(gaps, start=1):
        try:
            _, v = chain_step(v, float(gap), grid.spacing, kinetic_scale)
        except ChainError as err:
            raise ChainError(f"chain step k={k} failed: {err}") from err
    return PotentialGrid.from_even_half(grid, v, asymptote=float(v[-1]))


def design_potential(levels, grid: Grid | None = None, kinetic_scale: float = KINETIC_HALF) -> PotentialGrid:
    """Even potential whose bound spectrum is the requested level list.

    The returned potential is the chain output shifted up by the top level,
    so its asymptote equals that level; the top state itself sits at the
    continuum edge. A potential the eigensolver could not resolve on `grid`
    is rejected here, before any caller writes or scans it. A correct
    design spans at least the levels' own span (its minimum lies below the
    lowest level, its maximum at most the top one), so that span is checked
    before the chain runs, and the designed span after it.
    """
    gaps = gaps_from_spectrum(levels)
    top = float(levels[-1])
    if grid is None:
        grid = default_grid()
    c = float(kinetic_scale)
    deepest_rate = math.sqrt(-float(gaps[0])) / c
    if deepest_rate * grid.half_width < _MIN_EFOLDINGS:
        needed = _MIN_EFOLDINGS / deepest_rate
        raise ValueError(
            f"grid half_width {grid.half_width} too small for the shallowest gap "
            f"state; need at least {needed:.2f}"
        )
    check_resolution(top - float(levels[0]), grid.spacing, c)
    pot = chain_from_gaps(gaps, grid, c)
    designed = PotentialGrid(grid=grid, values=pot.values + top, asymptote=top)
    check_resolution(designed.max() - designed.min(), grid.spacing, c)
    return designed


def riccati_residual(w: np.ndarray, v: np.ndarray, gap: float, h: float, kinetic_scale: float) -> np.ndarray:
    """Pointwise residual of c W' - W^2 + V - gap on the interior nodes of
    the arrays W and V, both sampled at spacing h.

    W' uses a 5-point stencil so the differentiation error stays well below
    the sweep's own accuracy at production spacings.
    """
    dw = (w[:-4] - 8.0 * w[1:-3] + 8.0 * w[3:-1] - w[4:]) / (12.0 * h)
    interior = slice(2, -2)
    return kinetic_scale * dw - w[interior] ** 2 + v[interior] - gap
