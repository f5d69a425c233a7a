"""Exact inverse spectral construction via a chain of superpotential steps.

A finite target spectrum is shifted so its top level sits at zero; the
remaining negative gaps are inserted one by one, each step solving
``c W' - W^2 + V = gap`` on the half line through the log-derivative
linearization ``u'' = (V - gap) u / c^2``, ``W = -c u'/u``. The partner
update ``V_next = 2 gap + 2 W^2 - V`` then adds a new ground state at the
gap energy. Odd W (forced by u'(0) = 0) keeps every intermediate potential
even.

The kinetic term is ``-c^2 d^2/dx^2`` with a single scale ``c``. The value
``c = 1/sqrt(2)`` (``KINETIC_HALF``, the one every command uses) is the
calibrated default: it is the unique scale at which the chain run on the gap
ladder ``{0, -1/2, -2, ..., -N^2/2}`` closes onto ``-N(N+1)/(2 cosh^2 x)``,
the one family that reproduces itself analytically. Any other scale gives
the same well stretched by ``c sqrt(2)``: ``V_c(x) = V_half(x / (c sqrt 2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import Grid, PotentialGrid, default_grid

__all__ = [
    "KINETIC_HALF",
    "GapSequence",
    "ChainError",
    "gaps_from_spectrum",
    "chain_step",
    "chain_from_gaps",
    "design_potential",
    "poschl_teller_reference",
    "riccati_residual",
]

KINETIC_HALF = math.sqrt(0.5)

# Minimum e-foldings of the shallowest gap state's decay inside the box.
_MIN_EFOLDINGS = 5.0


class ChainError(RuntimeError):
    """A gap could not be inserted below the current ground state."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class GapSequence:
    """Target spectrum re-expressed as non-positive gaps from the top level."""

    gaps: np.ndarray
    top_level: float

    def __post_init__(self):
        object.__setattr__(self, "gaps", np.asarray(self.gaps, dtype=np.float64))
        if self.gaps.size < 1:
            raise ValueError("gap sequence is empty")
        if self.gaps[0] != 0.0:
            raise ValueError("first gap must be exactly zero")
        if np.any(self.gaps > 0.0):
            raise ValueError("gaps must be non-positive")
        if self.gaps.size >= 2 and not np.all(np.diff(self.gaps) < 0.0):
            raise ValueError("gaps must be strictly decreasing")


def gaps_from_spectrum(levels) -> GapSequence:
    """Shift levels e_0..e_{N-1} to gaps e_{N-1-k} - e_{N-1}, k = 0..N-1."""
    values = np.asarray(levels, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two levels")
    if not np.all(np.diff(values) > 0.0):
        raise ValueError("levels must be strictly increasing")
    top = float(values[-1])
    gaps = values[::-1] - top
    return GapSequence(gaps=gaps, top_level=top)


def chain_step(prev: PotentialGrid, gap: float, kinetic_scale: float):
    """One superpotential step: returns (W, next potential).

    W is the odd superpotential on ``prev.grid``, W(0) = 0. `gap` must lie
    strictly below the ground state already present in `prev`; a node in the
    linearizing solution u signals that it does not, and raises ChainError.
    """
    if gap > 0.0:
        raise ValueError("gap must be non-positive")
    if not prev.even:
        raise ValueError("chain steps require an even potential")
    c = float(kinetic_scale)
    if c <= 0.0:
        raise ValueError("kinetic_scale must be positive")
    grid = prev.grid
    center = grid.center_index
    v_right = prev.values[center:]
    q = (v_right - gap) / (c * c)
    w_half, status = _kernels.riccati_sweep(q, grid.spacing, c)
    if status >= 0:
        raise ChainError(
            f"gap {gap} not addable below current ground state "
            f"(u crossed zero at x = {grid.right_half()[status]:.4f})"
        )
    v_next_right = 2.0 * gap + 2.0 * w_half**2 - v_right
    nxt = PotentialGrid.from_even_half(grid, v_next_right, asymptote=float(v_next_right[-1]))
    return np.concatenate([-w_half[:0:-1], w_half]), nxt


def chain_from_gaps(gaps: GapSequence, grid: Grid, kinetic_scale: float) -> PotentialGrid:
    """Run every Riccati step in gap order (smallest magnitude first)."""
    current = PotentialGrid(grid=grid, values=np.zeros(grid.points), asymptote=0.0)
    for k in range(1, gaps.gaps.size):
        try:
            _, current = chain_step(current, float(gaps.gaps[k]), kinetic_scale)
        except ChainError as err:
            raise ChainError(f"chain step k={k} failed: {err}", step=k) from err
    return current


def design_potential(levels, grid: Grid | None = None, kinetic_scale: float = KINETIC_HALF) -> PotentialGrid:
    """Even potential whose bound spectrum is the requested level list.

    The returned potential is the chain output shifted up by the top level,
    so its asymptote equals that level; the top state itself sits at the
    continuum edge.
    """
    gaps = gaps_from_spectrum(levels)
    if grid is None:
        grid = default_grid()
    c = float(kinetic_scale)
    deepest_rate = math.sqrt(-float(gaps.gaps[1])) / c
    if deepest_rate * grid.half_width < _MIN_EFOLDINGS:
        needed = _MIN_EFOLDINGS / deepest_rate
        raise ValueError(
            f"grid half_width {grid.half_width} too small for the shallowest gap "
            f"state; need at least {needed:.2f}"
        )
    pot = chain_from_gaps(gaps, grid, c)
    return PotentialGrid(grid=grid, values=pot.values + gaps.top_level, asymptote=gaps.top_level)


def poschl_teller_reference(n: int, grid: Grid) -> PotentialGrid:
    """Closed-form -n(n+1)/(2 cosh^2 x) samples."""
    if n < 0:
        raise ValueError("n must be non-negative")
    values = -0.5 * n * (n + 1) / np.cosh(grid.x) ** 2
    return PotentialGrid(grid=grid, values=values, asymptote=0.0)


def riccati_residual(w: np.ndarray, prev: PotentialGrid, gap: float, kinetic_scale: float) -> np.ndarray:
    """Pointwise residual of c W' - W^2 + V - gap on interior nodes of
    ``prev.grid``, the grid W is sampled on.

    W' uses a 5-point stencil so the differentiation error stays well below
    the sweep's own accuracy at production spacings.
    """
    h = prev.grid.spacing
    dw = (w[:-4] - 8.0 * w[1:-3] + 8.0 * w[3:-1] - w[4:]) / (12.0 * h)
    interior = slice(2, -2)
    return kinetic_scale * dw - w[interior] ** 2 + prev.values[interior] - gap
