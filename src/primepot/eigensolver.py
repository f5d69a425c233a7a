"""Bound states of a sampled potential by symmetric tridiagonal diagonalization.

Three-point central differences for the kinetic term, Neumann (cell-centred)
box ends, and the first-order correction of Paine, de Hoog & Anderssen,
Computing 26, 123 (1981), which lifts the levels from O(h^2) to O(h^4).

An exactly even potential (every designed one) gives a centrosymmetric
matrix, which splits into two half-size blocks on the right half-grid
(Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)): the even block,
rows centre..end, stores psi_c / sqrt(2) so that its first off-diagonal,
scaled by sqrt(2), stays symmetric; the odd block, rows centre+1..end, has
psi_c = 0. In both a full-grid sum is twice the block sum, so normalization
and correction run on the half vectors, and so does node counting: the
mirror image doubles a half vector's nodes, and an odd vector adds its node
at x = 0, so an even level has twice its block count (counted with psi_c
restored) and an odd level twice plus one. The levels of a
reflection-symmetric Jacobi matrix alternate even, odd, even, ... from the
ground state up, so the lowest k levels are the lowest ceil(k/2) of the even
block and floor(k/2) of the odd one. Any other potential, such as a
hologram reconstruction, is solved as one full-grid block. A direct
eigensolve is robust against the near-degenerate pairs that twin-prime
targets produce, where shooting methods struggle; such a pair has one level
of each parity, so its two levels come from different blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PotentialGrid

__all__ = ["Spectrum", "DiscrepancyReport", "bound_states", "check_resolution", "compare_spectrum", "count_nodes"]


@dataclass
class Spectrum:
    """Ascending bound-state eigenvalues plus solver context."""

    eigenvalues: np.ndarray
    continuum_edge: float
    node_counts: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.node_counts = np.asarray(self.node_counts, dtype=np.int64)
        if self.eigenvalues.size >= 2 and not np.all(np.diff(self.eigenvalues) > 0.0):
            raise ValueError("eigenvalues must be strictly ascending")


@dataclass(frozen=True)
class DiscrepancyReport:
    """Per-level discrepancies against a target list."""

    per_level_abs: np.ndarray
    per_level_frac: np.ndarray
    rms_frac: float
    rounds_to_target: np.ndarray

    @property
    def all_round(self) -> bool:
        return bool(np.all(self.rounds_to_target))

    def as_dict(self) -> dict:
        return {
            "per_level_abs": self.per_level_abs.tolist(),
            "per_level_frac": self.per_level_frac.tolist(),
            "rms_frac": self.rms_frac,
            "rounds_to_target": [bool(v) for v in self.rounds_to_target],
        }


DEAD_BAND_FRAC = 1e-8  # samples below this fraction of max |psi| carry no sign


def count_nodes(psi: np.ndarray) -> int:
    """Sign changes of psi, ignoring samples inside the numerical dead band."""
    band = DEAD_BAND_FRAC * np.max(np.abs(psi))
    signs = np.sign(psi[np.abs(psi) > band])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def check_resolution(v_span: float, spacing: float, kinetic_scale: float) -> None:
    """Reject a potential span ``v_span = max V - min V`` that a grid of
    `spacing` h cannot resolve, ``h^2 v_span > 0.1 c^2``, naming the spacing
    that would. c stays an argument, as in ``bound_states``."""
    h = float(spacing)
    c = float(kinetic_scale)
    if h * h * v_span > 0.1 * c * c and v_span > 0.0:
        suggested = (0.1 * c * c / v_span) ** 0.5
        raise ValueError(
            f"grid spacing {h:.3g} cannot resolve this potential; "
            f"use spacing <= {suggested:.3g}"
        )


def bound_states(
    potential: PotentialGrid,
    kinetic_scale: float,
    count: int | None = None,
) -> Spectrum:
    """The lowest ``count`` eigenvalues, or all strictly bound ones, ascending.

    With ``count`` the levels are taken by index, which holds the threshold
    state a designed potential places exactly at its asymptote: Neumann box
    ends keep that state (psi -> const) at the edge. Without it, a state is
    bound when it lies below continuum_edge - 1e-3 * depth; the continuum
    edge is the mean of the two boundary samples. An exactly even potential
    is solved as its even and odd parity blocks, any other as one matrix.
    ``kinetic_scale`` (c in ``-c^2 d^2/dx^2``) stays an argument so that
    tests can check the solver against c = 1 textbook spectra.
    """
    c = float(kinetic_scale)
    if c <= 0.0:
        raise ValueError("kinetic_scale must be positive")
    if count is not None and count < 1:
        raise ValueError("count must be positive")
    v = potential.values
    h = potential.grid.spacing
    check_resolution(float(v.max() - v.min()), h, c)
    edge = 0.5 * (float(v[0]) + float(v[-1]))

    inv_h2 = c * c / (h * h)
    diag = v + 2.0 * inv_h2
    diag[[0, -1]] -= inv_h2
    off = np.full(v.size - 1, -inv_h2)
    # a block is (first full-grid row, off-diagonal, levels under count, parity):
    # parity 0 or 1 for the even or odd block of an even potential, None for
    # the whole grid
    if potential.even:
        mid = v.size // 2
        even_off = off[mid:].copy()
        even_off[0] *= np.sqrt(2.0)
        shares = (None, None) if count is None else ((count + 1) // 2, count // 2)
        blocks = [(mid, even_off, shares[0], 0), (mid + 1, off[mid + 1 :], shares[1], 1)]
    else:
        blocks = [(0, off, count, None)]
    depth = edge - float(v.min())
    window = (float(v.min()) - 1.0, edge - 1e-3 * depth)
    # a flat potential's psi = const sits at the edge up to roundoff: not bound
    if count is None and depth <= 0.0:
        blocks = []

    # imported on first solve, so commands that never solve start without scipy.linalg
    from scipy.linalg import eigh_tridiagonal

    levels, nodes = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for start, block_off, share, parity in blocks:
        if share == 0:  # the odd block at count = 1
            continue
        if share is None:
            vals, vecs = eigh_tridiagonal(diag[start:], block_off, select="v", select_range=window)
        else:
            vals, vecs = eigh_tridiagonal(diag[start:], block_off, select="i", select_range=(0, share - 1))
        # a full-grid sum is twice a parity block's sum
        weight = 1.0 if parity is None else 2.0
        # normalize to h * sum(psi^2) = 1: each sample stands for one cell of width h
        vecs = vecs / np.sqrt(np.sum(vecs**2, axis=0) * (weight * h))
        # the three-point rule undershoots each level by h^2/(12 c^2) <((V - E) psi)^2>
        vals = vals + weight * h**3 / (12.0 * c * c) * np.sum(((v[start:, None] - vals) * vecs) ** 2, axis=0)
        levels.append(vals)
        if parity == 0:
            vecs[0] *= np.sqrt(2.0)  # psi_c itself, so the dead band is the full grid's
        block_nodes = np.array([count_nodes(vecs[:, i]) for i in range(vals.size)], dtype=np.int64)
        # the mirror image doubles a block's nodes; an odd vector adds x = 0
        nodes.append(block_nodes if parity is None else 2 * block_nodes + parity)
    # even and odd levels interleave; a stable sort merges them
    eigvals = np.concatenate(levels)
    order = np.argsort(eigvals, kind="stable")
    return Spectrum(eigenvalues=eigvals[order], continuum_edge=edge, node_counts=np.concatenate(nodes)[order])


def compare_spectrum(levels, targets) -> DiscrepancyReport:
    """Absolute/fractional per-level errors, their rms, and rounding flags.

    A level rounds to its target when it lies less than 0.5 from it, which
    for an integer target is rounding to that integer; a half-integer target
    gets the same band. The fractional error of a level whose target is 0 is
    its absolute error, so the report stays finite.
    """
    values = np.asarray(levels, dtype=np.float64)
    goal = np.asarray(targets, dtype=np.float64)
    if values.shape != goal.shape:
        raise ValueError(f"level count mismatch: {values.shape} vs {goal.shape}")
    abs_err = np.abs(values - goal)
    frac_err = abs_err / np.where(goal == 0.0, 1.0, np.abs(goal))
    rms = float(np.sqrt(np.mean(frac_err**2))) if frac_err.size else 0.0
    return DiscrepancyReport(
        per_level_abs=abs_err,
        per_level_frac=frac_err,
        rms_frac=rms,
        rounds_to_target=abs_err < 0.5,
    )
