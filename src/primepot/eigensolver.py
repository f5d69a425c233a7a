"""Bound states of a sampled potential by symmetric tridiagonal diagonalization.

Three-point central differences for the kinetic term, Neumann (cell-centred)
box ends, and the first-order correction of Paine, de Hoog & Anderssen,
Computing 26, 123 (1981), which lifts the levels from O(h^2) to O(h^4).

An exactly even potential (every designed one) gives a centrosymmetric
matrix, which splits into two half-size blocks on the right half-grid
(Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)): the even block,
rows centre..end, stores psi_c / sqrt(2) so that its first off-diagonal,
scaled by sqrt(2), stays symmetric; the odd block, rows centre+1..end, has
psi_c = 0. In both a full-grid sum is twice the block sum, so the
correction runs on the half vectors, and so does node counting: the
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

Each block's levels are found without bisecting them to full precision.
LAPACK's ``dstebz`` locates the requested levels and one above to
COARSE_TOL, ``dstein`` (inverse iteration) turns those values into unit
vectors, and one more inverse-iteration step, shifted to each vector's
Rayleigh quotient, gives the vector z; its level is the Rayleigh quotient
rho = z.Tz. The residual r = Tz - rho z certifies it: with g the distance
from rho to the nearest other coarse value, less 2 COARSE_TOL, the level
lies within ||r||^2 / g of rho (Kato, J. Phys. Soc. Jpn. 4, 334 (1949)) and
z within an angle ||r|| / g of its eigenvector (Davis & Kahan, SIAM J.
Numer. Anal. 7, 1 (1970)), which moves the correction by at most
2 |correction| ||r|| / g. A level is accepted when g > ACC and the three
bounds are at most ACC; the angle's bound keeps the vector's errors far
inside count_nodes' dead band. Any other level (in a designed potential,
about one per solve: a block's top level, whose neighbour above is a box
state just past the threshold) is bisected to full precision on its own
index, and its vector and Rayleigh quotient are recomputed from that value;
so is every level of a block whose inverse iteration did not converge.
``Spectrum.refined`` counts those levels. Without a level count, two Sturm
counts give the number of each block's levels in the bound window, which
are then solved the same way. Any other LAPACK failure raises
ArithmeticError.
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
    refined: int = 0  # levels the certificate sent back to full-precision bisection

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


COARSE_TOL = 1e-2  # width to which the first bisection pass locates each level
ACC = 1e-10  # largest certified error of an accepted level, a tenth of the tests' 1e-9


def _check_info(info: int, routine: str) -> None:
    # a numerical breakdown, not bad input: numpy's LinAlgError is a ValueError
    if info:
        raise ArithmeticError(f"{routine} failed with info = {info}")


def _levels_in(d, e, window: tuple[float, float]) -> int:
    """How many eigenvalues of the Jacobi matrix (d, e) lie in (lo, hi]:
    two Sturm counts, since an infinite tolerance stops the bisection at once."""
    from scipy.linalg import lapack

    m, *_, info = lapack.dstebz(d, e, 1, *window, 0, 0, np.inf, "B")
    _check_info(info, "dstebz")
    return m


def _quotient(d, e, v, col, out, h2c) -> tuple[float, float, float]:
    """The Rayleigh quotient rho of the unit vector ``col`` under the Jacobi
    matrix (d, e), the norm of its residual, and its PdHA correction
    ``h2c * sum(((v - rho) col)^2)``; ``out`` is scratch of col's length."""
    np.multiply(d, col, out=out)
    out[:-1] += e * col[1:]
    out[1:] += e * col[:-1]
    rho = float(col @ out)
    out -= rho * col
    resid = float(np.sqrt(out @ out))
    np.subtract(v, rho, out=out)
    out *= col
    return rho, resid, h2c * float(out @ out)


def _lowest_levels(d, e, v, k: int, h2c: float):
    """The lowest ``k`` levels of the Jacobi matrix (d, e), each certified to
    ACC or re-bisected (module docstring), with their PdHA corrections.

    Returns (corrected levels, unit vectors as columns, number of levels
    re-bisected). ``v`` is the block's potential and ``h2c`` the
    correction's prefactor h^2 / (12 c^2).
    """
    from scipy.linalg import lapack  # first solve only: commands that never solve skip scipy.linalg

    n = d.size
    top = min(k + 1, n)  # one level above the last, for its gap
    m, coarse, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, top, COARSE_TOL, "B")
    _check_info(info, "dstebz")
    coarse = coarse[:m]
    z, info = lapack.dstein(d, e, coarse[:k], iblock, isplit)
    rho, corr, accept = np.empty(k), np.empty(k), np.zeros(k, dtype=bool)
    out = np.empty(n)
    # when inverse iteration leaves a vector unconverged, every level is re-bisected
    for i in range(k) if info == 0 else ():
        col = z[:, i]
        # a vector from a coarse shift keeps other vectors' components near
        # 1e-7, above count_nodes' dead band in a decaying tail; one more
        # inverse-iteration step, shifted to its Rayleigh quotient, removes them
        shift, _, _ = _quotient(d, e, v, col, out, h2c)
        *_, step, singular = lapack.dgtsv(e, d - shift, e, col, overwrite_b=1)
        if singular:  # the shift hit a level exactly: re-bisect it
            continue
        col[:] = step / np.sqrt(step @ step)
        rho[i], resid, corr[i] = _quotient(d, e, v, col, out, h2c)
        # (lo, hi) holds no level but the i-th, and holds that one once resid < gap
        lo = coarse[i - 1] + 2.0 * COARSE_TOL if i > 0 else -np.inf
        hi = coarse[i + 1] - 2.0 * COARSE_TOL if i + 1 < m else np.inf
        gap = min(rho[i] - lo, hi - rho[i])
        if gap > ACC:
            # Kato-Temple bounds the level's error by resid^2 / gap, Davis-Kahan
            # the vector's angle by resid / gap, which moves corr by at most
            # twice that share of it; an angle below ACC keeps every sample's
            # sign outside count_nodes' dead band as the exact vector's
            angle = resid / gap
            accept[i] = resid * angle <= ACC and angle <= ACC and 2.0 * abs(corr[i]) * angle <= ACC
    redo = np.flatnonzero(~accept)
    if redo.size:
        exact = np.empty(redo.size)
        for j, i in enumerate(redo):
            _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i + 1, i + 1, 0.0, "B")
            _check_info(info, "dstebz")
            exact[j] = w[0]
        redo_block = np.zeros_like(iblock)
        redo_block[: redo.size] = iblock[redo]
        z_redo, info = lapack.dstein(d, e, exact, redo_block, isplit)
        _check_info(info, "dstein")
        for j, i in enumerate(redo):
            z[:, i] = z_redo[:, j]
            rho[i], _, corr[i] = _quotient(d, e, v, z[:, i], out, h2c)
    return rho + corr, z, int(redo.size)


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
    v = potential.values
    if count is not None and not 1 <= count <= v.size:
        raise ValueError(f"count asks for {count} levels of a {v.size}-node grid; it must be 1 to {v.size}")
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

    levels, nodes, refined = [np.empty(0)], [np.empty(0, dtype=np.int64)], 0
    for start, block_off, share, parity in blocks:
        # LAPACK's wrappers want an off-diagonal entry even where, as in the
        # odd block of a 3-point grid, there is one row and none is read
        if block_off.size == 0:
            block_off = np.zeros(1)
        if share is None:
            share = _levels_in(diag[start:], block_off, window)
        if share == 0:  # the odd block at count = 1, or a block with no bound level
            continue
        # the three-point rule undershoots each level by h^2/(12 c^2) <((V - E) psi)^2>;
        # a full-grid sum is twice a parity block's, so for a unit block vector z
        # this is h^2/(12 c^2) sum(((V - E) z)^2) in every block
        vals, vecs, redone = _lowest_levels(diag[start:], block_off, v[start:], share, h * h / (12.0 * c * c))
        levels.append(vals)
        refined += redone
        if parity == 0:
            vecs[0] *= np.sqrt(2.0)  # psi_c itself, so the dead band is the full grid's
        block_nodes = np.array([count_nodes(vecs[:, i]) for i in range(share)], dtype=np.int64)
        # the mirror image doubles a block's nodes; an odd vector adds x = 0
        nodes.append(block_nodes if parity is None else 2 * block_nodes + parity)
    # even and odd levels interleave; a stable sort merges them
    eigvals = np.concatenate(levels)
    order = np.argsort(eigvals, kind="stable")
    return Spectrum(
        eigenvalues=eigvals[order],
        continuum_edge=edge,
        node_counts=np.concatenate(nodes)[order],
        refined=refined,
    )


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
