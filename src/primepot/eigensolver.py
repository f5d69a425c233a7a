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
correction runs on the half vectors. The levels of a
reflection-symmetric Jacobi matrix alternate even, odd, even, ... from the
ground state up, so the lowest k levels are the lowest ceil(k/2) of the even
block and floor(k/2) of the odd one. Any other potential, such as a
hologram reconstruction, is solved as one full-grid block. A direct
eigensolve is robust against the near-degenerate pairs that twin-prime
targets produce, where shooting methods struggle; such a pair has one level
of each parity, so its two levels come from different blocks.

Each block's levels are found without bisecting them to full precision.
Every level starts from a shift and a bracket (lo, hi) that holds no other
level, and one loop certifies it: inverse iteration (``dgtsv``) from the
shift and a fixed start vector of no parity, re-shifted to the Rayleigh
quotient while that stays in the bracket, for at most BRACKET_STEPS steps,
gives a unit vector z whose level is the Rayleigh quotient rho = z.Tz. The
residual r = Tz - rho z certifies it: with g the distance from rho to the
nearer bracket edge, the level lies within ||r||^2 / g of rho (Kato,
J. Phys. Soc. Jpn. 4, 334 (1949)) and z within an angle ||r|| / g of its
eigenvector (Davis & Kahan, SIAM J. Numer. Anal. 7, 1 (1970)), which moves
the correction by at most 2 |correction| ||r|| / g. A level is accepted when
g > ACC and the three bounds are at most ACC.

Every level's index is certified, by Sturm counts or by bisection on that
index, so level n has exactly n nodes (the discrete Sturm oscillation
theorem for a Jacobi matrix with nonzero off-diagonals; Gantmacher & Krein,
Oscillation Matrices and Kernels). No sign is counted, so no vector outlives
its level: each level runs in one n-length buffer, reset from the start
vector.

With targets, the shifts are the targets. A block's bracket edges lie
midway between its consecutive targets, its last one midway to the next
target of the other block, and one infinite-tolerance ``dstebz`` call per
edge gives the Sturm count of levels below it (Sylvester's law of inertia;
Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)); they must read
1, 2, 3, ..., one level per bracket. The global top level, at the threshold
with box states just above it, gets no bracket and is bisected on its
index. A block whose counts read anything else is solved as without
targets, and ``Spectrum.fallbacks`` counts it.

Without targets, one ``dstebz`` call locates the block's levels and one
above to COARSE_TOL: those values are the shifts, and the neighbouring ones,
less 2 COARSE_TOL, the brackets.

Any level left uncertified (in a designed potential, about one per solve: a
block's top level, whose neighbour above is a box state just past the
threshold) is bisected to full precision on its own index, and its Rayleigh
quotient and correction are recomputed from ``dstein``'s vector.
``Spectrum.refined`` counts those levels. Without a level count, two Sturm
counts on the full matrix give the number k of levels in the bound window;
as the levels alternate parity, the blocks take ceil(k/2) and floor(k/2) of
them. Any other LAPACK failure raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PotentialGrid

__all__ = ["Spectrum", "DiscrepancyReport", "bound_states", "check_resolution", "compare_spectrum"]


@dataclass
class Spectrum:
    """Ascending bound-state eigenvalues plus solver context."""

    eigenvalues: np.ndarray
    continuum_edge: float
    refined: int = 0  # levels the certificate sent back to full-precision bisection
    fallbacks: int = 0  # blocks whose target brackets failed their Sturm counts, bracketed by coarse levels

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
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
# inverse-iteration steps any level may take before it is re-bisected:
# the hardest design at h = 0.005, primes:100, needs 6 (level 467, whose
# correction of 0.56 asks for the smallest residual), plus two to spare
BRACKET_STEPS = 8


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


def _sturm_certified(d, e, edges) -> bool:
    """Whether ``edges[j]`` has exactly j + 1 eigenvalues of (d, e) at or below
    it for every j: then (-inf, edges[0]], (edges[0], edges[1]], ... each hold
    one level. One ``_levels_in`` call per edge, counting up from below the
    Gershgorin bound of the spectrum; the first mismatch stops the counting."""
    floor = float(d.min()) - 2.0 * float(np.abs(e).max()) - 1.0
    return all(_levels_in(d, e, (floor, edge)) == j + 1 for j, edge in enumerate(edges))


def _certify(d, e, v, k, shifts, lo, hi, h2c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse iteration for level i from ``shifts[i]``, re-shifted to the
    Rayleigh quotient after each step while that lies in (lo[i], hi[i]), for
    at most BRACKET_STEPS steps; the level is accepted once the certificate
    (module docstring) holds with no other level in that bracket. Each level
    starts from the same fixed vector of no parity: a symmetric one is all
    but orthogonal to every odd state of a nearly even full-grid block.
    Levels past ``len(shifts)`` of the ``k`` are not tried.

    Returns (Rayleigh quotients, PdHA corrections, accepted), one per level.
    """
    from scipy.linalg import lapack

    rho, corr, accept = np.empty(k), np.empty(k), np.zeros(k, dtype=bool)
    start = np.random.default_rng(0).standard_normal(d.size)
    col, out = np.empty(d.size), np.empty(d.size)
    for i, shift in enumerate(shifts):
        col[:] = start
        for _ in range(BRACKET_STEPS):
            *_, step, singular = lapack.dgtsv(e, d - shift, e, col, overwrite_d=1, overwrite_b=1)
            if singular:  # the shift hit a level exactly: re-bisect it
                break
            col[:] = step / np.sqrt(step @ step)
            rho[i], resid, corr[i] = _quotient(d, e, v, col, out, h2c)
            gap = min(rho[i] - lo[i], hi[i] - rho[i])
            # Kato-Temple bounds the level's error by resid^2 / gap, Davis-Kahan
            # the vector's angle by resid / gap, which moves corr by at most
            # twice that share of it; the angle is held to ACC as well, so a
            # level with a small correction still has an accurate vector
            angle = resid / gap if gap > ACC else np.inf
            if resid * angle <= ACC and angle <= ACC and 2.0 * abs(corr[i]) * angle <= ACC:
                accept[i] = True
                break
            if gap > 0.0:  # a quotient outside the bracket would pull towards a neighbour
                shift = rho[i]
    return rho, corr, accept


def _rebisect(d, e, v, redo, rho, corr, h2c) -> None:
    """Bisect the levels of index ``redo`` to full precision, then replace their
    rho and corr by those of ``dstein``'s vectors (in place)."""
    from scipy.linalg import lapack

    exact = np.empty(redo.size)
    for j, i in enumerate(redo):
        _, w, block, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i + 1, i + 1, 0.0, "B")
        _check_info(info, "dstebz")
        if j == 0:
            iblock = np.zeros_like(block)
        exact[j], iblock[j] = w[0], block[0]
    z_redo, info = lapack.dstein(d, e, exact, iblock, isplit)
    _check_info(info, "dstein")
    out = np.empty(d.size)
    for j, i in enumerate(redo):
        rho[i], _, corr[i] = _quotient(d, e, v, z_redo[:, j], out, h2c)


def _lowest_levels(d, e, v, k: int, h2c: float, brackets=None):
    """The lowest ``k`` levels of the Jacobi matrix (d, e), each certified to
    ACC or re-bisected (module docstring), with their PdHA corrections.

    ``brackets`` is None or (targets, edges): the block's k targets and the
    upper bracket edge of each of its first ``edges.size`` levels; a level
    without an edge (the global top level) goes straight to re-bisection.
    When the Sturm counts at the edges do not certify one level per bracket,
    the block is solved as without them.

    Returns (corrected levels, number of levels re-bisected, whether the
    brackets fell back). ``v`` is the block's potential and ``h2c`` the
    correction's prefactor h^2 / (12 c^2).
    """
    from scipy.linalg import lapack  # first solve only: commands that never solve skip scipy.linalg

    bracketed = brackets is not None and _sturm_certified(d, e, brackets[1])
    if bracketed:
        targets, edges = brackets
        shifts = targets[: edges.size]
        lo, hi = np.concatenate(([-np.inf], edges[:-1])), edges
    else:
        top = min(k + 1, d.size)  # one level above the last, for its gap
        m, coarse, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, top, COARSE_TOL, "B")
        _check_info(info, "dstebz")
        shifts = coarse[:k]
        # (lo, hi) holds no level but the i-th
        lo = np.concatenate(([-np.inf], coarse[: k - 1] + 2.0 * COARSE_TOL))
        hi = np.append(coarse[1:m], np.inf)[:k] - 2.0 * COARSE_TOL
    rho, corr, accept = _certify(d, e, v, k, shifts, lo, hi, h2c)
    redo = np.flatnonzero(~accept)
    if redo.size:
        _rebisect(d, e, v, redo, rho, corr, h2c)
    return rho + corr, int(redo.size), brackets is not None and not bracketed


def bound_states(
    potential: PotentialGrid,
    kinetic_scale: float,
    count: int | None = None,
    *,
    targets=None,
) -> Spectrum:
    """The lowest ``count`` eigenvalues, or all strictly bound ones, ascending.

    With ``count`` the levels are taken by index, which holds the threshold
    state a designed potential places exactly at its asymptote: Neumann box
    ends keep that state (psi -> const) at the edge. Without it, a state is
    bound when it lies below continuum_edge - 1e-3 * depth; the continuum
    edge is the mean of the two boundary samples. An exactly even potential
    is solved as its even and odd parity blocks, any other as one matrix.

    ``targets``, where each level should lie, implies ``count`` (a different
    one is refused, as are targets that are not finite and strictly
    ascending). Each level below the top then starts from a bracket around
    its target, certified by Sturm counts to hold that level alone; a block
    whose counts disagree is bracketed by coarse levels, as without targets.
    The levels are the same either way, to the certificate's ACC (module
    docstring).

    ``kinetic_scale`` (c in ``-c^2 d^2/dx^2``) stays an argument so that
    tests can check the solver against c = 1 textbook spectra.
    """
    c = float(kinetic_scale)
    if c <= 0.0:
        raise ValueError("kinetic_scale must be positive")
    v = potential.values
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 1 or not np.all(np.isfinite(targets)) or np.any(np.diff(targets) <= 0.0):
            raise ValueError("targets must be finite and strictly ascending")
        if count is not None and count != targets.size:
            raise ValueError(f"count {count} disagrees with {targets.size} targets")
        count = targets.size
    if count is not None and not 1 <= count <= v.size:
        raise ValueError(f"count asks for {count} levels of a {v.size}-node grid; it must be 1 to {v.size}")
    h = potential.grid.spacing
    check_resolution(float(v.max() - v.min()), h, c)
    edge = 0.5 * (float(v[0]) + float(v[-1]))

    inv_h2 = c * c / (h * h)
    diag = v + 2.0 * inv_h2
    diag[[0, -1]] -= inv_h2
    off = np.full(v.size - 1, -inv_h2)
    if count is None:
        depth = edge - float(v.min())
        # a flat potential's psi = const sits at the edge up to roundoff: not bound
        count = _levels_in(diag, off, (float(v.min()) - 1.0, edge - 1e-3 * depth)) if depth > 0.0 else 0
    # a block is (first full-grid row, off-diagonal, levels under count,
    # brackets): the even and odd blocks of an even potential or the whole
    # grid; brackets as in _lowest_levels
    stride = 2 if potential.even else 1
    brackets = [None, None]
    if targets is not None:
        # each level's upper edge lies midway to its block's next target; a
        # block's last one midway to the next target of the other block. The
        # global top level, at the threshold, gets none
        following = targets[np.minimum(np.arange(stride, count - 1 + stride), count - 1)]
        edges = 0.5 * (targets[:-1] + following)
        brackets = [(targets[p::stride], edges[p::stride]) for p in range(stride)]
    if potential.even:
        mid = v.size // 2
        even_off = off[mid:].copy()
        even_off[0] *= np.sqrt(2.0)
        blocks = [
            (mid, even_off, (count + 1) // 2, brackets[0]),
            (mid + 1, off[mid + 1 :], count // 2, brackets[1]),
        ]
    else:
        blocks = [(0, off, count, brackets[0])]

    levels, refined, fallbacks = [np.empty(0)], 0, 0
    for start, block_off, share, block_brackets in blocks:
        # LAPACK's wrappers want an off-diagonal entry even where, as in the
        # odd block of a 3-point grid, there is one row and none is read
        if block_off.size == 0:
            block_off = np.zeros(1)
        if share == 0:  # the odd block at count = 1, or no bound level at all
            continue
        # the three-point rule undershoots each level by h^2/(12 c^2) <((V - E) psi)^2>;
        # a full-grid sum is twice a parity block's, so for a unit block vector z
        # this is h^2/(12 c^2) sum(((V - E) z)^2) in every block
        vals, redone, fell_back = _lowest_levels(
            diag[start:], block_off, v[start:], share, h * h / (12.0 * c * c), block_brackets
        )
        levels.append(vals)
        refined += redone
        fallbacks += fell_back
    # even and odd levels interleave; sorting merges them
    eigvals = np.sort(np.concatenate(levels))
    return Spectrum(eigenvalues=eigvals, continuum_edge=edge, refined=refined, fallbacks=fallbacks)


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
