"""Hot numeric kernels, one numpy implementation each.

Both solve ``psi'' = q psi`` with one propagator, the two-point Gauss Magnus
step (``magnus_step``) on samples from one cubic cell stencil
(``cell_samples``), and multiply the steps on one block tree
(``_block_products``, a blocked scan after Blelloch 1990): blocks of
``BLOCK`` = 32 cells, each multiplied pairwise, and what is carried across
the blocks is rescaled after each one. The Riccati sweep of the chain
carries the column (u, u') and then walks each block to get u at every
node; each transmission scan carries the 2x2 product, batched over energies.

A transfer scan's step call covers a span of whole blocks, about ``WORK`` =
16384 cell-energies (480 cells at a filter verdict's 34 energies, so each
half-well of the default apparatus is one span), so a verdict pays numpy's
per-call overhead once per span rather than once per block. The span changes
only how many blocks one call computes, never the order of a product or a
rescale, so a scan's result is bitwise the same for any span, and each
energy's result is the same bits in any batch.

The steps are held in tree order, shape ``(2, 2, BLOCK, n_blocks) + batch``:
slot s of each block holds cell ``_TREE_SLOT[s]``, the bit reversal of s,
and identity steps fill the slots past the last cell. Each level of the tree
then multiplies the upper half of its slots by the lower half, two contiguous
operands, and pairs exactly the cells a pairwise product in cell order pairs.
Each cell's operands are formed in cell order and then placed in tree order.

Both kernels compute in a workspace (``_Workspace``) of one call shape: the
steps, their ``h_qbar`` operand, the block tree's levels and the scratch its
products add in, with ``magnus_step``'s intermediates in its own output.
``WORK`` bounds the workspace a thread keeps: the last one of at most
``WORK`` cell-energies (about 1.4 MiB at that size, within a 2 MiB L2) is
kept and reused by every later call of its shape, so a filter verdict, whose
scans share one shape, allocates no large array once warm. A larger call,
such as a scan of thousands of energies, makes buffers of its own and frees
them on return. Allocating a workspace per scan cost more than the scan's
arithmetic: glibc returned each scan's buffers to the kernel and faulted them
in again on the next, about 1,100 minor page faults per verdict at 8192
cell-energies. A workspace serves one thread at a time; each thread keeps
its own.
Timings of both are reported by ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

__all__ = [
    "backend_name",
    "cell_samples",
    "magnus_step",
    "mirror_resonance",
    "riccati_sweep",
    "transfer_scan",
    "transmission_reflection",
]

BLOCK = 32  # cells multiplied together between two rescales, in both kernels
WORK = 16384  # cell-energies per step call of a transfer scan, and most in a kept workspace
SQRT3_12 = math.sqrt(3.0) / 12.0  # commutator weight of the two-point Gauss Magnus step
GAUSS_POINTS = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)  # two-point Gauss nodes, as fractions of a cell
# cell of each slot of a block in tree order, and slot of each cell: the bit reversal
_TREE_SLOT = np.array([int(f"{j:0{BLOCK.bit_length() - 1}b}"[::-1], 2) for j in range(BLOCK)])
_TREE_SLOT.flags.writeable = False


def backend_name() -> str:
    return "numpy"


@functools.lru_cache(maxsize=8)
def _stencil_weights(fractions: tuple) -> np.ndarray:
    """Cubic Lagrange weights of stencil nodes 0..3 at `fractions` of a cell
    that starts on node 0 (the first cell), node 1 (every interior cell) or
    node 2 (the last cell): shape (3, 4, len(fractions), 1), read-only."""
    x = np.arange(3)[:, None] + np.asarray(fractions, dtype=np.float64)[None, :]
    weights = np.stack(
        (
            -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0,
            x * (x - 2.0) * (x - 3.0) / 2.0,
            -x * (x - 1.0) * (x - 3.0) / 2.0,
            x * (x - 1.0) * (x - 2.0) / 6.0,
        ),
        axis=1,
    )[..., None]
    weights.flags.writeable = False
    return weights


def cell_samples(values, fractions) -> np.ndarray:
    """Samples at `fractions` of each cell of a uniform grid, shape
    (n_nodes - 1, len(fractions)).

    Each cell takes the cubic through its two end nodes and one neighbour on
    either side (the four nearest nodes at the grid ends). At ``GAUSS_POINTS``
    these are the samples both kernels step with. Every interior cell has the
    same weights, so they are computed once per `fractions`.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 4:
        raise ValueError("need at least 4 nodes for the cubic stencil")
    w = _stencil_weights(tuple(np.asarray(fractions, dtype=np.float64).tolist()))
    n = v.size
    # one row per fraction, so each product runs along the grid
    first = sum(w[0, j] * v[j] for j in range(4))
    interior = sum(w[1, j] * v[j : n - 3 + j] for j in range(4))
    last = sum(w[2, j] * v[n - 4 + j] for j in range(4))
    return np.ascontiguousarray(np.concatenate((first, interior, last), axis=1).T)


def magnus_step(alpha, h_qbar, h: float, out: np.ndarray) -> np.ndarray:
    """The two-point Gauss Magnus step of ``psi'' = q psi`` across cells of
    width `h`: the map of ``(psi, psi')`` from a cell's left end to its right
    end, written into `out`, of shape (2, 2) + the broadcast shape of `alpha`
    and `h_qbar`, which is returned.

    Fourth order (Iserles & Norsett 1999): with ``q1``, ``q2`` at the Gauss
    points ``x_mid -+ h/(2 sqrt 3)``, ``alpha = sqrt(3) h^2 (q1 - q2)/12`` and
    ``h_qbar = h (q1 + q2)/2``, the step is ``exp(Omega)`` for
    ``Omega = [[alpha, h], [h_qbar, -alpha]]``, which is
    ``cosh(d) I + sinh(d)/d Omega`` with ``d^2 = alpha^2 + h h_qbar`` (cos
    and sin where ``d^2 < 0``). A constant cell (``q1 == q2``) gives the
    exact solution.

    The four slabs of `out` hold the intermediates as well, so of the
    broadcast shape a step allocates only two boolean masks. `out` must not
    overlap `alpha` or `h_qbar`.
    """
    cosh_d, sinh_d, d, t = out[0, 0], out[0, 1], out[1, 0], out[1, 1]
    d2 = np.multiply(h, h_qbar, out=t)
    np.add(alpha * alpha, d2, out=d2)
    grows = d2 > 0.0
    np.sqrt(np.abs(d2, out=d), out=d)
    # cos and sin from t = tan(d/2): numpy's cos and sin cost several times
    # tan. Each transcendental runs only where its branch is taken (a masked
    # ufunc gives each element the bits of the unmasked one); the rational
    # forms run everywhere, on t = d/2 where d grows, and are overwritten
    # there by cosh and sinh
    np.multiply(0.5, d, out=t)
    np.tan(t, out=t, where=np.logical_not(grows))
    np.multiply(t, t, out=cosh_d)
    np.add(1.0, cosh_d, out=sinh_d)
    np.subtract(1.0, cosh_d, out=cosh_d)
    np.divide(cosh_d, sinh_d, out=cosh_d)
    np.multiply(2.0, t, out=t)
    np.divide(t, sinh_d, out=sinh_d)
    np.cosh(d, out=cosh_d, where=grows)
    np.sinh(d, out=sinh_d, where=grows)
    # sinh(d)/d, 1 where d is not positive
    positive = np.greater(d, 0.0, out=grows)
    np.divide(sinh_d, d, out=sinh_d, where=positive)
    np.copyto(sinh_d, 1.0, where=np.logical_not(positive, out=positive))
    s_alpha = np.multiply(sinh_d, alpha, out=d)
    np.subtract(cosh_d, s_alpha, out=out[1, 1])
    np.add(cosh_d, s_alpha, out=out[0, 0])
    np.multiply(sinh_d, h_qbar, out=out[1, 0])
    np.multiply(sinh_d, h, out=out[0, 1])
    return out


def _product(later: np.ndarray, earlier: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """``later @ earlier`` for stacks of 2x2 matrices on the two leading axes,
    into `out` with `scratch` for the second term when they are given (neither
    may overlap an operand)."""
    if out is None:
        return later[:, 0, None] * earlier[None, 0] + later[:, 1, None] * earlier[None, 1]
    np.multiply(later[:, 0, None], earlier[None, 0], out=out)
    np.multiply(later[:, 1, None], earlier[None, 1], out=scratch)
    return np.add(out, scratch, out=out)


class _Workspace:
    """The buffers of kernel calls of one shape, ``(span,) + batch``: the
    steps, their ``h_qbar`` operand, the levels of the ``_block_products``
    tree one after another, and the scratch its products add in. Each is
    flat, so a call of fewer blocks than the span takes a contiguous prefix
    of it (``_tree_views``)."""

    def __init__(self, shape: tuple):
        self.shape = shape
        size = math.prod(shape)
        self.steps = np.empty(4 * size)
        self.h_qbar = np.empty(size)
        self.levels = np.empty(4 * (size - size // BLOCK))  # BLOCK/2 + BLOCK/4 + ... + 1 slots a block
        self.scratch = np.empty(2 * size)


_kept = threading.local()  # each thread's kept workspace


def _workspace(span: int, batch: tuple) -> _Workspace:
    """A workspace for calls of shape ``(span,) + batch``: this thread's kept
    one when its shape matches, else a new one, kept in its place when it
    holds at most ``WORK`` cell-energies."""
    shape = (span,) + batch
    kept = getattr(_kept, "workspace", None)
    if kept is not None and kept.shape == shape:
        return kept
    if math.prod(shape) > WORK:
        return _Workspace(shape)
    _kept.workspace = None  # free the old buffers before making the new
    _kept.workspace = _Workspace(shape)
    return _kept.workspace


@functools.lru_cache(maxsize=16)
def _tree_order(n_cells: int) -> tuple:
    """Where `n_cells` cells sit in tree order: ``rows``, shape (BLOCK,
    n_blocks), the cell in each slot of each block (the last cell again in
    the slots past it), and ``pads``, the slots of the last block past the
    last cell, which take identity steps. Both read-only."""
    n_blocks = -(-n_cells // BLOCK)
    rows = np.minimum(_TREE_SLOT[:, None] + np.arange(0, n_blocks * BLOCK, BLOCK), n_cells - 1)
    pads = _TREE_SLOT[n_cells - (n_blocks - 1) * BLOCK :].copy()
    rows.flags.writeable = pads.flags.writeable = False
    return rows, pads


def _tree_views(work: _Workspace, n_blocks: int) -> tuple:
    """The steps, shape (2, 2, BLOCK, n_blocks) + batch, and their ``h_qbar``
    operand, shape (BLOCK, n_blocks) + batch, of a call of `n_blocks`
    blocks: contiguous views into `work`."""
    shape = (BLOCK, n_blocks) + work.shape[1:]
    size = math.prod(shape)
    return work.steps[: 4 * size].reshape((2, 2) + shape), work.h_qbar[:size].reshape(shape)


def _block_products(work: _Workspace, steps: np.ndarray, pads: np.ndarray) -> np.ndarray:
    """Product of the ``BLOCK`` steps of each block of `steps` (a view of
    ``_tree_views``), later steps on the left, pairwise in log2(BLOCK)
    vectorized levels with no rescale, computed in ``work.levels``; shape
    (2, 2, n_blocks) + the batch shape, a view into `work`.

    The steps are in tree order: slot s of a block holds cell
    ``_TREE_SLOT[s]``, the bit reversal of s, so the upper half of the slots
    holds the odd cells and the lower half the even ones, each in the same
    order. A level multiplies the upper half by the lower half, two
    contiguous operands, and pairs cells 2k + 1 and 2k into its slot for k,
    again in tree order. The slots `pads` of the last block take identity
    steps first: I @ X is exactly X, so a pair with a padded cell passes its
    other step up the tree unchanged."""
    steps[:, :, pads, -1] = np.eye(2).reshape((2, 2, 1) + (1,) * (steps.ndim - 4))
    tree, free = steps, work.levels
    while tree.shape[2] > 1:
        half = tree.shape[2] // 2
        lower, upper = tree[:, :, :half], tree[:, :, half:]
        size = lower.size
        tree = _product(upper, lower, free[:size].reshape(lower.shape), work.scratch[:size].reshape(lower.shape))
        free = free[size:]
    return tree[:, :, 0]


def riccati_sweep(q: np.ndarray, h: float, c: float):
    """Sweep of u'' = q(x) u on x >= 0 with u(0)=1, u'(0)=0; `c`, like q,
    is an input of the equation, not a convention of this module.

    Returns W = -c u'/u on the nodes and a status index: -1 when u stayed
    positive, else the first node where u <= 0 (W is zero from there on).
    Each cell is carried by ``magnus_step`` on the Gauss samples of q from
    ``cell_samples``. The column (u, u') is carried across the block products
    of ``_block_products`` in order and divided by its larger entry after each
    block: the scale is positive, so the sign of u survives, and W is a
    ratio, so it needs no log scale. Each block's steps then carry its
    starting column to u at every node, all blocks at once: cell j of each
    block is read from tree slot ``_TREE_SLOT[j]``.
    """
    gauss = cell_samples(q, GAUSS_POINTS)
    n_cells = gauss.shape[0]
    rows, pads = _tree_order(n_cells)
    work = _workspace(rows.size, ())
    steps, h_qbar = _tree_views(work, rows.shape[1])
    # each cell's operands in cell order, then placed in tree order
    alpha = (SQRT3_12 * h * h * (gauss[:, 0] - gauss[:, 1]))[rows]
    np.multiply(np.add(gauss[:, 0], gauss[:, 1])[rows], 0.5 * h, out=h_qbar)
    magnus_step(alpha, h_qbar, h, steps)
    totals = _block_products(work, steps, pads)
    u, du = [1.0], [0.0]
    for t11, t12, t21, t22 in zip(*totals.reshape(4, -1)[:, :-1].tolist()):
        nu, ndu = t11 * u[-1] + t12 * du[-1], t21 * u[-1] + t22 * du[-1]
        s = max(abs(nu), abs(ndu))
        u.append(nu / s)
        du.append(ndu / s)
    (s11, s12), (s21, s22) = steps
    u, du = np.array([u, du])
    path = np.empty((2, u.size, BLOCK))
    for j, slot in enumerate(_TREE_SLOT):
        u, du = s11[slot] * u + s12[slot] * du, s21[slot] * u + s22[slot] * du
        path[0, :, j], path[1, :, j] = u, du
    u, du = path.reshape(2, -1)[:, :n_cells]
    crossed = np.flatnonzero(u <= 0.0)
    end = int(crossed[0]) if crossed.size else u.size
    w = np.zeros(u.size + 1)
    w[1 : end + 1] = -c * du[:end] / u[:end]
    return w, end + 1 if crossed.size else -1


def transfer_scan(v_cells: np.ndarray, h: float, energies: np.ndarray, c: float, v_lead: float = 0.0):
    """Transfer matrix of `v_cells` between two flat leads at `v_lead`.

    The solution ``(psi, psi')`` of ``psi'' = q psi``, ``q = (V - E)/c^2``,
    is carried across each cell by ``magnus_step``, so piecewise-constant
    potentials are propagated exactly; `c` is an input like the cells.

    `v_cells` holds constant cells, shape (n_cells,), or the potential at the
    two Gauss points of each cell, shape (n_cells, 2). The cells go in spans
    of ``BLOCK * max(1, WORK // (BLOCK * n_energies))``: one vectorized step
    computes a span's step matrices, in tree order, into the workspace of the
    span and batch (kept by the thread when it holds at most ``WORK``
    cell-energies), and ``_block_products`` multiplies them block by block.
    Each block's product then updates the running product, which is rescaled
    after every block, so no product grows over more than ``BLOCK`` cells
    before it is rescaled. Every product and rescale happens in the same
    order for any span, so the result does not depend on the span, and an
    energy's result does not depend on the batch it is scanned in, to the
    last bit.

    Returns ``(m, log_scale)``: ``exp(log_scale) * m`` maps ``(psi, psi'/k)``
    at the left end to the right end, ``k = sqrt(E - v_lead)/c`` the leads'
    wavenumber (energies must lie above `v_lead`); m has shape
    (2, 2, n_energies) and log_scale shape (n_energies,), both new arrays,
    never views into the workspace. ``transmission_reflection`` turns them
    into (T, R).
    """
    v = np.asarray(v_cells, dtype=np.float64)
    if v.ndim == 1:
        v = np.stack([v, v], axis=1)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("cells need one value or a pair of Gauss samples each")
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    h, c2 = float(h), float(c) ** 2
    # rows (m11, m12) and (m21, m22), energies on the last axis
    m = np.zeros((2, 2, energies.size))
    m[0, 0] = m[1, 1] = 1.0
    log_scale = np.zeros(energies.size)
    span = BLOCK * max(1, WORK // (BLOCK * max(1, energies.size)))
    work = _workspace(span, energies.shape)
    for start in range(0, v.shape[0], span):
        cells = v[start : start + span]
        rows, pads = _tree_order(cells.shape[0])
        steps, h_qbar = _tree_views(work, rows.shape[1])
        # each cell's operands in cell order, then placed in tree order
        alpha = ((SQRT3_12 * h * h / c2) * (cells[:, 0] - cells[:, 1]))[rows, None]
        np.subtract((0.5 * (cells[:, 0] + cells[:, 1]))[rows, None], energies, out=h_qbar)
        h_qbar *= h / c2
        magnus_step(alpha, h_qbar, h, steps)
        totals = _block_products(work, steps, pads)
        for block in range(totals.shape[2]):
            m = _product(totals[:, :, block], m)
            # each step has determinant 1, so the largest entry is finite and nonzero
            s = np.abs(m).max(axis=(0, 1))
            m /= s
            log_scale += np.log(s)
    k = np.sqrt(energies - float(v_lead)) / float(c)
    m[0, 1] *= k
    m[1, 0] /= k
    return m, log_scale


def mirror_resonance(m: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """The resonance function G of a profile followed by its mirror image,
    from ``transfer_scan``'s ``(m, log_scale)`` of the profile alone: the
    whole profile transmits ``T = 1/(1 + G^2)``.

    Mirroring a profile reverses its cells and swaps each cell's two Gauss
    samples, and each step becomes ``exp(sigma (-Omega) sigma)``, so the
    mirrored half carries ``sigma M^-1 sigma`` with ``sigma = diag(1, -1)``,
    which commutes with the ``(psi, psi'/k)`` scaling. With
    ``m = [[a, b], [c, d]]`` the whole profile is ``[[A, B], [C, A]]`` =
    ``exp(2 log_scale) [[ad + bc, 2bd], [2ac, ad + bc]]``, and
    ``A^2 - BC = 1`` turns ``transmission_reflection``'s T into
    ``4/(4 + (B + C)^2)``, so ``G = (ac + bd) exp(2 log_scale)``. G is smooth
    in the energy and has a simple root at each resonance.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return (a * c + b * d) * np.exp(2.0 * log_scale)


def transmission_reflection(m: np.ndarray, log_scale: np.ndarray):
    """(T, R) for a wave incident from the left, from ``transfer_scan``'s output.

    With ``D = (m11 + m22)^2 + (m12 - m21)^2``, ``T = 4 exp(-2 log_scale)/D``
    and ``R = ((m11 - m22)^2 + (m12 + m21)^2)/D``. Both are sums of squares,
    so neither cancels deep in a tunnelling regime, and
    ``T + R - 1 = 4 (exp(-2 log_scale) - det m)/D`` measures the drift of the
    product's determinant from 1.
    """
    m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    denom = (m11 + m22) ** 2 + (m12 - m21) ** 2
    t_out = 4.0 * np.exp(-2.0 * log_scale) / denom
    r_out = ((m11 - m22) ** 2 + (m12 + m21) ** 2) / denom
    return t_out, r_out
