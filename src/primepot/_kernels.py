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
8192 cell-energies, so a filter verdict's batches of a few dozen energies
pay numpy's per-call overhead once per span rather than once per block,
while each float64 temporary stays at 64 KiB, under glibc malloc's default
128 KiB mmap threshold (at 452 cells x 34 energies, 123 KiB per temporary,
the step ran about 2x slower per element than at 240 x 34). The span changes
only how many blocks one call computes, never the order of a product or a
rescale, so a scan's result is bitwise the same for any span, and each
energy's result is the same bits in any batch.
Timings of both are reported by ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import math

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
WORK = 8192  # cell-energies per step call of a transfer scan: 64 KiB per float64 temporary
SQRT3_12 = math.sqrt(3.0) / 12.0  # commutator weight of the two-point Gauss Magnus step
GAUSS_POINTS = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)  # two-point Gauss nodes, as fractions of a cell


def backend_name() -> str:
    return "numpy"


def cell_samples(values, fractions) -> np.ndarray:
    """Samples at `fractions` of each cell of a uniform grid, shape
    (n_nodes - 1, len(fractions)).

    Each cell takes the cubic through its two end nodes and one neighbour on
    either side (the four nearest nodes at the grid ends). At ``GAUSS_POINTS``
    these are the samples both kernels step with.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 4:
        raise ValueError("need at least 4 nodes for the cubic stencil")
    first = np.clip(np.arange(v.size - 1) - 1, 0, v.size - 4)
    # position of each sample on the stencil's nodes 0..3
    x = (np.arange(v.size - 1) - first)[:, None] + np.asarray(fractions, dtype=np.float64)[None, :]
    lagrange = (
        -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0,
        x * (x - 2.0) * (x - 3.0) / 2.0,
        -x * (x - 1.0) * (x - 3.0) / 2.0,
        x * (x - 1.0) * (x - 2.0) / 6.0,
    )
    return sum(w * v[first + j][:, None] for j, w in enumerate(lagrange))


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
    """
    d2 = alpha * alpha + h * h_qbar
    d = np.sqrt(np.abs(d2))
    # cos and sin from tan(d/2): numpy's cos and sin cost several times tan
    tan_half = np.tan(0.5 * d)
    tan2 = tan_half * tan_half
    grows = d2 > 0.0
    cosh_d = np.where(grows, np.cosh(d), (1.0 - tan2) / (1.0 + tan2))
    sinh_d = np.where(grows, np.sinh(d), 2.0 * tan_half / (1.0 + tan2))
    sinh_d = np.divide(sinh_d, d, out=np.ones_like(d), where=d > 0.0)
    s_alpha = sinh_d * alpha
    np.add(cosh_d, s_alpha, out=out[0, 0])
    np.multiply(sinh_d, h, out=out[0, 1])
    np.multiply(sinh_d, h_qbar, out=out[1, 0])
    np.subtract(cosh_d, s_alpha, out=out[1, 1])
    return out


def _product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later @ earlier`` for stacks of 2x2 matrices on the two leading axes."""
    return later[:, 0, None] * earlier[None, 0] + later[:, 1, None] * earlier[None, 1]


def _block_products(steps: np.ndarray, n_steps: int) -> np.ndarray:
    """Product of each ``BLOCK`` steps of ``steps[:, :, :n_steps]``, later
    steps on the left, pairwise in log2(BLOCK) vectorized levels with no
    rescale; shape (2, 2, n_blocks) + ``steps.shape[3:]``. Identity steps pad
    the last block in `steps`, which must hold whole blocks: I @ X is exactly
    X, so the odd step of a level passes up the tree unchanged."""
    n_blocks = -(-n_steps // BLOCK)
    steps[:, :, n_steps : n_blocks * BLOCK] = np.eye(2).reshape((2, 2) + (1,) * (steps.ndim - 2))
    tree = steps[:, :, : n_blocks * BLOCK].reshape((2, 2, n_blocks, BLOCK) + steps.shape[3:])
    while tree.shape[3] > 1:
        tree = _product(tree[:, :, :, 1::2], tree[:, :, :, 0::2])
    return tree[:, :, :, 0]


def riccati_sweep(q: np.ndarray, h: float, c: float):
    """Sweep of u'' = q(x) u on x >= 0 with u(0)=1, u'(0)=0.

    Returns W = -c u'/u on the nodes and a status index: -1 when u stayed
    positive, else the first node where u <= 0 (W is zero from there on).
    Each cell is carried by ``magnus_step`` on the Gauss samples of q from
    ``cell_samples``. The column (u, u') is carried across the block products
    of ``_block_products`` in order and divided by its larger entry after each
    block: the scale is positive, so the sign of u survives, and W is a
    ratio, so it needs no log scale. Each block's steps then carry its
    starting column to u at every node, all blocks at once.
    """
    gauss = cell_samples(q, GAUSS_POINTS)
    n_cells = gauss.shape[0]
    alpha = SQRT3_12 * h * h * (gauss[:, 0] - gauss[:, 1])
    steps = np.empty((2, 2, -(-n_cells // BLOCK) * BLOCK))
    magnus_step(alpha, 0.5 * h * (gauss[:, 0] + gauss[:, 1]), h, steps[:, :, :n_cells])
    totals = _block_products(steps, n_cells)
    u, du = [1.0], [0.0]
    for t11, t12, t21, t22 in zip(*totals.reshape(4, -1)[:, :-1].tolist()):
        nu, ndu = t11 * u[-1] + t12 * du[-1], t21 * u[-1] + t22 * du[-1]
        s = max(abs(nu), abs(ndu))
        u.append(nu / s)
        du.append(ndu / s)
    column = np.array([u, du])[:, None]
    blocks = steps.reshape(2, 2, -1, BLOCK)
    path = np.empty((2, column.shape[2], BLOCK))
    for j in range(BLOCK):
        column = _product(blocks[:, :, :, j], column)
        path[:, :, j] = column[:, 0]
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
    potentials are propagated exactly.

    `v_cells` holds constant cells, shape (n_cells,), or the potential at the
    two Gauss points of each cell, shape (n_cells, 2). The cells go in spans
    of ``BLOCK * max(1, WORK // (BLOCK * n_energies))``: one vectorized step
    computes a span's step matrices into the scan's one buffer, and
    ``_block_products`` multiplies them block by block. Each block's product
    then updates the running product, which is rescaled after every block,
    so no product grows over more than ``BLOCK`` cells before it is rescaled.
    Every product and rescale happens in the same order for any span, so the
    result does not depend on the span, and an energy's result does not
    depend on the batch it is scanned in, to the last bit.

    Returns ``(m, log_scale)``: ``exp(log_scale) * m`` maps ``(psi, psi'/k)``
    at the left end to the right end, ``k = sqrt(E - v_lead)/c`` the leads'
    wavenumber (energies must lie above `v_lead`); m has shape
    (2, 2, n_energies) and log_scale shape (n_energies,).
    ``transmission_reflection`` turns them into (T, R).
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
    # one step buffer per scan: at a few hundred energies a fresh one per span
    # is large enough for glibc malloc to map and fault in anew every time
    span = BLOCK * max(1, WORK // (BLOCK * max(1, energies.size)))
    steps = np.empty((2, 2, span, energies.size))
    for start in range(0, v.shape[0], span):
        cells = v[start : start + span]
        alpha = ((SQRT3_12 * h * h / c2) * (cells[:, 0] - cells[:, 1]))[:, None]
        h_qbar = (h / c2) * (0.5 * (cells[:, 0] + cells[:, 1])[:, None] - energies)
        magnus_step(alpha, h_qbar, h, steps[:, :, : cells.shape[0]])
        totals = _block_products(steps, cells.shape[0])
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
