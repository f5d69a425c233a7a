"""Hot numeric kernels, one numpy/python implementation each.

Two inner loops dominate runtime: the half-line sweep that linearizes each
Riccati step of the potential-construction chain (a scalar RK4 loop over the
nodes), and the real fourth-order Magnus transfer-matrix product behind
every transmission scan (a loop over blocks of cells, batched over energies
and over cell profiles, each block's step matrices and their product formed
by vectorized numpy steps; constant cells are its exact special case).
Timings of both are reported by ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["backend_name", "riccati_sweep", "transfer_scan", "transmission_reflection"]

BLOCK = 32  # cells whose step matrices one vectorized step computes
SQRT3_12 = math.sqrt(3.0) / 12.0  # commutator weight of the two-point Gauss Magnus step


def backend_name() -> str:
    return "numpy"


def riccati_sweep(q: np.ndarray, h: float, c: float, renorm_every: int = 256):
    """RK4 sweep of u'' = q(x) u on x >= 0 with u(0)=1, u'(0)=0.

    Returns W = -c u'/u on the nodes and a status index: -1 when u stayed
    positive, else the first node where u crossed zero. q at step midpoints
    comes from a 4-point cubic stencil, keeping the sweep 4th order on the
    node spacing alone. (u, u') are renormalized periodically; the ratio W
    is unaffected.
    """
    q = np.ascontiguousarray(q, dtype=np.float64)
    if q.shape[0] < 4:
        raise ValueError("need at least 4 nodes for the midpoint stencil")
    h, c, renorm_every = float(h), float(c), int(renorm_every)
    n = q.shape[0]
    w = np.zeros(n)
    u = 1.0
    v = 0.0
    status = -1
    for i in range(n - 1):
        qa = q[i]
        qb = q[i + 1]
        if i == 0:
            qm = (5.0 * q[0] + 15.0 * q[1] - 5.0 * q[2] + q[3]) / 16.0
        elif i == n - 2:
            qm = (q[n - 4] - 5.0 * q[n - 3] + 15.0 * q[n - 2] + 5.0 * q[n - 1]) / 16.0
        else:
            qm = (-q[i - 1] + 9.0 * q[i] + 9.0 * q[i + 1] - q[i + 2]) / 16.0
        k1u = v
        k1v = qa * u
        k2u = v + 0.5 * h * k1v
        k2v = qm * (u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = qm * (u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = qb * (u + h * k3u)
        u = u + h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v = v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if u <= 0.0:
            status = i + 1
            break
        w[i + 1] = -c * v / u
        if (i + 1) % renorm_every == 0:
            s = abs(u)
            if abs(v) > s:
                s = abs(v)
            u /= s
            v /= s
    return w, status


def transfer_scan(v_cells: np.ndarray, h: float, energies: np.ndarray, c: float, v_lead: float = 0.0):
    """Transfer matrix of `v_cells` between two flat leads at `v_lead`.

    The solution ``(psi, psi')`` of ``psi'' = q psi``, ``q = (V - E)/c^2``,
    is carried across each cell by the two-point Gauss Magnus step (fourth
    order; Iserles & Norsett 1999): with ``q1``, ``q2`` at the Gauss points
    ``x_mid -+ h/(2 sqrt 3)``, ``qbar = (q1 + q2)/2`` and
    ``alpha = sqrt(3) h^2 (q1 - q2)/12``, the step is ``exp(Omega)`` for
    ``Omega = [[alpha, h], [h qbar, -alpha]]``, which is
    ``cosh(d) I + sinh(d)/d Omega`` with ``d^2 = alpha^2 + h^2 qbar`` (cos
    and sin where ``d^2 < 0``). A constant cell (``q1 == q2``) gives the
    exact solution, so piecewise-constant potentials are propagated exactly.

    `v_cells` holds constant cells, shape (n_cells,), or the potential at the
    two Gauss points of each cell, shape (n_cells, 2[, n_profiles]); several
    profiles are scanned in lockstep, each broadcast against the energies.
    For each block of cells the step matrices come from one vectorized step
    and are multiplied pairwise, log2(BLOCK) vectorized levels; the block's
    product then updates the running product, which is rescaled once per
    block.

    Returns ``(m, log_scale)``: ``exp(log_scale) * m`` maps ``(psi, psi'/k)``
    at the left end to the right end, ``k = sqrt(E - v_lead)/c`` the leads'
    wavenumber (energies must lie above `v_lead`); m has shape
    (2, 2, n_energies[, n_profiles]) and log_scale the shape of m[0, 0].
    ``transmission_reflection`` turns them into (T, R).
    """
    v = np.asarray(v_cells, dtype=np.float64)
    if v.ndim == 1:
        v = np.stack([v, v], axis=1)
    if v.shape[1] != 2:
        raise ValueError("cells need one value or a pair of Gauss samples each")
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    h, c2 = float(h), float(c) ** 2
    out_shape = energies.shape + v.shape[2:]
    v = v.reshape(v.shape[0], 2, -1)
    # rows (m11, m12) and (m21, m22); axes (profile, energy): energies innermost,
    # so every elementwise step runs along contiguous rows
    m = np.zeros((2, 2, v.shape[2], energies.size))
    m[0, 0] = m[1, 1] = 1.0
    log_scale = np.zeros(m.shape[2:])
    for start in range(0, v.shape[0], BLOCK):
        block = v[start : start + BLOCK]
        alpha = ((SQRT3_12 * h * h / c2) * (block[:, 0] - block[:, 1]))[:, :, None]
        h_qbar = (h / c2) * (0.5 * (block[:, 0] + block[:, 1])[:, :, None] - energies)
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
        step = np.array([[cosh_d + s_alpha, sinh_d * h], [sinh_d * h_qbar, cosh_d - s_alpha]])
        # the block's product pairwise, later cells on the left: log2(BLOCK) levels
        while step.shape[2] > 1:
            pairs = step.shape[2] // 2
            later, earlier = step[:, :, 1 : 2 * pairs : 2], step[:, :, 0 : 2 * pairs : 2]
            product = later[:, 0, None] * earlier[None, 0] + later[:, 1, None] * earlier[None, 1]
            step = np.concatenate([product, step[:, :, 2 * pairs :]], axis=2) if step.shape[2] % 2 else product
        m = step[:, 0, 0, None] * m[None, 0] + step[:, 1, 0, None] * m[None, 1]
        # each step has determinant 1, so the largest entry is finite and nonzero
        s = np.abs(m).max(axis=(0, 1))
        m /= s
        log_scale += np.log(s)
    k = np.sqrt(energies - float(v_lead)) / float(c)
    m[0, 1] *= k
    m[1, 0] /= k
    return np.moveaxis(m, 2, 3).reshape((2, 2) + out_shape), log_scale.T.reshape(out_shape)


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
