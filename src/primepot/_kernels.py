"""Hot numeric kernels, one numpy/python implementation each.

Two inner loops dominate runtime: the half-line sweep that linearizes each
Riccati step of the potential-construction chain (a scalar RK4 loop over the
nodes), and the piecewise-constant transfer-matrix product behind every
transmission scan (a loop over cells, batched over energies and over cell
profiles, with the per-cell factors of a block of cells computed in one
vectorized numpy step).
Timings of both are reported by ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "riccati_sweep", "transfer_scan", "transmission_reflection"]

BLOCK = 32  # cells whose wavevectors and factors one vectorized step computes


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
    """Transfer matrix of piecewise-constant cells between two leads at `v_lead`.

    `v_cells` holds one cell profile, shape (n_cells,), or several scanned in
    lockstep, shape (n_cells, n_profiles), each profile broadcast against the
    energies. Amplitudes are tracked in local per-cell coordinates. For each
    block of cells the wavevectors, interface factors and ``exp(+-ikh)`` come
    from one vectorized step; the loop over the block's cells then only
    updates the 2x2 product, which is rescaled once per block.

    Returns ``(m, log_scale)``: ``exp(log_scale) * m`` maps the left lead's
    amplitudes to the right lead's; m has shape
    (2, 2, n_energies[, n_profiles]) and log_scale the shape of m[0, 0].
    ``transmission_reflection`` turns them into (T, R).
    """
    v = np.asarray(v_cells, dtype=np.float64)
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    h, c, v_lead = float(h), float(c), float(v_lead)
    out_shape = energies.shape + v.shape[1:]
    v = v.reshape(v.shape[0], -1)
    k_lead = np.repeat(np.sqrt((energies - v_lead).astype(np.complex128)) / c, v.shape[1])
    # rows (m11, m12) and (m21, m22); one column per (energy, profile) pair
    m = np.zeros((2, 2, k_lead.size), dtype=np.complex128)
    m[0, 0] = m[1, 1] = 1.0
    log_scale = np.zeros(k_lead.size)
    k_prev = k_lead
    for start in range(0, v.shape[0], BLOCK):
        cells = v[start : start + BLOCK]
        k = np.sqrt((energies[None, :, None] - cells[:, None, :]).astype(np.complex128)) / c
        k = np.where(np.abs(k) < 1e-12, 1e-12 + 0.0j, k).reshape(cells.shape[0], -1)
        ratio = np.concatenate([k_prev[None], k[:-1]]) / k
        ap = 0.5 * (1.0 + ratio)
        am = 0.5 * (1.0 - ratio)
        phase = np.stack([np.exp(1j * k * h), np.exp(-1j * k * h)], axis=1)[:, :, None]
        for i in range(cells.shape[0]):
            m = ap[i] * m + am[i] * m[::-1]
            m *= phase[i]
        # entries grow by at most exp(|Im k| h) (1 + |ratio|) per cell, and the
        # product is invertible, so its largest entry is finite and nonzero
        s = np.abs(m).max(axis=(0, 1))
        m /= s
        log_scale += np.log(s)
        k_prev = k[-1]
    ratio = k_prev / k_lead  # into the right lead: an interface, no propagation
    m = 0.5 * (1.0 + ratio) * m + 0.5 * (1.0 - ratio) * m[::-1]
    return m.reshape((2, 2) + out_shape), log_scale.reshape(out_shape)


def transmission_reflection(m: np.ndarray, log_scale: np.ndarray):
    """(T, R) for a wave incident from the left, from ``transfer_scan``'s output.

    Both leads sit at the same potential, so |det m| exp(2 log_scale) = 1,
    T = 1/|exp(log_scale) m22|^2 and R = |m21/m22|^2.
    """
    denom = np.abs(m[1, 1])
    denom_safe = np.where(denom > 0.0, denom, 1.0)
    log_t = -2.0 * (log_scale + np.log(denom_safe))
    t_out = np.exp(np.clip(log_t, -745.0, 50.0))
    r_out = np.abs(m[1, 0] / denom_safe) ** 2
    t_out = np.where(denom > 0.0, t_out, 0.0)
    r_out = np.where(denom > 0.0, r_out, 1.0)
    return t_out, r_out
