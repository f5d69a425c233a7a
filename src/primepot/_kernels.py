"""Hot numeric kernels, one numpy/python implementation each.

Two inner loops dominate runtime: the half-line sweep that linearizes each
Riccati step of the potential-construction chain (a scalar RK4 loop over the
nodes), and the piecewise-constant transfer-matrix product behind every
transmission scan (a loop over cells, batched over energies with numpy).
Timings of both are reported by ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "riccati_sweep", "transfer_scan"]


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
    """Transfer-matrix transmission/reflection for piecewise-constant cells.

    Leads on both sides sit at `v_lead`. Amplitudes are tracked in local
    per-cell coordinates; the accumulated 2x2 product, one per energy, is
    renormalized each cell, with the log of the scale factor kept so the
    transmitted amplitude can be recovered without overflow under deep
    barriers.
    """
    v_cells = np.ascontiguousarray(v_cells, dtype=np.float64)
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    h, c, v_lead = float(h), float(c), float(v_lead)
    n_cells = v_cells.shape[0]
    k_lead = np.sqrt((energies - v_lead).astype(np.complex128)) / c
    ones = np.ones_like(k_lead)
    m11, m12 = ones.copy(), np.zeros_like(k_lead)
    m21, m22 = np.zeros_like(k_lead), ones.copy()
    log_scale = np.zeros(energies.shape[0])
    k_prev = k_lead
    for i in range(n_cells + 1):
        if i < n_cells:
            k_cur = np.sqrt((energies - v_cells[i]).astype(np.complex128)) / c
            k_cur = np.where(np.abs(k_cur) < 1e-12, 1e-12 + 0.0j, k_cur)
        else:
            k_cur = k_lead
        ratio = k_prev / k_cur
        ap = 0.5 * (1.0 + ratio)
        am = 0.5 * (1.0 - ratio)
        n11 = ap * m11 + am * m21
        n12 = ap * m12 + am * m22
        n21 = am * m11 + ap * m21
        n22 = am * m12 + ap * m22
        if i < n_cells:
            e_plus = np.exp(1j * k_cur * h)
            e_minus = np.exp(-1j * k_cur * h)
            m11, m12 = e_plus * n11, e_plus * n12
            m21, m22 = e_minus * n21, e_minus * n22
        else:
            m11, m12, m21, m22 = n11, n12, n21, n22
        s = np.maximum.reduce([np.abs(m11), np.abs(m12), np.abs(m21), np.abs(m22)])
        s = np.where(s > 0.0, s, 1.0)
        m11, m12, m21, m22 = m11 / s, m12 / s, m21 / s, m22 / s
        log_scale += np.log(s)
        k_prev = k_cur
    denom = np.abs(m22)
    denom_safe = np.where(denom > 0.0, denom, 1.0)
    log_t = -2.0 * (log_scale + np.log(denom_safe))
    t_out = np.exp(np.clip(log_t, -745.0, 50.0))
    r_out = np.abs(m21 / denom_safe) ** 2
    t_out = np.where(denom > 0.0, t_out, 0.0)
    r_out = np.where(denom > 0.0, r_out, 1.0)
    return t_out, r_out
