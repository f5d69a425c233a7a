import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import primepot
from primepot import _kernels
from primepot.susy import KINETIC_HALF


def _transfer_scan_oracle(v_cells, h, energies, c, v_lead):
    """Scalar per-energy transfer-matrix product; reference for the batched kernel."""
    n_cells = v_cells.shape[0]
    n_e = energies.shape[0]
    t_out = np.zeros(n_e)
    r_out = np.zeros(n_e)
    c2 = c * c
    for j in range(n_e):
        energy = energies[j]
        k_lead = np.sqrt(complex(energy - v_lead, 0.0) / c2)
        m11 = 1.0 + 0.0j
        m12 = 0.0 + 0.0j
        m21 = 0.0 + 0.0j
        m22 = 1.0 + 0.0j
        log_scale = 0.0
        k_prev = k_lead
        for i in range(n_cells + 1):
            if i < n_cells:
                k_cur = np.sqrt(complex(energy - v_cells[i], 0.0) / c2)
            else:
                k_cur = k_lead
            if abs(k_cur) < 1e-12:
                k_cur = 1e-12 + 0.0j
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
                m11 = e_plus * n11
                m12 = e_plus * n12
                m21 = e_minus * n21
                m22 = e_minus * n22
            else:
                m11 = n11
                m12 = n12
                m21 = n21
                m22 = n22
            s = max(abs(m11), abs(m12), abs(m21), abs(m22))
            if s > 0.0:
                m11 /= s
                m12 /= s
                m21 /= s
                m22 /= s
                log_scale += math.log(s)
            k_prev = k_cur
        denom = abs(m22)
        if denom == 0.0:
            t_out[j] = 0.0
            r_out[j] = 1.0
            continue
        log_t = -2.0 * (log_scale + math.log(denom))
        t_out[j] = math.exp(log_t) if log_t > -700.0 else 0.0
        r_out[j] = abs(m21 / m22) ** 2
    return t_out, r_out


def _barrier_cells():
    return np.concatenate([np.zeros(200), np.full(600, 12.0), np.zeros(200)])


def _scan_tr(v_cells, h, energies, c, v_lead):
    return _kernels.transmission_reflection(*_kernels.transfer_scan(v_cells, h, energies, c, v_lead))


def test_transfer_paths_agree():
    cells = _barrier_cells()
    energies = np.linspace(0.5, 30.0, 211)
    t_np, r_np = _scan_tr(cells, 0.004, energies, KINETIC_HALF, 0.0)
    t_ref, r_ref = _transfer_scan_oracle(cells, 0.004, energies, KINETIC_HALF, 0.0)
    assert np.allclose(t_np, t_ref, atol=1e-10)
    assert np.allclose(r_np, r_ref, atol=1e-10)


def test_transfer_unitarity_deep_tunneling():
    cells = np.full(4000, 60.0)
    energies = np.array([0.5, 1.0, 5.0, 20.0, 59.0, 61.0, 200.0])
    t, r = _scan_tr(cells, 0.005, energies, KINETIC_HALF, 0.0)
    assert np.all(t >= 0.0)
    assert np.max(np.abs(t + r - 1.0)) < 1e-8


def test_blocked_scan_matches_oracle_at_block_edges():
    rng = np.random.default_rng(5)
    b = _kernels.BLOCK
    energies = np.linspace(0.5, 30.0, 37)
    for n_cells in (1, b - 1, b, b + 1, 3 * b + 5):
        # a barrier-and-well profile with steps, so every block holds interfaces
        cells = np.where(rng.random(n_cells) < 0.5, 12.0, 2.0) * rng.uniform(0.5, 1.5, n_cells)
        t, r = _scan_tr(cells, 0.01, energies, KINETIC_HALF, 0.0)
        t_ref, r_ref = _transfer_scan_oracle(cells, 0.01, energies, KINETIC_HALF, 0.0)
        assert np.allclose(t, t_ref, atol=1e-10), n_cells
        assert np.allclose(r, r_ref, atol=1e-10), n_cells


def test_profiles_scan_independently():
    rng = np.random.default_rng(9)
    cells = rng.uniform(0.0, 15.0, (3 * _kernels.BLOCK + 5, 2))
    energies = np.linspace(0.5, 20.0, 23)
    m, log_scale = _kernels.transfer_scan(cells, 0.01, energies, KINETIC_HALF, 0.0)
    assert m.shape == (2, 2, 23, 2) and log_scale.shape == (23, 2)
    for j in range(2):
        m_j, log_j = _kernels.transfer_scan(cells[:, j], 0.01, energies, KINETIC_HALF, 0.0)
        assert np.array_equal(m[..., j], m_j)
        assert np.array_equal(log_scale[:, j], log_j)


def test_riccati_sweep_matches_tanh():
    # flat q = const > 0 gives u = cosh, W = -c*sqrt(q)*c*tanh(...)
    h = 0.005
    n = 2001
    c = KINETIC_HALF
    gap = -0.5
    q = np.full(n, -gap / (c * c))
    w, status = _kernels.riccati_sweep(q, h, c)
    assert status == -1
    x = h * np.arange(n)
    alpha = np.sqrt(-gap)
    expected = -alpha * np.tanh(alpha * x / c)
    assert np.max(np.abs(w - expected)) < 1e-10


def test_riccati_sweep_flags_node():
    # q < 0 (gap above the potential floor) makes u oscillate through zero
    h = 0.01
    q = np.full(3001, -4.0)
    w, status = _kernels.riccati_sweep(q, h, KINETIC_HALF)
    assert status > 0


def test_riccati_renormalization_invariance():
    rng = np.random.default_rng(7)
    q = 50.0 + rng.normal(0.0, 1.0, 4001).cumsum() * 0.01
    w_a, _ = _kernels.riccati_sweep(q, 0.005, KINETIC_HALF, renorm_every=64)
    w_b, _ = _kernels.riccati_sweep(q, 0.005, KINETIC_HALF, renorm_every=100000)
    assert np.max(np.abs(w_a - w_b)) < 1e-9


def test_cli_import_graph_is_numpy_only():
    code = (
        "import sys, primepot.cli, primepot; "
        "print(sorted(m for m in ('numba', 'scipy.signal') if m in sys.modules)); "
        "print(primepot.backend_name())"
    )
    src = str(Path(primepot.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "numpy"]
