import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import primepot
from primepot import _kernels
from primepot.grid import default_grid
from primepot.sequences import first_primes
from primepot.susy import KINETIC_HALF, chain_step, gaps_from_spectrum


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


def _lead_basis_scan(v_cells, h, energies, c, v_lead):
    """Complex lead-basis transfer matrices of constant cells, batched over
    energies and profiles; (T, R) from ``|m22|``. Reference for the real
    Magnus kernel on constant cells, where both are exact."""
    v = np.asarray(v_cells, dtype=np.float64)
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    out_shape = energies.shape + v.shape[1:]
    v = v.reshape(v.shape[0], -1)
    k_lead = np.repeat(np.sqrt((energies - v_lead).astype(np.complex128)) / c, v.shape[1])
    m = np.zeros((2, 2, k_lead.size), dtype=np.complex128)
    m[0, 0] = m[1, 1] = 1.0
    log_scale = np.zeros(k_lead.size)
    k_prev = k_lead
    for start in range(0, v.shape[0], _kernels.BLOCK):
        cells = v[start : start + _kernels.BLOCK]
        k = np.sqrt((energies[None, :, None] - cells[:, None, :]).astype(np.complex128)) / c
        k = np.where(np.abs(k) < 1e-12, 1e-12 + 0.0j, k).reshape(cells.shape[0], -1)
        ratio = np.concatenate([k_prev[None], k[:-1]]) / k
        ap = 0.5 * (1.0 + ratio)
        am = 0.5 * (1.0 - ratio)
        phase = np.stack([np.exp(1j * k * h), np.exp(-1j * k * h)], axis=1)[:, :, None]
        for i in range(cells.shape[0]):
            m = ap[i] * m + am[i] * m[::-1]
            m *= phase[i]
        s = np.abs(m).max(axis=(0, 1))
        m /= s
        log_scale += np.log(s)
        k_prev = k[-1]
    ratio = k_prev / k_lead
    m = 0.5 * (1.0 + ratio) * m + 0.5 * (1.0 - ratio) * m[::-1]
    denom = np.abs(m[1, 1])
    t = np.exp(np.clip(-2.0 * (log_scale + np.log(denom)), -745.0, 50.0))
    r = np.abs(m[1, 0] / denom) ** 2
    return t.reshape(out_shape), r.reshape(out_shape)


def _transfer_scan_per_block(v_cells, h, energies, c, v_lead):
    """``transfer_scan`` with one step call and one product tree per
    ``BLOCK`` cells, its carry rule for an odd level, and the same rescale per
    block; reference for the span kernel, which must match it bit for bit."""
    v = np.asarray(v_cells, dtype=np.float64)
    if v.ndim == 1:
        v = np.stack([v, v], axis=1)
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    c2 = c * c
    m = np.zeros((2, 2, energies.size))
    m[0, 0] = m[1, 1] = 1.0
    log_scale = np.zeros(energies.size)
    for start in range(0, v.shape[0], _kernels.BLOCK):
        block = v[start : start + _kernels.BLOCK]
        alpha = ((_kernels.SQRT3_12 * h * h / c2) * (block[:, 0] - block[:, 1]))[:, None]
        h_qbar = (h / c2) * (0.5 * (block[:, 0] + block[:, 1])[:, None] - energies)
        step = _kernels.magnus_step(alpha, h_qbar, h, np.empty((2, 2, block.shape[0], energies.size)))
        while step.shape[2] > 1:
            pairs = step.shape[2] // 2
            product = _kernels._product(step[:, :, 1 : 2 * pairs : 2], step[:, :, 0 : 2 * pairs : 2])
            step = np.concatenate([product, step[:, :, 2 * pairs :]], axis=2) if step.shape[2] % 2 else product
        m = _kernels._product(step[:, :, 0], m)
        s = np.abs(m).max(axis=(0, 1))
        m /= s
        log_scale += np.log(s)
    k = np.sqrt(energies - v_lead) / c
    m[0, 1] *= k
    m[1, 0] /= k
    return m, log_scale


def _span(n_energies):
    """Cells per step call of ``transfer_scan`` for a batch of `n_energies`."""
    b = _kernels.BLOCK
    return b * max(1, _kernels.WORK // (b * max(1, n_energies)))


def _edge_counts(span):
    """Cell counts on both sides of the block and span edges."""
    b = _kernels.BLOCK
    return sorted({1, b - 1, b, b + 1, span - 1, span, span + 1, 3 * span + 5})


def _magnus_oracle(gauss_cells, h, energy, c, v_lead):
    """One energy, cell by cell: ``expm`` of the Magnus exponent, then (T, R)
    from the (psi, psi') matrix and the lead wavenumber."""
    m = np.eye(2)
    for v1, v2 in gauss_cells:
        q1, q2 = (v1 - energy) / c**2, (v2 - energy) / c**2
        alpha = math.sqrt(3.0) * h * h * (q1 - q2) / 12.0
        m = expm(np.array([[alpha, h], [h * 0.5 * (q1 + q2), -alpha]])) @ m
    k = math.sqrt(energy - v_lead) / c
    denom = (m[0, 0] + m[1, 1]) ** 2 + (k * m[0, 1] - m[1, 0] / k) ** 2
    return 4.0 / denom, ((m[0, 0] - m[1, 1]) ** 2 + (k * m[0, 1] + m[1, 0] / k) ** 2) / denom


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
    t_lead, _ = _lead_basis_scan(cells, 0.004, energies, KINETIC_HALF, 0.0)
    assert np.max(np.abs(t_np - t_lead)) <= 1e-12


def test_transfer_unitarity_deep_tunneling():
    cells = np.full(4000, 60.0)
    energies = np.array([0.5, 1.0, 5.0, 20.0, 59.0, 61.0, 200.0])
    t, r = _scan_tr(cells, 0.005, energies, KINETIC_HALF, 0.0)
    assert np.all(t >= 0.0)
    assert np.max(np.abs(t + r - 1.0)) < 1e-8
    t_lead, _ = _lead_basis_scan(cells, 0.005, energies, KINETIC_HALF, 0.0)
    assert np.max(np.abs(t - t_lead)) <= 1e-12


def test_blocked_scan_matches_oracle_at_block_edges():
    rng = np.random.default_rng(5)
    energies = np.linspace(0.5, 30.0, 37)
    for n_cells in _edge_counts(_span(energies.size)):
        # a barrier-and-well profile with steps, so every block holds interfaces
        cells = np.where(rng.random(n_cells) < 0.5, 12.0, 2.0) * rng.uniform(0.5, 1.5, n_cells)
        t, r = _scan_tr(cells, 0.01, energies, KINETIC_HALF, 0.0)
        t_ref, r_ref = _transfer_scan_oracle(cells, 0.01, energies, KINETIC_HALF, 0.0)
        assert np.allclose(t, t_ref, atol=1e-10), n_cells
        assert np.allclose(r, r_ref, atol=1e-10), n_cells
        t_lead, _ = _lead_basis_scan(cells, 0.01, energies, KINETIC_HALF, 0.0)
        assert np.max(np.abs(t - t_lead)) <= 1e-12, n_cells


def test_span_scan_matches_per_block_kernel_bitwise():
    # one step call per span of whole blocks multiplies and rescales in the
    # per-block order, so nothing may differ, not even in the last bit
    rng = np.random.default_rng(11)
    for n_energies in (1, 2, 34, 241):
        energies = np.sort(rng.uniform(0.5, 60.0, n_energies))
        for n_cells in _edge_counts(_span(n_energies)):
            for cells in (rng.uniform(0.0, 40.0, n_cells), rng.uniform(0.0, 40.0, (n_cells, 2))):
                for h in (0.005, 0.05):
                    m, log_scale = _kernels.transfer_scan(cells, h, energies, KINETIC_HALF, 0.0)
                    m_ref, log_ref = _transfer_scan_per_block(cells, h, energies, KINETIC_HALF, 0.0)
                    key = (n_energies, n_cells, cells.ndim, h)
                    assert np.array_equal(m, m_ref) and np.array_equal(log_scale, log_ref), key


def test_scan_is_independent_of_its_batch():
    # an energy's result is the same bits whichever batch scans it, so a
    # verdict's energies agree exactly with a dense scan's
    rng = np.random.default_rng(17)
    energies = np.sort(rng.uniform(0.5, 60.0, 41))
    for n_cells in (_span(1) + 7, _span(energies.size) + 7, 3 * _kernels.BLOCK + 5):
        cells = rng.uniform(0.0, 40.0, (n_cells, 2))
        m, log_scale = _kernels.transfer_scan(cells, 0.01, energies, KINETIC_HALF, 0.0)
        for j, energy in enumerate(energies):
            m_one, log_one = _kernels.transfer_scan(cells, 0.01, energies[j : j + 1], KINETIC_HALF, 0.0)
            assert np.array_equal(m_one[:, :, 0], m[:, :, j]) and log_one[0] == log_scale[j], (n_cells, energy)
        m_part, log_part = _kernels.transfer_scan(cells, 0.01, energies[::3], KINETIC_HALF, 0.0)
        assert np.array_equal(m_part, m[:, :, ::3]) and np.array_equal(log_part, log_scale[::3]), n_cells


def test_scan_step_calls_cover_spans_of_whole_blocks(monkeypatch):
    # each step call computes the (BLOCK, n_blocks) tree slots of one span's
    # whole blocks, at most about WORK cell-energies, so its temporaries stay
    # small at any batch; an empty batch still scans
    calls = []

    def recording_step(alpha, h_qbar, h, out):
        calls.append(out.shape[2:])
        return magnus_step(alpha, h_qbar, h, out)

    magnus_step = _kernels.magnus_step
    monkeypatch.setattr(_kernels, "magnus_step", recording_step)
    b, work = _kernels.BLOCK, _kernels.WORK
    cells = np.linspace(0.0, 20.0, 1000)
    for n_energies in (0, 1, 34, 241, 2000):
        calls.clear()
        m, log_scale = _kernels.transfer_scan(cells, 0.01, np.linspace(1.0, 30.0, n_energies), KINETIC_HALF, 0.0)
        assert m.shape == (2, 2, n_energies) and log_scale.shape == (n_energies,)
        span = _span(n_energies)
        spans = [min(span, cells.size - start) for start in range(0, cells.size, span)]
        assert calls == [(b, -(-n_cells // b), n_energies) for n_cells in spans]
        assert span % b == 0 and span * n_energies <= max(work, b * n_energies)
        assert all(math.prod(call) <= max(work, b * n_energies) for call in calls)


def test_scans_and_sweeps_do_not_depend_on_work(monkeypatch):
    # WORK sets only how many blocks one step call computes and which
    # workspaces are kept, so at any WORK each scan and sweep gives the same
    # bytes, at cell counts on both sides of each WORK's block and span edges;
    # the filter's search relies on it to skip energies it evaluated before
    b = _kernels.BLOCK
    works = (b * 34, 8192, 16384, 65536)
    rng = np.random.default_rng(31)
    energies = np.sort(rng.uniform(0.5, 60.0, 34))
    counts = sorted({n for work in works for n in _edge_counts(b * max(1, work // (b * energies.size)))})
    profiles = [rng.uniform(0.0, 40.0, (n, 2)) for n in counts]
    nodes = (4, 5, b, b + 1, b + 2, 2 * b + 1, 2401)
    qs = [q for n in nodes for q in (3.0 + 2.0 * np.cos(0.025 * np.arange(n)), rng.uniform(-400.0, 100.0, n))]

    def outputs():
        scans = [_kernels.transfer_scan(cells, 0.01, energies, KINETIC_HALF) for cells in profiles]
        sweeps = [_kernels.riccati_sweep(q, 0.005, KINETIC_HALF) for q in qs]
        return [m.tobytes() + log.tobytes() for m, log in scans] + [(w.tobytes(), status) for w, status in sweeps]

    expected = outputs()
    for work in works:
        monkeypatch.setattr(_kernels, "WORK", work)
        assert outputs() == expected, work


def test_threads_scan_in_workspaces_of_their_own():
    # scans of one shape share a kept workspace only within a thread, so
    # threads scanning at once cannot write into each other's buffers
    rng = np.random.default_rng(29)
    energies = np.linspace(1.0, 30.0, 34)
    # 1500 cells span several step calls, each carrying the product across
    profiles = [rng.uniform(0.0, 40.0, (n, 2)) for n in (100, 300, 500, 700, 1500)]
    expected = [b"".join(a.tobytes() for a in _kernels.transfer_scan(p, 0.01, energies, KINETIC_HALF)) for p in profiles]
    wrong = []

    def scan(i):
        for _ in range(20):
            result = _kernels.transfer_scan(profiles[i], 0.01, energies, KINETIC_HALF)
            if b"".join(a.tobytes() for a in result) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(profiles))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_gauss_cells_match_expm_product():
    # unequal Gauss samples on both sides of E, across block edges, with a
    # raised lead: the closed-form exponential against scipy's expm
    rng = np.random.default_rng(3)
    b = _kernels.BLOCK
    cells = np.where(rng.random((b + 3, 2)) < 0.5, 14.0, 3.0) * rng.uniform(0.5, 1.5, (b + 3, 2))
    energies = np.array([2.5, 6.0, 9.7, 21.0])
    for h in (0.01, 0.2, 1.0):  # 1.0: steps through d = pi and beyond
        t, r = _scan_tr(cells, h, energies, KINETIC_HALF, 2.0)
        for j, energy in enumerate(energies):
            t_ref, r_ref = _magnus_oracle(cells, h, energy, KINETIC_HALF, 2.0)
            assert abs(t[j] - t_ref) <= 1e-10 and abs(r[j] - r_ref) <= 1e-10, (h, energy)


def test_gauss_cells_converge_at_fourth_order():
    # U0/cosh^2(x) has a closed-form T; Gauss samples converge like h^4,
    # node-midpoint constant cells like h^2
    u0, c = 3.0, KINETIC_HALF
    energies = np.array([1.0, 2.5, 4.0])
    s = math.sqrt(4.0 * u0 / c**2 - 1.0)
    kh = np.sinh(math.pi * np.sqrt(energies) / c) ** 2
    exact = kh / (kh + math.cosh(0.5 * math.pi * s) ** 2)
    gauss = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
    errors = {}
    for h in (0.1, 0.05):
        left = -20.0 + h * np.arange(int(round(40.0 / h)))
        for name, x in (("gauss", left[:, None] + h * gauss), ("midpoint", left + 0.5 * h)):
            t, _ = _scan_tr(u0 / np.cosh(x) ** 2, h, energies, c, 0.0)
            errors[name, h] = np.max(np.abs(t - exact))
    assert errors["gauss", 0.05] < 1e-6  # 1.5e-7; node midpoints: 2.1e-4
    assert errors["gauss", 0.1] / errors["gauss", 0.05] > 12.0
    assert 3.0 < errors["midpoint", 0.1] / errors["midpoint", 0.05] < 5.0


def test_mirror_resonance_matches_full_profile_scan(monkeypatch):
    # a random half followed by its mirror image (cells reversed, Gauss
    # samples swapped): 1/(1 + G^2) from the half's scan is the full scan's T.
    # A half of 2720 cells, the span at 6 energies for WORK = 16384, transmits
    # about 1e-463 at 0.3, below the smallest double, so the span edges are
    # placed by a WORK of 8192 (1344 cells, T 1e-229); no result depends on WORK
    monkeypatch.setattr(_kernels, "WORK", 8192)
    rng = np.random.default_rng(13)
    b, h = _kernels.BLOCK, 0.02
    energies = np.array([0.3, 1.0, 4.0, 9.5, 17.0, 40.0])  # T down to 3e-18 at 0.3
    span = _span(energies.size)
    for n_half in (1, b - 1, b + 3, 3 * b + 5, span - 1, span, span + 1):
        half = rng.uniform(0.0, 25.0, (n_half, 2))
        full = np.concatenate([half, half[::-1, ::-1]])
        g = _kernels.mirror_resonance(*_kernels.transfer_scan(half, h, energies, KINETIC_HALF, 0.0))
        assert g.shape == energies.shape
        t = 1.0 / (1.0 + g * g)
        t_full, r_full = _scan_tr(full, h, energies, KINETIC_HALF, 0.0)
        assert np.max(np.abs(t - t_full)) <= 1e-12, n_half
        assert np.max(np.abs(t - t_full) / t_full) <= 1e-9, n_half
        assert np.max(np.abs(g * g * t - r_full)) <= 1e-12, n_half  # R = G^2/(1 + G^2)
    assert t_full.min() < 1e-15


def _rk4_sweep(q, h, c):
    """Scalar RK4 sweep of u'' = q u from u(0)=1, u'(0)=0, q at step midpoints
    from a 4-point cubic stencil; reference for `riccati_sweep`. It
    does not rescale (u, u'), so u must stay below overflow."""
    n = q.shape[0]
    w = np.zeros(n)
    u, v = 1.0, 0.0
    for i in range(n - 1):
        qa, qb = q[i], q[i + 1]
        if i == 0:
            qm = (5.0 * q[0] + 15.0 * q[1] - 5.0 * q[2] + q[3]) / 16.0
        elif i == n - 2:
            qm = (q[n - 4] - 5.0 * q[n - 3] + 15.0 * q[n - 2] + 5.0 * q[n - 1]) / 16.0
        else:
            qm = (-q[i - 1] + 9.0 * q[i] + 9.0 * q[i + 1] - q[i + 2]) / 16.0
        k1u, k1v = v, qa * u
        k2u, k2v = v + 0.5 * h * k1v, qm * (u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, qm * (u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, qb * (u + h * k3u)
        u = u + h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v = v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if u <= 0.0:
            return w, i + 1
        w[i + 1] = -c * v / u
    return w, -1


def _cell_samples_per_cell(values, fractions):
    """Cubic Lagrange weights evaluated for every cell from its own stencil
    position; reference for the hoisted weights."""
    v = np.asarray(values, dtype=np.float64)
    first = np.clip(np.arange(v.size - 1) - 1, 0, v.size - 4)
    x = (np.arange(v.size - 1) - first)[:, None] + np.asarray(fractions, dtype=np.float64)[None, :]
    lagrange = (
        -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0,
        x * (x - 2.0) * (x - 3.0) / 2.0,
        -x * (x - 1.0) * (x - 3.0) / 2.0,
        x * (x - 1.0) * (x - 2.0) / 6.0,
    )
    return sum(w * v[first + j][:, None] for j, w in enumerate(lagrange))


@pytest.mark.parametrize("n", [4, 5, 33, 2401])
def test_cell_samples_match_per_cell_weights_bitwise(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    for fractions in (_kernels.GAUSS_POINTS, rng.uniform(size=3), np.array([0.0, 0.5, 1.0])):
        samples = _kernels.cell_samples(values, fractions)
        expected = _cell_samples_per_cell(values, fractions)
        assert samples.shape == expected.shape and samples.flags.c_contiguous
        assert samples.tobytes() == expected.tobytes()


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
    assert status == _rk4_sweep(q, h, KINETIC_HALF)[1]


def test_riccati_sweep_survives_overflow():
    # u = cosh(sqrt(q) x) reaches about e^894, far past float64's range
    h, q0, c = 0.005, 2000.0, KINETIC_HALF
    q = np.full(4001, q0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, status = _kernels.riccati_sweep(q, h, c)
    assert status == -1
    assert np.all(np.isfinite(w))
    x = h * np.arange(q.size)
    assert np.max(np.abs(w + c * math.sqrt(q0) * np.tanh(math.sqrt(q0) * x))) <= 1e-12


def test_riccati_sweep_matches_rk4_on_prime_chain():
    # every step of the primes:10 chain: both sweeps are fourth order, so
    # their difference shrinks about 16x when the spacing halves
    gaps = gaps_from_spectrum(first_primes(10).astype(float))
    worst = {}
    for h in (0.01, 0.005):
        grid = default_grid(12.0, h)
        current = np.zeros(grid.center_index + 1)
        worst[h] = 0.0
        for gap in gaps:
            q = (current - gap) / KINETIC_HALF**2
            w, status = _kernels.riccati_sweep(q, h, KINETIC_HALF)
            w_ref, status_ref = _rk4_sweep(q, h, KINETIC_HALF)
            assert status == status_ref == -1
            worst[h] = max(worst[h], float(np.max(np.abs(w - w_ref))))
            _, current = chain_step(current, float(gap), grid.spacing)
    assert worst[0.005] <= 1e-7
    assert worst[0.01] / worst[0.005] >= 12.0


@pytest.mark.parametrize(
    "n, first_node",
    [(n, None) for n in (5, 32, 33, 34, 65, 97, 200)]
    + [(5, 2), (34, 20), (34, 32), (65, 31), (65, 32), (97, 50), (200, 100), (200, 196)],
)
def test_riccati_sweep_matches_rk4_at_block_edges(n, first_node):
    # node counts on both sides of the BLOCK = 32-cell edges, 200 being six
    # blocks and a partial one, with u's first node in the first, a middle or
    # the last partial block, or nowhere; RK4 steps 32x finer, so its own
    # error stays far below the tolerance even where u has few nodes per wave
    h, c, refine = 0.01, KINETIC_HALF, 32
    if first_node is None:
        q = lambda x: 3.0 + 2.0 * np.cos(5.0 * x)  # q > 0: u never crosses zero
    else:
        # u = cos(k x) crosses zero halfway across the cell after first_node
        k = math.pi / (2.0 * h * (first_node + 0.5))
        q = lambda x: np.full_like(x, -k * k)
    w, status = _kernels.riccati_sweep(q(h * np.arange(n)), h, c)
    w_ref, status_ref = _rk4_sweep(q(h / refine * np.arange(refine * (n - 1) + 1)), h / refine, c)
    expected = -1 if first_node is None else first_node + 1
    assert status == expected
    assert (status_ref if status_ref < 0 else -(-status_ref // refine)) == expected
    w_ref = w_ref[::refine]
    assert np.all(np.abs(w - w_ref) <= 1e-7 * np.maximum(1.0, np.abs(w_ref)))


def test_riccati_sweep_matches_fresh_buffers_bitwise(fresh_buffers):
    # the kept workspace serves sweeps of every length in turn (5 and 33
    # nodes share one of 32 cells), so each sweep, and the same sweep again,
    # must compute what it does in buffers that held nothing of another
    rng = np.random.default_rng(23)
    h, c = 0.005, KINETIC_HALF
    for n in (5, 33, 2401, 4801, 5):
        for q in (3.0 + 2.0 * np.cos(5.0 * h * np.arange(n)), rng.uniform(-400.0, 100.0, n)):
            w_ref, status_ref = fresh_buffers(_kernels.riccati_sweep, q, h, c)
            for _ in range(2):
                w, status = _kernels.riccati_sweep(q, h, c)
                assert w.tobytes() == w_ref.tobytes() and status == status_ref, n


# each is imported inside the one function that runs it, so the CLI import,
# a filter verdict and `pi` load none of them
LAZY_SCIPY = ("scipy.linalg", "scipy.optimize", "scipy.interpolate", "scipy.special", "scipy.constants")


def _fresh_process(code):
    """stdout lines of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(primepot.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.split("\n")


def test_cli_import_graph_is_numpy_only():
    code = (
        "import sys, primepot.cli, primepot; "
        f"print(sorted(m for m in ('numba', 'scipy.signal') + {LAZY_SCIPY!r} if m in sys.modules)); "
        "print(primepot.backend_name())"
    )
    assert _fresh_process(code)[:2] == ["[]", "numpy"]


def test_filter_verdict_loads_no_scipy_submodule():
    code = (
        "import sys; "
        "from primepot.scattering import build_filter_apparatus, filter_lucky_prime; "
        "from primepot.cli import main; "
        "print(filter_lucky_prime(7, build_filter_apparatus()).is_lucky_prime); "
        "main(['pi', '--x', '1000']); "
        f"print(sorted(m for m in {LAZY_SCIPY!r} if m in sys.modules))"
    )
    lines = _fresh_process(code)
    assert lines[0] == "True"
    assert '  "exact": 168,' in lines  # pi ran
    assert lines[-2] == "[]"
