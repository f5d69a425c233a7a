import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepot import _kernels, scattering
from primepot._kernels import GAUSS_POINTS, cell_samples
from primepot.grid import PotentialGrid, default_grid
from primepot.scattering import (
    build_filter_apparatus,
    filter_lucky_prime,
    opened_cells,
    transmission,
    transmission_from_cells,
    transmission_scan,
    truncate_potential,
    windowed_max_transmission,
)
from primepot.sequences import first_lucky
from primepot.susy import KINETIC_HALF, design_potential

UNIT_KINETIC = 1.0  # -d^2/dx^2, the convention of the textbook oracles


def barrier_transmission_exact(energies, height, width, c):
    out = np.empty(len(energies))
    for i, e in enumerate(energies):
        g = (height - e) / (c * c)
        if g > 0.0:
            kappa = np.sqrt(g)
            out[i] = 1.0 / (1.0 + height**2 * np.sinh(kappa * width) ** 2 / (4 * e * (height - e)))
        elif g < 0.0:
            k2 = np.sqrt(-g)
            out[i] = 1.0 / (1.0 + height**2 * np.sin(k2 * width) ** 2 / (4 * e * (e - height)))
        else:
            out[i] = 1.0 / (1.0 + height * width**2 / (4 * c * c))
    return out


def test_rectangular_barrier_matches_analytic():
    height, width, h = 8.0, 1.5, 0.002
    cells = np.full(int(round(width / h)), height)
    energies = np.linspace(0.5, 16.0, 100)
    for c in (UNIT_KINETIC, KINETIC_HALF):
        t, r = transmission_from_cells(cells, h, energies, c, 0.0)
        exact = barrier_transmission_exact(energies, height, width, c)
        assert np.max(np.abs(t - exact)) < 1e-6
        assert np.max(np.abs(t + r - 1.0)) < 1e-8


def test_zero_potential_transmits_everything():
    grid = default_grid(4.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.zeros(grid.points), asymptote=0.0)
    scan = transmission_scan(flat, np.linspace(0.5, 20.0, 50))
    assert np.max(np.abs(np.array(scan["T"]) - 1.0)) < 1e-10
    assert scan["resonances"] == []


def test_scan_energies_must_exceed_lead():
    grid = default_grid(4.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.zeros(grid.points), asymptote=0.0)
    with pytest.raises(ValueError, match="exceed the lead"):
        transmission_scan(flat, np.array([-1.0, 2.0]))
    # levels -3, -1 put the rim, and so the leads, at -1: energies in (-1, 0]
    # are above it, and the reflectionless well transmits them
    well = design_potential(np.array([-3.0, -1.0]))
    scan = transmission_scan(well, np.linspace(-0.5, 0.0, 11))
    assert np.max(np.abs(np.array(scan["T"]) - 1.0)) < 1e-6


def test_truncate_rejects_asymptote_at_or_below_lead(prime10_potential):
    # the leads sit at 0, so a well whose rim is not above 0 cannot be opened
    pot = prime10_potential
    for shift in (pot.asymptote, pot.asymptote + 1.0):
        lowered = PotentialGrid(pot.grid, pot.values - shift, pot.asymptote - shift)
        with pytest.raises(ValueError, match="asymptote"):
            truncate_potential(lowered)


def test_truncate_rejects_uneven_potential(prime10_potential):
    values = prime10_potential.values.copy()
    values[0] += 1e-9
    uneven = PotentialGrid(grid=prime10_potential.grid, values=values, asymptote=prime10_potential.asymptote)
    with pytest.raises(ValueError, match="even"):
        truncate_potential(uneven)


def bracketed_roots(resonance, energies):
    """The roots of each column of ``resonance(E)`` between its sign changes
    on `energies`, bisected to roundoff: one array per column."""
    g = resonance(energies)
    roots = []
    for j in range(g.shape[1]):
        i = np.flatnonzero(np.sign(g[:-1, j]) != np.sign(g[1:, j]))
        lo, hi, g_lo = energies[i], energies[i + 1], g[i, j]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            g_mid = resonance(mid)[:, j]
            left = np.sign(g_mid) == np.sign(g_lo)
            lo, hi, g_lo = np.where(left, mid, lo), np.where(left, hi, mid), np.where(left, g_mid, g_lo)
        roots.append(0.5 * (lo + hi))
    return roots


def test_opened_well_resonates_at_bound_levels(lucky10_potential):
    # every level well below the rim shows a resonance within 0.3, on the
    # design grid's cells, and the well transmits fully at each root of G
    opened = truncate_potential(lucky10_potential)
    cells = opened_cells(lucky10_potential)
    assert opened.asymptote == 0.0
    assert len(cells) == opened.grid.points - 1
    rim = opened.max()
    h = opened.grid.spacing

    def resonance(e):
        m, log_scale = _kernels.transfer_scan(cells[: len(cells) // 2], h, e, KINETIC_HALF, 0.0)
        return _kernels.mirror_resonance(m, log_scale)[:, None]

    levels = [v for v in first_lucky(10) if v < rim - 3.0]
    for level in levels:
        peak_t, peak_e = windowed_max_transmission(resonance, level - 0.3, level + 0.3)
        assert peak_t > 0.9
        assert abs(peak_e - level) < 0.3
    (roots,) = bracketed_roots(resonance, np.linspace(0.5, rim - 3.0, 1001))
    assert all(np.min(np.abs(roots - level)) < 0.3 for level in levels)
    g = resonance(roots)
    assert np.max(np.abs(1.0 / (1.0 + g * g) - 1.0)) <= 1e-12
    # one pass over the whole well agrees: 4.4e-12 off at the deepest root
    t, _ = transmission_from_cells(cells, h, roots)
    assert np.max(np.abs(t - 1.0)) <= 1e-10


def test_cell_samples_exact_on_cubics():
    # the 4-point stencil reproduces a cubic anywhere in every cell, ends included
    x = np.linspace(-1.0, 2.0, 31)
    cubic = lambda y: 0.3 * y**3 - y**2 + 2.0 * y - 0.7
    fractions = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    samples = cell_samples(cubic(x), fractions)
    assert samples.shape == (30, 5)
    expected = cubic(x[:-1, None] + (x[1] - x[0]) * fractions)
    assert np.max(np.abs(samples - expected)) < 1e-12


def test_opened_cells_follow_truncated_well(prime10_potential):
    # at the cell ends the samples are the opened node values, except that
    # the wall keeps the cell starting at its end node
    opened = truncate_potential(prime10_potential)
    ends = opened_cells(prime10_potential, fractions=[0.0, 1.0])
    inner = ends[2:-2]
    assert np.array_equal(inner[:, 0], opened.values[2:-3])
    assert np.array_equal(inner[:, 1], opened.values[3:-2])
    assert np.all(ends[[0, -1]] == 0.0)
    assert ends[-2, 0] == opened.values[-3] and ends[-2, 1] > 0.9 * opened.max()
    gauss = opened_cells(prime10_potential)
    assert gauss.shape == (opened.grid.points - 1, 2)
    assert np.max(np.abs(gauss - gauss[::-1, ::-1])) < 1e-12  # the mirror swaps the Gauss points


def test_compose_length_and_padding(filter_apparatus):
    a = filter_apparatus.device_lucky
    b = filter_apparatus.device_prime
    composed = filter_apparatus.composed()
    h = a.grid.spacing
    expected = a.grid.points + b.grid.points + int(round(scattering.COMPOSED_GAP / h)) - 1
    assert composed.grid.points in (expected, expected + 1)
    assert composed.grid.spacing == pytest.approx(h, rel=1e-12)
    # the lucky well, a flat gap at the lead potential 0, the prime well
    assert np.array_equal(composed.values[: a.grid.points], a.values)
    assert np.array_equal(composed.values[-b.grid.points :], b.values)
    n_gap = composed.grid.points - a.grid.points - b.grid.points + 1
    gap = composed.values[a.grid.points - 1 : a.grid.points + n_gap]
    assert np.all(gap == 0.0) and composed.asymptote == 0.0


def test_composite_no_better_than_either_device_off_resonance(filter_apparatus):
    composed = filter_apparatus.composed()
    # energies away from every lucky or prime level
    energies = np.array([4.5, 5.5, 10.4, 16.2, 20.3])
    t_a, _ = transmission(filter_apparatus.device_lucky, energies)
    t_b, _ = transmission(filter_apparatus.device_prime, energies)
    t_g, _ = transmission(composed, energies)
    assert np.all(t_g <= np.minimum(t_a, t_b) + 0.05)


def test_filter_confirms_against_separation(filter_apparatus):
    result = filter_lucky_prime(7, filter_apparatus)
    assert result.is_lucky_prime
    assert abs(result.peak_energy - 7.0) < 0.3
    result = filter_lucky_prime(15, filter_apparatus)
    assert not result.is_lucky_prime


def test_filter_rejects_out_of_window(filter_apparatus):
    with pytest.raises(ValueError):
        filter_lucky_prime(filter_apparatus.w_max + 1, filter_apparatus)


def test_unitarity_through_apparatus(filter_apparatus):
    composed = filter_apparatus.composed()
    energies = np.linspace(0.5, 25.0, 101)
    t, r = transmission(composed, energies)
    assert np.max(np.abs(t + r - 1.0)) < 1e-8


def test_transfer_product_determinant_unit_modulus():
    # independent re-accumulation of the cell product without rescaling:
    # flux conservation shows up as |det M| = 1
    h = 0.01
    cells = np.where(np.abs(np.linspace(-1, 1, 200)) < 0.5, 7.0, 0.0)
    c = KINETIC_HALF
    for energy in (1.3, 5.7, 9.2):
        k_lead = np.sqrt(complex(energy) / (c * c))
        m = np.eye(2, dtype=complex)
        k_prev = k_lead
        for i in range(cells.size + 1):
            k_cur = np.sqrt(complex(energy - cells[i]) / (c * c)) if i < cells.size else k_lead
            ratio = k_prev / k_cur
            s = 0.5 * np.array([[1 + ratio, 1 - ratio], [1 - ratio, 1 + ratio]])
            m = s @ m
            if i < cells.size:
                m = np.diag([np.exp(1j * k_cur * h), np.exp(-1j * k_cur * h)]) @ m
            k_prev = k_cur
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-8
        # and the same product reproduces the kernel's transmission
        t_kernel, _ = transmission_from_cells(cells, h, np.array([energy]), c, 0.0)
        assert abs(1.0 / np.abs(m[1, 1]) ** 2 - t_kernel[0]) < 1e-10


# the filter's peak energies for w = 3, 7, 13 plus a coarse sweep
DEVICE_ENERGIES = np.concatenate([np.linspace(0.5, 25.0, 41), [2.99972102, 6.99658178, 12.99354541]])


def coherent_transmission(matrices, gap_phase):
    """(T, R) of the lucky well, a flat gap and the prime well, coherently.

    ``M = M_prime G M_lucky`` with G the gap: ``[[cos kL, sin kL/k],
    [-k sin kL, cos kL]]`` for a gap of length L in the (psi, psi') basis,
    which is the rotation ``[[cos kL, sin kL], [-sin kL, cos kL]]`` in the
    kernel's (psi, psi'/k) basis. `gap_phase` = kL broadcasts against the
    energies.
    """
    m, log_scale = matrices
    a, b = m[..., 0], m[..., 1]
    cos, sin = np.cos(gap_phase), np.sin(gap_phase)
    g = ((cos, sin), (-sin, cos))
    ga = [[g[i][0] * a[0, j] + g[i][1] * a[1, j] for j in (0, 1)] for i in (0, 1)]
    total = np.array([[b[i, 0] * ga[0][j] + b[i, 1] * ga[1][j] for j in (0, 1)] for i in (0, 1)])
    return _kernels.transmission_reflection(total, log_scale.sum(axis=-1))


def full_well_matrices(apparatus, energies):
    """``transfer_scan``'s ``(m, log_scale)`` of each whole well, from one
    pass over all its cells, the last axis being (lucky, prime)."""
    lead = apparatus.device_lucky.asymptote
    wells = [
        _kernels.transfer_scan(cells, apparatus.spacing, energies, apparatus.kinetic_scale, lead)
        for cells in (apparatus.cells_lucky, apparatus.cells_prime)
    ]
    return tuple(np.stack(parts, axis=-1) for parts in zip(*wells))


def _check_device_composition(apparatus, sep):
    # against one kernel pass over the same cells with a gap of lead cells
    h, lead = apparatus.spacing, apparatus.device_lucky.asymptote
    n_gap = int(round(sep / h))
    cells = np.concatenate([apparatus.cells_lucky, np.full((n_gap, 2), lead), apparatus.cells_prime])
    k = np.sqrt(DEVICE_ENERGIES - lead) / apparatus.kinetic_scale
    matrices = full_well_matrices(apparatus, DEVICE_ENERGIES)
    t, r = coherent_transmission(matrices, k * n_gap * h)
    t_ref, _ = transmission_from_cells(cells, h, DEVICE_ENERGIES, apparatus.kinetic_scale, lead)
    assert np.max(np.abs(t - t_ref)) <= 1e-9
    assert np.max(np.abs(t + r - 1.0)) <= 1e-8


def test_device_composition_matches_one_coherent_pass(filter_apparatus):
    h = filter_apparatus.spacing
    for sep in (0.0, h, 2.0, 4.0, 6.0):
        _check_device_composition(filter_apparatus, sep)


@settings(max_examples=20, deadline=None)
@given(sep=st.floats(0.0, 6.0))
def test_device_composition_matches_at_any_separation(filter_apparatus, sep):
    _check_device_composition(filter_apparatus, sep)


def test_averaged_transmission_is_gap_phase_mean(filter_apparatus):
    matrices = full_well_matrices(filter_apparatus, DEVICE_ENERGIES)
    _, r = _kernels.transmission_reflection(*matrices)
    mixed = r[:, 0] * r[:, 1] <= 0.98  # the phase mean converges like (R_a R_b)^(K/2)
    assert mixed.sum() >= 20
    k_phases = 4096
    phases = np.pi * np.arange(k_phases)[:, None] / k_phases  # 2 phi covers one period
    t_coherent, _ = coherent_transmission(matrices, phases)
    t_mean = t_coherent.mean(axis=0)
    t_avg = filter_apparatus.averaged_transmission(DEVICE_ENERGIES)
    rel = np.abs(t_avg - t_mean)[mixed] / t_mean[mixed]
    assert np.max(rel) <= 1e-10, np.max(rel)


def test_averaged_transmission_stays_in_unit_interval(filter_apparatus):
    # from deep tunnelling in both wells (T near 1e-17) to the top of the
    # filter window, with no overflow, underflow or invalid operation on the way
    with np.errstate(all="raise"):
        t = filter_apparatus.averaged_transmission(np.linspace(1e-6, filter_apparatus.w_max + 0.5, 2001))
    assert t.min() < 1e-17
    assert np.all(np.isfinite(t))
    assert np.all((t >= 0.0) & (t <= 1.0))


def test_filter_scan_budget(filter_apparatus, monkeypatch):
    passes = []
    scan = _kernels.transfer_scan

    def counted(*args, **kwargs):
        passes.append((len(args[0]), args[2].size))
        return scan(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the filter composed a PotentialGrid")

    monkeypatch.setattr(_kernels, "transfer_scan", counted)
    monkeypatch.setattr(scattering.FilterApparatus, "composed", forbidden)
    # each well's left half in its own pass, lucky then prime, on the
    # iterates and their forward-difference partners
    halves = [(406, 2 * scattering.COARSE), (452, 2 * scattering.COARSE)]
    # accepted; rejected with neither well holding a level in the window
    # (peak 2e-4); rejected with only the prime well holding one
    for w in (3, 8, 2):
        passes.clear()
        result = filter_lucky_prime(w, filter_apparatus)
        assert result.is_lucky_prime == (w == 3)
        assert (result.peak_transmission >= 0.5) == (w == 3)
        assert 2 <= len(passes) <= 2 * (scattering.NEWTON_STEPS + 1), w
        assert passes == halves * (len(passes) // 2), w


def test_scans_return_fresh_arrays_bitwise(filter_apparatus, fresh_buffers):
    # scans of one batch share the kept workspace: a scan's result must not
    # be a view into it, nor depend on what an earlier scan left there (the
    # short well fits in a part of one span)
    spacing, c = filter_apparatus.spacing, filter_apparatus.kinetic_scale
    energies = np.linspace(7.5, 8.5, 2 * scattering.COARSE)
    lucky, prime = (cells[: len(cells) // 2] for cells in (filter_apparatus.cells_lucky, filter_apparatus.cells_prime))
    scans = []
    for cells in (lucky, prime, prime[:100], lucky):
        m, log_scale = _kernels.transfer_scan(cells, spacing, energies, c)
        m_ref, log_ref = fresh_buffers(_kernels.transfer_scan, cells, spacing, energies, c)
        assert m.tobytes() == m_ref.tobytes() and log_scale.tobytes() == log_ref.tobytes(), len(cells)
        scans.append((m, log_scale, m_ref, log_ref))
    for m, log_scale, m_ref, log_ref in scans:
        assert m.tobytes() == m_ref.tobytes() and log_scale.tobytes() == log_ref.tobytes()
    lone = _kernels.mirror_resonance(*fresh_buffers(_kernels.transfer_scan, lucky, spacing, energies, c))
    assert filter_apparatus.resonance_functions(energies)[:, 0].tobytes() == lone.tobytes()


def test_warm_verdict_allocates_little(filter_apparatus):
    # the scans compute in the kernels' kept workspace, so a verdict's
    # transient arrays stay far below the ~860 KiB a workspace per scan took
    filter_lucky_prime(8, filter_apparatus)
    tracemalloc.start()
    try:
        filter_lucky_prime(8, filter_apparatus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def _window(w):
    return max(w - scattering.FILTER_WINDOW, 1e-6), w + scattering.FILTER_WINDOW


def _check_peaks_reach_roots(apparatus, ws):
    # wherever either well transmits fully, <T> is 1/(1 + G^2) of the other;
    # the window's reported peak reaches at least that
    grid = np.linspace(1e-6, apparatus.w_max + 0.5, 40 * apparatus.w_max + 1)
    roots = np.concatenate(bracketed_roots(apparatus.resonance_functions, grid))
    t_roots = apparatus.averaged_transmission(roots)
    checked = 0
    for w in ws:
        lo, hi = _window(w)
        inside = (roots >= lo) & (roots <= hi)
        if inside.any():
            peak = filter_lucky_prime(w, apparatus).peak_transmission
            assert peak >= np.max(t_roots[inside]), (w, peak, np.max(t_roots[inside]))
            checked += 1
    return checked


@pytest.mark.parametrize("fixture", ["filter_apparatus", "apparatus_15"])
def test_filter_peaks_reach_every_root_and_dense_scan(fixture, request):
    apparatus = request.getfixturevalue(fixture)
    _check_peaks_reach_roots(apparatus, range(1, apparatus.w_max + 1))
    for w in range(1, apparatus.w_max + 1):
        scanned = apparatus.averaged_transmission(np.linspace(*_window(w), 4001)).max()
        assert filter_lucky_prime(w, apparatus).peak_transmission >= scanned, w


def test_filter_peaks_converge_in_the_cell_width(filter_apparatus, lucky10_potential, prime10_potential):
    # the same designed wells with every cell split in two, Gauss samples
    # from the same cubic: the Magnus step leaves no grid offset to speak of
    halves = np.concatenate([GAUSS_POINTS, 1.0 + GAUSS_POINTS]) / 2.0
    h = filter_apparatus.spacing / 2.0
    split = [opened_cells(pot, fractions=halves).reshape(-1, 2) for pot in (lucky10_potential, prime10_potential)]

    def fine(e):
        scans = [_kernels.transfer_scan(cells[: len(cells) // 2], h, e, KINETIC_HALF, 0.0) for cells in split]
        return np.stack([_kernels.mirror_resonance(*scan) for scan in scans], axis=-1)

    for w in (3, 7, 13):
        coarse = filter_lucky_prime(w, filter_apparatus)
        refined_t, refined_e = windowed_max_transmission(fine, *_window(w))
        assert abs(coarse.peak_energy - refined_e) <= 1e-6, w
        assert abs(coarse.peak_transmission - refined_t) <= 1e-3, w


@pytest.fixture(scope="module")
def apparatus_15():
    return build_filter_apparatus(lucky_count=15, prime_count=15)


def test_filter_15_15_accepts_seven(apparatus_15):
    # both wells' quasi-levels at 7 now fall within their resonance widths
    result = filter_lucky_prime(7, apparatus_15)
    assert result.is_lucky_prime
    assert abs(result.peak_energy - 7.0) < 0.3


def test_filter_15_15_rejects_non_lucky_primes(apparatus_15):
    for w in (5, 9, 11):
        assert not filter_lucky_prime(w, apparatus_15).is_lucky_prime, w


def test_filter_20_20_finds_the_peak_between_two_roots():
    # at w = 13 the two wells' roots sit close enough for <T> = 0.358 between
    # them, in a peak far narrower than a coarse scan's step
    apparatus = build_filter_apparatus(lucky_count=20, prime_count=20)
    assert _check_peaks_reach_roots(apparatus, [13]) == 1
    assert filter_lucky_prime(13, apparatus).peak_transmission > 0.35


@pytest.mark.xfail(strict=True, reason="w = 31's broad near-rim resonance at 31.44 reaches the shared window edge")
def test_filter_12_12_rejects_32():
    apparatus = build_filter_apparatus(lucky_count=12, prime_count=12)
    assert not filter_lucky_prime(32, apparatus).is_lucky_prime
