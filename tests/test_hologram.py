import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepot import hologram
from primepot.eigensolver import bound_states
from primepot.grid import Grid, PotentialGrid
from primepot.hologram import (
    cost_and_gradient,
    extract_profile,
    make_state,
    optimize_phase,
    potential_to_target,
    propagate,
    read_intensity_csv,
    sr_intensity_error,
    write_intensity_csv,
)
from primepot.sequences import first_primes
from primepot.susy import KINETIC_HALF

from test_eigensolver import _full_matrix_bound_states


@pytest.fixture(scope="module")
def v10_target(prime10_potential):
    amp, tmap = potential_to_target(prime10_potential)
    return amp, tmap


def random_state(m=16, sr=20, seed=3):
    rng = np.random.default_rng(0)
    amp = rng.uniform(0.2, 1.0, sr)
    amp /= np.sqrt(np.sum(amp**2))
    return make_state(m, amp, seed=seed)


def uniform_beam(m):
    """The unit-power uniform beam that lights the modulator, 1/m per pixel."""
    return np.full((m, m), 1.0 / m)


def seeded_plane(m, seed):
    """The random phase plane whose column sums `make_state` keeps."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(m, m))


def plane_sums(phase):
    """Column sums of the modulated beam, the only part of a plane the SR row sees."""
    return (uniform_beam(len(phase)) * np.exp(1j * phase)).sum(axis=0)


def reference_plane(phase):
    """Output plane of the modulated beam zero-padded to 2m x 2m, by 2D FFT."""
    m = len(phase)
    padded = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    lo = m // 2
    padded[lo : lo + m, lo : lo + m] = uniform_beam(m) * np.exp(1j * phase)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(padded), norm="ortho"))


def reference_cost_and_gradient(phase, state):
    """Cost and adjoint phase gradient on the full 2D plane, SR on row m."""
    m, w = state.m, state.target_row
    cols = slice(m - w.size // 2, m - w.size // 2 + w.size)
    f_sr = reference_plane(phase)[m, cols]
    amp = np.abs(f_sr)
    power = np.sum(amp**2)
    overlap = np.sum(w * amp) / np.sqrt(power)
    adj = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    adj[m, cols] = f_sr * (w / (amp * np.sqrt(power)) - overlap / power)
    back = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(adj), norm="ortho"))
    lo = m // 2
    d_overlap = np.imag(np.exp(-1j * phase) * uniform_beam(m) * back[lo : lo + m, lo : lo + m])
    steep = hologram.STEEPNESS
    return steep * (1.0 - overlap) ** 2, -2.0 * steep * (1.0 - overlap) * d_overlap


def shifted_cost_and_gradient(state, sums):
    """Cost and column-sum gradient with the row built by fftshift/ifftshift
    rolls of the full length-2m vectors."""
    m, w = state.m, state.target_row
    padded = np.zeros(2 * m, dtype=np.complex128)
    padded[m // 2 : m // 2 + m] = sums
    row = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(padded))) / (2 * m)
    sr = state.sr_columns
    f_sr = row[sr]
    power_sr = float(np.sum(np.abs(f_sr) ** 2))
    amp = np.abs(f_sr)
    sqrt_p = np.sqrt(power_sr)
    overlap = float(np.sum(w * amp) / sqrt_p)
    amp_safe = np.where(amp > 0.0, amp, 1.0)
    adj = np.zeros_like(row)
    adj[sr] = f_sr * (w / (amp_safe * sqrt_p) - overlap / power_sr)
    back = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(adj)))
    steep = hologram.STEEPNESS
    return steep * (1.0 - overlap) ** 2, -2.0 * steep * (1.0 - overlap) * back[m // 2 : m // 2 + m]


@st.composite
def row_cases(draw):
    m = draw(st.integers(8, 256))
    sr = draw(st.integers(4, 2 * m - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 1.0, sr)
    return seeded_plane(m, seed), make_state(m, amp / np.sqrt(np.sum(amp**2)), seed=seed)


@settings(max_examples=60, deadline=None)
@given(row_cases())
def test_row_path_matches_2d_reference(case):
    phase, state = case
    m, sr = state.m, state.target_row.size
    assert np.array_equal(state.sums, plane_sums(phase))
    row = propagate(state)
    ref_row = reference_plane(phase)[m, m - sr // 2 : m - sr // 2 + sr]
    assert np.max(np.abs(row - ref_row)) <= 1e-12 * np.max(np.abs(ref_row))
    cost, grad = cost_and_gradient(state)
    ref_cost, ref_grad = reference_cost_and_gradient(phase, state)
    assert cost == pytest.approx(ref_cost, rel=1e-12)
    # the chain rule from the column sums to the phases: ds_j/dphi_ij = i exp(i phi_ij)/m
    phase_grad = np.imag(np.conj(np.exp(1j * phase) / m) * grad)
    assert np.max(np.abs(phase_grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("m", [31, 32, 64, 256])
def test_row_without_shifts_is_bitwise_the_shifted_row(m):
    # the sums go straight to their rolled positions and the SR is read
    # through the matching index: the same FFT input, the same bits
    for sr_len in (4, 37, min(100, 2 * m - 1)):
        rng = np.random.default_rng(m + sr_len)
        amp = rng.uniform(0.2, 1.0, sr_len)
        state = make_state(m, amp / np.sqrt(np.sum(amp**2)), seed=sr_len)
        cost, grad = cost_and_gradient(state)
        ref_cost, ref_grad = shifted_cost_and_gradient(state, state.sums)
        assert cost == ref_cost
        assert np.array_equal(grad, ref_grad)


def test_target_normalized_and_inverted(prime10_potential):
    amp, tmap = potential_to_target(prime10_potential)
    assert tmap.sr_length == 100  # the floor: the Nyquist rule asks for 97
    assert np.sum(amp**2) == pytest.approx(1.0)
    # lowest potential point maps to the brightest pixel
    x_sr = np.linspace(-tmap.span, tmap.span, 100)
    v_sr = np.interp(x_sr, prime10_potential.x, prime10_potential.values)
    assert np.argmax(amp) == np.argmin(v_sr)


def test_constant_potential_uniform_target():
    from primepot.grid import PotentialGrid, default_grid

    grid = default_grid(4.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.full(grid.points, 2.0), asymptote=2.0)
    amp, _ = potential_to_target(flat)
    assert np.max(np.abs(amp - amp[0])) < 1e-12


def test_files_from_numpy_scalars_read_back(tmp_path):
    # numpy scalars entering Grid, PotentialGrid and potential_to_target are
    # kept as Python scalars, so the metadata written by repr parses again
    grid = Grid(half_width=np.float64(4.0), points=np.int64(801))
    values = 2.0 - 1.5 / np.cosh(grid.x) ** 2
    pot = PotentialGrid(grid, values, asymptote=values[-1])
    pot.write_csv(tmp_path / "pot.csv")
    back = PotentialGrid.read_csv(tmp_path / "pot.csv")
    assert (back.asymptote, back.grid.points) == (pot.asymptote, 801)
    assert np.array_equal(back.values, values)
    amp, tmap = potential_to_target(pot)
    write_intensity_csv(tmp_path / "intensity.csv", amp**2, tmap)
    intensity, tmap_back = read_intensity_csv(tmp_path / "intensity.csv")
    assert tmap_back == tmap
    assert np.array_equal(intensity, amp**2)


def test_parseval_power_conservation():
    # the reference plane carries the beam power; the SR row holds part of it
    phase = seeded_plane(16, seed=3)
    state = replace(random_state(), sums=plane_sums(phase))
    beam_power = np.sum(uniform_beam(16) ** 2)
    assert np.sum(np.abs(reference_plane(phase)) ** 2) == pytest.approx(beam_power, rel=1e-10)
    assert np.sum(np.abs(propagate(state)) ** 2) < beam_power


def test_zero_phase_uniform_beam_is_aperture_transform():
    state = random_state()
    state = replace(state, sums=plane_sums(np.zeros((state.m, state.m))))
    field = propagate(state)
    # central pixel dominates the sinc-like pattern of the square aperture,
    # with the closed-form peak value m^2 * (1/m) / (2m) = 1/2
    center = state.target_row.size // 2
    assert np.argmax(np.abs(field)) == center
    assert np.abs(field[center]) == pytest.approx(0.5)


def test_zero_signal_power_rejected(monkeypatch):
    state = random_state()
    monkeypatch.setattr(hologram, "_output_row", lambda modulated: np.zeros(2 * state.m, dtype=np.complex128))
    with pytest.raises(ValueError, match="signal region"):
        cost_and_gradient(state)


def test_linear_ramp_translates_output():
    state = random_state()
    m = state.m
    flat = replace(state, sums=plane_sums(np.zeros((m, m))))
    base = np.abs(propagate(flat)) ** 2
    jj = np.arange(m)
    shift = 3
    ramp = replace(state, sums=plane_sums(np.tile(2.0 * np.pi * shift * jj / (2 * m), (m, 1))))
    moved = np.abs(propagate(ramp)) ** 2
    assert np.allclose(base[:-shift], moved[shift:], atol=1e-12)


def test_column_sum_gradient_against_finite_differences():
    state = random_state(m=16, sr=20)
    sums = state.sums
    _, grad = cost_and_gradient(state)
    eps = 1e-6
    worst = 0.0
    for j in range(state.m):
        for step, part in ((eps, grad[j].real), (1j * eps, grad[j].imag)):
            up = sums.copy()
            up[j] += step
            down = sums.copy()
            down[j] -= step
            fd = (cost_and_gradient(state, up)[0] - cost_and_gradient(state, down)[0]) / (2 * eps)
            worst = max(worst, abs(fd - part) / max(abs(fd), 1e-300))
    assert worst < 1e-5


@pytest.mark.parametrize("m", [1, 2, 3, 63, 64])
def test_double_phase_realizes_column_sums(m):
    rng = np.random.default_rng(m)
    sums = rng.normal(size=m) + 1j * rng.normal(size=m)
    rows = hologram._double_phase(sums)
    assert rows.shape == (2 + m % 2, m)
    phase = rows[hologram.plane_row_index(m)]
    realized = (np.exp(1j * phase) / m).sum(axis=0)
    assert np.max(np.abs(realized - sums / np.max(np.abs(sums)))) <= 1e-12
    assert np.all((rows >= 0.0) & (rows < 2.0 * np.pi))


def test_state_holds_no_plane():
    # an m x m complex plane at m = 2048 is 64 MiB; the sums and the 2m-real
    # optimizer state are a few hundred KiB
    m, amp = 2048, np.full(100, 0.1)
    optimize_phase(make_state(64, amp, seed=1), 1)  # import scipy.optimize outside the trace
    tracemalloc.start()
    try:
        state = make_state(m, amp, seed=1)
        start_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        optimize_phase(state, 1)
        optimize_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start_peak < 8 * 2**20
    assert optimize_peak < 8 * 2**20


def test_odd_m_synthesis_round_trip(v10_target):
    amp, tmap = v10_target
    state = make_state(63, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=500)
    assert np.all(np.diff(result.history) <= 0.0)
    # 1 - overlap cancels to about 1e-16 absolute, so near cost 1e-5 at d = 9
    # the realized plane's cost agrees only to about 1e-9 relative
    plane = result.rows[hologram.plane_row_index(63)]
    assert reference_cost_and_gradient(plane, result.state)[0] == pytest.approx(result.history[-1], rel=1e-6)
    field = propagate(result.state)
    assert sr_intensity_error(field, result.state) <= 0.05
    spec = bound_states(extract_profile(field, result.state), KINETIC_HALF, count=10)
    assert np.array_equal(np.rint(spec.eigenvalues).astype(int), first_primes(10))


def test_perfect_match_costs_nothing():
    # target := the normalized SR amplitude of the current phase configuration
    state = random_state(m=16, sr=20)
    sr_amp = np.abs(propagate(state))
    matched = replace(state, target_row=sr_amp / np.sqrt(np.sum(sr_amp**2)))
    cost, _ = cost_and_gradient(matched)
    assert cost < 1e-9 * hologram.STEEPNESS
    result = optimize_phase(matched, max_iters=5)
    assert result.history.size <= 2


def test_line_search_failure_flagged(monkeypatch):
    # a gradient pointing uphill leaves no step that lowers the cost:
    # L-BFGS-B ends with status 2 ("ABNORMAL") at the start point
    state = random_state(m=16, sr=20)

    def uphill(s, sums=None):
        cost, grad = cost_and_gradient(s, sums)
        return cost, -grad

    monkeypatch.setattr(hologram, "cost_and_gradient", uphill)
    result = optimize_phase(state, max_iters=50)
    assert result.line_search_failed
    assert result.history.size == 1


def test_seeded_history_reproducible(v10_target):
    amp, tmap = v10_target
    short = amp[:40] / np.sqrt(np.sum(amp[:40] ** 2))
    runs = []
    for _ in range(2):
        state = make_state(32, short, seed=11)
        result = optimize_phase(state, max_iters=40)
        runs.append(result.history)
    assert np.array_equal(runs[0], runs[1])


def test_cost_history_monotone(v10_target):
    amp, tmap = v10_target
    state = make_state(64, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=120)
    assert np.all(np.diff(result.history) <= 0.0)
    assert result.history[0] == cost_and_gradient(state)[0]
    assert cost_and_gradient(result.state)[0] == pytest.approx(result.history[-1], rel=1e-9)
    assert np.all((result.rows >= 0.0) & (result.rows < 2.0 * np.pi))
    assert result.history.size - 1 <= 120
    assert not result.line_search_failed


def test_v10_synthesis_meets_error_budget(v10_target):
    amp, tmap = v10_target
    state = make_state(64, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=500)
    field = propagate(result.state)
    assert sr_intensity_error(field, result.state) <= 0.05


def test_full_holographic_round_trip(prime10_potential, v10_target):
    amp, tmap = v10_target
    state = make_state(64, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=500)
    reconstructed = extract_profile(propagate(result.state), result.state)
    spec = bound_states(reconstructed, KINETIC_HALF, count=10)
    targets = first_primes(10)
    assert spec.eigenvalues.size == 10
    assert np.array_equal(np.rint(spec.eigenvalues).astype(int), targets)


def test_reconstruction_levels_certify_from_brackets(v10_target):
    # the reconstruction is one full-grid block, nearly even: from a symmetric
    # start vector, re-shifted to every Rayleigh quotient, inverse iteration
    # finds even levels and leaves the odd ones uncertified
    amp, tmap = v10_target
    state = make_state(64, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=40)
    reconstructed = extract_profile(propagate(result.state), result.state)
    assert not reconstructed.even
    spec = bound_states(reconstructed, KINETIC_HALF, targets=first_primes(10))
    assert spec.fallbacks == 0
    assert spec.refined == 1  # the top level, at the threshold
    ref = bound_states(reconstructed, KINETIC_HALF, count=10)
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9
    oracle = _full_matrix_bound_states(reconstructed, KINETIC_HALF, 10)
    assert np.max(np.abs(spec.eigenvalues - oracle.eigenvalues)) <= 1e-9


def test_unoptimized_field_fails_extraction(v10_target):
    amp, tmap = v10_target
    state = make_state(64, amp, seed=99, target_map=tmap)
    field = propagate(state)
    assert sr_intensity_error(field, state) > 0.2


def test_uniform_target_extracts_flat_profile():
    from primepot.grid import PotentialGrid, default_grid

    grid = default_grid(4.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.full(grid.points, 2.0), asymptote=2.0)
    amp, tmap = potential_to_target(flat)
    state = make_state(64, amp, seed=5, target_map=tmap)
    result = optimize_phase(state, max_iters=300)
    rec = extract_profile(propagate(result.state), result.state)
    inside = np.abs(rec.x) <= 3.0
    assert np.max(np.abs(rec.values[inside] - 2.0)) < 0.05


def test_sr_utilization_declines_with_length(v10_target):
    # light utilization: power landed per SR pixel falls off as the strip
    # is stretched across more of the output plane (seed-averaged, the
    # optimizer only constrains the intensity shape)
    amp, tmap = v10_target
    per_pixel = []
    for sr_len in (16, 100):
        vals = []
        for seed in (2, 3, 4):
            rung = np.interp(np.linspace(0, 99, sr_len), np.arange(100), amp)
            rung /= np.sqrt(np.sum(rung**2))
            state = make_state(64, rung, seed=seed)
            result = optimize_phase(state, max_iters=80)
            # total power is the unit beam power (Parseval)
            frac = float(np.sum(np.abs(propagate(result.state)) ** 2))
            vals.append(frac / sr_len)
        per_pixel.append(np.mean(vals))
    assert per_pixel[0] > per_pixel[-1]


@pytest.mark.parametrize("start, stop, m", [(0, 10, 5), (3, 8, 7), (16, 48, 32), (31, 94, 63), (0, 128, 64)])
def test_unshifted_is_shared_and_read_only(start, stop, m):
    index = hologram._unshifted(start, stop, m)
    assert np.array_equal(index, (np.arange(start, stop) - m) % (2 * m))
    assert hologram._unshifted(start, stop, m) is index
    with pytest.raises(ValueError):
        index[0] = 0


def test_read_intensity_csv_rejects_non_finite_ceiling(tmp_path, v10_target):
    amp, tmap = v10_target
    path = tmp_path / "intensity.csv"
    write_intensity_csv(path, amp**2, tmap)
    lines = ["# ceiling=inf" if line.startswith("# ceiling=") else line for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: metadata ceiling='inf' is not finite")):
        read_intensity_csv(path)
