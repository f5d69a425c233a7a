import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from primepot.eigensolver import Spectrum, bound_states, compare_spectrum
from primepot.grid import PotentialGrid, default_grid
from primepot.sequences import first_primes
from primepot.susy import KINETIC_HALF, design_potential

UNIT_KINETIC = 1.0  # -d^2/dx^2, the convention of the textbook oracles

FIG3C_V10 = [1.58, 3.31, 5.40, 7.33, 10.9, 13.2, 16.9, 19.4, 23.2, 29.3]
FIG3C_V15 = [
    1.58, 3.21, 5.00, 7.22, 11.3, 13.2, 16.6, 19.4, 22.9, 28.8,
    31.4, 36.9, 40.6, 43.4, 47.1,
]
PRIMES15 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


DEAD_BAND_FRAC = 1e-8  # samples below this fraction of max |psi| carry no sign


def count_nodes(psi: np.ndarray) -> int:
    """Sign changes of psi, ignoring samples inside the numerical dead band:
    the node oracle for the solver's levels, which by the discrete Sturm
    oscillation theorem have as many nodes as their index."""
    band = DEAD_BAND_FRAC * np.max(np.abs(psi))
    signs = np.sign(psi[np.abs(psi) > band])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def sech2_well(depth, grid):
    return PotentialGrid(grid, -depth / np.cosh(grid.x) ** 2, 0.0)


def _full_matrix_bound_states(potential, kinetic_scale, count=None, dense=False):
    """The whole (2n+1)-point matrix in one eigensolve; reference for the solver.

    By default scipy's ``eigh_tridiagonal`` solves it, with full-precision
    bisection; ``dense`` diagonalizes it as a dense matrix with numpy instead.
    Either way it asserts the node oracle: its k-th vector has k sign changes,
    the count the solver's certified level index stands for.
    """
    c = float(kinetic_scale)
    v = potential.values
    h = potential.grid.spacing
    edge = 0.5 * (float(v[0]) + float(v[-1]))
    inv_h2 = c * c / (h * h)
    diag = v + 2.0 * inv_h2
    diag[[0, -1]] -= inv_h2
    off = np.full(v.size - 1, -inv_h2)
    depth = edge - float(v.min())
    window = (float(v.min()) - 1.0, edge - 1e-3 * depth)
    if count is None and depth <= 0.0:
        eigvals, eigvecs = np.empty(0), np.empty((v.size, 0))
    elif dense:
        eigvals, eigvecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        keep = slice(count) if count is not None else (eigvals > window[0]) & (eigvals <= window[1])
        eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
    elif count is not None:
        eigvals, eigvecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    else:
        eigvals, eigvecs = eigh_tridiagonal(diag, off, select="v", select_range=window)
    eigvecs = eigvecs / np.sqrt(np.sum(eigvecs**2, axis=0) * h)
    eigvals = eigvals + h**3 / (12.0 * c * c) * np.sum(((v[:, None] - eigvals) * eigvecs) ** 2, axis=0)
    assert [count_nodes(eigvecs[:, i]) for i in range(eigvals.size)] == list(range(eigvals.size))
    return Spectrum(eigenvalues=eigvals, continuum_edge=edge)


WELL_SHAPES = {
    "gauss": lambda x: np.exp(-(x**2)),
    "sech2": lambda x: 1.0 / np.cosh(x) ** 2,
}

# (shape, depth, width, offset): two wells -depth/2 * shape((x -+ offset * width) / width),
# one full-depth well at offset 0; they overlap within one width, so no two
# levels are degenerate to roundoff
wells = st.tuples(
    st.sampled_from(sorted(WELL_SHAPES)),
    st.floats(1.0, 15.0),
    st.floats(0.4, 2.0),
    st.floats(0.0, 1.0),
)


@st.composite
def even_potentials(draw):
    grid = default_grid(draw(st.floats(4.0, 8.0)), draw(st.floats(0.01, 0.03)))
    x = grid.x[grid.center_index :]
    right = np.zeros_like(x)
    for shape, depth, width, offset in draw(st.lists(wells, min_size=1, max_size=3)):
        f = WELL_SHAPES[shape]
        right -= 0.5 * depth * (f((x - offset * width) / width) + f((x + offset * width) / width))
    return PotentialGrid.from_even_half(grid, right, asymptote=0.0)


def tilted_double_well(half_width, depth, width, separation, tilt):
    """Two sech^2 wells at +-separation, made uneven by a tilt * x ramp."""
    grid = default_grid(half_width, 0.02)
    x = grid.x
    wells = 1.0 / np.cosh((x - separation) / width) ** 2 + 1.0 / np.cosh((x + separation) / width) ** 2
    return PotentialGrid(grid, tilt * x - depth * wells, 0.0)


# at most 801 points; the lowest pair splits by 1.5e-8 to 0.6, and every level
# leaks enough into the far well that its sign change lies outside the dead band
double_wells = st.builds(
    tilted_double_well,
    half_width=st.floats(6.0, 8.0),
    depth=st.floats(2.0, 12.0),
    width=st.floats(0.3, 1.0),
    separation=st.floats(1.0, 3.0),
    tilt=st.floats(-9.0, -3.0).map(lambda p: 10.0**p),
)


def test_flat_potential_has_no_bound_states():
    grid = default_grid(8.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.zeros(grid.points), asymptote=0.0)
    spec = bound_states(flat, UNIT_KINETIC)
    assert spec.eigenvalues.size == 0


def test_sech_well_analytic_unit_convention():
    # -6/cosh^2 under a unit kinetic term has levels -(2-n)^2
    grid = default_grid(12.0, 0.005)
    well = sech2_well(6.0, grid)
    spec = bound_states(well, UNIT_KINETIC)
    assert np.max(np.abs(spec.eigenvalues - [-4.0, -1.0])) < 1e-3
    ref = _full_matrix_bound_states(well, UNIT_KINETIC)
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9


def test_sech_well_analytic_half_convention():
    # the same well under the calibrated convention: -(3-n)^2/2
    grid = default_grid(12.0, 0.005)
    spec = bound_states(sech2_well(6.0, grid), KINETIC_HALF)
    assert np.max(np.abs(spec.eigenvalues - [-4.5, -2.0, -0.5])) < 1e-3


def test_harmonic_oscillator_unit_convention():
    grid = default_grid(12.0, 0.005)
    pot = PotentialGrid(grid, grid.x**2, grid.x[-1] ** 2)
    spec = bound_states(pot, UNIT_KINETIC)
    assert np.max(np.abs(spec.eigenvalues[:5] - [1.0, 3.0, 5.0, 7.0, 9.0])) < 1e-3


def test_corrected_levels_beyond_second_order():
    # the three-point rule alone is O(h^2) (1.5e-4 and 3.7e-5 here); the
    # first-order correction leaves the error at a ~1e-9 floor
    exact = np.array([-4.0, -1.0])
    for spacing in (0.02, 0.01):
        grid = default_grid(12.0, spacing)
        spec = bound_states(sech2_well(6.0, grid), UNIT_KINETIC)
        assert np.max(np.abs(spec.eigenvalues - exact)) <= 1e-7


def test_box_size_stability():
    values = []
    for half_width in (12.0, 24.0):
        grid = default_grid(half_width, 0.005)
        spec = bound_states(sech2_well(6.0, grid), UNIT_KINETIC)
        values.append(spec.eigenvalues)
    assert np.max(np.abs(values[0] - values[1])) < 1e-6


def test_node_theorem(prime10_potential):
    spec = bound_states(prime10_potential, KINETIC_HALF, count=10)
    ref = _full_matrix_bound_states(prime10_potential, KINETIC_HALF, 10)
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9


@pytest.mark.parametrize("count", [1, 2, 5, 8, None, "beyond"])
@settings(max_examples=20, deadline=None)
@given(potential=even_potentials())
def test_parity_blocks_match_full_matrix(potential, count):
    if count == "beyond":  # more levels than the well binds: box states above the edge
        count = _full_matrix_bound_states(potential, KINETIC_HALF).eigenvalues.size + 3
    ref = _full_matrix_bound_states(potential, KINETIC_HALF, count)
    spec = bound_states(potential, KINETIC_HALF, count)
    assert spec.eigenvalues.shape == ref.eigenvalues.shape
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues), initial=0.0) <= 1e-9


def test_uneven_potential_is_the_full_matrix():
    grid = default_grid(8.0, 0.01)
    tilted = PotentialGrid(grid, 0.05 * grid.x - 10.0 / np.cosh(grid.x - 0.5) ** 2, 0.0)
    assert not tilted.even
    for count in (4, None):
        ref = _full_matrix_bound_states(tilted, KINETIC_HALF, count)
        spec = bound_states(tilted, KINETIC_HALF, count)
        assert spec.eigenvalues.shape == ref.eigenvalues.shape
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(potential=double_wells)
def test_uneven_double_wells_match_dense_eigh(potential):
    assert not potential.even
    for count in (1, 4, None):
        ref = _full_matrix_bound_states(potential, KINETIC_HALF, count, dense=True)
        spec = bound_states(potential, KINETIC_HALF, count)
        assert spec.eigenvalues.shape == ref.eigenvalues.shape
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues), initial=0.0) <= 1e-9


def test_designed_levels_rarely_need_refinement(prime10_potential):
    # the top level's box-state neighbour lies within the coarse bisection's reach
    assert bound_states(prime10_potential, KINETIC_HALF, count=10).refined <= 2  # one per parity block
    # with targets only the top level, at the threshold, is bisected
    spec = bound_states(prime10_potential, KINETIC_HALF, targets=first_primes(10))
    assert spec.refined <= 2
    assert spec.fallbacks == 0


@settings(max_examples=20, deadline=None)
@given(potential=st.one_of(even_potentials(), double_wells), data=st.data())
def test_bracketed_levels_match_the_index_path(potential, data):
    # targets off the levels by up to a tenth of the smallest gap
    bound = bound_states(potential, KINETIC_HALF).eigenvalues.size
    count = data.draw(st.integers(1, max(bound, 1)))
    ref = bound_states(potential, KINETIC_HALF, count)
    gap = np.min(np.diff(ref.eigenvalues), initial=1.0)
    nudge = data.draw(st.lists(st.floats(-0.1, 0.1), min_size=count, max_size=count))
    spec = bound_states(potential, KINETIC_HALF, targets=ref.eigenvalues + gap * np.asarray(nudge))
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9
    oracle = _full_matrix_bound_states(potential, KINETIC_HALF, count)
    assert np.max(np.abs(spec.eigenvalues - oracle.eigenvalues)) <= 1e-9


def test_wrong_targets_fall_back_to_the_index_path(prime10_potential):
    # 3 above each prime is more than half of every gap: each block's first
    # Sturm count reads 2, and both blocks are bracketed by coarse levels
    ref = bound_states(prime10_potential, KINETIC_HALF, count=10)
    spec = bound_states(prime10_potential, KINETIC_HALF, targets=first_primes(10) + 3.0)
    assert spec.fallbacks == 2
    assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
    oracle = _full_matrix_bound_states(prime10_potential, KINETIC_HALF, 10)
    assert np.max(np.abs(spec.eigenvalues - oracle.eigenvalues)) <= 1e-9
    assert ref.fallbacks == 0


@pytest.mark.parametrize(
    "targets, message",
    [
        ([2.0, np.nan, 5.0], "finite"),
        ([2.0, np.inf], "finite"),
        ([2.0, 5.0, 3.0], "ascending"),
        ([2.0, 2.0, 3.0], "ascending"),
        ([[2.0, 3.0]], "ascending"),
    ],
)
def test_targets_must_be_finite_and_ascending(prime10_potential, targets, message):
    with pytest.raises(ValueError, match=message):
        bound_states(prime10_potential, KINETIC_HALF, targets=targets)


def test_targets_imply_the_count(prime10_potential):
    with pytest.raises(ValueError, match="count 9 disagrees with 10 targets"):
        bound_states(prime10_potential, KINETIC_HALF, count=9, targets=first_primes(10))
    both = bound_states(prime10_potential, KINETIC_HALF, count=10, targets=first_primes(10))
    alone = bound_states(prime10_potential, KINETIC_HALF, targets=first_primes(10))
    assert np.array_equal(both.eigenvalues, alone.eigenvalues)


def test_near_degenerate_pair_is_refined():
    # the lowest pair splits by about 2e-7, far inside the coarse bisection's width
    pair = tilted_double_well(8.0, 11.4, 0.39, 2.73, 2.3e-9)
    spec = bound_states(pair, KINETIC_HALF, count=2)
    assert 0.0 < np.diff(spec.eigenvalues)[0] < 1e-6
    assert spec.refined == 2
    ref = _full_matrix_bound_states(pair, KINETIC_HALF, 2, dense=True)
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9


def _singular_shift(dl, d, du, b, **kwargs):
    """dgtsv reporting every sharpening shift singular: each level is re-bisected."""
    return dl, d, du, b, 1


def _stalled_step(dl, d, du, b, **kwargs):
    """dgtsv handing back its right-hand side: inverse iteration from the
    fixed start vector never converges, so each level uses up its steps and
    is re-bisected."""
    return dl, d, du, b, 0


# every level, coarse or bracketed, starts from the same vector and runs the
# same step loop: its unconverged case is inverse iteration that makes no
# progress, its singular one a shift that hits a level
@pytest.mark.parametrize(
    "routine, patch, targets",
    [
        ("dgtsv", lambda dgtsv: _stalled_step, None),
        ("dgtsv", lambda dgtsv: _singular_shift, None),
        ("dgtsv", lambda dgtsv: _stalled_step, first_primes(10)),
        ("dgtsv", lambda dgtsv: _singular_shift, first_primes(10)),
    ],
    ids=["unconverged-vectors", "singular-shift", "unconverged-vectors-bracketed", "singular-shift-bracketed"],
)
def test_fallbacks_rebisect_every_level(monkeypatch, routine, patch, targets):
    from scipy.linalg import lapack

    pot = design_potential(first_primes(10), default_grid(10.0, 0.01))
    plain = bound_states(pot, KINETIC_HALF, count=10)
    ref = _full_matrix_bound_states(pot, KINETIC_HALF, 10, dense=True)
    monkeypatch.setattr(lapack, routine, patch(getattr(lapack, routine)))
    spec = bound_states(pot, KINETIC_HALF, count=10, targets=targets)
    assert spec.refined == 10
    assert spec.fallbacks == 0
    assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9
    assert np.max(np.abs(spec.eigenvalues - plain.eigenvalues)) <= 1e-9


def test_certified_levels_take_no_vector_from_dstein(monkeypatch):
    # dstein only serves re-bisection: a solve whose levels all certify never calls it
    from scipy.linalg import lapack

    def refuse(*args, **kwargs):
        raise AssertionError("dstein called")

    grid = default_grid(8.0, 0.01)
    tilted = PotentialGrid(grid, 0.05 * grid.x - 10.0 / np.cosh(grid.x - 0.5) ** 2, 0.0)
    monkeypatch.setattr(lapack, "dstein", refuse)
    spec = bound_states(tilted, KINETIC_HALF)
    assert spec.refined == 0
    assert spec.eigenvalues.size > 0


def test_three_point_grid_has_a_one_row_block():
    grid = default_grid(1.0, 1.0)
    well = PotentialGrid(grid, -0.01 / np.cosh(grid.x) ** 2, 0.0)
    assert well.even and grid.points == 3
    for count in (1, 3, None):
        ref = _full_matrix_bound_states(well, 3.0, count)
        spec = bound_states(well, 3.0, count)
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues)) <= 1e-9


def test_count_nodes_dead_band():
    psi = np.array([0.0, 1e-12, 1.0, 2.0, -1e-12, -1.0])
    assert count_nodes(psi) == 1


def test_resolution_precondition():
    grid = default_grid(10.0, 0.1)
    pot = PotentialGrid(grid, 50.0 * grid.x**2 - 500.0, 4500.0)
    with pytest.raises(ValueError, match="spacing"):
        bound_states(pot, KINETIC_HALF)


def test_count_must_be_positive(prime10_potential):
    with pytest.raises(ValueError, match="count"):
        bound_states(prime10_potential, KINETIC_HALF, count=0)


def test_compare_spectrum_identity():
    report = compare_spectrum([2.0, 3.0], [2.0, 3.0])
    assert report.rms_frac == 0.0
    assert report.all_round


def test_compare_spectrum_paper_table_v10():
    report = compare_spectrum(FIG3C_V10, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    assert report.all_round
    assert report.rms_frac == pytest.approx(0.08, abs=0.02)


def test_compare_spectrum_paper_table_v15():
    report = compare_spectrum(FIG3C_V15, PRIMES15)
    assert report.all_round
    assert report.rms_frac == pytest.approx(0.06, abs=0.02)


def test_compare_spectrum_length_mismatch():
    with pytest.raises(ValueError):
        compare_spectrum([1.0, 2.0], [1.0])


def test_compare_spectrum_zero_target_uses_absolute_error():
    report = compare_spectrum([0.01, 1.0], [0.0, 1.0])
    assert np.allclose(report.per_level_frac, [0.01, 0.0])
    assert np.isfinite(report.rms_frac)
    assert json.loads(json.dumps(report.as_dict(), allow_nan=False))["rms_frac"] == report.rms_frac
