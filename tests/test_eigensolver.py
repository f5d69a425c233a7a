import json

import numpy as np
import pytest

from primepot.eigensolver import bound_states, compare_spectrum, count_nodes
from primepot.grid import Grid, PotentialGrid, default_grid
from primepot.susy import KINETIC_HALF, KINETIC_UNIT

FIG3C_V10 = [1.58, 3.31, 5.40, 7.33, 10.9, 13.2, 16.9, 19.4, 23.2, 29.3]
FIG3C_V15 = [
    1.58, 3.21, 5.00, 7.22, 11.3, 13.2, 16.6, 19.4, 22.9, 28.8,
    31.4, 36.9, 40.6, 43.4, 47.1,
]
PRIMES15 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def sech2_well(depth, grid):
    return PotentialGrid.from_callable(grid, lambda x: -depth / np.cosh(x) ** 2, asymptote=0.0)


def test_flat_potential_has_no_bound_states():
    grid = default_grid(8.0, 0.01)
    flat = PotentialGrid(grid=grid, values=np.zeros(grid.points), asymptote=0.0)
    spec = bound_states(flat, KINETIC_UNIT)
    assert spec.eigenvalues.size == 0


def test_sech_well_analytic_unit_convention():
    # -6/cosh^2 under a unit kinetic term has levels -(2-n)^2
    grid = default_grid(12.0, 0.005)
    spec = bound_states(sech2_well(6.0, grid), KINETIC_UNIT)
    assert np.max(np.abs(spec.eigenvalues - [-4.0, -1.0])) < 1e-3
    assert spec.node_counts.tolist() == [0, 1]


def test_sech_well_analytic_half_convention():
    # the same well under the calibrated convention: -(3-n)^2/2
    grid = default_grid(12.0, 0.005)
    spec = bound_states(sech2_well(6.0, grid), KINETIC_HALF)
    assert np.max(np.abs(spec.eigenvalues - [-4.5, -2.0, -0.5])) < 1e-3


def test_harmonic_oscillator_unit_convention():
    grid = default_grid(12.0, 0.005)
    pot = PotentialGrid.from_callable(grid, lambda x: x**2)
    spec = bound_states(pot, KINETIC_UNIT)
    assert np.max(np.abs(spec.eigenvalues[:5] - [1.0, 3.0, 5.0, 7.0, 9.0])) < 1e-3


def test_corrected_levels_beyond_second_order():
    # the three-point rule alone is O(h^2) (1.5e-4 and 3.7e-5 here); the
    # first-order correction leaves the error at a ~1e-9 floor
    exact = np.array([-4.0, -1.0])
    for spacing in (0.02, 0.01):
        grid = default_grid(12.0, spacing)
        spec = bound_states(sech2_well(6.0, grid), KINETIC_UNIT)
        assert np.max(np.abs(spec.eigenvalues - exact)) <= 1e-7


def test_box_size_stability():
    values = []
    for half_width in (12.0, 24.0):
        grid = default_grid(half_width, 0.005)
        spec = bound_states(sech2_well(6.0, grid), KINETIC_UNIT)
        values.append(spec.eigenvalues)
    assert np.max(np.abs(values[0] - values[1])) < 1e-6


def test_orthonormality_under_trapezoid_weights():
    grid = default_grid(12.0, 0.01)
    spec = bound_states(sech2_well(20.0, grid), KINETIC_HALF, keep_wavefunctions=True)
    psi = spec.wavefunctions
    overlaps = psi @ psi.T * grid.spacing
    off = overlaps - np.diag(np.diag(overlaps))
    assert np.max(np.abs(off)) < 1e-8
    assert np.max(np.abs(np.diag(overlaps) - 1.0)) < 1e-8


def test_node_theorem(prime10_potential):
    spec = bound_states(prime10_potential, KINETIC_HALF, count=10)
    assert spec.node_counts.tolist() == list(range(10))


def test_count_nodes_dead_band():
    psi = np.array([0.0, 1e-12, 1.0, 2.0, -1e-12, -1.0])
    assert count_nodes(psi) == 1


def test_resolution_precondition():
    grid = default_grid(10.0, 0.1)
    pot = PotentialGrid.from_callable(grid, lambda x: 50.0 * x**2 - 500.0, asymptote=4500.0)
    with pytest.raises(ValueError, match="spacing"):
        bound_states(pot, KINETIC_HALF)


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
