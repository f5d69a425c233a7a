import numpy as np
import pytest

from primepot.grid import Grid, PotentialGrid, default_grid


def test_grid_requires_odd_points():
    with pytest.raises(ValueError):
        Grid(half_width=5.0, points=100)


def test_grid_center_node_is_zero():
    grid = Grid(half_width=3.0, points=601)
    assert grid.x[grid.center_index] == 0.0
    assert np.array_equal(grid.x, -grid.x[::-1])


def test_default_grid_spacing():
    grid = default_grid(12.0, 0.005)
    assert grid.points == 4801
    assert grid.spacing == pytest.approx(0.005)


def test_parity_is_derived_from_values():
    grid = Grid(half_width=1.0, points=5)
    assert not PotentialGrid(grid=grid, values=np.array([0.0, 1.0, 2.0, 3.0, 4.0]), asymptote=4.0).even
    assert PotentialGrid(grid=grid, values=np.array([4.0, 1.0, 2.0, 1.0, 4.0]), asymptote=4.0).even


def test_from_even_half_mirrors():
    grid = Grid(half_width=1.0, points=5)
    pot = PotentialGrid.from_even_half(grid, np.array([-2.0, -1.0, 0.0]), asymptote=0.0)
    assert pot.values.tolist() == [0.0, -1.0, -2.0, -1.0, 0.0]
    assert pot.even


def test_csv_round_trip(tmp_path):
    grid = default_grid(2.0, 0.01)
    pot = PotentialGrid(grid, -3.0 / np.cosh(grid.x) ** 2, 0.0)
    path = tmp_path / "pot.csv"
    pot.write_csv(path)
    back = PotentialGrid.read_csv(path)
    assert back.grid.points == pot.grid.points
    assert back.asymptote == pot.asymptote
    assert np.array_equal(back.values, pot.values)
    assert back.even
    assert "energy_shift" not in path.read_text()


def test_csv_with_energy_shift_line_loads(tmp_path):
    # files written before the energy shift was dropped carry one more key
    path = tmp_path / "old.csv"
    path.write_text("# asymptote=29.0\n# energy_shift=0.0\nx,V\n-1.0,29.0\n0.0,2.0\n1.0,29.0\n")
    pot = PotentialGrid.read_csv(path)
    assert pot.asymptote == 29.0
    assert pot.values.tolist() == [29.0, 2.0, 29.0]

