import re

import numpy as np
import pytest

from primepot.grid import Grid, PotentialGrid, default_grid, read_table, write_table


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_csv_rejects_non_finite_asymptote(tmp_path, bad):
    path = tmp_path / "pot.csv"
    path.write_text(f"# asymptote={bad}\nx,V\n-1.0,29.0\n0.0,2.0\n1.0,29.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: metadata asymptote='{bad}' is not finite")):
        PotentialGrid.read_csv(path)


def _per_row_table(path, metadata, header, x, y):
    # the writer as it was, one float() and one write per row: the reference bytes
    with open(path, "w") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value!r}\n")
        fh.write(f"{header}\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def test_write_table_bytes_match_per_row_writer_and_read_back(tmp_path):
    # more than one 1024-row chunk, integer x, and the floats repr treats specially
    rng = np.random.default_rng(5)
    x = np.arange(-1300, 1301)
    y = rng.normal(size=x.size) * 10.0 ** rng.integers(-300, 300, size=x.size)
    y[:6] = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
    meta = {"asymptote": 29.0, "sr_length": 40}
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_table(new, meta, "x,V", x, y)
    _per_row_table(old, meta, "x,V", x, y)
    assert new.read_bytes() == old.read_bytes()
    back, xs, ys = read_table(new, {"asymptote": float, "sr_length": int})
    assert back == meta
    assert xs.tobytes() == x.astype(np.float64).tobytes()
    assert ys.tobytes() == y.tobytes()
