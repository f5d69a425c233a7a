"""Spatial grids and sampled potentials.

All potentials live on uniform grids centered at zero. Designed potentials
are even; scattering apparatuses built by concatenation keep the uniform
spacing but need not be.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "PotentialGrid", "default_grid", "read_table", "write_table"]


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid with x=0 on a node (odd point count)."""

    half_width: float
    points: int

    def __post_init__(self):
        # Python scalars, so metadata written by repr reads back
        object.__setattr__(self, "half_width", float(self.half_width))
        object.__setattr__(self, "points", operator.index(self.points))
        _check_positive_finite("half_width", self.half_width)
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be an odd integer >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    @property
    def x(self) -> np.ndarray:
        # mirror the right half so x[i] == -x[-1-i] bitwise; even functions
        # then sample to exactly even arrays
        right = self.spacing * np.arange(self.points // 2 + 1)
        return np.concatenate([-right[:0:-1], right])

    @property
    def center_index(self) -> int:
        return self.points // 2


def default_grid(half_width: float = 12.0, spacing: float = 0.005) -> Grid:
    """Production grid: holds primes:40 within 6.1e-4 of every level."""
    _check_positive_finite("half_width", half_width)
    _check_positive_finite("spacing", spacing)
    points = int(round(2.0 * half_width / spacing)) + 1
    if points % 2 == 0:
        points += 1
    return Grid(half_width=half_width, points=points)


def _check_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name}={value!r} must be positive and finite")


def write_table(path, metadata: dict, header: str, x, y) -> None:
    """Two-column CSV: `# key=value` lines (values by repr), a header, `x,y` rows.

    Every float is written by repr, so read_table recovers it bit for bit.
    """
    with open(path, "w") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value!r}\n")
        fh.write(f"{header}\n")
        for xi, yi in zip(x, y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def read_table(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """Inverse of write_table: (metadata as unparsed strings, x, y).

    A row holding nan or inf is rejected with its path and line number.
    """
    meta = {}
    xs, ys = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
                continue
            if line.lower().startswith("x,"):
                continue
            sx, _, sy = line.partition(",")
            xs.append(float(sx))
            ys.append(float(sy))
            if not (math.isfinite(xs[-1]) and math.isfinite(ys[-1])):
                raise ValueError(f"{path}: line {lineno} holds a non-finite value: {line!r}")
    return meta, np.asarray(xs), np.asarray(ys)


@dataclass
class PotentialGrid:
    """Sampled potential with its declared asymptotic value."""

    grid: Grid
    values: np.ndarray
    asymptote: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.asymptote = float(self.asymptote)
        if self.values.shape != (self.grid.points,):
            raise ValueError(
                f"values has shape {self.values.shape}, grid expects ({self.grid.points},)"
            )

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def even(self) -> bool:
        """Whether the samples are exactly mirror-symmetric about x = 0."""
        return bool(np.array_equal(self.values, self.values[::-1]))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    @classmethod
    def from_even_half(cls, grid: Grid, right_values: np.ndarray, asymptote: float) -> "PotentialGrid":
        """Build an even potential from samples on x >= 0 (center first)."""
        right = np.asarray(right_values, dtype=np.float64)
        if right.shape != (grid.center_index + 1,):
            raise ValueError("right_values must cover the center node through x=+half_width")
        full = np.concatenate([right[:0:-1], right])
        return cls(grid=grid, values=full, asymptote=asymptote)

    def write_csv(self, path) -> None:
        """Write `x,V` rows in decimal text under the asymptote."""
        write_table(path, {"asymptote": self.asymptote}, "x,V", self.grid.x, self.values)

    @classmethod
    def read_csv(cls, path) -> "PotentialGrid":
        meta, x, values = read_table(path)
        if x.size < 3:
            raise ValueError(f"{path}: expected at least 3 rows")
        spacing = np.diff(x)
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
            raise ValueError(f"{path}: grid is not uniform")
        if abs(x[0] + x[-1]) > 1e-9 * max(1.0, abs(x[-1])):
            raise ValueError(f"{path}: grid is not symmetric about zero")
        if x.size % 2 == 0:
            raise ValueError(f"{path}: grid must have an odd number of nodes")
        grid = Grid(half_width=float(x[-1]), points=x.size)
        asym = float(meta.get("asymptote", values[-1]))
        return cls(grid=grid, values=values, asymptote=asym)
