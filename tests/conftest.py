from pathlib import Path

import numpy as np
import pytest

import primepot
from primepot import _kernels
from primepot.grid import default_grid
from primepot.scattering import build_filter_apparatus
from primepot.sequences import first_lucky, first_primes
from primepot.susy import design_potential


@pytest.fixture(scope="session")
def grid12():
    return default_grid(12.0, 0.005)


@pytest.fixture(scope="session")
def prime10_potential(grid12):
    return design_potential(first_primes(10), grid12)


@pytest.fixture(scope="session")
def prime15_potential(grid12):
    return design_potential(first_primes(15), grid12)


@pytest.fixture(scope="session")
def lucky10_potential(grid12):
    return design_potential(first_lucky(10), grid12)


@pytest.fixture(scope="session")
def filter_apparatus():
    return build_filter_apparatus(lucky_count=10, prime_count=10)


@pytest.fixture
def fresh_buffers(monkeypatch):
    """``fresh_buffers(fn, *args)`` calls `fn` with every kernel workspace
    made anew and each of its ndarray attributes filled with nan, a
    reference for the kept workspace: the kernels must compute the same bits
    whatever their buffers held before."""

    def poisoned(span, batch):
        work = _kernels._Workspace((span,) + batch)
        buffers = [value for value in vars(work).values() if isinstance(value, np.ndarray)]
        assert buffers, "the workspace holds no buffer to poison"
        for buffer in buffers:
            buffer.fill(np.nan)
        return work

    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_workspace", poisoned)
            return fn(*args)

    return call


def pytest_report_header(config):
    """Name the primepot this run imported, so a run meant for another
    checkout shows which tree it tested."""
    return f"primepot: {Path(primepot.__file__).parent}"
