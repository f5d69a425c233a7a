import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from primepot import susy
from primepot.eigensolver import bound_states
from primepot.grid import default_grid
from primepot.sequences import check_growth_bound, first_lucky, first_primes
from primepot.susy import (
    ChainError,
    KINETIC_HALF,
    chain_from_gaps,
    chain_step,
    design_potential,
    gaps_from_spectrum,
    riccati_residual,
)


def half_line_zeros(grid):
    """V = 0 on the nodes x = 0, h, ..., half_width: the chain's start."""
    return np.zeros(grid.center_index + 1)


def poschl_teller_reference(n, grid):
    """Closed-form -n(n+1)/(2 cosh^2 x) on the nodes of `grid`: the chain's
    output for the gap ladder -1/2, -2, ..., -n^2/2."""
    return -0.5 * n * (n + 1) / np.cosh(grid.x) ** 2


def test_gaps_from_spectrum_simple():
    assert gaps_from_spectrum([2.0, 3.0, 5.0]).tolist() == [-2.0, -3.0]


def test_gaps_first_ten_primes():
    gaps = gaps_from_spectrum(first_primes(10))
    assert gaps.tolist() == [-6, -10, -12, -16, -18, -22, -24, -26, -27]


def test_gaps_reject_duplicates():
    with pytest.raises(ValueError):
        gaps_from_spectrum([4.0, 4.0])


def test_trivial_zero_step():
    grid = default_grid(6.0, 0.01)
    w, nxt = chain_step(half_line_zeros(grid), 0.0, grid.spacing)
    assert np.all(w == 0.0)
    assert np.all(nxt == 0.0)


def test_superpotential_is_odd(prime10_potential):
    # W holds the half x >= 0 of an odd function, so it vanishes at x = 0
    grid = prime10_potential.grid
    right = prime10_potential.values[grid.center_index :]
    w, _ = chain_step(right, -1.0, grid.spacing)
    assert w.shape == right.shape
    assert w[0] == 0.0


def test_single_step_poschl_teller():
    grid = default_grid(12.0, 0.005)
    _, v1 = chain_step(half_line_zeros(grid), -0.5, grid.spacing)
    ref = poschl_teller_reference(1, grid)
    assert np.max(np.abs(v1 - ref[grid.center_index :])) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_poschl_teller_closure(n):
    grid = default_grid(12.0, 0.005)
    gaps = np.array([-(k * k) / 2.0 for k in range(1, n + 1)])
    pot = chain_from_gaps(gaps, grid)
    ref = poschl_teller_reference(n, grid)
    assert np.max(np.abs(pot.values - ref)) < 1e-3


def test_poschl_teller_reference_values():
    grid = default_grid(4.0, 0.01)
    assert np.all(poschl_teller_reference(0, grid) == 0.0)
    assert poschl_teller_reference(1, grid)[grid.center_index] == pytest.approx(-1.0)
    assert poschl_teller_reference(2, grid)[grid.center_index] == pytest.approx(-3.0)


def test_chain_residuals_small(grid12):
    # substitute each computed superpotential back into its defining equation;
    # W extended as odd and V as even across x = 0, so the stencil reaches
    # x = 0 and x = h too
    h = grid12.spacing
    v = half_line_zeros(grid12)
    budget = 10.0 * h**2
    for gap in gaps_from_spectrum(first_primes(10).astype(float)):
        w, nxt = chain_step(v, float(gap), h)
        w_ext = np.concatenate([-w[2:0:-1], w])
        v_ext = np.concatenate([v[2:0:-1], v])
        res = riccati_residual(w_ext, v_ext, float(gap), h)
        assert res.size == v.size - 2  # nodes x = 0 through half_width - 2h
        assert np.max(np.abs(res)) < budget
        v = nxt


def crum_potential(levels, x_values, c=KINETIC_HALF):
    """Exact chain output, V = top - 2 c^2 (ln W)'' (Crum, Q. J. Math. 6, 121
    (1955)), W the Wronskian of cosh/sinh seeds alternating from the second
    highest level down, in mpmath at 30 digits."""
    top = mp.mpf(levels[-1])
    with mp.workdps(30):
        kappas = [mp.sqrt(top - e) / c for e in levels[-2::-1]]
        n = len(kappas)

        def log_wronskian(x):
            rows = [
                [k**i * (mp.cosh(k * x) if (i + j) % 2 == 0 else mp.sinh(k * x)) for j, k in enumerate(kappas)]
                for i in range(n)
            ]
            return mp.log(mp.det(mp.matrix(rows)))

        return np.array([float(top - 2 * c**2 * mp.diff(log_wronskian, x, 2)) for x in x_values])


@pytest.mark.parametrize("levels", [first_primes(10), first_lucky(10)], ids=["primes10", "lucky10"])
def test_design_matches_exact_crum_potential(levels):
    # the construction error is fourth order: at most 1e-5 at spacing 0.005
    # and about 16x smaller than at 0.01
    levels = [int(v) for v in levels]
    x_values = 0.2 * np.arange(41)
    exact = crum_potential(levels, x_values)
    sup = {}
    for h in (0.01, 0.005):
        grid = default_grid(12.0, h)
        pot = design_potential(levels, grid)
        nodes = grid.center_index + np.rint(x_values / h).astype(int)
        sup[h] = float(np.max(np.abs(pot.values[nodes] - exact)))
    assert sup[0.005] <= 1e-5
    assert sup[0.01] / sup[0.005] >= 12.0


def test_evenness_preserved(prime10_potential):
    values = prime10_potential.values
    assert np.array_equal(values, values[::-1])


def test_design_asymptote_is_top_level(prime10_potential):
    assert prime10_potential.asymptote == 29.0
    assert abs(prime10_potential.values[0] - 29.0) < 1e-6


def test_level_count_grows_with_chain(grid12):
    # after k insertions the well holds k strictly bound states plus the
    # threshold state at the edge
    gaps = gaps_from_spectrum([2.0, 3.0, 5.0, 7.0])
    for k in range(1, 4):
        current = chain_from_gaps(gaps[:k], grid12)
        assert bound_states(current, KINETIC_HALF).eigenvalues.size == k
        spec = bound_states(current, KINETIC_HALF, count=k + 1)
        assert abs(spec.eigenvalues[-1] - spec.continuum_edge) <= 1e-6


def test_oscillations_for_linear_gaps():
    grid = default_grid(12.0, 0.005)
    pot = chain_from_gaps(-np.arange(1.0, 20.0), grid)
    right = pot.values[grid.center_index :]
    sign_changes = np.count_nonzero(np.diff(np.sign(np.diff(right))) != 0)
    assert sign_changes >= 3


def test_gap_above_ground_state_rejected(grid12):
    h = grid12.spacing
    _, v1 = chain_step(half_line_zeros(grid12), -2.0, h)
    with pytest.raises(ChainError):
        chain_step(v1, -1.0, h)


def test_chain_rejects_gaps_out_of_order(grid12):
    # the chain itself refuses what a level list could not produce
    with pytest.raises(ChainError, match="chain step k=2 failed"):
        chain_from_gaps([-2.0, -1.0], grid12)
    with pytest.raises(ValueError, match="non-positive"):
        chain_from_gaps([0.5], grid12)


def test_design_rejects_single_level(grid12):
    with pytest.raises(ValueError):
        design_potential([5.0], grid12)


def test_design_rejects_what_the_eigensolver_cannot_resolve(grid12):
    # one rule for both: h^2 (max V - min V) <= 0.1 c^2
    with pytest.raises(ValueError, match=r"use spacing <= 0\.00354"):
        design_potential([1.0, 2000.0], grid12)
    pot = design_potential([1.0, 2000.0], default_grid(12.0, 0.0035))
    spec = bound_states(pot, KINETIC_HALF, count=2)
    assert np.array_equal(np.rint(spec.eigenvalues), [1.0, 2000.0])


def test_design_refuses_unresolvable_levels_before_the_chain(monkeypatch, grid12):
    # a correct design spans at least top - bottom level, so primes:2000
    # (span 17387) is refused without running a single chain step
    def no_chain(*args):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(susy, "chain_from_gaps", no_chain)
    with pytest.raises(ValueError, match=r"use spacing <= 0\.0017$"):
        design_potential(first_primes(2000), grid12)


def test_design_rejects_narrow_grid():
    grid = default_grid(2.0, 0.005)
    with pytest.raises(ValueError):
        design_potential([2.0, 2.5], grid)


def test_round_trip_all_sequences(prime10_potential, prime15_potential, lucky10_potential):
    for pot, targets in (
        (prime10_potential, first_primes(10)),
        (prime15_potential, first_primes(15)),
        (lucky10_potential, [1, 3, 7, 9, 13, 15, 21, 25, 31, 33]),
    ):
        targets = np.asarray(targets, dtype=float)
        spec = bound_states(pot, KINETIC_HALF, count=targets.size)
        assert spec.eigenvalues.size == targets.size
        assert np.max(np.abs(spec.eigenvalues - targets)) <= 5e-2


@settings(max_examples=20, deadline=None)
@given(step=st.floats(0.05, 1.0), count=st.integers(5, 30))
def test_uniform_ladders_are_refused_or_met(step, count):
    # a ladder whose chain does not close on the default grid is refused at
    # design; any other holds every level within 0.05 of its target
    levels = 1.0 + step * np.arange(count)
    try:
        pot = design_potential(levels)
    except ValueError:
        return
    spec = bound_states(pot, KINETIC_HALF, targets=levels)
    assert np.max(np.abs(spec.eigenvalues - levels)) <= 0.05


@st.composite
def admissible_levels(draw):
    count = draw(st.integers(2, 25))
    first = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 8), min_size=count - 1, max_size=count - 1))
    levels = np.cumsum([first] + gaps).astype(float)
    assume(check_growth_bound(levels, 3.0))
    return levels


@settings(max_examples=15, deadline=None)
@given(levels=admissible_levels(), half_width=st.integers(8, 20))
def test_round_trip_random_admissible(levels, half_width):
    pot = design_potential(levels, default_grid(float(half_width), 0.005))
    # reflectionless, so below its asymptote: opening it for scattering needs no cap
    assert pot.max() <= pot.asymptote * (1 + 1e-9)
    spec = bound_states(pot, KINETIC_HALF, count=levels.size)
    assert np.array_equal(np.rint(spec.eigenvalues), levels)
    assert np.max(np.abs(spec.eigenvalues - levels)) <= 0.05
