import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primepot import semiclassical
from primepot.eigensolver import bound_states
from primepot.semiclassical import (
    LATTICE_BLOCK,
    SemiclassicalProfile,
    invert_to_potential,
    prime_density_of_states,
    profile_to_potential,
    wkb_level_count,
)
from primepot.sequences import moebius, riemann_r, sieve_primes
from primepot.susy import KINETIC_HALF


_MU = [moebius(m) for m in range(1, 26)]


def _scalar_density(energy):
    """The 25-term density at one energy in Python floats."""
    total = 0.0
    for m, mu in enumerate(_MU, start=1):
        if mu:
            total += mu / m * energy ** ((1.0 - m) / m)
    return total / math.log(energy)


def _loop_inversion(dos, e0, v_max, samples, kinetic_scale=KINETIC_HALF, panels=4, nodes_per_panel=64):
    """Per-sample, per-panel, per-energy form of the inversion (the oracle)."""
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    v_values = np.linspace(e0, v_max, samples)
    x_values = np.zeros_like(v_values)
    for i, v in enumerate(v_values[1:], start=1):
        edges = np.linspace(0.0, math.sqrt(v - e0), panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            rho = np.array([dos(float(e)) for e in v - t * t])
            total += 0.5 * (b - a) * np.sum(weights * 2.0 * rho)
        x_values[i] = kinetic_scale * total
    return v_values, x_values


def _mpmath_density(energy, terms):
    import mpmath

    e = mpmath.mpf(energy)
    total = mpmath.mpf(0)
    for m in range(1, terms + 1):
        mu = moebius(m)
        if mu:
            total += mpmath.mpf(mu) / m * e ** ((1 - mpmath.mpf(m)) / m)
    return float(total / mpmath.log(e))


def _mpmath_inversion(v, e0, terms):
    """x(V) to 30 digits: the inversion integral after V - E = (V - e0) sin^2(phi)."""
    import mpmath

    with mpmath.workdps(30):
        e0, span = mpmath.mpf(e0), mpmath.mpf(v) - e0
        mus = [(m, moebius(m)) for m in range(1, terms + 1) if moebius(m)]

        def density(e):
            return sum(mpmath.mpf(mu) / m * e ** ((1 - mpmath.mpf(m)) / m) for m, mu in mus) / mpmath.log(e)

        def integrand(phi):
            return 2 * density(e0 + span * mpmath.cos(phi) ** 2) * mpmath.sqrt(span) * mpmath.cos(phi)

        return float(mpmath.mpf(KINETIC_HALF) * mpmath.quad(integrand, mpmath.linspace(0, mpmath.pi / 2, 5)))


def test_single_term_is_inverse_log():
    for e in (5.0, 50.0, 500.0):
        assert prime_density_of_states(e, terms=1) == pytest.approx(1.0 / np.log(e))


def test_density_series_extended_precision_oracle():
    import mpmath

    mpmath.mp.dps = 40
    assert prime_density_of_states(100.0, terms=10) == pytest.approx(_mpmath_density(100.0, 10), abs=1e-12)


def test_density_array_call_matches_extended_precision_oracle():
    import mpmath

    mpmath.mp.dps = 40
    energies = np.array([[2.0 + 1e-9, 2.0 + 1e-6, 2.001, 3.0], [4.0, 8.0, 64.0, 1024.0], [5.5, 100.0, 109.7, 150.0]])
    values = prime_density_of_states(energies, terms=25)
    assert values.shape == energies.shape
    oracle = np.vectorize(lambda e: _mpmath_density(e, 25))(energies)
    np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0.0)


def test_density_rejects_low_energy():
    with pytest.raises(ValueError):
        prime_density_of_states(2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_rejects_non_finite_energy(bad):
    with pytest.raises(ValueError, match="energy > 2"):
        prime_density_of_states(bad)
    with pytest.raises(ValueError, match="energy > 2"):
        prime_density_of_states(np.array([5.0, bad, 50.0]))


# the steep end just above 2, where the density varies fastest, then the rest
_DENSITY_ENERGIES = st.one_of(st.floats(2.0 + 1e-12, 2.0 + 1e-6), st.floats(2.0, 1e4, exclude_min=True))


@settings(max_examples=60, deadline=None)
@given(energies=st.lists(_DENSITY_ENERGIES, min_size=1, max_size=20), terms=st.integers(1, 40))
def test_density_matches_oracle_and_scalar_calls(energies, terms):
    import mpmath

    values = prime_density_of_states(np.array(energies), terms)
    scalars = [prime_density_of_states(e, terms) for e in energies]
    assert all(np.ndim(v) == 0 for v in scalars)
    assert values.tobytes() == np.array(scalars).tobytes()
    with mpmath.workdps(40):
        oracle = [_mpmath_density(e, terms) for e in energies]
    np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0.0)


def test_leading_term_monotone_above_e():
    es = np.linspace(3.0, 50.0, 40)
    vals = [prime_density_of_states(e, terms=1) for e in es]
    assert np.all(np.diff(vals) < 0.0)


def test_constant_dos_gives_quadratic_profile():
    omega = 1.7
    prof = invert_to_potential(lambda e: 1.0 / omega, 0.0, 10.0, samples=60)
    expected = 2.0 * KINETIC_HALF / omega * np.sqrt(prof.v_values)
    assert np.max(np.abs(prof.x_values - expected)) < 1e-13
    assert prof.x_values[0] == 0.0


def test_quadrature_fourth_order_with_two_point_panels():
    # 2-point Gauss panels integrate exactly through cubic order, so halving
    # the panel width in phi shrinks the error about sixteenfold once the
    # density's steep behaviour near E=2 is resolved
    v = 40.0
    dos = lambda e: prime_density_of_states(e, terms=25)
    reference = invert_to_potential(dos, 2.0, v, samples=2, panels=512, nodes_per_panel=8)
    errs = []
    for panels in (128, 256):
        prof = invert_to_potential(dos, 2.0, v, samples=2, panels=panels, nodes_per_panel=2)
        errs.append(abs(prof.x_values[-1] - reference.x_values[-1]))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(16.0, rel=0.5)


@pytest.mark.parametrize("v_max, samples", [(40.0, 20), (100.0, 400), (110.0, 600)])
def test_array_inversion_matches_loop_oracle(v_max, samples):
    prof = invert_to_potential(lambda e: prime_density_of_states(e, 25), 2.0, v_max, samples)
    v_ref, x_ref = _loop_inversion(_scalar_density, 2.0, v_max, samples)
    assert np.array_equal(prof.v_values, v_ref)
    assert prof.x_values[0] == x_ref[0] == 0.0
    np.testing.assert_allclose(prof.x_values[1:], x_ref[1:], rtol=1e-13, atol=0.0)
    oracle = SemiclassicalProfile(v_ref, x_ref, 2.0, KINETIC_HALF)
    for energy in range(3, int(v_max) + 1):
        assert wkb_level_count(prof, float(energy)) == wkb_level_count(oracle, float(energy))


def test_dos_called_once_on_the_energy_lattice():
    shapes = []

    def counting_dos(e):
        shapes.append(np.shape(e))
        return prime_density_of_states(e)

    invert_to_potential(counting_dos, 2.0, 60.0, samples=37, panels=3, nodes_per_panel=16)
    assert shapes == [(36, 48)]


def test_dos_blocks_tile_the_lattice_in_row_order():
    blocks = []

    def counting_dos(e):
        blocks.append(e.copy())
        return prime_density_of_states(e)

    prof = invert_to_potential(counting_dos, 2.0, 100.0, samples=400)
    assert [b.shape for b in blocks] == [(128, 64)] * 3 + [(15, 64)]
    assert all(b.size <= LATTICE_BLOCK for b in blocks)
    nodes, _ = np.polynomial.legendre.leggauss(64)
    cos2 = np.cos(0.25 * math.pi * (nodes + 1.0)) ** 2
    lattice = (prof.v_values[1:, None] - 2.0) * cos2 + 2.0
    np.testing.assert_allclose(np.concatenate(blocks), lattice, rtol=1e-15, atol=0.0)


def test_blocks_do_not_change_the_profile(monkeypatch):
    # every row is summed whole in its block, so the block size moves no byte
    dos = prime_density_of_states
    blocked = invert_to_potential(dos, 2.0, 100.0, samples=400, panels=3, nodes_per_panel=20)
    monkeypatch.setattr(semiclassical, "LATTICE_BLOCK", 10**6)
    whole = invert_to_potential(dos, 2.0, 100.0, samples=400, panels=3, nodes_per_panel=20)
    assert np.array_equal(blocked.x_values, whole.x_values)


def test_phi_rule_computed_once_and_read_only(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    semiclassical._phi_rule.cache_clear()
    for _ in range(3):
        invert_to_potential(prime_density_of_states, 2.0, 50.0, samples=30, panels=2, nodes_per_panel=24)
    assert calls == [24]
    cos2, weights = semiclassical._phi_rule(2, 24)
    assert not cos2.flags.writeable and not weights.flags.writeable


def test_warm_inversion_maps_no_fresh_pages():
    # each block's arrays stay under the allocator's mmap threshold, so warm
    # calls reuse freed heap memory instead of faulting in new pages
    def op():
        profile_to_potential(invert_to_potential(prime_density_of_states, 2.0, 100.0, 400))

    for _ in range(3):
        op()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        op()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.mark.parametrize("argument", ["panels", "nodes_per_panel"])
def test_inversion_refuses_empty_rule(argument):
    with pytest.raises(ValueError, match=f"^{argument}=0 must be at least 1"):
        invert_to_potential(prime_density_of_states, 2.0, 50.0, samples=10, **{argument: 0})


@pytest.mark.parametrize("v, rtol", [(2.5, 2e-15), (10.0, 2e-15), (40.0, 2e-15), (100.0, 2e-15), (1000.0, 2e-15), (1e4, 1e-10)])
def test_inversion_matches_extended_precision_quadrature(v, rtol):
    x = invert_to_potential(prime_density_of_states, 2.0, v, samples=2).x_values[-1]
    reference = _mpmath_inversion(v, 2.0, 25)
    assert abs(x - reference) <= rtol * reference


def test_negative_dos_reported_with_energy():
    with pytest.raises(ValueError, match="E="):
        invert_to_potential(lambda e: 1.0 - e, 0.0, 5.0, samples=4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_dos_reported_with_energy(bad):
    with pytest.raises(ValueError, match="E=5"):
        invert_to_potential(lambda e: np.where(e > 50.0, bad, 1.0), 2.0, 100.0, 50)


@pytest.mark.parametrize("field", ["v_values", "x_values"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profile_rejects_non_finite_samples(field, bad):
    samples = {"v_values": np.array([2.0, 3.0, 4.0]), "x_values": np.array([0.0, 1.0, 2.0])}
    samples[field][-1] = bad
    with pytest.raises(ValueError, match="finite"):
        SemiclassicalProfile(e0=2.0, kinetic_scale=KINETIC_HALF, **samples)


def test_prime_profile_monotone_and_flattening():
    prof = invert_to_potential(prime_density_of_states, 2.0, 110.0, samples=400)
    assert np.all(np.diff(prof.x_values) > 0.0)
    # convex rise near the bottom, flattening slope at large V
    dv_dx = np.gradient(prof.v_values, prof.x_values)
    assert dv_dx[-1] > dv_dx[len(dv_dx) // 8]


def test_wkb_count_at_vmax_100():
    prof = invert_to_potential(prime_density_of_states, 2.0, 110.0, samples=600)
    assert abs(wkb_level_count(prof, 100.0) - sieve_primes(100).size) <= 1


def test_wkb_counts_frozen_regression():
    # honest values of the phase integral with the 25-term density from e0=2;
    # they trail pi(E) by up to 2 at low energies (the construction is
    # approximate there) and land within 1 near 100
    prof = invert_to_potential(prime_density_of_states, 2.0, 110.0, samples=600)
    assert [wkb_level_count(prof, v) for v in (20.0, 50.0, 100.0)] == [6, 13, 24]


def test_eigensolver_staircase_tracks_riemann_r():
    prof = invert_to_potential(prime_density_of_states, 2.0, 110.0, samples=600)
    pot = profile_to_potential(prof)
    spec = bound_states(pot, KINETIC_HALF)
    worst = 0.0
    for energy in np.arange(5.0, 50.5, 2.5):
        staircase = int(np.sum(spec.eigenvalues <= energy))
        worst = max(worst, abs(staircase - riemann_r(float(energy))))
    assert worst <= 2.0


def test_substituted_integrand_bounded_at_origin():
    # after V - E = (V - e0) sin^2(phi) the integrand at phi=0 is just
    # 2*c*dos(V)*sqrt(V - e0): finite
    v = 30.0
    val = 2.0 * KINETIC_HALF * prime_density_of_states(v) * math.sqrt(v - 2.0)
    assert np.isfinite(val) and val > 0.0
