import math

import mpmath
import numpy as np
import pytest

from primepot import semiclassical, sequences
from primepot.sequences import (
    CountingEstimates,
    check_growth_bound,
    counting_estimates,
    first_lucky,
    first_primes,
    log_integral,
    moebius,
    moebius_table,
    riemann_r,
    sieve_lucky,
    sieve_primes,
)


def test_sieve_primes_small():
    assert sieve_primes(10).tolist() == [2, 3, 5, 7]


def test_first_15_primes():
    expected = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert sieve_primes(47).tolist() == expected
    assert first_primes(15).tolist() == expected


def test_sieve_primes_empty():
    assert sieve_primes(1).size == 0
    assert sieve_primes(0).size == 0


def test_lucky_first_ten():
    assert first_lucky(10).tolist() == [1, 3, 7, 9, 13, 15, 21, 25, 31, 33]


def test_lucky_tiny_limit():
    assert sieve_lucky(2).tolist() == [1]


def test_lucky_limit_25_hand_sieve():
    # hand-run the position sieve on 1..25:
    # odds: 1 3 5 7 9 11 13 15 17 19 21 23 25
    # drop every 3rd: 1 3 7 9 13 15 19 21 25
    # next step 7, drop every 7th: 1 3 7 9 13 15 21 25
    # next step 9 > remaining length: stop
    assert sieve_lucky(25).tolist() == [1, 3, 7, 9, 13, 15, 21, 25]


def test_lucky_stage_invariance():
    # once a value survives the stage whose index it seeds, it never dies
    survivors = np.arange(1, 2000, 2)
    stage = 1
    settled = [1]
    while stage < survivors.size:
        step = int(survivors[stage])
        if step > survivors.size:
            break
        survivors = np.delete(survivors, np.s_[step - 1 :: step])
        settled.append(int(survivors[stage]))
        stage += 1
    final = sieve_lucky(1999).tolist()
    for k, value in enumerate(settled):
        assert final[k] == value


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (2, -1), (4, 0), (6, 1), (12, 0), (30, -1), (97, -1), (210, 1)],
)
def test_moebius_values(n, expected):
    assert moebius(n) == expected


def test_moebius_rejects_zero():
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_table_lists_nonzero_weights():
    assert moebius_table(10) == ((1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (7, -1), (10, 1))
    assert moebius_table(40) == tuple((m, moebius(m)) for m in range(1, 41) if moebius(m))
    with pytest.raises(ValueError, match="terms must be >= 1"):
        moebius_table(0)


def test_series_factor_once_per_term_count(monkeypatch):
    # the Riemann R and density series read one cached table; warm calls factor nothing
    calls = []
    monkeypatch.setattr(sequences, "moebius", lambda n: calls.append(n) or moebius(n))
    moebius_table.cache_clear()
    semiclassical._density_terms.cache_clear()
    for _ in range(3):
        riemann_r(1000.0, 25)
        semiclassical.prime_density_of_states(np.array([5.0, 50.0]), 25)
    assert calls == list(range(1, 26))


def test_moebius_multiplicative_coprime():
    for a in range(1, 101):
        for b in range(1, 101):
            if math.gcd(a, b) == 1:
                assert moebius(a * b) == moebius(a) * moebius(b)


def test_log_integral_against_mpmath():
    mpmath.mp.dps = 30
    for x in (10.0, 100.0, 1000.0, 1e6):
        oracle = float(mpmath.quad(lambda t: 1 / mpmath.log(t), [2, x]))
        assert log_integral(x) == pytest.approx(oracle, abs=1e-9)


def test_log_integral_series_across_its_range():
    # Ramanujan's series against mpmath's li up to the largest x counted exactly
    mpmath.mp.dps = 30
    for x in np.geomspace(2.5, 1e9, 40):
        oracle = float(mpmath.li(x) - mpmath.li(2))
        assert log_integral(float(x)) == pytest.approx(oracle, rel=1e-13)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            log_integral(bad)


def test_counting_estimates_exact_matches_sieve():
    for x in (10.0, 100.0, 1000.0, 2500.0):
        est = counting_estimates(x)
        assert est.exact == sieve_primes(int(x)).size


def test_counting_estimates_small_x():
    assert counting_estimates(10.0).exact == 4
    with pytest.raises(ValueError):
        counting_estimates(2.0)


def test_riemann_r_converges_close_at_1000():
    est = counting_estimates(1000.0, terms=25)
    assert abs(est.riemann_r - 168) < 1.0


def test_riemann_refinement_beats_li():
    for x in (100.0, 1000.0, 10000.0):
        est = counting_estimates(x, terms=25)
        assert abs(est.riemann_r - est.exact) < abs(est.li - est.exact)


def test_riemann_r_series_oracle():
    # independently accumulate the truncated series at high precision
    mpmath.mp.dps = 40
    x = 1000.0
    total = mpmath.mpf(0)
    for n in range(1, 26):
        root = mpmath.mpf(x) ** (mpmath.mpf(1) / n)
        if root < 2:
            break
        mu = moebius(n)
        if mu:
            total += mpmath.mpf(mu) / n * mpmath.quad(lambda t: 1 / mpmath.log(t), [2, root])
    assert riemann_r(x, 25) == pytest.approx(float(total), abs=1e-8)


def test_growth_bound():
    assert check_growth_bound([], 1.0) is True
    assert check_growth_bound(first_primes(100), 3.0) is True
    assert check_growth_bound([1, 100], 1.0) is False
    with pytest.raises(ValueError):
        check_growth_bound([2, 3], 0.0)


def test_counting_estimates_record_fields():
    est = counting_estimates(50.0, terms=5)
    assert isinstance(est, CountingEstimates)
    assert est.gauss == pytest.approx(50.0 / math.log(50.0))
    assert set(est.as_dict()) == {"x", "exact", "gauss", "li", "riemann_r"}
