"""Acceptance suite: every criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion alongside the pytest verdicts.
"""

import time

import numpy as np

from primepot.eigensolver import bound_states, compare_spectrum
from primepot.grid import PotentialGrid, default_grid
from primepot.hologram import (
    cost_and_gradient,
    extract_profile,
    make_state,
    optimize_phase,
    potential_to_target,
    propagate,
    sr_intensity_error,
)
from primepot.scattering import (
    RESONANCE_HEIGHT,
    filter_lucky_prime,
    transmission,
    transmission_from_cells,
)
from primepot.semiclassical import (
    invert_to_potential,
    prime_density_of_states,
    wkb_level_count,
)
from primepot.sequences import counting_estimates, first_lucky, first_primes, sieve_primes
from primepot.susy import KINETIC_HALF, chain_from_gaps, design_potential

UNIT_KINETIC = 1.0  # -d^2/dx^2, the convention of the textbook oracles


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _round_trip(count, targets, grid):
    t0 = time.perf_counter()
    pot = design_potential(targets, grid)
    spec = bound_states(pot, KINETIC_HALF, count=count)
    elapsed = time.perf_counter() - t0
    return pot, spec, elapsed


def test_criterion_1_prime_round_trip(grid12):
    for count in (10, 15):
        targets = first_primes(count).astype(float)
        _, spec, elapsed = _round_trip(count, targets, grid12)
        err = (
            float(np.max(np.abs(spec.eigenvalues - targets)))
            if spec.eigenvalues.size == count
            else np.inf
        )
        rounds = spec.eigenvalues.size == count and np.array_equal(
            np.rint(spec.eigenvalues), targets
        )
        _report(
            f"1 prime round trip N={count}",
            rounds and err <= 0.05 and elapsed <= 60.0,
            f"max|e-p|={err:.4f}, {elapsed:.1f}s",
        )


def test_criterion_2_lucky_round_trip(grid12):
    targets = np.array([1, 3, 7, 9, 13, 15, 21, 25, 31, 33], dtype=float)
    assert first_lucky(10).tolist() == targets.astype(int).tolist()
    _, spec, elapsed = _round_trip(10, targets, grid12)
    err = (
        float(np.max(np.abs(spec.eigenvalues - targets)))
        if spec.eigenvalues.size == 10
        else np.inf
    )
    ok = (
        spec.eigenvalues.size == 10
        and np.array_equal(np.rint(spec.eigenvalues), targets)
        and err <= 0.05
        and elapsed <= 60.0
    )
    _report("2 lucky round trip", ok, f"max|e-l|={err:.4f}, {elapsed:.1f}s")


def test_criterion_3_poschl_teller_closure():
    grid = default_grid(12.0, 0.005)
    pot = chain_from_gaps(np.array([-0.5, -2.0, -4.5]), grid)
    ref = -6.0 / np.cosh(grid.x) ** 2  # -n(n+1)/(2 cosh^2 x) at n = 3
    err = float(np.max(np.abs(pot.values - ref)))
    _report("3 Poschl-Teller closure N=3", err <= 1e-3, f"sup-norm={err:.2e}")


def test_criterion_4_eigensolver_oracles():
    grid = default_grid(12.0, 0.005)
    well = PotentialGrid(grid, -6.0 / np.cosh(grid.x) ** 2, 0.0)
    spec = bound_states(well, UNIT_KINETIC)
    err_pt = float(np.max(np.abs(spec.eigenvalues - [-4.0, -1.0])))
    harmonic = PotentialGrid(grid, grid.x**2, grid.x[-1] ** 2)
    spec_h = bound_states(harmonic, UNIT_KINETIC)
    err_ho = float(np.max(np.abs(spec_h.eigenvalues[:5] - [1.0, 3.0, 5.0, 7.0, 9.0])))
    _report(
        "4 eigensolver analytic oracles",
        err_pt <= 1e-3 and err_ho <= 1e-3,
        f"sech well err={err_pt:.2e}, harmonic err={err_ho:.2e}",
    )


def test_criterion_5_paper_table_discrepancies():
    v10 = [1.58, 3.31, 5.40, 7.33, 10.9, 13.2, 16.9, 19.4, 23.2, 29.3]
    v15 = [
        1.58, 3.21, 5.00, 7.22, 11.3, 13.2, 16.6, 19.4, 22.9, 28.8,
        31.4, 36.9, 40.6, 43.4, 47.1,
    ]
    r10 = compare_spectrum(v10, first_primes(10).astype(float))
    r15 = compare_spectrum(v15, first_primes(15).astype(float))
    ok = (
        r10.all_round
        and r15.all_round
        and abs(r10.rms_frac - 0.08) <= 0.02
        and abs(r15.rms_frac - 0.06) <= 0.02
    )
    _report(
        "5 published eigenvalue tables",
        ok,
        f"rms10={r10.rms_frac:.4f}, rms15={r15.rms_frac:.4f}, all round",
    )


def test_criterion_6_counting_functions():
    est = counting_estimates(1000.0, terms=25)
    ok = est.exact == 168 and abs(est.riemann_r - 168) < abs(est.li - 168)
    _report(
        "6 counting functions at 1000",
        ok,
        f"exact={est.exact}, |R-168|={abs(est.riemann_r-168):.3f}, |li-168|={abs(est.li-168):.3f}",
    )


def test_criterion_7_scattering(filter_apparatus):
    height, width, h = 8.0, 1.5, 0.002
    cells = np.full(int(round(width / h)), height)
    energies = np.linspace(0.5, 16.0, 100)
    t, r = transmission_from_cells(cells, h, energies, KINETIC_HALF, 0.0)
    c2 = KINETIC_HALF**2
    exact = np.empty_like(energies)
    for i, e in enumerate(energies):
        g = (height - e) / c2
        if g > 0:
            exact[i] = 1.0 / (1.0 + height**2 * np.sinh(np.sqrt(g) * width) ** 2 / (4 * e * (height - e)))
        else:
            exact[i] = 1.0 / (1.0 + height**2 * np.sin(np.sqrt(-g) * width) ** 2 / (4 * e * (e - height)))
    barrier_err = float(np.max(np.abs(t - exact)))
    unit_err = float(np.max(np.abs(t + r - 1.0)))

    composed = filter_apparatus.composed()
    t_g, r_g = transmission(composed, np.linspace(0.5, 25.0, 200))
    unit_err = max(unit_err, float(np.max(np.abs(t_g + r_g - 1.0))))

    lucky = set(filter_apparatus.lucky_levels.tolist())
    prime = set(filter_apparatus.prime_levels.tolist())
    mismatches = []
    accepted, rejected = [1.0], [0.0]  # peak T on each side of the threshold
    for w in range(1, min(filter_apparatus.w_max, 30) + 1):
        result = filter_lucky_prime(w, filter_apparatus)
        if result.is_lucky_prime != (w in lucky and w in prime):
            mismatches.append(w)
        (accepted if result.is_lucky_prime else rejected).append(result.peak_transmission)
    margin_in = min(accepted) - RESONANCE_HEIGHT
    margin_out = RESONANCE_HEIGHT - max(rejected)
    ok = (
        barrier_err <= 1e-6
        and unit_err <= 1e-8
        and not mismatches
        and margin_in >= 0.05
        and margin_out >= 0.05
    )
    _report(
        "7 scattering and lucky-prime filter",
        ok,
        f"barrier err={barrier_err:.1e}, |T+R-1|={unit_err:.1e}, "
        f"filter window w<= {min(filter_apparatus.w_max, 30)}, mismatches={mismatches}, "
        f"margin accepted {margin_in:.3f} / rejected {margin_out:.3f}",
    )


def test_criterion_8_hologram(prime10_potential):
    rng = np.random.default_rng(0)
    amp16 = rng.uniform(0.2, 1.0, 20)
    amp16 /= np.sqrt(np.sum(amp16**2))
    state16 = make_state(16, amp16, seed=3)
    _, grad = cost_and_gradient(state16)
    eps = 1e-6
    worst = 0.0
    # the optimizer's gradient, over the real and imaginary parts of the column sums
    for j in range(16):
        for step, part in ((eps, grad[j].real), (1j * eps, grad[j].imag)):
            up = state16.sums.copy()
            up[j] += step
            dn = state16.sums.copy()
            dn[j] -= step
            cu, _ = cost_and_gradient(state16, up)
            cd, _ = cost_and_gradient(state16, dn)
            fd = (cu - cd) / (2 * eps)
            worst = max(worst, abs(fd - part) / max(abs(fd), 1e-300))

    t0 = time.perf_counter()
    amp, tmap = potential_to_target(prime10_potential)
    state = make_state(64, amp, seed=1, target_map=tmap)
    result = optimize_phase(state, max_iters=500)
    field = propagate(result.state)
    sr_err = sr_intensity_error(field, result.state)
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(result.history) <= 0.0))

    reconstructed = extract_profile(field, result.state)
    spec = bound_states(reconstructed, KINETIC_HALF, count=10)
    rounds = spec.eigenvalues.size == 10 and np.array_equal(
        np.rint(spec.eigenvalues).astype(int), first_primes(10)
    )
    ok = worst <= 1e-5 and monotone and sr_err <= 0.05 and elapsed <= 300.0 and rounds
    _report(
        "8 hologram synthesis",
        ok,
        f"grad err={worst:.1e}, sr rms={sr_err:.4f}, {elapsed:.1f}s, rounds={rounds}",
    )


def test_criterion_9_semiclassical():
    omega = 2.2
    prof = invert_to_potential(lambda e: 1.0 / omega, 0.0, 12.0, samples=40)
    quad_err = float(
        np.max(np.abs(prof.x_values - 2.0 * KINETIC_HALF / omega * np.sqrt(prof.v_values)))
    )
    # 2-point Gauss panels: quartic convergence under panel halving
    dos = lambda e: prime_density_of_states(e, terms=25)
    ref = invert_to_potential(dos, 2.0, 40.0, samples=2, panels=512, nodes_per_panel=8)
    errs = [
        abs(
            invert_to_potential(dos, 2.0, 40.0, samples=2, panels=p, nodes_per_panel=2).x_values[-1]
            - ref.x_values[-1]
        )
        for p in (128, 256)
    ]
    order = np.log2(errs[0] / errs[1])
    prime_prof = invert_to_potential(dos, 2.0, 110.0, samples=600)
    count = wkb_level_count(prime_prof, 100.0)
    pi_100 = int(sieve_primes(100).size)
    ok = quad_err <= 1e-12 and 3.5 <= order <= 4.5 and abs(count - pi_100) <= 1
    _report(
        "9 semiclassical inversion",
        ok,
        f"const-dos err={quad_err:.1e}, conv order={order:.2f}, WKB count={count} vs pi={pi_100}",
    )
