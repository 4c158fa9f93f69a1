"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible with `pytest -rA` or `-s`) in addition to the usual pytest verdict.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest

from conftest import ball_max_oracle, random_psd, random_reduced_game, trace_box_oracle
from lqpersuasion import (
    EllipsoidalHypothesis,
    InnerMaxProblem,
    PriorSpec,
    derive_coefficients,
    h_eq,
    hypothesis_wasserstein,
    mc_true_cost,
    oned_table,
    opening_linear_best,
    opening_table,
    opening_thresholds,
    prior_stats,
    radius_scan,
    signaling_profitable,
    solve_bp,
    solve_pop,
    solve_pp,
    solve_spop,
    solve_uop,
    sweep,
    thresholds_1d,
    worst_case_penalty,
)
from lqpersuasion.demo import BENCH3_D, BENCH3_E, bench3_form, bench3_hypothesis, tracking_form
from lqpersuasion.instance import DerivedCoefficients, upsilon

GAUSS_LIMIT = 2.0 * (3.0 + math.pi) / (4.0 + math.pi)


def reported(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.stdout.write(f"[acceptance] {label}: FAIL\n")
                raise
            sys.stdout.write(f"[acceptance] {label}: PASS\n")
        return wrapper
    return deco


def _best_time(fn, repeats=5):
    fn()  # warm up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# shared expensive artifacts
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_sweep():
    """200-point homothetic sweep on the benchmark game, with wall time."""
    qf = bench3_form()
    dc = derive_coefficients(qf, bench3_hypothesis(1.0))
    ps = prior_stats(PriorSpec("gaussian", 3))
    grid = list(np.linspace(0.0, 2.5, 200))
    t0 = time.perf_counter()
    rows = sweep(dc, ps, grid, 1e-4)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


@reported("01 coefficient derivation golden, < 1 ms")
def test_a01_coefficient_golden():
    qf = bench3_form()
    hyp = EllipsoidalHypothesis(C=np.eye(3))
    dc = derive_coefficients(qf, hyp)
    assert np.array_equal(dc.D, BENCH3_D)
    assert np.array_equal(dc.E, BENCH3_E)
    assert dc.lambda_bar == 4.0
    assert dc.f == 0.0
    assert _best_time(lambda: derive_coefficients(qf, hyp)) < 1e-3


@reported("02 scalar thresholds and table, < 1 ms")
def test_a02_oned_thresholds_and_table():
    tr = thresholds_1d(2.0)
    assert tr.eps_minus == pytest.approx(1.5, abs=1e-12)
    assert tr.eps_star == pytest.approx(3.0 * math.sqrt(2.0 * math.pi) / 4.0, abs=1e-12)
    assert tr.eps_plus == pytest.approx(3.0 * (4.0 + math.pi) / 4.0, abs=1e-12)
    e1 = math.sqrt(2.0 / math.pi)
    kap = e1 / math.sqrt(1.0 + e1 * e1)
    bb = kap / (1.0 + kap * kap)
    for eps in (0.0, 1.0, 2.0, 6.0):
        tab = oned_table(2.0, eps)
        assert tab["abp_ni"] == pytest.approx(4.0 + eps * eps, abs=1e-12)
        assert tab["pp_ni"] == pytest.approx(4.0 + eps * eps, abs=1e-12)
        assert tab["pop_ni"] == pytest.approx(4.0 + (1 - bb * bb) * eps * eps, abs=1e-12)
        assert tab["abp_fi"] == pytest.approx(1.0 + 2.0 * e1 * eps + eps * eps, abs=1e-12)
        assert tab["pp_fi"] == pytest.approx(1.0 + 2.0 * eps + eps * eps, abs=1e-12)
        assert tab["pop_fi"] == pytest.approx(
            1.0 + 2.0 * bb * kap * eps + (1 - bb * bb) * eps * eps, abs=1e-12
        )
    assert _best_time(lambda: (thresholds_1d(2.0), oned_table(2.0, 1.0))) < 1e-3


@reported("03 n-dimensional table penalties and threshold ratio")
def test_a03_opening_table():
    for k, n in ((2.0, 1), (2.0, 3), (0.75, 5)):
        gap = abs(1.0 - k)
        base = (k - 1.0) ** 2 * n
        e_norm = math.sqrt(2.0) * math.exp(
            math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0)
        )
        for eps in (0.0, 0.5, 1.7, 4.0):
            tab = opening_table(k, n, eps)
            assert tab["pp_fi"] - base == pytest.approx(
                eps * eps + 2.0 * eps * gap * math.sqrt(n), abs=1e-10
            )
            assert tab["abp_fi"] - base == pytest.approx(
                eps * eps + 2.0 * eps * gap * e_norm, abs=1e-10
            )
        tr = opening_thresholds(k, n)
        assert tr.eps_plus / tr.eps_minus == pytest.approx(3.57, abs=0.01)


@reported("04 sweep rank staircase 3 -> 0, transition window, < 30 s")
def test_a04_sweep_rank_staircase(bench_sweep):
    rows, elapsed = bench_sweep
    assert len(rows) == 200
    ranks = [r.rank_pp for r in rows]
    assert ranks[0] == 3
    assert ranks[-1] == 0
    assert all(b <= a for a, b in zip(ranks, ranks[1:]))
    first_zero = next(r.epsilon for r in rows if r.rank_pp == 0)
    assert 1.55 <= first_zero <= 1.85
    assert elapsed < 30.0


@reported("05 bound ordering at every sweep point, zero violations")
def test_a05_sweep_bound_ordering(bench_sweep):
    rows, _ = bench_sweep
    rho = 1e-4
    violations = [
        r.epsilon
        for r in rows
        if not (
            r.val_uop <= r.val_pop <= r.val_spop <= r.val_pp <= r.val_2uop + 2 * rho
        )
    ]
    assert violations == []


@reported("06 trace oracle vs projected-gradient brute force")
def test_a06_trace_oracle_equivalence():
    rng = np.random.default_rng(600)
    for s in range(30):
        n = (2, 3, 4)[s % 3]
        a = rng.normal(size=(n, n))
        D = (a + a.T) / 2.0
        E = random_psd(rng, n)
        t_bar = float(np.trace(E))
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = q * t_bar
            r = h_eq(D, E, t, tol=1e-9)
            assert r.value - r.dual_value <= 1e-9
            ref = trace_box_oracle(D, E, t, n_restarts=4, outer=10, inner=400, seed=s)
            assert abs(r.value - ref) <= 1e-5 * (1.0 + abs(ref))


@reported("07 ball maximization vs 1e6-point grid + polish")
def test_a07_inner_max_exactness():
    rng = np.random.default_rng(700)
    for s in range(20):
        qm = random_psd(rng, 3)
        v = rng.normal(size=3) * float(rng.uniform(0.1, 2.0))
        val = worst_case_penalty(InnerMaxProblem(qm, v))
        ref = ball_max_oracle(qm, v, n_points=1_000_000, seed=s)
        assert abs(val - ref) <= 1e-3
    for s in range(10):
        lam = float(rng.uniform(0.1, 5.0))
        v = rng.normal(size=3)
        val = worst_case_penalty(InnerMaxProblem(lam * np.eye(3), v))
        expect = lam + 2.0 * float(np.linalg.norm(v))
        assert val == pytest.approx(expect, abs=1e-12 * (1.0 + expect))


@reported("08 Monte-Carlo ground truth, 4-sigma and worker determinism")
def test_a08_monte_carlo_ground_truth():
    k, n, eps = 2.0, 3, 1.0
    qf = tracking_form(k, n)
    prior = PriorSpec("gaussian", n)
    ests = [
        mc_true_cost(qf, eps * np.eye(n), prior, np.eye(n),
                     n_samples=100_000, seed=80, n_workers=w)
        for w in (1, 2, 8)
    ]
    assert ests[0] == ests[1] == ests[2]
    expect = opening_table(k, n, eps)["abp_fi"]
    assert abs(ests[0].mean - expect) <= 4.0 * ests[0].stderr


@reported("09 rank monotonicity across 20 seeded instances")
def test_a09_rank_monotonicity():
    rng = np.random.default_rng(900)
    ps = prior_stats(PriorSpec("gaussian", 3))
    eps_grid = np.linspace(0.0, 3.0, 10)
    for s in range(20):
        n = int(rng.integers(2, 5))
        qf = random_reduced_game(rng, n)
        dc1 = derive_coefficients(qf, hypothesis_wasserstein(1.0, n))
        ps = prior_stats(PriorSpec("gaussian", n))
        bp_rank = solve_bp(dc1).rank
        pp_ranks = []
        for eps in eps_grid:
            dc = dc1.scaled(float(eps))
            pp = solve_pp(dc, 1e-6)
            pop = solve_pop(dc, ps, 1e-6)
            assert bp_rank >= pop.rank >= pp.rank
            pp_ranks.append(pp.rank)
        assert all(b <= a for a, b in zip(pp_ranks, pp_ranks[1:]))


@reported("10 no-information persistence and scale invariance")
def test_a10_no_information_and_scale_invariance():
    rng = np.random.default_rng(1000)
    ps = prior_stats(PriorSpec("gaussian", 3))
    for s in range(10):
        n = int(rng.integers(2, 5))
        D = random_psd(rng, n)
        E = random_psd(rng, n) + 0.1 * np.eye(n)
        w = np.linalg.eigvalsh(E)
        dc = DerivedCoefficients(
            n=n, D=D, E=E,
            f=float(rng.uniform(0.0, 2.0)), c=float(rng.uniform(-5.0, 5.0)),
            lambda_bar=float(w[-1]), lambda_bar_2=float(w[-2]),
        )
        psn = prior_stats(PriorSpec("gaussian", n))
        for sol in (
            solve_bp(dc), solve_uop(dc), solve_pp(dc, 1e-8),
            solve_pop(dc, psn, 1e-8), solve_spop(dc, psn, 1e-8),
        ):
            assert sol.rank == 0
            assert np.allclose(sol.projection, 0.0, atol=1e-9)
    # profitability of signaling is invariant under hypothesis scaling
    for s in range(10):
        n = int(rng.integers(2, 5))
        qf = random_reduced_game(rng, n)
        dc1 = derive_coefficients(qf, hypothesis_wasserstein(1.0, n))
        base = signaling_profitable(dc1)
        for scale in (0.25, 0.5, 2.0, 10.0):
            check = signaling_profitable(dc1.scaled(scale))
            assert check.profitable == base.profitable
            assert check.applicable == base.applicable


@reported("11 prior-geometry constants and dimension limit")
def test_a11_constants():
    for n in (1, 2, 3, 10):
        assert prior_stats(PriorSpec("gaussian", n)).gamma_bar == pytest.approx(
            GAUSS_LIMIT, abs=1e-12
        )
    assert GAUSS_LIMIT == pytest.approx(1.7199504, abs=1e-6)
    assert upsilon(1) == pytest.approx(5.0 / 3.0, abs=1e-15)
    vals = [upsilon(n) for n in range(1, 51)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(GAUSS_LIMIT - upsilon(1_000_000)) <= 1e-6


@reported("12 radius-threshold policy strictly beats every linear policy")
def test_a12_radius_threshold_counterexample():
    # The exact optimum over all radii is only ~3.8e-9 below the best linear
    # value here (the threshold sits deep in the chi(3) tail), so the margin
    # requirement is placed on the witness radius: it must clear the critical
    # radius R* by at least 0.1 while the cost stays strictly below 112,
    # resolvable in float64 (eps(112) ~ 1.4e-14).
    k, n, eps = 2.0, 3, 10.0
    best_linear = opening_linear_best(k, n, eps)
    assert best_linear == pytest.approx(k * k * n + eps * eps, abs=1e-12)
    r_star = 2.0 * eps * abs(1.0 - k) / (2.0 * k - 1.0)
    scan = radius_scan(k, n, eps, r_star + 0.1, 4.0 * r_star, 40)
    best_r, best_cost = min(scan, key=lambda rc: rc[1])
    assert best_r >= r_star + 0.1 - 1e-12
    assert best_cost < best_linear - 1e-10
