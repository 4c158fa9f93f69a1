import math
import warnings

import numpy as np
import pytest

from conftest import random_psd, random_reduced_game, random_sym, trace_box_oracle
from lqpersuasion import (
    PriorSpec,
    PriorStats,
    beta_max_value,
    derive_coefficients,
    extract_projection,
    h_eq,
    hypothesis_wasserstein,
    neg_projections,
    no_info_optimal,
    pessimistic_noinfo_threshold,
    prior_stats,
    signaling_profitable,
    solve_bp,
    solve_penalized,
    solve_pop,
    solve_pp,
    solve_spop,
    solve_uop,
    spop_objective,
    sweep,
)
from lqpersuasion import instance, programs
from lqpersuasion.demo import bench3_form, bench3_hypothesis
from lqpersuasion.errors import (
    InfeasibleTrace, InvalidMatrix, InvalidParameter, InvalidTolerance, NotPSD, NumericalFailure,
)


@pytest.fixture(scope="module")
def bench_dc():
    return derive_coefficients(bench3_form(), bench3_hypothesis(1.0))


@pytest.fixture(scope="module")
def gauss3():
    return prior_stats(PriorSpec("gaussian", 3))


# --------------------------------------------------------------------------
# trace-constrained oracle
# --------------------------------------------------------------------------


def test_h_eq_diagonal_closed_form():
    d = np.diag([-1.0, 1.0])
    e = np.eye(2)
    for t in (0.0, 0.4, 1.0, 1.3, 2.0):
        res = h_eq(d, e, t)
        expect = -min(t, 1.0) + max(t - 1.0, 0.0)
        assert res.value == pytest.approx(expect, abs=1e-9)
        assert float(np.sum(e * res.X)) == pytest.approx(t, abs=1e-8)


# D's block on ker E is 0 and D couples it to range E: the pencil (D, -E) has
# no finite eigenvalue, so h is smooth, h(t) = -2*sqrt(t*(1 - t))
_JUMP_FREE = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0]))


def _rotated(rng, d, ed):
    """(Q D Q^T, Q diag(ed) Q^T) for a random orthogonal Q."""
    q, _ = np.linalg.qr(rng.normal(size=d.shape))
    return q @ d @ q.T, (q * ed) @ q.T


def _oracle_fuzz_cases(rng):
    for trial in range(60):
        n = int(rng.integers(2, 6))
        d = random_sym(rng, n)
        e = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        yield d, e
    for n in (3, 7, 12):
        # commuting diagonal pair, E singular on every third coordinate
        ed = rng.uniform(0.2, 2.0, n)
        ed[::3] = 0.0
        yield np.diag(rng.normal(size=n)), np.diag(ed)
        # E = I and D with pairwise repeated eigenvalues
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
        yield (q * w) @ q.T, np.eye(n)
    for _ in range(3):
        yield random_sym(rng, 20), random_psd(rng, 20, rank=1)
    for n in (5, 30):
        # rank-one E, with a random D and with D = 2E - I, whose every
        # target lies inside the one jump of g
        u = rng.normal(size=n)
        yield random_sym(rng, n), np.outer(u, u)
        yield 2.0 * np.outer(u, u) - np.eye(n), np.outer(u, u)
    for n, r in ((4, 2), (8, 3), (12, 9)):
        # D's block on E's kernel (the last n - r coordinates) is singular
        d = random_sym(rng, n)
        w, u = np.linalg.eigh(d[r:, r:])
        w[0] = 0.0
        d[r:, r:] = (u * w) @ u.T
        yield _rotated(rng, d, np.r_[rng.uniform(0.2, 2.0, r), np.zeros(n - r)])
    yield _JUMP_FREE


def _weak_duality_bracket(d, e, t):
    """The interval that holds every dual multiplier of h(t), 0 < t < Tr E:
    outside it, the dual bounds of X = I and X = 0 fall below phi(0)."""
    w = np.linalg.eigvalsh(d)
    trE = float(np.trace(e))
    return -float(np.sum(np.maximum(w, 0.0))) / (trE - t), float(np.sum(np.maximum(-w, 0.0))) / t


def test_h_eq_primal_dual_and_feasibility_fuzz():
    # h_eq(D, s*E, s*t) is the same program as h_eq(D, E, t) at every scale s
    rng = np.random.default_rng(30)
    for d, e in _oracle_fuzz_cases(rng):
        trE = float(np.trace(e))
        for q in (0.0, 1e-6, 0.3, 0.7, 1.0 - 1e-6, 1.0):
            for s in (1.0, 1e-4, 1e-8):
                res = h_eq(d, s * e, s * q * trE)
                if 0.0 < s * q * trE < float(np.trace(s * e)):
                    lo, hi = _weak_duality_bracket(d, s * e, s * q * trE)
                    assert lo <= res.lambda_dual <= hi
                w = np.linalg.eigvalsh(res.X)
                assert w.min() > -1e-9 and w.max() < 1.0 + 1e-9
                assert float(np.sum(s * e * res.X)) == pytest.approx(
                    s * q * trE, abs=1e-7 * s * (1.0 + trE)
                )
                gap_tol = 1e-8 * (
                    1.0 + abs(res.value) + np.abs(d).max() + np.abs(e).max()
                )
                assert abs(res.value - res.dual_value) <= gap_tol
                if s == 1.0:
                    unscaled = res.value
                assert abs(res.value - unscaled) <= gap_tol
                _assert_interpolates_projections(res, s * e)


def _assert_interpolates_projections(res, e):
    """res.projections are orthogonal projections P_a, P_b ordered by their
    traces of E around t, Tr(E P_a) <= t <= Tr(E P_b), and
    X = P_a + theta*(P_b - P_a) for some theta in [0, 1]."""
    ps = res.projections
    assert len(ps) in (1, 2)
    for p in ps:
        assert np.abs(p - p.T).max() <= 1e-14
        assert np.abs(p @ p - p).max() <= 1e-12
        assert float(np.trace(p)) == pytest.approx(round(float(np.trace(p))), abs=1e-12)
    p_a, p_b = ps[0], ps[-1]
    slack = 1e-12 * float(np.trace(e))
    assert float(np.sum(e * p_a)) - slack <= res.t <= float(np.sum(e * p_b)) + slack
    step = p_b - p_a
    den = float(np.sum(step * step))
    theta = float(np.sum((res.X - p_a) * step)) / den if den > 0.0 else 0.0
    assert -1e-12 <= theta <= 1.0 + 1e-12
    assert np.abs(res.X - (p_a + theta * step)).max() <= 1e-12


def test_h_eq_jump_free_pencil():
    d, e = _JUMP_FREE
    pen = programs._Pencil(d, e)
    tol = 1e-9 * (1.0 + pen.normD + pen.normE)  # h_eq's default
    for t in (1e-6, 0.3, 0.7, 1.0 - 1e-6):
        res = h_eq(d, e, t, pencil=pen)
        assert abs(res.value - -2.0 * math.sqrt(t * (1.0 - t))) <= tol, t


def test_h_eq_eigensolves_per_call_do_not_grow_with_n(monkeypatch):
    # a cold call descends the gap tree from its root, one probe per level
    # (each about halves the gap on a smooth stretch of h), and reads two
    # projections: a bounded number of eigensolves per call, not one per
    # pencil eigenvalue
    eigh = np.linalg.eigh
    calls = [0]

    def counting_eigh(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(35)
    for n in (10, 30, 60):
        calls[0] = 0
        n_calls = 0
        for _ in range(3):
            d = random_sym(rng, n)
            e = random_psd(rng, n)
            trE = float(np.trace(e))
            for q in np.linspace(0.1, 0.9, 9):
                h_eq(d, e, float(q) * trE)
                n_calls += 1
        assert calls[0] / n_calls <= 16.0, (n, calls[0] / n_calls)
    # rank-one E with D = 2E - I: every target lies inside the one true jump,
    # a linear piece of h that one probe at its chord slope closes
    calls[0] = 0
    u = rng.normal(size=100)
    e = np.outer(u, u)
    d = 2.0 * e - np.eye(100)
    qs = [*np.linspace(0.1, 0.9, 9), 0.9999]
    for q in qs:
        h_eq(d, e, float(q) * float(np.trace(e)))
    assert calls[0] / len(qs) <= 16.0, calls[0] / len(qs)


def _memo_pair(case):
    rng = np.random.default_rng(37)
    if case == "bench3":
        dc = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
        return dc.D, dc.E
    if case == "n30":
        return random_sym(rng, 30), random_psd(rng, 30)
    if case == "commuting":
        ed = rng.uniform(0.2, 2.0, 8)
        ed[::3] = 0.0
        return np.diag(rng.normal(size=8)), np.diag(ed)
    if case == "jump-free":
        return _JUMP_FREE
    # rank-one E with D = 2E - I: every target lies inside the one true jump.
    # At |u|^2 ~ 1e4 the entries of D + lam*E cancel at the jump with a
    # rounding error beyond the zero band
    u = 10.0 * np.random.default_rng(34).normal(size=100)
    e = np.outer(u, u)
    return 2.0 * e - np.eye(100), e


@pytest.mark.parametrize("case", ["bench3", "n30", "commuting", "jump-free", "rank-one"])
def test_h_eq_probe_memo_is_exact(monkeypatch, case):
    # the calls on one pencil read the probes of the earlier calls from its
    # memo; each result must be bitwise the one a fresh pencil computes
    d, e = _memo_pair(case)
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    trE = float(np.trace(e))
    qs = np.random.default_rng(38).permutation(np.linspace(0.05, 0.95, 10))
    shared = programs._Pencil(d, e)
    got = [h_eq(d, e, float(q) * trE, pencil=shared) for q in qs]
    eigh[0] = 0
    for q, g in zip(qs, got):
        want = h_eq(d, e, float(q) * trE)
        for a, b in ((g.value, want.value), (g.dual_value, want.dual_value),
                     (g.lambda_dual, want.lambda_dual), (g.X, want.X)):
            assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
    # the shared calls did read entries of earlier calls: fewer multipliers
    # than the fresh pencils eigensolved, as every descent starts from the
    # same root
    assert len(shared.probes) < eigh[0], (len(shared.probes), eigh[0])
    # and left no n^2 array in the record: a projection is formed per call
    assert all(q._proj is None for pts in shared.probes.values() for q in pts)


def test_programs_share_probes_on_one_record(monkeypatch):
    # PP, POP and SPOP on one n=30 record descend one gap tree, and the
    # record solves each multiplier once (again only for a projection read
    # after the split moved on).  Measured: 13 eigh calls, against 179 when
    # each oracle call solved its own probes
    qf = random_reduced_game(np.random.default_rng(34), 30)
    dc = derive_coefficients(qf, hypothesis_wasserstein(0.5, 30))
    ps = prior_stats(PriorSpec("gaussian", 30))
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    solve_pp(dc)
    solve_pop(dc, ps)
    solve_spop(dc, ps)
    assert eigh[0] <= 100, eigh[0]


def test_h_eq_convex_and_nonincreasing_then_flat():
    rng = np.random.default_rng(31)
    d = random_sym(rng, 4)
    e = random_psd(rng, 4)
    p_lt = neg_projections(d)
    t_bar = float(np.sum(e * p_lt))
    ts = np.linspace(0.0, float(np.trace(e)), 60)
    hs = [h_eq(d, e, float(t)).value for t in ts]
    for i in range(1, len(ts) - 1):
        assert hs[i - 1] + hs[i + 1] - 2.0 * hs[i] >= -1e-6 * (1.0 + abs(hs[i]))
    for t1, t2, h1, h2 in zip(ts, ts[1:], hs, hs[1:]):
        if t2 <= t_bar:
            assert h2 <= h1 + 1e-8


def test_h_eq_matches_projected_gradient_oracle():
    rng = np.random.default_rng(32)
    for s in range(6):
        n = int(rng.integers(2, 5))
        d = random_sym(rng, n)
        e = random_psd(rng, n)
        trE = float(np.trace(e))
        for q in (0.2, 0.5, 0.8):
            t = q * trE
            ref = trace_box_oracle(d, e, t, n_restarts=4, outer=8, inner=250, seed=s)
            val = h_eq(d, e, t).value
            assert val == pytest.approx(ref, abs=1e-5 * (1.0 + abs(ref)))
            # the oracle's iterate is feasible, so it can only overestimate
            assert val <= ref + 1e-7 * (1.0 + abs(ref))


def test_h_eq_infeasible_trace():
    with pytest.raises(InfeasibleTrace):
        h_eq(np.eye(2), np.eye(2), -0.5)
    with pytest.raises(InfeasibleTrace):
        h_eq(np.eye(2), np.eye(2), 2.5)
    # the slack is relative to Tr E: at Tr E = 1e-9 these targets are as far
    # outside [0, Tr E] as the ones above
    e = 0.5e-9 * np.eye(2)
    for t in (1.5e-9, -0.5e-9):
        with pytest.raises(InfeasibleTrace):
            h_eq(np.eye(2), e, t)


def test_h_eq_rejects_non_finite_input():
    # a nan or inf entry of D or E is refused where the record is built, and
    # a nan target fails the range test, as no trace equals it
    eye = np.eye(2)
    for d, e in ((np.array([[np.nan]]), np.eye(1)), (eye, np.diag([np.inf, 1.0])),
                 (np.diag([-np.inf, 1.0]), eye)):
        with pytest.raises(InvalidMatrix):
            h_eq(d, e, 0.5)
    with pytest.raises(InfeasibleTrace):
        h_eq(-eye, eye, math.nan)


def test_h_eq_rejects_bad_tolerance(monkeypatch):
    # with tol = nan the closing gap check never fails, and with tol < 0 no
    # gap certifies; both are refused before any eigensolve
    rng = np.random.default_rng(0)
    d, e = random_sym(rng, 6), random_psd(rng, 6)
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    for tol in (math.nan, -1.0):
        with pytest.raises(InvalidTolerance):
            h_eq(d, e, 0.1 * float(np.trace(e)), tol=tol)
    assert eigh[0] == 0


def test_h_eq_zero_e():
    d = np.diag([-2.0, 3.0])
    res = h_eq(d, np.zeros((2, 2)), 0.0)
    assert res.value == pytest.approx(-2.0)


def _endpoint_band_case(case):
    """(D, E, t, gap tolerance, value, X) of an ``h_eq`` target near an end
    of [0, Tr E]; value and X are None where no closed form is known."""
    if case == "nonsingular":
        # h keeps falling inside [0, 1e-9*Tr E] when E is nonsingular: the
        # minimum at t = 5e-11 is -1/2, at X = diag(0, 1/2), where the closed
        # form of the endpoint t = 0 reads 0 with a zero gap
        return (np.diag([1.0, -1.0]), np.diag([1.0, 1e-10]), 5e-11, 1e-9,
                -0.5, np.diag([0.0, 0.5]))
    if case == "singular-bottom":
        # the same inside [0, 1e-9*Tr E] for a singular E: -3/2 at
        # X = diag(0, 1/2, 1), where t = 0 reads -1
        return (np.diag([1.0, -1.0, -1.0]), np.diag([1.0, 1e-10, 0.0]), 5e-11, 1e-9,
                -1.5, np.diag([0.0, 0.5, 1.0]))
    if case == "singular-top":
        # and inside [Tr E - 1e-9*Tr E, Tr E]: -3/2 at X = diag(1, 1/2, 1),
        # where t = Tr E reads -1
        return (np.diag([-1.0, 1.0, -1.0]), np.diag([1.0, 1e-10, 0.0]), 1.0 + 0.5e-10, 1e-9,
                -1.5, np.diag([1.0, 0.5, 1.0]))
    if case == "nearly-singular-top":
        # a nonsingular E with lambda_min(E) = 1e-7: near t = Tr E the
        # multiplier is about -|D|/lambda_min(E), where sums of D + lam*E
        # cancel terms of size |lam|*Tr E
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        e = (q * np.array([1e-7, 0.5, 1.0, 2.0])) @ q.T
        d = a + a.T
        tol = 1e-9 * (1.0 + np.abs(np.linalg.eigvalsh(d)).max() + 2.0)  # h_eq's default
        return d, e, float(np.trace(e)) * (1.0 - 1e-9), tol, None, None
    # Tr E >> t: X meets its trace target to the rounding of a trace of E,
    # not merely within 1e-9*Tr E
    rng = np.random.default_rng(202)
    n = int(rng.integers(2, 8))
    d, e = random_sym(rng, n), random_psd(rng, n)
    tol = 1e-9 * (1.0 + np.abs(np.linalg.eigvalsh(d)).max() + np.linalg.eigvalsh(e).max())
    return d, e, 1e-5 * float(np.trace(e)), tol, None, None


@pytest.mark.parametrize("case", ["nonsingular", "singular-bottom", "singular-top",
                                  "nearly-singular-top", "trace-slip"])
def test_h_eq_nonsingular_e_has_no_endpoint_band(case):
    d, e, t, tol, value, x = _endpoint_band_case(case)
    res = h_eq(d, e, t)
    assert abs(res.value - res.dual_value) <= tol
    trE = float(np.trace(e))
    assert abs(float(np.sum(e * res.X)) - t) <= 4.0 * len(d) * np.finfo(float).eps * trE
    w = np.linalg.eigvalsh(res.X)
    assert w.min() > -1e-12 and w.max() < 1.0 + 1e-12
    if value is not None:
        assert res.value == pytest.approx(value, abs=1e-9)
        assert np.allclose(res.X, x, atol=1e-9)


def test_pp_certified_with_nearly_singular_e():
    # min Tr(D S) + sqrt(Tr(E S)) is -1 + sqrt(1e-10) = -0.99999, at the BP
    # projection diag(0, 1); it needs the oracle inside the endpoint band
    dc = instance.DerivedCoefficients(
        n=2, D=np.diag([1.0, -1.0]), E=np.diag([1.0, 1e-10]), f=0.0, c=0.0,
        lambda_bar=0.0, lambda_bar_2=0.0,
    )
    sol = solve_pp(dc, rho=1e-6)
    assert -0.99999 - 1e-12 <= sol.value <= -0.99999 + sol.rho + 1e-12
    assert 0.0 <= sol.rho <= 1e-6
    assert sol.rank == 1
    assert np.allclose(sol.projection, np.diag([0.0, 1.0]))


def test_pp_certifies_tight_rho_at_n100(monkeypatch):
    # dual-value bounds carry no slack proportional to |h| (here ~6e4), so
    # rho = 1e-6 certifies in a few oracle calls on the solve-ladder's n = 100
    # form (a Wasserstein hypothesis eps = 0.5, solved as the CLI does, on
    # the unit derivation scaled by eps)
    rng = np.random.default_rng((1, 100, 0))
    a = rng.normal(size=(200, 200))
    qf = instance.QuadraticForm(n=100, Q=a @ a.T, l=rng.normal(size=200), r=0.0)
    dc = derive_coefficients(qf, hypothesis_wasserstein(1.0, 100)).scaled(0.5)
    heq = _count_calls(monkeypatch, programs, "h_eq")
    sol = solve_pp(dc, rho=1e-6)
    assert 0.0 <= sol.rho <= 1e-6
    assert heq[0] <= 50, heq[0]


def test_h_eq_rejects_indefinite_e():
    # the pencil reduction, the endpoint closed forms and the [0, Tr E]
    # feasibility test all assume E >= 0.  Here the minimum is -1.5, at
    # X = diag(1/2, 1); unchecked, the call returned -1 at an X with
    # Tr(E X) = -1
    with pytest.raises(NotPSD):
        h_eq(-np.eye(2), np.diag([2.0, -1.0]), 0.0)


def test_singular_pencil_jumps_are_those_of_its_regular_part():
    # a common null vector of D and E contributes an eigenvalue of D + lam*E
    # that is 0 at every lam: it gives no jump, and h is that of the pencil
    # without it
    rng = np.random.default_rng(40)
    for n, r in ((3, 1), (6, 3), (10, 7)):
        d = random_sym(rng, n)
        d[:, -1] = d[-1, :] = 0.0
        ed = np.r_[rng.uniform(0.2, 2.0, r), np.zeros(n - r)]
        dq, eq = _rotated(rng, d, ed)
        for q in (0.0, 0.3, 0.7, 1.0):
            t = q * float(ed.sum())
            ref = h_eq(d[:-1, :-1], np.diag(ed[:-1]), t).value
            assert h_eq(dq, eq, t).value == pytest.approx(ref, abs=1e-8 * (1.0 + abs(ref)))


# --------------------------------------------------------------------------
# programs on the benchmark instance
# --------------------------------------------------------------------------


def test_bp_full_revelation_on_bench(bench_dc):
    sol = solve_bp(bench_dc)
    assert sol.value == pytest.approx(167.0, abs=1e-9)
    assert sol.rank == 3
    assert np.allclose(sol.projection, np.eye(3), atol=1e-9)


def test_uop_is_bp_plus_lambda_bar(bench_dc):
    bp = solve_bp(bench_dc)
    uop = solve_uop(bench_dc)
    assert uop.value == pytest.approx(bp.value + bench_dc.lambda_bar, abs=1e-12)
    assert uop.rank == bp.rank


def test_pp_matches_dense_scalar_grid(bench_dc, gauss3):
    # PP and SPOP against one dense grid of h values.  SPOP's beta-maximized
    # penalty psi is linear in t below t_check and kappa*sqrt(f + t) above,
    # with equal slopes at t_check, so it is concave and nondecreasing: the
    # property the certified search relies on.  t_check lies inside the grid
    # for eps <= 2.2; at eps = 3 it lies beyond t_bar and SPOP's optimum is
    # in the linear part of psi
    kappa = gauss3.kappa
    for eps in (0.5, 1.0, 1.6, 2.2, 3.0):
        dc = bench_dc.scaled(eps)
        ts = np.linspace(0.0, dc.t_bar, 4001)
        hs = np.array([h_eq(dc.D, dc.E, float(t)).value for t in ts])
        lb = dc.lambda_bar
        t_check = 4.0 * lb * lb / (kappa * kappa) - dc.f
        psi = np.array([lb * beta_max_value(kappa * math.sqrt(dc.f + t) / lb) for t in ts])
        assert np.all(np.diff(psi) >= 0.0)
        assert np.all(np.diff(psi, 2) <= 1e-12 * (1.0 + np.abs(psi[1:-1])))
        assert (0.0 < t_check < dc.t_bar) == (eps <= 2.2)
        pp_ref = min(hs + np.sqrt(dc.f + ts)) + dc.c + lb
        spop_ref = min(hs + psi) + dc.c
        # the dense grid only provides an upper bound; the solver must sit
        # within its certificate below it
        pp, spop = solve_pp(dc, 1e-6), solve_spop(dc, gauss3, 1e-6)
        for sol, ref in ((pp, pp_ref), (spop, spop_ref)):
            assert sol.value <= ref + 1e-9, (eps, sol.program)
            assert sol.value >= ref - 2e-4, (eps, sol.program)  # grid resolution slack
    # eps = 3: the optimum is in the linear part of psi
    assert spop.rank == 2
    assert float(np.sum(dc.E * spop.projection)) < t_check


def test_rho_refinement_is_consistent(bench_dc):
    dc = bench_dc.scaled(1.3)
    coarse = solve_pp(dc, 1e-2)
    fine = solve_pp(dc, 1e-6)
    assert fine.value <= coarse.value + 1e-9
    assert coarse.value - fine.value <= 1e-2 + 1e-9
    assert coarse.rho <= 1e-2 and fine.rho <= 1e-6


def test_solution_structure(bench_dc, gauss3):
    for sol in (
        solve_pp(bench_dc, 1e-5),
        solve_pop(bench_dc, gauss3, 1e-5),
        solve_spop(bench_dc, gauss3, 1e-5),
    ):
        w_sigma = np.linalg.eigvalsh(sol.projection)
        assert w_sigma.min() > -1e-8 and w_sigma.max() < 1.0 + 1e-8
        p = sol.projection
        assert np.allclose(p @ p, p, atol=1e-9)
        assert sol.rank == int(round(float(np.trace(p))))
        assert sol.rho >= 0.0


def test_pop_beta_weighting_below_pp(bench_dc, gauss3):
    pp = solve_pp(bench_dc, 1e-6)
    pop = solve_pop(bench_dc, gauss3, 1e-6)
    uop = solve_uop(bench_dc)
    assert uop.value <= pop.value + 1e-6
    assert pop.value <= pp.value + 1e-6


def test_beta_max_value_against_grid():
    grid = np.linspace(0.0, 1.0, 10_001)
    for zeta in (0.0, 0.5, 1.0, 1.9, 2.0, 2.5, 8.0):
        brute = float(np.max((1.0 - grid**2) + grid * zeta))
        assert beta_max_value(zeta) == pytest.approx(brute, abs=1e-7)


def test_spop_value_dominated_by_objective_at_any_point(bench_dc, gauss3):
    rng = np.random.default_rng(33)
    sol = solve_spop(bench_dc, gauss3, 1e-6)
    # no random feasible point may beat the reported optimum beyond rho
    for _ in range(200):
        x = random_sym(rng, 3)
        w, v = np.linalg.eigh(x)
        p = (v * np.clip(rng.uniform(0, 1.2, 3), 0.0, 1.0)) @ v.T
        assert spop_objective(bench_dc, gauss3.kappa, p) >= sol.value - 1e-5
    # and the reported optimum is achieved by its own projection
    assert spop_objective(bench_dc, gauss3.kappa, sol.projection) >= sol.value - 1e-9


def test_spop_between_pop_and_pp(bench_dc, gauss3):
    for eps in (0.3, 1.0, 1.7):
        dc = bench_dc.scaled(eps)
        pp = solve_pp(dc, 1e-6)
        spop = solve_spop(dc, gauss3, 1e-6)
        pop = solve_pop(dc, gauss3, 1e-6)
        assert pop.value <= spop.value + 1e-5
        assert spop.value <= pp.value + 1e-5


def test_spop_without_kappa_is_uop(bench_dc):
    # kappa = 0 makes SPOP's penalty the constant lambda_bar, the limit the
    # search handles like any other: the BP projection at UOP's value
    qf10 = random_reduced_game(np.random.default_rng(36), 10)
    dc10 = derive_coefficients(qf10, hypothesis_wasserstein(0.5, 10))
    assert dc10.f > 0.0
    for dc in (bench_dc, dc10):
        ps = PriorStats(family="gaussian", n=dc.n, E_abs_x1=0.0, E_norm_x=0.0,
                        kappa=0.0, beta_bar=0.0, gamma_bar=2.0)
        rho = 1e-6 * (1.0 + abs(solve_bp(dc).value))
        sol = solve_spop(dc, ps, rho)
        assert abs(sol.value - solve_uop(dc).value) <= rho
        assert sol.rank == solve_bp(dc).rank


def test_extract_projection_prefers_low_rank_on_ties():
    # the nested projections that X = diag(1, 0.6, 0) interpolates, out of
    # rank order: the candidates are scored by ascending rank
    cands = [np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0])]
    p, s = extract_projection(cands, lambda q: 0.0)  # constant objective: all tie
    assert np.allclose(p, np.zeros((3, 3)))
    assert s == 0.0
    p2, s2 = extract_projection(cands, lambda q: -float(np.trace(q)))
    assert np.allclose(p2, np.diag([1.0, 1.0, 0.0]))
    assert s2 == pytest.approx(-2.0)


def test_solve_pp_scores_the_zero_projection():
    # D's eigenvalue -5e-12 on E's kernel is within the BP zero band, so BP
    # reveals nothing; the search's best point is the origin on E's kernel, a
    # rank-1 projection whose PP value 1.5 - 5e-12 ties with the empty
    # projection's 1.5 within the 1e-11 band, and the tie goes to rank 0
    dc = instance.DerivedCoefficients(
        n=2, D=np.diag([1.0, -5e-12]), E=np.diag([1.0, 0.0]), f=1.0, c=0.0,
        lambda_bar=0.5, lambda_bar_2=0.0,
    )
    assert solve_bp(dc).rank == 0
    (_, searched, _), = programs._minimize_penalized(dc, [1.0], 1.0, [0.0], 1e-6)
    assert programs._rank_projection(searched) == 1
    sol = solve_pp(dc, 1e-6)
    assert (sol.rank, sol.value) == (0, 1.5)
    assert not sol.projection.any()


def test_solve_penalized_rejects_bad_tolerance(bench_dc):
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidTolerance):
            solve_penalized(bench_dc, alpha=1.0, offset=0.0, rho=rho)


def test_solve_penalized_rejects_non_finite_weights(monkeypatch):
    # a nan or infinite alpha, offset or lam_bar is refused before any
    # probe, and without a warning
    dc = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    good = dict(alpha=1.0, offset=0.0, lam_bar=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in good:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidParameter):
                    solve_penalized(dc, rho=1e-6, **{**good, key: bad})
    assert eigh[0] == 0


def test_programs_on_one_dc_share_its_oracle_record(monkeypatch, gauss3):
    # PP, POP and SPOP minimize over the same h(t) of the same (D, E): each
    # trace target is evaluated once and E, whose split gives the endpoint
    # closed forms, is decomposed once
    h_eq_orig = programs.h_eq
    targets: list[tuple[int, float]] = []

    def counting_h_eq(D, E, t, *args, **kwargs):
        targets.append((hash(np.asarray(D).tobytes()), float(t)))
        return h_eq_orig(D, E, t, *args, **kwargs)

    monkeypatch.setattr(programs, "h_eq", counting_h_eq)
    eighs = _record_eigh_inputs(monkeypatch)
    qf10 = random_reduced_game(np.random.default_rng(36), 10)
    cases = (
        (derive_coefficients(bench3_form(), bench3_hypothesis(1.3)), gauss3),
        (derive_coefficients(qf10, hypothesis_wasserstein(0.5, 10)),
         prior_stats(PriorSpec("gaussian", 10))),
    )
    for dc, ps in cases:
        targets.clear()
        eighs.clear()
        solve_pp(dc, 1e-6)
        solve_pop(dc, ps, 1e-6)
        solve_spop(dc, ps, 1e-6)
        assert targets and len(set(targets)) == len(targets)
        assert eighs.count(dc.pencil.E.tobytes()) == 1


def _solve_penalized_program(program, dc, ps, rho):
    """(solution, objective) of PP, POP or SPOP on dc."""
    if program == "PP":
        weights = programs._weights("PP", dc.c, dc.lambda_bar)
        return solve_pp(dc, rho), programs._objective(dc, *weights)
    if program == "POP":
        weights = programs._weights("POP", dc.c, dc.lambda_bar, ps.kappa, ps.beta_bar)
        return solve_pop(dc, ps, rho), programs._objective(dc, *weights)
    weights = programs._weights("SPOP", dc.c, dc.lambda_bar, ps.kappa)
    return solve_spop(dc, ps, rho), programs._objective(dc, *weights)


def _seeded_n30_rank_one():
    # the Wasserstein n = 30 instance whose PP optimum is a rank-one
    # projection; its value was once reported 126.8*rho below that
    # projection's objective, with a certified rho of 0
    rng = np.random.default_rng((1000, 30, 0))
    a = rng.normal(size=(60, 60))
    qf = instance.QuadraticForm(n=30, Q=a @ a.T, l=np.zeros(60), r=0.0)
    return derive_coefficients(qf, hypothesis_wasserstein(1.0, 30)).scaled(2.5)


def test_penalized_value_is_its_projections_objective(bench_dc, gauss3):
    qf10 = random_reduced_game(np.random.default_rng(36), 10)
    cases = (
        (bench_dc.scaled(1.3), gauss3, 1e-6),
        (derive_coefficients(qf10, hypothesis_wasserstein(0.5, 10)),
         prior_stats(PriorSpec("gaussian", 10)), 1e-6),
        (_seeded_n30_rank_one(), prior_stats(PriorSpec("gaussian", 30)), 1e-6),
    )
    for dc, ps, rho in cases:
        for program in ("PP", "POP", "SPOP"):
            sol, obj = _solve_penalized_program(program, dc, ps, rho)
            assert sol.value == obj(sol.projection), sol.program
            assert 0.0 <= sol.rho <= rho


def _tight_minimum(dc, lo, hi):
    """PP's minimum over traces in [lo, hi] where its objective is unimodal:
    golden-section search on ``h_eq`` with a tolerance of 1e-10."""
    def j(t):
        h = h_eq(dc.D, dc.E, t, tol=1e-10).value
        return h + math.sqrt(dc.f + t) + dc.c + dc.lambda_bar

    g = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = j(x1), j(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = j(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = j(x2)
    return min(f1, f2)


def _seeded_n10_trap():
    # the seed-1 solve-ladder n10-6 instance, solved as the CLI solves it:
    # a search that bounds its gap at t = 0 by j(0) instead of the right
    # end's line (the origin has none) stops above the minimum here and
    # certifies it
    rng = np.random.default_rng((1, 10, 6))
    a = rng.normal(size=(20, 20))
    qf = instance.QuadraticForm(n=10, Q=a @ a.T, l=np.zeros(20), r=0.0)
    base = derive_coefficients(qf, hypothesis_wasserstein(1.0, 10))
    return base.scaled(0.5), programs.default_rho(base)


@pytest.mark.parametrize("case", ["n30-rank-one", "n10-trap"])
def test_pp_value_within_rho_of_tight_minimum(case):
    # the value is the objective of the returned projection, so it lies
    # above the true minimum m, and the certificate puts it within rho of m.
    # m comes from a tight oracle on [t/2, 2t] around the returned trace t,
    # where a 41-point grid shows the objective unimodal on both instances
    if case == "n30-rank-one":
        dc, rho = _seeded_n30_rank_one(), 1e-6
    else:
        dc, rho = _seeded_n10_trap()
    sol = solve_pp(dc, rho)
    t = float(np.sum(dc.E * sol.projection))
    m = _tight_minimum(dc, 0.5 * t, 2.0 * t)
    assert m - 1e-9 <= sol.value <= m + rho, (sol.value, m, (sol.value - m) / rho)


def test_search_records_interleaved_match_fresh(gauss3):
    # each record keeps the gap tree of its searches, keyed by the traces of
    # the gaps' ends: solves interleaved over two records and several scales
    # of each must be bitwise those of a fresh record per solve
    qf10 = random_reduced_game(np.random.default_rng(61), 10)
    units = (
        (lambda: derive_coefficients(bench3_form(), bench3_hypothesis(1.0)), gauss3),
        (lambda: derive_coefficients(qf10, hypothesis_wasserstein(1.0, 10)),
         prior_stats(PriorSpec("gaussian", 10))),
    )
    shared = [make() for make, _ in units]

    def key(sol):
        return (sol.value, sol.rank, sol.rho, sol.projection.tobytes())

    for eps in (1.3, 0.4, 2.2, 0.9):
        for base, (make, ps) in zip(shared, units):
            rho = 1e-6 * (1.0 + abs(solve_bp(base).value))
            for program in ("PP", "POP", "SPOP"):
                got = _solve_penalized_program(program, base.scaled(eps), ps, rho)[0]
                want = _solve_penalized_program(program, make().scaled(eps), ps, rho)[0]
                assert key(got) == key(want), (eps, program)


# --------------------------------------------------------------------------
# structural results
# --------------------------------------------------------------------------


def test_psd_d_forces_no_information(gauss3):
    rng = np.random.default_rng(34)
    for _ in range(10):
        q22 = random_psd(rng, 3)
        q12 = 0.5 * random_psd(rng, 3)  # keeps D = Q12 + Q21 + Q22 PSD
        q = np.block([[random_psd(rng, 3), q12], [q12.T, q22]])
        q = q + (1e-6 - min(0.0, float(np.min(np.linalg.eigvalsh(q))))) * np.eye(6)
        qf_dc = derive_coefficients(
            __import__("lqpersuasion").QuadraticForm(n=3, Q=q, l=np.zeros(6), r=0.0),
            bench3_hypothesis(1.0),
        )
        assert no_info_optimal(qf_dc)
        bp = solve_bp(qf_dc)
        pp = solve_pp(qf_dc, 1e-7)
        pop = solve_pop(qf_dc, gauss3, 1e-7)
        spop = solve_spop(qf_dc, gauss3, 1e-7)
        for sol in (bp, pp, pop, spop):
            assert sol.rank == 0
            assert np.allclose(sol.projection, 0.0, atol=1e-9)
        assert bp.value == pytest.approx(qf_dc.c, abs=1e-8)
        assert pp.value == pytest.approx(
            qf_dc.c + qf_dc.lambda_bar + math.sqrt(qf_dc.f), abs=1e-6
        )


def test_signaling_profitable_scale_invariant(bench_dc):
    base = signaling_profitable(bench_dc)
    assert base.applicable
    for s in (0.1, 0.5, 2.0, 25.0):
        check = signaling_profitable(bench_dc.scaled(s))
        assert check.applicable
        assert check.profitable == base.profitable


def test_signaling_profitable_extremes():
    from lqpersuasion import DerivedCoefficients

    # strongly negative D with a tiny penalty: signaling provably helps
    dc_good = DerivedCoefficients(
        n=3, D=-100.0 * np.eye(3), E=np.diag([0.1, 0.05, 0.01]), f=0.0, c=0.0,
        lambda_bar=1.0, lambda_bar_2=0.5,
    )
    assert bool(signaling_profitable(dc_good))
    # barely negative D with a huge penalty: the sufficient test says nothing
    dc_weak = DerivedCoefficients(
        n=3, D=-0.01 * np.eye(3), E=1000.0 * np.eye(3), f=0.0, c=0.0,
        lambda_bar=1.0, lambda_bar_2=0.5,
    )
    check_weak = signaling_profitable(dc_weak)
    assert check_weak.applicable and not check_weak.profitable
    # degenerate top eigenvalue: the test declares itself inapplicable
    dc_flat = DerivedCoefficients(
        n=2, D=-np.eye(2), E=np.eye(2), f=0.0, c=0.0,
        lambda_bar=1.0, lambda_bar_2=1.0,
    )
    check = signaling_profitable(dc_flat)
    assert not check.applicable and not check.profitable


def test_pessimistic_noinfo_threshold_bench(bench_dc):
    s = pessimistic_noinfo_threshold(bench_dc)
    lmin = float(np.min(np.linalg.eigvalsh(bench_dc.E)))
    assert s == pytest.approx(43.0**2 / lmin, rel=1e-10)
    # sufficiency: scaling the hypothesis to the threshold radius makes the
    # pessimistic solution reveal nothing
    sol = solve_pp(bench_dc.scaled(math.sqrt(s) * 1.01), 1e-6)
    assert sol.rank == 0


def test_pessimistic_noinfo_threshold_degenerate():
    from lqpersuasion import DerivedCoefficients

    # D >= 0: revealing nothing is already optimal at every scale
    dc_psd = DerivedCoefficients(
        n=2, D=np.eye(2), E=np.eye(2), f=0.0, c=0.0,
        lambda_bar=1.0, lambda_bar_2=1.0,
    )
    assert pessimistic_noinfo_threshold(dc_psd) == 0.0
    # singular E: no scale of the family makes the sufficient condition hold
    dc_singular = DerivedCoefficients(
        n=2, D=-np.eye(2), E=np.diag([1.0, 0.0]), f=0.0, c=0.0,
        lambda_bar=1.0, lambda_bar_2=0.0,
    )
    assert pessimistic_noinfo_threshold(dc_singular) == math.inf


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def test_sweep_values_ordered_and_ranks_monotone(bench_dc, gauss3):
    grid = np.linspace(0.0, 2.5, 26)
    rows = sweep(bench_dc, gauss3, grid, rho=1e-4)
    ranks = [r.rank_pp for r in rows]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    for r in rows:
        assert r.val_uop <= r.val_pop + 1e-9
        assert r.val_pop <= r.val_spop + 1e-9
        assert r.val_spop <= r.val_pp + 1e-9
        assert r.val_pp <= r.val_2uop + 2e-4
        assert r.val_2uop == pytest.approx(2.0 * r.val_uop, abs=1e-12)


def test_sweep_monotone_pp_value(bench_dc, gauss3):
    grid = np.linspace(0.0, 2.5, 26)
    rows = sweep(bench_dc, gauss3, grid, rho=1e-5)
    vals = [r.val_pp for r in rows]
    # a larger credible ball can only hurt the sender
    assert all(b >= a - 1e-5 for a, b in zip(vals, vals[1:]))


def _count_calls(monkeypatch, module, name):
    """Counter of the calls to ``module.name``."""
    orig = getattr(module, name)
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return count


def test_sweep_checks_its_grid_before_any_search(monkeypatch, bench_dc, gauss3):
    # a sweep builds no scaled system per eps, so it checks its grid itself:
    # the first eps that ``scaled`` refuses raises the error ``scaled``
    # gives it, before any search, with at most one call to ``scaled``
    scaled = _count_calls(monkeypatch, instance.DerivedCoefficients, "scaled")
    searches = _count_calls(monkeypatch, programs, "_minimize_penalized")
    # E = 0 and lambda_bar = 1e300: at eps = 1e10 only lambda_bar overflows
    flat = instance.DerivedCoefficients(n=3, D=-np.eye(3), E=np.zeros((3, 3)), f=1.0, c=0.0,
                                        lambda_bar=1e300, lambda_bar_2=0.0)
    factor = "homothety factor must be finite and nonnegative, got "
    cases = (
        (bench_dc, [0.5, math.nan, 1.0], InvalidParameter, factor + "nan"),
        (bench_dc, [0.5, -1.0], InvalidParameter, factor + "-1.0"),
        (bench_dc, [math.inf], InvalidParameter, factor + "inf"),
        (bench_dc, [0.5, 1e200], InvalidMatrix, "coefficient matrices D and E must be finite"),
        (bench_dc, [1e154], InvalidMatrix, "coefficient matrices D and E must be finite"),
        (flat, [0.5, 1e10, math.nan], InvalidParameter,
         "coefficients f, c and lambda_bar must be finite"),
        (flat, [math.nan, 1e10], InvalidParameter, factor + "nan"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dc, grid, error, message in cases:
            scaled[0] = 0
            with pytest.raises(error) as exc:
                sweep(dc, gauss3, grid, 1e-4)
            assert str(exc.value) == message, grid
            assert scaled[0] <= 1
    assert searches[0] == 0
    scaled[0] = 0
    sweep(bench_dc, gauss3, np.linspace(0.0, 2.5, 200), 1e-4)
    assert scaled[0] <= 1 and searches[0] == 3


def _record_eigh_inputs(monkeypatch) -> list[bytes]:
    """The bytes of every matrix passed to ``np.linalg.eigh``, in call order."""
    orig = np.linalg.eigh
    seen: list[bytes] = []

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).tobytes())
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


def test_sweep_shares_one_unit_record(monkeypatch, gauss3):
    # every eps of a homothetic sweep reads the oracle of the unit-scale
    # system, h_eps(t) = h_1(t/eps^2), and PP, POP and SPOP descend the same
    # refinement tree of it: one split of E in all, and few oracle calls
    # per eps
    heq = _count_calls(monkeypatch, programs, "h_eq")
    eighs = _record_eigh_inputs(monkeypatch)
    base = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    rows = sweep(base, gauss3, np.linspace(0.0, 2.5, 200), rho=1e-4)
    assert len(rows) == 200
    assert heq[0] < 100
    assert eighs.count(base.pencil.E.tobytes()) == 1


def test_sweep_eigensolve_count(monkeypatch, gauss3):
    # the 200-point bench3 sweep: one pencil record, one split per probe,
    # and a possible winner's eigenvectors held while its probe's split is
    # at hand; 1355 eigh calls when every solve decomposed its X, 41 when
    # each eps ran its own searches
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    base = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    sweep(base, gauss3, np.linspace(0.0, 2.5, 200), rho=1e-4)
    assert eigh[0] <= 41


def test_sweep_decomposes_d_once(monkeypatch, gauss3):
    # t_bar, the BP projection, the spectrum of D and every eps of the sweep
    # (eps = 0 included) read one eigendecomposition of D, which does not
    # depend on eps
    d = derive_coefficients(bench3_form(), bench3_hypothesis(1.0)).D
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            calls[0] += np.array_equal(a, d)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    base = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    sweep(base, gauss3, np.linspace(0.0, 2.5, 20), rho=1e-4)
    assert calls[0] == 1


def _sweep_case(case):
    """(unit coefficient system, prior stats) of bench3, or of a seeded n = 10
    game with l != 0, whose SPOP runs its penalized search."""
    if case == "bench3":
        qf, n = bench3_form(), 3
    else:
        qf, n = random_reduced_game(np.random.default_rng(61), 10), 10
        assert np.any(qf.l != 0.0)
    return derive_coefficients(qf, hypothesis_wasserstein(1.0, n)), prior_stats(PriorSpec("gaussian", n))


@pytest.mark.parametrize("case", ["bench3", "n10", "n10-scaled"])
def test_sweep_rows_within_rho_of_tight_solves(case):
    # every column of the pass is certified: each row lies within rho of
    # solves at a far tighter rho, with PP's rank, and each value is the
    # objective of a projection, PP's bitwise at the row's own projection.
    # On a scaled base, column eps runs at the unit system's scale 0.7*eps.
    name, _, scaled = case.partition("-")

    def make():
        base, ps = _sweep_case(name)
        return (base.scaled(0.7) if scaled else base), ps

    base, ps = make()
    rho = 1e-4
    rows = sweep(base, ps, np.linspace(0.0, 2.5, 50), rho)
    tight_base, _ = make()
    for r in rows:
        dc = base.scaled(r.epsilon)
        tight = tight_base.scaled(r.epsilon)
        pp = solve_pp(tight, 1e-9)
        assert r.rank_pp == pp.rank == programs._rank_projection(r.projection_pp), r.epsilon
        for got, want in ((r.val_pp, pp), (r.val_spop, solve_spop(tight, ps, 1e-9)),
                          (r.val_pop, solve_pop(tight, ps, 1e-9))):
            assert abs(got - want.value) <= rho, (r.epsilon, want.program)
        pp_weights = programs._weights("PP", dc.c, dc.lambda_bar)
        assert r.val_pp == programs._objective(dc, *pp_weights)(r.projection_pp)
        # the cross-seeding scored SPOP and POP at PP's projection too
        assert r.val_spop <= spop_objective(dc, ps.kappa, r.projection_pp)
        pop_weights = programs._weights("POP", dc.c, dc.lambda_bar, ps.kappa, ps.beta_bar)
        assert r.val_pop <= programs._objective(dc, *pop_weights)(r.projection_pp)


@pytest.mark.parametrize("case", ["bench3", "n10"])
def test_one_column_pass_is_the_heap_search(case):
    # the pass refines each column's lowest gap first, ties to the smaller
    # trace, as the heap does: on one column it finds the same point with
    # the same certificate, for PP's and SPOP's penalties
    base, ps = _sweep_case(case)
    pen, f = base.pencil, max(float(base.f), 0.0)
    for eps in (0.3, 1.2, 1.6, 2.5):
        dc = base.scaled(eps)
        for alpha, _, lam_bar in (programs._weights("PP", dc.c, dc.lambda_bar),
                                  programs._weights("SPOP", dc.c, dc.lambda_bar, ps.kappa)):
            for rho in (1e-4, 1e-8):
                w = alpha * eps
                want = programs._search(pen, f, programs._penalty(w, lam_bar), rho)
                got = programs._pass(pen, f, np.array([w]), np.array([lam_bar]), rho)
                assert got == [want], (eps, lam_bar, rho)


def test_penalty_columns_match_the_scalar_penalty():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.0, 3.0, size=40)
    lam_bar = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(1e-3, 5.0, size=40))
    q = rng.uniform(0.0, 10.0, size=(7, 1))
    got = programs._penalty_cols(w, lam_bar)(q)
    want = [[programs._penalty(a, b)(x) for a, b in zip(w, lam_bar)] for x in q[:, 0]]
    assert got.tolist() == want


class _StubPencil:
    """A record of two points 1e-14 apart in s, too close for a probe."""

    def __init__(self):
        self.ends = (programs._Point(0.0, 0.0, 0.0),
                     programs._Point(1e-14, -1.0, 0.0, -1.0, -1.0))

    def refine(self, a, b):
        raise AssertionError("a gap at floating-point resolution was refined")


def test_gap_at_resolution_keeps_its_bound():
    # with f = 1 the two ends' q differ by about one rounding, so the gap is
    # never refined; its bound leaves psi(qb) - psi(qa), about 5.5e-5 at
    # weight 1e10, uncertified: within a rho above that, beyond one below it
    pen, w = _StubPencil(), 1e10
    gap = (w * math.sqrt(1.0 + 1e-14) - 1.0) - (w * 1.0 - 1.0)
    assert 1e-5 < gap < 1e-4
    for run in (lambda rho: programs._search(pen, 1.0, programs._penalty(w, 0.0), rho)[1],
                lambda rho: programs._pass(pen, 1.0, np.array([w, w]), np.zeros(2), rho)[0][1]):
        assert run(1e-4) == gap
        with pytest.raises(NumericalFailure):
            run(1e-5)


@pytest.mark.parametrize("case", ["bench3", "n10"])
def test_scaled_programs_match_fresh_derivation(case):
    # solving on base.scaled(eps) searches the unit-scale record in unit
    # coordinates; a fresh derivation at eps*C0 searches its own record.
    # Both must certify the same optimum.  The scales run downward, so that
    # gaps first refined for a large eps are read again at a small one.
    if case == "bench3":
        qf, n = bench3_form(), 3
    else:
        qf, n = random_reduced_game(np.random.default_rng(61), 10), 10
        assert np.any(qf.l != 0.0)
    ps = prior_stats(PriorSpec("gaussian", n))
    base = derive_coefficients(qf, hypothesis_wasserstein(1.0, n))
    rho = 1e-6 * (1.0 + abs(solve_bp(base).value))
    for eps in (40.0, 2.5, 1.3, 0.088, 1e-3):
        fresh = derive_coefficients(qf, hypothesis_wasserstein(eps, n))
        scaled = base.scaled(eps)
        got = [solve_pp(scaled, rho), solve_pop(scaled, ps, rho), solve_spop(scaled, ps, rho)]
        # the search runs in unit coordinates and returns t in the caller's:
        # the trace of the projection it returns, up to the rounding of two
        # sums (2.7e-15 relative at most here)
        (t_s, p_s, _), = programs._minimize_penalized(scaled, [1.0], 1.0, [0.0], rho)
        want = [solve_pp(fresh, rho), solve_pop(fresh, ps, rho), solve_spop(fresh, ps, rho)]
        for g, w in zip(got, want):
            assert abs(g.value - w.value) <= rho, (eps, g.program)
            assert g.rank == w.rank, (eps, g.program)
        assert abs(t_s - float(np.sum(scaled.E * p_s))) <= 1e-14 * abs(t_s), eps

    zero = base.scaled(0.0)
    bp_rank = solve_bp(base).rank
    for sol in (solve_pp(zero, rho), solve_pop(zero, ps, rho), solve_spop(zero, ps, rho)):
        assert sol.rank == bp_rank
