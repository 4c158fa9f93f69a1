import math
import warnings

import numpy as np
import pytest

from conftest import random_psd, random_reduced_game
from lqpersuasion import (
    EllipsoidalHypothesis,
    PriorSpec,
    QuadraticForm,
    RawGame,
    decompose_nonneg,
    derive_coefficients,
    hypothesis_affine_distortion,
    hypothesis_costly_update,
    hypothesis_mismatched_prior,
    hypothesis_wasserstein,
    prior_stats,
    upsilon,
)
from lqpersuasion import instance
from lqpersuasion.demo import BENCH3_D, BENCH3_E, bench3_form, bench3_hypothesis, tracking_form
from lqpersuasion.errors import (
    InvalidMatrix,
    InvalidParameter,
    InvalidRadius,
    LinearTermOutsideRange,
    NotNonnegativeCost,
    NotPD,
    SingularCrossTerm,
)


# --------------------------------------------------------------------------
# raw-game reduction
# --------------------------------------------------------------------------


def _random_nonneg_raw_game(rng, n, k):
    """Raw game with cost ||A [x; a] + w||^2 + q0, guaranteed nonnegative."""
    a_mat = rng.normal(size=(n + k, n + k))
    w = rng.normal(size=n + k)
    q0 = float(rng.uniform(0.0, 3.0))
    m = a_mat.T @ a_mat
    p = 2.0 * a_mat.T @ w
    q = float(w @ w) + q0
    b_mat = rng.normal(size=(k, n))
    b_vec = rng.normal(size=k)
    return RawGame(n=n, k=k, M=m, p=p, q=q, B=b_mat, b=b_vec)


def test_decompose_matches_direct_cost_evaluation():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        g = _random_nonneg_raw_game(rng, n, k)
        qf = decompose_nonneg(g)
        assert qf.n == n
        for _ in range(10):
            x = rng.normal(size=n)
            x_hat = rng.normal(size=n)
            direct = g.cost(x, x_hat)
            reduced = qf.cost(x, x_hat)
            assert reduced == pytest.approx(direct, rel=1e-7, abs=1e-7)
            assert reduced >= -1e-8 * (1.0 + abs(direct))


def test_decompose_rejects_indefinite_quadratic():
    g = RawGame(
        n=1, k=1, M=np.diag([-1.0, 1.0]), p=np.zeros(2), q=0.0,
        B=np.eye(1), b=np.zeros(1),
    )
    with pytest.raises(NotNonnegativeCost):
        decompose_nonneg(g)


def test_decompose_rejects_linear_term_outside_range():
    # quadratic part vanishes in the second coordinate but the linear term
    # pushes there, so the cost is unbounded below
    g = RawGame(
        n=1, k=1, M=np.diag([1.0, 0.0]), p=np.array([0.0, 1.0]), q=0.0,
        B=np.eye(1), b=np.zeros(1),
    )
    with pytest.raises(LinearTermOutsideRange):
        decompose_nonneg(g)


def test_decompose_rejects_negative_constant():
    g = RawGame(
        n=1, k=1, M=np.diag([1.0, 1.0]), p=np.zeros(2), q=-1.0,
        B=np.eye(1), b=np.zeros(1),
    )
    with pytest.raises(NotNonnegativeCost):
        decompose_nonneg(g)


def test_quadratic_form_validation():
    with pytest.raises(NotNonnegativeCost):
        QuadraticForm(n=1, Q=np.diag([1.0, -1.0]), l=np.zeros(2), r=0.0)
    with pytest.raises(NotNonnegativeCost):
        QuadraticForm(n=1, Q=np.eye(2), l=np.zeros(2), r=-1.0)
    with pytest.raises(InvalidMatrix):
        QuadraticForm(n=2, Q=np.eye(3), l=np.zeros(4), r=0.0)


def test_raw_game_validation():
    with pytest.raises(InvalidMatrix):
        RawGame(n=1, k=1, M=np.eye(3), p=np.zeros(2), q=0.0, B=np.eye(1), b=np.zeros(1))


def test_ingestion_decomposes_each_matrix_once(monkeypatch):
    # each check reads its zero band from the spectrum it already took:
    # QuadraticForm decomposes Q once, decompose_nonneg adds the split of its
    # pseudoinverse, and hypothesis_costly_update takes a spectrum and a
    # square root of R22
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            calls[0] += 1
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    g = _random_nonneg_raw_game(np.random.default_rng(13), 3, 2)
    qf = decompose_nonneg(g)
    assert calls[0] == 2
    calls[0] = 0
    QuadraticForm(n=3, Q=qf.Q, l=qf.l, r=qf.r)
    assert calls[0] == 1
    calls[0] = 0
    eye = np.eye(3)
    hypothesis_costly_update(np.block([[eye, eye], [eye, 2.0 * eye]]), 3, 0.5)
    assert calls[0] == 2


# --------------------------------------------------------------------------
# coefficient derivation
# --------------------------------------------------------------------------


def test_bench_coefficients_integer_golden():
    dc = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    assert np.array_equal(dc.D, BENCH3_D)
    assert np.array_equal(dc.E, BENCH3_E)
    assert dc.lambda_bar == pytest.approx(4.0, abs=1e-12)
    assert dc.f == 0.0
    assert dc.c == pytest.approx(210.0, abs=1e-12)
    assert np.trace(dc.D) == pytest.approx(-43.0)
    assert np.trace(dc.E) == pytest.approx(1168.0)


def test_derive_coefficients_algebraic_identities():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        qf = random_reduced_game(rng, n)
        C = rng.normal(size=(n, n))
        dc = derive_coefficients(qf, EllipsoidalHypothesis(C=C))
        q12, q21, q22 = qf.q12, qf.q21, qf.q22
        assert np.allclose(dc.D, 0.5 * ((q12 + q21 + q22) + (q12 + q21 + q22).T))
        e_direct = 4.0 * (q12 + q22) @ C @ C.T @ (q21 + q22)
        assert np.allclose(dc.E, 0.5 * (e_direct + e_direct.T), atol=1e-9)
        fv = C.T @ (q21 @ qf.l1 + q22 @ qf.l2)
        assert dc.f == pytest.approx(4.0 * float(fv @ fv), rel=1e-12, abs=1e-12)
        assert dc.c == pytest.approx(
            qf.r + float(qf.l @ qf.Q @ qf.l) + float(np.trace(qf.q11)), rel=1e-12
        )
        # lambda_bar / lambda_bar_2: top of the penalty quadratic's spectrum
        w = np.sort(np.linalg.eigvalsh(0.5 * (C.T @ q22 @ C + (C.T @ q22 @ C).T)))
        assert dc.lambda_bar == pytest.approx(float(w[-1]), abs=1e-10)
        if n > 1:
            assert dc.lambda_bar_2 == pytest.approx(float(w[-2]), abs=1e-10)
        # E is PSD and t_bar within [0, Tr E]
        assert np.min(np.linalg.eigvalsh(dc.E)) > -1e-8 * (1 + np.abs(dc.E).max())
        assert -1e-9 <= dc.t_bar <= float(np.trace(dc.E)) + 1e-9


def test_scaled_homothety():
    dc = derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    for s in (0.0, 0.5, 2.0, 7.5):
        ds = dc.scaled(s)
        dd = derive_coefficients(bench3_form(), bench3_hypothesis(s))
        assert np.allclose(ds.E, dd.E, atol=1e-9)
        assert ds.f == pytest.approx(dd.f, abs=1e-12)
        assert ds.lambda_bar == pytest.approx(dd.lambda_bar, abs=1e-10)
        assert ds.t_bar == pytest.approx(dd.t_bar, rel=1e-10, abs=1e-9)
        assert np.array_equal(ds.D, dc.D)
        assert ds.c == dc.c
        # the scaled system reads the unit system's oracle record
        assert ds.scale == s and ds.unit is dc and ds.pencil is dc.pencil
    twice = dc.scaled(0.5).scaled(3.0)
    assert twice.scale == 1.5 and twice.unit is dc
    # at s = 0 the scaled system writes zeros as a derivation at C = 0 does,
    # without the sign 0 * (negative) would give
    zero = dc.scaled(0.0)
    assert np.any(dc.E < 0.0)
    assert not np.any(np.signbit(zero.E))
    for s in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            dc.scaled(s)


def test_non_finite_coefficients_refused():
    # on the n = 1 game Q = [[4, -2], [-2, 1]], a scale of 1e200 overflows
    # E = 4 a a^T; the system is refused at construction, with no warning,
    # whether derived at that scale, rescaled to it or built by hand
    qf = QuadraticForm(n=1, Q=np.array([[4.0, -2.0], [-2.0, 1.0]]), l=np.zeros(2), r=0.0)
    unit = derive_coefficients(qf, hypothesis_wasserstein(1.0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMatrix):
            derive_coefficients(qf, EllipsoidalHypothesis(C=np.array([[1e200]])))
        for s in (1e200, 1e154):  # s^2 overflows, or s^2 * E alone
            with pytest.raises(InvalidMatrix):
                unit.scaled(s)
        # with q12 + q22 = 0, E = 0 and only Qm, so lambda_bar, overflows
        flat = QuadraticForm(n=1, Q=np.array([[1.0, -1.0], [-1.0, 1.0]]), l=np.zeros(2), r=0.0)
        with pytest.raises(InvalidParameter):
            derive_coefficients(flat, EllipsoidalHypothesis(C=np.array([[1e200]])))
    good = dict(n=1, D=np.eye(1), E=np.eye(1), f=1.0, c=0.0, lambda_bar=0.5, lambda_bar_2=0.0)
    instance.DerivedCoefficients(**good)
    for key, bad in (("D", np.array([[np.nan]])), ("E", np.array([[np.inf]]))):
        with pytest.raises(InvalidMatrix):
            instance.DerivedCoefficients(**{**good, key: bad})
    for key in ("f", "c", "lambda_bar", "lambda_bar_2"):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                instance.DerivedCoefficients(**{**good, key: bad})


def test_derive_dimension_mismatch():
    with pytest.raises(InvalidMatrix):
        derive_coefficients(bench3_form(), EllipsoidalHypothesis(C=np.eye(2)))


# --------------------------------------------------------------------------
# hypothesis builders
# --------------------------------------------------------------------------


def test_wasserstein_hypothesis():
    h = hypothesis_wasserstein(2.5, 3)
    assert np.allclose(h.C, 2.5 * np.eye(3))
    assert h.scale == 2.5
    with pytest.raises(InvalidRadius):
        hypothesis_wasserstein(-0.1, 3)


def test_costly_update_ellipsoid_membership():
    # the credible ball must coincide with the sublevel set of the receiver's
    # action-advantage quadratic: q(m) = m^T R21^T R22^{-1} R21 m = eps on the
    # image of the unit sphere under C
    rng = np.random.default_rng(12)
    n = 2
    for _ in range(20):
        r21 = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        r22 = random_psd(rng, n) + 0.5 * np.eye(n)
        R = np.block([[random_psd(rng, n), r21.T], [r21, r22]])
        eps = float(rng.uniform(0.1, 4.0))
        h = hypothesis_costly_update(0.5 * (R + R.T), n, eps)
        r21s = 0.5 * (R + R.T)[n:, :n]
        r22s = 0.5 * (R + R.T)[n:, n:]
        for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            eta = np.array([math.cos(theta), math.sin(theta)])
            m = h.C @ eta
            q = float((r21s @ m) @ np.linalg.solve(r22s, r21s @ m))
            assert q == pytest.approx(eps, rel=1e-8)


def test_costly_update_rejections():
    R = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    with pytest.raises(SingularCrossTerm):
        hypothesis_costly_update(R, 2, 1.0)
    R2 = np.block([[np.eye(2), np.eye(2)], [np.eye(2), -np.eye(2)]])
    with pytest.raises(NotPD):
        hypothesis_costly_update(R2, 2, 1.0)
    R3 = np.ones((5, 5))
    with pytest.raises(InvalidMatrix):
        hypothesis_costly_update(R3, 2, 1.0)


def test_mismatched_prior_radius():
    for eps in (0.0, 0.3, 1.0):
        h = hypothesis_mismatched_prior(eps, 4)
        expect = math.sqrt(2.0 * eps + eps * eps) * 2.0
        assert h.scale == pytest.approx(expect, abs=1e-14)
    h = hypothesis_mismatched_prior(1.0, 4, trace_sigma_bound=9.0)
    assert h.scale == pytest.approx(math.sqrt(3.0) * 3.0)
    with pytest.raises(InvalidRadius):
        hypothesis_mismatched_prior(-0.5, 4)


def test_affine_distortion_radius_and_flag():
    h = hypothesis_affine_distortion(0.25, 2.0, 3)
    assert h.scale == pytest.approx(1.5)
    assert h.center_shifted
    h1 = hypothesis_affine_distortion(1.0, 2.0, 3)
    assert h1.scale == 0.0
    assert not h1.center_shifted
    with pytest.raises(InvalidParameter):
        hypothesis_affine_distortion(1.5, 2.0, 3)


# --------------------------------------------------------------------------
# prior statistics
# --------------------------------------------------------------------------


def test_gaussian_prior_moment_formulas_vs_monte_carlo():
    rng = np.random.default_rng(13)
    n = 3
    x = rng.normal(size=(1_000_000, n))
    ps = prior_stats(PriorSpec("gaussian", n))
    m1 = np.abs(x[:, 0])
    mn = np.linalg.norm(x, axis=1)
    for sample, target in ((m1, ps.E_abs_x1), (mn, ps.E_norm_x)):
        err = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - target) < 5.0 * err


def test_sphere_prior_moment_formulas_vs_monte_carlo():
    rng = np.random.default_rng(14)
    n = 5
    g = rng.normal(size=(1_000_000, n))
    u = g / np.linalg.norm(g, axis=1, keepdims=True) * math.sqrt(n)
    ps = prior_stats(PriorSpec("sphere", n))
    assert ps.E_norm_x == pytest.approx(math.sqrt(n), abs=1e-14)
    m1 = np.abs(u[:, 0])
    err = m1.std(ddof=1) / math.sqrt(m1.size)
    assert abs(m1.mean() - ps.E_abs_x1) < 5.0 * err


def test_derived_prior_constants():
    for spec in (PriorSpec("gaussian", 1), PriorSpec("gaussian", 7), PriorSpec("sphere", 4)):
        ps = prior_stats(spec)
        k = ps.E_abs_x1 / math.sqrt(1.0 + ps.E_abs_x1**2)
        assert ps.kappa == pytest.approx(k, abs=1e-15)
        assert ps.beta_bar == pytest.approx(k / (1.0 + k * k), abs=1e-15)
        assert ps.gamma_bar == pytest.approx(1.0 + 1.0 / (1.0 + k * k), abs=1e-15)
        assert 0.0 < ps.kappa < 1.0
        assert 0.0 < ps.beta_bar <= 0.5
        assert 1.5 <= ps.gamma_bar < 2.0


def test_gaussian_kappa_is_dimension_free():
    k1 = prior_stats(PriorSpec("gaussian", 1)).kappa
    for n in (2, 5, 30):
        assert prior_stats(PriorSpec("gaussian", n)).kappa == pytest.approx(k1, abs=1e-15)


def test_prior_spec_validation():
    with pytest.raises(InvalidParameter):
        PriorSpec("cauchy", 3)
    with pytest.raises(InvalidParameter):
        PriorSpec("gaussian", 0)


def test_upsilon_matches_sphere_gamma_bar():
    for n in range(1, 20):
        assert upsilon(n) == pytest.approx(
            prior_stats(PriorSpec("sphere", n)).gamma_bar, abs=1e-13
        )


def test_gamma_ratio_half_recurrence_at_large_n():
    # r(n) = Gamma((n+1)/2)/Gamma(n/2) satisfies r(n)*r(n+1) = n/2 exactly;
    # a difference of log-gammas misses it by about eps*n*ln(n) relative
    for n in (10**3, 10**4, 10**7, 10**7 + 1, 10**9):
        got = instance._gamma_ratio_half(n) * instance._gamma_ratio_half(n + 1)
        assert got == pytest.approx(n / 2.0, rel=1e-14), n


def test_upsilon_one_and_limit():
    assert upsilon(1) == pytest.approx(5.0 / 3.0, abs=1e-15)
    limit = 2.0 * (3.0 + math.pi) / (4.0 + math.pi)
    vals = [upsilon(n) for n in range(1, 51)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < limit for v in vals)
    assert limit - upsilon(10_000) < 1e-4
    with pytest.raises(InvalidParameter):
        upsilon(0)


def test_tracking_form_matches_tracking_cost():
    rng = np.random.default_rng(15)
    for k, n in ((2.0, 1), (0.75, 3)):
        qf = tracking_form(k, n)
        for _ in range(10):
            x = rng.normal(size=n)
            x_hat = rng.normal(size=n)
            assert qf.cost(x, x_hat) == pytest.approx(
                float(np.sum((x_hat - k * x) ** 2)), rel=1e-12, abs=1e-12
            )
