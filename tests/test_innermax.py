import math

import numpy as np
import pytest

from conftest import ball_max_oracle, random_psd, secular_bisection_reference
from lqpersuasion import (
    InnerMaxProblem,
    gamma_fn,
    penalty_bounds,
    worst_case_penalty,
    worst_case_penalty_batch,
)
from lqpersuasion import innermax
from lqpersuasion.errors import InvalidMatrix, InvalidParameter, NumericalFailure


def test_scaled_identity_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        s = float(rng.uniform(0.0, 5.0))
        v = rng.normal(size=n)
        val = worst_case_penalty(InnerMaxProblem(s * np.eye(n), v))
        expect = s + 2.0 * float(np.linalg.norm(v))
        assert val == pytest.approx(expect, abs=1e-12 * (1.0 + expect))


def test_zero_vector_returns_top_eigenvalue():
    qm = np.diag([3.0, 1.0, 0.5])
    assert worst_case_penalty(InnerMaxProblem(qm, np.zeros(3))) == pytest.approx(3.0)


def test_matches_ball_grid_oracle():
    rng = np.random.default_rng(21)
    for s in range(8):
        qm = random_psd(rng, 3)
        v = rng.normal(size=3) * float(rng.uniform(0.1, 3.0))
        val = worst_case_penalty(InnerMaxProblem(qm, v))
        ref = ball_max_oracle(qm, v, n_points=200_000, seed=s)
        assert val == pytest.approx(ref, abs=1e-5)
        assert val >= ref - 1e-9  # never below an achieved feasible value


def test_no_top_mass_boundary_case():
    # v orthogonal to the top eigenspace with a small remainder: the optimal
    # multiplier sits at the boundary and the value is still exact
    qm = np.diag([4.0, 1.0])
    v = np.array([0.0, 0.05])
    val = worst_case_penalty(InnerMaxProblem(qm, v))
    ref = ball_max_oracle(qm, v, n_points=200_000, seed=0)
    assert val == pytest.approx(ref, abs=1e-9)


def test_orthogonal_invariance():
    rng = np.random.default_rng(22)
    qm = random_psd(rng, 4)
    v = rng.normal(size=4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = worst_case_penalty(InnerMaxProblem(qm, v))
    b = worst_case_penalty(InnerMaxProblem(q.T @ qm @ q, q.T @ v))
    assert a == pytest.approx(b, rel=1e-10)


def test_monotone_in_v_scale():
    rng = np.random.default_rng(23)
    qm = random_psd(rng, 3)
    v = rng.normal(size=3)
    vals = [worst_case_penalty(InnerMaxProblem(qm, s * v)) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _secular_cases(rng):
    qm = random_psd(rng, 4)
    V = rng.normal(size=(200, 4)) * rng.uniform(0.0, 3.0, size=(200, 1))
    V[0] = 0.0  # zero row
    yield qm, V
    # no top mass: boundary value (d0 >= 0) and interior root (d0 < 0)
    yield np.diag([4.0, 1.0, 0.5]), np.array(
        [[0.0, 0.05, 0.1], [0.0, 3.0, 0.1], [0.0, 0.0, 4.0]]
    )
    # repeated top eigenvalue, with and without mass on it
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    qm = (q * np.array([2.0, 2.0, 0.5, 0.1])) @ q.T
    yield qm, np.vstack([rng.normal(size=(20, 4)), rng.normal(size=(5, 2)) @ q[:, 2:].T])
    # rank-deficient Qm, Qm = 0
    yield random_psd(rng, 5, rank=2), rng.normal(size=(20, 5))
    yield np.zeros((3, 3)), rng.normal(size=(20, 3))
    # v at extreme scales
    qm = random_psd(rng, 3)
    for s in (1e-6, 1e6):
        yield qm, s * rng.normal(size=(20, 3))
    yield _n30_case(rng, 60)


def _n30_case(rng, rows):
    # n = 30: a doubled top eigenvalue and 28 others, enough for the sums over
    # eigen-coordinates to leave numpy's short-row order; among the rows a
    # zero row and rows with no top mass, both small (boundary value) and
    # large (interior root)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    qm = (q * np.r_[5.0, 5.0, rng.uniform(0.0, 4.0, size=28)]) @ q.T
    V = rng.normal(size=(rows, 30)) * rng.uniform(0.0, 3.0, size=(rows, 1))
    V[0] = 0.0
    no_top = rng.normal(size=(6, 28)) @ q[:, 2:].T
    V[1:4] = 1e-3 * no_top[:3]
    V[4:7] = 3.0 * no_top[3:]
    return qm, V


def test_batch_agrees_with_scalar():
    # the batch Newton solver against the independent scalar bisection
    rng = np.random.default_rng(24)
    for qm, V in _secular_cases(rng):
        batch = worst_case_penalty_batch(qm, V)
        for i in range(V.shape[0]):
            assert batch[i] == pytest.approx(
                secular_bisection_reference(qm, V[i]), rel=1e-9, abs=1e-9
            )


def test_unconverged_rows_raise(monkeypatch):
    # a row still stepping when the Newton budget runs out is an error, never
    # a value, in whichever block it sits
    monkeypatch.setattr(innermax, "_MAX_NEWTON", 1)
    qm, row = np.diag([3.0, 1.0]), np.array([0.3, 2.0])
    with pytest.raises(NumericalFailure):
        worst_case_penalty_batch(qm, row[None, :])
    # zero rows take the boundary value without a Newton step, so the first
    # block converges and only the second block's last row fails
    V = np.zeros((innermax._BLOCK + 5, 2))
    V[-1] = row
    with pytest.raises(NumericalFailure, match=f" 1 of {V.shape[0]} rows"):
        worst_case_penalty_batch(qm, V)


def _cuts(rng, m):
    # split points: every row alone (short batches), block edges and a
    # single row at either end (long ones), and random cuts
    block = innermax._BLOCK
    if m <= 250:
        yield np.arange(1, m)
    else:
        yield np.array([1, block - 1, block, block + 1, 2 * block, m - 1])
    for _ in range(3):
        yield np.sort(rng.choice(np.arange(1, m), size=min(m - 1, 5), replace=False))


def test_batch_is_bitwise_independent_of_the_split():
    # the Monte-Carlo evaluator solves its samples in worker chunks and
    # relies on their penalties being the whole batch's, bit for bit
    rng = np.random.default_rng(26)
    cases = [*_secular_cases(rng), _n30_case(rng, 2 * innermax._BLOCK + 17)]
    for qm, V in cases:
        whole = worst_case_penalty_batch(qm, V)
        for cuts in _cuts(rng, V.shape[0]):
            # each piece into its rows of one output array
            out = np.full(V.shape[0], np.nan)
            for piece, at in zip(np.split(V, cuts), np.split(np.arange(V.shape[0]), cuts)):
                assert worst_case_penalty_batch(qm, piece, out[at[0] : at[-1] + 1]).base is out
            assert np.array_equal(out, whole)


def test_affine_workspace_matches_deviations_formed_first():
    # a workspace with an affine map (A, f) solves its rows x as the vectors
    # x A - f, formed piece by piece inside the blocks: bit for bit the plain
    # call on V = X A - f formed whole, at row counts around the product
    # width and past two blocks
    rng = np.random.default_rng(27)
    block, width = innermax._BLOCK, innermax._WIDTH
    rows = (1, width - 1, width, width + 1, 2 * block + 17)
    for n in (1, 3, 30, 100):
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        top = min(2, n)  # a repeated top eigenvalue, when n allows one
        qm = (q * np.r_[[4.0] * top, rng.uniform(0.0, 3.0, size=n - top)]) @ q.T
        A, f = rng.normal(size=(n, n)), rng.normal(size=n)
        X = rng.normal(size=(rows[-1], n))
        V = X @ A - f
        for m in rows:
            work = innermax._Workspace(innermax._spectrum(qm), min(m, block), (A, f))
            got = worst_case_penalty_batch(qm, X[:m], _work=work)
            assert got.tobytes() == worst_case_penalty_batch(qm, V[:m]).tobytes()


def test_non_finite_input_rejected():
    qm = np.diag([2.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        V = np.ones((3, 2))
        V[1, 0] = bad
        with pytest.raises(InvalidMatrix):
            worst_case_penalty_batch(qm, V)
        with pytest.raises(InvalidMatrix):
            InnerMaxProblem(qm, V[1])
        with pytest.raises(InvalidMatrix):
            worst_case_penalty_batch(np.diag([bad, 1.0]), np.ones((3, 2)))
    # checked before symmetrizing, where inf - inf would turn into nan
    with pytest.raises(InvalidMatrix):
        InnerMaxProblem(np.array([[1.0, np.inf], [-np.inf, 1.0]]), np.zeros(2))


def test_penalty_bounds_sandwich():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        qm = random_psd(rng, n)
        v = rng.normal(size=n) * float(rng.uniform(0.0, 2.0))
        p = InnerMaxProblem(qm, v)
        val = worst_case_penalty(p)
        beta = float(rng.uniform(0.0, 1.0))
        lo, hi = penalty_bounds(p, beta)
        assert lo <= val + 1e-9
        assert val <= hi + 1e-9
    with pytest.raises(InvalidParameter):
        penalty_bounds(InnerMaxProblem(np.eye(2), np.zeros(2)), 1.5)


def test_gamma_fn_minimized_at_beta_bar():
    for kappa in (0.2, math.sqrt(2.0 / (math.pi + 2.0)), 0.9):
        beta_bar = kappa / (1.0 + kappa * kappa)
        gamma_bar = 1.0 + 1.0 / (1.0 + kappa * kappa)
        assert gamma_fn(beta_bar, kappa) == pytest.approx(gamma_bar, rel=1e-12)
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [gamma_fn(float(b), kappa) for b in grid]
        assert min(vals) >= gamma_bar - 1e-9
    with pytest.raises(InvalidParameter):
        gamma_fn(-0.1, 0.5)
    with pytest.raises(InvalidParameter):
        gamma_fn(0.5, 1.5)


def test_gamma_fn_continuous_at_regime_boundary():
    kappa = 0.6
    # boundary where 1 - b^2 - b*kappa = 0
    b0 = (-kappa + math.sqrt(kappa * kappa + 4.0)) / 2.0
    below = gamma_fn(b0 - 1e-9, kappa)
    above = gamma_fn(min(b0 + 1e-9, 1.0), kappa)
    assert below == pytest.approx(above, rel=1e-5)


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidParameter):
        InnerMaxProblem(np.eye(3), np.zeros(2))
