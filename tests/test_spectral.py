import numpy as np
import pytest

from conftest import random_psd, random_sym
from lqpersuasion import eig_sym, neg_projections, sqrt_psd, sym
from lqpersuasion.demo import BENCH3_D
from lqpersuasion.errors import InvalidMatrix, NotPSD
from lqpersuasion.spectral import default_zero_tol


def test_sym_basic():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = sym(a)
    assert np.allclose(s, s.T)
    assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])


def test_default_zero_tol_scales_with_norm():
    # the band reads the eigenvalues a caller already has
    assert default_zero_tol(np.zeros(3)) == pytest.approx(1e-9)
    assert default_zero_tol(np.zeros(0)) == pytest.approx(1e-9)
    assert default_zero_tol(np.full(3, 99.0)) == pytest.approx(1e-7, rel=1e-6)
    assert default_zero_tol(np.array([3.0, -7.0, 1.0])) == pytest.approx(8e-9, rel=1e-12)


def test_eig_sym_identity_and_diag():
    w, v = eig_sym(np.diag([1.0, 5.0, 3.0]))
    assert np.allclose(w, [5.0, 3.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_eig_sym_characteristic_polynomial_bench():
    # eigenvalues must be roots of det(A - w I), checked without eigh
    w, _ = eig_sym(BENCH3_D)
    coeffs = np.poly(BENCH3_D)  # characteristic polynomial coefficients
    for wi in w:
        assert abs(np.polyval(coeffs, wi)) < 1e-8 * (1.0 + abs(wi)) ** 3


def test_eig_sym_reconstruction_and_orthogonality_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_sym(rng, n)
        w, v = eig_sym(a)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)
        assert np.allclose((v * w) @ v.T, a, atol=1e-9 * (1 + np.linalg.norm(a, 2)))
        for j in range(n):  # sign convention: largest component nonnegative
            assert v[int(np.argmax(np.abs(v[:, j]))), j] >= 0.0


def test_eig_sym_deterministic():
    rng = np.random.default_rng(2)
    a = random_sym(rng, 5)
    w1, v1 = eig_sym(a)
    w2, v2 = eig_sym(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eig_sym_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        eig_sym(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_neg_projections_diagonal():
    p_lt = neg_projections(np.diag([-2.0, 0.0, 3.0]))
    assert np.allclose(p_lt, np.diag([1.0, 0.0, 0.0]))


def test_neg_projections_invariants_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        a = random_sym(rng, n) * float(rng.uniform(0.1, 50.0))
        p_lt = neg_projections(a)
        assert np.allclose(p_lt, p_lt.T)
        assert np.allclose(p_lt @ p_lt, p_lt, atol=1e-10)
        # the negative projection extracts a nonpositive trace piece
        assert float(np.sum(a * p_lt)) <= 1e-9 * (1 + np.linalg.norm(a, 2))


def test_neg_projections_of_negated_matrix():
    rng = np.random.default_rng(4)
    a = random_sym(rng, 4)
    # make the spectrum safely bounded away from zero
    a = a + np.sign(np.trace(a) or 1.0) * 0.0
    w, _ = eig_sym(a)
    if np.min(np.abs(w)) < 1e-6:
        a = a + 1e-3 * np.eye(4)
    p_lt = neg_projections(a)
    q_lt = neg_projections(-a)
    # strict-negative space of A and of -A partition the whole space
    assert np.allclose(p_lt + q_lt, np.eye(4), atol=1e-9)


def test_sqrt_psd_reconstructs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = random_psd(rng, n)
        s = sqrt_psd(a)
        assert np.allclose(s, s.T)
        assert np.min(np.linalg.eigvalsh(s)) > -1e-9 * (1 + np.linalg.norm(a, 2))
        assert np.allclose(s @ s, a, atol=1e-8 * (1 + np.linalg.norm(a, 2)))


def test_sqrt_psd_clips_tiny_negative_and_rejects_indefinite():
    assert np.allclose(sqrt_psd(np.diag([1.0, -1e-15])), np.diag([1.0, 0.0]))
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -1.0]))
