"""Dense symmetric-matrix primitives shared by every solver.

All solvers in this package reduce to eigendecompositions of small dense
symmetric matrices, projections onto negative eigenspaces, and PSD square
roots.  Centralizing them here fixes one deterministic sign convention and
one zero-classification tolerance for the whole package.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, NotPSD


class EigenDecomposition(NamedTuple):
    """Eigenvalues sorted descending, eigenvectors as matching columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize: (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(sym(a)))))


def default_zero_tol(a: np.ndarray) -> float:
    """Relative zero-classification band: 1e-9 * (1 + ||A||_2)."""
    return 1e-9 * (1.0 + spectral_norm(a))


def _check_square_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def eig_sym(a: np.ndarray) -> EigenDecomposition:
    """Deterministic symmetric eigendecomposition, eigenvalues descending.

    The sign of each eigenvector is fixed so that its largest-magnitude
    component is nonnegative (first such index on ties), which makes golden
    outputs bit-stable across runs.
    """
    a = sym(_check_square_finite(a))
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if v.size:
        top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v = v * np.where(top < 0.0, -1.0, 1.0)  # exact: negation or identity
    return EigenDecomposition(values=w, vectors=v)


def neg_projections(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projections onto the negative and non-positive eigenspaces of ``a``.

    Returns ``(P_lt, P_le)`` where ``P_lt`` projects onto the span of
    eigenvectors with eigenvalue < -zero_tol and ``P_le`` onto the span with
    eigenvalue <= zero_tol, zero_tol = 1e-9 * (1 + ||a||_2).  Always
    ``P_lt <= P_le`` in the Loewner order.
    """
    w, v = eig_sym(a)
    zero_tol = 1e-9 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    vlt = v[:, w < -zero_tol]
    vle = v[:, w <= zero_tol]
    p_lt = vlt @ vlt.T
    p_le = vle @ vle.T
    return sym(p_lt), sym(p_le)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative eigenvalues within
    1e-9 * (1 + ||a||_2) of zero are clipped."""
    w, v = eig_sym(a)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    if w.size and float(w[-1]) < -tol:
        raise NotPSD(f"matrix has eigenvalue {w[-1]:.3e} < -{tol:.3e}")
    return sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
