"""Dense symmetric-matrix primitives: sorted, sign-fixed eigendecompositions,
negative-eigenspace projections (from any eigenbasis, so a raw ``eigh``
will do) and PSD square roots.  Each reads one decomposition of its matrix,
whose eigenvalues also give the zero band 1e-9 * (1 + max|w|).  The trace
oracle in ``programs`` keeps bands of its own (1e-12 and 1e-13).
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


def default_zero_tol(w: np.ndarray) -> float:
    """Relative zero-classification band of a symmetric matrix with
    eigenvalues ``w``: 1e-9 * (1 + ||A||_2)."""
    return 1e-9 * (1.0 + float(np.max(np.abs(w), initial=0.0)))


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


def neg_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection onto the span of the eigenvectors (columns of ``v``) whose
    eigenvalue in ``w`` is below -default_zero_tol(w).  Any orthonormal
    eigenbasis gives the same projection, so a raw ``eigh`` will do."""
    u = v[:, w < -default_zero_tol(w)]
    return u @ u.T


def neg_projections(a: np.ndarray) -> np.ndarray:
    """Projection ``P_lt`` onto the span of the eigenvectors of ``a`` with
    eigenvalue < -1e-9 * (1 + ||a||_2)."""
    return neg_part(*np.linalg.eigh(sym(_check_square_finite(a))))


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative eigenvalues within
    1e-9 * (1 + ||a||_2) of zero are clipped."""
    w, v = eig_sym(a)
    tol = default_zero_tol(w)
    if w.size and float(w[-1]) < -tol:
        raise NotPSD(f"matrix has eigenvalue {w[-1]:.3e} < -{tol:.3e}")
    return sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
