"""Worst-case inner maximization over the credible-mean ball.

The adversarial penalty at a fixed Bayesian mean is

    max_{eta in unit ball}  eta^T Qm eta + 2 v^T eta,

with Qm PSD.  Its exact value is the 1-D convex dual

    inf_{lam > lambda_max(Qm)}  lam + v^T (lam I - Qm)^{-1} v,

a secular-equation minimization in Qm's eigenbasis: with w = V^T v the
minimizer solves ||(lam I - Qm)^{-1} w|| = 1.  In x = lam - lambda_max > 0,
psi(x) = 1/||(x + lambda_max - Qm)^{-1} w|| - 1 is concave and increasing
(More and Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983), so Newton's
method started where psi <= 0 climbs monotonically onto the root, which lies
in (0, ||v||].  When v has no component on the top eigenspace the infimum may
sit at the boundary lam -> lambda_max and is evaluated analytically.

Many vectors v share one Qm in the Monte-Carlo evaluator:
``worst_case_penalty_batch`` decomposes Qm once and solves the vectors in
cache-sized blocks, one column per vector.  A block selects and compacts
its (rest x rows) arrays with ``np.compress``, not boolean or fancy
indexing: the copy is the same, but ``compress`` runs as a ``take``, which
is faster and releases the GIL, so the Monte-Carlo evaluator's worker
threads overlap there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NumericalFailure
from .spectral import eig_sym, sym


@dataclass(frozen=True)
class InnerMaxProblem:
    """Quadratic (Qm, v) of the inner maximization; Qm must be PSD."""

    Qm: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        qm = sym(self.Qm)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if qm.shape[0] != v.shape[0]:
            raise InvalidParameter("Qm and v dimensions differ")
        object.__setattr__(self, "Qm", qm)
        object.__setattr__(self, "v", v)


# Newton steps per row, counting the last one, which finds x no longer
# moving; on the benchmark's Monte-Carlo inputs (100k Gaussian samples at n=3
# and at n=30) at seeds 0-31, no row needs more than 12 at n=3 or 8 at n=30
_MAX_NEWTON = 100

# rows per block: each 1-D quantity of a block takes 64 KB and each
# (rest x rows) array 1.9 MB at n = 30, so a Newton step's working set stays
# in cache; on a 2-vCPU Xeon VM at n = 30, 4096 ran as fast and 2048 or
# 16384 slower
_BLOCK = 8192

# columns of every product forming W (see _in_eigenbasis): one shape for all
# of them, small enough that a short batch pays little for its padding
_WIDTH = 512


def worst_case_penalty(p: InnerMaxProblem) -> float:
    """Exact worst-case penalty max_{||eta||<=1} eta^T Qm eta + 2 v^T eta."""
    return float(worst_case_penalty_batch(p.Qm, p.v[None, :])[0])


def worst_case_penalty_batch(Qm: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Exact worst-case penalty for many v vectors (rows of ``V``).

    One eigendecomposition of Qm serves every row.  The rows are then solved
    in blocks of ``_BLOCK``, each in column layout: W = vecs^T V[block]^T has
    one column per row, so a sum over eigen-coordinates adds contiguous
    vectors and every temporary of a block stays cache-sized.  Each row runs
    safeguarded Newton on its own secular equation (see the module
    docstring) and leaves the iteration once its step no longer moves x
    forward at float resolution.

    Every operation combines entries of one column only, in an order that
    does not depend on how many columns there are (W itself included, see
    ``_in_eigenbasis``), so splitting the rows anyhow gives bit-identical
    values; the Monte-Carlo evaluator relies on that.
    """
    lams, vecs = eig_sym(Qm)
    V = np.asarray(V, dtype=float)
    m, n = V.shape
    if n == 0:
        return np.zeros(m)
    lmax = float(lams[0])
    top = lams >= lmax - 1e-9 * (1.0 + float(np.max(np.abs(lams))))
    # every gap exceeds the band, so none is zero
    gaps = (lmax - lams[~top])[:, None]
    out = np.empty(m)
    stuck = 0
    for s in range(0, m, _BLOCK):
        W = _in_eigenbasis(vecs, V[s : s + _BLOCK])
        stuck += _solve_block(W, top, gaps, lmax, out[s : s + _BLOCK])
    if stuck:
        raise NumericalFailure(f"inner-max Newton did not converge on {stuck} of {m} rows")
    return out


def _in_eigenbasis(vecs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """W = vecs^T rows^T, one column per row.

    A BLAS may order a product's sums by the product's shape (numpy even
    hands a one-column product to a matrix-vector kernel), so every product
    here has ``_WIDTH`` columns, the last padded with zero rows.  At one
    shape OpenBLAS gives a column the same entries wherever it sits, so W's
    columns do not depend on how the rows are split.
    """
    m, n = rows.shape
    parts = []
    for j in range(0, m, _WIDTH):
        piece = rows[j : j + _WIDTH]
        if piece.shape[0] < _WIDTH:
            piece = np.vstack([piece, np.zeros((_WIDTH - piece.shape[0], n))])
        parts.append(vecs.T @ piece.T)
    return np.concatenate(parts, axis=1)[:, :m]


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the rows of ``a``, one row after another.  numpy's own
    reduction turns pairwise once a single column is left, which would make
    a row's value depend on how many rows share its block."""
    s = np.zeros(a.shape[1])
    for row in a:
        s += row
    return s


def _solve_block(
    W: np.ndarray, top: np.ndarray, gaps: np.ndarray, lmax: float, out: np.ndarray
) -> int:
    """Penalties of the columns of W (rows in the eigenbasis, one per
    column) into ``out``; returns how many rows ran out of Newton steps."""
    w_sq = W**2
    rest_w_sq = np.compress(~top, w_sq, axis=0)
    w_top_sq = _col_sum(np.compress(top, w_sq, axis=0))
    vnorm = np.sqrt(_col_sum(w_sq))
    w_top_sq[w_top_sq <= (1e-14 * vnorm) ** 2] = 0.0

    # no top mass: the dual's derivative 1 - ||(lam - Qm)^{-1} w||^2 has the
    # finite limit d0 at lmax+; if d0 >= 0 the infimum is the boundary value
    # (zero rows land here too, with value lmax)
    d0 = 1.0 - _col_sum(rest_w_sq / gaps**2)
    boundary = (w_top_sq == 0.0) & (d0 >= 0.0)
    out[:] = lmax
    if boundary.any():
        out[boundary] += _col_sum(np.compress(boundary, rest_w_sq, axis=1) / gaps)
        rsq = np.compress(~boundary, rest_w_sq, axis=1)
    else:
        rsq = rest_w_sq

    idx = np.flatnonzero(~boundary)
    wt, hi = w_top_sq[idx], vnorm[idx] * (1.0 + 1e-15)
    # psi(x) <= 0 at the start: ||(x - Qm + lmax)^{-1} w|| >= 2 at half the
    # top mass, and d0 < 0 at x = 0 when there is none; psi(||v||) >= 0
    x = 0.5 * np.sqrt(wt)
    # the rows still stepping, compacted once some stop: where their x
    # lives, x itself, top mass, bracket end and rest columns
    pos, xa, wa, ha, ra = np.arange(idx.size), x, wt, hi, rsq
    for _ in range(_MAX_NEWTON):
        if pos.size == 0:
            break
        # in place: two (rest x rows) arrays at a time
        inv = xa + gaps
        np.divide(1.0, inv, out=inv)
        p2 = ra * inv
        p2 *= inv
        inv *= p2
        q2 = _col_sum(inv)
        p2 = _col_sum(p2)
        xt = np.where(wa > 0.0, xa, 1.0)  # only a row with no top mass sits at 0
        p2 += wa / (xt * xt)
        q2 += wa / (xt * xt * xt)
        # Newton on psi = 1/||p|| - 1 with ||p||^2 = p2, psi' = ||q||^2/||p||^3
        nxt = xa + p2 * (np.sqrt(p2) - 1.0) / q2
        # bisect a step that would leave the bracket [x, hi]; a step that does
        # not move x forward means psi(x) >= 0 at float resolution: converged
        nxt = np.where(nxt < ha, nxt, 0.5 * (xa + ha))
        moving = nxt > xa
        if moving.all():
            xa = nxt
            continue
        x[pos[~moving]] = xa[~moving]
        pos, xa, wa, ha = pos[moving], nxt[moving], wa[moving], ha[moving]
        ra = np.compress(moving, ra, axis=1)
    val = lmax + x + _col_sum(rsq / (x + gaps))
    out[idx] = val + wt / np.where(wt > 0.0, x, 1.0)
    return pos.size


def penalty_bounds(p: InnerMaxProblem, beta: float) -> tuple[float, float]:
    """Two-sided sandwich: (1-b^2) lmax + 2 b ||v||  <=  penalty  <=  lmax + 2||v||."""
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameter("beta must lie in [0, 1]")
    lmax = float(np.max(np.linalg.eigvalsh(p.Qm))) if p.Qm.size else 0.0
    vnorm = float(np.linalg.norm(p.v))
    lower = (1.0 - beta * beta) * lmax + 2.0 * beta * vnorm
    upper = lmax + 2.0 * vnorm
    return lower, upper


def gamma_fn(beta: float, kappa: float) -> float:
    """Pessimistic/optimistic matching ratio gamma(beta) for a given kappa.

    Piecewise: (2 - b^2 - 2 b k)/(1 - b^2 (1 + k^2)) while 1 - b^2 - b k > 0,
    else 1/(1 - b^2); minimized at beta_bar = k/(1+k^2) with value
    gamma_bar = 1 + 1/(1+k^2).
    """
    if not 0.0 <= beta <= 1.0 or not 0.0 <= kappa <= 1.0:
        raise InvalidParameter("beta and kappa must lie in [0, 1]")
    b2 = beta * beta
    if 1.0 - b2 - beta * kappa > 0.0:
        return (2.0 - b2 - 2.0 * beta * kappa) / (1.0 - b2 * (1.0 + kappa * kappa))
    if b2 >= 1.0:
        return float("inf")
    return 1.0 / (1.0 - b2)
