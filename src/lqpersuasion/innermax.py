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


# Newton steps per row; on 100k Gaussian samples at n=3 and at n=30 no row
# needs more than 11
_MAX_NEWTON = 100


def worst_case_penalty(p: InnerMaxProblem) -> float:
    """Exact worst-case penalty max_{||eta||<=1} eta^T Qm eta + 2 v^T eta."""
    return float(worst_case_penalty_batch(p.Qm, p.v[None, :])[0])


def worst_case_penalty_batch(Qm: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Exact worst-case penalty for many v vectors (rows of ``V``).

    Each row runs safeguarded Newton on its own secular equation (see the
    module docstring) and leaves the iteration once its step no longer moves
    x forward at float resolution.  All arithmetic is row-wise, so splitting
    the rows into chunks gives bit-identical values; the Monte-Carlo
    evaluator relies on that.
    """
    lams, vecs = eig_sym(Qm)
    W = np.asarray(V, dtype=float) @ vecs  # rows in the eigenbasis
    m, n = W.shape
    if n == 0:
        return np.zeros(m)
    lmax = float(lams[0])
    top = lams >= lmax - 1e-9 * (1.0 + float(np.max(np.abs(lams))))
    gaps = lmax - lams[~top]  # every gap exceeds the band, so none is zero
    rest_w_sq = W[:, ~top] ** 2
    w_top_sq = np.sum(W[:, top] ** 2, axis=1)
    vnorm = np.sqrt(np.sum(W**2, axis=1))
    w_top_sq[w_top_sq <= (1e-14 * vnorm) ** 2] = 0.0

    # no top mass: the dual's derivative 1 - ||(lam - Qm)^{-1} w||^2 has the
    # finite limit d0 at lmax+; if d0 >= 0 the infimum is the boundary value
    # (zero rows land here too, with value lmax)
    d0 = 1.0 - np.sum(rest_w_sq / gaps**2, axis=1)
    boundary = (w_top_sq == 0.0) & (d0 >= 0.0)
    out = np.full(m, lmax)
    out[boundary] += np.sum(rest_w_sq[boundary] / gaps, axis=1)

    idx = np.flatnonzero(~boundary)
    wt, rsq, hi = w_top_sq[idx], rest_w_sq[idx], vnorm[idx] * (1.0 + 1e-15)
    # psi(x) <= 0 at the start: ||(x - Qm + lmax)^{-1} w|| >= 2 at half the
    # top mass, and d0 < 0 at x = 0 when there is none; psi(||v||) >= 0
    x = 0.5 * np.sqrt(wt)
    act = np.arange(idx.size)
    for _ in range(_MAX_NEWTON):
        if act.size == 0:
            break
        xa, wa = x[act], wt[act]
        # in place: two (rows x rest) arrays at a time
        inv = xa[:, None] + gaps
        np.divide(1.0, inv, out=inv)
        p2 = rsq[act]
        p2 *= inv
        p2 *= inv
        inv *= p2
        q2 = np.sum(inv, axis=1)
        p2 = np.sum(p2, axis=1)
        xt = np.where(wa > 0.0, xa, 1.0)  # only a row with no top mass sits at 0
        p2 += wa / (xt * xt)
        q2 += wa / (xt * xt * xt)
        # Newton on psi = 1/||p|| - 1 with ||p||^2 = p2, psi' = ||q||^2/||p||^3
        nxt = xa + p2 * (np.sqrt(p2) - 1.0) / q2
        # bisect a step that would leave the bracket [x, hi]; a step that does
        # not move x forward means psi(x) >= 0 at float resolution: converged
        nxt = np.where(nxt < hi[act], nxt, 0.5 * (xa + hi[act]))
        moving = nxt > xa
        x[act[moving]] = nxt[moving]
        act = act[moving]
    if act.size:
        raise NumericalFailure(
            f"inner-max Newton did not converge on {act.size} of {m} rows"
        )
    val = lmax + x + np.sum(rsq / (x[:, None] + gaps), axis=1)
    out[idx] = val + wt / np.where(wt > 0.0, x, 1.0)
    return out


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
