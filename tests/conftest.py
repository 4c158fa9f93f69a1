"""Shared helpers: independent numerical oracles and random problem builders.

The oracles here deliberately avoid the package's spectral machinery so that
agreement between them and the library is meaningful evidence, not a
tautology: the trace-constrained oracle is an accelerated projected-gradient
method with an augmented-Lagrangian treatment of the equality constraint, the
ball-maximization oracle is a dense sphere grid with a local polish, and the
secular-equation reference is plain bisection on the dual's derivative.
"""

from __future__ import annotations

import math

import numpy as np


def random_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    m = n if rank is None else rank
    b = rng.normal(size=(n, m))
    return b @ b.T


def project_box(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {0 <= X <= I} by eigenvalue clipping, of one
    matrix or of each matrix of an (R, n, n) stack."""
    x = 0.5 * (x + np.swapaxes(x, -1, -2))
    w, v = np.linalg.eigh(x)
    return (v * np.clip(w, 0.0, 1.0)[..., None, :]) @ np.swapaxes(v, -1, -2)


def trace_box_oracle(
    D: np.ndarray,
    E: np.ndarray,
    t: float,
    n_restarts: int = 6,
    outer: int = 12,
    inner: int = 400,
    seed: int = 0,
) -> float:
    """min Tr(D X) s.t. 0 <= X <= I, Tr(E X) = t, by augmented-Lagrangian
    accelerated projected gradient (FISTA on the smooth part, eigenvalue
    clipping as the projection).  The restarts run as one (R, n, n) stack:
    their step sizes and penalty schedule agree, only the multipliers differ."""
    D = 0.5 * (D + D.T)
    E = 0.5 * (E + E.T)
    n = D.shape[0]
    rng = np.random.default_rng(seed)
    trE = float(np.trace(E))
    best = math.inf
    starts = [np.zeros((n, n)), 0.5 * np.eye(n), np.eye(n) * min(1.0, t / max(trE, 1e-300))]
    while len(starts) < n_restarts:
        starts.append(project_box(random_sym(rng, n)))
    froE = float(np.linalg.norm(E)) + 1e-30

    def violation(xs: np.ndarray) -> np.ndarray:
        return np.sum(E * xs, axis=(1, 2)) - t

    x = project_box(np.stack(starts))
    y_mult = np.zeros(len(starts))
    mu = 1.0
    for _ in range(outer):
        lip = mu * froE * froE + 1e-12
        step = 1.0 / lip
        z = x.copy()
        tk = 1.0
        for _ in range(inner):
            grad = D + (y_mult + mu * violation(z))[:, None, None] * E
            x_new = project_box(z - step * grad)
            tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            z = x_new + ((tk - 1.0) / tk_new) * (x_new - x)
            x, tk = x_new, tk_new
        y_mult += mu * violation(x)
        mu = min(mu * 4.0, 1e8)
    for xr in x:
        # final exact feasibility repair: slide along a feasible segment
        viol = float(np.sum(E * xr)) - t
        if abs(viol) > 1e-11 * (1.0 + abs(t)):
            target = np.eye(n) if viol < 0.0 else np.zeros((n, n))
            gap = float(np.sum(E * target)) - float(np.sum(E * xr))
            if abs(gap) > 1e-14:
                theta = min(max(-viol / gap, 0.0), 1.0)
                xr = xr + theta * (target - xr)
        if abs(float(np.sum(E * xr)) - t) <= 1e-7 * (1.0 + abs(t) + trE):
            best = min(best, float(np.sum(D * xr)))
    return best


def ball_max_oracle(
    Qm: np.ndarray, v: np.ndarray, n_points: int = 1_000_000, seed: int = 0
) -> float:
    """max over the unit ball of eta^T Qm eta + 2 v^T eta, by a dense random
    sphere grid followed by a local polish on the sphere.

    For PSD Qm the objective is convex, so the maximum sits on the sphere.
    """
    Qm = 0.5 * (Qm + Qm.T)
    v = np.asarray(v, float)
    n = v.size
    rng = np.random.default_rng(seed)

    def obj_rows(u: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", u @ Qm, u) + 2.0 * u @ v

    best_val = -math.inf
    best_u = None
    chunk = 200_000
    done = 0
    while done < n_points:
        m = min(chunk, n_points - done)
        g = rng.normal(size=(m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = obj_rows(g)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_u = g[i].copy()
        done += m
    # polish: projected gradient ascent on the sphere
    u = best_u
    step = 0.5 / (np.linalg.norm(Qm, 2) + np.linalg.norm(v) + 1e-12)
    for _ in range(2000):
        grad = 2.0 * Qm @ u + 2.0 * v
        u_new = u + step * grad
        nrm = np.linalg.norm(u_new)
        if nrm > 0.0:
            u_new /= nrm
        if np.linalg.norm(u_new - u) < 1e-14:
            u = u_new
            break
        u = u_new
    return max(best_val, float(u @ Qm @ u + 2.0 * v @ u))


def secular_bisection_reference(Qm: np.ndarray, v: np.ndarray) -> float:
    """max over the unit ball of eta^T Qm eta + 2 v^T eta for PSD Qm, by 200
    bisection steps on the derivative of the convex dual

        inf_{lam > lambda_max}  lam + sum_i w_i^2/(lam - lam_i),  w = V^T v,

    whose root lies in [lambda_max + |w_top|/2, lambda_max + |v|].  With no
    mass on the top eigenspace and a nonnegative derivative at lambda_max+,
    the infimum is the boundary value there.
    """
    lams, vecs = np.linalg.eigh(0.5 * (Qm + Qm.T))
    lams, vecs = lams[::-1], vecs[:, ::-1]
    w = vecs.T @ np.asarray(v, float)
    lmax = float(lams[0]) if lams.size else 0.0
    vnorm = float(np.linalg.norm(w))
    if vnorm == 0.0:
        return lmax
    top = lams >= lmax - 1e-9 * (1.0 + float(np.max(np.abs(lams))))
    w_top_sq = float(np.sum(w[top] ** 2))
    rest_l = lams[~top]
    rest_w_sq = w[~top] ** 2

    def deriv(lam: float) -> float:
        return 1.0 - w_top_sq / (lam - lmax) ** 2 - float(
            np.sum(rest_w_sq / (lam - rest_l) ** 2)
        )

    if w_top_sq <= (1e-14 * vnorm) ** 2:
        w_top_sq = 0.0
        if 1.0 - float(np.sum(rest_w_sq / (lmax - rest_l) ** 2)) >= 0.0:
            return lmax + float(np.sum(rest_w_sq / (lmax - rest_l)))
        lo, hi = lmax, lmax + vnorm
    else:
        lo, hi = lmax + 0.5 * math.sqrt(w_top_sq), lmax + vnorm
    hi += 1e-15 * (1.0 + abs(hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    value = lam + float(np.sum(rest_w_sq / (lam - rest_l)))
    if w_top_sq > 0.0:
        value += w_top_sq / (lam - lmax)
    return value


def random_reduced_game(rng: np.random.Generator, n: int):
    """Random nonnegative reduced game (PSD Q, l in range(Q), r >= 0)."""
    from lqpersuasion import QuadraticForm

    q = random_psd(rng, 2 * n, rank=rng.integers(n, 2 * n + 1))
    l = rng.normal(size=2 * n)
    r = float(rng.uniform(0.0, 2.0))
    return QuadraticForm(n=n, Q=q, l=l, r=r)
