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
blocks of ``_BLOCK`` rows, one column per vector, all of them in one
``_Workspace`` allocated per call (the evaluator keeps one per worker, whose
affine map forms each v = x A - f from its sample x inside the blocks), so
the memory is O(min(rows, _BLOCK) * n) floats however many rows there are.
A block compacts its (rest x rows) arrays into the workspace with
``np.take``, not boolean or fancy indexing: the copy is the same, but
``take`` is faster and releases the GIL, so the Monte-Carlo evaluator's
worker threads overlap there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, InvalidParameter, NumericalFailure
from .spectral import eig_sym, sym


@dataclass(frozen=True)
class InnerMaxProblem:
    """Quadratic (Qm, v) of the inner maximization; Qm must be PSD."""

    Qm: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        qm = np.asarray(self.Qm, dtype=float)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if qm.shape[0] != v.shape[0]:
            raise InvalidParameter("Qm and v dimensions differ")
        if not (np.isfinite(qm).all() and np.isfinite(v).all()):
            raise InvalidMatrix("Qm and v must be finite")
        object.__setattr__(self, "Qm", sym(qm))
        object.__setattr__(self, "v", v)


# Newton steps per row, counting the last one, which finds x no longer
# moving; on the benchmark's Monte-Carlo inputs (100k Gaussian samples at n=3
# and at n=30) at seeds 0-31, no row needs more than 12 at n=3 or 8 at n=30
_MAX_NEWTON = 100

# rows per block, a multiple of _WIDTH: each 1-D quantity of a block takes
# 64 KB and each (rest x rows) array 1.9 MB at n = 30, so the two that a
# Newton step sweeps outgrow a 2 MB L2 and live in L3.  On a 2-vCPU Xeon VM
# (2 MB L2 per core), 100k samples of a random n = 30 game on two workers
# took 159 ms at 8192 rows and 157 ms at 16384, but 181 ms at 4096 and
# 212 ms at 2048: fewer rows pay more per-block Python overhead
_BLOCK = 8192

# columns of every product forming W (see _in_eigenbasis): one shape for all
# of them, small enough that a short batch pays little for its padding
_WIDTH = 512


class _Spectrum(NamedTuple):
    """What the blocks read of Qm's eigendecomposition (eigenvalues
    descending): the eigenvectors, how many lead the top band, the top
    eigenvalue and the (rest x 1) gaps below it, none of them zero."""

    vecs: np.ndarray
    top: int
    lmax: float
    gaps: np.ndarray


def _spectrum(Qm: np.ndarray) -> _Spectrum:
    lams, vecs = eig_sym(Qm)
    lmax = float(lams[0]) if lams.size else 0.0
    band = 1e-9 * (1.0 + float(np.max(np.abs(lams), initial=0.0)))
    # the values descend, so the top band is a prefix
    top = int(np.count_nonzero(lams >= lmax - band))
    return _Spectrum(vecs, top, lmax, (lmax - lams[top:])[:, None])


class _Workspace:
    """Buffers for blocks of up to ``rows`` vectors of one spectrum: W, two
    compaction targets, the two Newton temporaries, three column sums and
    ``_in_eigenbasis``'s padded piece, its image under ``affine`` (an
    (n x n) A and an n-vector f, see there) and product.  The 2-D buffers
    are flat, and a block views their heads at its own shape, C-contiguous,
    so that ``np.take`` writes its output in place instead of through a
    copy.  A workspace is made per call (per worker in the Monte-Carlo
    evaluator) and carries nothing from one block to the next."""

    def __init__(self, spectrum: _Spectrum, rows: int, affine: tuple | None = None):
        n = spectrum.vecs.shape[0]
        rest = n - spectrum.top
        self.spectrum, self.affine = spectrum, affine
        self.w = np.empty(n * rows)
        self.a, self.b, self.inv, self.p2 = np.empty((4, rest * rows))
        self.sums = np.empty((3, rows))
        self.pad, self.v = np.zeros((2, _WIDTH, n))
        self.prod = np.empty((n, _WIDTH))


def _view(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return buf[: rows * cols].reshape(rows, cols)


def worst_case_penalty(p: InnerMaxProblem) -> float:
    """Exact worst-case penalty max_{||eta||<=1} eta^T Qm eta + 2 v^T eta."""
    return float(worst_case_penalty_batch(p.Qm, p.v[None, :])[0])


def worst_case_penalty_batch(
    Qm: np.ndarray, V: np.ndarray, out: np.ndarray | None = None, *, _work: _Workspace | None = None
) -> np.ndarray:
    """Exact worst-case penalty for many v vectors (rows of ``V``), written
    into ``out`` (a new array if None) and returned.

    One eigendecomposition of Qm serves every row.  The rows are then solved
    in blocks of ``_BLOCK``, each in column layout: W = vecs^T V[block]^T has
    one column per row, so a sum over eigen-coordinates adds contiguous
    vectors.  Each row runs safeguarded Newton on its own secular equation
    (see the module docstring) and leaves the iteration once its step no
    longer moves x forward at float resolution.  Every block reuses one
    workspace, so the call allocates O(min(rows, _BLOCK) * n) floats of
    (rest x rows) arrays however many rows there are; a non-finite V or Qm
    raises ``InvalidMatrix``.  ``_work``, a ``_Workspace`` of Qm's
    ``_spectrum`` with at least min(rows, _BLOCK) rows, replaces both the
    decomposition and the workspace (Qm is then read for its size only,
    and V is not checked); with an affine map (A, f) the rows are states x,
    solved as the vectors x A - f.

    Every operation combines entries of one column only, in an order that
    does not depend on how many columns there are (W itself included, see
    ``_in_eigenbasis``), so splitting the rows anyhow gives bit-identical
    values; the Monte-Carlo evaluator relies on that.
    """
    V = np.asarray(V, dtype=float)
    m, n = V.shape
    if out is None:
        out = np.empty(m)
    if n == 0:
        out[:] = 0.0
        return out
    if _work is None and not np.isfinite(V).all():
        raise InvalidMatrix("V has non-finite entries")
    work = _work if _work is not None else _Workspace(_spectrum(Qm), min(m, _BLOCK))
    # a caller's workspace stands in for Qm: it must have been made for it
    assert work.spectrum.vecs.shape[0] == n == len(Qm) and work.sums.shape[1] >= min(m, _BLOCK)
    stuck = 0
    for s in range(0, m, _BLOCK):
        W = _in_eigenbasis(work, V[s : s + _BLOCK])
        stuck += _solve_block(W, work, out[s : s + _BLOCK])
    if stuck:
        raise NumericalFailure(f"inner-max Newton did not converge on {stuck} of {m} rows")
    return out


def _in_eigenbasis(work: _Workspace, rows: np.ndarray) -> np.ndarray:
    """W = vecs^T v^T in the workspace, one column per row: v = rows, or
    rows A - f with the workspace's affine map (A, f).

    A BLAS may order a product's sums by the product's shape (numpy even
    hands a product of one row or column to a matrix-vector kernel), so
    every product here spans ``_WIDTH`` rows, the last piece padded with
    zero rows.  At one shape OpenBLAS gives a row the same entries wherever
    it sits, so W's columns do not depend on how the rows are split.
    """
    m, n = rows.shape
    W = _view(work.w, n, m)
    vt = work.spectrum.vecs.T
    for j in range(0, m, _WIDTH):
        piece = rows[j : j + _WIDTH]
        k = piece.shape[0]
        if k < _WIDTH:
            work.pad[:k] = piece
            work.pad[k:] = 0.0
            piece = work.pad
        if work.affine is not None:
            piece = np.matmul(piece, work.affine[0], out=work.v)
            piece -= work.affine[1]
        np.matmul(vt, piece.T, out=work.prod)
        W[:, j : j + k] = work.prod[:, :k]
    return W


def _col_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the rows of ``a`` into ``out``, one row after another.
    numpy's own reduction turns pairwise once a single column is left,
    which would make a row's value depend on how many rows share its
    block."""
    out.fill(0.0)
    for row in a:
        out += row
    return out


def _compact(a: np.ndarray, keep: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The columns ``keep`` (indices) of ``a``, in ``buf``.  ``np.take``
    copies them as boolean indexing would, but releases the GIL, so the
    Monte-Carlo evaluator's worker threads overlap here, and with mode
    "clip" it writes a C-contiguous ``out`` directly, where ``np.compress``
    buffers its output."""
    return np.take(a, keep, axis=1, mode="clip", out=_view(buf, a.shape[0], keep.size))


def _solve_block(W: np.ndarray, work: _Workspace, out: np.ndarray) -> int:
    """Penalties of the columns of W (rows in the eigenbasis, one per
    column) into ``out``; returns how many rows ran out of Newton steps.
    W is squared in place."""
    _, k, lmax, gaps = work.spectrum
    m = W.shape[1]
    rest = W.shape[0] - k
    s0, s1, s2 = work.sums[:, :m]
    w_sq = np.square(W, out=W)
    rest_w_sq = w_sq[k:]
    w_top_sq = _col_sum(w_sq[:k], s0)
    vnorm = np.sqrt(_col_sum(w_sq, s1), out=s1)
    w_top_sq[w_top_sq <= (1e-14 * vnorm) ** 2] = 0.0

    # no top mass: the dual's derivative 1 - ||(lam - Qm)^{-1} w||^2 has the
    # finite limit d0 at lmax+; if d0 >= 0 the infimum is the boundary value
    # (zero rows land here too, with value lmax)
    d0 = _col_sum(np.divide(rest_w_sq, gaps**2, out=_view(work.inv, rest, m)), s2)
    np.subtract(1.0, d0, out=d0)
    boundary = (w_top_sq == 0.0) & (d0 >= 0.0)
    out[:] = lmax
    idx = np.flatnonzero(~boundary)
    # the buffers the Newton loop compacts its rest columns into, in turn
    spare = (work.a, work.b)
    if idx.size < m:
        on = np.flatnonzero(boundary)
        bsq = _compact(rest_w_sq, on, work.a)
        bsq /= gaps
        out[on] += _col_sum(bsq, s2[: on.size])
        rsq = _compact(rest_w_sq, idx, work.a)
        spare = (work.b, work.w)
    else:
        rsq = rest_w_sq

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
        inv = np.add(xa, gaps, out=_view(work.inv, rest, pos.size))
        np.divide(1.0, inv, out=inv)
        p2 = np.multiply(ra, inv, out=_view(work.p2, rest, pos.size))
        p2 *= inv
        inv *= p2
        q2 = _col_sum(inv, s0[: pos.size])
        p2 = _col_sum(p2, s1[: pos.size])
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
        # compacted by index: take copies a 1-D array several times faster
        # than a boolean mask selects from it
        keep, done = moving.nonzero()[0], (~moving).nonzero()[0]
        x[pos.take(done)] = xa.take(done)
        pos, xa, wa, ha = pos.take(keep), nxt.take(keep), wa.take(keep), ha.take(keep)
        ra = _compact(ra, keep, spare[0])
        spare = spare[::-1]
    div = np.add(x, gaps, out=_view(work.inv, rest, idx.size))
    np.divide(rsq, div, out=div)
    val = lmax + x + _col_sum(div, s2[: idx.size])
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
