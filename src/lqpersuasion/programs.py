"""Solvers for the five covariance-level programs (BP, PP, UOP, POP, SPOP).

Every program minimizes a trace-linear objective with an optional concave
penalty over the spectrahedron {0 <= Sigma <= I}:

    BP    Tr(D S) + c
    PP    Tr(D S) + c + lb + sqrt(f + Tr(E S))
    UOP   Tr(D S) + c + lb
    POP   Tr(D S) + c + (1-bb^2) lb + bb*k*sqrt(f + Tr(E S))
    SPOP  Tr(D S) + c + lb * max_b [(1-b^2) + b*zeta(S)]

with lb = lambda_bar, bb = beta_bar, k = kappa, and
zeta = k*sqrt(f + Tr(E S))/lb.

The workhorse is the trace-constrained spectral oracle ``h_eq``: the value
h(t) = min Tr(D X) over {0 <= X <= I, Tr(E X) = t}.  h is convex,
nonincreasing on [0, t_bar] and nondecreasing on [t_bar, Tr E], with t_bar
the trace of E against the BP projection.  A probe of D + lam*E gives two
points of its graph, the traces and values of P_lt and P_le, its negative
and non-positive eigenprojections, and the minorant h(s) >= c(lam) - lam*s
of weak duality, c(lam) = sum min(mu_i, 0).  A gap between two points is
refined by a probe at its chord slope (the sandwich step of Burkard,
Hamacher and Rote, Naval Res. Logistics 38, 1991): ``h_eq`` descends the
gaps to the one that holds t, until the chord at t is within the tolerance
of a line, and interpolates the projections of its two ends, which yields
a duality-gap certificate without any external SDP solver.  At t = 0 and
t = Tr E the optimum is closed-form.

The penalized programs minimize j(t) = h(t) + psi(t) over the scalar t, with
psi(t) = alpha*sqrt(f+t) for PP and POP and, for SPOP, the beta-maximized
psi(t) = lb*max_b [(1-b^2) + b*k*sqrt(f+t)/lb], which is linear in t below
t_check = 4*lb^2/k^2 - f and k*sqrt(f+t) above it, with equal slopes at
t_check.  So every psi is concave and nondecreasing, and PP, POP and SPOP
differ only in their weights (alpha, offset, lb): PP (1, c + lb, 0), POP
(bb*k, c + (1-bb^2) lb, 0) and SPOP (k, c, lb).  h is convex, piecewise
smooth and nonincreasing on [0, t_bar], so j is concave on every linear
piece of h, and its minimum lies at a projection: the search runs over the
multiplier, not the trace.  It refines the gaps of the same tree as
``h_eq`` (lam >= 0), the lowest bound first, and stops with a certificate
that the best point is within ``rho`` of the true minimum.  The returned
projection is that point's.

The three programs so minimize over the same h of the same (D, E): the
programs solved on one ``DerivedCoefficients`` read its ``pencil`` record,
one BP projection, one closed form at t = 0 and one eigensolve per
distinct multiplier probed.  The record keeps the points each probe gave
(their traces, values, lines and eigenvalue masks), not its eigenvectors
(but the projections of the searches' winners, and the eigenvectors a
sweep's pass holds for a point that may win), and the tree of gaps that
``h_eq`` and the searches have refined: a chord slope depends on h alone,
so every program and every oracle call descends the same tree.  A
homothetic rescaling multiplies E, f and lambda_bar by eps^2, so its oracle
is h_eps(t) = h_1(t/eps^2): a search at scale eps minimizes h_1(s) + psi in
unit coordinates s = t/eps^2 on the unit system's record.

A sweep is one coefficient system and a vector of scales, each eps a column
of one search, the sandwich algorithm's use for a family of convex problems
(Rote, Computing 48, 1992): every point of the tree has a value at every
eps and every gap a bound at every eps, so one pass holds them as points x
eps and gaps x eps matrices, every eps still uncertified refines its own
lowest gap, and a gap that several need is refined once.  A single solve
runs the same search on one column, from a heap.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InfeasibleTrace,
    InvalidMatrix,
    InvalidParameter,
    InvalidTolerance,
    NotPSD,
    NumericalFailure,
    OracleDiverged,
)
from .instance import DerivedCoefficients, PriorStats
from .spectral import neg_part, sym


@dataclass
class HOracleResult:
    """One trace-constrained oracle call: primal X, dual multiplier, value.

    ``projections`` are the orthogonal projections that X interpolates:
    (P_a, P_b), the projections of the two points of the record's gap tree
    around t, ordered by their traces of E, Tr(E P_a) <= t <= Tr(E P_b),
    with X = P_a + theta*(P_b - P_a), or (X,) where X is itself a projection
    (the endpoint closed forms and the BP result).  X itself is rebuilt from
    them on first read, by the expression the oracle evaluated.  The
    penalized programs read one result per record, the closed form at t = 0
    (``_Pencil.ends``).
    """

    t: float
    value: float
    lambda_dual: float
    dual_value: float
    projections: tuple[np.ndarray, ...]
    theta: float = 0.0

    @functools.cached_property
    def X(self) -> np.ndarray:
        if len(self.projections) == 1:
            return self.projections[0]
        p_a, p_b = self.projections
        return p_a + self.theta * (p_b - p_a)


@dataclass
class ProgramSolution:
    """Solution record of one program.

    ``projection`` is a rho-optimal projective solution Sigma of the
    program, ``value`` its objective, ``rank`` its rank (not certified to be
    the least rank within rho), and ``rho`` the certified suboptimality of
    ``value`` (0 for exactly solved programs).
    """

    program: str
    value: float
    rank: int
    rho: float
    projection: np.ndarray


def _rank_projection(p: np.ndarray) -> int:
    """Rank of an orthogonal projection, which is its trace."""
    return int(round(float(np.trace(p))))


# --------------------------------------------------------------------------
# trace-constrained spectral oracle
# --------------------------------------------------------------------------


class _Pencil:
    """Per-(D, E) data of the trace oracle, shared by every ``h_eq`` call and
    every penalized search on the same pair: the symmetrized matrices, their
    traces, the spectrum and norm of D and the projection onto its negative
    eigenspace (the BP optimum), all from one ``eigh`` of D, and, on first
    use, the split of E into range and kernel (``e_split``), the norm of E,
    the trace t_bar of E against the BP projection, the points of the graph
    of h that every search starts from (``ends``, ``bp_point``, ``top``), in
    ``probes`` the points (``_Point``) that each multiplier probed gave, which
    the later calls read instead of solving D + lam*E again, and in ``gaps``
    the refinement tree that ``h_eq`` and the penalized searches descend
    (see ``refine``).

    ``DerivedCoefficients.pencil`` holds one per unit-scale coefficient
    system, and every homothetic rescaling of it reads the same record: with
    E scaled by e^2, h_e(t) = h(t/e^2) and the multiplier scales by 1/e^2,
    while values, dual values and projections do not depend on e.  The
    structural checks read their eigenvalues of D and E here too.  A
    non-finite entry of D or E is ``InvalidMatrix``."""

    def __init__(self, D: np.ndarray, E: np.ndarray):
        if not (np.isfinite(D).all() and np.isfinite(E).all()):
            raise InvalidMatrix("the trace program needs finite D and E")
        self.D = sym(D)
        self.E = sym(E)
        self.trD = float(np.trace(self.D))
        self.trE = float(np.trace(self.E))
        # eigD ascending; D's eigenvectors are not kept
        self.eigD, v = np.linalg.eigh(self.D)
        self.normD = float(np.max(np.abs(self.eigD), initial=0.0))
        self.bp = neg_part(self.eigD, v)
        self.probes: dict[float, tuple[_Point, ...]] = {}
        self.gaps: dict[tuple[float, float], tuple[_Point, ...]] = {}
        # the latest split solved (see ``split``)
        self._split: tuple[float, tuple[np.ndarray, np.ndarray]] | None = None

    @functools.cached_property
    def e_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(we, ve, ker, wk, uk): E = ve diag(we) ve^T (we ascending), the mask
        of its kernel, we <= 1e-12*(1 + |E|), and D's block on that kernel,
        V_K^T D V_K = uk diag(wk) uk^T with V_K = ve[:, ker] (empty, with no
        eigensolve, when E is nonsingular).  The spectrum of E and the
        endpoint closed forms of ``h_eq`` read it."""
        we, ve = np.linalg.eigh(self.E)
        ker = we <= 1e-12 * (1.0 + float(np.max(np.abs(we), initial=0.0)))
        if ker.any():
            wk, uk = np.linalg.eigh(sym(ve[:, ker].T @ self.D @ ve[:, ker]))
        else:
            wk, uk = np.empty(0), np.empty((0, 0))
        return we, ve, ker, wk, uk

    @property
    def eigE(self) -> np.ndarray:
        """Eigenvalues of E, ascending."""
        return self.e_split[0]

    @functools.cached_property
    def normE(self) -> float:
        return float(np.max(np.abs(self.eigE), initial=0.0))

    @functools.cached_property
    def bp_result(self) -> HOracleResult:
        """The BP projection as an oracle result at t = 0, whose value is
        Tr(D P_BP): the oracle's and every search's optimum where E vanishes."""
        value = float(np.sum(self.D * self.bp))
        return HOracleResult(t=0.0, value=value, lambda_dual=0.0, dual_value=value,
                             projections=(self.bp,))

    @functools.cached_property
    def t_bar(self) -> float:
        """Tr(E P_BP), clamped to [0, Tr E]: h is nonincreasing on [0, t_bar]
        and nondecreasing on [t_bar, Tr E]."""
        return min(max(float(np.sum(self.E * self.bp)), 0.0), self.trE)

    def closed_form(self, top: bool) -> tuple[np.ndarray, float]:
        """(X, h) at t = 0, or at t = Tr E if ``top``.  At the trace endpoints
        the multiplier runs away, but the optimum is closed-form: Tr(E X) = 0
        forces X onto ker E, and Tr(E X) = Tr E forces X = I on range E,
        leaving a free box minimization on ker E."""
        _, ve, ker, wk, uk = self.e_split
        x = np.zeros_like(self.D)
        value = 0.0
        if top:
            vr = ve[:, ~ker]
            pr = vr @ vr.T
            x += pr
            value += float(np.sum(self.D * pr))
        neg = wk < -1e-13 * (1.0 + self.normD)  # empty when E is nonsingular
        un = ve[:, ker] @ uk[:, neg]
        x += un @ un.T
        value += float(np.sum(wk[neg]))
        return x, value

    @functools.cached_property
    def bp_point(self) -> _Point:
        """The BP projection at t_bar, with the flat line h >= sum min(eig D, 0)
        of lam = 0, which holds at every s."""
        c = float(np.sum(np.minimum(self.eigD, 0.0)))
        return _Point(self.t_bar, self.bp_result.value, 0.0, c, c, proj=self.bp)

    @functools.cached_property
    def ends(self) -> tuple[_Point, ...]:
        """The ends of the penalized searches: ``h_eq``'s closed form at t = 0,
        with no line (its multiplier runs away), and, where t_bar > 0, the BP
        point."""
        r = h_eq(self.D, self.E, 0.0, pencil=self)
        origin = _Point(0.0, r.value, 0.0, proj=r.X)
        return (origin, self.bp_point) if self.t_bar > 0.0 else (origin,)

    @functools.cached_property
    def top(self) -> _Point:
        """The closed form at t = Tr E, with no line: the right end of the
        tree above t_bar."""
        x, value = self.closed_form(top=True)
        return _Point(self.trE, value, 0.0, proj=x)

    def split(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) of D + lam*E, kept for the latest lam alone: a projection
        reads it right after its probe.  Raw eigh (no sign fixing) is fine:
        only spectral projections, sign-invariant, are read."""
        if self._split is None or self._split[0] != lam:
            self._split = (lam, np.linalg.eigh(self.D + lam * self.E))
        return self._split[1]

    def holds(self, lam: float) -> bool:
        """Whether ``split`` holds the eigenvectors at lam: a projection at
        lam then costs no eigensolve."""
        return self._split is not None and self._split[0] == lam

    def probe(self, lam: float) -> tuple[_Point, ...]:
        """The points of the graph of h that D + lam*E gives, ascending: the
        traces and values of its negative and, if its trace differs, its
        non-positive eigenprojection, which minimize h(s) + lam*s; an
        eigensolve only for a new lam.

        Eigenvalues within a machine-precision-relative band of zero count as
        zero: only the genuinely crossing eigenvalue should (a wide band would
        leak into the duality gap).  With w the eigenvalues and e the diagonal
        of E in their eigenbasis, a projection P onto the columns in a mask
        has Tr(E P) = sum e and Tr(D P) = sum w - lam*Tr(E P), and both
        carry the weak-duality line h(s) >= c - lam*s, c = sum min(w, 0).  For
        lam < 0, where P is near I and those sums cancel terms of size
        |lam|*Tr E, the trace and value are read from the complement I - P
        instead, Tr E - Tr(E (I - P)) and Tr D - Tr(D (I - P)), and the line
        from its value at the point itself.  A point holds its mask, not the
        eigenvectors (n^2 floats each): ``split`` keeps those of the latest
        lam only (see ``_Point.hold``)."""
        pts = self.probes.get(lam)
        if pts is None:
            w, v = self.split(lam)
            e = np.einsum("ij,ij->j", v, self.E @ v)  # v_j^T E v_j >= 0 up to rounding
            c = float(np.sum(np.minimum(w, 0.0)))

            def point(cols: np.ndarray) -> _Point:
                if lam >= 0.0:
                    g = float(np.sum(e[cols]))
                    h = float(np.sum(w[cols])) - lam * g
                    return _Point(g, h, lam, c, c - lam * g, cols=cols)
                gc = float(np.sum(e[~cols]))
                g, h = self.trE - gc, self.trD - (float(np.sum(w[~cols])) - lam * gc)
                # the line at g: h plus the eigenvalues of the band on the
                # wrong side of zero, no term of size |lam|*Tr E
                d = (h + float(np.sum(np.minimum(w[~cols], 0.0)))
                     - float(np.sum(np.maximum(w[cols], 0.0))))
                return _Point(g, h, lam, d + lam * g, d, cols=cols)

            ztol = 1e-13 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
            lo, hi = point(w < -ztol), point(w <= ztol)
            pts = self.probes[lam] = (lo, hi) if hi.s > lo.s else (lo,)
        return pts

    def refine(self, a: _Point, b: _Point) -> tuple[_Point, ...]:
        """The points strictly inside the gap (a, b) that a probe at its chord
        slope finds, ascending; none when h is linear on [a, b].

        With lam the chord slope, h(s) + lam*s is convex, equal at a and b,
        and minimal on the probe's trace interval: if that interval has no
        point inside (a, b), h + lam*s is constant on [a, b].  A chord slope
        depends on h alone, so the record keeps the answer for every search,
        keyed by the traces of the gap's ends."""
        key = (a.s, b.s)
        kids = self.gaps.get(key)
        if kids is None:
            lam = (a.h - b.h) / (b.s - a.s)
            kids = ()
            if lam != 0.0:  # else the chord is flat: h is constant on [a, b]
                pts = self.probe(lam)
                if len(pts) == 2:
                    # h is linear between the two
                    self.gaps.setdefault((pts[0].s, pts[1].s), ())
                kids = tuple(q for q in pts if a.s < q.s < b.s)
            self.gaps[key] = kids
        return kids


class _Point:
    """A point (s, h) of the graph of h in unit coordinates, the trace and
    value of a projection P, with the weak-duality line h(x) >= c - lam*x of
    its multiplier and that line's value d at s (c and d None at the closed
    forms of t = 0 and t = Tr E, whose multiplier runs away).  ``line``
    evaluates it from d, near the point (for lam < 0, d has no term of size
    |lam|*Tr E; see ``_Pencil.probe``).  P is given, or formed from the
    columns ``cols`` of the split at lam and, if ``keep``, kept: the searches
    read their best points' again, while ``h_eq`` keeps none, as each call
    would leave an n^2 array in the record.  A sweep's pass ``hold``s the
    columns themselves (n x rank floats) while the split is at hand, for a
    point that may yet win."""

    __slots__ = ("s", "h", "lam", "c", "d", "_proj", "_cols", "_u")

    def __init__(self, s: float, h: float, lam: float, c: float | None = None,
                 d: float | None = None, proj: np.ndarray | None = None,
                 cols: np.ndarray | None = None):
        self.s, self.h, self.lam, self.c, self.d = s, h, lam, c, d
        self._proj, self._cols, self._u = proj, cols, None

    def line(self, x: float) -> float:
        return self.d - self.lam * (x - self.s)

    @property
    def held(self) -> bool:
        return self._proj is not None or self._u is not None

    def hold(self, pen: _Pencil) -> None:
        self._u = pen.split(self.lam)[1][:, self._cols]

    def projection(self, pen: _Pencil, keep: bool = True) -> np.ndarray:
        if self._proj is not None:
            return self._proj
        u = pen.split(self.lam)[1][:, self._cols] if self._u is None else self._u
        p = u @ u.T
        if keep:
            self._proj, self._u = p, None
        return p


# probes one ``h_eq`` call may make; on a smooth stretch of h a probe about
# halves the gap around t, and the deepest call of the oracle fuzz and of
# targets within 1e-9*Tr E of an end of a nearly singular E makes 20
_MAX_PROBES = 100


def h_eq(
    D: np.ndarray,
    E: np.ndarray,
    t: float,
    tol: float | None = None,
    pencil: _Pencil | None = None,
) -> HOracleResult:
    """min Tr(D X) over {0 <= X <= I, Tr(E X) = t}, with a gap certificate.

    h is convex, so a chord between two points of its graph bounds it above
    and the weak-duality line of either point, h(s) >= c - lam*s, bounds it
    below.  Below t_bar the call descends the record's gap tree (see
    ``_Pencil.refine``) from the root [0, t_bar], above it from
    [t_bar, Tr E], to the gap [a, b] that holds t, until the chord at t is
    within ``tol`` of the better of a's and b's lines at t.  X is the
    interpolation of a's and b's projections with Tr(E X) = t, ``value`` the
    chord, ``dual_value`` that line and ``lambda_dual`` its multiplier;
    ``OracleDiverged`` if no gap certifies within ``_MAX_PROBES`` probes.  At
    t = 0 and t = Tr E (within the rounding of the trace) the optimum is
    closed-form.  D and E must be finite (``InvalidMatrix`` otherwise) and E
    positive semidefinite up to 1e-12*(1 + |E|) (``NotPSD`` otherwise).
    ``pencil`` is the shared ``_Pencil`` of (D, E), for callers that evaluate
    many t on the same pair; a call on it returns bitwise what one on a
    fresh record does, as the descent from the root is deterministic.  A
    nan or negative ``tol`` is ``InvalidTolerance``, before any eigensolve.
    """
    if tol is not None and not tol >= 0.0:  # a nan tolerance fails it too
        raise InvalidTolerance(f"oracle tolerance must be nonnegative, got {tol}")
    pen = _Pencil(D, E) if pencil is None else pencil
    trE, normD, normE = pen.trE, pen.normD, pen.normE
    if pen.eigE[0] < -1e-12 * (1.0 + normE):
        raise NotPSD(f"E has eigenvalue {pen.eigE[0]:.3e}; the trace program needs E >= 0")
    # relative to Tr E, so that a target outside [0, Tr E] is rejected at
    # every scale of E; the floor keeps t = 0 feasible when E vanishes
    feas_tol = 1e-9 * max(abs(trE), 1e-13 * (1.0 + normE))
    if not -feas_tol <= t <= trE + feas_tol:  # a nan target fails it too
        raise InfeasibleTrace(f"trace target {t} outside [0, {trE}]")
    t = min(max(float(t), 0.0), trE)
    if tol is None:
        tol = 1e-9 * (1.0 + normD + normE)

    if trE <= 1e-13 * (1.0 + normE):
        # E vanishes: the constraint is vacuous at t ~ 0
        return replace(pen.bp_result, t=t)

    # a target within the rounding of a trace of E from an end is that end
    snap = 4.0 * pen.D.shape[0] * np.finfo(float).eps * trE
    if t <= snap or t >= trE - snap:
        x, value = pen.closed_form(top=t >= trE - snap)
        return HOracleResult(t=t, value=value, lambda_dual=0.0, dual_value=value,
                             projections=(x,))

    a, b = pen.ends if t <= pen.t_bar else (pen.bp_point, pen.top)
    for probes in range(_MAX_PROBES + 1):
        theta = (t - a.s) / (b.s - a.s)
        value = a.h + theta * (b.h - a.h)
        # the closed forms at the ends have no line
        sup = max((p for p in (a, b) if p.d is not None), key=lambda p: p.line(t), default=None)
        dual = -math.inf if sup is None else sup.line(t)
        if value - dual <= tol or probes == _MAX_PROBES:
            break
        kids = pen.refine(a, b)
        if not kids:
            # h is linear on [a, b]: the line of its chord slope, which
            # ``refine`` probed, supports all of it (for a flat chord, the BP
            # point's flat line)
            lam = (a.h - b.h) / (b.s - a.s)
            sup = pen.probe(lam)[0] if lam != 0.0 else pen.bp_point
            dual = sup.line(t)
            break
        i = sum(q.s < t for q in kids)
        a, b = (a, *kids, b)[i:i + 2]
    if abs(value - dual) > tol:
        raise OracleDiverged(
            f"duality gap {abs(value - dual):.3e} exceeds tolerance {tol:.3e} "
            f"at t={t}"
        )
    projections = (a.projection(pen, keep=False), b.projection(pen, keep=False))
    return HOracleResult(t=t, value=value, lambda_dual=sup.lam, dual_value=dual,
                         projections=projections, theta=theta)


# --------------------------------------------------------------------------
# scalar penalized minimization with a suboptimality certificate
# --------------------------------------------------------------------------


# points one penalized search may hold before it gives up
_MAX_EVALS = 4000


def _penalty(w: float, lam_bar: float) -> Callable[[float], float]:
    """The penalty psi as a function of q = sqrt(f + t): w*q when lam_bar is
    zero (up to 1e-14 relative), else lam_bar*beta_max_value(w*q/lam_bar),
    the maximum over b in [0, 1] of lam_bar*(1-b^2) + b*w*q."""
    if lam_bar <= 1e-14 * (1.0 + abs(lam_bar)):
        return lambda q: w * q
    return lambda q: lam_bar * beta_max_value(w * q / lam_bar)


def _penalty_cols(w: np.ndarray, lam_bar: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``_penalty`` for the columns of the arrays (w, lam_bar), at arrays q
    that broadcast against them: the same IEEE operations, so bitwise the
    same values."""
    beta = lam_bar > 1e-14 * (1.0 + abs(lam_bar))
    lb = lam_bar[beta]

    def psi(q: np.ndarray) -> np.ndarray:
        out = w * q
        z = out[..., beta] / lb
        out[..., beta] = lb * np.where(z >= 2.0, z, 1.0 + z * z / 4.0)
        return out

    return psi if beta.any() else lambda q: w * q


def _gap_terms(a: _Point, b: _Point, f: float) -> tuple[float, float, float, float, float]:
    """The terms of the lower bound of j = h + psi on the gap [a, b] that do
    not depend on psi: (qa, qx, qb, ta, tx), with q = sqrt(f + s) at a, at
    the crossing x of the two ends' lines (clamped to [a, b]) and at b, and
    ta, tx the lines' values at a and at x, so that for every psi

        max(b.d + psi(qa), min(ta + psi(qa), tx + psi(qx), b.d + psi(qb)))

    bounds j on [a, b] (see ``_minimize_penalized``).  The origin has no
    line: its gap reads b's line at a, and tx is inf."""
    if a.c is None:
        x, ta, tx = b.s, b.c - b.lam * a.s, math.inf
    else:
        x = (a.c - b.c) / (a.lam - b.lam) if a.lam > b.lam else b.s
        x = min(max(x, a.s), b.s)
        ta, tx = a.d, a.c - a.lam * x
    return math.sqrt(f + a.s), math.sqrt(f + x), math.sqrt(f + b.s), ta, tx


def _at_resolution(qa, qb):
    """Whether a gap's ends differ in q = sqrt(f + s) by its rounding alone:
    no probe can split such a gap, so it is never refined, but its bound
    stays in the certificate."""
    return qb - qa <= 1e-13 * (1.0 + qb)


def _tie(best):
    """The band above the best value in which the smallest trace wins (it
    prefers revealing less)."""
    return 1e-12 * (1.0 + abs(best))


def _certified(best: float, low: float, rho: float) -> float:
    """The certified suboptimality best - low of the lowest open bound, at
    least 0.  Above rho only a gap at floating-point resolution can leave
    it, and the search cannot certify rho: ``NumericalFailure``."""
    if best - low > rho:
        raise NumericalFailure(
            f"a gap at floating-point resolution leaves {best - low:.3e} "
            f"uncertified, above rho={rho}"
        )
    return max(0.0, best - low)


def _over_budget(rho: float) -> NumericalFailure:
    return NumericalFailure(
        f"penalized search exceeded its evaluation budget without certifying rho={rho}"
    )


def _search(pen: _Pencil, f: float, psi: Callable[[float], float], rho: float):
    """One column's search, the lowest bound first from a heap of gaps:
    (best point, certified rho)."""
    heap: list = []
    stuck: list[float] = []

    def add(a: _Point, b: _Point) -> None:
        qa, qx, qb, ta, tx = _gap_terms(a, b, f)
        pa = psi(qa)
        bound = max(b.d + pa, min(ta + pa, tx + psi(qx), b.d + psi(qb)))
        if _at_resolution(qa, qb):
            stuck.append(bound)
        else:
            heapq.heappush(heap, (bound, a.s, a, b))

    pts = pen.ends
    vals = {p: p.h + psi(math.sqrt(f + p.s)) for p in pts}
    best = min(vals.values())
    for a, b in zip(pts[:-1], pts[1:]):
        add(a, b)

    margin = rho * (1.0 - 1e-9)
    while heap and heap[0][0] < best - margin:
        if len(vals) > _MAX_EVALS:
            raise _over_budget(rho)
        _, _, a, b = heapq.heappop(heap)
        kids = pen.refine(a, b)
        for p in kids:
            vals[p] = p.h + psi(math.sqrt(f + p.s))
            best = min(best, vals[p])
        chain = (a, *kids, b) if kids else ()
        for x, y in zip(chain[:-1], chain[1:]):
            add(x, y)

    certified = _certified(best, min(stuck + [e[0] for e in heap[:1]], default=best), rho)
    tie = _tie(best)
    return min((p for p, v in vals.items() if v <= best + tie), key=lambda p: p.s), certified


def _pass(pen: _Pencil, f: float, w: np.ndarray, lam_bar: np.ndarray, rho: float):
    """The searches of the columns (w, lam_bar), each that of ``_search``
    at psi = ``_penalty(w, lam_bar)``, in one pass over one list of gaps:
    [(best point, certified rho)], one per column.

    Every point has a value per column and every gap a bound per column,
    from the terms of ``_gap_terms``, computed once per gap.  Each round,
    every column not yet certified picks its own lowest gap, ties going to
    the smaller trace, as its own best-first search would, and each gap
    picked is refined once.  The best value of a column only falls, so a
    point found outside every column's tie band never enters one and cannot
    win; a point found inside one holds its eigenvectors while the probe's
    split is at hand (``_Point.hold``), for its projection to cost no
    eigensolve if it wins here or in a later search."""
    m = len(w)
    cols = np.arange(m)
    psi = _penalty_cols(w, lam_bar)

    def values(new) -> np.ndarray:
        return np.array([[p.h] for p in new]) + psi(np.array([[math.sqrt(f + p.s)] for p in new]))

    gaps: list[tuple[_Point, _Point]] = []
    rows = stuck = np.empty((0, m))

    def add(new) -> None:
        """Adds the bounds of the new gaps, those at floating-point
        resolution to ``stuck``, and sorts the gaps by trace."""
        nonlocal gaps, rows, stuck
        t = np.array([_gap_terms(a, b, f) for a, b in new])
        db = np.array([[b.d] for _, b in new])
        pa, px, pb = psi(t[:, :3, None]).transpose(1, 0, 2)
        new_rows = np.maximum(db + pa, np.minimum(
            np.minimum(t[:, 3:4] + pa, t[:, 4:5] + px), db + pb))
        res = _at_resolution(t[:, 0], t[:, 2])
        if res.any():
            stuck = np.vstack([stuck, new_rows[res]])
        gaps += [g for g, r in zip(new, res) if not r]
        order = sorted(range(len(gaps)), key=lambda i: gaps[i][0].s)
        gaps = [gaps[i] for i in order]
        rows = np.vstack([rows, new_rows[~res]])[order]

    pts = list(pen.ends)
    vals = [values(pts)]
    best = vals[0].min(axis=0)
    if len(pts) > 1:
        add(list(zip(pts[:-1], pts[1:])))

    margin = rho * (1.0 - 1e-9)
    while gaps:
        low = rows.argmin(axis=0)  # the first of equal bounds: the smaller trace
        need = rows[low, cols] < best - margin
        if not need.any():
            break
        if len(pts) > _MAX_EVALS:
            raise _over_budget(rho)
        picked = set(low[need].tolist())
        new = []
        for a, b in (gaps[i] for i in sorted(picked)):
            kids = pen.refine(a, b)  # none where h is linear: the gap closes
            if kids:
                j = values(kids)
                pts.extend(kids)
                vals.append(j)
                best = np.minimum(best, j.min(axis=0))
                near = (j <= best + _tie(best)).any(axis=1)
                for p, x in zip(kids, near.tolist()):
                    if x and not p.held and pen.holds(p.lam):
                        p.hold(pen)
                chain = (a, *kids, b)
                new += zip(chain[:-1], chain[1:])
        keep = [i for i in range(len(gaps)) if i not in picked]
        gaps, rows = [gaps[i] for i in keep], rows[keep]
        if new:
            add(new)

    low = np.vstack([rows, stuck]).min(axis=0, initial=math.inf)
    certified = [_certified(x, y, rho) for x, y in zip(best.tolist(), low.tolist())]
    by_trace = sorted(range(len(pts)), key=lambda i: pts[i].s)
    first = np.argmax((np.vstack(vals) <= best + _tie(best))[by_trace], axis=0)
    return [(pts[by_trace[i]], c) for i, c in zip(first.tolist(), certified)]


def _minimize_penalized(dc: DerivedCoefficients, scales: Sequence[float], alpha: float,
                        lam_bars: Sequence[float], rho: float):
    """Certified minimization of h(t) + psi(t) over [0, t_bar] in each
    column k, the system dc rescaled by ``scales[k]`` with its lam_bar in
    ``lam_bars``, where psi is ``_penalty(alpha, lam_bar)`` at q = sqrt(f + t).

    Returns one (t_best, projection, certified_rho) per column: the best
    point's trace in the column's units and its projection.  psi is concave
    and nondecreasing (see ``solve_spop``), so j = h + psi is concave where
    h is linear, and its minimum lies at a point of the graph of h that a
    probe of D + lam*E finds (``_Pencil.refine``).

    The search starts from the two ends, the closed form at 0 and the BP
    projection at t_bar, and keeps its points sorted by trace.  A gap [a, b]
    between two of them is bounded below by the larger of the monotone bound
    h(b) + psi(a), with h(b) read from b's line (h is nonincreasing on
    [0, t_bar], psi nondecreasing), and the smallest of l_a(a) + psi(a),
    l_a(x) + psi(x) and l_b(b) + psi(b), where x, clamped to [a, b], is the
    crossing of the lines l_a and l_b of the two ends: h >= l_a on [a, x] and
    h >= l_b on [x, b], and each line plus psi is concave.  The origin has
    no line, so its gap uses b's alone.  The lowest gap is refined until
    every gap's bound is within ``rho`` of the best point; a gap on which h
    is linear closes, as j is concave there.  A gap whose ends differ by the
    rounding of q is never refined, but its bound stays in the certificate
    (``NumericalFailure`` if that leaves more than rho).  Of the points
    within 1e-12*(1 + |best|) of the best value, the smallest trace wins.

    Every column runs on ``dc.pencil``, the record of the unit system, at
    the scale e = dc.scale*scales[k] of the unit system: with s = t/e^2,
    sqrt(f + t) is e*sqrt(f1 + s), so it minimizes h1(s) + psi at
    q = sqrt(f1 + s) with weight alpha*e, and every program at every scale
    descends one tree.  A single solve is one column, scales = [1.0],
    searched best first from a heap (``_search``); several are searched in
    one pass (``_pass``), whose column picks the gap that the heap would pop.
    """
    if not rho > 0.0:
        raise InvalidTolerance(f"suboptimality budget rho must be positive, got {rho}")
    if alpha < 0.0:
        raise InvalidParameter("penalty weight alpha must be nonnegative")
    pen = dc.pencil
    f = max(float(dc.unit.f), 0.0)
    es = [dc.scale * s for s in scales]
    # where E vanishes at a column's scale, the constraint is vacuous and the
    # optimum is the BP projection at t = 0
    out = [(0.0, pen.bp, 0.0)] * len(es)
    live = [k for k, e in enumerate(es) if e * e * pen.trE > 1e-13 * (1.0 + e * e * pen.normE)]
    w = [alpha * es[k] for k in live]
    lb = [lam_bars[k] for k in live]
    if len(live) == 1:
        found = [_search(pen, f, _penalty(w[0], lb[0]), rho)]
    else:
        found = _pass(pen, f, np.array(w), np.array(lb), rho) if live else []
    for k, (p, certified) in zip(live, found):
        out[k] = (es[k] * es[k] * p.s, p.projection(pen), certified)
    return out


# --------------------------------------------------------------------------
# projection extraction
# --------------------------------------------------------------------------


def extract_projection(
    candidates: Sequence[np.ndarray], objective: Callable[[np.ndarray], float]
) -> tuple[np.ndarray, float]:
    """Best of the candidate orthogonal projections, and its objective value.

    The candidates are scored in ascending rank order (a stable sort, so
    candidates of equal rank keep their order), and ties within a tiny band
    relative to the best score go to the lower rank.  The program objectives
    are concave in Sigma, so the best of the projections that an X
    interpolates scores no worse than X itself.

    An objective may also score a candidate in several columns at once, as
    a sweep scores a projection at every scale that found it, and return an
    array: each column then chooses by the same rule, and the result is the
    list of the candidates chosen and the array of their values.
    """
    ranked = sorted(candidates, key=_rank_projection)
    scores = np.array([objective(p) for p in ranked])
    best = scores.min(axis=0)
    pick = np.argmax(scores <= best + 1e-11 * (1.0 + abs(best)), axis=0)
    if scores.ndim == 1:
        return ranked[pick], float(scores[pick])
    return [ranked[i] for i in pick.tolist()], scores[pick, np.arange(scores.shape[1])]


# --------------------------------------------------------------------------
# the five programs
# --------------------------------------------------------------------------


def solve_bp(dc: DerivedCoefficients) -> ProgramSolution:
    """Bayesian program: exact, Sigma = projection onto D's negative space."""
    p_lt = dc.pencil.bp
    return ProgramSolution(
        program="BP", value=dc.pencil.bp_result.value + dc.c,
        rank=_rank_projection(p_lt), rho=0.0, projection=p_lt,
    )


def default_rho(dc: DerivedCoefficients) -> float:
    """Default suboptimality budget: 1e-6 * (1 + |BP value|)."""
    return 1e-6 * (1.0 + abs(solve_bp(dc).value))


def _weights(program: str, c: float, lambda_bar, kappa: float = 0.0, beta_bar: float = 0.0):
    """(alpha, offset, lam_bar) of PP, POP or SPOP, for a float lambda_bar or
    bitwise per column of an array: each minimizes Tr(D S) + offset +
    psi(Tr(E S)), psi given by ``_penalty(alpha, lam_bar)`` at q = sqrt(f + Tr(E S))."""
    if program == "PP":
        return 1.0, c + lambda_bar, 0.0
    if program == "POP":
        return beta_bar * kappa, c + (1.0 - beta_bar * beta_bar) * lambda_bar, 0.0
    return kappa, c, lambda_bar  # SPOP


def _objective(
    dc: DerivedCoefficients, alpha: float, offset: float, lam_bar: float
) -> Callable[[np.ndarray], float]:
    """Sigma -> Tr(D S) + offset + psi(Tr(E S))."""
    psi = _penalty(alpha, lam_bar)
    D, E, f = dc.D, dc.E, dc.f

    def obj(p):
        tp = float(np.sum(E * p))
        return float(np.sum(D * p)) + offset + psi(math.sqrt(max(f + tp, 0.0)))

    return obj


def solve_penalized(
    dc: DerivedCoefficients,
    alpha: float,
    offset: float,
    rho: float,
    program: str = "PEN",
    lam_bar: float = 0.0,
) -> ProgramSolution:
    """min Tr(D S) + offset + psi(Tr(E S)), psi given by ``_penalty(alpha,
    lam_bar)`` at q = sqrt(f + Tr(E S)): alpha*sqrt(f + t) for lam_bar = 0,
    else the beta-maximized penalty of SPOP (see ``_minimize_penalized``).

    ``projection`` is the better by ``extract_projection`` of 0 and the
    search's best projection, and ``value`` is its objective: the value of a
    returned matrix, within the certified ``rho`` of the optimum.  A
    non-finite weight is ``InvalidParameter``, before any probe.
    """
    if not all(map(math.isfinite, (alpha, offset, lam_bar))):
        raise InvalidParameter(f"penalty weights must be finite, got {alpha}, {offset}, {lam_bar}")
    (_, proj, certified), = _minimize_penalized(dc, [1.0], alpha, [lam_bar], rho)
    proj, value = extract_projection([np.zeros_like(proj), proj],
                                     _objective(dc, alpha, offset, lam_bar))
    return ProgramSolution(
        program=program, value=value,
        rank=_rank_projection(proj), rho=certified, projection=proj,
    )


def solve_pp(dc: DerivedCoefficients, rho: float | None = None) -> ProgramSolution:
    """Pessimistic program: alpha = 1, offset = c + lambda_bar."""
    if rho is None:
        rho = default_rho(dc)
    alpha, offset, _ = _weights("PP", dc.c, dc.lambda_bar)
    return solve_penalized(dc, alpha, offset, rho, "PP")


def solve_uop(dc: DerivedCoefficients) -> ProgramSolution:
    """Universal optimistic program: the BP solution shifted by lambda_bar."""
    bp = solve_bp(dc)
    return replace(bp, program="UOP", value=bp.value + dc.lambda_bar)


def solve_pop(
    dc: DerivedCoefficients, ps: PriorStats, rho: float | None = None
) -> ProgramSolution:
    """Projective optimistic program at the optimal fixed mixing weight:
    alpha = beta_bar*kappa, offset = c + (1 - beta_bar^2)*lambda_bar."""
    if rho is None:
        rho = default_rho(dc)
    alpha, offset, _ = _weights("POP", dc.c, dc.lambda_bar, ps.kappa, ps.beta_bar)
    return solve_penalized(dc, alpha, offset, rho, "POP")


def beta_max_value(zeta: float) -> float:
    """max over b in [0,1] of (1-b^2) + b*zeta: zeta if >= 2, else 1+zeta^2/4."""
    if zeta >= 2.0:
        return zeta
    return 1.0 + zeta * zeta / 4.0


def spop_objective(dc: DerivedCoefficients, kappa: float, sigma: np.ndarray) -> float:
    """The SPOP objective (inner beta-maximization in closed form) at Sigma."""
    return _objective(dc, *_weights("SPOP", dc.c, dc.lambda_bar, kappa))(sym(sigma))


def solve_spop(
    dc: DerivedCoefficients, ps: PriorStats, rho: float | None = None
) -> ProgramSolution:
    """Strong projective optimistic program: one penalized search.

    With the inner maximum over beta in closed form, the penalty is
    psi(t) = lambda_bar*beta_max_value(kappa*sqrt(f + t)/lambda_bar): linear
    in t, lambda_bar + kappa^2*(f + t)/(4*lambda_bar), below
    t_check = 4*lambda_bar^2/kappa^2 - f and kappa*sqrt(f + t) above it,
    whose slopes agree at t_check.  psi is so concave and nondecreasing, and
    the search of PP and POP certifies its minimum with alpha = kappa,
    offset = c.  kappa = 0 (psi = lambda_bar, the UOP value) and
    lambda_bar = 0 (psi = kappa*sqrt(f + t)) are limits of the same psi.
    """
    if rho is None:
        rho = default_rho(dc)
    alpha, offset, lam_bar = _weights("SPOP", dc.c, dc.lambda_bar, ps.kappa)
    return solve_penalized(dc, alpha, offset, rho, "SPOP", lam_bar=lam_bar)


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------


def no_info_optimal(dc: DerivedCoefficients) -> bool:
    """True iff revealing nothing is optimal for the Bayesian program (D >= 0),
    up to 1e-9 * (1 + |D|); reads the spectrum of D from ``dc.pencil``."""
    pen = dc.pencil
    return bool(pen.eigD[0] >= -1e-9 * (1.0 + pen.normD))


@dataclass(frozen=True)
class SignalingCheck:
    """Result of the strict-profitability test; falls back to False when the
    top eigenvalue of the penalty quadratic is not simple (test inapplicable)."""

    profitable: bool
    applicable: bool

    def __bool__(self) -> bool:
        return self.profitable


def signaling_profitable(dc: DerivedCoefficients) -> SignalingCheck:
    """True iff no-information is provably strictly suboptimal for the true
    program: lambda_max(D) < -(f + Tr E) / (4 (lambda_bar - lambda_bar_2)).

    Inapplicable when lambda_bar - lambda_bar_2 <= 1e-9 * (1 + lambda_bar).
    lambda_max(D), |D| and Tr E are read from ``dc.pencil``, the record of
    the unit system, with Tr E scaled to dc.  Invariant under homothetic
    scaling of the hypothesis (numerator and denominator both scale with the
    squared radius).
    """
    gap = dc.lambda_bar - dc.lambda_bar_2
    if gap <= 1e-9 * (1.0 + dc.lambda_bar):
        return SignalingCheck(profitable=False, applicable=False)
    pen = dc.pencil
    threshold = -(dc.f + dc.scale * dc.scale * pen.trE) / (4.0 * gap)
    strict_tol = 1e-9 * (1.0 + abs(threshold) + pen.normD)
    lmax_d = float(pen.eigD[-1])
    return SignalingCheck(profitable=lmax_d < threshold - strict_tol, applicable=True)


def pessimistic_noinfo_threshold(dc: DerivedCoefficients) -> float:
    """Smallest scale s >= 0 at which no-information solves the pessimistic
    program for the hypothesis family (E, f) = (s*E1, s*f1) of dc's unit
    system (E1, f1).

    The sufficient matrix condition E >= ((sqrt(f) - Tr(D P))^2 - f) I with
    P the negative-eigenspace projection of D reduces, along the family, to
    a quadratic inequality in sqrt(s) solved in closed form.  Tr(D P), the
    spectra of D and E1 and their norms are read from ``dc.pencil``; the
    result is 0 when Tr(D P) >= -1e-9 * (1 + |D|) and infinite when
    lambda_min(E1) <= 1e-12 * (1 + |E1|).  Returns the raw scalar s; the
    caller owns the mapping to its own parameterization (for a hypothesis
    C = eps*C0 with dc's unit system derived at C0, s plays eps^2).
    """
    pen = dc.pencil
    tau = pen.bp_result.value  # <= 0
    if tau >= -1e-9 * (1.0 + pen.normD):
        return 0.0
    lmin = float(pen.eigE[0])
    if lmin <= 1e-12 * (1.0 + pen.normE):
        return float("inf")
    f0 = max(float(dc.unit.f), 0.0)
    u = (-tau) * (math.sqrt(f0) + math.sqrt(f0 + lmin)) / lmin
    return u * u


# --------------------------------------------------------------------------
# epsilon sweeps
# --------------------------------------------------------------------------


@dataclass
class SweepRow:
    """One scale of a sweep.  ``projection_pp`` is the projection at which
    ``val_pp`` scores PP, of rank ``rank_pp``."""

    epsilon: float
    val_uop: float
    val_pop: float
    val_spop: float
    val_pp: float
    val_2uop: float
    rank_pp: int
    projection_pp: np.ndarray = field(repr=False, compare=False)


def _by_identity(arrays: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(array, the indices that hold it) for each distinct array object, in
    order of first appearance."""
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for j, a in enumerate(arrays):
        groups.setdefault(id(a), (a, []))[1].append(j)
    return [(a, np.array(idx)) for a, idx in groups.values()]


def sweep(
    dc_base: DerivedCoefficients,
    ps: PriorStats,
    eps_grid: Sequence[float],
    rho: float,
) -> list[SweepRow]:
    """Solve UOP/POP/SPOP/PP along a homothetic hypothesis sweep C = eps*C0.

    ``dc_base`` must be derived at the base hypothesis C0.  eps scales E, f
    and lambda_bar by eps^2, as ``dc_base.scaled(eps)`` would, and not D or
    c, so each eps is a column of a search on ``dc_base`` itself, and no
    scaled system is built; the first eps that ``scaled`` refuses raises its
    error before any search.  Each of PP, SPOP and POP is one certified pass
    over the whole grid (``_minimize_penalized`` on the vector of scales),
    and a gap that several columns need is refined once.  A column also
    sees the points that the other columns' refinements add, so a row may
    be up to rho better than a standalone solve at the same eps; a one-step
    sweep is that solve.

    Each reported value lies within its program's certified rho of the
    optimum and is the objective of a projection, bitwise as
    ``_objective`` scores it on ``dc_base.scaled(eps)``.  Each distinct
    projection is scored once, in all the columns that read it, against 0
    (``extract_projection``) and for the cross-seeding, which scores SPOP at
    PP's projection and POP at the better of SPOP's and PP's: as the
    objectives are ordered pointwise, POP <= SPOP <= PP <= PP's value, the
    reported values keep the chain POP <= SPOP <= PP exactly.
    """
    eps = np.array(eps_grid, dtype=float)
    m = len(eps)
    if not m:
        return []
    # each column's f and lambda_bar by ``scaled``'s arithmetic, and its
    # finiteness checks, in which E's largest entry stands for all of E
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = eps * eps
        f, lam_bar = s2 * dc_base.f + 0.0, s2 * dc_base.lambda_bar + 0.0
        big = s2 * np.array([[np.max(np.abs(dc_base.E), initial=0.0)], [dc_base.lambda_bar_2]])
        bad = ~((eps >= 0.0) & np.isfinite([eps, f, lam_bar, *big]).all(axis=0))
    if bad.any():
        dc_base.scaled(float(eps[bad.argmax()]))  # raises the first bad eps's error
    scales = eps.tolist()
    zero = np.zeros_like(dc_base.D)
    # per projection, Tr(D P) and Tr(E P) at each scale, once computed; an
    # entry keeps its projection, so that no other array takes its id
    traces: dict[int, tuple[np.ndarray, float, np.ndarray, np.ndarray]] = {}

    def objective(weights: np.ndarray, p: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``_objective(dc_base.scaled(eps), *weights)(p)`` in the columns idx."""
        if id(p) not in traces:
            traces[id(p)] = p, float(np.sum(dc_base.D * p)), np.empty(m), np.zeros(m, dtype=bool)
        _, t_d, t_e, done = traces[id(p)]
        todo = idx[~done[idx]]
        # in blocks of about 2^20 floats, not one stack of every scale's E
        step = max(1, 2**20 // p.size)
        for k in range(0, len(todo), step):
            block = todo[k:k + step]
            t_e[block] = np.sum((s2[block, None, None] * dc_base.E + 0.0) * p, axis=(1, 2))
        done[todo] = True
        alpha, offset, lb = weights[:, idx]
        return t_d + offset + _penalty_cols(alpha, lb)(np.sqrt(np.maximum(f[idx] + t_e[idx], 0.0)))

    def score(weights: np.ndarray, projs: list[np.ndarray]) -> np.ndarray:
        out = np.empty(m)
        for p, idx in _by_identity(projs):
            out[idx] = objective(weights, p, idx)
        return out

    def solve(name: str):
        """One pass over the grid for the program ``name``, each winner
        scored against 0 in the columns that found it."""
        alpha, offset, lb = _weights(name, dc_base.c, lam_bar, ps.kappa, ps.beta_bar)
        weights = np.array(np.broadcast_arrays(alpha, offset, lb))
        found = _minimize_penalized(dc_base, scales, alpha, weights[2].tolist(), rho)
        chosen: list[np.ndarray] = [zero] * m
        value = np.empty(m)
        for p, idx in _by_identity([proj for _, proj, _ in found]):
            picks, value[idx] = extract_projection(
                [zero, p], lambda q, idx=idx: objective(weights, q, idx))
            for j, q in zip(idx.tolist(), picks):
                chosen[j] = q
        return weights, chosen, value

    _, pp, val_pp = solve("PP")
    w_spop, spop, val_spop = solve("SPOP")
    w_pop, pop, val_pop = solve("POP")

    # cross-seeding: evaluating each objective at the neighbors' argmins can
    # only lower the reported values, and enforces the chain
    spop_at_pp = score(w_spop, pp)
    spop_arg = [s if a <= b else q for s, q, a, b in zip(spop, pp, val_spop, spop_at_pp)]
    val_spop = np.minimum(val_spop, spop_at_pp)
    val_pop = np.minimum(np.minimum(val_pop, score(w_pop, spop_arg)), score(w_pop, pp))

    uop = (dc_base.pencil.bp_result.value + dc_base.c + lam_bar).tolist()  # solve_uop's values
    rank = {id(p): _rank_projection(p) for p, _ in _by_identity(pp)}
    return [SweepRow(e, u, pop_j, spop_j, pp_j, 2.0 * u, rank[id(p)], p)
            for e, u, pop_j, spop_j, pp_j, p in zip(
                scales, uop, val_pop.tolist(), val_spop.tolist(), val_pp.tolist(), pp)]
