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
h(t) = min Tr(D X) over {0 <= X <= I, Tr(E X) = t} is obtained by
maximizing the one-dimensional concave dual over the multiplier lam, whose
supergradient interval is delimited by the traces of E against the
negative/non-positive eigenprojections of D + lam*E.  The supergradient
g(lam) = Tr(E P_neg(D + lam*E)) is nonincreasing; it jumps only at the real
generalized eigenvalues of the pencil (D, -E) and is smooth between two of
them.  The multiplier is found inside a finite bracket from weak duality
(see ``_multiplier``) by a binary search over those eigenvalues followed by
safeguarded Newton steps on g(lam) = t with the exact slope.
The primal optimum is an interpolation of the two projections, which yields
a duality-gap certificate without any external SDP solver.

The penalized programs minimize j(t) = h(t) + psi(t) over the scalar t, with
psi(t) = alpha*sqrt(f+t) for PP and POP and, for SPOP, the beta-maximized
psi(t) = lb*max_b [(1-b^2) + b*k*sqrt(f+t)/lb], which is linear in t below
t_check = 4*lb^2/k^2 - f and k*sqrt(f+t) above it, with equal slopes at
t_check.  So every psi is concave and nondecreasing, and PP, POP and SPOP
differ only in their weights (alpha, offset, lb): PP (1, c + lb, 0), POP
(bb*k, c + (1-bb^2) lb, 0) and SPOP (k, c, lb).  h is convex, piecewise
smooth and nonincreasing on [0, t_bar], so j is concave on every linear
piece of h, and its minimum lies at a projection: the search runs over the
multiplier, not the trace.  A probe of D + lam*E (lam >= 0) gives two points
of the graph of h, the traces and values of P_lt and P_le, and the minorant
h(s) >= c(lam) - lam*s of weak duality, c(lam) = sum min(mu_i, 0); a gap
between two points is refined by a probe at its chord slope (the sandwich
step of Burkard, Hamacher and Rote, Naval Res. Logistics 38, 1991), and the
search stops with a certificate that the best point is within ``rho`` of
the true minimum.  The returned Sigma is that point's projection.

The three programs so minimize over the same h of the same (D, E): the
programs solved on one ``DerivedCoefficients`` read its ``pencil`` record,
one BP projection, one set of pencil eigenvalues, one closed form at t = 0
and one eigensolve per distinct multiplier probed.  The record keeps an
O(n) summary of each probe (the eigenvalues, the diagonal of E in their
eigenbasis, the traces and values of its two projections and, once
computed, the slope of g), not its eigenvectors, and the tree of gaps the
searches have refined: a chord slope depends on h alone, so every program
descends the same tree.  A homothetic rescaling multiplies E, f and
lambda_bar by eps^2, so its oracle is h_eps(t) = h_1(t/eps^2):
``dc.scaled(eps)`` reads the record of the unit system, and its searches
minimize h_1(s) + psi in unit coordinates s = t/eps^2, so that a whole
sweep shares one record.
"""

from __future__ import annotations

import copy
import functools
import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InfeasibleTrace,
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

    ``projections`` are the orthogonal projections that X interpolates,
    ascending by rank: (P_lt, P_le), the negative and non-positive
    eigenprojections of D + lambda_dual*E (one array twice when no
    eigenvalue sits in the zero band), with X = P_lt + theta*(P_le - P_lt),
    or (X,) where X is itself a projection (the endpoint closed forms and the
    BP result).  X itself is rebuilt from them on first read, by the
    expression the oracle evaluated.  The penalized programs read one result
    per record, the closed form at t = 0 (``_Pencil.ends``).
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
        return _interpolate(*self.projections, self.theta)


@dataclass
class ProgramSolution:
    """Solution record of one program.

    ``projection`` is the program's minimal-rank projective solution,
    ``rank`` its rank, and ``rho`` the certified suboptimality of ``value``
    (0 for exactly solved programs).  Every program's ``Sigma`` is its
    ``projection``, the same array, and ``value`` is that projection's
    objective.
    """

    program: str
    Sigma: np.ndarray
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


def _interpolate(p_lt: np.ndarray, p_le: np.ndarray, theta: float) -> np.ndarray:
    return p_lt + theta * (p_le - p_lt)


def _build_primal(D, E, t, lam, w, v, ztol):
    """(primal, dual, (P_lt, P_le), theta) at the accepted multiplier, with
    X = _interpolate(P_lt, P_le, theta)."""
    lt = w < -ztol
    le = w <= ztol
    vlt = v[:, lt]
    vle = v[:, le]
    p_lt = vlt @ vlt.T
    # lt is a subset of le: equal counts mean one projection, kept once
    p_le = p_lt if vle.shape[1] == vlt.shape[1] else vle @ vle.T
    g_lo = float(np.sum((E @ vlt) * vlt))
    g_hi = float(np.sum((E @ vle) * vle))
    if g_hi - g_lo > 1e-15 * (1.0 + abs(g_hi)):
        theta = min(max((t - g_lo) / (g_hi - g_lo), 0.0), 1.0)
    else:
        theta = 0.0
    primal = float(np.sum(D * _interpolate(p_lt, p_le, theta)))
    # exact dual value phi(lam) = sum_i min(mu_i, 0) - lam*t: a valid lower
    # bound at any multiplier, independent of the zero classification
    dual = float(np.sum(np.minimum(w, 0.0))) - lam * t
    return primal, dual, (p_lt, p_le), theta


class _Pencil:
    """Per-(D, E) data of the trace oracle, shared by every ``h_eq`` call and
    every penalized search on the same pair: the symmetrized matrices, Tr E,
    the spectrum and norm of D and the projection onto its negative
    eigenspace (the BP optimum), all from one ``eigh`` of D, and, on first
    use, the split of E into range and kernel (``e_split``), the norm of E,
    the jumps of the supergradient (see ``jumps`` and ``_multiplier``), the
    trace t_bar of E against the BP projection, the ends of the penalized
    searches (``ends``), in ``probes`` the O(n) summary (``_Probe``) of every
    multiplier probed, which the later calls read instead of solving
    D + lam*E again, and in ``gaps`` the refinement tree of the penalized
    searches (see ``refine``).

    ``DerivedCoefficients.pencil`` holds one per unit-scale coefficient
    system, and every homothetic rescaling of it reads the same record: with
    E scaled by e^2, h_e(t) = h(t/e^2) and the multiplier scales by 1/e^2,
    while values, dual values and projections do not depend on e.  The
    structural checks read their eigenvalues of D and E here too."""

    def __init__(self, D: np.ndarray, E: np.ndarray):
        self.D = sym(D)
        self.E = sym(E)
        self.trE = float(np.trace(self.E))
        # eigD ascending; D's eigenvectors are not kept
        self.eigD, v = np.linalg.eigh(self.D)
        self.normD = float(np.max(np.abs(self.eigD), initial=0.0))
        self.bp = neg_part(self.eigD, v)
        self.probes: dict[float, _Probe] = {}
        self.gaps: dict[tuple[float, float], tuple[_Point, ...]] = {}
        # the latest split solved (see ``split``)
        self._split: tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    @functools.cached_property
    def e_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(we, ve, ker, wk, uk): E = ve diag(we) ve^T (we ascending), the mask
        of its kernel, we <= 1e-12*(1 + |E|), and D's block on that kernel,
        V_K^T D V_K = uk diag(wk) uk^T with V_K = ve[:, ker].  The spectrum of
        E, the jumps and the endpoint closed forms of ``h_eq`` read it."""
        we, ve = np.linalg.eigh(self.E)
        ker = we <= 1e-12 * (1.0 + float(np.max(np.abs(we), initial=0.0)))
        wk, uk = np.linalg.eigh(sym(ve[:, ker].T @ self.D @ ve[:, ker]))
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
        """Tr(E P_BP), clamped to [0, Tr E]: the right end of every search."""
        return min(max(float(np.sum(self.E * self.bp)), 0.0), self.trE)

    @functools.cached_property
    def ends(self) -> tuple[_Point, ...]:
        """The ends of every search: ``h_eq``'s closed form at t = 0, with no
        line (its multiplier runs away), and, where t_bar > 0, the BP
        projection, with the flat line h >= sum min(eig D, 0) of lam = 0."""
        r = h_eq(self.D, self.E, 0.0, pencil=self)
        origin = _Point(0.0, r.value, None, 0.0, proj=r.X)
        if self.t_bar <= 0.0:
            return (origin,)
        c = float(np.sum(np.minimum(self.eigD, 0.0)))
        return origin, _Point(self.t_bar, self.bp_result.value, c, 0.0, proj=self.bp)

    def split(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, v, E v) of D + lam*E, kept for the latest lam alone: a slope or
        a projection reads it right after its probe.  Raw eigh (no sign
        fixing) is fine: only spectral projections, sign-invariant, are read."""
        if self._split is None or self._split[0] != lam:
            w, v = np.linalg.eigh(self.D + lam * self.E)
            self._split = (lam, (w, v, self.E @ v))
        return self._split[1]

    def probe(self, lam: float) -> _Probe:
        """The record's summary of D + lam*E; an eigensolve only for a new lam."""
        p = self.probes.get(lam)
        if p is None:
            w, v, ev = self.split(lam)
            p = self.probes[lam] = _Probe(lam, w, np.einsum("ij,ij->j", v, ev))
        return p

    def refine(self, a: _Point, b: _Point) -> tuple[_Point, ...]:
        """The points strictly inside the gap (a, b) that a probe at its chord
        slope finds, ascending; none when h is linear on [a, b].

        With lam the chord slope, h(s) + lam*s is convex, equal at a and b,
        and minimal on the probe's trace interval [g_lo, g_hi]: if that
        interval has no point inside (a, b), h + lam*s is constant on
        [a, b].  A chord slope depends on h alone, so the record keeps the
        answer for every search, keyed by the traces of the gap's ends."""
        key = (a.s, b.s)
        kids = self.gaps.get(key)
        if kids is None:
            lam = (a.h - b.h) / (b.s - a.s)
            kids = ()
            if lam > 0.0:  # else the chord is flat: h is constant on [a, b]
                p = self.probe(lam)
                ends = [_Point(p.g_lo, p.h_lo, p.c, lam, cols=p.w < -p.ztol)]
                if p.g_hi > p.g_lo:
                    ends.append(_Point(p.g_hi, p.h_hi, p.c, lam, cols=p.w <= p.ztol))
                    # h is linear between the two
                    self.gaps.setdefault((p.g_lo, p.g_hi), ())
                kids = tuple(q for q in ends if a.s < q.s < b.s)
            self.gaps[key] = kids
        return kids

    @functools.cached_property
    def jumps(self) -> np.ndarray:
        """Sorted multipliers lam at which an eigenvalue of D + lam*E crosses
        zero (the finite eigenvalues of the pencil (D, -E)), from ``e_split``.

        As E >= 0, in its eigenbasis (range R with eigenvalues Lam, kernel K)
        they are -eig(M), M = Lam^-1/2 S Lam^-1/2 with S = D_RR - B diag(1/w) B^T
        the Schur complement over the nonsingular part w of D_KK (B is D_RK
        on w's eigenvectors), restricted to the orthogonal complement of
        range(Lam^-1/2 D_RK Z0), Z0 the null space of D_KK.  A z in Z0 with D_RK z = 0 is a common null vector of
        D and E (a singular pencil): its eigenvalue of D + lam*E is 0 at
        every lam, so it gives no jump.
        """
        we, ve, ker, wk, uk = self.e_split
        a = ve.T @ self.D @ ve  # D in E's eigenbasis
        r = 1.0 / np.sqrt(we[~ker])
        drk = a[np.ix_(~ker, ker)] @ uk
        nz = np.abs(wk) > 1e-13 * (1.0 + self.normD)
        m = r[:, None] * (a[np.ix_(~ker, ~ker)] - (drk[:, nz] / wk[nz]) @ drk[:, nz].T) * r
        c = drk[:, ~nz]
        if c.shape[1]:
            # the rank of D_RK Z0 at the resolution of its Gram matrix
            rank = int(np.sum(np.linalg.eigvalsh(c.T @ c) > 1e-12 * (1.0 + self.normD) ** 2))
            g = r[:, None] * c
            q = np.linalg.eigh(g @ g.T)[1][:, : r.size - rank]
            m = q.T @ m @ q
        return np.unique(-np.linalg.eigvalsh(sym(m)))


class _Probe:
    """O(n) summary of the spectral split of D + lam*E at one multiplier: the
    eigenvalues ``w`` and the diagonal ``diag`` of E in their eigenbasis.

    ``g_lo``/``g_hi`` are the traces of E against the negative and the
    non-positive eigenspaces (the ends of the supergradient interval, shifted
    by t), and ``h_lo``/``h_hi`` the values Tr(D P) of those projections,
    sum_{w in P} w - lam*Tr(E P); eigenvalues within ``ztol`` of zero count
    as zero.  ``c`` is the dual value sum min(w, 0), so h(s) >= c - lam*s for
    every s.  ``slope`` is g'(lam) once ``_multiplier`` has computed it, else
    None.  An entry holds no eigenvectors (n^2 floats each):
    ``_Pencil.probes`` keeps one per multiplier probed, and ``_Pencil.split``
    keeps the eigenvectors of the latest one only.
    """

    __slots__ = ("lam", "w", "diag", "slope", "c", "ztol", "g_lo", "g_hi", "h_lo", "h_hi")

    def __init__(self, lam: float, w: np.ndarray, diag: np.ndarray):
        self.lam = lam
        self.w = w
        self.diag = diag  # v_j^T E v_j >= 0 up to rounding
        self.slope: float | None = None
        self.c = float(np.sum(np.minimum(w, 0.0)))
        # the zero band is machine-precision-relative: only the genuinely
        # crossing eigenvalue should be treated as zero (a wide band would
        # leak into the duality gap)
        self._classify(1e-13 * (1.0 + float(np.max(np.abs(w), initial=0.0))))

    def _classify(self, ztol: float) -> None:
        self.ztol = ztol
        lt, le = self.w < -ztol, self.w <= ztol
        self.g_lo = float(np.sum(self.diag[lt]))
        self.g_hi = float(np.sum(self.diag[le]))
        self.h_lo = float(np.sum(self.w[lt])) - self.lam * self.g_lo
        self.h_hi = float(np.sum(self.w[le])) - self.lam * self.g_hi

    def widened(self, pen: _Pencil) -> "_Probe":
        """The same split with the zero band widened to absorb the rounding
        of an eigenvalue that crosses zero at a jump; no eigensolve."""
        p = copy.copy(self)
        p._classify(max(self.ztol, 1e-10 * (1.0 + pen.normD + abs(self.lam) * pen.normE)))
        return p


class _Point:
    """A point (s, h) of the graph of h in unit coordinates, the trace and
    value of a projection P, with the weak-duality line h(x) >= c - lam*x of
    its multiplier and that line's value d at s (c and d None at the origin,
    whose multiplier runs away).  P is given, or formed on first read from
    the columns ``cols`` of the split at lam."""

    __slots__ = ("s", "h", "c", "lam", "d", "_proj", "_cols")

    def __init__(self, s: float, h: float, c: float | None, lam: float,
                 proj: np.ndarray | None = None, cols: np.ndarray | None = None):
        self.s, self.h, self.c, self.lam, self._proj, self._cols = s, h, c, lam, proj, cols
        self.d = None if c is None else c - lam * s

    def projection(self, pen: _Pencil) -> np.ndarray:
        if self._proj is None:
            u = pen.split(self.lam)[1][:, self._cols]
            self._proj = u @ u.T
        return self._proj


# probes inside one segment (Newton steps and bisections); bisection alone
# reaches float resolution from any finite bracket in fewer
_MAX_STEPS = 100


def _multiplier(pen: _Pencil, t: float, gap_tol: float) -> tuple[_Probe, np.ndarray]:
    """Dual multiplier of h(t): the probe at which it is accepted and that
    probe's eigenvectors.

    The supergradient of the dual at lam is [g_lo, g_hi] - t, where
    g(lam) = Tr(E P_neg(D + lam*E)).  g is nonincreasing in lam; it jumps
    only at the pencil eigenvalues, where an eigenvalue of D + lam*E crosses
    zero, and is smooth between two of them with slope
    g'(lam) = 2 sum_{i neg, j non-neg} (v_i^T E v_j)^2 / (mu_i - mu_j) <= 0
    (zero when D and E commute).  A binary search over the sorted jumps finds
    the jump or the open segment that contains t; safeguarded Newton on g - t
    and bisection finish inside the segment.

    The search starts from a finite bracket given by weak duality.  For
    0 < t < Tr E, X = I gives phi(lam) <= Tr D + lam*(Tr E - t) and X = 0
    gives phi(lam) <= -lam*t; both fall below phi(0) = sum min(eig D, 0)
    outside [-sum max(eig D, 0)/(Tr E - t), sum max(-eig D, 0)/t], so every
    maximizer lies inside it.  Its ends are widened for rounding by adding
    1e-9*(1 + |D|) to both sums.  An end of the bracket bounds a segment only
    where no jump lies beyond it: never for a nonsingular E, whose jumps
    reach g = Tr E and g = 0, and for a singular E the bracket is finite as
    ``h_eq`` keeps t at least 1e-9*Tr E from both trace ends.

    Every call on one pencil probes the same jumps and the same first
    bisection of each inner segment, so each probe is read from ``pen.probes``
    and only a multiplier probed for the first time costs an eigensolve
    (again for the eigenvectors of an entry once ``pen.split`` moved on).
    """
    trE = pen.trE

    def slope(p: _Probe) -> float:
        """g'(lam), valid when no eigenvalue sits in the zero band."""
        if p.slope is None:
            _, v, ev = pen.split(p.lam)
            neg = p.w < -p.ztol
            m = v[:, neg].T @ ev[:, ~neg]
            gaps = p.w[neg][:, None] - p.w[~neg][None, :]
            p.slope = 2.0 * float(np.sum(m * m / gaps))
        return p.slope

    def done(p: _Probe) -> tuple[_Probe, np.ndarray]:
        return p, pen.split(p.lam)[1]

    def accepted(p: _Probe) -> bool:
        if p.g_lo <= t <= p.g_hi:
            return True
        # away from the jumps the supergradient is single-valued and the
        # duality gap is exactly |lam|*|g - t|, so a near-miss with a tiny
        # trace slip already certifies the required accuracy
        miss = max(p.g_lo - t, t - p.g_hi)
        return miss * abs(p.lam) <= gap_tol and miss <= 1e-9 * trE

    pad = 1e-9 * (1.0 + pen.normD)
    # the weak-duality bracket: g(lo) > t > g(hi)
    lo = -(float(np.sum(np.maximum(pen.eigD, 0.0))) + pad) / (trE - t)
    hi = (pad - float(np.sum(np.minimum(pen.eigD, 0.0)))) / t
    i, j = 0, pen.jumps.size
    while i < j:
        k = (i + j) // 2
        p = pen.probe(float(pen.jumps[k]))
        if accepted(p):
            return done(p)
        # t inside this jump, whose crossing eigenvalue rounding pushed out
        # of the zero band (the band is empty: g_lo == g_hi): the widened
        # band recovers it from the same split
        if p.g_lo == p.g_hi:
            wide = p.widened(pen)
            if accepted(wide):
                return done(wide)
        if p.g_lo > t:
            lo, i = p.lam, k + 1
        else:
            hi, j = p.lam, k

    # t lies inside the smooth segment (lo, hi).  Bisection halves
    # asinh(lam/scale): the arithmetic midpoint near the natural multiplier
    # scale |D|/|E|, the geometric one far beyond it, where the jumps of a
    # nearly singular E or D_KK sit
    scale = pen.normD / pen.normE or 1.0

    def bisect() -> float:
        mid = scale * math.sinh(0.5 * (math.asinh(lo / scale) + math.asinh(hi / scale)))
        return mid if lo < mid < hi else 0.5 * (lo + hi)

    step = hi - lo
    lam = bisect()
    for _ in range(_MAX_STEPS):
        p = pen.probe(lam)
        if accepted(p):
            return done(p)
        if p.g_lo > t:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 4e-16 * (1.0 + abs(lo) + abs(hi)):
            break
        # Newton where g is smooth (no eigenvalue in the zero band), with the
        # rtsafe safeguard: a step must stay inside the bracket and at least
        # halve the previous one, so the bracket shrinks geometrically
        s = slope(p) if p.g_lo == p.g_hi else 0.0
        nxt = lam - (p.g_lo - t) / s if s < 0.0 else math.nan
        if not (lo < nxt < hi and abs(nxt - lam) <= 0.5 * step):
            nxt = bisect()
        step = abs(nxt - lam)
        lam = nxt
    else:
        return done(p)  # budget spent: the duality-gap check rejects this probe
    # the bracket collapsed at float resolution, onto a jump whose crossing
    # eigenvalue rounding pushed out of the zero band: widen the band there
    return done(pen.probe(0.5 * (lo + hi)).widened(pen))


def h_eq(
    D: np.ndarray,
    E: np.ndarray,
    t: float,
    tol: float | None = None,
    pencil: _Pencil | None = None,
) -> HOracleResult:
    """min Tr(D X) over {0 <= X <= I, Tr(E X) = t}, with a gap certificate.

    The value is the maximum of the concave dual
    phi(lam) = sum_i min(mu_i(D + lam*E), 0) - lam*t, whose supergradient
    g(lam) - t is nonincreasing in lam, smooth between the generalized
    eigenvalues of the pencil (D, -E) and jumps only at them.  The returned
    X interpolates the negative and non-positive eigenprojections at the
    accepted multiplier, and ``abs(value - dual_value) <= tol`` is checked
    (``OracleDiverged`` otherwise).  E must be positive semidefinite up to
    1e-12*(1 + |E|) (``NotPSD`` otherwise).  ``pencil`` is the shared
    ``_Pencil`` of (D, E), for callers that evaluate many t on the same pair.
    """
    pen = _Pencil(D, E) if pencil is None else pencil
    D, E, trE, normD, normE = pen.D, pen.E, pen.trE, pen.normD, pen.normE
    if pen.eigE[0] < -1e-12 * (1.0 + normE):
        raise NotPSD(f"E has eigenvalue {pen.eigE[0]:.3e}; the trace program needs E >= 0")
    # relative to Tr E, so that a target outside [0, Tr E] is rejected at
    # every scale of E; the floor keeps t = 0 feasible when E vanishes
    feas_tol = 1e-9 * max(abs(trE), 1e-13 * (1.0 + normE))
    if t < -feas_tol or t > trE + feas_tol:
        raise InfeasibleTrace(f"trace target {t} outside [0, {trE}]")
    t = min(max(float(t), 0.0), trE)
    if tol is None:
        tol = 1e-9 * (1.0 + normD + normE)

    if trE <= 1e-13 * (1.0 + normE):
        # E vanishes: the constraint is vacuous at t ~ 0
        return replace(pen.bp_result, t=t)

    _, ve, ker, wk, uk = pen.e_split
    # h falls strictly inside any band around the endpoints, where the closed
    # form below holds: a nonsingular E needs no band (the jumps of g reach
    # them); a singular E snaps t within 1e-9*Tr E (scale-free) to them, as
    # the search can miss its gap tolerance that close to an endpoint
    snap = 1e-9 * trE if ker.any() else 0.0
    if t <= snap or t >= trE - snap:
        # at the trace endpoints the multiplier runs away, but the optimum is
        # closed-form: Tr(E X) = 0 forces X onto ker E, and Tr(E X) = Tr E
        # forces X = I on range E, leaving a free box minimization on ker E
        x = np.zeros_like(D)
        value = 0.0
        if t >= trE - snap:
            vr = ve[:, ~ker]
            pr = vr @ vr.T
            x += pr
            value += float(np.sum(D * pr))
        neg = wk < -1e-13 * (1.0 + normD)  # empty when E is nonsingular
        un = ve[:, ker] @ uk[:, neg]
        x += un @ un.T
        value += float(np.sum(wk[neg]))
        return HOracleResult(t=t, value=value, lambda_dual=0.0, dual_value=value,
                             projections=(x,))

    p, v = _multiplier(pen, t, gap_tol=0.25 * tol)
    primal, dual, projections, theta = _build_primal(D, E, t, p.lam, p.w, v, p.ztol)
    if abs(primal - dual) > tol:
        raise OracleDiverged(
            f"duality gap {abs(primal - dual):.3e} exceeds tolerance {tol:.3e} "
            f"at t={t}"
        )
    return HOracleResult(t=t, value=primal, lambda_dual=p.lam, dual_value=dual,
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


def _minimize_penalized(dc: DerivedCoefficients, alpha: float, lam_bar: float, rho: float):
    """Certified minimization of h(t) + psi(t) over [0, t_bar], where psi is
    ``_penalty(alpha, lam_bar)`` at q = sqrt(f + t).

    Returns (t_best, projection, certified_rho): the best point's trace in
    dc's units and its projection.  psi is concave and nondecreasing (see
    ``solve_spop``), so j = h + psi is concave where h is linear, and its
    minimum lies at a point of the graph of h that a probe of D + lam*E
    finds (``_Pencil.refine``).

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
    is linear closes, as j is concave there.

    The search runs on ``dc.pencil``, the record of the unit system that
    ``dc`` rescales by e = ``dc.scale``: with s = t/e^2, sqrt(f + t) is
    e*sqrt(f1 + s), so it minimizes h1(s) + psi at q = sqrt(f1 + s) with
    weight alpha*e, and every program at every scale descends one tree.
    ``lam_bar`` is in dc's units.
    """
    if not rho > 0.0:
        raise InvalidTolerance(f"suboptimality budget rho must be positive, got {rho}")
    if alpha < 0.0:
        raise InvalidParameter("penalty weight alpha must be nonnegative")
    pen, e = dc.pencil, dc.scale
    e2 = e * e
    if e2 * pen.trE <= 1e-13 * (1.0 + e2 * pen.normE):
        # E vanishes at this scale: the constraint is vacuous and the optimum
        # is the BP projection at t = 0
        return 0.0, pen.bp, 0.0

    psi = _penalty(alpha * e, lam_bar)
    f = max(float(dc.unit.f), 0.0)
    psis: dict[float, float] = {}

    def psi_at(s: float) -> float:
        v = psis.get(s)
        if v is None:
            v = psis[s] = psi(math.sqrt(f + s))
        return v

    def bound(a: _Point, b: _Point) -> float:
        pa, pb = psi_at(a.s), psi_at(b.s)
        lb = b.d + pa
        if a.c is None:
            return max(lb, min(b.c - b.lam * a.s + pa, b.d + pb))
        x = (a.c - b.c) / (a.lam - b.lam) if a.lam > b.lam else b.s
        x = min(max(x, a.s), b.s)
        return max(lb, min(a.d + pa, a.c - a.lam * x + psi(math.sqrt(f + x)), b.d + pb))

    pts = pen.ends
    vals = {p: p.h + psi_at(p.s) for p in pts}
    best_val = min(vals.values())
    heap = [(bound(a, b), a.s, a, b) for a, b in zip(pts[:-1], pts[1:])]

    margin = rho * (1.0 - 1e-9)
    while heap and heap[0][0] < best_val - margin:
        if len(vals) > _MAX_EVALS:
            raise NumericalFailure(
                "penalized search exceeded its evaluation budget without "
                f"certifying rho={rho}"
            )
        _, _, a, b = heapq.heappop(heap)
        qa, qb = math.sqrt(f + a.s), math.sqrt(f + b.s)
        if qb - qa <= 1e-13 * (1.0 + qb):
            continue  # gap at floating-point resolution; its bound stands
        kids = pen.refine(a, b)
        for p in kids:
            vals[p] = p.h + psi_at(p.s)
            best_val = min(best_val, vals[p])
        if kids:
            chain = (a, *kids, b)
            for x, y in zip(chain[:-1], chain[1:]):
                heapq.heappush(heap, (bound(x, y), x.s, x, y))

    certified = best_val - heap[0][0] if heap else 0.0
    certified = max(0.0, min(certified, rho))
    # tie-break toward the smallest trace (prefers revealing less)
    tie = 1e-12 * (1.0 + abs(best_val))
    p_best = min((p for p, v in vals.items() if v <= best_val + tie), key=lambda p: p.s)
    return e2 * p_best.s, p_best.projection(pen), certified


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
    """
    ranked = sorted(candidates, key=_rank_projection)
    scores = [objective(p) for p in ranked]
    best = min(scores)
    tie = 1e-11 * (1.0 + abs(best))
    return next((p, s) for p, s in zip(ranked, scores) if s <= best + tie)


# --------------------------------------------------------------------------
# the five programs
# --------------------------------------------------------------------------


def solve_bp(dc: DerivedCoefficients) -> ProgramSolution:
    """Bayesian program: exact, Sigma = projection onto D's negative space."""
    p_lt = dc.pencil.bp
    return ProgramSolution(
        program="BP", Sigma=p_lt, value=dc.pencil.bp_result.value + dc.c,
        rank=_rank_projection(p_lt), rho=0.0, projection=p_lt,
    )


def default_rho(dc: DerivedCoefficients) -> float:
    """Default suboptimality budget: 1e-6 * (1 + |BP value|)."""
    return 1e-6 * (1.0 + abs(solve_bp(dc).value))


def _weights(
    program: str, dc: DerivedCoefficients, kappa: float = 0.0, beta_bar: float = 0.0
) -> tuple[float, float, float]:
    """(alpha, offset, lam_bar) of PP, POP or SPOP: each minimizes
    Tr(D S) + offset + psi(Tr(E S)), psi given by ``_penalty(alpha, lam_bar)``
    at q = sqrt(f + Tr(E S))."""
    if program == "PP":
        return 1.0, dc.c + dc.lambda_bar, 0.0
    if program == "POP":
        return beta_bar * kappa, dc.c + (1.0 - beta_bar * beta_bar) * dc.lambda_bar, 0.0
    return kappa, dc.c, dc.lambda_bar  # SPOP


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

    ``Sigma`` and ``projection`` are one array, the better by
    ``extract_projection`` of 0 and the search's best projection, and
    ``value`` is its objective: the value of a returned matrix, within the
    certified ``rho`` of the optimum.
    """
    _, proj, certified = _minimize_penalized(dc, alpha, lam_bar, rho)
    proj, value = extract_projection([np.zeros_like(proj), proj],
                                     _objective(dc, alpha, offset, lam_bar))
    return ProgramSolution(
        program=program, Sigma=proj, value=value,
        rank=_rank_projection(proj), rho=certified, projection=proj,
    )


def solve_pp(dc: DerivedCoefficients, rho: float | None = None) -> ProgramSolution:
    """Pessimistic program: alpha = 1, offset = c + lambda_bar."""
    if rho is None:
        rho = default_rho(dc)
    alpha, offset, _ = _weights("PP", dc)
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
    alpha, offset, _ = _weights("POP", dc, ps.kappa, ps.beta_bar)
    return solve_penalized(dc, alpha, offset, rho, "POP")


def beta_max_value(zeta: float) -> float:
    """max over b in [0,1] of (1-b^2) + b*zeta: zeta if >= 2, else 1+zeta^2/4."""
    if zeta >= 2.0:
        return zeta
    return 1.0 + zeta * zeta / 4.0


def spop_objective(dc: DerivedCoefficients, kappa: float, sigma: np.ndarray) -> float:
    """The SPOP objective (inner beta-maximization in closed form) at Sigma."""
    return _objective(dc, *_weights("SPOP", dc, kappa))(sym(sigma))


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
    alpha, offset, lam_bar = _weights("SPOP", dc, ps.kappa)
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
    epsilon: float
    val_uop: float
    val_pop: float
    val_spop: float
    val_pp: float
    val_2uop: float
    rank_pp: int
    mc_true_mean: float | None = None
    mc_true_stderr: float | None = None


def sweep(
    dc_base: DerivedCoefficients,
    ps: PriorStats,
    eps_grid: Sequence[float],
    rho: float,
    qf=None,
    C0: np.ndarray | None = None,
    prior=None,
    mc: dict | None = None,
) -> list[SweepRow]:
    """Solve UOP/POP/SPOP/PP along a homothetic hypothesis sweep C = eps*C0.

    ``dc_base`` must be derived at the base hypothesis C0; every eps reads
    its oracle record through ``dc_base.scaled(eps)``.  When ``mc`` is
    given ({"samples": int, "seed": int}), the true cost of the pessimistic
    solution's projection is estimated by Monte Carlo, which additionally
    requires ``qf``, ``C0`` and ``prior``.

    Each reported value lies within its program's certified rho of the
    optimum and is the objective of a projection.  Cross-seeding scores
    SPOP at PP's projection and POP at the better of SPOP's and PP's, and
    as the objectives are ordered pointwise, POP <= SPOP <= PP <= PP's
    value, the reported values keep the chain POP <= SPOP <= PP exactly.
    """
    if mc is not None:
        # checked before the first row is solved, not by mc_true_cost after it
        if qf is None or C0 is None or prior is None:
            raise InvalidParameter("Monte-Carlo sweep needs qf, C0 and prior")
        if int(mc["samples"]) < 1:
            raise InvalidParameter("n_samples must be >= 1")
    rows: list[SweepRow] = []
    for eps in eps_grid:
        dc = dc_base.scaled(float(eps))
        uop = solve_uop(dc)
        pp = solve_pp(dc, rho)
        spop = solve_spop(dc, ps, rho)
        pop = solve_pop(dc, ps, rho)

        # cross-seeding: evaluating each objective at the neighbors' argmins
        # can only lower the reported values, and enforces the chain
        val_pp = pp.value
        spop_at_pp = spop_objective(dc, ps.kappa, pp.projection)
        val_spop = min(spop.value, spop_at_pp)
        spop_arg = spop.projection if spop.value <= spop_at_pp else pp.projection
        pop_obj = _objective(dc, *_weights("POP", dc, ps.kappa, ps.beta_bar))
        val_pop = min(pop.value, pop_obj(spop_arg), pop_obj(pp.projection))

        row = SweepRow(
            epsilon=float(eps),
            val_uop=uop.value,
            val_pop=val_pop,
            val_spop=val_spop,
            val_pp=val_pp,
            val_2uop=2.0 * uop.value,
            rank_pp=pp.rank,
        )
        if mc is not None:
            from .evaluator import mc_true_cost  # local import avoids a cycle

            est = mc_true_cost(
                qf, float(eps) * C0, prior, pp.projection,
                n_samples=int(mc["samples"]), seed=int(mc["seed"]),
            )
            row.mc_true_mean = est.mean
            row.mc_true_stderr = est.stderr
        rows.append(row)
    return rows
