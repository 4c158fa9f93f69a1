"""Game representation and the coefficient system of the trace programs.

A quadratic sender/receiver game is given either raw (cost matrix M, linear
term p, constant q, plus the receiver's affine best response a = B x_hat + b)
or already reduced to the nonnegative form

    cost(x, x_hat) = (z - l)^T Q (z - l) + r,     z = [x; x_hat],

with Q PSD and r >= 0.  From the reduced form and an ellipsoidal
credible-mean hypothesis ``mu_bar + C B`` this module derives the
coefficients (D, E, f, c, lambda_bar, lambda_bar_2, t_bar) that all five
covariance-level programs are written in, plus the isotropic-prior constants
kappa, beta_bar, gamma_bar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidMatrix,
    InvalidParameter,
    InvalidRadius,
    LinearTermOutsideRange,
    NotNonnegativeCost,
    NotPD,
    SingularCrossTerm,
)
from .spectral import default_zero_tol, eig_sym, sqrt_psd, sym


# --------------------------------------------------------------------------
# game forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RawGame:
    """Raw quadratic game: sender cost and receiver best response.

    Sender cost u(a, x) = [x; a]^T M [x; a] + p^T [x; a] + q with the
    receiver playing a = B x_hat + b against its estimate x_hat.
    """

    n: int
    k: int
    M: np.ndarray
    p: np.ndarray
    q: float
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        m = sym(self.M)
        p = np.asarray(self.p, dtype=float).reshape(-1)
        bmat = np.asarray(self.B, dtype=float)
        bvec = np.asarray(self.b, dtype=float).reshape(-1)
        d = self.n + self.k
        if m.shape != (d, d) or p.shape != (d,):
            raise InvalidMatrix("M/p dimensions inconsistent with n+k")
        if bmat.shape != (self.k, self.n) or bvec.shape != (self.k,):
            raise InvalidMatrix("B/b dimensions inconsistent with (k, n)")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "B", bmat)
        object.__setattr__(self, "b", bvec)
        object.__setattr__(self, "q", float(self.q))

    def cost(self, x: np.ndarray, x_hat: np.ndarray) -> float:
        """Sender cost at state x when the receiver's estimate is x_hat."""
        a = self.B @ np.asarray(x_hat, float) + self.b
        z = np.concatenate([np.asarray(x, float), a])
        return float(z @ self.M @ z + self.p @ z + self.q)


@dataclass(frozen=True)
class QuadraticForm:
    """Reduced nonnegative cost form ((x, x_hat) - l)^T Q (...) + r."""

    n: int
    Q: np.ndarray
    l: np.ndarray
    r: float

    def __post_init__(self):
        q = sym(self.Q)
        l = np.asarray(self.l, dtype=float).reshape(-1)
        if q.shape != (2 * self.n, 2 * self.n) or l.shape != (2 * self.n,):
            raise InvalidMatrix("Q/l dimensions inconsistent with 2n")
        w = np.linalg.eigvalsh(q)
        tol = default_zero_tol(w)
        if w[0] < -tol:
            raise NotNonnegativeCost(f"Q has eigenvalue {w[0]:.3e} < -{tol:.3e}")
        if self.r < -tol:
            raise NotNonnegativeCost(f"constant term r = {self.r:.3e} is negative")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", float(self.r))

    # block accessors -------------------------------------------------------
    @property
    def q11(self) -> np.ndarray:
        return self.Q[: self.n, : self.n]

    @property
    def q12(self) -> np.ndarray:
        return self.Q[: self.n, self.n :]

    @property
    def q21(self) -> np.ndarray:
        return self.Q[self.n :, : self.n]

    @property
    def q22(self) -> np.ndarray:
        return self.Q[self.n :, self.n :]

    @property
    def l1(self) -> np.ndarray:
        return self.l[: self.n]

    @property
    def l2(self) -> np.ndarray:
        return self.l[self.n :]

    def cost(self, x: np.ndarray, x_hat: np.ndarray) -> float:
        z = np.concatenate([np.asarray(x, float), np.asarray(x_hat, float)]) - self.l
        return float(z @ self.Q @ z + self.r)


def decompose_nonneg(g: RawGame) -> QuadraticForm:
    """Reduce a raw game to the nonnegative quadratic form in (x, x_hat).

    Substitutes the receiver's best response a = B x_hat + b into the sender
    cost and completes the square: Q collects the quadratic part, the linear
    part p' must lie in the range of Q (minimum-norm solve l of
    Q l = -p'/2), and the remaining constant r must be nonnegative.
    """
    n, k = g.n, g.k
    m11 = g.M[:n, :n]
    m12 = g.M[:n, n:]
    m21 = g.M[n:, :n]
    m22 = g.M[n:, n:]
    p1 = g.p[:n]
    p2 = g.p[n:]
    B, b = g.B, g.b

    q = np.block([[m11, m12 @ B], [B.T @ m21, B.T @ m22 @ B]])
    q = sym(q)
    p_prime = np.concatenate([p1 + 2.0 * m12 @ b, B.T @ p2 + 2.0 * B.T @ m22 @ b])
    q_prime = g.q + float(b @ m22 @ b) + float(p2 @ b)

    w, v = eig_sym(q)
    tol = default_zero_tol(w)
    if w.size and float(w[-1]) < -tol:
        raise NotNonnegativeCost(
            f"quadratic part has eigenvalue {w[-1]:.3e}; cost is not nonnegative"
        )
    # minimum-norm solve of Q l = -p'/2 through the spectral pseudoinverse
    sigma_max = float(np.max(np.abs(w), initial=0.0))
    keep = np.abs(w) > 1e-10 * sigma_max
    winv = np.zeros_like(w)
    winv[keep] = 1.0 / w[keep]
    l = -(v * winv) @ (v.T @ p_prime) / 2.0
    residual = float(np.linalg.norm(q @ l + p_prime / 2.0))
    scale = 1.0 + sigma_max + float(np.linalg.norm(p_prime))
    if residual > 1e-7 * scale:
        raise LinearTermOutsideRange(
            f"linear term is not in the range of the quadratic part "
            f"(residual {residual:.3e}); cost cannot be nonnegative"
        )
    r = q_prime - float(l @ q @ l)
    if r < -1e-7 * (1.0 + abs(q_prime)):
        raise NotNonnegativeCost(f"completed-square constant r = {r:.3e} is negative")
    return QuadraticForm(n=n, Q=q, l=l, r=max(r, 0.0))


# --------------------------------------------------------------------------
# hypothesis builders
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipsoidalHypothesis:
    """Credible-mean ball mu_bar + C * B (B the unit ball).

    ``scale``/``base`` are kept when the hypothesis was built as C = eps*C0.
    ``center_shifted`` flags builders whose underlying ball is not centered
    at the Bayesian mean (see hypothesis_affine_distortion).
    """

    C: np.ndarray
    scale: float | None = None
    base: np.ndarray | None = None
    center_shifted: bool = False

    def __post_init__(self):
        c = np.asarray(self.C, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
            raise InvalidMatrix("hypothesis matrix C must be square and finite")
        object.__setattr__(self, "C", c)

    @property
    def n(self) -> int:
        return self.C.shape[0]


def hypothesis_wasserstein(epsilon: float, n: int) -> EllipsoidalHypothesis:
    """Wasserstein-type hypothesis: mean ball of radius eps, C = eps*I."""
    if epsilon < 0.0:
        raise InvalidRadius("epsilon must be nonnegative")
    return EllipsoidalHypothesis(
        C=epsilon * np.eye(n), scale=float(epsilon), base=np.eye(n)
    )


def hypothesis_costly_update(R: np.ndarray, n: int, epsilon: float) -> EllipsoidalHypothesis:
    """Hypothesis from a receiver that pays an update cost before acting.

    The receiver holds an action quadratic with symmetric matrix ``R``
    ((n+k) x (n+k), here k = n so the cross block is square) and only moves
    off the default best response when it gains more than ``epsilon``; the
    set of credible actions maps to the mean ball with
    C = sqrt(eps) * R21^{-1} * sqrt(R22).
    """
    if epsilon < 0.0:
        raise InvalidRadius("epsilon must be nonnegative")
    R = sym(R)
    k = R.shape[0] - n
    if k != n:
        raise InvalidMatrix("costly-update builder needs a square cross block (k = n)")
    r21 = R[n:, :n]
    r22 = R[n:, n:]
    w22 = np.linalg.eigvalsh(r22)
    if float(w22[0]) <= default_zero_tol(w22):
        raise NotPD("action block R22 must be positive definite")
    s = np.linalg.svd(r21, compute_uv=False)
    if s[0] <= 0.0 or s[0] / s[-1] > 1e12:
        raise SingularCrossTerm("cross block R21 is singular or ill-conditioned")
    c = math.sqrt(epsilon) * np.linalg.solve(r21, sqrt_psd(r22))
    return EllipsoidalHypothesis(C=c)


def hypothesis_mismatched_prior(
    epsilon: float, n: int, trace_sigma_bound: float | None = None
) -> EllipsoidalHypothesis:
    """Hypothesis for a receiver whose prior density is within a 1+eps band.

    ``trace_sigma_bound`` is a uniform bound on the posterior covariance
    trace; defaults to n (the prior's total variance), which is conservative.
    """
    if trace_sigma_bound is None:
        trace_sigma_bound = float(n)
    if epsilon < 0.0 or trace_sigma_bound < 0.0:
        raise InvalidRadius("epsilon and trace bound must be nonnegative")
    radius = math.sqrt(2.0 * epsilon + epsilon * epsilon) * math.sqrt(trace_sigma_bound)
    return EllipsoidalHypothesis(C=radius * np.eye(n), scale=radius, base=np.eye(n))


def hypothesis_affine_distortion(chi: float, epsilon: float, n: int) -> EllipsoidalHypothesis:
    """Hypothesis for a receiver that blends the Bayesian mean with an anchor.

    Radius (1-chi)*eps.  For chi < 1 the underlying credible ball is centered
    at a blend of the Bayesian mean and the anchor point, not at the Bayesian
    mean itself; ``center_shifted`` records that caveat — callers deciding to
    use this hypothesis in the mean-centered programs accept the recentering
    error themselves.
    """
    if not 0.0 <= chi <= 1.0:
        raise InvalidParameter("chi must lie in [0, 1]")
    if epsilon < 0.0:
        raise InvalidRadius("epsilon must be nonnegative")
    radius = (1.0 - chi) * epsilon
    return EllipsoidalHypothesis(
        C=radius * np.eye(n), scale=radius, base=np.eye(n), center_shifted=chi < 1.0
    )


# --------------------------------------------------------------------------
# derived coefficients
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedCoefficients:
    """Coefficient system (D, E, f, c, lambda_bar, lambda_bar_2, t_bar).

    All five programs minimize Tr(D Sigma) + c plus a penalty built from
    lambda_bar and sqrt(f + Tr(E Sigma)) over the spectrahedron
    0 <= Sigma <= I.  t_bar = Tr(E P) with P the projection onto D's
    negative eigenspace is where the penalty-free optimum sits.

    ``pencil`` is the spectral record of (D, E) that every program and
    structural check solved on these coefficients reads, built on first use:
    the BP projection, the eigenvalues and norms of D and E, and the probes
    and gap tree of the searches so far.  ``scaled(s)`` multiplies E, f and
    the lambda_bars by s^2, so its oracle is h_s(t) = h(t/s^2): the scaled
    object shares its ``unit`` system's record and carries the cumulative
    factor ``scale``, and the searches on it run in the unit system's
    coordinates.  ``t_bar`` is not stored: it is read from the record and
    scaled, scale^2 * pencil.t_bar.  The CLI derives every instance once, at
    its unit hypothesis C0: a solve at C = eps*C0 runs on ``scaled(eps)``,
    while a sweep builds no scaled system and runs each eps as a column
    scale of one search on the base system (``programs.sweep``).
    ``replace`` returns a new unit system with its own record.  Construction
    refuses a non-finite D or E (``InvalidMatrix``) and a non-finite f, c or
    lambda_bar (``InvalidParameter``), as a hypothesis scale too large for
    floating point makes them.
    """

    n: int
    D: np.ndarray
    E: np.ndarray
    f: float
    c: float
    lambda_bar: float
    lambda_bar_2: float
    # set by ``scaled``: the factor mapping the unit system here, and the
    # unit system itself (None for a unit system)
    scale: float = field(default=1.0, init=False, repr=False, compare=False)
    _unit: "DerivedCoefficients | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (np.isfinite(self.D).all() and np.isfinite(self.E).all()):
            raise InvalidMatrix("coefficient matrices D and E must be finite")
        if not all(map(math.isfinite, (self.f, self.c, self.lambda_bar, self.lambda_bar_2))):
            raise InvalidParameter("coefficients f, c and lambda_bar must be finite")

    @property
    def unit(self) -> "DerivedCoefficients":
        """The unit-scale system whose record this one reads."""
        return self if self._unit is None else self._unit

    @functools.cached_property
    def pencil(self):
        if self._unit is not None:
            return self._unit.pencil
        from .programs import _Pencil  # local import avoids a cycle

        return _Pencil(self.D, self.E)

    @property
    def t_bar(self) -> float:
        # "+ 0.0" turns -0.0 into 0.0, as ``scaled`` does for the other fields
        return self.scale * self.scale * self.pencil.t_bar + 0.0

    def scaled(self, s: float) -> "DerivedCoefficients":
        """Coefficients for the homothetically scaled hypothesis C <- s*C."""
        if not (math.isfinite(s) and s >= 0.0):
            raise InvalidParameter(
                f"homothety factor must be finite and nonnegative, got {s}"
            )
        s2 = s * s
        # "+ 0.0" turns the -0.0 of 0 * (negative) into 0.0, as a derivation
        # at C = 0 writes it; an overflow is refused at construction
        with np.errstate(over="ignore", invalid="ignore"):
            e = s2 * self.E + 0.0
        out = DerivedCoefficients(
            n=self.n, D=self.D, E=e, f=s2 * self.f + 0.0, c=self.c,
            lambda_bar=s2 * self.lambda_bar + 0.0,
            lambda_bar_2=s2 * self.lambda_bar_2 + 0.0,
        )
        object.__setattr__(out, "scale", self.scale * s)
        object.__setattr__(out, "_unit", self.unit)
        return out


def _coefficient_terms(qf: QuadraticForm, hyp: EllipsoidalHypothesis):
    """(D, c, a, Qm, f_vec): E = 4 a a^T, f = 4 |f_vec|^2, and Qm = C^T Q22 C
    has the top eigenvalues lambda_bar, lambda_bar_2.  Under the policy
    y = P x the credible-mean deviation at state x is v = x P a - f_vec."""
    if hyp.n != qf.n:
        raise InvalidMatrix("hypothesis dimension does not match the game")
    C = hyp.C
    d = sym(qf.q12 + qf.q21 + qf.q22)
    c = qf.r + float(qf.l @ qf.Q @ qf.l) + float(np.trace(qf.q11))
    a = (qf.q12 + qf.q22) @ C
    qm = sym(C.T @ qf.q22 @ C)
    fvec = C.T @ (qf.q21 @ qf.l1 + qf.q22 @ qf.l2)
    return d, c, a, qm, fvec


def derive_coefficients(
    qf: QuadraticForm, hyp: EllipsoidalHypothesis
) -> DerivedCoefficients:
    """Derive the full coefficient system from a reduced game and hypothesis."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused at construction
        d, c, a, qm, fvec = _coefficient_terms(qf, hyp)
        e = sym(4.0 * a @ a.T)
        f = 4.0 * float(fvec @ fvec)
    w = np.linalg.eigvalsh(qm)
    lambda_bar = float(w[-1]) if w.size else 0.0
    lambda_bar_2 = float(w[-2]) if w.size > 1 else 0.0
    return DerivedCoefficients(n=qf.n, D=d, E=e, f=f, c=c, lambda_bar=lambda_bar,
                               lambda_bar_2=lambda_bar_2)


# --------------------------------------------------------------------------
# isotropic priors
# --------------------------------------------------------------------------

FAMILIES = ("gaussian", "sphere")


@dataclass(frozen=True)
class PriorSpec:
    """Named isotropic prior, centered with identity covariance.

    ``gaussian`` is N(0, I_n); ``sphere`` is uniform on the sphere of radius
    sqrt(n) (so that the covariance is I_n as well).
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown prior family {self.family!r}")
        if self.n < 1:
            raise InvalidParameter("dimension must be >= 1")


@dataclass(frozen=True)
class PriorStats:
    """Moments and derived constants of an isotropic prior."""

    family: str
    n: int
    E_abs_x1: float
    E_norm_x: float
    kappa: float
    beta_bar: float
    gamma_bar: float


def _gamma_ratio_half(n: int) -> float:
    """Gamma((n+1)/2) / Gamma(n/2), overflow-safe.

    Below n = 1000 from the difference of log-gammas.  That difference
    cancels two terms of size about (n/2) ln(n/2) and so loses about
    eps*n*ln(n) relative, so from n = 1000 on the ratio is the asymptotic
    series sqrt(x)*(1 - 1/(8x) + 1/(128x^2) + 5/(1024x^3) - 21/(32768x^4)
    - 399/(262144x^5)) in x = n/2, whose next term is below 1e-19 there.
    """
    if n < 1000:
        return math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
    x = n / 2.0
    u = 1.0 / x
    s = -399.0 / 262144.0
    for c in (-21.0 / 32768.0, 5.0 / 1024.0, 1.0 / 128.0, -1.0 / 8.0, 1.0):
        s = c + u * s
    return math.sqrt(x) * s


def prior_stats(prior: PriorSpec) -> PriorStats:
    """E|x_1|, E||x||, kappa, beta_bar, gamma_bar for the named prior.

    For any isotropic prior, E|x_1| = Gamma(n/2)/(sqrt(pi) Gamma((n+1)/2))
    times E||x||; the two families below just plug in their E||x||.
    """
    n = prior.n
    if prior.family == "gaussian":
        e_norm = math.sqrt(2.0) * _gamma_ratio_half(n)
        e_abs_x1 = math.sqrt(2.0 / math.pi)
    else:  # sphere of radius sqrt(n)
        e_norm = math.sqrt(n)
        e_abs_x1 = e_norm / (math.sqrt(math.pi) * _gamma_ratio_half(n))
    kappa = e_abs_x1 / math.sqrt(1.0 + e_abs_x1 * e_abs_x1)
    beta_bar = kappa / (1.0 + kappa * kappa)
    gamma_bar = 1.0 + 1.0 / (1.0 + kappa * kappa)
    return PriorStats(
        family=prior.family,
        n=n,
        E_abs_x1=e_abs_x1,
        E_norm_x=e_norm,
        kappa=kappa,
        beta_bar=beta_bar,
        gamma_bar=gamma_bar,
    )


def upsilon(n: int) -> float:
    """Smallest achievable gamma_bar at dimension n (sphere prior attains it).

    upsilon(n) = 3/2 + (1/2) / (1 + 2 n Gamma(n/2)^2 / (pi Gamma((n+1)/2)^2));
    strictly increasing with limit 2(3+pi)/(4+pi).
    """
    if n < 1:
        raise InvalidParameter("dimension must be >= 1")
    ratio = _gamma_ratio_half(n)
    denom = 1.0 + 2.0 * n / (math.pi * ratio * ratio)
    return 1.5 + 0.5 / denom
