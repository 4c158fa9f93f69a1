"""Ground-truth evaluation: Monte-Carlo cost of projective policies,
closed forms for the scalar case and the tracking example, and the
no/full-information crossover thresholds.

The Monte-Carlo sampler is counter-based (splitmix64 finalizer keyed by
(seed, sample index, coordinate stream)), so sample i's draw never depends
on how many samples were produced before it; chunked/parallel evaluation is
bit-identical to the sequential one by construction.  It fills cache-sized
blocks of rows, all coordinates at once; ``gaussian_samples`` says why the
bits are those of a coordinate-by-coordinate evaluation.  ``mc_true_cost``
streams each worker's samples from the sampler to the inner maximization
one block of ``innermax._BLOCK`` rows at a time, through workspaces the
worker allocates once, so its memory is O(workers * _BLOCK * n) floats plus
one penalty per sample, not O(n_samples * n).
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import innermax
from .errors import InvalidParameter, InvalidRadius, OutOfRegime
from .innermax import worst_case_penalty_batch
from .instance import (
    EllipsoidalHypothesis,
    PriorSpec,
    QuadraticForm,
    _coefficient_terms,
    _gamma_ratio_half,
    prior_stats,
)
from .spectral import sym

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM = np.uint64(0xD1B54A32D192ED03)


# draws per stream block of the sampler: each of its two uint64 workspaces
# then takes 512 KB
_DRAWS = 2**15


def _sampler_scratch(dim: int, count: int) -> np.ndarray:
    """The sampler's two uint64 workspaces, for calls of up to ``count`` rows
    (see ``gaussian_samples``)."""
    rows = min(max(1, _DRAWS // max(dim, 1)), count)
    return np.empty((2, 2 * dim * rows), dtype=np.uint64)


def gaussian_samples(
    seed: int, start: int, count: int, dim: int, out: np.ndarray | None = None, *,
    _scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Standard-normal samples with per-sample counters start..start+count-1,
    written into ``out`` ((count, dim), a new array if None) and returned.

    Coordinate j of sample i is Box-Muller on the uniforms of streams 2j and
    2j + 1: stream s draws ((z >> 11) + 1) 2^-53 in (0, 1] from the splitmix64
    finalizer z of seed + s*_STREAM + i*_GOLDEN (uint64 words, wrapping).  No
    rejection, so the draw for a given (seed, index) is a pure function of
    the counter.

    The rows are filled in blocks of _DRAWS // dim, all 2*dim streams of a
    block at once: the counter product i*_GOLDEN is formed once per block and
    shared by every stream, the finalizer runs in place on one reused uint64
    workspace whose first dim rows hold the u1 streams and the rest the u2
    streams, the uniforms and Box-Muller are computed in place in the same
    memory, and the block is stored into the output once, transposed.  The
    bits are those of a coordinate-by-coordinate evaluation: the integer
    steps are exact, and each draw meets the same elementwise IEEE operations
    in the same order ((2 pi) * u2 and -2 * log u1 included), on contiguous
    operands, so neither the block size nor the layout can change a result.
    ``_scratch``, from ``_sampler_scratch(dim, c)`` with c >= count, holds
    the two uint64 workspaces across calls.
    """
    if out is None:
        out = np.empty((count, dim))
    z, t = _sampler_scratch(dim, count) if _scratch is None else _scratch
    rows = max(1, _DRAWS // max(dim, 1))
    # streams 0, 2, 4, ... (the u1 of each coordinate), then 1, 3, 5, ...;
    # uint64 array arithmetic wraps silently, as the finalizer needs
    streams = np.arange(2 * dim, dtype=np.uint64).reshape(dim, 2).T.reshape(-1, 1)
    base = np.uint64(seed) + streams * _STREAM
    for s in range(0, count, rows):
        b = min(rows, count - s)
        # contiguous (2*dim x b) views, so the last block's loops are the same
        zb, tb = z[: 2 * dim * b].reshape(2 * dim, b), t[: 2 * dim * b].reshape(2 * dim, b)
        np.add(base, np.arange(start + s, start + s + b, dtype=np.uint64) * _GOLDEN, out=zb)
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(zb, np.uint64(shift), out=tb)
            zb ^= tb
            if mix is not None:
                zb *= mix
        np.right_shift(zb, np.uint64(11), out=tb)
        u = zb.view(np.float64)
        np.copyto(u, tb, casting="unsafe")
        u += 1.0
        u *= 2.0**-53
        u1, u2 = u[:dim], u[dim:]
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 *= 2.0 * math.pi
        np.cos(u2, out=u2)
        u1 *= u2
        out[s : s + b] = u1.T
    return out


def prior_samples(
    prior: PriorSpec, seed: int, start: int, count: int, out: np.ndarray | None = None, *,
    _scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Samples from a named isotropic prior (counter-based, order-free),
    written into ``out`` ((count, n), a new array if None) and returned;
    ``_scratch`` as in ``gaussian_samples``.  The sphere scales the Gaussian
    rows to radius sqrt(n) in place."""
    g = gaussian_samples(seed, start, count, prior.n, out, _scratch=_scratch)
    if prior.family == "gaussian":
        return g
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    g /= norms
    g *= math.sqrt(prior.n)
    return g


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo cost estimate: mean is the full objective value, stderr
    the standard error of its sampled penalty part."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def check_sampling(n_samples: int, seed: int, n_workers: int = 1) -> None:
    """``InvalidParameter`` unless all three are integers (a bool or a float
    is not, even an integral one), n_samples >= 1, n_workers >= 1 and the
    seed is a uint64 word of the sampler, 0 <= seed < 2^64."""
    for name, v in (("n_samples", n_samples), ("seed", seed), ("n_workers", n_workers)):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {v!r}")
    if not n_samples >= 1:
        raise InvalidParameter("n_samples must be >= 1")
    if not n_workers >= 1:
        raise InvalidParameter("n_workers must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidParameter(f"seed must lie in [0, 2**64), got {seed}")


def mc_true_cost(
    qf: QuadraticForm,
    C: np.ndarray,
    prior: PriorSpec,
    P: np.ndarray,
    n_samples: int,
    seed: int,
    n_workers: int = 1,
) -> McEstimate:
    """True cost of the projective policy y = Px under the worst-case
    credible-mean deviation, estimated by Monte Carlo.

    The Bayesian part Tr(D P) + c is exact; the adversarial penalty is the
    sample mean of the exact inner maximization at v = x P a - f_vec (see
    ``_coefficient_terms``).  Deterministic for fixed (seed, n_samples)
    regardless of ``n_workers``; ``check_sampling`` bounds the arguments.

    The samples are split evenly over min(n_workers, blocks) threads, where
    blocks = ceil(n_samples / ``innermax._BLOCK``).  Each thread streams its
    rows through workspaces it allocates once: a block of samples, its
    deviations v, the sampler's and the inner maximization's buffers.  So
    memory is O(workers * _BLOCK * n) floats plus the n_samples penalties,
    not O(n_samples * n).  Qm is decomposed once per call.
    """
    check_sampling(n_samples, seed, n_workers)
    P = sym(np.asarray(P, dtype=float))
    d, c, a, qm, fvec = _coefficient_terms(qf, EllipsoidalHypothesis(C))
    pa = P @ a
    spectrum = innermax._spectrum(qm)
    n, block, width = prior.n, innermax._BLOCK, innermax._WIDTH
    pen = np.empty(n_samples)

    def penalties(start: int, stop: int) -> None:
        # every product x P a has the workspace's rows, a multiple of
        # ``width``, a short block padded with rows of an earlier block or
        # zeros: a one-row product would go to a matrix-vector kernel, and a
        # few-row one may meet other GEMM kernels, whose sums are ordered
        # otherwise
        rows = min(block, -(-(stop - start) // width) * width)
        x, v = np.zeros((rows, n)), np.empty((rows, n))
        scratch = _sampler_scratch(n, rows)
        work = innermax._Workspace(spectrum, rows)
        for s in range(start, stop, block):
            b = min(block, stop - s)
            prior_samples(prior, seed, s, b, x[:b], _scratch=scratch)
            np.matmul(x, pa, out=v)
            vb = v[:b]
            vb -= fvec
            worst_case_penalty_batch(qm, vb, pen[s : s + b], _work=work)

    workers = min(int(n_workers), -(-n_samples // block))
    bounds = np.linspace(0, n_samples, workers + 1).astype(int).tolist()
    if workers == 1:
        penalties(0, n_samples)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(penalties, bounds[:-1], bounds[1:]))

    mean_pen = float(np.mean(pen))
    if n_samples > 1:
        stderr = float(np.std(pen, ddof=1) / math.sqrt(n_samples))
    else:
        stderr = 0.0
    value = float(np.sum(d * P)) + c + mean_pen
    return McEstimate(mean=value, stderr=stderr, n_samples=int(n_samples), seed=int(seed))


# --------------------------------------------------------------------------
# scalar tracking game: closed-form tables and thresholds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdTriple:
    """No-info/full-info crossover radii for PP, the true cost, and POP."""

    eps_minus: float
    eps_star: float
    eps_plus: float


def _check_regime(k: float) -> None:
    # written as a negation so that a NaN k is rejected too
    if not 0.5 < k < math.inf or abs(k - 1.0) < 1e-12:
        raise OutOfRegime("closed forms require a finite k > 1/2 and k != 1")


def thresholds_1d(k: float) -> ThresholdTriple:
    """Crossover radii of the scalar tracking game: the tracking example's
    at n = 1."""
    return opening_thresholds(k, 1)


def oned_table(k: float, eps: float) -> dict[str, float]:
    """No-info and full-info values of the scalar tracking game: the
    tracking example's at n = 1."""
    return opening_table(k, 1, eps)


# --------------------------------------------------------------------------
# n-dimensional tracking example (cost ||x_tilde - k x||^2, C = eps*I)
# --------------------------------------------------------------------------


def opening_table(k: float, n: int, eps: float) -> dict[str, float]:
    """No-info and full-info values of the n-dimensional tracking example.

    Keys: {abp,pp,pop}_{ni,fi}. The true (abp) and pessimistic values share
    the no-information entry; the optimistic one discounts the quadratic
    part of the penalty by (1 - beta_bar^2).
    """
    _check_regime(k)
    gap = abs(1.0 - k)
    ps = prior_stats(PriorSpec("gaussian", n))
    bb2 = ps.beta_bar**2
    bk = ps.beta_bar * ps.kappa
    ni_base = k * k * n
    fi_base = gap * gap * n
    return {
        "abp_ni": ni_base + eps * eps,
        "abp_fi": fi_base + eps * eps + 2.0 * eps * gap * ps.E_norm_x,
        "pp_ni": ni_base + eps * eps,
        "pp_fi": fi_base + eps * eps + 2.0 * eps * gap * math.sqrt(n),
        "pop_ni": ni_base + (1.0 - bb2) * eps * eps,
        "pop_fi": fi_base + (1.0 - bb2) * eps * eps + 2.0 * bk * eps * gap * math.sqrt(n),
    }


def opening_thresholds(k: float, n: int) -> ThresholdTriple:
    """Crossover radii of the n-dimensional tracking example under a Gaussian
    prior.  Each equates the no-information and full-information values of
    its program: eps_minus for the pessimistic bound, eps_star for the true
    cost, eps_plus for the projective optimistic bound.

    eps_plus/eps_minus = 1/(beta_bar*kappa) ~ 3.57 for the Gaussian prior
    (dimension-independent, since E|x_1| is).
    """
    _check_regime(k)
    ps = prior_stats(PriorSpec("gaussian", n))
    gap = abs(1.0 - k)
    num = (2.0 * k - 1.0)
    eps_minus = num * math.sqrt(n) / (2.0 * gap)
    eps_star = num * n / (2.0 * gap * ps.E_norm_x)
    eps_plus = eps_minus / (ps.beta_bar * ps.kappa)  # beta_bar*kappa = 2/(4+pi)
    return ThresholdTriple(eps_minus=eps_minus, eps_star=eps_star, eps_plus=eps_plus)


def opening_linear_best(k: float, n: int, eps: float) -> float:
    """Best value over linear (no- or full-information) policies: the smaller
    true cost of ``opening_table``."""
    tab = opening_table(k, n, eps)
    return min(tab["abp_ni"], tab["abp_fi"])


def _stirlerr(b: float) -> float:
    """Stirling's error lgamma(b + 1) - (b + 1/2) ln b + b - ln(2 pi)/2 for
    b >= 100, from its asymptotic series; the next term is below 1e-21."""
    u = 1.0 / (b * b)
    return (1.0 / 12.0 - u * (1.0 / 360.0 - u * (1.0 / 1260.0 - u / 1680.0))) / b


def _bd0(b: float, x: float) -> float:
    """b ln(b/x) + x - b >= 0, summed as a series in v = (b - x)/(b + x)
    near b = x, where the direct form cancels (Loader 2000)."""
    if abs(b - x) >= 0.1 * (b + x):
        return b * math.log(b / x) + x - b
    v = (b - x) / (b + x)
    s, ej, v2, j = (b - x) * v, 2.0 * b * v, v * v, 1.0
    while True:
        ej *= v2
        nxt = s + ej / (2.0 * j + 1.0)
        if nxt == s:
            return s
        s, j = nxt, j + 1.0


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a half-integer a > 0.

    With t_b = x^b e^-x / Gamma(b + 1) = Q(b + 1, x) - Q(b, x) > 0, Q(a, x) is
    1 - (t_a + t_(a+1) + ...) for x < a, else t_(a-1) + t_(a-2) + ... + Q(r, x)
    with Q(1/2, x) = erfc(sqrt(x)) or Q(1, x) = e^-x.  The terms of either sum
    fall, so it stops once a bound on its rest is below 1e-17 of it: after
    O(sqrt(x) + 1) terms, however large a is.

    Below a = 500 a term is exp(b ln x - x - lgamma(b + 1)).  Its exponent
    cancels terms of size about b ln b and so loses about eps*b*ln(b)
    relative, so from a = 500 on a term is Loader's saddle-point form
    exp(-stirlerr(b) - bd0(b, x)) / sqrt(2 pi b), whose parts do not cancel
    (C. Loader, "Fast and accurate computation of binomial probabilities",
    2000).  There every term has b > 300: a downward sum from a >= 500 has
    met its bound long before."""
    if x <= 0.0:
        return 1.0
    up, r, saddle = x < a, a % 1.0 or 1.0, a >= 500.0
    s, b = 0.0, a if up else a - 1.0
    while up or b >= r:
        if saddle:
            tb = math.exp(-_stirlerr(b) - _bd0(b, x)) / math.sqrt(2.0 * math.pi * b)
        else:
            tb = math.exp(b * math.log(x) - x - math.lgamma(b + 1.0))
        s += tb
        # the rest is at most t_b*x/(b+1-x) upward, t_b*b/(x-b+1) downward
        if tb * (x if up else b) <= 1e-17 * s * (b + 1.0 - x if up else x - b + 1.0):
            break
        b += 1.0 if up else -1.0
    else:
        s += math.erfc(math.sqrt(x)) if r == 0.5 else math.exp(-x)
    return 1.0 - s if up else s


def radius_threshold_cost(k: float, n: int, eps: float, R: float) -> float:
    """Cost of the radius-threshold policy: reveal x fully iff ||x|| >= R.

    Value (1-2k) T2(R) + k^2 n + eps^2 + 2 eps |1-k| T1(R), with the chi(n)
    tail moments in closed form:
    T_m(R) = E[||x||^m 1{||x|| >= R}] = 2^(m/2) Q((n+m)/2, R^2/2) Gamma((n+m)/2) / Gamma(n/2),
    Q from ``_gamma_q``; the Gamma ratio is ``_gamma_ratio_half(n)`` for m = 1
    and exactly n/2 for m = 2.
    """
    if R < 0.0:
        raise InvalidRadius("threshold radius must be nonnegative")
    gap = abs(1.0 - k)
    x = R * R / 2.0
    t1 = math.sqrt(2.0) * _gamma_q((n + 1) / 2.0, x) * _gamma_ratio_half(n)
    t2 = n * _gamma_q((n + 2) / 2.0, x)
    return (1.0 - 2.0 * k) * t2 + k * k * n + eps * eps + 2.0 * eps * gap * t1


def radius_scan(
    k: float, n: int, eps: float, r_lo: float, r_hi: float, steps: int
) -> list[tuple[float, float]]:
    """Cost of the radius-threshold policy on a radius grid."""
    rs = np.linspace(r_lo, r_hi, steps)
    return [(float(r), radius_threshold_cost(k, n, eps, float(r))) for r in rs]
