import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from lqpersuasion import (
    PriorSpec,
    mc_true_cost,
    oned_table,
    opening_linear_best,
    opening_table,
    opening_thresholds,
    radius_scan,
    radius_threshold_cost,
    thresholds_1d,
)
from conftest import random_reduced_game
from lqpersuasion import EllipsoidalHypothesis, derive_coefficients, evaluator, innermax, programs
from lqpersuasion.demo import tracking_form
from lqpersuasion.errors import InvalidParameter, InvalidRadius, OutOfRegime
from lqpersuasion.evaluator import _gamma_q, gaussian_samples, prior_samples
from lqpersuasion.instance import _coefficient_terms
from lqpersuasion.innermax import worst_case_penalty_batch
from lqpersuasion.spectral import sym


# --------------------------------------------------------------------------
# counter-based sampling
# --------------------------------------------------------------------------


def test_gaussian_samples_are_standard_normal():
    x = gaussian_samples(seed=7, start=0, count=400_000, dim=3)
    assert abs(x.mean()) < 5.0 / math.sqrt(x.size)
    cov = np.cov(x.T)
    assert np.allclose(cov, np.eye(3), atol=0.02)


def test_samples_depend_only_on_counter():
    full = gaussian_samples(seed=3, start=0, count=1000, dim=2)
    tail = gaussian_samples(seed=3, start=400, count=600, dim=2)
    assert np.array_equal(full[400:], tail)
    other_seed = gaussian_samples(seed=4, start=0, count=1000, dim=2)
    assert not np.array_equal(full, other_seed)


# (seed, start, dim): float.hex of draws (0, 0) and (1, dim - 1) of
# gaussian_samples(seed, start, 2, dim), recorded from the stream-by-stream
# sampler; every Monte-Carlo reference rests on these bits
_GOLDEN_DRAWS = {
    (0x0, 0x0, 1): ("-0x1.11f35683e68abp+3", "0x1.c96051cd28377p-3"),
    (0x0, 0x0, 3): ("-0x1.11f35683e68abp+3", "-0x1.41406c413ab00p-1"),
    (0x0, 0x0, 30): ("-0x1.11f35683e68abp+3", "-0x1.7bcb3c22ff8d5p+0"),
    (0x0, 0x10000000000, 1): ("-0x1.85cc3fed4736ap-2", "-0x1.0a5d0063860e4p+1"),
    (0x0, 0x10000000000, 3): ("-0x1.85cc3fed4736ap-2", "-0x1.6c70405193bfap-2"),
    (0x0, 0x10000000000, 30): ("-0x1.85cc3fed4736ap-2", "-0x1.2d9305721c34ep+0"),
    (0xFFFFFFFFFFFFFFFF, 0x0, 1): ("0x1.aa88575266afbp-1", "-0x1.864fd79b54ba5p-4"),
    (0xFFFFFFFFFFFFFFFF, 0x0, 3): ("0x1.aa88575266afbp-1", "0x1.35ad2c1858bfcp+0"),
    (0xFFFFFFFFFFFFFFFF, 0x0, 30): ("0x1.aa88575266afbp-1", "0x1.23c9fc110a92fp-4"),
    (0xFFFFFFFFFFFFFFFF, 0x10000000000, 1): ("-0x1.eefa0ac4dd944p-2", "-0x1.eeab71d79fd5ep-1"),
    (0xFFFFFFFFFFFFFFFF, 0x10000000000, 3): ("-0x1.eefa0ac4dd944p-2", "0x1.edf13b746e174p-2"),
    (0xFFFFFFFFFFFFFFFF, 0x10000000000, 30): ("-0x1.eefa0ac4dd944p-2", "-0x1.ba2dae701a056p-4"),
}


def test_gaussian_samples_golden_bits():
    for (seed, start, dim), (first, last) in _GOLDEN_DRAWS.items():
        g = gaussian_samples(seed, start, 2, dim)
        assert (float(g[0, 0]).hex(), float(g[1, dim - 1]).hex()) == (first, last)


def _reference_gaussians(seed: int, start: int, count: int, dim: int) -> np.ndarray:
    """The sampler's formula one coordinate at a time: splitmix64 of
    seed + stream * 0xD1B5... + index * 0x9E37..., streams 2j and 2j + 1 of
    coordinate j, Box-Muller on their uniforms."""
    golden, stream_key = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xD1B54A32D192ED03)
    mixes = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)), (31, None))
    idx = np.arange(start, start + count, dtype=np.uint64)
    out = np.empty((count, dim))
    with np.errstate(over="ignore"):
        for j in range(dim):
            u = []
            for stream in (2 * j, 2 * j + 1):
                z = np.uint64(seed) + np.uint64(stream) * stream_key + idx * golden
                for shift, mix in mixes:
                    z = z ^ (z >> np.uint64(shift))
                    if mix is not None:
                        z = z * mix
                u.append(((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53)
            out[:, j] = np.sqrt(-2.0 * np.log(u[0])) * np.cos(2.0 * math.pi * u[1])
    return out


def test_block_sampler_matches_per_coordinate_formula():
    # counts around the block size cut the last block at every place that
    # matters: empty, one row, one short of a block, a block, one over
    for dim in range(1, 65):
        rows = evaluator._DRAWS // dim
        seed, start = ((7, 0), (2**64 - 1, 2**40))[dim % 2]
        for count in (0, 1, rows - 1, rows, rows + 1):
            got = gaussian_samples(seed, start, count, dim)
            assert got.shape == (count, dim)
            assert got.tobytes() == _reference_gaussians(seed, start, count, dim).tobytes()
    # the sphere scales the rows in place, with the bits of a new array
    for dim in (1, 3, 30):
        count = evaluator._DRAWS // dim + 1
        g = _reference_gaussians(5, 3, count, dim)
        expect = g / np.linalg.norm(g, axis=1, keepdims=True) * math.sqrt(dim)
        got = prior_samples(PriorSpec("sphere", dim), seed=5, start=3, count=count)
        assert got.tobytes() == expect.tobytes()
        # into a caller's buffer, with a workspace made for more rows
        buf = np.full((count + 7, dim), np.nan)
        scratch = evaluator._sampler_scratch(dim, count + 7)
        out = prior_samples(PriorSpec("sphere", dim), 5, 3, count, buf[:count], _scratch=scratch)
        assert out.base is buf and buf[:count].tobytes() == expect.tobytes()


def test_sphere_samples_have_exact_radius():
    u = prior_samples(PriorSpec("sphere", 4), seed=1, start=0, count=5000)
    assert np.allclose(np.linalg.norm(u, axis=1), 2.0, atol=1e-12)


def _worker_cases():
    """(label, qf, C, P): the tracking game at n = 3 and a random n = 30 game
    under a rank-15 projection."""
    rng = np.random.default_rng(13)
    qf30, C30 = random_reduced_game(rng, 30), rng.normal(size=(30, 30))
    u = np.linalg.qr(rng.normal(size=(30, 30)))[0][:, :15]
    return [("n3", tracking_form(2.0, 3), np.eye(3), np.eye(3)), ("n30", qf30, C30, u @ u.T)]


def _estimates(qf, C, prior, samples, P, workers):
    return {
        (e.mean, e.stderr)
        for e in (
            mc_true_cost(qf, C, prior, P, n_samples=samples, seed=5, n_workers=w)
            for w in workers
        )
    }


def test_mc_true_cost_deterministic_across_workers():
    # the worker chunks cut the inner maximization's blocks at other rows
    # than one worker does: 2 workers take one full block and a few rows
    # each; they also start inside the sampler's blocks, of which the samples
    # fill more than one at n = 3
    samples = 2 * innermax._BLOCK + 17
    assert evaluator._DRAWS // 3 < samples < 2 * (evaluator._DRAWS // 3)
    for _, qf, C, P in _worker_cases():
        for family in ("gaussian", "sphere"):
            prior = PriorSpec(family, qf.n)
            assert len(_estimates(qf, C, prior, samples, P, (1, 2, 3, 8))) == 1
            # one sample per worker asked for (one thread runs them), and a
            # last block of one row: on one worker, on the second of two
            # (2 * _BLOCK + 1 samples) and on the third of three (3 * _BLOCK
            # + 1)
            for samples_w in (3, 5):
                assert len(_estimates(qf, C, prior, samples_w, P, (1, samples_w))) == 1
            for k in (1, 2, 3):
                assert len(_estimates(qf, C, prior, k * innermax._BLOCK + 1, P, (1, 2, 3))) == 1


def test_mc_true_cost_few_samples_match_a_long_batch():
    # a sample's penalty does not depend on how many samples are drawn: the
    # estimate over the first k samples is formed from the first k penalties
    # of a long batch, bit for bit, at k = 1 too, where a one-row product
    # x P a would go to numpy's matrix-vector kernel (whose bits differ from
    # the long batch's at seeds 15, 17 and 30 here)
    _, qf, C, P = _worker_cases()[1]
    prior, P = PriorSpec("gaussian", qf.n), sym(P)
    d, c, a, qm, fvec = _coefficient_terms(qf, EllipsoidalHypothesis(C))
    for seed in range(40):
        pen = worst_case_penalty_batch(qm, prior_samples(prior, seed, 0, 600) @ (P @ a) - fvec)
        for k in (1, 2, 3, 600) if seed == 5 else (1,):
            est = mc_true_cost(qf, C, prior, P, n_samples=k, seed=seed)
            assert est.mean == float(np.sum(d * P)) + c + float(np.mean(pen[:k]))


# (game, family, samples): float.hex of (mean, stderr) of mc_true_cost at
# seed 5, recorded from the evaluator that sampled each worker's chunk
# whole and solved it in one batch call; 1, 2 and 3 workers all give these
_B = innermax._BLOCK
_GOLDEN_ESTIMATES = {
    ("n3", "gaussian", _B - 1): ("0x1.cc8f949d3b1f9p+2", "0x1.e79ae25a0c8c0p-7"),
    ("n3", "gaussian", _B): ("0x1.cc8ae34eb15c6p+2", "0x1.e7a2c4bd2a06cp-7"),
    ("n3", "gaussian", 2 * _B + 17): ("0x1.cc314a7cf80acp+2", "0x1.59b186af809fap-7"),
    ("n3", "sphere", _B - 1): ("0x1.ddb3d742c2656p+2", "0x1.712cb47e9f6d2p-57"),
    ("n3", "sphere", _B): ("0x1.ddb3d742c2656p+2", "0x1.71212aead4705p-57"),
    ("n3", "sphere", 2 * _B + 17): ("0x1.ddb3d742c2656p+2", "0x1.04a4c493481e3p-57"),
    ("n30", "gaussian", _B - 1): ("0x1.3ea9428096bf1p+14", "0x1.cae23407619fbp+3"),
    ("n30", "gaussian", _B): ("0x1.3ea96bfefaa53p+14", "0x1.cad454d0681eap+3"),
    ("n30", "gaussian", 2 * _B + 17): ("0x1.3edfd66c4e999p+14", "0x1.45d491ac9019fp+3"),
    ("n30", "sphere", _B - 1): ("0x1.3ea46df7b4b69p+14", "0x1.ca1dfc8204c29p+3"),
    ("n30", "sphere", _B): ("0x1.3ea4c8e07b70ep+14", "0x1.ca11ecb24fd89p+3"),
    ("n30", "sphere", 2 * _B + 17): ("0x1.3ed1604510cbep+14", "0x1.44395a7ec630ap+3"),
}


def test_mc_true_cost_golden_bits():
    cases = {label: rest for label, *rest in _worker_cases()}
    for (label, family, samples), golden in _GOLDEN_ESTIMATES.items():
        qf, C, P = cases[label]
        ests = _estimates(qf, C, PriorSpec(family, qf.n), samples, P, (1, 2, 3))
        assert {(m.hex(), s.hex()) for m, s in ests} == {golden}


def test_mc_true_cost_memory_does_not_grow_with_samples():
    # each worker streams its samples through workspaces of one block, so
    # 60k more samples cost their 8-byte penalties and little else (sampling
    # a worker's whole chunk at once costs 29-37 MB more here)
    _, qf, C, P = _worker_cases()[1]
    prior = PriorSpec("gaussian", qf.n)
    for workers in (1, 2):
        peaks = []
        for samples in (20_000, 80_000):
            tracemalloc.start()
            try:
                mc_true_cost(qf, C, prior, P, n_samples=samples, seed=5, n_workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * 60_000 + 2**20


def test_mc_true_cost_starts_no_more_threads_than_blocks(monkeypatch):
    # a huge n_workers on a few samples starts one thread per block at most
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            assert max_workers <= 2
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(evaluator, "ThreadPoolExecutor", Recording)
    args = (tracking_form(2.0, 2), np.eye(2), PriorSpec("gaussian", 2), np.eye(2))
    one = mc_true_cost(*args, n_samples=innermax._BLOCK + 1, seed=3)
    assert mc_true_cost(*args, n_samples=innermax._BLOCK + 1, seed=3, n_workers=10**6) == one
    assert made == [2]
    assert mc_true_cost(*args, n_samples=5, seed=3, n_workers=10**6) == mc_true_cost(
        *args, n_samples=5, seed=3)
    assert made == [2]


def test_mc_true_cost_matches_closed_form_full_information():
    # tracking game, full revelation: cost = (k-1)^2 n + eps^2 + 2 eps |1-k| E||x||
    k, n, eps = 2.0, 3, 1.0
    qf = tracking_form(k, n)
    est = mc_true_cost(
        qf, eps * np.eye(n), PriorSpec("gaussian", n), np.eye(n),
        n_samples=100_000, seed=11,
    )
    expect = opening_table(k, n, eps)["abp_fi"]
    assert abs(est.mean - expect) < 4.0 * est.stderr
    assert est.stderr < 0.02


def test_mc_true_cost_no_information_closed_form():
    # no revelation: the penalty is deterministic, so the estimate is exact
    k, n, eps = 2.0, 3, 1.5
    qf = tracking_form(k, n)
    est = mc_true_cost(
        qf, eps * np.eye(n), PriorSpec("gaussian", n), np.zeros((n, n)),
        n_samples=2_000, seed=2,
    )
    assert est.mean == pytest.approx(opening_table(k, n, eps)["abp_ni"], abs=1e-9)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_mc_true_cost_reads_the_coefficient_terms(monkeypatch):
    # Monte Carlo reads D, c, Qm and the deviation terms of the derivation:
    # it builds no oracle record and decomposes only Qm, in the inner
    # maximization.  The reference below is the direct form of the estimate,
    # v = (x P M^T - base) C with M = Q21 + Q22, on the full derivation.
    rng = np.random.default_rng(12)
    cases = []
    for n in (3, 30):
        qf = random_reduced_game(rng, n)
        C = rng.normal(size=(n, n))
        u = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : n // 2 + 1]
        cases.append((qf, C, PriorSpec("gaussian", n), u @ u.T))
    refs = []
    for qf, C, prior, P in cases:
        dc = derive_coefficients(qf, EllipsoidalHypothesis(C))
        m = qf.q21 + qf.q22
        base = qf.q21 @ qf.l1 + qf.q22 @ qf.l2
        x = prior_samples(prior, 4, 0, 5_000)
        pen = worst_case_penalty_batch(sym(C.T @ qf.q22 @ C), (x @ P @ m.T - base) @ C)
        refs.append((float(np.sum(dc.D * P)) + dc.c + float(np.mean(pen)),
                     float(np.std(pen, ddof=1) / math.sqrt(pen.size))))

    def counter(owner, name):
        orig, count = getattr(owner, name), [0]

        def counting(*args, **kwargs):
            count[0] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return count

    pencils = counter(programs._Pencil, "__init__")
    eigh = counter(np.linalg, "eigh")
    eigvalsh = counter(np.linalg, "eigvalsh")
    for (qf, C, prior, P), (mean, stderr) in zip(cases, refs):
        eigh[0] = 0
        est = mc_true_cost(qf, C, prior, P, n_samples=5_000, seed=4)
        assert abs(est.mean - mean) <= 1e-12 * abs(mean)
        assert abs(est.stderr - stderr) <= 1e-12 * stderr
        assert eigh[0] == 1
    assert pencils[0] == 0
    assert eigvalsh[0] == 0


def test_mc_true_cost_rejects_bad_samples_or_seed():
    # the sampler keys its counters by the seed as a uint64: a seed outside
    # [0, 2^64) is a typed input error, not numpy's OverflowError; so is a
    # bool or a float, which used to run as its truncation (a seed) or fail
    # inside numpy with a TypeError (a sample count)
    args = (tracking_form(2.0, 2), np.eye(2), PriorSpec("gaussian", 2), np.eye(2))
    for n_samples, seed in ((0, 0), (10, -1), (10, 2**64), (10, 1.5), (10, 1.0), (10, True),
                            (10, np.bool_(False)), (10.0, 1), (10.5, 1), (True, 1)):
        with pytest.raises(InvalidParameter):
            mc_true_cost(*args, n_samples=n_samples, seed=seed)
    for n_workers in (0, -1, 2.0, 1.5, True, np.bool_(True), "2", None):
        with pytest.raises(InvalidParameter):
            mc_true_cost(*args, n_samples=10, seed=1, n_workers=n_workers)
    assert mc_true_cost(*args, n_samples=10, seed=1, n_workers=np.int64(2)) == mc_true_cost(
        *args, n_samples=10, seed=1)
    assert mc_true_cost(*args, n_samples=10, seed=2**64 - 1).seed == 2**64 - 1
    est = mc_true_cost(*args, n_samples=np.int64(10), seed=np.uint64(3))
    assert est == mc_true_cost(*args, n_samples=10, seed=3)
    assert type(est.n_samples) is int and type(est.seed) is int


# --------------------------------------------------------------------------
# scalar closed forms
# --------------------------------------------------------------------------


def test_thresholds_1d_k2_closed_forms():
    tr = thresholds_1d(2.0)
    assert tr.eps_minus == pytest.approx(1.5, abs=1e-12)
    assert tr.eps_star == pytest.approx(3.0 * math.sqrt(2.0 * math.pi) / 4.0, abs=1e-12)
    assert tr.eps_plus == pytest.approx(3.0 * (4.0 + math.pi) / 4.0, abs=1e-12)


def test_thresholds_are_crossovers_of_the_tables():
    for k in (2.0, 0.75, 3.5):
        tr = thresholds_1d(k)
        for eps_c, key in ((tr.eps_minus, "pp"), (tr.eps_star, "abp"), (tr.eps_plus, "pop")):
            below = oned_table(k, eps_c * 0.999)
            above = oned_table(k, eps_c * 1.001)
            assert below[f"{key}_fi"] < below[f"{key}_ni"]
            assert above[f"{key}_fi"] > above[f"{key}_ni"]
            at = oned_table(k, eps_c)
            assert at[f"{key}_fi"] == pytest.approx(at[f"{key}_ni"], rel=1e-9)


def test_oned_table_symbolic_values():
    for eps in (0.0, 1.0, 2.0, 6.0):
        tab = oned_table(2.0, eps)
        e1 = math.sqrt(2.0 / math.pi)
        kap = e1 / math.sqrt(1.0 + e1 * e1)
        bb = kap / (1.0 + kap * kap)
        assert tab["abp_ni"] == pytest.approx(4.0 + eps * eps, abs=1e-12)
        assert tab["pp_ni"] == pytest.approx(4.0 + eps * eps, abs=1e-12)
        assert tab["abp_fi"] == pytest.approx(1.0 + 2.0 * e1 * eps + eps * eps, abs=1e-12)
        assert tab["pp_fi"] == pytest.approx(1.0 + 2.0 * eps + eps * eps, abs=1e-12)
        assert tab["pop_ni"] == pytest.approx(4.0 + (1 - bb * bb) * eps * eps, abs=1e-12)
        assert tab["pop_fi"] == pytest.approx(
            1.0 + 2.0 * bb * kap * eps + (1 - bb * bb) * eps * eps, abs=1e-12
        )


def test_scalar_tables_are_the_tracking_tables_at_n1():
    # the scalar game is the tracking example at n = 1, bit for bit
    for k in (0.6, 0.9, 1.5, 2.0, 3.7, 10.0):
        assert thresholds_1d(k) == opening_thresholds(k, 1)
        for eps in np.linspace(0.0, 6.0, 61):
            assert oned_table(k, float(eps)) == opening_table(k, 1, float(eps))


def test_regime_guards():
    for bad_k in (0.5, 0.2, 1.0):
        with pytest.raises(OutOfRegime):
            thresholds_1d(bad_k)
        with pytest.raises(OutOfRegime):
            oned_table(bad_k, 1.0)
        with pytest.raises(OutOfRegime):
            opening_thresholds(bad_k, 3)
    # dimension 0 is a typed input error, and a huge k overflows to inf
    with pytest.raises(InvalidParameter):
        opening_thresholds(2.0, 0)
    with pytest.raises(InvalidParameter):
        opening_linear_best(2.0, 0, 1.0)
    assert math.isinf(oned_table(1e308, 1.0)["pp_fi"])
    assert math.isinf(opening_table(1e308, 3, 1.0)["pp_fi"])


# --------------------------------------------------------------------------
# n-dimensional tracking example
# --------------------------------------------------------------------------


def test_opening_table_symbolic_values():
    for k, n in ((2.0, 1), (2.0, 3), (0.75, 5)):
        gam = math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
        e_norm = math.sqrt(2.0) * gam
        gap = abs(1.0 - k)
        for eps in (0.0, 0.7, 2.0):
            tab = opening_table(k, n, eps)
            assert tab["abp_fi"] == pytest.approx(
                (k - 1.0) ** 2 * n + eps * eps + 2.0 * eps * gap * e_norm, abs=1e-10
            )
            assert tab["pp_fi"] == pytest.approx(
                (k - 1.0) ** 2 * n + eps * eps + 2.0 * eps * gap * math.sqrt(n),
                abs=1e-10,
            )
            assert tab["abp_ni"] == pytest.approx(k * k * n + eps * eps, abs=1e-10)


def test_opening_table_reduces_to_scalar_table():
    for eps in (0.0, 1.3, 4.0):
        a = opening_table(2.0, 1, eps)
        b = oned_table(2.0, eps)
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)


def test_opening_threshold_ratio_constant():
    ratio = (4.0 + math.pi) / 2.0
    for k, n in ((2.0, 1), (2.0, 3), (0.75, 5), (4.0, 10)):
        tr = opening_thresholds(k, n)
        assert tr.eps_plus / tr.eps_minus == pytest.approx(ratio, abs=1e-12)
        assert tr.eps_minus <= tr.eps_star <= tr.eps_plus


def test_opening_linear_best_piecewise():
    k, n = 2.0, 3
    tr = opening_thresholds(k, n)
    eps_small = tr.eps_star * 0.5
    tab = opening_table(k, n, eps_small)
    assert opening_linear_best(k, n, eps_small) == pytest.approx(tab["abp_fi"], abs=1e-10)
    eps_big = tr.eps_star * 2.0
    tab = opening_table(k, n, eps_big)
    assert opening_linear_best(k, n, eps_big) == pytest.approx(tab["abp_ni"], abs=1e-10)


# --------------------------------------------------------------------------
# radius-threshold policy
# --------------------------------------------------------------------------


def _tail_moment(n: int, m: int, R: float) -> float:
    """E[||x||^m 1{||x|| >= R}] for chi(n), by adaptive quadrature of the
    radial density on [R, R + 40 sqrt(n)] (the truncated tail mass is below
    exp(-700) at that cutoff), independent of the library's closed form."""
    log_norm = (n / 2.0 - 1.0) * math.log(2.0) + math.lgamma(n / 2.0)

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return r**m * math.exp((n - 1) * math.log(r) - r * r / 2.0 - log_norm)

    val, _ = quad(integrand, R, R + 40.0 * math.sqrt(n), epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def test_radius_cost_matches_incomplete_gamma_closed_form():
    # the library evaluates the incomplete-gamma closed form; the reference
    # here integrates the chi(n) tail numerically
    for k, n, eps in ((2.0, 3, 10.0), (0.75, 5, 2.0)):
        gap = abs(1.0 - k)
        for R in (0.0, 0.5, 2.0, 5.0, 12.0):
            t1 = _tail_moment(n, 1, R)
            t2 = _tail_moment(n, 2, R)
            expect = (1.0 - 2.0 * k) * t2 + k * k * n + eps * eps + 2.0 * eps * gap * t1
            assert radius_threshold_cost(k, n, eps, R) == pytest.approx(
                expect, rel=1e-9, abs=1e-9
            )


def test_radius_cost_limits():
    # R = 0 reveals everything; huge R reveals nothing
    k, n, eps = 2.0, 3, 1.0
    tab = opening_table(k, n, eps)
    assert radius_threshold_cost(k, n, eps, 0.0) == pytest.approx(tab["abp_fi"], rel=1e-9)
    assert radius_threshold_cost(k, n, eps, 50.0) == pytest.approx(tab["abp_ni"], rel=1e-9)
    with pytest.raises(InvalidRadius):
        radius_threshold_cost(k, n, eps, -1.0)


def test_radius_cost_exact_second_moment_at_large_n():
    # at R = 0, T2 = E||x||^2 = n exactly (Gamma(n/2 + 1) = (n/2) Gamma(n/2)),
    # so the cost is the full-information value (k - 1)^2 n at eps = 0; a
    # difference of log-gammas near (n/2) ln(n/2) rounds it about 1e-10 off
    k, n = 2.0, 10**6
    expect = (k - 1.0) ** 2 * n
    assert abs(radius_threshold_cost(k, n, 0.0, 0.0) - expect) <= 1e-15 * expect


def test_gamma_q_matches_gammaincc_at_large_n():
    # the chi(n) tail at R^2 = n (x = n/2) and one standard deviation out,
    # for both orders the radius cost uses; a term's log taken as a
    # difference of terms near (n/2) ln(n/2) was 5.4e-7 off here at n = 1e9
    for n in (1e3, 1e5, 1e7, 1e9):
        for a in ((n + 1.0) / 2.0, (n + 2.0) / 2.0):
            for x in (n / 2.0, n / 2.0 + math.sqrt(n / 2.0)):
                assert _gamma_q(a, x) == pytest.approx(gammaincc(a, x), rel=1e-12, abs=0.0)


def test_radius_scan_beats_linear_policies_at_large_eps():
    # The achievable improvement over the best linear value is tiny here
    # (the threshold radius sits deep in the chi(3) tail: the exact optimum
    # over all R is only ~3.8e-9 below), but it is strict and resolvable in
    # float64, which is the point: a nonlinear policy beats every linear one.
    k, n, eps = 2.0, 3, 10.0
    best_linear = opening_linear_best(k, n, eps)
    assert best_linear == pytest.approx(112.0, abs=1e-10)
    r_star = 2.0 * eps * abs(1.0 - k) / (2.0 * k - 1.0)
    scan = radius_scan(k, n, eps, r_star + 0.1, 4.0 * r_star, 40)
    best_r, best_cost = min(scan, key=lambda rc: rc[1])
    assert best_r >= r_star + 0.1
    assert best_cost < best_linear - 1e-10
