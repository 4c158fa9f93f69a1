"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload writes its inputs as instance files, which are all the package
receives, and drives the package through its public entry points:
``cli.main`` for ``solve``, ``sweep`` and ``example``, and
``evaluator.mc_true_cost`` for Monte Carlo.  Every operation's output is
checked twice: by internal checks that hold on any seed (certificates,
orderings, closed forms) and, when ``reference/<workload>.json`` has an
entry for the seed, against the outputs recorded at the commit that
defined the benchmark.

The shared seeded instance: ``A ~ N(0, 1)^{2n x 2n}`` from
``numpy.random.default_rng((seed, n, index))``, ``Q = A A^T``, ``r = 0``,
Wasserstein hypothesis ``eps = 0.5`` and a Gaussian prior.  Instances
alternate between ``l = 0`` (``f = 0``: SPOP takes its pure-trace branch)
and ``l ~ N(0, I)`` (``f > 0``: SPOP runs the penalized search).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("solve-ladder", "sweep-bench3", "mc-eval")
DEFAULT_SEED = 1
EPS = 0.5
MC_SAMPLES = 100_000
SWEEP_EPS_HI, SWEEP_STEPS, SWEEP_RHO = 2.5, 200, 1e-4
EXAMPLE_K, EXAMPLE_N, EXAMPLE_EPS_HI = 2.0, 3, 10.0
EXAMPLE_ARGS = ("example", "--which", "opening", "--k", repr(EXAMPLE_K),
                "--n", str(EXAMPLE_N), "--eps-hi", repr(EXAMPLE_EPS_HI))


def sweep_args(steps: int) -> tuple[str, ...]:
    """The README sweep over eps in [0, SWEEP_EPS_HI] at rho = SWEEP_RHO."""
    return ("--eps-lo", "0", "--eps-hi", repr(SWEEP_EPS_HI), "--steps", str(steps),
            "--rho", repr(SWEEP_RHO))

# the 3-state benchmark game of the README (reduced form, l = 0, r = 0);
# kept here so that the inputs do not depend on the package under test
BENCH3_Q = [
    [31.0, -33.0, 51.0, -5.0, 2.0, -3.0],
    [-33.0, 67.0, -80.0, 4.0, -9.0, 6.0],
    [51.0, -80.0, 112.0, -7.0, 8.0, -11.0],
    [-5.0, 4.0, -7.0, 1.0, 0.0, 0.0],
    [2.0, -9.0, 8.0, 0.0, 2.0, 0.0],
    [-3.0, 6.0, -11.0, 0.0, 0.0, 4.0],
]

# Gaussian-prior constants, derived here independently of the package:
# E|x_1| = sqrt(2/pi), kappa = E|x_1|/sqrt(1 + E|x_1|^2), beta_bar = kappa/(1 + kappa^2)
_E_ABS_X1 = math.sqrt(2.0 / math.pi)
KAPPA = _E_ABS_X1 / math.sqrt(1.0 + _E_ABS_X1 * _E_ABS_X1)
BETA_BAR = KAPPA / (1.0 + KAPPA * KAPPA)


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(raw)`` returns ``(problems, summary, output_bytes)``: the list of
    failed checks (empty when the output is correct), the compact output that
    ``make_reference.py`` records, and the bytes the operation wrote.
    ``cls`` is the class whose time counts in the gated ``class_geomean_s``,
    or None for an operation that is timed and checked but gated in no class.
    """

    label: str
    cls: str | None
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], Any, int]]


# --------------------------------------------------------------------------
# input generation
# --------------------------------------------------------------------------


def seeded_form(seed: int, n: int, index: int, with_l: bool) -> tuple[list, list]:
    rng = np.random.default_rng((seed, n, index))
    a = rng.normal(size=(2 * n, 2 * n))
    q = a @ a.T
    l = rng.normal(size=2 * n) if with_l else np.zeros(2 * n)
    return q.tolist(), l.tolist()


def tracking_q(k: float, n: int) -> list:
    eye = np.eye(n)
    return np.block([[k * k * eye, -k * eye], [-k * eye, eye]]).tolist()


def write_instance(path: Path, n: int, q: list, l: list) -> str:
    doc = {
        "schema_version": "1",
        "n": n,
        "reduced": {"Q": q, "l": l, "r": 0.0},
        "hypothesis": {"wasserstein": {"epsilon": EPS}},
        "prior": {"family": "gaussian", "n": n},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def solve_ladder_instances(seed: int, workdir: Path) -> list[tuple[str, str, int, str]]:
    """(label, size class, n, path) of the solve-ladder instances, in pass order."""
    out = [
        ("bench3", "small", 3, write_instance(workdir / "bench3.json", 3, BENCH3_Q, [0.0] * 6)),
        ("tracking10", "small", 10,
         write_instance(workdir / "tracking10.json", 10, tracking_q(2.0, 10), [0.0] * 20)),
    ]
    for cls, n, count in (("small", 10, 8), ("mid", 30, 4), ("large", 100, 1)):
        for i in range(count):
            with_l = n == 100 or i % 2 == 1
            q, l = seeded_form(seed, n, i, with_l)
            label = f"n{n}-{i}"
            out.append((label, cls, n, write_instance(workdir / f"{label}.json", n, q, l)))
    return out


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def program_objective(name: str, co: dict, p: np.ndarray) -> float:
    """The program's objective at a covariance, from the output's coefficients."""
    d, e = np.asarray(co["D"]), np.asarray(co["E"])
    c, f, lb = co["c"], co["f"], co["lambda_bar"]
    base = float(np.sum(d * p)) + c
    s = math.sqrt(max(f + float(np.sum(e * p)), 0.0))
    if name == "BP":
        return base
    if name == "UOP":
        return base + lb
    if name == "PP":
        return base + lb + s
    if name == "POP":
        return base + (1.0 - BETA_BAR**2) * lb + BETA_BAR * KAPPA * s
    if name == "SPOP":
        if lb <= 1e-14 * (1.0 + abs(lb)):
            return base + KAPPA * s
        zeta = KAPPA * s / lb
        return base + lb * (zeta if zeta >= 2.0 else 1.0 + zeta * zeta / 4.0)
    raise ValueError(name)


def check_solve_record(rec: dict, n: int, ref: dict | None) -> list[str]:
    problems = []
    rho = float(rec["rho"])
    co = rec["coefficients"]
    res = {r["program"]: r for r in rec["results"]}
    if sorted(res) != ["BP", "POP", "PP", "SPOP", "UOP"]:
        return [f"programs {sorted(res)}"]
    val = {k: float(r["value"]) for k, r in res.items()}
    for name, r in res.items():
        v = val[name]
        tol = 1e-9 * (1.0 + abs(v))
        if not math.isfinite(v):
            problems.append(f"{name} value {v}")
            continue
        if not 0.0 <= float(r["rho"]) <= rho:
            problems.append(f"{name} certified rho {r['rho']} > requested {rho}")
        p = np.asarray(r["projection"], dtype=float)
        sigma = np.asarray(r["Sigma"], dtype=float)
        if p.shape != (n, n) or sigma.shape != (n, n):
            problems.append(f"{name} matrix shape {p.shape}")
            continue
        if (np.abs(p - p.T).max() > 1e-9 or np.abs(p @ p - p).max() > 1e-7
                or abs(float(np.trace(p)) - r["rank"]) > 1e-6):
            problems.append(f"{name} projection is not a rank-{r['rank']} projection")
        ws = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        if ws[0] < -1e-8 or ws[-1] > 1.0 + 1e-8:
            problems.append(f"{name} Sigma outside 0 <= Sigma <= I")
        # the returned projection achieves the value within the budget
        obj = program_objective(name, co, p)
        if not v - tol <= obj <= v + rho + tol:
            problems.append(f"{name} objective at projection {obj!r} vs value {v!r}")
        if ref is not None:
            rv, rrank = ref[name][0], ref[name][1]
            if abs(v - rv) > rho + 1e-12 * abs(rv):
                problems.append(f"{name} value {v!r} differs from reference {rv!r} by more than rho")
            if r["rank"] != rrank:
                problems.append(f"{name} rank {r['rank']} != reference {rrank}")
    # orderings that hold for certified values: achieved values lie within
    # rho above their optima, and BP* <= POP* <= SPOP* <= PP*
    if not _close(val["BP"] + co["lambda_bar"], val["UOP"], 1e-12):
        problems.append("UOP != BP + lambda_bar")
    chain = (
        val["BP"] <= val["POP"] + 1e-9 * (1.0 + abs(val["BP"])),
        val["POP"] <= val["SPOP"] + rho,
        val["SPOP"] <= val["PP"] + rho,
    )
    if not all(chain):
        problems.append(f"ordering BP <= POP <= SPOP <= PP violated: {val}")
    return problems


def check_sweep_rows(rows: list[list[float]], ref: list | None) -> list[str]:
    problems = []
    if len(rows) != SWEEP_STEPS:
        return [f"{len(rows)} sweep rows"]
    eps = [r[0] for r in rows]
    if np.max(np.abs(np.asarray(eps) - np.linspace(0.0, SWEEP_EPS_HI, SWEEP_STEPS))) > 1e-12:
        problems.append("epsilon grid differs from the requested linspace")
    ranks = [int(r[6]) for r in rows]
    if ranks[0] != 3 or ranks[-1] != 0 or any(b > a for a, b in zip(ranks, ranks[1:])):
        problems.append(f"rank staircase broken: {ranks[0]}..{ranks[-1]}")
    else:
        first_zero = next(e for e, k in zip(eps, ranks) if k == 0)
        if not 1.55 <= first_zero <= 1.85:
            problems.append(f"rank reaches 0 at eps={first_zero}")
    for e, uop, pop, spop, pp, two_uop, _ in rows:
        if not uop <= pop <= spop <= pp <= two_uop + 2 * SWEEP_RHO:
            problems.append(f"UOP <= POP <= SPOP <= PP <= 2 UOP + 2 rho violated at eps={e}")
            break
        if not _close(two_uop, 2.0 * uop, 1e-15):
            problems.append(f"val_2uop != 2 val_uop at eps={e}")
            break
    if ref is not None:
        for row, rrow in zip(rows, ref):
            if any(abs(a - b) > SWEEP_RHO + 1e-12 * abs(b) for a, b in zip(row[1:6], rrow[1:6])):
                problems.append(f"values differ from reference by more than rho at eps={row[0]}")
                break
            if int(row[6]) != int(rrow[6]):
                problems.append(f"rank {row[6]} != reference {rrow[6]} at eps={row[0]}")
                break
    return problems


def check_mc(est, bounds: tuple[float, float], ref: list | None) -> list[str]:
    """UOP(P) <= mean (each sampled penalty is >= lambda_max) and
    mean <= PP(P) up to sampling error (PP bounds the true cost)."""
    lower, upper = bounds
    mean, stderr = float(est.mean), float(est.stderr)
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0.0):
        return [f"estimate {est}"]
    problems = []
    if est.n_samples != MC_SAMPLES:
        problems.append(f"{est.n_samples} samples")
    if mean < lower - 1e-9 * (1.0 + abs(lower)):
        problems.append(f"mean {mean!r} below UOP objective {lower!r}")
    if mean > upper + 5.0 * stderr:
        problems.append(f"mean {mean!r} above PP objective {upper!r}")
    if ref is not None:
        if abs(mean - ref[0]) > 1e-3 * ref[1]:
            problems.append(f"mean {mean!r} differs from reference {ref[0]!r}")
        if not _close(stderr, ref[1], 1e-6):
            problems.append(f"stderr {stderr!r} differs from reference {ref[1]!r}")
    return problems


def _e_norm_gaussian(n: int) -> float:
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def check_example(stdout: str, table: list, radius: list, ref: dict | None) -> list[str]:
    problems = []
    k, n, gap = EXAMPLE_K, EXAMPLE_N, abs(1.0 - EXAMPLE_K)
    fields = dict(tok.split("=") for tok in stdout.split())
    eps_minus = (2.0 * k - 1.0) * math.sqrt(n) / (2.0 * gap)
    if not _close(float(fields["eps_minus"]), eps_minus, 1e-12):
        problems.append(f"eps_minus {fields['eps_minus']} != {eps_minus!r}")
    if not _close(float(fields["eps_plus_over_eps_minus"]), (4.0 + math.pi) / 2.0, 1e-12):
        problems.append("eps_plus/eps_minus != (4 + pi)/2")
    if len(table) != 61 or len(radius) != 40:
        return problems + [f"{len(table)} table rows, {len(radius)} radius rows"]
    for e, _, _, pp_ni, pp_fi, _, _ in table:
        want_fi = (k - 1.0) ** 2 * n + e * e + 2.0 * e * gap * math.sqrt(n)
        if not (_close(pp_ni, k * k * n + e * e, 1e-12) and _close(pp_fi, want_fi, 1e-12)):
            problems.append(f"PP closed form differs at eps={e}")
            break
    # witness that linear policies are not optimal: a radius-threshold policy
    # beats the best no/full-information policy at the top of the grid
    eps = EXAMPLE_EPS_HI
    best_linear = k * k * n + eps * eps + min(
        0.0, (1.0 - 2.0 * k) * n + 2.0 * eps * gap * _e_norm_gaussian(n))
    best_radius = min(c for _, c in radius)
    if not best_radius < best_linear - 1e-10:
        problems.append(f"radius-threshold cost {best_radius!r} does not beat {best_linear!r}")
    if ref is not None:
        got = [x for row in table + radius for x in row]
        want = [x for row in ref["table"] + ref["radius"] for x in row]
        if len(got) != len(want) or any(not _close(a, b, 1e-12) for a, b in zip(got, want)):
            problems.append("tables differ from reference")
    return problems


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[list[float]], int]:
    raw = path.read_bytes()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))[1:]
    return [[float(x) for x in row] for row in rows], len(raw)


def solve_op(lib, label: str, cls: str, n: int, path: str, out: Path, ref) -> Op:
    argv = ["solve", "--instance", path, "--program", "all", "--out", str(out)]

    def check(rc):
        if rc != 0:
            return [f"exit code {rc}"], None, 0
        raw = out.read_bytes()
        rec = json.loads(raw)
        summary = {r["program"]: [r["value"], r["rank"], r["rho"]] for r in rec["results"]}
        return check_solve_record(rec, n, ref), summary, len(raw)

    return Op(label, cls, lambda: lib.cli.main(argv), check)


def sweep_op(lib, label: str, path: str, out: Path, steps_args, ref) -> Op:
    argv = ["sweep", "--instance", path, *steps_args, "--out", str(out)]

    def check(rc):
        if rc != 0:
            return [f"exit code {rc}"], None, 0
        rows, nbytes = _read_csv(out)
        return check_sweep_rows(rows, ref), rows, nbytes

    return Op(label, "sweep", lambda: lib.cli.main(argv), check)


def mc_op(lib, label: str, path: str, samples: int, seed: int, n_workers: int, ref) -> Op:
    qf, hyp, prior = lib.cli.parse_instance(path)
    dc = lib.instance.derive_coefficients(qf, hyp)
    p = lib.programs.solve_bp(dc).projection
    base = float(np.sum(dc.D * p)) + dc.c + dc.lambda_bar
    bounds = (base, base + math.sqrt(max(dc.f + float(np.sum(dc.E * p)), 0.0)))

    def run():
        return lib.evaluator.mc_true_cost(
            qf, hyp.C, prior, p, n_samples=samples, seed=seed, n_workers=n_workers)

    def check(est):
        return check_mc(est, bounds, ref), [est.mean, est.stderr], 0

    return Op(label, label, run, check)


def example_op(lib, out: Path, ref) -> Op:
    argv = [*EXAMPLE_ARGS, "--out", str(out)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(argv)
        return rc, buf.getvalue()

    def check(raw):
        rc, stdout = raw
        if rc != 0:
            return [f"exit code {rc}"], None, 0
        table, b1 = _read_csv(out)
        radius, b2 = _read_csv(out.with_name(out.stem + "_radius.csv"))
        summary = {"stdout": stdout, "table": table, "radius": radius}
        return check_example(stdout, table, radius, ref), summary, b1 + b2 + len(stdout)

    # about 10 ms, most of it writing two CSV files: as a class of its own it
    # would weigh as much as either Monte-Carlo run and add file-system noise
    return Op("example-opening", None, run, check)


def build(workload: str, seed: int, workdir: Path, lib, refs: dict) -> tuple[list[Op], Op]:
    """Write the workload's inputs under ``workdir``; return (ops, warm-up op).

    ``refs`` is the stored reference document of the workload ({} if none).
    """
    seeded = refs.get("seeds", {}).get(str(seed), {})
    if workload == "solve-ladder":
        ops = [
            solve_op(lib, label, cls, n, path, workdir / f"{label}.out.json", seeded.get(label))
            for label, cls, n, path in solve_ladder_instances(seed, workdir)
        ]
        # the first n=30 solve in a fresh process pays one-time costs
        warm = next(op for op in ops if op.cls == "mid")
        return ops, Op("warm-up", "warm-up", warm.run, warm.check)
    if workload == "sweep-bench3":
        path = write_instance(workdir / "bench3.json", 3, BENCH3_Q, [0.0] * 6)
        op = sweep_op(lib, "sweep-bench3", path, workdir / "sweep.csv",
                      sweep_args(SWEEP_STEPS), refs.get("rows"))
        warm = sweep_op(lib, "warm-up", path, workdir / "warm.csv", sweep_args(10), None)
        return [op], warm
    if workload == "mc-eval":
        p3 = write_instance(workdir / "bench3.json", 3, BENCH3_Q, [0.0] * 6)
        q, l = seeded_form(seed, 30, 0, True)
        p30 = write_instance(workdir / "n30.json", 30, q, l)
        ops = [
            mc_op(lib, "mc-n3", p3, MC_SAMPLES, seed, 1, seeded.get("mc-n3")),
            mc_op(lib, "mc-n30", p30, MC_SAMPLES, seed, 2, seeded.get("mc-n30")),
            example_op(lib, workdir / "opening.csv", refs.get("example")),
        ]
        # the first large evaluation in a process pays one-time allocation costs
        return ops, Op("warm-up", "warm-up", ops[1].run, ops[1].check)
    raise ValueError(f"unknown workload {workload!r}")
