"""The benchmark's own tests.

    python3 benchmarks/selfcheck.py

1. Monte Carlo is bit-identical for ``n_workers`` 1 and 2 at the mc-eval size.
2. The output checks catch a wrong value, a wrong rank and a shifted mean.
3. The per-operation time cap turns an over-long operation into a counted
   timeout instead of a hang.
4. Two traced runs of the same seed report identical deterministic counters.
5. Without the package source the runner exits non-zero and prints no result.

Not named ``test_*.py`` on purpose: the package's test suite does not run it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from lqpersuasion import cli, evaluator, instance, programs  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = SimpleNamespace(cli=cli, evaluator=evaluator, instance=instance, programs=programs)
SEED = workloads.DEFAULT_SEED


def check_mc_workers(workdir: Path) -> None:
    q, l = workloads.seeded_form(SEED, 30, 0, True)
    qf, hyp, prior = cli.parse_instance(workloads.write_instance(workdir / "n30.json", 30, q, l))
    p = programs.solve_bp(instance.derive_coefficients(qf, hyp)).projection
    est = [evaluator.mc_true_cost(qf, hyp.C, prior, p, workloads.MC_SAMPLES, SEED, n_workers=w)
           for w in (1, 2)]
    assert est[0] == est[1], f"n_workers 1 and 2 differ: {est}"


def check_checks_catch_errors(workdir: Path) -> None:
    ops, _ = workloads.build("solve-ladder", SEED, workdir, LIB, {})
    op = ops[0]
    problems, summary, _ = op.check(op.run())
    assert not problems, problems
    rec = json.loads((workdir / f"{op.label}.out.json").read_text())
    ref = copy.deepcopy(summary)
    ref["PP"][0] += 2.0 * rec["rho"]
    assert any("PP value" in p for p in workloads.check_solve_record(rec, 3, ref))
    ref = copy.deepcopy(summary)
    ref["POP"][1] += 1
    assert any("POP rank" in p for p in workloads.check_solve_record(rec, 3, ref))
    bad = copy.deepcopy(rec)
    bad["results"][1]["value"] -= 1e-3  # PP below what its projection achieves
    assert workloads.check_solve_record(bad, 3, None)

    mc_ops, _ = workloads.build("mc-eval", SEED, workdir, LIB, {})
    est = mc_ops[0].run()
    shifted = [est.mean + 0.01 * est.stderr, est.stderr]
    assert not workloads.check_mc(est, (-1e300, 1e300), [est.mean, est.stderr])
    assert workloads.check_mc(est, (-1e300, 1e300), shifted)


def check_time_cap() -> None:
    cap = run.OP_CAP_S
    run.OP_CAP_S = 1.0  # the 200-point sweep takes several seconds
    try:
        rec = run.run_workload("sweep-bench3", SEED, 1.0, trace=False)
    finally:
        run.OP_CAP_S = cap
    assert [op["error"] for op in rec["ops"]] == ["timed out"], rec["ops"]


def check_trace_repeats() -> None:
    for workload in workloads.WORKLOADS:
        counters = []
        for _ in range(2):
            rec = run.run_workload(workload, SEED, 1.0, trace=True)
            assert all(op["ok"] for op in rec["ops"]), rec["ops"]
            assert not rec["end"]["busy_missing"], rec["end"]["busy_missing"]
            layers = rec["end"]["layers"]
            counters.append({k: layers[k][0] for k in tracing.DETERMINISTIC})
        assert counters[0] == counters[1], (workload, counters)


def check_bare_checkout() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-eval", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workdir = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = [("mc bit-identical across n_workers", lambda: check_mc_workers(workdir)),
              ("checks catch wrong outputs", lambda: check_checks_catch_errors(workdir)),
              ("per-operation time cap", check_time_cap),
              ("traced counters repeat", check_trace_repeats),
              ("no result without the package", check_bare_checkout)]
    try:
        for name, fn in checks:
            fn()
            print(f"ok   {name}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
