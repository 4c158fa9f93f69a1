"""Record the package's outputs as the benchmark's reference outputs.

    python3 benchmarks/make_reference.py

Runs every operation of each workload once per seed of ``SEEDS`` (0-31),
in this process with BLAS limited to one thread, requires the internal
checks to pass, and writes ``reference/<workload>.json``.  The sweep and the example tables do not
depend on the seed and are stored once.  Re-recording is a benchmark change:
it belongs in a change that alters no package code.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from lqpersuasion import cli, evaluator, instance, programs  # noqa: E402

import workloads  # noqa: E402
from worker import environment  # noqa: E402

SEEDS = range(32)
LIB = SimpleNamespace(cli=cli, evaluator=evaluator, instance=instance, programs=programs)


def record(workload: str, seed: int, workdir: Path) -> dict[str, object]:
    ops, _ = workloads.build(workload, seed, workdir, LIB, {})
    out = {}
    for op in ops:
        problems, summary, _ = op.check(op.run())
        if problems:
            raise SystemExit(f"{workload} seed {seed} {op.label}: {problems}")
        out[op.label] = summary
    return out


def main() -> int:
    workdir = HERE.parent / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (HERE / "reference").mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            doc: dict = {"env": environment()}
            if workload == "sweep-bench3":
                doc["rows"] = record(workload, workloads.DEFAULT_SEED, workdir)["sweep-bench3"]
            else:
                doc["seeds"] = {}
                for seed in SEEDS:
                    rec = record(workload, seed, workdir)
                    if workload == "mc-eval":
                        doc["example"] = rec.pop("example-opening")
                    doc["seeds"][str(seed)] = rec
                    print(f"{workload} seed {seed} recorded", flush=True)
            path = HERE / "reference" / f"{workload}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
