"""Closed-loop caller: one fresh interpreter, one operation at a time.

Started by ``run.py``, which reads the JSON-line events this process writes
to its standard output and enforces the per-operation time cap.  Set-up
(import, input generation, one untimed warm-up operation) ends with a
``ready`` event.  The untraced run then issues operations until one full
pass is done and ``--seconds`` have passed.  The traced run makes one
untraced pass, then traced passes until ``--seconds`` have passed, and
reports per-layer metrics.

    python3 benchmarks/worker.py --workload W --seed N --seconds S \
        --workdir DIR --src SRC [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

OUT = sys.stdout


def emit(**event) -> None:
    OUT.write(json.dumps(event) + "\n")
    OUT.flush()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(op, tracer=None) -> dict:
    """Time one operation, then check its output outside the timed region."""
    emit(event="start", label=op.label, cls=op.cls)
    error, problems, nbytes = None, [], 0
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.on = True
        raw = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.on = False
    wall = time.perf_counter() - t0
    if error is None:
        try:
            problems, _, nbytes = op.check(raw)
        except Exception as exc:  # malformed output is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    event = dict(event="op", label=op.label, cls=op.cls, wall_s=wall,
                 ok=error is None and not problems, error=error,
                 problems=problems[:5], output_bytes=nbytes)
    emit(**event)
    return event


def measure(ops, seconds: float) -> None:
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        run_op(ops[i % len(ops)])
        i += 1


def measure_traced(ops, seconds: float, workload: str) -> dict:
    import tracing

    start = time.perf_counter()
    untraced = sum(run_op(op)["wall_s"] for op in ops)
    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        while not passes or time.perf_counter() - start < seconds:
            tracer.reset()
            events = [run_op(op, tracer) for op in ops]
            wall = sum(e["wall_s"] for e in events)
            passes.append((wall, tracer.metrics(sum(e["output_bytes"] for e in events))))
            if len(passes) == 1:
                busy_missing = tracer.missing_busy(workload)
    finally:
        tracer.uninstall()
    first = passes[0][1]
    mismatched = sorted({k for _, m in passes[1:] for k in tracing.DETERMINISTIC
                         if m[k][0] != first[k][0]})
    layers = {}
    for name, (value, unit) in first.items():
        if name not in tracing.DETERMINISTIC:
            value = statistics.median(m[name][0] for _, m in passes)
        layers[name] = [value, unit]
    ratio = statistics.median(w for w, _ in passes) / untraced
    layers["trace.overhead_ratio"] = [ratio, "ratio"]
    return {"layers": layers, "absent": tracer.absent, "unobserved": sorted(tracer.unobserved),
            "busy_missing": busy_missing, "mismatched": mismatched}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t = time.perf_counter()
    import lqpersuasion
    import_s = time.perf_counter() - t
    src = Path(args.src).resolve()
    if Path(lqpersuasion.__file__).resolve().parent.parent != src:
        print(f"lqpersuasion was imported from {lqpersuasion.__file__}, not {src}", file=sys.stderr)
        return 2
    from lqpersuasion import cli, evaluator, instance, programs

    import workloads

    lib = SimpleNamespace(cli=cli, evaluator=evaluator, instance=instance, programs=programs)
    ref_path = Path(__file__).resolve().parent / "reference" / f"{args.workload}.json"
    refs = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    t = time.perf_counter()
    ops, warm = workloads.build(args.workload, args.seed, workdir, lib, refs)
    gen_s = time.perf_counter() - t
    t = time.perf_counter()
    try:
        warm.run()
    except Exception as exc:  # the measured copies of this operation will fail and count
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    warmup_s = time.perf_counter() - t
    emit(event="ready", import_s=import_s, gen_s=gen_s, warmup_s=warmup_s, env=environment())
    if args.setup_only:
        return 0

    extra = {}
    if args.trace:
        extra = measure_traced(ops, args.seconds, args.workload)
    else:
        measure(ops, args.seconds)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(event="end", maxrss_kb=maxrss_kb, **extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
