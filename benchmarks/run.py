"""Benchmark of the lqpersuasion package: end-to-end run and traced per-layer run.

    python3 benchmarks/run.py --workload {solve-ladder,sweep-bench3,mc-eval,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a checkout that holds ``src/lqpersuasion``.  Each
run starts fresh interpreters (``worker.py``) with BLAS limited to one
thread.  Set-up is measured ``SETUPS`` times, each in a new interpreter;
the last one then serves as the single closed-loop caller.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it name every metric with its unit, including the workload-specific ones
of README.md, the sample count and median (and upper percentile, where at
least ten samples lie above it) of every timing, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, MC_SAMPLES, WORKLOADS  # noqa: E402

SETUPS = 3
OP_CAP_S = 60.0  # an operation running longer is killed and counted as a timeout
RUN_CAP_S = 170.0  # whole run, set-up included


class BenchError(Exception):
    """The benchmark cannot produce a result (missing package, set-up failure)."""


class Worker:
    """A worker process and a line reader over its event stream."""

    def __init__(self, argv: list[str], env: dict, stderr_path: Path):
        self.stderr_path = stderr_path
        self._err = open(stderr_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._err,
                                     env=env, cwd=ROOT)
        self._buf = b""

    def next_event(self, deadline: float) -> dict | None:
        """The next event, or None on timeout or if the worker exited."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._err.close()

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_time_us(stderr_text: str, module: str) -> float | None:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == module:
            return float(m.group(1))
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the raw record that ``report`` turns into metrics."""
    run_deadline = time.perf_counter() + RUN_CAP_S
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--workdir", str(workdir), "--src", str(ROOT / "src")]
    if trace:
        base.append("--trace")
    env = worker_env()
    setups, ops, worker = [], [], None
    try:
        n_setups = 1 if trace else SETUPS
        for k in range(n_setups):
            last = k == n_setups - 1
            t0 = time.perf_counter()
            worker = Worker(base + ([] if last else ["--setup-only"]), env,
                            workdir / f"worker{k}.err")
            ready = worker.next_event(run_deadline)
            if ready is None or ready.get("event") != "ready":
                raise BenchError(f"worker set-up failed:\n{worker.stderr_tail()}")
            setups.append(time.perf_counter() - t0)
            if not last:
                worker.stop()
        end = None
        while end is None:
            event = worker.next_event(run_deadline)
            if event is None:
                break
            if event["event"] == "start":
                deadline = min(time.perf_counter() + OP_CAP_S, run_deadline)
                done = worker.next_event(deadline)
                if done is None:
                    cause = "timed out" if worker.proc.poll() is None else "worker exited"
                    ops.append(dict(label=event["label"], cls=event["cls"], wall_s=None, ok=False,
                                    error=cause, problems=[], output_bytes=0))
                    break
                ops.append(done)
            elif event["event"] == "end":
                end = event
        worker.stop()
        if not ops:
            raise BenchError(f"no operation completed:\n{worker.stderr_tail()}")
        importtime = None
        if trace:
            importtime = import_time_us(worker.stderr_path.read_text(errors="replace"),
                                        "scipy.integrate")
        return {"workload": workload, "seed": seed, "setups": setups, "ready": ready,
                "ops": ops, "end": end, "importtime_us": importtime}
    finally:
        if worker is not None:
            worker.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _walls_by_label(ops: list[dict]) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for op in ops:
        if op["ok"]:
            walls.setdefault(op["label"], []).append(op["wall_s"])
    return walls


def class_times(ops: list[dict]) -> dict[str, float]:
    """Per operation class, the sum over its operations of each one's median wall time."""
    medians = {label: statistics.median(w) for label, w in _walls_by_label(ops).items()}
    times: dict[str, float] = {}
    for label, cls in dict((op["label"], op["cls"]) for op in ops).items():
        if cls is not None:
            times[cls] = times.get(cls, 0.0) + medians.get(label, 0.0)
    return times


def end_to_end(rec: dict) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json end-to-end metrics, defined alike on every workload."""
    ok_walls = [op["wall_s"] for op in rec["ops"] if op["ok"]]
    times = list(class_times(rec["ops"]).values())
    return {
        "setup_s": (statistics.median(rec["setups"]), "s"),
        # every class weighs alike, so a slower small class shows next to n=100
        "class_geomean_s": (math.prod(times) ** (1.0 / len(times)), "s"),
        "op_p50_ms": (statistics.median(ok_walls) * 1e3 if ok_walls else 0.0, "ms"),
        # a worker killed at the time cap reports no memory; the run has failed then
        "peak_rss_mb": (rec["end"]["maxrss_kb"] / 1024.0 if rec["end"] else 0.0, "MB"),
    }


def workload_specific(rec: dict) -> dict[str, tuple[float, str]]:
    """The named metrics of README.md that only one workload defines."""
    times = class_times(rec["ops"])
    if rec["workload"] == "solve-ladder":
        return {f"solve_{cls}_s": (times[cls], "s") for cls in ("small", "mid", "large")}
    if rec["workload"] == "sweep-bench3":
        return {"sweep_s": (times["sweep"], "s")}
    m = {}
    for cls in ("mc-n3", "mc-n30"):
        m[cls.replace("-", "_") + "_samples_per_s"] = (
            MC_SAMPLES / times[cls] if times[cls] else 0.0, "1/s")
    walls = _walls_by_label(rec["ops"]).get("example-opening")
    m["example_s"] = (statistics.median(walls) if walls else 0.0, "s")
    return m


def upper_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def timing_line(name: str, values: list[float]) -> str:
    line = f"  {name:<22} n={len(values):<4} p50={statistics.median(values):.6g} s"
    upper = upper_percentile(values)
    if upper is not None:
        line += f" p{upper[0]}={upper[1]:.6g} s"
    return line


def per_layer(rec: dict) -> dict[str, tuple[float, str]]:
    end = rec["end"]
    m = {name: (v, unit) for name, (v, unit) in end["layers"].items()}
    m["setup.import_s"] = (rec["ready"]["import_s"], "s")
    us = rec["importtime_us"]
    m["setup.import_scipy_integrate_s"] = (us / 1e6 if us is not None else 0.0, "s")
    m["setup.warmup_s"] = (rec["ready"]["warmup_s"], "s")
    return m


def report(rec: dict, trace: bool) -> tuple[dict, int, int]:
    """Print the human-readable block; return (metrics, attempted, failed)."""
    ops = rec["ops"]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    print(f"# workload {rec['workload']} seed {rec['seed']} trace {int(trace)}")
    env = dict(rec["ready"]["env"], nproc=os.cpu_count(), cpu=cpu_model())
    print("env " + json.dumps(env, sort_keys=True))
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['label']}: {op['error'] or '; '.join(op['problems'])}")
    if trace:
        end = rec["end"]
        if end is None:
            raise BenchError("traced worker ended without a result")
        if end["absent"]:
            print("absent (no longer in the package): " + ", ".join(end["absent"]))
        if end["unobserved"]:
            print("unobserved (signature changed): " + ", ".join(end["unobserved"]))
        if end["busy_missing"]:
            raise BenchError("busy layers recorded no calls: " + ", ".join(end["busy_missing"]))
        if end["mismatched"]:
            raise BenchError("deterministic counters differ between traced passes: "
                             + ", ".join(end["mismatched"]))
        metrics = shown = per_layer(rec)
    else:
        metrics = end_to_end(rec)
        shown = dict(metrics, **workload_specific(rec), fail_rate=(failed / attempted, "ratio"))
        by_label = _walls_by_label(ops)
        passes = min(map(len, by_label.values()), default=0)
        print(f"samples (successful operations, wall time; {passes} full passes):")
        print(timing_line("set-up", rec["setups"]))
        print(timing_line("any operation", [op["wall_s"] for op in ops if op["ok"]]))
        for label, walls in by_label.items():
            print(timing_line(label, walls))
    for name, (value, unit) in shown.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not (ROOT / "src" / "lqpersuasion" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lqpersuasion'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(rec, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics, attempted, failed = results[names[0]]
    else:
        metrics = {f"{w}/{k}": v for w, (m, _, _) in results.items() for k, v in m.items()}
        attempted = sum(a for _, a, _ in results.values())
        failed = sum(f for _, _, f in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
