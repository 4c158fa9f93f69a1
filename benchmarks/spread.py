"""Run workloads on several seeds and report each metric's quartile spread.

    python3 benchmarks/spread.py --workload W [W ...] --seeds 1-10 [--trace 0|1] \
        [--out DIR]

Seeds form the outer loop and workloads the inner one, so that the runs of
each workload are spread over the whole measurement, as when runs of several
commits and workloads alternate.  The spread of a metric is
(Q3 - Q1)/median of its values over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; it is compared with the metric's
bound in BENCHMARK.json.  Each run lasts BENCHMARK.json's ``run_seconds``.
``--out`` writes every run's result and environment line as
``DIR/<workload>.json`` (the files under ``baseline/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict, trace: int) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        if bound is not None or not trace:
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {name:<16} median {med:.6g} spread {spread:.4f}{flag}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            run = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(run)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if k in bounds or args.trace), flush=True)

    for workload, wruns in runs.items():
        print(workload)
        summary = summarize(wruns, bounds, args.trace)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{workload}.json").write_text(json.dumps(
                {"workload": workload, "seconds": seconds, "trace": args.trace,
                 "summary": summary, "runs": wruns}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
