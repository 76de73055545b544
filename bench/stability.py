"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/stability.py [--workloads a,b] [--seeds 1-10] [--trace-seed N] [--out PATH]

For each workload, runs ``bench/run.py`` once per seed with the run length
from BENCHMARK.json and reports, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, against the metric's bound.  With ``--trace-seed`` it adds one
traced run per workload.  ``--out`` writes everything, with the machine
description and the failures seen, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    detail["extra"]["run_s"] = time.perf_counter() - t0
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in parse_seeds(args.seeds)]
        op_times: dict[str, list[float]] = {}
        for _, detail in runs:
            for pass_ops in detail["extra"].pop("op_s"):
                for key, t in pass_ops:
                    op_times.setdefault(key, []).append(t)
        entry: dict = {
            "correct": [r["correct"] for r, _ in runs],
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "failures": runs[0][1]["failures"],
            "extra": [d["extra"] for _, d in runs],
            "op_median_s": {k: statistics.median(v) for k, v in sorted(op_times.items())},
            "metrics": {},
        }
        summary["machine"] = runs[0][1]["machine"]
        run_s = [d["extra"]["run_s"] for _, d in runs]
        print(f"{workload}: correct={all(entry['correct'])} failed={entry['failed']} "
              f"run_s median={statistics.median(run_s):.1f} max={max(run_s):.1f}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r, _ in runs])
            stats["unit"] = runs[0][0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["metrics"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            steady &= flag == "ok"
            print(f"  {name:<14} median={stats['median']:<12.6g} {stats['unit']:<6} "
                  f"spread={stats['spread']:.4f}  bound/3={bound / 3:.4f}  {flag}")
        if args.trace_seed is not None:
            traced, detail = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed, "metrics": traced["metrics"], "extra": detail["extra"]}
            print(f"  trace.overhead_s={traced['metrics']['trace.overhead_s']['value']:.4g} s "
                  f"(standard error {detail['extra']['overhead_stderr_s']:.2g} s)")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
