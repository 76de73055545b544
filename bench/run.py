"""l1sos benchmark: run one workload for a time budget and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller issues one operation at a time, with BLAS pinned to
one thread.  A run repeats whole passes over the workload's operations while
the budget lasts, and starts a fresh-process set-up probe before the first
pass and after every few operations, outside the timed operations.
``--trace 0`` makes at least the workload's ``min_passes`` passes and
reports the end-to-end metrics; ``--trace 1`` runs every operation twice per
pass, untraced and traced in alternating order, and reports the per-layer
metrics and the tracing overhead.  Every operation's output is checked.  The last line of stdout is
one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import procs

procs.pin_threads()
if not (procs.SRC / "l1sos" / "__init__.py").is_file():
    sys.exit(f"l1sos sources not found under {procs.SRC}; run from a checkout of the repository")
sys.path.insert(0, str(procs.SRC))

import l1sos  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A set-up probe runs before the first pass and after every PROBE_EVERY-th
# operation, so that the probes sample the whole run, not only its start:
# the machine's speed swings in phases of several seconds.
PROBE_EVERY = 5
# A fixed percentile, so that runs with more or fewer operations compare.
# "The highest percentile with ten samples above it" sits at or below the
# median at the seed's 14-45 operations per run and moves with their count.
# p80 rather than p90: at 30 operations p90 rests on the top three or four,
# which the machine's speed phases of a few seconds move a lot from run to
# run; p80 spreads its weight over about twice as many.
TAIL_PERCENTILE = 80.0
_BETA_GRID = np.linspace(0.0, 1.0, 20001)


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by Beta((n+1)q, (n+1)(1-q)) mass on [(i-1)/n, i/n].

    A run has a few dozen operations of very different sizes; a single order
    statistic jumps between them from run to run, this weighted mean does
    not.  The Beta CDF is integrated numerically; the estimate is good to
    about 1e-5 relative while both Beta parameters are at least 1 (n >= 4
    for q = 0.8), and every timed run has at least 14 operations.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    inner = _BETA_GRID[1:-1]
    log_pdf = (
        (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    pdf = np.concatenate(([0.0], np.exp(log_pdf), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(_BETA_GRID))))
    edges = np.interp(np.arange(n + 1) / n, _BETA_GRID, cdf / cdf[-1])
    return float(np.diff(edges) @ xs)


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``.

    The machine's speed swings in phases of several seconds, so a run's
    set-up probes fall into a fast and a slow group; their median jumps
    between the groups from run to run, this mean does not.
    """
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def machine() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Read from the metadata: importing scipy here would add it to the
        # benchmark process's resident memory.
        "scipy": _version("scipy"),
        "blas": blas,
        **{var: os.environ.get(var) for var in procs.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_op(op) -> tuple:
    """Run one operation; return its key, wall time and verdict."""
    start = time.perf_counter()
    try:
        out = op.run()
        verdict = None
    except Exception as exc:  # every failure is a counted outcome
        verdict = workloads.Verdict(type(exc).__name__, str(exc)[:200])
    elapsed = time.perf_counter() - start
    if verdict is None:
        verdict = op.check(out)
    return op.key, elapsed, verdict


@contextlib.contextmanager
def tracing(wl, tracer):
    """Trace the operation run inside: wrap the library in-process, or have
    the CLI workload start its processes traced."""
    tracer.op += 1
    if wl.in_process:
        tracer.install()
    wl.state["tracer"] = tracer
    try:
        yield
    finally:
        wl.state["tracer"] = None
        tracer.uninstall()


class Prober:
    """The run's set-up probes: one at once, then one after every
    ``PROBE_EVERY``-th operation of the run."""

    def __init__(self, probe):
        self.probe = probe
        self.results = [probe()]
        self.ops = 0

    def tick(self) -> float:
        """Count one operation; return the time spent probing after it."""
        self.ops += 1
        if self.ops % PROBE_EVERY:
            return 0.0
        t0 = time.perf_counter()
        self.results.append(self.probe())
        return time.perf_counter() - t0


def run_pass(wl, index: int, prober: Prober, tracer=None) -> dict:
    """Pass ``index`` over the workload's operations; each is timed and checked.

    With a tracer, each operation runs twice in a row, untraced and traced,
    the traced one second on even and first on odd positions; the pass's
    ``untraced_s`` and ``traced_s`` sum the two kinds' operation times, so
    their difference is paired and the machine's drift cancels.  The
    set-up probes' time is left out of ``wall_s``.
    """
    samples = []
    sums = {False: 0.0, True: 0.0}
    pair_diffs = []
    probe_s = 0.0
    t0 = time.perf_counter()
    for i, op in enumerate(wl.op_sets[index % len(wl.op_sets)]):
        if tracer is None:
            samples.append(run_op(op))
        else:
            pair = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                with tracing(wl, tracer) if traced else contextlib.nullcontext():
                    sample = run_op(op)
                pair[traced] = sample[1]
                samples.append(sample)
            sums[False] += pair[False]
            sums[True] += pair[True]
            pair_diffs.append(pair[True] - pair[False])
        probe_s += prober.tick()
    return {
        "wall_s": time.perf_counter() - t0 - probe_s,
        "samples": samples,
        "untraced_s": sums[False],
        "traced_s": sums[True],
        "pair_diffs": pair_diffs,
    }


def run_passes(wl, budget: float, min_passes: int, prober: Prober, tracer=None) -> list[dict]:
    """``min_passes`` whole passes, then more while the next one is expected
    to end within ``budget`` seconds of pass time."""
    passes = [run_pass(wl, i, prober, tracer) for i in range(min_passes)]
    walls = [p["wall_s"] for p in passes]
    while sum(walls) + statistics.median(walls) <= budget:
        passes.append(run_pass(wl, len(passes), prober, tracer))
        walls.append(passes[-1]["wall_s"])
    return passes


def outcomes(wl, passes: list[dict]) -> dict:
    attempted = failed = new = 0
    failures: dict[tuple, dict] = {}
    for p in passes:
        for key, _, verdict in p["samples"]:
            attempted += 1
            if verdict.ok:
                continue
            failed += 1
            known = wl.is_known(key, verdict)
            new += not known
            entry = failures.setdefault(
                (key, verdict.kind),
                {"op": key, "kind": verdict.kind, "seed_defect": known, "count": 0, "detail": verdict.detail},
            )
            entry["count"] += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": new == 0,
        "failures": sorted(failures.values(), key=lambda e: e["op"]),
    }


def end_to_end(wl, passes: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    times = [t for p in passes for _, t, _ in p["samples"]]
    tail_value = hd_quantile(times, TAIL_PERCENTILE / 100.0)
    ok = sum(v.ok for p in passes for _, _, v in p["samples"])
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(wl.state["rss_mb"])
    metrics = {
        "workload_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_s.p50": (hd_quantile(times, 0.5), "s"),
        "op_s.tail": (tail_value, "s"),
        "ok_share": (ok / len(times), "share"),
        "setup_s": (interquartile_mean(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "passes": len(passes),
        "op_samples": len(times),
        "tail_percentile": TAIL_PERCENTILE,
        "samples_above_tail": sum(t > tail_value for t in times),
        "setup_probes_s": [p["setup_s"] for p in probes],
        "pass_s": [p["wall_s"] for p in passes],
        "op_s": [[[key, t] for key, t, _ in p["samples"]] for p in passes],
    }
    return metrics, extra


def per_layer(wl, passes: list[dict], tracer, probes) -> tuple[dict, dict]:
    layers = spans.layer_metrics(tracer.spans, len(passes))
    if wl.in_process:
        # No CLI process runs in the pass; the process start-up these layers
        # cost is the set-up probes'.
        layers["cli.interp_s"] = interquartile_mean(p["interp_s"] for p in probes)
        layers["cli.import_s"] = interquartile_mean(p["import_s"] for p in probes)
    layers["trace.overhead_s"] = statistics.median(p["traced_s"] - p["untraced_s"] for p in passes)
    metrics = {name: (layers[name], unit) for name, unit in spans.LAYER_UNITS.items()}
    diffs = [d for p in passes for d in p["pair_diffs"]]
    extra = {
        "passes": len(passes),
        # Standard error of the mean per-pass overhead, from the spread of
        # the per-operation paired differences.
        "overhead_stderr_s": statistics.stdev(diffs) * math.sqrt(len(diffs)) / len(passes),
        "untraced_workload_s": statistics.median(p["untraced_s"] for p in passes),
        "traced_workload_s": statistics.median(p["traced_s"] for p in passes),
    }
    return metrics, extra


def report(workload: str, seed: int, trace: int, metrics: dict, extra: dict, result: dict) -> None:
    print(f"l1sos benchmark  workload={workload}  seed={seed}  trace={trace}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_s.tail":
            note = (
                f"  (p{TAIL_PERCENTILE:g} of n={extra['op_samples']} operations, "
                f"{extra['samples_above_tail']} above it)"
            )
        elif name == "trace.overhead_s":
            note = f"  (standard error {extra['overhead_stderr_s']:.2g} s)"
        print(f"  {name:<32} {value:>14.6g} {unit}{note}")
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for f in result["failures"]:
        tag = "seed defect" if f["seed_defect"] else "NEW"
        print(f"    {tag}: {f['op']}: {f['kind']} x{f['count']} {f['detail'][:100]}")
    detail = {"extra": extra, "failures": result["failures"], "machine": machine()}
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = procs.ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    probe_dir = workdir / "probe"
    probe_dir.mkdir(parents=True)
    try:
        prober = Prober(lambda: procs.probe_setup(args.workload, args.seed, probe_dir))
        wl = workloads.build(args.workload, args.seed, workdir)
        if wl.in_process:
            # Warm-up outside the timed passes: first-call costs in numpy and
            # LAPACK are paid once per process, not once per operation.
            workloads._approx_and_verify(l1sos.motzkin_like(), 3)
        if args.trace:
            tracer = spans.Tracer()
            passes = run_passes(wl, args.seconds, 1, prober, tracer)
            result = outcomes(wl, passes)
            metrics, extra = per_layer(wl, passes, tracer, prober.results)
        else:
            passes = run_passes(wl, args.seconds, wl.min_passes, prober)
            result = outcomes(wl, passes)
            metrics, extra = end_to_end(wl, passes, prober.results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(args.workload, args.seed, args.trace, metrics, extra, result)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
