"""Child-process entry points of the benchmark.

``child.py setup WORKLOAD SEED DIR`` imports l1sos and builds the workload's
inputs, then prints its timestamps as one JSON line.  ``child.py cli SPANS
ARGS...`` runs the ``l1sos`` command line with tracing on and writes the
spans to SPANS.  Both read the parent's spawn time from ``BENCH_SPAWN_T``;
``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
two processes' readings compare.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()


def setup(workload: str, seed: str, workdir: str) -> None:
    if workload == "cli-table1":
        import l1sos.cli  # noqa: F401
    else:
        import l1sos  # noqa: F401
    t_imported = time.perf_counter()
    from pathlib import Path

    import workloads

    workloads.make_inputs(workload, int(seed), Path(workdir))
    marks = {
        "t_spawn": float(os.environ["BENCH_SPAWN_T"]),
        "t_start": T_START,
        "t_imported": t_imported,
        "t_ready": time.perf_counter(),
    }
    print(json.dumps(marks))


def cli(spans_path: str, args: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.record("cli.interp", float(os.environ["BENCH_SPAWN_T"]), T_START)
    t0 = time.perf_counter()
    import l1sos.cli

    tracer.record("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        return l1sos.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
