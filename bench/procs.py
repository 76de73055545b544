"""Child processes: the environment they run in, and how they are waited for.

Every child gets BLAS pinned to one thread and ``src/`` of this checkout on
its path.  Children write stdout and stderr to files and are reaped with
``os.wait4``, which gives each one's own peak resident memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What the ``l1sos`` console script runs.
CLI_ENTRY = "import sys; from l1sos.cli import main; sys.exit(main())"


def pin_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ProcResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], workdir: Path, env: dict[str, str]) -> ProcResult:
    """Run ``argv`` to completion in ``workdir``; time it from spawn to exit."""
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        env = dict(env, BENCH_SPAWN_T=repr(t0))
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def cli_argv(args: list[str], traced: bool, spans_path: Path) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_path), *args]
    return [sys.executable, "-c", CLI_ENTRY, *args]


def probe_setup(workload: str, seed: int, workdir: Path) -> dict:
    """Start a fresh process that imports l1sos and builds the workload's
    inputs; return its timings, with ``setup_s`` from spawn to ready."""
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload, str(seed), str(workdir)]
    res = run_child(argv, workdir, child_env())
    if res.returncode != 0:
        raise RuntimeError(
            f"set-up probe exited with {res.returncode}: {res.stderr.decode(errors='replace')}"
        )
    marks = json.loads(res.stdout.decode().strip().splitlines()[-1])
    return {
        "setup_s": marks["t_ready"] - marks["t_spawn"],
        "interp_s": marks["t_start"] - marks["t_spawn"],
        "import_s": marks["t_imported"] - marks["t_start"],
    }
