"""Fingerprint of a checkout: code size, CLI output and solver iterates.

Run from any directory, with no flags:

    python3 tools/fingerprint.py > fingerprint.txt

and compare the files of two checkouts with ``diff``.  Every line is one
fact:

- ``lines <module> <n>``: code lines of each module of ``src/l1sos``, that
  is non-blank lines that are neither comments nor inside a docstring, and
  ``lines total <n>``.
- ``cli seed=<s> <command> <sha256>``: the SHA-256 of stdout, stderr and
  exit code of each ``cli-table1`` benchmark command, on the inputs that
  ``bench/workloads.make_inputs`` writes for seeds 1-3.
- ``zero n=<n> d=<d> <command> <sha256>``: the same for approx, baseline
  and check-sos with JSON output on a file that holds only the header
  ``n <n>``, the zero polynomial, at (n, d) = (2, 1) and (3, 2).
- ``solve <operation> #<k> <status> <stop> iterations=<n> <sha256>``: every
  conic solve of the Motzkin-like ladder (d = 3..11, approx and is_sos), of
  the c-sweep (c * Motzkin-like for c = 1e-8 .. 1e6 and d = 3..7, approx,
  baseline and is_sos) and of the three ``random-dense`` seed-1 instance
  sets (approx, baseline and is_sos), with the SHA-256 of its final primal,
  dual and slack.

The tool exits 1, after printing everything, if a ``cli`` command's output
fails the benchmark's own check or a ``zero`` command exits nonzero; each
such run is named on stderr.  Run it with ``PYTHONWARNINGS=error::RuntimeWarning``
to make a warning in a CLI process such a failure.  BLAS is pinned to one
thread, here and in the CLI processes, so the iterates do not depend on the
thread count.  The benchmark's modules are only imported; nothing under
``bench/`` is written.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import l1sos  # noqa: E402
from l1sos import approx  # noqa: E402

import procs  # noqa: E402
import workloads  # noqa: E402

CLI_SEEDS = (1, 2, 3)
ZERO_CASES = ((2, 1), (3, 2))
C_SWEEP = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6)
C_SWEEP_DEGREES = range(3, 8)


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def print_lines() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "l1sos").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"lines {path.name} {n}")
    print(f"lines total {total}")


def run_digest(res) -> str:
    return digest(res.stdout, res.stderr, str(res.returncode).encode())


def print_cli() -> int:
    """Print the ``cli`` rows; return how many runs failed their check."""
    failed = 0
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            wl = workloads.cli_table1(workloads.make_inputs("cli-table1", seed, workdir), workdir)
            for op in sorted(wl.op_sets[0], key=lambda op: op.key):
                res = op.run()
                key = op.key.replace(" ", "-")
                print(f"cli seed={seed} {key} {run_digest(res)}")
                verdict = op.check(res)
                if verdict.kind != "ok":
                    failed += 1
                    print(f"cli seed={seed} {key} failed: {verdict.kind} {verdict.detail!r}",
                          file=sys.stderr)
    return failed


def print_zero() -> int:
    """Print the ``zero`` rows; return how many runs exited nonzero."""
    failed = 0
    env = procs.child_env()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for n, d in ZERO_CASES:
            path = workdir / f"zero{n}.txt"
            path.write_text(f"n {n}\n")
            for command in ("approx", "baseline", "check-sos"):
                args = [command, "--input", str(path), "--degree", str(d), "--format", "json"]
                res = procs.run_child(procs.cli_argv(args, False, workdir), workdir, env)
                print(f"zero n={n} d={d} {command} {run_digest(res)}")
                if res.returncode != 0:
                    failed += 1
                    print(f"zero n={n} d={d} {command} failed: exit {res.returncode}",
                          file=sys.stderr)
    return failed


def print_solves() -> None:
    solve = approx.solve
    label, count = "", 0

    def recorded(*args, **kwargs):
        nonlocal count
        sol = solve(*args, **kwargs)
        arrays = [*sol.primal, sol.dual, *sol.slack]
        h = digest(*(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays))
        print(f"solve {label} #{count} {sol.status.value} {sol.stop_reason.value} "
              f"iterations={sol.iterations} {h}")
        count += 1
        return sol

    def run(name, call):
        nonlocal label, count
        label, count = name.replace(" ", "-"), 0
        try:
            call()
        except l1sos.SolverFailure:
            print(f"solve {label} raised SolverFailure")

    approx.solve = recorded
    try:
        f = l1sos.motzkin_like()
        for d in workloads.MOTZKIN_DEGREES:
            run(f"ladder approx d={d}", lambda d=d: l1sos.best_l1_sos_approximation(f, d))
            run(f"ladder is_sos d={d}", lambda d=d: l1sos.is_sos(f, d))
        for c in C_SWEEP:
            for d in C_SWEEP_DEGREES:
                tag, cf = f"c-sweep c={c:g} d={d}", c * f
                run(f"{tag} approx", lambda cf=cf, d=d: l1sos.best_l1_sos_approximation(cf, d))
                run(f"{tag} baseline", lambda cf=cf, d=d: l1sos.uniform_sos_perturbation(cf, d))
                run(f"{tag} is_sos", lambda cf=cf, d=d: l1sos.is_sos(cf, d))
        with tempfile.TemporaryDirectory() as tmp:
            sets = workloads.make_inputs("random-dense", 1, Path(tmp))["instance_sets"]
        for s, instances in enumerate(sets):
            for k, (n, d, f, g) in enumerate(instances):
                tag = f"random-dense set={s} n={n} d={d} #{k}"
                run(f"{tag} approx", lambda f=f, d=d: l1sos.best_l1_sos_approximation(f, d))
                run(f"{tag} baseline", lambda f=f, d=d: l1sos.uniform_sos_perturbation(f, d))
                run(f"{tag} is_sos", lambda g=g, d=d: l1sos.is_sos(g, d))
    finally:
        approx.solve = solve


def main() -> int:
    print_lines()
    failed = print_cli() + print_zero()
    print_solves()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
