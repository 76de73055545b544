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
- ``solve <operation> #<k> <status> <stop> iterations=<n> <sha256>``: every
  conic solve of the Motzkin-like ladder (d = 3..11, approx and is_sos) and
  of the three ``random-dense`` seed-1 instance sets (approx, baseline and
  is_sos), with the SHA-256 of its final primal, dual and slack.

BLAS is pinned to one thread, here and in the CLI processes, so the
iterates do not depend on the thread count.  The benchmark's modules are
only imported; nothing under ``bench/`` is written.
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

import workloads  # noqa: E402

CLI_SEEDS = (1, 2, 3)


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


def print_cli() -> None:
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            wl = workloads.cli_table1(workloads.make_inputs("cli-table1", seed, workdir), workdir)
            for op in sorted(wl.op_sets[0], key=lambda op: op.key):
                res = op.run()
                print(f"cli seed={seed} {op.key.replace(' ', '-')} "
                      f"{digest(res.stdout, res.stderr, str(res.returncode).encode())}")


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
    print_cli()
    print_solves()
    return 0


if __name__ == "__main__":
    sys.exit(main())
