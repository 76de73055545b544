"""Line trace of the tier-1 tests over ``src/l1sos``: which lines never run.

Run from any directory, with no flags:

    python3 tools/linetrace.py

It runs ``pytest -q tests`` in this process under a ``sys.settrace`` line
trace (standard library only), takes the executable lines of every
``src/l1sos/*.py`` from the ``co_lines()`` of its compiled code, and prints
``file:line source`` for each line that never ran.  Lines run only in
subprocesses the tests start, such as the CLI entry point, do not count.

Exit status: 1 if any such line lies outside an ``if __name__ ==
"__main__":`` block, the pytest exit status if the tests fail, 0 otherwise.

This is the evidence the north star's "least code" item asks for: a line
that no test or benchmark input runs is either a deletion candidate or a
missing test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "l1sos"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main_guard_lines(path: Path) -> set[int]:
    """Lines inside ``if __name__ == "__main__":`` blocks."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        test = getattr(node, "test", None)
        if (
            isinstance(node, ast.If)
            and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in test.comparators)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    ran = {str(path): set() for path in paths}

    def tracer(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None
        # The call event stands for the def line's own instruction.
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

        return local

    # Installed before anything imports l1sos, so module bodies are traced.
    threading.settrace(tracer)
    sys.settrace(tracer)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    status = pytest.main(["-q", "tests"])
    sys.settrace(None)
    threading.settrace(None)

    failing = 0
    for path in paths:
        source = path.read_text(encoding="utf-8").splitlines()
        guarded = main_guard_lines(path)
        for line in sorted(executable_lines(path) - ran[str(path)]):
            failing += line not in guarded
            print(f"{path.relative_to(ROOT)}:{line} {source[line - 1].strip()}")
    if status != 0:
        return int(status)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
