"""Outcomes do not depend on the BLAS thread count.

The same calls run in two fresh interpreters, with OPENBLAS_NUM_THREADS set
to 1 and to 2 before numpy loads.  rho must agree to 1e-8 relative and the
is_sos verdicts must be identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CALLS = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
import numpy as np
from conftest import dense_polynomial
from l1sos import basis_products, best_l1_sos_approximation, is_sos, motzkin_like

f = motzkin_like()
rho = [best_l1_sos_approximation(f, d).rho for d in (3, 4, 5)]
rho.append(best_l1_sos_approximation(dense_polynomial(np.random.default_rng(7), 3, 6), 3).rho)
bp = basis_products(3, 2)
r = np.random.default_rng(8).standard_normal((len(bp.basis),) * 2)
verdicts = [is_sos(f, 3).is_sos, is_sos(bp.gram_polynomial(r @ r.T), 2).is_sos]
print(json.dumps({{"rho": rho, "is_sos": verdicts}}))
"""


def _run(threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", CALLS], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_and_two_threads_agree():
    one, two = _run("1"), _run("2")
    assert one["is_sos"] == two["is_sos"] == [False, True]
    assert two["rho"] == pytest.approx(one["rho"], rel=1e-8, abs=0.0)
