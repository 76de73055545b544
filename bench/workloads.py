"""The benchmark's workloads: seeded inputs, operations and the oracle that
checks each operation's output.

An operation is one user-level call.  Its check returns a ``Verdict``:
``kind`` is ``"ok"`` when the output is right, otherwise a short failure
kind.  A failure listed in ``SEED_DEFECTS`` is one the seed commit already
shows; it still counts as failed, but it does not make the run incorrect.
Any other failure does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import l1sos
from l1sos import Polynomial

import procs

MOTZKIN_DEGREES = tuple(range(3, 12))
# (n, d) -> instances per pass.  The cheap sizes get two instances each,
# so the per-operation median, which falls among their operations, averages
# over several random inputs; the (4, 4) instance dominates the pass time.
RANDOM_SIZES = {(6, 2): 2, (3, 5): 2, (4, 4): 1}
# random-dense draws fresh instances for each of this many passes, then
# cycles, so a run's figures do not rest on one draw.  A timed run makes at
# least this many passes, so its median and tail rest on 45 operations.
RANDOM_SETS = 3
CLI_N, CLI_DEGREE, CLI_D = 2, 4, 2

# rho_d of motzkin_like() as the seed commit computes it with one BLAS
# thread.  At d = 8 and 11 the seed's solve fails; from d = 8 on, rho_d sits
# below the solver's 1e-8 tolerance, so 0 stands in for the unresolved value.
MOTZKIN_RHO = {
    3: 0.01617838147186684,
    4: 0.002110353673714226,
    5: 8.711932929165645e-05,
    6: 1.8193081527946266e-06,
    7: 3.544063887277457e-08,
    8: 0.0,
    9: 6.235505795100744e-10,
    10: 1.0317108845902913e-09,
    11: 0.0,
}
RHO_REL_TOL = 1e-5
RHO_ABS_TOL = 1e-8

# Failures the seed commit shows (see ROADMAP item 5): the reduced solve
# breaks down at d = 8 and 11, and is_sos calls the non-SOS Motzkin-like
# polynomial SOS once rho_d drops below its absolute 1e-7 threshold.
SEED_DEFECTS = {
    ("motzkin-ladder", "approx d=8"): "SolverFailure",
    ("motzkin-ladder", "approx d=11"): "SolverFailure",
    ("motzkin-ladder", "is_sos d=8"): "SolverFailure",
    ("motzkin-ladder", "is_sos d=11"): "SolverFailure",
    ("motzkin-ladder", "is_sos d=7"): "false_sos",
    ("motzkin-ladder", "is_sos d=9"): "false_sos",
    ("motzkin-ladder", "is_sos d=10"): "false_sos",
}


@dataclass(frozen=True)
class Verdict:
    kind: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    """Pass i runs ``op_sets[i % len(op_sets)]``.  A timed run makes at least
    ``min_passes`` passes, so that the per-operation statistics do not rest
    on single calls where a pass is short."""

    name: str
    op_sets: list[list[Op]]
    in_process: bool
    min_passes: int = 2
    state: dict = field(default_factory=dict)

    def is_known(self, key: str, verdict: Verdict) -> bool:
        return SEED_DEFECTS.get((self.name, key)) == verdict.kind


# -- inputs ---------------------------------------------------------------------


def dense_polynomial(rng: np.random.Generator, n: int, degree: int) -> Polynomial:
    """Every monomial of degree <= ``degree`` with a standard normal coefficient."""
    basis = l1sos.enumerate_basis(n, degree)
    return Polynomial(n, dict(zip(basis.monomials, rng.standard_normal(len(basis)))))


def gram_sos(rng: np.random.Generator, n: int, d: int) -> Polynomial:
    """v_d(x)^T G v_d(x) for a random positive definite G: SOS by construction,
    with a strictly feasible Gram matrix."""
    bp = l1sos.basis_products(n, d)
    s = len(bp.basis)
    r = rng.standard_normal((s, s))
    return bp.gram_polynomial(r @ r.T / s)


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Everything a workload's operations take, generated from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "motzkin-ladder":
        keys = [f"{op} d={d}" for d in MOTZKIN_DEGREES for op in ("approx", "is_sos")]
        return {"f": l1sos.motzkin_like(), "order": [keys[i] for i in rng.permutation(len(keys))]}
    if workload == "random-dense":
        sets = []
        for _ in range(RANDOM_SETS):
            instances = [
                (n, d, dense_polynomial(rng, n, 2 * d), gram_sos(rng, n, d))
                for (n, d), count in RANDOM_SIZES.items()
                for _ in range(count)
            ]
            sets.append([instances[i] for i in rng.permutation(len(instances))])
        return {"instance_sets": sets}
    if workload == "cli-table1":
        f = dense_polynomial(rng, CLI_N, CLI_DEGREE)
        g = gram_sos(rng, CLI_N, CLI_D)
        # h(0) < 0, so h is not nonnegative and cannot be SOS.
        h = g - (g.coefficient((0,) * CLI_N) + 0.5)
        files = {
            "f.txt": l1sos.to_text(f),
            "f.json": json.dumps(l1sos.to_json_dict(f)),
            "g.txt": l1sos.to_text(g),
            "h.json": json.dumps(l1sos.to_json_dict(h)),
        }
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        return {"f": f, "g": g, "h": h, "order_rng": rng}
    raise ValueError(f"unknown workload {workload!r}")


# -- checks ---------------------------------------------------------------------


def rho_matches(rho: float, ref: float) -> bool:
    return abs(rho - ref) <= RHO_REL_TOL * abs(ref) + RHO_ABS_TOL


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-12)


def _check_approx(result, ref_rho: float | None) -> Verdict:
    res, report = result
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        return Verdict("verify_failed", ", ".join(failed))
    if ref_rho is not None and not rho_matches(res.rho, ref_rho):
        return Verdict("rho_off", f"rho={res.rho!r} reference={ref_rho!r}")
    return Verdict("ok")


def _check_not_sos(res) -> Verdict:
    if res.is_sos:
        return Verdict("false_sos", f"certificate residual {res.residual:.3e}")
    if not res.value < 0.0:
        return Verdict("bad_witness", f"L_y(g) = {res.value!r}")
    return Verdict("ok")


def _check_sos(res, g: Polynomial) -> Verdict:
    if not res.is_sos:
        return Verdict("false_refutation", f"L_y(g) = {res.value!r}")
    tol = 1e-6 * (1.0 + g.l1_norm())
    if not res.residual <= tol:
        return Verdict("certificate_residual", f"{res.residual:.3e} > {tol:.3e}")
    return Verdict("ok")


# -- in-process workloads -------------------------------------------------------


def _approx_and_verify(f: Polynomial, d: int):
    res = l1sos.best_l1_sos_approximation(f, d)
    return res, l1sos.verify(res, f, d)


def motzkin_ladder(inputs: dict) -> Workload:
    f = inputs["f"]
    ops = {}
    for d in MOTZKIN_DEGREES:
        ops[f"approx d={d}"] = Op(
            f"approx d={d}",
            lambda d=d: _approx_and_verify(f, d),
            lambda r, d=d: _check_approx(r, MOTZKIN_RHO[d]),
        )
        ops[f"is_sos d={d}"] = Op(f"is_sos d={d}", lambda d=d: l1sos.is_sos(f, d), _check_not_sos)
    # One pass is 18 operations and over 20 s; a second pass would repeat the
    # same operations and double the run.
    return Workload("motzkin-ladder", [[ops[k] for k in inputs["order"]]], in_process=True, min_passes=1)


def random_dense(inputs: dict) -> Workload:
    wl = Workload("random-dense", [], in_process=True, min_passes=RANDOM_SETS)
    for instances in inputs["instance_sets"]:
        wl.op_sets.append(_random_ops(wl, instances))
    return wl


def _random_ops(wl: Workload, instances) -> list[Op]:
    ops = []
    for k, (n, d, f, g) in enumerate(instances):
        tag = f"n={n} d={d} #{k}"

        def run_approx(f=f, d=d, tag=tag):
            # A tag names an instance of one set only; a rho left by another
            # set's instance must not reach check_baseline.
            wl.state.pop(tag, None)
            out = _approx_and_verify(f, d)
            wl.state[tag] = out[0].rho
            return out

        def check_baseline(out, n=n, tag=tag):
            eps, _ = out
            if not (math.isfinite(eps) and eps >= 0.0):
                return Verdict("bad_epsilon", repr(eps))
            rho = wl.state.get(tag)
            # Tying the n + 1 multipliers can only cost more than leaving
            # them free (acceptance criterion 8).
            if rho is not None and rho > (n + 1) * eps + 1e-7:
                return Verdict("baseline_below_rho", f"(n+1)*eps={(n + 1) * eps!r} rho={rho!r}")
            return Verdict("ok")

        ops += [
            Op(f"approx {tag}", run_approx, lambda r: _check_approx(r, None)),
            Op(f"baseline {tag}", lambda f=f, d=d: l1sos.uniform_sos_perturbation(f, d), check_baseline),
            Op(f"is_sos {tag}", lambda g=g, d=d: l1sos.is_sos(g, d), lambda r, g=g: _check_sos(r, g)),
        ]
    return ops


# -- CLI workload ---------------------------------------------------------------


def _table_rho(stdout: str) -> float:
    return float(stdout.strip().splitlines()[-1].split()[-1])


def cli_table1(inputs: dict, workdir: Path) -> Workload:
    """Repeated ``l1sos`` processes, one at a time.  The library computes the
    reference answers the processes' outputs are compared with.  While
    ``state["tracer"]`` holds a tracer, the processes run traced and their
    spans are adopted into it."""
    f, g = inputs["f"], inputs["g"]
    ref_rho = l1sos.best_l1_sos_approximation(f, CLI_D).rho
    ref_eps = l1sos.uniform_sos_perturbation(f, CLI_D)[0]
    wl = Workload("cli-table1", [[]], in_process=False)
    wl.state["rss_mb"] = []
    wl.state["tracer"] = None
    env = procs.child_env()
    spans_path = workdir / "spans.json"
    d = str(CLI_D)

    def spawn(args):
        tracer = wl.state["tracer"]
        res = procs.run_child(procs.cli_argv(args, tracer is not None, spans_path), workdir, env)
        wl.state["rss_mb"].append(res.maxrss_mb)
        if tracer is not None and res.returncode == 0:
            tracer.adopt(json.loads(spans_path.read_text()))
        return res

    def checked(check):
        def run_check(res):
            if res.returncode != 0:
                return Verdict(f"exit_{res.returncode}", res.stderr.decode(errors="replace")[-200:])
            try:
                return check(res.stdout.decode())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return Verdict("unreadable_output", f"{type(exc).__name__}: {exc}")
        return run_check

    def table1(out):
        first = wl.state.setdefault("table1", out)
        if out != first:
            return Verdict("table1_bytes_differ")
        for row in json.loads(out)["rows"]:
            if not rho_matches(row["rho"], MOTZKIN_RHO[row["d"]]):
                return Verdict("rho_off", f"d={row['d']} rho={row['rho']!r}")
        return Verdict("ok")

    def approx_table(out):
        rho = _table_rho(out)
        return Verdict("ok") if close(rho, ref_rho, 1e-4) else Verdict("rho_off", repr(rho))

    def approx_json(out):
        doc = json.loads(out)
        lam = doc["lambda"]
        if doc["command"] != "approx" or min(lam) < 0.0 or not close(sum(lam), doc["rho"], 1e-12):
            return Verdict("inconsistent_report")
        return Verdict("ok") if close(doc["rho"], ref_rho, 1e-9) else Verdict("rho_off", repr(doc["rho"]))

    def sos_table(out):
        lines = out.splitlines()
        if lines[0] != "SOS":
            return Verdict("false_refutation", lines[0])
        return Verdict("ok") if float(lines[1].split()[1]) <= 1e-6 * (1.0 + g.l1_norm()) else Verdict("certificate_residual")

    def not_sos_json(out):
        doc = json.loads(out)
        if doc["is_sos"]:
            return Verdict("false_sos")
        return Verdict("ok") if doc["witness"]["riesz_value"] < 0.0 else Verdict("bad_witness")

    def baseline_table(out):
        eps = float(out.splitlines()[0].split("=")[1])
        return Verdict("ok") if close(eps, ref_eps, 1e-5) else Verdict("epsilon_off", repr(eps))

    def baseline_json(out):
        eps = json.loads(out)["epsilon"]
        if (CLI_N + 1) * eps + 1e-7 < ref_rho:
            return Verdict("baseline_below_rho", repr(eps))
        return Verdict("ok") if close(eps, ref_eps, 1e-9) else Verdict("epsilon_off", repr(eps))

    commands = [
        ("reproduce-table1 json", ["reproduce-table1", "--format", "json"], table1),
        ("approx text", ["approx", "--input", "f.txt", "--degree", d], approx_table),
        ("approx json", ["approx", "--input", "f.json", "--degree", d, "--format", "json"], approx_json),
        ("check-sos text", ["check-sos", "--input", "g.txt", "--degree", d], sos_table),
        ("check-sos json", ["check-sos", "--input", "h.json", "--degree", d, "--format", "json"], not_sos_json),
        ("baseline text", ["baseline", "--input", "f.txt", "--degree", d], baseline_table),
        ("baseline json", ["baseline", "--input", "f.json", "--degree", d, "--format", "json"], baseline_json),
    ]
    order = inputs["order_rng"].permutation(len(commands))
    for i in order:
        key, args, check = commands[i]
        wl.op_sets[0].append(Op(key, lambda args=args: spawn(args), checked(check)))
    return wl


WORKLOADS = ("cli-table1", "motzkin-ladder", "random-dense")


def build(name: str, seed: int, workdir: Path) -> Workload:
    inputs = make_inputs(name, seed, workdir)
    if name == "motzkin-ladder":
        return motzkin_ladder(inputs)
    if name == "random-dense":
        return random_dense(inputs)
    return cli_table1(inputs, workdir)
