"""Command-line front end.

Subcommands
-----------
approx            best l1-norm SOS approximation of a polynomial file
check-sos         SOS membership with certificate or refutation witness
baseline          smallest uniform perturbation making the input SOS
reproduce-table1  run the built-in Motzkin-like benchmark at d = 3, 4, 5

Exit codes: 0 success, 1 usage or input error, 2 solver failure.  JSON
output is byte-deterministic: fixed key order and every float rendered with
17 significant digits in lowercase scientific notation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import approx as ap
from . import poly
from .sdp import SolverOptions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through our own
    # exception so usage problems map to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="l1sos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p, needs_input: bool):
        if needs_input:
            p.add_argument("--input", required=True, metavar="PATH",
                           help="polynomial file (text format, see README)")
            p.add_argument("--degree", required=True, type=int, metavar="INT",
                           help="degree bound d (approximant degree <= 2d)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--gap-tol", type=float, default=SolverOptions.gap_tol)
        p.add_argument("--feas-tol", type=float, default=SolverOptions.feas_tol)
        p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)

    p_approx = sub.add_parser("approx", help="best l1-norm SOS approximation")
    add_common(p_approx, needs_input=True)

    p_check = sub.add_parser("check-sos", help="SOS membership test")
    add_common(p_check, needs_input=True)

    p_base = sub.add_parser("baseline", help="uniform SOS perturbation baseline")
    add_common(p_base, needs_input=True)

    p_table = sub.add_parser("reproduce-table1",
                             help="built-in Motzkin-like benchmark, d = 3, 4, 5")
    add_common(p_table, needs_input=False)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    if args.command is None:
        raise UsageError(f"missing command (one of: {', '.join(_RUNNERS)})")
    if getattr(args, "degree", 1) < 1:
        raise UsageError("--degree must be >= 1")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    for flag, tol in (("--gap-tol", args.gap_tol), ("--feas-tol", args.feas_tol)):
        if not (math.isfinite(tol) and tol > 0):
            raise UsageError(f"{flag} must be finite and > 0")


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(gap_tol=args.gap_tol, feas_tol=args.feas_tol, max_iter=args.max_iter)


def _load_polynomial(path: str) -> poly.Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return poly.parse_json(text)
    return poly.parse_text(text)


# -- deterministic JSON ---------------------------------------------------------


def _dumps(obj) -> str:
    """json.dumps with every float fixed to 17 significant digits, lowercase
    scientific, so identical results serialize byte-identically."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".16e")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _certificate_dict(cert: ap.SosCertificate) -> dict:
    return {
        "squares": [poly.to_json_dict(q) for q in cert.squares],
        "weights": list(cert.weights),
        "residual": cert.residual,
    }


def _moment_vector_dict(y) -> dict:
    return {"n": y.n, "degree": y.degree, "values": list(y.values)}


def _solver_report_dict(rep: ap.SolverReport) -> dict:
    return {
        "status": rep.status.value,
        "iterations": rep.iterations,
        "gap": rep.gap,
        "feas_primal": rep.feas_primal,
        "feas_dual": rep.feas_dual,
    }


def _result_dict(res: ap.ApproximationResult, d: int) -> dict:
    return {
        "d": d,
        "lambda": list(res.lam),
        "rho": res.rho,
        "g": poly.to_json_dict(res.g),
        "y_star": _moment_vector_dict(res.y_star),
        "gram": [list(row) for row in np.asarray(res.gram)],
        "certificate": _certificate_dict(res.certificate),
        "solver_report": _solver_report_dict(res.solver),
    }


# -- table rendering -----------------------------------------------------------


def _format_lambda(lam) -> str:
    lam = np.asarray(lam, dtype=float)
    peak = float(np.max(np.abs(lam))) if lam.size else 0.0
    if peak == 0.0:
        return "(" + ", ".join("0" for _ in lam) + ")"
    exp = math.floor(math.log10(peak))
    scale = 10.0 ** exp
    body = ", ".join(f"{v / scale:.4g}" for v in lam)
    return f"1e{exp:+03d} * ({body})"

def _result_rows(rows: list[tuple[int, ap.ApproximationResult]]) -> str:
    lam_strs = [_format_lambda(res.lam) for _, res in rows]
    width = max(len(s) for s in lam_strs) + 2
    lines = [f"{'d':>2}  {'lambda*':<{width}}rho_d"]
    for (d, res), lam_s in zip(rows, lam_strs):
        lines.append(f"{d:>2}  {lam_s:<{width}}{res.rho:.4e}")
    return "\n".join(lines) + "\n"


# -- commands --------------------------------------------------------------------


def _cmd_approx(args: argparse.Namespace) -> str:
    f = _load_polynomial(args.input)
    res = ap.best_l1_sos_approximation(f, args.degree, options=_solver_options(args))
    if args.format == "json":
        out = {"command": "approx"}
        out.update(_result_dict(res, args.degree))
        return _dumps(out) + "\n"
    return _result_rows([(args.degree, res)])


def _cmd_check_sos(args: argparse.Namespace) -> str:
    g = _load_polynomial(args.input)
    res = ap.is_sos(g, args.degree, options=_solver_options(args))
    if args.format == "json":
        out = {
            "command": "check-sos",
            "d": args.degree,
            "is_sos": res.is_sos,
            "certificate": _certificate_dict(res) if res.is_sos else None,
            "witness": None
            if res.is_sos
            else {
                "moments": _moment_vector_dict(res.witness),
                "riesz_value": res.value,
            },
        }
        return _dumps(out) + "\n"
    if res.is_sos:
        lines = ["SOS", f"residual {res.residual:.3e}"]
        for w, q in zip(res.weights, res.squares):
            lines.append(f"  + {w:.12g} * ({q})^2")
        return "\n".join(lines) + "\n"
    return (
        "not SOS\n"
        f"witness moment vector y with L_y(g) = {res.value:.6e} < 0 "
        "and PSD moment matrix\n"
    )


def _cmd_baseline(args: argparse.Namespace) -> str:
    f = _load_polynomial(args.input)
    eps, g = ap.uniform_sos_perturbation(f, args.degree, options=_solver_options(args))
    if args.format == "json":
        out = {
            "command": "baseline",
            "d": args.degree,
            "epsilon": eps,
            "g": poly.to_json_dict(g),
        }
        return _dumps(out) + "\n"
    return f"epsilon* = {eps:.6e}\ng = {g}\n"


def _cmd_reproduce_table1(args: argparse.Namespace) -> str:
    f = ap.motzkin_like()
    rows = []
    for d in (3, 4, 5):
        res = ap.best_l1_sos_approximation(f, d, options=_solver_options(args))
        rows.append((d, res))
    if args.format == "json":
        out = {
            "command": "reproduce-table1",
            "rows": [_result_dict(res, d) for d, res in rows],
        }
        return _dumps(out) + "\n"
    return _result_rows(rows)


_RUNNERS = {
    "approx": _cmd_approx,
    "check-sos": _cmd_check_sos,
    "baseline": _cmd_baseline,
    "reproduce-table1": _cmd_reproduce_table1,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command, write its report, and return the exit code."""
    try:
        report = _RUNNERS[args.command](args)
    except ap.SolverFailure as exc:
        print(f"l1sos: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except poly.ParseError as exc:
        print(f"l1sos: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"l1sos: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"l1sos: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"l1sos: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(report)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except UsageError as exc:
        print(f"l1sos: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
