"""Command-line front end.

Subcommands
-----------
approx            best l1-norm SOS approximation of a polynomial file
check-sos         SOS membership with certificate or refutation witness
baseline          smallest uniform perturbation making the input SOS
reproduce-table1  run the built-in Motzkin-like benchmark at d = 3, 4, 5

Every command builds its report both as a JSON document and as table text,
and one render path writes the one that --format names.  Exit codes: 0
success, 1 usage or input error, 2 solver failure.  JSON output is
byte-deterministic: fixed key order and every float rendered with
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
from .sdp import ConicSolution

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
    for name, (_, help_text, reads_input) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_input:
            p.add_argument("--input", required=True, metavar="PATH",
                           help="polynomial file (text format, see README)")
            p.add_argument("--degree", required=True, type=int, metavar="INT",
                           help="degree bound d (approximant degree <= 2d)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    if args.command is None:
        raise UsageError(f"missing command (one of: {', '.join(_COMMANDS)})")
    if getattr(args, "degree", 1) < 1:
        raise UsageError("--degree must be >= 1")


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


def _solver_report_dict(rep: ConicSolution) -> dict:
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


def _cmd_approx(args: argparse.Namespace) -> tuple[dict, str]:
    f = _load_polynomial(args.input)
    res = ap.best_l1_sos_approximation(f, args.degree)
    document = {"command": "approx", **_result_dict(res, args.degree)}
    return document, _result_rows([(args.degree, res)])


def _cmd_check_sos(args: argparse.Namespace) -> tuple[dict, str]:
    g = _load_polynomial(args.input)
    res = ap.is_sos(g, args.degree)
    document = {
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
    if res.is_sos:
        lines = ["SOS", f"residual {res.residual:.3e}"]
        for w, q in zip(res.weights, res.squares):
            lines.append(f"  + {w:.12g} * ({q})^2")
        return document, "\n".join(lines) + "\n"
    return document, (
        "not SOS\n"
        f"witness moment vector y with L_y(g) = {res.value:.6e} < 0 "
        "and PSD moment matrix\n"
    )


def _cmd_baseline(args: argparse.Namespace) -> tuple[dict, str]:
    f = _load_polynomial(args.input)
    eps, g = ap.uniform_sos_perturbation(f, args.degree)
    document = {
        "command": "baseline",
        "d": args.degree,
        "epsilon": eps,
        "g": poly.to_json_dict(g),
    }
    return document, f"epsilon* = {eps:.6e}\ng = {g}\n"


def _cmd_reproduce_table1(args: argparse.Namespace) -> tuple[dict, str]:
    f = ap.motzkin_like()
    rows = [(d, ap.best_l1_sos_approximation(f, d)) for d in (3, 4, 5)]
    document = {
        "command": "reproduce-table1",
        "rows": [_result_dict(res, d) for d, res in rows],
    }
    return document, _result_rows(rows)


# name -> (runner, help, reads --input and --degree); the order is --help's.
_COMMANDS = {
    "approx": (_cmd_approx, "best l1-norm SOS approximation", True),
    "check-sos": (_cmd_check_sos, "SOS membership test", True),
    "baseline": (_cmd_baseline, "uniform SOS perturbation baseline", True),
    "reproduce-table1": (_cmd_reproduce_table1,
                         "built-in Motzkin-like benchmark, d = 3, 4, 5", False),
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command, write its report, and return the exit code."""
    try:
        document, text = _COMMANDS[args.command][0](args)
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
    report = _dumps(document) + "\n" if args.format == "json" else text
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
