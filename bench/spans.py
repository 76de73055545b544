"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer wraps the public functions of each l1sos module under the names
that ``l1sos.approx`` and ``l1sos.cli`` look them up by, plus the arithmetic
methods of ``Polynomial``.  Each call records a span (name, start, end,
parent, op id); nothing inside ``src/`` is changed.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) -> span name.  A function is wrapped in every
# namespace it is called through: the package's public names (what the
# benchmark calls), approx's imports, and moment's own enumerate_basis,
# which its other functions call.
WRAPPED_FUNCTIONS = (
    ("l1sos", "best_l1_sos_approximation", "approx.approx"),
    ("l1sos", "verify", "approx.verify"),
    ("l1sos", "is_sos", "approx.is_sos"),
    ("l1sos", "uniform_sos_perturbation", "approx.baseline"),
    ("l1sos.approx", "best_l1_sos_approximation", "approx.approx"),
    ("l1sos.approx", "verify", "approx.verify"),
    ("l1sos.approx", "is_sos", "approx.is_sos"),
    ("l1sos.approx", "uniform_sos_perturbation", "approx.baseline"),
    ("l1sos.approx", "assemble_reduced_dual", "approx.assemble"),
    ("l1sos.approx", "_assemble_moment_side", "approx.assemble"),
    ("l1sos.approx", "_assemble_membership", "approx.assemble"),
    ("l1sos.approx", "solve", "sdp.solve"),
    ("l1sos.approx", "basis_products", "moment.basis_products"),
    ("l1sos.approx", "enumerate_basis", "moment.enumerate_basis"),
    ("l1sos.approx", "moment_matrix", "moment.moment_matrix"),
    ("l1sos.approx", "riesz", "moment.riesz"),
    ("l1sos.moment", "enumerate_basis", "moment.enumerate_basis"),
    ("l1sos.poly", "parse_text", "poly.parse"),
    ("l1sos.poly", "parse_json", "poly.parse"),
    ("l1sos.cli", "main", "cli.main"),
)
WRAPPED_METHODS = (
    ("__mul__", "poly.mul"),
    ("__rmul__", "poly.mul"),
    ("__add__", "poly.add"),
    ("__radd__", "poly.add"),
)

# Per-layer metrics: name -> unit.  Every ``*_s`` value is a self time.
LAYER_UNITS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "poly.parse_s": "s",
    "sdp.solve_calls": "count",
    "sdp.solve_s": "s",
    "sdp.iterations": "count",
    "sdp.s_per_iter": "s",
    "sdp.constraints": "count",
    "sdp.psd_entries": "count",
    "sdp.status.optimal": "count",
    "sdp.status.numerical_failure": "count",
    "sdp.status.infeasible": "count",
    "sdp.status.max_iterations": "count",
    "poly.mul_calls": "count",
    "poly.mul_s": "s",
    "poly.add_s": "s",
    "approx.approx_self_s": "s",
    "approx.verify_self_s": "s",
    "approx.assemble_s": "s",
    "approx.is_sos_s": "s",
    "approx.is_sos_solves": "count",
    "approx.baseline_s": "s",
    "moment.basis_products_calls": "count",
    "moment.basis_products_s": "s",
    "moment.enumerate_basis_calls": "count",
    "moment.enumerate_basis_s": "s",
    "moment.moment_matrix_s": "s",
    "moment.riesz_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Self-time metric -> span name.
_SELF_TIME = {
    "cli.interp_s": "cli.interp",
    "cli.import_s": "cli.import",
    "cli.main_s": "cli.main",
    "poly.parse_s": "poly.parse",
    "sdp.solve_s": "sdp.solve",
    "poly.mul_s": "poly.mul",
    "poly.add_s": "poly.add",
    "approx.approx_self_s": "approx.approx",
    "approx.verify_self_s": "approx.verify",
    "approx.assemble_s": "approx.assemble",
    "approx.is_sos_s": "approx.is_sos",
    "approx.baseline_s": "approx.baseline",
    "moment.basis_products_s": "moment.basis_products",
    "moment.enumerate_basis_s": "moment.enumerate_basis",
    "moment.moment_matrix_s": "moment.moment_matrix",
    "moment.riesz_s": "moment.riesz",
}
_CALLS = {
    "sdp.solve_calls": "sdp.solve",
    "poly.mul_calls": "poly.mul",
    "moment.basis_products_calls": "moment.basis_products",
    "moment.enumerate_basis_calls": "moment.enumerate_basis",
}
_STATUSES = ("optimal", "numerical_failure", "infeasible", "max_iterations")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans in memory; ``install`` wraps the l1sos functions,
    ``uninstall`` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        t = self.clock() if start is None else start
        self.spans.append(Span(name, t, t, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} is open")
        self.spans[idx].end = self.clock() if end is None else end

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured elsewhere (e.g. interpreter start-up)."""
        self.close(self.open(name, start), end)

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "sdp.solve":
                problem = args[0] if args else kwargs["problem"]
                tracer.spans[idx].attrs = {
                    "m": problem.m,
                    "psd_entries": sum(
                        blk.dim * blk.dim for blk in problem.blocks if hasattr(blk, "dim")
                    ),
                    "iterations": out.iterations,
                    "status": out.status.value,
                }
            return out

        return traced

    def install(self) -> None:
        """Wrap every listed function of the l1sos modules imported so far."""
        from l1sos.poly import Polynomial

        for module_name, attr, name in WRAPPED_FUNCTIONS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))
        for attr, name in WRAPPED_METHODS:
            fn = Polynomial.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((Polynomial, attr, fn))
            setattr(Polynomial, attr, self.wrap(fn, name))

    def adopt(self, rows) -> None:
        """Append spans recorded by another process as one more op."""
        base = len(self.spans)
        for row in rows:
            span = Span.from_list(row)
            if span.parent is not None:
                span.parent += base
            span.op = self.op
            self.spans.append(span)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes.

    ``trace.overhead_s`` is left to the caller, which knows the untraced
    pass time.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out: dict[str, float] = {}
    for metric, name in _SELF_TIME.items():
        out[metric] = sum(selfs[i] for i in by_name.get(name, ())) / passes
    for metric, name in _CALLS.items():
        out[metric] = len(by_name.get(name, ())) / passes
    # A solve that raised has no attributes; it counts as a call only.
    solves = [spans[i] for i in by_name.get("sdp.solve", ()) if spans[i].attrs]
    iterations = sum(s.attrs["iterations"] for s in solves)
    out["sdp.iterations"] = iterations / passes
    out["sdp.s_per_iter"] = (
        sum(s.end - s.start for s in solves) / iterations if iterations else 0.0
    )
    out["sdp.constraints"] = sum(s.attrs["m"] for s in solves) / passes
    out["sdp.psd_entries"] = sum(s.attrs["psd_entries"] for s in solves) / passes
    for status in _STATUSES:
        out[f"sdp.status.{status}"] = (
            sum(1 for s in solves if s.attrs["status"] == status) / passes
        )
    out["approx.is_sos_solves"] = (
        sum(1 for i in by_name.get("sdp.solve", ()) if _has_ancestor(spans, i, "approx.is_sos"))
        / passes
    )
    out["trace.spans"] = len(spans) / passes
    return out
