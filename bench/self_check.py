"""Fast self-check of the benchmark harness (a few seconds).

    python3 bench/self_check.py

Covers the correctness oracle, span nesting and self-time arithmetic, the
paired traced pass, the tail and set-up statistics, outcome counting and the
seed argument, on tiny instances.
Exits non-zero and names each failed check.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on the path
from run import l1sos, spans, workloads

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


@check
def oracle_accepts_right_and_rejects_wrong_answers():
    f = l1sos.motzkin_like()
    res = l1sos.best_l1_sos_approximation(f, 3)
    good = workloads._check_approx((res, l1sos.verify(res, f, 3)), workloads.MOTZKIN_RHO[3])
    expect(good.ok, f"right answer rejected: {good}")
    wrong = dataclasses.replace(res, rho=res.rho * 1.01)
    verdict = workloads._check_approx((wrong, l1sos.verify(wrong, f, 3)), workloads.MOTZKIN_RHO[3])
    expect(verdict.kind == "verify_failed", f"tampered rho accepted: {verdict}")
    verdict = workloads._check_approx((res, l1sos.verify(res, f, 3)), workloads.MOTZKIN_RHO[4])
    expect(verdict.kind == "rho_off", f"rho far from the reference accepted: {verdict}")

    refutation = l1sos.is_sos(f, 3)
    expect(workloads._check_not_sos(refutation).ok, "refutation of Motzkin-like rejected")
    fake = l1sos.SosCertificate((), (), 0.0)
    expect(workloads._check_not_sos(fake).kind == "false_sos", "certificate for Motzkin-like accepted")

    import numpy as np

    g = workloads.gram_sos(np.random.default_rng(0), 2, 1)
    expect(workloads._check_sos(l1sos.is_sos(g, 1), g).ok, "certificate for a Gram SOS rejected")
    expect(
        workloads._check_sos(refutation, g).kind == "false_refutation",
        "refutation of an SOS input accepted",
    )


@check
def outcomes_count_known_and_new_failures():
    f = l1sos.motzkin_like()

    def boom():
        raise l1sos.SolverFailure("injected")

    ops = [
        workloads.Op("approx d=3", lambda: workloads._approx_and_verify(f, 3),
                     lambda r: workloads._check_approx(r, workloads.MOTZKIN_RHO[3])),
        workloads.Op("approx d=8", boom, lambda r: workloads.Verdict("ok")),
    ]
    wl = workloads.Workload("motzkin-ladder", [ops], in_process=True)
    result = run.outcomes(wl, [run.run_pass(wl, 0, run.Prober(dict))])
    expect((result["attempted"], result["failed"]) == (2, 1), f"counts wrong: {result}")
    expect(result["correct"], "a listed seed defect made the run incorrect")
    ops[1].key = "approx d=4"
    result = run.outcomes(wl, [run.run_pass(wl, 0, run.Prober(dict))])
    expect(not result["correct"], "a new failure left the run correct")
    expect(result["failures"][0]["kind"] == "SolverFailure", f"failure kind wrong: {result}")


@check
def self_times_subtract_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    expect([s.parent for s in tracer.spans] == [None, 0, 0], "parents wrong")
    expect(spans.self_times(tracer.spans) == [7.0, 2.0, 1.0], "self times wrong")
    tracer.adopt([["x", 0.0, 2.0, None, 9, {}], ["y", 0.5, 1.0, 0, 9, {}]])
    expect(tracer.spans[4].parent == 3, "adopted parent not offset")
    tracer.clock = lambda: 11.0
    try:
        tracer.open("d")
        tracer.open("e")
        tracer.close(len(tracer.spans) - 2)
    except RuntimeError:
        pass
    else:
        raise AssertionError("closing a span out of order was accepted")


@check
def tracer_nests_library_calls_and_restores_them():
    import l1sos.approx as approx

    original = approx.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        f = l1sos.motzkin_like()
        l1sos.verify(l1sos.best_l1_sos_approximation(f, 3), f, 3)
        l1sos.is_sos(f, 3)
    finally:
        tracer.uninstall()
    expect(approx.solve is original, "uninstall left a wrapper behind")
    names = {s.name for s in tracer.spans}
    for name in ("approx.approx", "approx.verify", "approx.is_sos", "sdp.solve", "poly.mul",
                 "moment.basis_products", "moment.moment_matrix", "moment.riesz"):
        expect(name in names, f"no {name} span")
    solves = [s for s in tracer.spans if s.name == "sdp.solve"]
    expect(all(s.parent is not None for s in solves), "solve span without a parent")
    selfs = spans.self_times(tracer.spans)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    expect(abs(sum(selfs) - roots) <= 1e-9 * max(roots, 1.0), "self times do not add up to the roots")
    expect(min(selfs) >= -1e-9, "negative self time")
    layers = spans.layer_metrics(tracer.spans, 1)
    # verify is approximated once; is_sos runs the membership solve, then
    # the l1 solve on the refutation path.
    expect(layers["sdp.solve_calls"] == 3, f"solve calls {layers['sdp.solve_calls']}")
    expect(layers["approx.is_sos_solves"] == 2, f"is_sos solves {layers['approx.is_sos_solves']}")
    expect(layers["sdp.status.infeasible"] == 1, "membership pre-solve not INFEASIBLE")


@check
def paired_pass_traces_one_run_of_each_operation():
    f = l1sos.motzkin_like()
    ops = [
        workloads.Op(f"is_sos d={d}", lambda d=d: l1sos.is_sos(f, d), workloads._check_not_sos)
        for d in (3, 4, 3, 4)
    ]
    wl = workloads.Workload("motzkin-ladder", [ops], in_process=True)
    tracer = spans.Tracer()
    prober = run.Prober(dict)
    p = run.run_pass(wl, 0, prober, tracer)
    expect(len(p["samples"]) == 8, f"{len(p['samples'])} samples, not two per operation")
    run.run_pass(wl, 0, prober)
    # The probe count runs on across passes: one at once, then one per
    # PROBE_EVERY operations of the run.
    expect(len(prober.results) == 1 + 2 * len(ops) // run.PROBE_EVERY, f"{len(prober.results)} probes")
    roots = [s for s in tracer.spans if s.parent is None]
    expect([s.name for s in roots] == ["approx.is_sos"] * 4, "not one traced call per operation")
    expect([s.op for s in roots] == [1, 2, 3, 4], "traced calls not numbered by operation")
    expect(l1sos.is_sos.__name__ == "is_sos" and not hasattr(l1sos.is_sos, "__wrapped__"),
           "tracer left installed after the pass")
    traced = sum(t for i, (_, t, _) in enumerate(p["samples"]) if i in (1, 2, 5, 6))
    untraced = sum(t for i, (_, t, _) in enumerate(p["samples"]) if i in (0, 3, 4, 7))
    expect(abs(p["traced_s"] - traced) < 1e-12 and abs(p["untraced_s"] - untraced) < 1e-12,
           "traced and untraced sums do not follow the alternating order")


@check
def harrell_davis_quantiles():
    samples = [float(i) for i in range(20, 0, -1)]
    expect(abs(run.hd_quantile(samples, 0.5) - 10.5) < 1e-6, "HD median of 1..20 is not 10.5")
    p90 = run.hd_quantile(samples, 0.9)
    expect(17.0 < p90 < 19.0, f"HD p90 of 1..20 is {p90}")
    # The reference weights: Beta CDF differences, from scipy.
    from scipy.special import betainc

    xs = sorted([0.3, 2.0, 0.1, 5.0, 0.7, 1.1, 0.2, 3.3, 0.9, 0.4, 8.0, 0.05])
    for q in (0.9, run.TAIL_PERCENTILE / 100.0):
        n, a, b = len(xs), 13 * q, 13 * (1.0 - q)
        exact = sum((betainc(a, b, (i + 1) / n) - betainc(a, b, i / n)) * x for i, x in enumerate(xs))
        expect(abs(run.hd_quantile(xs, q) - exact) < 1e-4 * exact, f"HD q={q} differs from the exact weights")
    expect(run.hd_quantile([3.0], 0.9) == 3.0, "quantile of one sample is not that sample")


@check
def interquartile_mean_drops_the_outer_quarters():
    expect(run.interquartile_mean([9.0, 1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 5.0]) == 3.5,
           "interquartile mean of 0..5, 9, 100 is not 3.5")
    expect(run.interquartile_mean([2.0, 4.0]) == 3.0, "two values are not simply averaged")


@check
def seed_fixes_the_inputs():
    def fingerprint(name: str, seed: int) -> str:
        with tempfile.TemporaryDirectory(dir=run.procs.ROOT / ".bench_run") as tmp:
            inputs = workloads.make_inputs(name, seed, Path(tmp))
            files = sorted((p.name, p.read_text()) for p in Path(tmp).iterdir())
        parts = [repr(inputs.get("order")), repr(files)]
        for instances in inputs.get("instance_sets", ()):
            for n, d, f, g in instances:
                parts += [str(n), str(d), l1sos.to_text(f), l1sos.to_text(g)]
        return "\n".join(parts)

    for name in workloads.WORKLOADS:
        expect(fingerprint(name, 1) == fingerprint(name, 1), f"{name}: seed 1 not reproducible")
        expect(fingerprint(name, 1) != fingerprint(name, 2), f"{name}: seeds 1 and 2 agree")


def main() -> int:
    (run.procs.ROOT / ".bench_run").mkdir(exist_ok=True)
    failed = 0
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
