"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from l1sos import (
    ConicProblem,
    Entries,
    NonNegBlock,
    PsdBlock,
    Status,
    assemble_full_form,
    atomic_moments,
    basis_products,
    best_l1_sos_approximation,
    motzkin_like,
    riesz,
    solve,
    uniform_sos_perturbation,
)
from l1sos.poly import Polynomial

from conftest import random_polynomial


def _report(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def table1(motzkin):
    """Benchmark results for d = 3, 4, 5 plus the total wall time."""
    start = time.perf_counter()
    results = {d: best_l1_sos_approximation(motzkin, d) for d in (3, 4, 5)}
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="module")
def random_instances():
    """20 random degree-<=4 inputs in two variables, solved at d = 2."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(20):
        f = random_polynomial(rng, 2, 4, n_terms=8)
        out.append((f, 2, best_l1_sos_approximation(f, 2)))
    return out


@pytest.fixture(scope="module")
def sos_instances():
    """20 random SOS inputs (random PSD Gram pushed through the basis
    products), solved at their own degree."""
    rng = np.random.default_rng(77)
    out = []
    for k in range(20):
        n = 1 + k % 2
        d = 1 + (k // 2) % 2
        bp = basis_products(n, d)
        s = len(bp.basis)
        r = rng.standard_normal((s, s))
        g = bp.gram_polynomial(r @ r.T)
        out.append((g, d, best_l1_sos_approximation(g, d)))
    return out


@pytest.fixture(scope="module")
def all_solved(table1, random_instances, sos_instances, motzkin):
    results, _ = table1
    solved = [(motzkin, d, res) for d, res in results.items()]
    solved.extend(random_instances)
    solved.extend(sos_instances)
    return solved


def test_criterion_1_benchmark_table(table1):
    """Motzkin-like instance at d = 3, 4, 5 within the quoted bands."""
    results, elapsed = table1
    ok = False
    try:
        r3, r4, r5 = results[3], results[4], results[5]
        assert r3.rho == pytest.approx(1.6e-2, rel=0.05)
        assert r3.lam == pytest.approx([5.445e-3, 5.367e-3, 5.367e-3], rel=0.10)
        assert r4.rho == pytest.approx(2e-3, rel=0.10)
        assert r4.lam == pytest.approx([2.4e-4, 9.36e-4, 9.36e-4], rel=0.10)
        assert r5.rho == pytest.approx(8e-5, rel=0.25)
        assert r5.lam[1] == pytest.approx(4.34e-5, rel=0.10)
        assert r5.lam[2] == pytest.approx(4.34e-5, rel=0.10)
        assert r5.lam[0] <= 1e-6
        assert elapsed < 10.0
        ok = True
    finally:
        _report(1, f"benchmark table d=3,4,5 in {elapsed:.2f}s", ok)


def test_criterion_2_perturbation_structure(table1, random_instances, motzkin):
    """g - f supported on {1, x1^2d, x2^2d}, coefficients >= -1e-9, and
    ||f - g||_1 = sum(lam) to 1e-9 relative."""
    results, _ = table1
    cases = [(motzkin, d, res) for d, res in results.items()] + random_instances
    ok = False
    try:
        for f, d, res in cases:
            n = f.n
            pattern = {(0,) * n} | {
                tuple(2 * d if j == i else 0 for j in range(n)) for i in range(n)
            }
            diff = res.g - f
            assert set(diff.terms) <= pattern
            assert all(c >= -1e-9 for c in diff.terms.values())
            assert abs(diff.l1_norm() - res.lam.sum()) <= 1e-9 * (1.0 + res.lam.sum())
        ok = True
    finally:
        _report(2, f"perturbation structure on {len(cases)} instances", ok)


def test_criterion_3_zero_duality_gap(all_solved):
    """sum(lam) = -L_{y*}(f) within 1e-7 relative on every solved instance."""
    ok = False
    try:
        for f, _, res in all_solved:
            gap = abs(res.lam.sum() - (-riesz(res.y_star, f)))
            assert gap <= 1e-7 * (1.0 + res.rho)
        ok = True
    finally:
        _report(3, f"zero duality gap on {len(all_solved)} instances", ok)


def test_criterion_4_certificate_soundness(all_solved):
    """sum_k w_k q_k^2 rebuilds g with l1 residual <= 1e-6 (1 + ||g||_1)."""
    ok = False
    try:
        for _, _, res in all_solved:
            recon = Polynomial.zero(res.g.n)
            for w, q in zip(res.certificate.weights, res.certificate.squares):
                recon = recon + w * (q * q)
            residual = (res.g - recon).l1_norm()
            assert residual <= 1e-6 * (1.0 + res.g.l1_norm())
        ok = True
    finally:
        _report(4, f"certificate soundness on {len(all_solved)} instances", ok)


def test_criterion_5_moment_bound():
    """|y_alpha| <= max(L_y(1), max_i L_y(x_i^2d)) for 100 random atomic
    moment vectors with n <= 3, d <= 3."""
    rng = np.random.default_rng(555)
    ok = False
    try:
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            points = rng.uniform(-2.0, 2.0, size=(k, n))
            weights = rng.uniform(0.05, 1.5, size=k)
            y = atomic_moments(n, 2 * d, points, weights)
            corners = [y.value((0,) * n)] + [
                y.value(tuple(2 * d if j == i else 0 for j in range(n)))
                for i in range(n)
            ]
            assert np.max(np.abs(y.values)) <= max(corners) + 1e-12
        ok = True
    finally:
        _report(5, "moment bound on 100 atomic measures", ok)


def test_criterion_6_sos_fixed_point(sos_instances):
    """Random SOS inputs are approximated with distance <= 1e-7."""
    ok = False
    try:
        for g, d, res in sos_instances:
            assert res.rho <= 1e-7
        ok = True
    finally:
        _report(6, f"SOS fixed point on {len(sos_instances)} instances", ok)


def test_criterion_7_cross_form_equivalence():
    """Coefficient-wise and reduced programs agree on rho within 1e-6."""
    x = Polynomial.variable(1, 0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rng = np.random.default_rng(31)
    instances = [
        (x**2, 1),
        (-(x**2), 1),
        (x**2 - x + 0.25, 1),
        (x1 * x2, 1),
        (x1**2 * x2**2 - x1 * x2 + 1.0, 2),
        (random_polynomial(rng, 2, 4, n_terms=6), 2),
        (random_polynomial(rng, 1, 2, n_terms=3), 1),
    ]
    ok = False
    try:
        for f, d in instances:
            reduced = best_l1_sos_approximation(f, d)
            full = solve(assemble_full_form(f, d))
            assert full.status == Status.OPTIMAL
            assert abs(reduced.rho - full.primal_objective) <= 1e-6
        ok = True
    finally:
        _report(7, f"cross-form equivalence on {len(instances)} instances", ok)


def test_criterion_8_baseline_inequality(table1, motzkin):
    """rho_d <= (n + 1) eps* + 1e-7 for the benchmark instance."""
    results, _ = table1
    ok = False
    try:
        for d in (3, 4, 5):
            eps, _ = uniform_sos_perturbation(motzkin, d)
            assert results[d].rho <= 3.0 * eps + 1e-7
        ok = True
    finally:
        _report(8, "tied-multiplier baseline dominates", ok)


def test_criterion_9_solver_unit_suite():
    """The three micro conic programs reach Optimal with tight gaps and
    match their closed-form optima."""
    micro = [
        # max y s.t. [[1, y], [y, 1]] PSD -> 1
        (ConicProblem((PsdBlock(2),), (np.eye(2),),
                      (Entries([0], [0], [1], [-1.0]),), [1.0]), 1.0),
        # min x s.t. x = 1, x >= 0 -> 1
        (ConicProblem((NonNegBlock(1),), (np.ones(1),),
                      (Entries([0], [0], [0], [1.0]),), [1.0]), 1.0),
        # min tr X s.t. X12 + X21 = 2, X PSD -> 2
        (ConicProblem((PsdBlock(2),), (np.eye(2),),
                      (Entries([0], [0], [1], [1.0]),), [2.0]), 2.0),
    ]
    ok = False
    try:
        for problem, optimum in micro:
            sol = solve(problem)
            assert sol.status is Status.OPTIMAL
            assert sol.gap <= 1e-8 * (1.0 + abs(sol.dual_objective))
            assert sol.primal_objective == pytest.approx(optimum, abs=1e-7)
            assert sol.dual_objective == pytest.approx(optimum, abs=1e-7)
        ok = True
    finally:
        _report(9, "solver unit suite (3 micro programs)", ok)
