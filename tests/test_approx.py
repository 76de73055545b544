import dataclasses

import numpy as np
import pytest

from l1sos import (
    ConicSolution,
    MomentVector,
    NonNegBlock,
    Polynomial,
    PsdBlock,
    SolverFailure,
    SosCertificate,
    SosRefutation,
    Status,
    StopReason,
    assemble_full_form,
    assemble_reduced_dual,
    basis_products,
    best_l1_sos_approximation,
    enumerate_basis,
    is_sos,
    moment_matrix,
    motzkin_like,
    riesz,
    solve,
    uniform_sos_perturbation,
    verify,
)
from l1sos import approx, sdp
from l1sos.approx import ApproximationResult

from conftest import dense_polynomial, near_motzkin, random_polynomial


def x_(n, i):
    return Polynomial.variable(n, i)


def random_sos(rng, n, d, rank=None):
    """Random Gram matrix pushed through the basis products: always SOS."""
    bp = basis_products(n, d)
    s = len(bp.basis)
    rank = rank or s
    r = rng.standard_normal((s, rank))
    return bp.gram_polynomial(r @ r.T)


def cli_table1_inputs(seed):
    """The SOS g and the non-SOS h of the cli-table1 benchmark workload at
    ``seed``: g = v(x)^T G v(x) with G = R R^T / 6 for a standard normal
    6 x 6 R, over the degree-2 basis in two variables, and h = g - g(0) - 0.5,
    which is negative at 0."""
    rng = np.random.default_rng(seed)
    dense_polynomial(rng, 2, 4)  # the workload's approx input, drawn first
    bp = basis_products(2, 2)
    r = rng.standard_normal((6, 6))
    g = bp.gram_polynomial(r @ r.T / 6)
    return g, g - (g.coefficient((0, 0)) + 0.5)


def not_sos_sweep():
    """(id, g, d) for 56 polynomials that are not SOS: multiples of
    Motzkin-like, dense random inputs and the cli-table1 h inputs."""
    f = motzkin_like()
    cases = [(f"motzkin*{c:g}", c * f, 3) for c in (1.0, 1e-8, 1e-4, 1e-2, 1e2, 1e4, 1e6)]
    for n, d in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)]:
        for k in range(3):
            rng = np.random.default_rng(1000 * n + 10 * d + k)
            cases.append((f"dense_n{n}_d{d}_{k}", dense_polynomial(rng, n, 2 * d), d))
    cases += [(f"cli_h{seed}", cli_table1_inputs(seed)[1], 2) for seed in range(1, 23)]
    return cases


def counting_solves(monkeypatch, tamper=None):
    """Record the status of every solve that approx runs, after ``tamper``
    has had its way with each solution."""
    statuses, real = [], approx.solve

    def solve(problem):
        sol = real(problem)
        if tamper is not None:
            tamper(sol)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(approx, "solve", solve)
    return statuses


class TestAssembleReducedDual:
    def test_block_structure_d3(self, motzkin):
        problem = assemble_reduced_dual(motzkin, 3)
        assert problem.blocks == (PsdBlock(10), NonNegBlock(3))
        assert problem.m == 28

    def test_block_structure_d5(self, motzkin):
        problem = assemble_reduced_dual(motzkin, 5)
        assert problem.blocks == (PsdBlock(21), NonNegBlock(3))
        assert problem.m == 66

    def test_rhs_is_padded_coefficients(self, motzkin):
        problem = assemble_reduced_dual(motzkin, 3)
        basis = enumerate_basis(2, 6)
        for i, mono in enumerate(basis.monomials):
            assert problem.b[i] == motzkin.coefficient(mono)
        assert np.count_nonzero(problem.b) == len(motzkin.terms)


class TestBestApproximation:
    def test_motzkin_d3_matches_benchmark(self, motzkin):
        res = best_l1_sos_approximation(motzkin, 3)
        assert res.rho == pytest.approx(1.6e-2, rel=0.05)
        assert res.lam[0] == pytest.approx(5.445e-3, rel=0.05)
        assert res.lam[1] == pytest.approx(5.367e-3, rel=0.05)
        assert res.lam[2] == pytest.approx(5.367e-3, rel=0.05)
        assert verify(res, motzkin, 3).all_passed

    @pytest.mark.parametrize("d", [3, 5])
    def test_cold_and_warm_cache_bit_identical(self, motzkin, d):
        # The shared bases and label matrices change no bit of a solve.
        enumerate_basis.cache_clear()
        basis_products.cache_clear()
        cold = best_l1_sos_approximation(motzkin, d)
        assert basis_products.cache_info().currsize == 1
        warm = best_l1_sos_approximation(motzkin, d)
        assert basis_products.cache_info().hits >= 1
        assert warm.rho == cold.rho
        assert np.array_equal(warm.lam, cold.lam)
        assert np.array_equal(warm.gram, cold.gram)
        assert np.array_equal(warm.y_star.values, cold.y_star.values)
        assert warm.y_star.basis is cold.y_star.basis

    def test_already_sos_fixed_point(self):
        f = x_(1, 0) ** 2
        res = best_l1_sos_approximation(f, 1)
        assert res.rho <= 1e-7
        assert (res.g - f).l1_norm() <= 1e-7

    def test_negative_square(self):
        # Oracle: brute-force over SOS g = a + b*x + c*x^2 (a, c >= 0,
        # b^2 <= 4ac).  ||f - g||_1 = |a| + |b| + |1 + c| >= 1 with the
        # minimum at g = 0.
        best = np.inf
        for a in np.linspace(0.0, 2.0, 41):
            for c in np.linspace(0.0, 2.0, 41):
                bmax = 2.0 * np.sqrt(a * c)
                for b in np.linspace(-bmax, bmax, 21) if bmax else [0.0]:
                    best = min(best, a + abs(b) + abs(1.0 + c))
        assert best == pytest.approx(1.0, abs=1e-12)

        f = -(x_(1, 0) ** 2)
        res = best_l1_sos_approximation(f, 1)
        assert res.rho == pytest.approx(1.0, abs=1e-6)
        assert res.lam[0] == pytest.approx(0.0, abs=1e-6)
        assert res.lam[1] == pytest.approx(1.0, abs=1e-6)
        assert res.g.l1_norm() <= 1e-6

    def test_degree_bound_too_small(self, motzkin):
        with pytest.raises(ValueError, match="degree bound too small"):
            best_l1_sos_approximation(motzkin, 2)

    def test_zero_polynomial_shortcut(self):
        res = best_l1_sos_approximation(Polynomial.zero(2), 3)
        assert res.rho == 0.0
        assert res.g.is_zero()
        assert res.gram.shape == (10, 10)
        assert res.y_star.basis is enumerate_basis(2, 6)
        assert np.all(res.lam == 0.0)
        assert res.solver.iterations == 0
        assert res.solver.status is Status.OPTIMAL
        assert res.solver.stop_reason is StopReason.CONVERGED
        assert res.solver.trace == () and res.solver.phase_times == ()

    @pytest.mark.parametrize(
        "entry",
        [
            best_l1_sos_approximation, uniform_sos_perturbation, is_sos, assemble_full_form,
            assemble_reduced_dual,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_degree_zero_rejected(self, motzkin, entry):
        with pytest.raises(ValueError) as err:
            entry(motzkin, 0)
        assert "degree bound d must be >= 1" in str(err.value)

    @pytest.mark.parametrize(
        "entry", [best_l1_sos_approximation, uniform_sos_perturbation, is_sos],
        ids=lambda fn: fn.__name__,
    )
    def test_solver_failure_propagates(self, monkeypatch, motzkin, entry):
        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        with pytest.raises(SolverFailure) as err:
            entry(motzkin, 3)
        assert err.value.solution is not None
        assert "max_iterations" in str(err.value)
        assert err.value.solution.stop_reason is StopReason.MAX_ITERATIONS

    def test_overflow_refused_before_arithmetic(self):
        # Both coefficients are finite, but the solve's iterates are not.
        # Its status is read before lam, rho and g are formed from them, so
        # the caller gets SolverFailure and no RuntimeWarning.
        f = Polynomial(2, {(0, 0): 1e308, (2, 0): 1e308})
        with pytest.raises(SolverFailure, match="not_finite") as err:
            best_l1_sos_approximation(f, 1)
        assert err.value.solution.stop_reason is StopReason.NOT_FINITE

    def test_report_names_stop_reason(self, motzkin):
        assert best_l1_sos_approximation(motzkin, 3).solver.stop_reason is StopReason.CONVERGED

    def test_result_keeps_its_solve(self, motzkin_result):
        # The result carries the solve itself: its trace ends at the
        # reported gap, one phase-time row per step, and every step's
        # Schur shift is recorded.
        sol = motzkin_result[0].solver
        assert isinstance(sol, ConicSolution)
        assert sol.trace[-1].gap == sol.gap
        assert len(sol.phase_times) == sol.iterations
        assert all(np.isfinite(row.reg) for row in sol.trace[:-1])
        assert np.isnan(sol.trace[-1].reg)

    def test_monotone_in_degree(self, motzkin):
        rhos = [best_l1_sos_approximation(motzkin, d).rho for d in (3, 4, 5)]
        assert rhos[1] <= rhos[0] + 1e-7
        assert rhos[2] <= rhos[1] + 1e-7

    def test_value_equals_moment_objective(self):
        # rho = -L_{y*}(f) for SOS-leaning random inputs.
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = random_sos(rng, 2, 1) + 0.1 * random_polynomial(rng, 2, 2)
            res = best_l1_sos_approximation(f, 1)
            assert abs(res.rho + riesz(res.y_star, f)) <= 1e-7 * (1.0 + res.rho)

    def test_structure_for_random_inputs(self):
        rng = np.random.default_rng(22)
        pattern = {(0, 0), (4, 0), (0, 4)}
        for _ in range(10):
            f = random_polynomial(rng, 2, 4)
            res = best_l1_sos_approximation(f, 2)
            diff = res.g - f
            assert set(diff.terms) <= pattern
            assert res.lam.min() >= -1e-9
            assert abs(res.rho - diff.l1_norm()) <= 1e-9 * (1.0 + res.rho)
            assert verify(res, f, 2).all_passed


# Dense bivariate inputs whose solves end at the primal feasibility floor:
# dense_polynomial(default_rng(100 + k), 2, 2d) for k = 0..5, d = 5..11.
# With the HKM search direction, which the solver used before the
# Nesterov-Todd one, 16 of the 42 raised SolverFailure, with one BLAS thread
# and with two; with the Nesterov-Todd direction none does.  The bound may
# fall; it must never rise.
ENDGAME_CORPUS_MAX_FAILURES = 0


def test_endgame_corpus_failures_do_not_grow():
    failed = []
    for d in range(5, 12):
        for k in range(6):
            f = dense_polynomial(np.random.default_rng(100 + k), 2, 2 * d)
            try:
                best_l1_sos_approximation(f, d)
            except SolverFailure as exc:
                failed.append((k, d, str(exc)))
    assert len(failed) <= ENDGAME_CORPUS_MAX_FAILURES, failed


class TestFullForm:
    def test_assemble_shapes(self):
        f = x_(2, 0) * x_(2, 1)
        problem = assemble_full_form(f, 1)
        s1 = 6  # monomials of degree <= 2 in two variables
        assert problem.blocks == (PsdBlock(3), NonNegBlock(s1), NonNegBlock(s1), NonNegBlock(s1))
        assert problem.m == 2 * s1

    @pytest.mark.parametrize(
        "f,d",
        [
            (lambda: x_(1, 0) ** 2, 1),
            (lambda: -(x_(1, 0) ** 2), 1),
            (lambda: x_(2, 0) * x_(2, 1), 1),
            (lambda: x_(2, 0) ** 2 * x_(2, 1) ** 2 - x_(2, 0) * x_(2, 1) + 1.0, 2),
        ],
    )
    def test_agrees_with_reduced(self, f, d):
        f = f()
        reduced = best_l1_sos_approximation(f, d)
        full = solve(assemble_full_form(f, d))
        assert full.status == Status.OPTIMAL
        assert abs(reduced.rho - full.primal_objective) <= 1e-6


class TestIsSos:
    def test_simple_sos(self):
        cert = is_sos(x_(1, 0) ** 2 + 1.0, 1)
        assert isinstance(cert, SosCertificate)
        assert cert.is_sos
        assert cert.residual <= 1e-6 * (1.0 + 2.0)
        recon = Polynomial.zero(1)
        for w, q in zip(cert.weights, cert.squares):
            recon = recon + w * (q * q)
        assert (recon - (x_(1, 0) ** 2 + 1.0)).l1_norm() <= 1e-6

    def test_rank_one_boundary_case(self):
        g = (x_(2, 0) + x_(2, 1)) ** 2
        cert = is_sos(g, 1)
        assert cert.is_sos
        assert len(cert.squares) == 1  # rank-1 Gram matrix
        assert cert.residual <= 1e-6 * (1.0 + g.l1_norm())

    def test_motzkin_refuted(self, motzkin):
        ref = is_sos(motzkin, 3)
        assert isinstance(ref, SosRefutation)
        assert not ref.is_sos
        assert ref.value < -1e-9
        eigs = np.linalg.eigvalsh(moment_matrix(ref.witness, 3))
        assert eigs[0] >= -1e-8
        assert riesz(ref.witness, motzkin) == pytest.approx(ref.value)

    def test_zero_polynomial(self):
        cert = is_sos(Polynomial.zero(2), 1)
        assert cert.is_sos and cert.squares == ()

    def test_overflowing_norm_refused(self):
        # ||g||_1 = inf: g / ||g||_1 would be the zero polynomial.
        g = Polynomial(2, {(0, 0): 1e308, (2, 0): 1e308})
        with pytest.raises(ValueError, match="l1 norm of g overflows"):
            is_sos(g, 1)

    def test_random_sos_accepted(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_sos(rng, 2, 1)
            cert = is_sos(g, 1)
            assert cert.is_sos
            assert cert.residual <= 1e-6 * (1.0 + g.l1_norm())

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            is_sos(x_(1, 0) ** 4, 1)

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-4, 1.0, 1e2, 1e4, 1e6])
    def test_scale_invariant(self, motzkin, c):
        # The SOS threshold applies to g / ||g||_1: a small multiple of a
        # non-SOS polynomial is still refuted, and a multiple of an SOS one
        # is still certified, with its residual in g's units.
        ref = is_sos(c * motzkin, 3)
        assert isinstance(ref, SosRefutation)
        assert ref.value < 0.0
        assert riesz(ref.witness, c * motzkin) == pytest.approx(ref.value)
        g = c * random_sos(np.random.default_rng(29), 2, 2)
        cert = is_sos(g, 2)
        assert isinstance(cert, SosCertificate)
        assert cert.residual <= 1e-6 * g.l1_norm()


NOT_SOS = not_sos_sweep()


class TestFarkasRayRefutation:
    @pytest.mark.parametrize("g,d", [case[1:] for case in NOT_SOS], ids=[case[0] for case in NOT_SOS])
    def test_refuted_from_the_ray(self, monkeypatch, g, d):
        # One membership solve, infeasible; its ray, scaled to corner
        # moments at most 1, is the witness, and it verifies.
        statuses = counting_solves(monkeypatch)
        ref = is_sos(g, d)
        assert statuses == [Status.INFEASIBLE]
        assert isinstance(ref, SosRefutation)
        assert verify(ref, g, d).all_passed
        d0 = ref.witness.degree // 2
        corners = [ref.witness.value(m) for m in approx._perturbation_monomials(g.n, 2 * d0)]
        assert max(corners) == 1.0
        assert ref.value == riesz(ref.witness, g)

    @pytest.mark.parametrize("name", ["motzkin*1", "dense_n3_d2_0", "dense_n2_d5_0"])
    def test_ray_value_bounds_rho(self, name):
        # The scaled ray is feasible for the bounded program, so
        # -L_y(g / ||g||_1) <= rho_{d0}(g / ||g||_1).
        g, d = next(case[1:] for case in NOT_SOS if case[0] == name)
        unit = g * (1.0 / g.l1_norm())
        ref = is_sos(g, d)
        rho = best_l1_sos_approximation(unit, ref.witness.degree // 2).rho
        assert 0.0 < -riesz(ref.witness, unit) <= rho * (1.0 + 1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tamper", ["zero", "positive_value", "not_psd"])
    def test_refused_when_ray_fails_check(self, motzkin, monkeypatch, tamper):
        # The ray is replaced by y = 0, which has no positive corner moment
        # and L_y(g) = 0; by y = 1 at the constant, which has a PSD moment
        # matrix but L_y(g) = g(0) > 0; or by y = 1 at 1 and x1^2 x2^2, which
        # has L_y(g) = 1/27 - 1 < 0 but the indefinite 2 x 2 minor
        # [[0, 1], [1, 0]] at (x1, x1 x2^2).  Each is refused after the one
        # solve, on the witness check it fails.  Motzkin-like keeps one
        # constraint per orbit of even monomials under x1 <-> x2, in basis
        # order of the orbits' first members, those with alpha_1 >= alpha_2.
        # 1 and x1^2 x2^2 are orbits of their own, so y = -dual there.
        even = [
            m for m in enumerate_basis(2, 6).monomials if not any(e % 2 for e in m) and m[0] >= m[1]
        ]
        ones = {"zero": [], "positive_value": [(0, 0)], "not_psd": [(0, 0), (2, 2)]}[tamper]
        failed = {
            "zero": "witness_value_negative",
            "positive_value": "witness_value_negative",
            "not_psd": "witness_moment_psd",
        }[tamper]

        def replace_dual(sol):
            if sol.status == Status.INFEASIBLE:
                sol.dual = np.zeros(sol.dual.size)
                sol.dual[[even.index(m) for m in ones]] = -1.0

        statuses = counting_solves(monkeypatch, replace_dual)
        with pytest.raises(SolverFailure) as err:
            is_sos(motzkin, 3)
        assert statuses == [Status.INFEASIBLE]
        assert err.value.check.name == failed
        assert not err.value.check.passed
        assert err.value.solution.stop_reason is StopReason.FARKAS_RAY
        assert failed.replace("_", " ") in str(err.value)


class TestMembershipExits:
    """The membership program has a zero objective, so its solve ends at the
    first exact certificate: a feasible Gram iterate or a Farkas ray."""

    def solves(self, monkeypatch):
        sols = []
        counting_solves(monkeypatch, sols.append)
        return sols

    def test_strictly_sos_ends_at_feasible_point(self, monkeypatch):
        sols = self.solves(monkeypatch)
        g = random_sos(np.random.default_rng(31), 3, 2)
        cert = is_sos(g, 2)
        assert [(sol.status, sol.stop_reason) for sol in sols] == [
            (Status.OPTIMAL, StopReason.FEASIBLE_POINT)
        ]
        assert sols[0].iterations <= 4
        assert verify(cert, g, 2).all_passed

    def test_motzkin_ends_at_farkas_ray(self, monkeypatch, motzkin):
        sols = self.solves(monkeypatch)
        ref = is_sos(motzkin, 3)
        assert [(sol.status, sol.stop_reason) for sol in sols] == [
            (Status.INFEASIBLE, StopReason.FARKAS_RAY)
        ]
        assert sols[0].iterations <= 5
        assert verify(ref, motzkin, 3).all_passed

    @pytest.mark.parametrize("t", [0.5, 0.9, 0.99, 0.999, 0.9999, 1.001, 1.01])
    def test_near_sos_decided_in_one_solve(self, monkeypatch, t):
        g = near_motzkin(t)
        sols = self.solves(monkeypatch)
        answer = is_sos(g, 3)
        assert len(sols) == 1
        assert answer.is_sos == (t > 1.0)
        assert verify(answer, g, 3).all_passed

    @pytest.mark.parametrize(
        "source,delta",
        [("motzkin", 1e-5), ("motzkin", 1e-6), ("dense_n2_d2", 1e-7)],
        ids=["motzkin-1e-5", "motzkin-1e-6", "dense_n2_d2-1e-7"],
    )
    def test_undecidable_input_refused(self, monkeypatch, source, delta):
        # f + (1 - delta)(g - f), with g an SOS approximant of f on the
        # boundary of the cone: the uniform one of Motzkin-like, or the best
        # one of a dense (2, 2) input.  Double precision cannot decide these,
        # so the answer is a refusal.  The solve ends at a Farkas ray that
        # has a PSD moment matrix but misses the witness margin, and no
        # second solve turns the miss into an SOS verdict.
        if source == "motzkin":
            g, d = near_motzkin(1.0 - delta), 3
        else:
            f = dense_polynomial(np.random.default_rng(11), 2, 4)
            approximant = best_l1_sos_approximation(f, 2).g
            g, d = f + (1.0 - delta) * (approximant - f), 2
        sols = self.solves(monkeypatch)
        with pytest.raises(SolverFailure) as err:
            is_sos(g, d)
        assert len(sols) == 1
        assert err.value.solution is sols[0]
        assert err.value.solution.stop_reason is StopReason.FARKAS_RAY
        assert err.value.check.name == "witness_value_negative"


class TestVerifySosAnswers:
    def test_ladder_refutations_verify(self, motzkin):
        for d in range(3, 12):
            report = verify(is_sos(motzkin, d), motzkin, d)
            assert report.all_passed, f"d={d}\n{report}"
            assert [c.name for c in report.checks] == [
                "witness_moment_psd", "witness_value_negative",
            ]

    def test_cli_table1_certificates_verify(self):
        for seed in range(1, 23):
            g = cli_table1_inputs(seed)[0]
            cert = is_sos(g, 2)
            assert isinstance(cert, SosCertificate)
            report = verify(cert, g, 2)
            assert report.all_passed, f"seed={seed}\n{report}"
            assert [c.name for c in report.checks] == [
                "certificate_weights_positive", "certificate_reconstruction",
            ]

    def test_negated_witness_fails(self, motzkin):
        ref = is_sos(motzkin, 3)
        y = MomentVector(ref.witness.basis, -ref.witness.values)
        report = verify(SosRefutation(y, -ref.value), motzkin, 3)
        assert not any(c.passed for c in report.checks)

    def test_negative_diagonal_moment_fails(self, motzkin):
        ref = is_sos(motzkin, 3)
        values = ref.witness.values.copy()
        values[ref.witness.basis.index_of((2, 0))] = -1.0
        y = MomentVector(ref.witness.basis, values)
        checks = {c.name: c for c in verify(SosRefutation(y, riesz(y, motzkin)), motzkin, 3).checks}
        assert not checks["witness_moment_psd"].passed

    def test_witness_of_another_degree_fails(self, motzkin):
        # A degree-4 y cannot fill M_3: report entries, not an exception.
        ref = is_sos(motzkin, 3)
        basis = enumerate_basis(2, 4)
        y = MomentVector(basis, ref.witness.values[: len(basis)])
        report = verify(SosRefutation(y, ref.value), motzkin, 3)
        assert [c.residual for c in report.checks] == [float("inf")] * 2

    def test_changed_weight_fails(self):
        # The stored residual is not read: a certificate with one weight
        # changed by 1e-3 fails although its residual still reads small.
        g = cli_table1_inputs(1)[0]
        cert = is_sos(g, 2)
        weights = list(cert.weights)
        weights[-1] *= 1.0 + 1e-3
        tampered = SosCertificate(cert.squares, tuple(weights), cert.residual)
        failed = {c.name for c in verify(tampered, g, 2).checks if not c.passed}
        assert failed == {"certificate_reconstruction"}

    def test_zero_polynomial(self):
        g = Polynomial.zero(2)
        assert verify(is_sos(g, 1), g, 1).all_passed


class TestUniformPerturbation:
    def test_zero_polynomial(self):
        zero = Polynomial.zero(2)
        assert uniform_sos_perturbation(zero, 2) == (0.0, zero)

    def test_sos_input_needs_nothing(self):
        eps, g = uniform_sos_perturbation(x_(1, 0) ** 2 + 1.0, 1)
        assert eps <= 1e-7

    def test_negative_square_needs_one(self):
        # Oracle: f + eps*(1 + x^2) = eps + (eps - 1)x^2 has the unique
        # diagonal Gram diag(eps, eps - 1), PSD exactly when eps >= 1.
        grid = np.linspace(0.0, 2.0, 2001)
        feasible = grid[(grid >= 0.0) & (grid - 1.0 >= 0.0)]
        assert feasible[0] == pytest.approx(1.0, abs=1e-3)

        eps, g = uniform_sos_perturbation(-(x_(1, 0) ** 2), 1)
        assert eps == pytest.approx(1.0, abs=1e-6)
        assert g.coefficient((0,)) == pytest.approx(1.0, abs=1e-6)

    def test_dominates_free_multipliers(self, motzkin):
        # The tied point is feasible for the free-multiplier program, so
        # rho_d <= (n + 1) * eps.
        for d in (3, 4):
            eps, _ = uniform_sos_perturbation(motzkin, d)
            rho = best_l1_sos_approximation(motzkin, d).rho
            assert rho <= 3.0 * eps + 1e-7


def gram_10x9(res):
    return {"gram": res.gram[:, :9]}


def gram_1d(res):
    return {"gram": res.gram[0]}


def gram_nan(res):
    return {"gram": np.full_like(res.gram, np.nan)}


def y_star_in_3_variables(res):
    basis = enumerate_basis(3, 6)
    values = [res.y_star.value(m[:2]) if m[2] == 0 else 0.0 for m in basis.monomials]
    return {"y_star": MomentVector(basis, values)}


def y_star_of_degree_4(res):
    basis = enumerate_basis(2, 4)
    return {"y_star": MomentVector(basis, res.y_star.values[: len(basis)])}


def g_in_3_variables(res):
    return {"g": Polynomial(3, {m + (0,): c for m, c in res.g.terms.items()})}


def lam_of_length_2(res):
    return {"lam": res.lam[:2]}


def lam_empty(res):
    return {"lam": np.zeros(0)}


def lam_with_extra_zero(res):
    return {"lam": np.append(res.lam, 0.0)}


def lam_with_nan(res):
    return {"lam": np.where(np.arange(res.lam.size) == 1, np.nan, res.lam)}


# Malformed variants of the Motzkin-like d = 3 result, with the checks that
# read the malformed part.
LAM_CHECKS = ("perturbation_structure", "rho_equals_l1_distance")
MALFORMED = [
    (gram_10x9, ("gram_reproduces_g", "gram_psd")),
    (gram_1d, ("gram_reproduces_g", "gram_psd")),
    (gram_nan, ("gram_reproduces_g", "gram_psd")),
    (y_star_in_3_variables, ("zero_duality_gap", "moment_vector_feasible")),
    (y_star_of_degree_4, ("zero_duality_gap", "moment_vector_feasible")),
    (g_in_3_variables, LAM_CHECKS + ("gram_reproduces_g",)),
    (lam_of_length_2, LAM_CHECKS),
    (lam_empty, LAM_CHECKS),
    (lam_with_extra_zero, LAM_CHECKS),
    (lam_with_nan, LAM_CHECKS + ("nonnegative_multipliers",)),
]


@pytest.fixture(scope="module")
def motzkin_result(motzkin):
    return best_l1_sos_approximation(motzkin, 3), motzkin


class TestVerify:
    def test_all_checks_pass(self, motzkin_result):
        res, f = motzkin_result
        report = verify(res, f, 3)
        assert report.all_passed
        assert len(report.checks) == 9

    def test_tampered_lambda_detected(self, motzkin_result):
        res, f = motzkin_result
        lam = res.lam.copy()
        lam[1] = -lam[1]
        tampered = ApproximationResult(
            lam=lam, rho=res.rho, g=res.g, y_star=res.y_star,
            gram=res.gram, certificate=res.certificate, solver=res.solver,
        )
        report = verify(tampered, f, 3)
        failed = {c.name for c in report.checks if not c.passed}
        assert "nonnegative_multipliers" in failed
        assert "perturbation_structure" in failed

    def test_tampered_g_detected(self, motzkin_result):
        res, f = motzkin_result
        # Perturb a coefficient outside the perturbation pattern.
        g = res.g + Polynomial.monomial(2, (1, 1), 1e-5)
        tampered = ApproximationResult(
            lam=res.lam, rho=res.rho, g=g, y_star=res.y_star,
            gram=res.gram, certificate=res.certificate, solver=res.solver,
        )
        report = verify(tampered, f, 3)
        failed = {c.name for c in report.checks if not c.passed}
        assert "perturbation_structure" in failed

    def test_g_above_degree_fails_gram_check(self, motzkin_result):
        # x1^7 lies outside the degree-6 product basis: a report entry, not
        # an exception.
        res, f = motzkin_result
        g = res.g + Polynomial.monomial(2, (7, 0), 1e-3)
        tampered = ApproximationResult(
            lam=res.lam, rho=res.rho, g=g, y_star=res.y_star,
            gram=res.gram, certificate=res.certificate, solver=res.solver,
        )
        report = verify(tampered, f, 3)
        failed = {c.name for c in report.checks if not c.passed}
        assert {"gram_reproduces_g", "certificate_reconstruction"} <= failed

    def test_square_outside_basis_fails_reconstruction(self, motzkin_result):
        res, f = motzkin_result
        squares = list(res.certificate.squares)
        squares[-1] = squares[-1] + Polynomial.monomial(2, (4, 0), 1e-3)
        cert = SosCertificate(tuple(squares), res.certificate.weights, 0.0)
        tampered = ApproximationResult(
            lam=res.lam, rho=res.rho, g=res.g, y_star=res.y_star,
            gram=res.gram, certificate=cert, solver=res.solver,
        )
        report = verify(tampered, f, 3)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"certificate_reconstruction"}

    @pytest.mark.parametrize("solved_at,checked_at", [(3, 4), (4, 3)])
    def test_result_of_another_degree_fails(self, motzkin, solved_at, checked_at):
        # The Gram matrix is s(3) x s(3) against s(4) x s(4), or the reverse,
        # and y* of degree 6 cannot fill a degree-4 moment matrix: report
        # entries with residual inf, not an exception.
        res = best_l1_sos_approximation(motzkin, solved_at)
        checks = {c.name: c for c in verify(res, motzkin, checked_at).checks}
        for name in ("gram_reproduces_g", "moment_vector_feasible", "certificate_reconstruction"):
            assert not checks[name].passed
            assert checks[name].residual == float("inf")

    @pytest.mark.parametrize("c,d", [(1e-6, 5), (1e-3, 5), (1e-3, 6), (1e-2, 3)])
    def test_small_scale_result_judged_by_its_accuracy(self, motzkin, c, d):
        # The solver stops early on tiny multiples of f (at c = 1e-6, d = 5
        # rho was 23 times the true distance, with an absolute gap above rho
        # itself).  Such a result is refused; one that is returned verifies
        # and agrees with the unscaled rho.
        rho_1 = best_l1_sos_approximation(motzkin, d).rho
        try:
            res = best_l1_sos_approximation(c * motzkin, d)
        except SolverFailure as exc:
            assert "duality gap" in str(exc)
            return
        assert verify(res, c * motzkin, d).all_passed
        assert abs(res.rho / c - rho_1) <= 1e-3 * rho_1

    def test_duality_gap_tolerance_scales_with_input(self, motzkin):
        # lam_0 raised by 1e-8 on 0.01 f: every other check still passes,
        # and so would the gap under a fixed 1e-7 (1 + rho).
        f = 1e-2 * motzkin
        res = best_l1_sos_approximation(f, 3)
        lam = res.lam + np.eye(res.lam.size)[0] * 1e-8
        tampered = ApproximationResult(
            lam=lam, rho=float(lam.sum()), g=res.g + 1e-8, y_star=res.y_star,
            gram=res.gram, certificate=res.certificate, solver=res.solver,
        )
        checks = {c.name: c for c in verify(tampered, f, 3).checks}
        assert {name for name, c in checks.items() if not c.passed} == {"zero_duality_gap"}
        assert checks["zero_duality_gap"].residual <= 1e-7 * (1.0 + tampered.rho)

    def test_report_renders(self, motzkin_result):
        res, f = motzkin_result
        text = str(verify(res, f, 3))
        assert "zero_duality_gap" in text and "pass" in text

    @pytest.mark.parametrize("malform,failing", MALFORMED, ids=[m.__name__ for m, _ in MALFORMED])
    def test_malformed_result_fails_a_check(self, motzkin_result, malform, failing):
        # Each malformed part fails the checks that read it, with residual
        # inf: a report, not an exception.
        res, f = motzkin_result
        report = verify(dataclasses.replace(res, **malform(res)), f, 3)
        failed = {c.name: c.residual for c in report.checks if not c.passed}
        assert {name: failed.get(name) for name in failing} == dict.fromkeys(failing, np.inf)


def test_gram_gate_scales_with_input(motzkin):
    """rho scales with f: the Gram-reproduction tolerance is relative to
    g's largest coefficient, so 1e4 * f and 1e6 * f pass like f does."""
    rho_1 = best_l1_sos_approximation(motzkin, 3).rho
    for c in (1.0, 1e2, 1e4, 1e6):
        res = best_l1_sos_approximation(c * motzkin, 3)
        report = verify(res, c * motzkin, 3)
        assert report.all_passed, f"c={c}\n{report}"
        assert res.rho / c == pytest.approx(rho_1, rel=1e-6)


def scale_gram_blocks(sol):
    for x in sol.primal[:-1]:
        x *= 1.0 + 1e-5


def shift_dual(sol):
    sol.dual = sol.dual + 1e-5


@pytest.mark.parametrize(
    "tamper,name",
    [(scale_gram_blocks, "gram_reproduces_g"), (shift_dual, "zero_duality_gap")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_refusal_is_verify_verdict(monkeypatch, motzkin, tamper, name):
    """The pipeline refuses a tampered solve on the check that verify fails
    for the result assembled from the same tampered parts, with the same
    residual."""
    counting_solves(monkeypatch, tamper)
    with pytest.raises(SolverFailure) as err:
        best_l1_sos_approximation(motzkin, 3)
    assert name.replace("_", " ") in str(err.value)
    bp, gram, raw, y_star, sol = approx._moment_side_solution(motzkin, 3, 3)
    lam = np.clip(raw, 0.0, None)
    g = motzkin + approx._perturbation(2, 6, lam)
    res = ApproximationResult(
        lam=lam, rho=float(lam.sum()), g=g, y_star=y_star, gram=gram,
        certificate=approx._extract_certificate(gram, bp, g), solver=sol,
    )
    checks = {c.name: c for c in verify(res, motzkin, 3).checks}
    assert not checks[name].passed
    assert checks[name] == err.value.check


@pytest.mark.parametrize(
    "tamper,name",
    [(scale_gram_blocks, "gram_reproduces_g"), (shift_dual, "zero_duality_gap")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_baseline_refusal_is_verify_verdict(monkeypatch, motzkin, tamper, name):
    """The baseline refuses a tampered solve on the check that verify's
    own functions fail for the same tampered parts."""
    counting_solves(monkeypatch, tamper)
    with pytest.raises(SolverFailure) as err:
        uniform_sos_perturbation(motzkin, 3)
    bp, gram, raw, y, _ = approx._moment_side_solution(motzkin, 3, 1)
    eps = float(max(raw[0], 0.0))
    g = motzkin + approx._perturbation(2, 6, np.full(3, eps))
    checks = {
        c.name: c for c in (approx._gram_check(bp, gram, g), approx._gap_check(motzkin, eps, y))
    }
    assert err.value.check.name == name
    assert checks[name] == err.value.check


def test_baseline_refuses_small_scale_gap(motzkin, motzkin_result):
    # At c = 1e-6 the tied program stops with eps / c = 0.0088 against
    # 0.0054 at c = 1, and -L_y(f) disagrees with eps by far more than the
    # gap tolerance.
    with pytest.raises(SolverFailure) as err:
        uniform_sos_perturbation(1e-6 * motzkin, 3)
    assert err.value.check.name == "zero_duality_gap"
    # A refusal carries the same record of the solve as an accepted result.
    assert type(err.value.solution) is type(motzkin_result[0].solver)
