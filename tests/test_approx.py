import numpy as np
import pytest

from l1sos import (
    NonNegBlock,
    Polynomial,
    PsdBlock,
    SolverFailure,
    SolverOptions,
    SosCertificate,
    SosRefutation,
    assemble_full_form,
    assemble_reduced_dual,
    basis_products,
    best_l1_sos_approximation,
    enumerate_basis,
    is_sos,
    moment_matrix,
    motzkin_like,
    riesz,
    uniform_sos_perturbation,
    verify,
)
from l1sos.approx import ApproximationResult

from conftest import random_polynomial


def x_(n, i):
    return Polynomial.variable(n, i)


def random_sos(rng, n, d, rank=None):
    """Random Gram matrix pushed through the basis products: always SOS."""
    bp = basis_products(n, d)
    s = len(bp.basis)
    rank = rank or s
    r = rng.standard_normal((s, rank))
    return bp.gram_polynomial(r @ r.T)


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
        assert np.all(res.lam == 0.0)
        assert res.solver.iterations == 0

    def test_solver_failure_propagates(self, motzkin):
        with pytest.raises(SolverFailure) as err:
            best_l1_sos_approximation(motzkin, 3, options=SolverOptions(max_iter=2))
        assert err.value.solution is not None
        assert "max_iterations" in str(err.value)

    def test_condition_warning(self):
        f = 1e8 * x_(1, 0) ** 2
        with pytest.warns(RuntimeWarning, match="l1 norm"):
            best_l1_sos_approximation(f, 1)

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
        full = best_l1_sos_approximation(f, d, full_form=True)
        assert abs(reduced.rho - full.rho) <= 1e-6

    def test_motzkin_full_form_verifies(self, motzkin):
        res = best_l1_sos_approximation(motzkin, 3, full_form=True)
        assert verify(res, motzkin, 3).all_passed


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


class TestUniformPerturbation:
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

    def test_report_renders(self, motzkin_result):
        res, f = motzkin_result
        text = str(verify(res, f, 3))
        assert "zero_duality_gap" in text and "pass" in text


@pytest.mark.filterwarnings("ignore:input has l1 norm")
def test_gram_gate_scales_with_input(motzkin):
    """rho scales with f: the Gram-reproduction tolerance is relative to
    g's largest coefficient, so 1e4 * f and 1e6 * f pass like f does."""
    rho_1 = best_l1_sos_approximation(motzkin, 3).rho
    for c in (1.0, 1e2, 1e4, 1e6):
        res = best_l1_sos_approximation(c * motzkin, 3)
        report = verify(res, c * motzkin, 3)
        assert report.all_passed, f"c={c}\n{report}"
        assert res.rho / c == pytest.approx(rho_1, rel=1e-6)
