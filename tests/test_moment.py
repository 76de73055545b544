import math

import numpy as np
import pytest
from scipy.integrate import quad

from l1sos import (
    MomentVector,
    Polynomial,
    atomic_moments,
    basis_products,
    enumerate_basis,
    gaussian_moments,
    moment_matrix,
    riesz,
)

from conftest import random_polynomial


class TestEnumerateBasis:
    def test_univariate(self):
        basis = enumerate_basis(1, 2)
        assert basis.monomials == ((0,), (1,), (2,))

    @pytest.mark.parametrize("n,d,size", [(2, 2, 6), (2, 5, 21), (3, 3, 20), (1, 0, 1)])
    def test_sizes(self, n, d, size):
        basis = enumerate_basis(n, d)
        assert len(basis) == size == math.comb(n + d, n)

    def test_ordering_and_index(self):
        basis = enumerate_basis(2, 2)
        assert basis.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert basis.index_of((0, 0)) == 0
        for i, mono in enumerate(basis.monomials):
            assert basis.index_of(mono) == i

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 2)
        with pytest.raises(ValueError):
            enumerate_basis(-1, 2)
        with pytest.raises(ValueError):
            enumerate_basis(2, -1)


def reference_pairs(n, d):
    """The (i, j) pairs of every B_alpha by the direct double loop over the
    basis, row-major within each alpha: the reference for the label matrix."""
    basis = enumerate_basis(n, d)
    grouped = {m: [] for m in enumerate_basis(n, 2 * d).monomials}
    for i, beta in enumerate(basis.monomials):
        for j, gamma in enumerate(basis.monomials):
            grouped[tuple(a + b for a, b in zip(beta, gamma))].append((i, j))
    return {m: np.array(ij).reshape(-1, 2) for m, ij in grouped.items()}


# Sizes of the benchmark's dense inputs and the largest Motzkin-like degree.
LADDER_SIZES = [(2, 11), (3, 5), (4, 4), (6, 2)]


class TestBasisProducts:
    def test_univariate_degree_one(self):
        bp = basis_products(1, 1)
        assert np.array_equal(bp.matrix((0,)), [[1, 0], [0, 0]])
        assert np.array_equal(bp.matrix((1,)), [[0, 1], [1, 0]])
        assert np.array_equal(bp.matrix((2,)), [[0, 0], [0, 1]])

    def test_mixed_monomial_positions(self):
        bp = basis_products(2, 1)
        # basis order: 1, x1, x2 -> x1*x2 hits (x1, x2) and (x2, x1)
        expected = np.zeros((3, 3))
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(bp.matrix((1, 1)), expected)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 1), (4, 4)])
    def test_total_entry_count(self, n, d):
        bp = basis_products(n, d)
        s = len(bp.basis)
        total = sum(bp.matrix(a).sum() for a in bp.product_basis.monomials)
        assert total == s * s

    def test_entry_count_matches_pair_count(self):
        bp = basis_products(2, 2)
        basis = bp.basis
        for alpha in bp.product_basis.monomials:
            count = sum(
                1
                for beta in basis.monomials
                for gamma in basis.monomials
                if tuple(b + g for b, g in zip(beta, gamma)) == alpha
            )
            assert np.count_nonzero(bp.matrix(alpha)) == count

    @pytest.mark.parametrize("n,d", LADDER_SIZES + [(1, 3), (3, 1)])
    def test_labels_match_reference_pairs(self, n, d):
        bp = basis_products(n, d)
        for alpha, ij in reference_pairs(n, d).items():
            a = bp.product_basis.index_of(alpha)
            assert np.array_equal(np.argwhere(bp.labels == a), ij)

    @pytest.mark.parametrize("n,d", LADDER_SIZES)
    def test_gram_coefficients_bit_identical(self, n, d):
        # Each group summed alone in row-major order, as the reference does,
        # keeps every bit; a single weighted bincount would not.
        rng = np.random.default_rng(n * 100 + d)
        bp = basis_products(n, d)
        pairs = reference_pairs(n, d)
        for _ in range(3):
            r = rng.standard_normal((len(bp.basis),) * 2)
            x = r @ r.T
            ref = np.array([x[ij[:, 0], ij[:, 1]].sum() for ij in pairs.values()])
            assert np.array_equal(bp.gram_coefficients(x), ref)
            poly = bp.gram_polynomial(x)
            assert poly == Polynomial(n, dict(zip(pairs, ref)))
            assert list(poly.terms) == list(pairs)

    def test_outer_product_identity(self):
        # v_d(x) v_d(x)^T must equal sum_alpha x^alpha B_alpha pointwise.
        rng = np.random.default_rng(3)
        bp = basis_products(2, 2)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            v = np.array([x[0] ** a * x[1] ** b for a, b in bp.basis.monomials])
            outer = np.outer(v, v)
            recon = sum(
                x[0] ** a * x[1] ** b * bp.matrix((a, b))
                for a, b in bp.product_basis.monomials
            )
            assert np.allclose(outer, recon, rtol=1e-12, atol=1e-12)


class TestMomentMatrix:
    def test_univariate_identity(self):
        y = MomentVector(enumerate_basis(1, 2), [1.0, 0.0, 1.0])
        assert np.array_equal(moment_matrix(y, 1), np.eye(2))

    def test_dirac_rank_one(self):
        p = np.array([0.7, -1.3])
        y = atomic_moments(2, 4, [p], [1.0])
        m = moment_matrix(y, 2)
        basis = enumerate_basis(2, 2)
        v = np.array([p[0] ** a * p[1] ** b for a, b in basis.monomials])
        assert np.allclose(m, np.outer(v, v), rtol=1e-12)
        eigs = np.linalg.eigvalsh(m)
        assert eigs[0] >= -1e-12 * max(1.0, eigs[-1])

    def test_lebesgue_interval(self):
        # Oracle: integrate 1, x, x^2 over [-1, 1] by quadrature.
        oracle = [quad(lambda t, k=k: t**k, -1.0, 1.0)[0] for k in range(3)]
        assert np.allclose(oracle, [2.0, 0.0, 2.0 / 3.0], atol=1e-12)
        y = MomentVector(enumerate_basis(1, 2), [2.0, 0.0, 2.0 / 3.0])
        assert np.allclose(moment_matrix(y, 1), [[2.0, 0.0], [0.0, 2.0 / 3.0]])

    def test_incomplete_vector_rejected(self):
        y = MomentVector(enumerate_basis(1, 2), [1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            moment_matrix(y, 2)

    @pytest.mark.parametrize("n,d", LADDER_SIZES)
    @pytest.mark.parametrize("extra", [0, 2])
    def test_matches_reference_loop(self, n, d, extra):
        # y of degree 2d, and of 2d + 2, whose basis extends the degree-2d one.
        rng = np.random.default_rng(7 * n + d + extra)
        basis = enumerate_basis(n, 2 * d + extra)
        y = MomentVector(basis, rng.standard_normal(len(basis)))
        monos = enumerate_basis(n, d).monomials
        ref = np.array(
            [[y.value(tuple(a + b for a, b in zip(beta, gamma))) for gamma in monos]
             for beta in monos]
        )
        assert np.array_equal(moment_matrix(y, d), ref)

    def test_reconstruction_from_basis_products(self):
        # M_d(y) = sum_alpha y_alpha B_alpha, entry for entry, exactly.
        rng = np.random.default_rng(4)
        bp = basis_products(2, 2)
        y = MomentVector(bp.product_basis, rng.standard_normal(len(bp.product_basis)))
        recon = np.zeros((len(bp.basis), len(bp.basis)))
        for alpha in bp.product_basis.monomials:
            recon += y.value(alpha) * bp.matrix(alpha)
        assert np.array_equal(moment_matrix(y, 2), recon)


class TestRiesz:
    def test_constant(self):
        y = MomentVector(enumerate_basis(2, 2), np.arange(6, dtype=float))
        assert riesz(y, Polynomial.constant(2, 1.0)) == y.value((0, 0))

    def test_top_power(self):
        y = MomentVector(enumerate_basis(2, 4), np.arange(15, dtype=float))
        f = Polynomial.monomial(2, (0, 4))
        assert riesz(y, f) == y.value((0, 4))

    def test_dirac_is_evaluation(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-1.5, 1.5, size=2)
        y = atomic_moments(2, 8, [p], [1.0])
        for _ in range(10):
            f = random_polynomial(rng, 2, 4)
            assert riesz(y, f) == pytest.approx(f.evaluate(p), rel=1e-10, abs=1e-10)

    def test_degree_overflow(self):
        y = MomentVector(enumerate_basis(1, 2), [1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            riesz(y, Polynomial.monomial(1, (3,)))

    def test_gram_identity(self):
        # L_y(g^2) = ghat' M_d(y) ghat for polynomials g of degree <= d.
        rng = np.random.default_rng(6)
        for _ in range(20):
            points = rng.uniform(-2, 2, size=(4, 2))
            weights = rng.uniform(0.1, 2.0, size=4)
            y = atomic_moments(2, 4, points, weights)
            g = random_polynomial(rng, 2, 2)
            basis = enumerate_basis(2, 2)
            ghat = np.array([g.coefficient(m) for m in basis.monomials])
            quad_form = ghat @ moment_matrix(y, 2) @ ghat
            direct = riesz(y, g * g)
            assert direct == pytest.approx(quad_form, rel=1e-10, abs=1e-12)


class TestGaussianMoments:
    def test_odd_moments_vanish(self):
        y = gaussian_moments(2, 6)
        for mono in y.basis.monomials:
            if any(e % 2 for e in mono):
                assert y.value(mono) == 0.0

    def test_univariate_ratio_against_quadrature(self):
        # Pre-scaling moments are proportional to (sqrt(pi), sqrt(pi)/2);
        # scaling preserves the ratio.
        m0 = quad(lambda t: math.exp(-(t**2)), -np.inf, np.inf)[0]
        m2 = quad(lambda t: t**2 * math.exp(-(t**2)), -np.inf, np.inf)[0]
        assert m0 == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert m2 == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)
        y = gaussian_moments(1, 2)
        assert y.value((2,)) / y.value((0,)) == pytest.approx(m2 / m0, rel=1e-10)

    def test_scaling_cap(self):
        for n, degree in [(1, 2), (2, 6), (3, 4)]:
            y = gaussian_moments(n, degree)
            assert np.max(np.abs(y.values)) == pytest.approx(0.5, abs=1e-15)

    def test_moment_matrix_positive_definite(self):
        y = gaussian_moments(2, 6)
        eigs = np.linalg.eigvalsh(moment_matrix(y, 3))
        assert eigs[0] > 0.0

    def test_strictly_feasible_point(self):
        # Strict feasibility for the moment-side programs: M_d(y) PD and
        # every |y_alpha| < 1.
        for n, d in [(1, 2), (2, 3), (3, 2)]:
            y = gaussian_moments(n, 2 * d)
            assert np.all(np.abs(y.values) < 1.0)
            assert np.linalg.eigvalsh(moment_matrix(y, d))[0] > 0.0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            gaussian_moments(2, 3)
        with pytest.raises(ValueError):
            gaussian_moments(2, 0)


def test_moment_bound_for_atomic_measures():
    # With M_d(y) PSD, every |y_alpha| is bounded by
    # max(L_y(1), max_i L_y(x_i^{2d})).
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        points = rng.uniform(-2.0, 2.0, size=(k, n))
        weights = rng.uniform(0.05, 1.0, size=k)
        y = atomic_moments(n, 2 * d, points, weights)
        corners = [y.value((0,) * n)]
        for i in range(n):
            corners.append(y.value(tuple(2 * d if j == i else 0 for j in range(n))))
        bound = max(corners)
        assert np.max(np.abs(y.values)) <= bound + 1e-12
