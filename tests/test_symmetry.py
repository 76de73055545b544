"""Sign-symmetry blocks of the moment-side programs and the half-degree rule
of SOS membership."""

import numpy as np
import pytest

import l1sos.approx as approx
from l1sos import (
    Polynomial,
    SosCertificate,
    SosRefutation,
    Status,
    assemble_reduced_dual,
    basis_products,
    best_l1_sos_approximation,
    is_sos,
    moment_matrix,
    riesz,
    solve,
    uniform_sos_perturbation,
    verify,
)

from conftest import dense_polynomial

# Reduced and unreduced optima must agree to this absolute tolerance.
AGREE_TOL = 1e-7

X1, X2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
T = Polynomial.variable(1, 0)
# Only the joint flip (x1, x2) -> (-x1, -x2) fixes it.
JOINT_FLIP = X1**2 * X2**2 - X1 * X2 + 1.0
EVEN_UNIVARIATE = T**4 - 3.0 * T**2 + 1.0


def partition_of(f, d):
    bp = basis_products(f.n, d)
    return bp, approx._sign_partition(f, bp)


class TestPartition:
    def test_motzkin_splits_by_parity(self, motzkin):
        bp, part = partition_of(motzkin, 3)
        parities = [tuple(e % 2 for e in mono) for mono in bp.basis.monomials]
        assert [idx.size for idx in part.classes] == [3, 3, 3, 1]
        for idx in part.classes:
            assert len({parities[i] for i in idx}) == 1
        assert all(
            all(e % 2 == 0 for e in bp.product_basis.monomials[a]) for a in part.invariant
        )
        assert part.invariant.size == 10

    def test_joint_flip(self):
        bp, part = partition_of(JOINT_FLIP, 2)
        # 1, x1^2, x1 x2, x2^2 against x1, x2.
        assert [idx.tolist() for idx in part.classes] == [[0, 3, 4, 5], [1, 2]]
        kept = {bp.product_basis.monomials[a] for a in part.invariant}
        assert kept == {m for m in bp.product_basis.monomials if sum(m) % 2 == 0}

    def test_even_univariate(self):
        bp, part = partition_of(EVEN_UNIVARIATE, 3)
        assert [idx.tolist() for idx in part.classes] == [[0, 2], [1, 3]]
        assert part.invariant.tolist() == [0, 2, 4, 6]

    def test_block_solutions_expand_to_block_diagonal_gram(self, motzkin):
        res = best_l1_sos_approximation(motzkin, 4)
        bp, part = partition_of(motzkin, 4)
        label = np.empty(len(bp.basis), dtype=int)
        for k, idx in enumerate(part.classes):
            label[idx] = k
        assert np.all(res.gram[label[:, None] != label[None, :]] == 0.0)
        off = np.setdiff1d(np.arange(len(bp.product_basis)), part.invariant)
        assert np.all(res.y_star.values[off] == 0.0)
        assert res.gram.shape == (15, 15)
        assert res.y_star.degree == 8


class TestDenseInputIsUnchanged:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_single_class_program_equals_unreduced(self, n, d):
        f = dense_polynomial(np.random.default_rng(31 + n + d), n, 2 * d)
        bp, part = partition_of(f, d)
        assert len(part.classes) == 1
        assert part.classes[0].tolist() == list(range(len(bp.basis)))
        reduced = approx._assemble_moment_side(f, bp, part, n + 1)
        reference = assemble_reduced_dual(f, d)
        assert reduced.blocks == reference.blocks
        for ck, rk in zip(reduced.c, reference.c, strict=True):
            assert np.array_equal(ck, rk)
        assert np.array_equal(reduced.b, reference.b)
        assert reduced.m == reference.m
        for e, ref in zip(reduced.coefs, reference.coefs, strict=True):
            for name in ("con", "rows", "cols", "vals", "touched", "slot", "bounds"):
                assert np.array_equal(getattr(e, name), getattr(ref, name))


@pytest.mark.parametrize(
    "f,d",
    [(approx.motzkin_like(), 7), (dense_polynomial(np.random.default_rng(44), 4, 8), 4)],
    ids=["motzkin-7", "dense-4-4"],
)
def test_constraint_blocks_match_reference_pairs(f, d):
    """Every constraint's per-block array against pair lists built by the
    direct double loop."""
    bp, part = partition_of(f, d)
    problem = approx._assemble_moment_side(f, bp, part, f.n + 1)
    block_of = np.empty(len(bp.basis), dtype=int)
    local = np.empty(len(bp.basis), dtype=int)
    for k, idx in enumerate(part.classes):
        block_of[idx] = k
        local[idx] = np.arange(idx.size)
    pairs = {m: [] for m in bp.product_basis.monomials}
    for i, beta in enumerate(bp.basis.monomials):
        for j, gamma in enumerate(bp.basis.monomials):
            pairs[tuple(x + y for x, y in zip(beta, gamma))].append((i, j))
    assert problem.m == part.invariant.size
    sym = problem.coefs[: len(part.classes)]
    for t, a in enumerate(part.invariant.tolist()):
        ij = np.array(pairs[bp.product_basis.monomials[a]])
        touching = [k for k, e in enumerate(sym) if np.any(e.con == t)]
        assert touching == sorted(set(block_of[ij[:, 0]].tolist()))
        for k in touching:
            e, size = sym[k], part.classes[k].size
            mine = e.con == t
            dense = np.zeros((size, size))
            dense[e.rows[mine], e.cols[mine]] = e.vals[mine]
            ref = np.zeros((size, size))
            pk = ij[block_of[ij[:, 0]] == k]
            ref[local[pk[:, 0]], local[pk[:, 1]]] = 1.0
            assert np.array_equal(dense, ref)


def _unreduced(f, d):
    """rho and epsilon of the programs without symmetry blocks."""
    bp = basis_products(f.n, d)
    free = solve(assemble_reduced_dual(f, d))
    tied = solve(approx._assemble_moment_side(f, bp, approx._SignPartition.trivial(bp), 1))
    assert free.status == Status.OPTIMAL and tied.status == Status.OPTIMAL
    return float(np.clip(free.primal[-1], 0.0, None).sum()), float(max(tied.primal[-1][0], 0.0))


@pytest.mark.parametrize(
    "f,d",
    [(approx.motzkin_like(), d) for d in range(3, 8)]
    + [(JOINT_FLIP, 2), (JOINT_FLIP, 3), (EVEN_UNIVARIATE, 2), (EVEN_UNIVARIATE, 3)],
)
def test_reduced_agrees_with_unreduced(f, d):
    rho_ref, eps_ref = _unreduced(f, d)
    res = best_l1_sos_approximation(f, d)
    eps, _ = uniform_sos_perturbation(f, d)
    assert abs(res.rho - rho_ref) <= AGREE_TOL
    assert abs(eps - eps_ref) <= AGREE_TOL
    assert verify(res, f, d).all_passed


def test_motzkin_ladder(motzkin):
    """Every degree from 3 to 11 solves, verifies and refutes: with one
    unreduced block the solve broke down at d = 8 and 11, and is_sos called
    the polynomial SOS at d = 7 once rho_7 fell below its threshold."""
    rhos = []
    for d in range(3, 12):
        res = best_l1_sos_approximation(motzkin, d)
        report = verify(res, motzkin, d)
        assert report.all_passed, f"d={d}\n{report}"
        rhos.append(res.rho)
        ref = is_sos(motzkin, d)
        assert isinstance(ref, SosRefutation), f"d={d}"
        assert ref.value < 0.0
    for d, (lo, hi) in enumerate(zip(rhos, rhos[1:]), start=3):
        assert hi <= lo + 1e-8, f"rho_{d + 1} = {hi} > rho_{d} = {lo}"


class TestHalfDegree:
    def test_sos_quartic_at_every_degree_bound(self):
        rng = np.random.default_rng(41)
        bp = basis_products(2, 2)
        r = rng.standard_normal((len(bp.basis),) * 2)
        g = bp.gram_polynomial(r @ r.T)
        assert g.degree() == 4
        for d in range(2, 6):
            cert = is_sos(g, d)
            assert isinstance(cert, SosCertificate), f"d={d}"
            assert max(q.degree() for q in cert.squares) <= 2
            assert cert.residual <= 1e-6 * (1.0 + g.l1_norm())

    @pytest.mark.parametrize("d", [2, 3])
    def test_odd_degree_refuted(self, d):
        g = X1**3 + X2**2 + 1.0
        ref = is_sos(g, d)
        assert isinstance(ref, SosRefutation)
        assert ref.value < 0.0
        assert ref.witness.degree == 4
        assert np.linalg.eigvalsh(moment_matrix(ref.witness, 2))[0] >= -1e-8
        assert riesz(ref.witness, g) == pytest.approx(ref.value)
