"""Sign-symmetry blocks of the moment-side programs and the half-degree rule
of SOS membership."""

import itertools

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

from conftest import dense_polynomial, random_polynomial

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


def reference_partition(f, bp):
    """The partition with parities as Python-int bitmasks (bit i is
    alpha_i mod 2), each reduced against an xor basis of V with distinct
    leading bits: exact for any number of variables."""
    span = []

    def coset(mono):
        p = sum(1 << i for i, e in enumerate(mono) if e & 1)
        for v in span:
            p = min(p, p ^ v)
        return p

    for mono in f.terms:
        p = coset(mono)
        if p:
            span.append(p)
            span.sort(reverse=True)
    keep = np.array([coset(mono) == 0 for mono in bp.product_basis.monomials])
    first = keep[bp.labels].argmax(axis=1)
    classes = [np.flatnonzero(first == i).tolist() for i in sorted(set(first.tolist()))]
    return classes, np.flatnonzero(keep).tolist()


def assert_matches_reference(f, d):
    bp, part = partition_of(f, d)
    classes, invariant = reference_partition(f, bp)
    assert [idx.tolist() for idx in part.classes] == classes
    assert part.invariant.tolist() == invariant
    return part


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


class TestPartitionReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_sparse(self, n):
        rng = np.random.default_rng(50 + n)
        d = 2 if n > 3 else 3
        for _ in range(12):
            f = random_polynomial(rng, n, 2 * d, n_terms=int(rng.integers(1, 5)))
            assert_matches_reference(f, d)

    def test_more_variables_than_a_machine_word(self):
        # Variables 64 and 65 have parity bits past any 64-bit mask.  V is
        # spanned by x3, x0 + x65 and x64 + x65, so 1 and x3 share a class,
        # x0, x64 and x65 share one, and the other 62 variables are alone.
        n = 66
        x = [Polynomial.variable(n, i) for i in range(n)]
        f = 1.0 + x[0] * x[65] + x[64] * x[65] + x[3]
        part = assert_matches_reference(f, 1)
        assert [idx.tolist() for idx in part.classes[:2]] == [[0, 4], [1, 65, 66]]
        assert len(part.classes) == 64


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
            for name in ("con", "rows", "cols", "vals", "touched"):
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
            np.add.at(dense, (e.rows[mine], e.cols[mine]), e.vals[mine])
            ref = np.zeros((size, size))
            pk = ij[block_of[ij[:, 0]] == k]
            ref[local[pk[:, 0]], local[pk[:, 1]]] = 1.0
            assert np.array_equal(dense, ref)


def _unreduced(f, d):
    """rho and epsilon of the programs without symmetry blocks."""
    bp = basis_products(f.n, d)
    free = solve(assemble_reduced_dual(f, d))
    trivial = approx._SignPartition((np.arange(len(bp.basis)),), np.arange(len(bp.product_basis)))
    tied = solve(approx._assemble_moment_side(f, bp, trivial, 1))
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


X, Y, Z = (Polynomial.variable(3, i) for i in range(3))
# Robinson's form: nonnegative, not a sum of squares, and fixed by every
# permutation of its variables.
ROBINSON = (
    X**6 + Y**6 + Z**6
    - (X**4 * Y**2 + X**2 * Y**4 + X**4 * Z**2 + X**2 * Z**4 + Y**4 * Z**2 + Y**2 * Z**4)
    + 3.0 * X**2 * Y**2 * Z**2
)
# Choi-Lam's form plus 1: fixed by the cyclic shift x -> y -> z -> x, but
# by no transposition.
CHOI_LAM = X**4 * Y**2 + Y**4 * Z**2 + Z**4 * X**2 - 3.0 * X**2 * Y**2 * Z**2 + 1.0


def embedded(f, n):
    """f in n >= f.n variables, the new ones absent."""
    return Polynomial(n, {mono + (0,) * (n - f.n): c for mono, c in f.terms.items()})


def assert_same_program(a, b):
    assert a.blocks == b.blocks
    assert a.m == b.m
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.weights, b.weights)
    for ak, bk in zip(a.c, b.c, strict=True):
        assert np.array_equal(ak, bk)
    for ak, bk in zip(a.copies, b.copies, strict=True):
        assert np.array_equal(ak, bk)
    for e, ref in zip(a.coefs, b.coefs, strict=True):
        for name in ("con", "rows", "cols", "vals", "touched"):
            assert np.array_equal(getattr(e, name), getattr(ref, name))


class TestTranspositions:
    def test_motzkin_swaps_its_variables(self, motzkin):
        assert approx._variable_orbits(motzkin) == [[0, 1]]
        bp = basis_products(2, 3)
        signs = approx._assemble_moment_side(motzkin, bp, approx._sign_partition(motzkin, bp), 3)
        orbits = approx._assemble_moment_side(
            motzkin, bp, approx._symmetric_partition(motzkin, bp), 3
        )
        # 1, x1^2, x2^2 | x1, x1^3, x1 x2^2 | x2, x1^2 x2, x2^3 | x1 x2: the
        # swap exchanges the second and third classes.
        assert [blk.dim for blk in signs.blocks[:-1]] == [3, 3, 3, 1]
        assert [blk.dim for blk in orbits.blocks[:-1]] == [3, 3, 1]
        assert orbits.copies[:-1] == (1.0, 2.0, 1.0)
        assert orbits.blocks[-1].count == 2
        assert orbits.copies[-1].tolist() == [1.0, 2.0]
        assert (signs.m, orbits.m) == (10, 6)
        assert orbits.weights.tolist() == [1.0, 2.0, 2.0, 1.0, 2.0, 2.0]

    def test_every_transposition_of_robinson(self):
        assert approx._variable_orbits(ROBINSON) == [[0, 1, 2]]

    def test_interleaved_orbits(self):
        assert approx._variable_orbits(INTERLEAVED) == [[0, 2], [1, 3]]
        program = approx._assemble_moment_side(
            INTERLEAVED, basis_products(4, 2),
            approx._symmetric_partition(INTERLEAVED, basis_products(4, 2)), 5,
        )
        # 1, then x0^4 and x2^4, then x1^4 and x3^4, each carried once.
        assert program.copies[-1].tolist() == [1.0, 2.0, 2.0]
        assert program.coefs[-1].rows[program.coefs[-1].vals != 0.0].tolist() == [0, 1, 2]

    def test_cyclic_symmetry_is_not_reduced(self):
        assert approx._variable_orbits(CHOI_LAM) == [[0], [1], [2]]
        bp = basis_products(3, 3)
        part = approx._symmetric_partition(CHOI_LAM, bp)
        assert part.images is None and part.orbits is None
        assert_same_program(
            approx._assemble_moment_side(CHOI_LAM, bp, part, 4),
            approx._assemble_moment_side(CHOI_LAM, bp, approx._sign_partition(CHOI_LAM, bp), 4),
        )

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (4, 2), (6, 1)])
    def test_dense_inputs_build_the_sign_only_program(self, n, d):
        f = dense_polynomial(np.random.default_rng(60 + n + d), n, 2 * d)
        assert approx._variable_orbits(f) == [[i] for i in range(n)]
        bp = basis_products(n, d)
        part = approx._symmetric_partition(f, bp)
        assert part.images is None and part.orbits is None
        for multipliers in (n + 1, 1, 0):
            program = approx._assemble_moment_side(f, bp, part, multipliers)
            signs = approx._assemble_moment_side(f, bp, approx._sign_partition(f, bp), multipliers)
            assert_same_program(program, signs)
            assert np.array_equal(program.weights, np.ones(program.m))
            assert all(np.all(np.asarray(cp) == 1.0) for cp in program.copies)

    def test_absent_variables_collapse(self):
        # The input of test_more_variables_than_a_machine_word: (x0 x64)
        # fixes it, and the 62 absent variables are interchangeable, so
        # their 62 singleton classes are one class with 62 copies.
        n = 66
        x = [Polynomial.variable(n, i) for i in range(n)]
        f = 1.0 + x[0] * x[65] + x[64] * x[65] + x[3]
        absent = [i for i in range(n) if i not in (0, 3, 64, 65)]
        assert approx._variable_orbits(f) == [[0, 64], [1] + absent[1:], [3], [65]]
        bp = basis_products(n, 1)
        assert len(approx._sign_partition(f, bp).classes) == 64
        part = approx._symmetric_partition(f, bp)
        assert [idx.tolist() for idx in part.classes] == [[0, 4], [1, 65, 66], [2]]
        assert [image.shape for image in part.images] == [(1, 2), (1, 3), (62, 1)]
        assert sorted(part.images[2][:, 0].tolist()) == [i + 1 for i in absent]
        # Only (x0 x64) moves entries of a kept block: x0 and x64 in the
        # second one.
        assert [label is None for label in part.pairs] == [True, False, True]
        assert part.pairs[1].tolist() == [[0, 1, 2], [1, 0, 2], [6, 6, 8]]
        program = approx._assemble_moment_side(f, bp, part, n + 1)
        assert program.copies[:-1] == (1.0, 1.0, 62.0)
        # 1, then x0^2 and x64^2, x1^2 and the other absent ones, x3^2, x65^2.
        assert program.copies[-1].tolist() == [1.0, 2.0, 62.0, 1.0, 1.0]


W = [Polynomial.variable(4, i) for i in range(4)]
# Fixed by (x0 x2) and by (x1 x3): two orbits of variables that interleave.
INTERLEAVED = (
    (W[0] ** 2 + W[2] ** 2) * (W[1] ** 2 + W[3] ** 2) - W[0] - W[2]
    + 0.5 * (W[1] ** 3 + W[3] ** 3) - 1.0
)


@pytest.mark.parametrize(
    "f,d",
    [(ROBINSON, 3), (embedded(approx.motzkin_like(), 4), 3), (INTERLEAVED, 2)],
    ids=["robinson", "motzkin-n4", "interleaved"],
)
def test_transposition_reduction_agrees_with_unreduced(f, d):
    rho_ref, eps_ref = _unreduced(f, d)
    res = best_l1_sos_approximation(f, d)
    eps, _ = uniform_sos_perturbation(f, d)
    assert abs(res.rho - rho_ref) <= AGREE_TOL
    assert abs(eps - eps_ref) <= AGREE_TOL
    assert verify(res, f, d).all_passed
    # The membership program without symmetry blocks refutes too.
    ref = is_sos(f, d)
    assert isinstance(ref, SosRefutation)
    assert verify(ref, f, d).all_passed
    unit = f * (1.0 / f.l1_norm())
    bp = basis_products(f.n, approx._sos_degree(f))
    trivial = approx._SignPartition((np.arange(len(bp.basis)),), np.arange(len(bp.product_basis)))
    assert solve(approx._assemble_moment_side(unit, bp, trivial, 0)).status == Status.INFEASIBLE


def permuted(f, perm):
    """f with x_i renamed x_{perm[i]}."""
    out = [0] * f.n
    terms = {}
    for mono, c in f.terms.items():
        for i, e in enumerate(mono):
            out[perm[i]] = e
        terms[tuple(out)] = c
    return Polynomial(f.n, terms)


@pytest.mark.parametrize("n,d,perm", [(2, 2, (1, 0)), (3, 2, (2, 0, 1)), (2, 3, (1, 0))])
def test_permuting_variables_keeps_rho_and_verdict(n, d, perm):
    """The first metamorphic relation: renaming the variables of f leaves
    rho_d and the SOS verdict unchanged, within the two results' gap
    tolerances."""
    f = dense_polynomial(np.random.default_rng(70 + n + d), n, 2 * d)
    g = permuted(f, perm)
    assert g != f
    a, b = best_l1_sos_approximation(f, d), best_l1_sos_approximation(g, d)
    assert abs(a.rho - b.rho) <= approx._gap_tolerance(f, a.rho) + approx._gap_tolerance(g, b.rho)
    assert is_sos(f, d).is_sos == is_sos(g, d).is_sos


def test_block_fixed_by_its_class_stabilizer():
    """Every permutation of x, y, z fixes this f, and its one sign class,
    the whole basis: the program only averages the coefficients of each
    orbit, so the solve leaves the block S3-invariant only up to drift.
    Without averaging the block over the orbits of its entries, the Gram
    matrix missed the coefficient of x y z^3 by 3.1e-7, past the 1e-7
    tolerance of gram_reproduces_g."""
    terms = {}
    for mono, c in (((1, 3, 1), -0.856), ((1, 3, 0), -0.121), ((1, 1, 4), -0.048)):
        for perm in itertools.permutations(mono):
            terms[perm] = c
    f = Polynomial(3, terms)
    bp = basis_products(3, 3)
    part = approx._symmetric_partition(f, bp)
    assert len(part.classes) == 1 and part.pairs[0] is not None
    res = best_l1_sos_approximation(f, 3)
    assert verify(res, f, 3).all_passed
    assert abs(res.rho - _unreduced(f, 3)[0]) <= AGREE_TOL
