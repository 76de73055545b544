import numpy as np
import pytest

from l1sos import (
    ConicProblem,
    NonNegBlock,
    PsdBlock,
    SolverOptions,
    Status,
    SymEntries,
    VecEntries,
    best_l1_sos_approximation,
    solve,
    verify,
)
from l1sos import sdp
from l1sos.approx import assemble_reduced_dual, motzkin_like

from conftest import dense_polynomial


def lmi_max_y():
    """max y s.t. [[1, y], [y, 1]] PSD, written as the conic primal whose
    dual is that LMI.  Optimum y* = 1 (determinant 1 - y^2 >= 0)."""
    return ConicProblem(
        blocks=(PsdBlock(2),),
        c=(np.eye(2),),
        constraints=({0: SymEntries([0], [1], [-1.0])},),
        b=[1.0],
    )


def lp_as_diagonal():
    """min x s.t. x = 1, x >= 0 -> x* = 1 with dual multiplier 1."""
    return ConicProblem(
        blocks=(NonNegBlock(1),),
        c=(np.ones(1),),
        constraints=({0: VecEntries([0], [1.0])},),
        b=[1.0],
    )


def min_trace_cross():
    """min tr X s.t. X12 + X21 = 2, X PSD (2x2)."""
    return ConicProblem(
        blocks=(PsdBlock(2),),
        c=(np.eye(2),),
        constraints=({0: SymEntries([0], [1], [1.0])},),
        b=[2.0],
    )


def min_trace_oracle() -> float:
    """Brute-force grid for min a + b over PSD [[a, 1], [1, b]] (the
    constraint pins the off-diagonal at 1, PSD means ab >= 1)."""
    grid = np.linspace(0.05, 4.0, 400)
    best = np.inf
    for a in grid:
        for b in grid:
            if a * b >= 1.0:
                best = min(best, a + b)
    return best


class TestMicroProblems:
    def test_lmi_max_y(self):
        sol = solve(lmi_max_y())
        assert sol.status is Status.OPTIMAL
        assert sol.dual[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_lp_diagonal(self):
        sol = solve(lp_as_diagonal())
        assert sol.status is Status.OPTIMAL
        assert sol.primal[0][0] == pytest.approx(1.0, abs=1e-7)
        assert sol.dual[0] == pytest.approx(1.0, abs=1e-7)

    def test_min_trace(self):
        # Independent grid oracle confirms the closed-form optimum 2.0.
        assert min_trace_oracle() == pytest.approx(2.0, abs=2e-2)
        sol = solve(min_trace_cross())
        assert sol.status is Status.OPTIMAL
        assert sol.primal_objective == pytest.approx(2.0, abs=1e-7)
        assert np.allclose(sol.primal[0], [[1.0, 1.0], [1.0, 1.0]], atol=1e-6)

    @pytest.mark.parametrize("factory", [lmi_max_y, lp_as_diagonal, min_trace_cross])
    def test_gap_certificate(self, factory):
        sol = solve(factory())
        assert sol.status is Status.OPTIMAL
        assert sol.gap <= 1e-8 * (1.0 + abs(sol.dual_objective))
        assert sol.feas_primal <= 1e-8
        assert sol.feas_dual <= 1e-8


class TestIterateInvariants:
    @pytest.mark.parametrize(
        "factory",
        [lmi_max_y, lp_as_diagonal, min_trace_cross,
         lambda: assemble_reduced_dual(motzkin_like(), 3),
         lambda: assemble_reduced_dual(motzkin_like(), 5)],
    )
    def test_weak_duality_along_trace(self, factory):
        sol = solve(factory(), SolverOptions(trace=True))
        assert sol.status is Status.OPTIMAL
        for stats in sol.trace:
            assert stats.primal_objective - stats.dual_objective >= -1e-9

    def test_deterministic_iterates(self):
        problem = assemble_reduced_dual(motzkin_like(), 3)
        first = solve(problem, SolverOptions(trace=True))
        second = solve(problem, SolverOptions(trace=True))
        assert first.trace == second.trace  # bit-identical floats
        assert np.array_equal(first.dual, second.dual)

    def test_solution_blocks_psd(self):
        sol = solve(assemble_reduced_dual(motzkin_like(), 4))
        for mats in (sol.primal, sol.slack):
            for blk in mats:
                if blk.ndim == 2:
                    eigs = np.linalg.eigvalsh(0.5 * (blk + blk.T))
                    assert eigs[0] >= -1e-8 * (1.0 + np.trace(blk))
                else:
                    assert blk.min() >= -1e-8 * (1.0 + blk.sum())


class TestStatuses:
    def test_max_iterations(self):
        sol = solve(min_trace_cross(), SolverOptions(max_iter=2))
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 2

    def test_infeasible_lp(self):
        # x = -1 with x >= 0 has no feasible point; the dual objective
        # diverges along a certificate ray.
        problem = ConicProblem(
            blocks=(NonNegBlock(1),),
            c=(np.zeros(1),),
            constraints=({0: VecEntries([0], [1.0])},),
            b=[-1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.INFEASIBLE

    def test_infeasible_psd(self):
        # diag entries must sum to -1 while X is PSD: impossible.
        problem = ConicProblem(
            blocks=(PsdBlock(2),),
            c=(np.zeros((2, 2)),),
            constraints=({0: SymEntries([0, 1], [0, 1], [1.0, 1.0])},),
            b=[-1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.INFEASIBLE


class TestValidation:
    def test_bad_objective_shape(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(PsdBlock(2),),
                c=(np.zeros(2),),
                constraints=({0: SymEntries([0], [0], [1.0])},),
                b=[1.0],
            )

    def test_asymmetric_objective(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(PsdBlock(2),),
                c=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                constraints=({0: SymEntries([0], [0], [1.0])},),
                b=[1.0],
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                constraints=({0: VecEntries([1], [1.0])},),
                b=[1.0],
            )

    def test_empty_constraint(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                constraints=({},),
                b=[1.0],
            )

    def test_nonfinite_rhs(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                constraints=({0: VecEntries([0], [1.0])},),
                b=[np.inf],
            )

    def test_entry_type_mismatch(self):
        with pytest.raises(TypeError):
            ConicProblem(
                blocks=(PsdBlock(2),),
                c=(np.zeros((2, 2)),),
                constraints=({0: VecEntries([0], [1.0])},),
                b=[1.0],
            )


def random_conic_problem(rng, dims=(5, 3), count=4, m=9):
    """Random program with two PSD blocks and a nonnegative block.  Every
    constraint repeats one PSD entry, once as (r, c) and once as (c, r),
    and one nonnegative index; constraint 0 has no entry in PSD block 1 and
    constraint 1 none in the nonnegative block."""
    constraints = []
    for i in range(m):
        con = {}
        for k, dim in enumerate(dims):
            if (i, k) == (0, 1):
                continue
            nnz = int(rng.integers(1, 2 * dim))
            rows = rng.integers(0, dim, nnz)
            cols = rng.integers(0, dim, nnz)
            rows = np.append(rows, [rows[0], cols[0]])
            cols = np.append(cols, [cols[0], rows[0]])
            con[k] = SymEntries(rows, cols, rng.standard_normal(rows.size))
        if i != 1:
            idx = rng.integers(0, count, 3)
            con[len(dims)] = VecEntries(np.append(idx, idx[0]), rng.standard_normal(4))
        constraints.append(con)
    blocks = tuple(PsdBlock(dim) for dim in dims) + (NonNegBlock(count),)
    c = tuple(np.zeros((dim, dim)) for dim in dims) + (np.zeros(count),)
    return ConicProblem(blocks, c, tuple(constraints), rng.standard_normal(m))


def dense_reference(problem):
    """Each block's coefficients as a dense (m, dim, dim) or (m, count)
    array, summing repeated entries; an entry at (r, c), r != c, also fills
    (c, r)."""
    out = []
    for k, blk in enumerate(problem.blocks):
        psd = isinstance(blk, PsdBlock)
        arr = np.zeros((problem.m, blk.dim, blk.dim) if psd else (problem.m, blk.count))
        for i, con in enumerate(problem.constraints):
            ent = con.get(k)
            if ent is None:
                continue
            if psd:
                for r, c, v in zip(ent.rows, ent.cols, ent.vals):
                    arr[i, r, c] += v
                    if r != c:
                        arr[i, c, r] += v
            else:
                for j, v in zip(ent.idx, ent.vals):
                    arr[i, j] += v
        out.append(arr)
    return out


def random_interior(rng, problem):
    """Positive definite (or positive) X and S, one block each."""
    xs, ss = [], []
    for blk in problem.blocks:
        for out in (xs, ss):
            if isinstance(blk, PsdBlock):
                g = rng.standard_normal((blk.dim, blk.dim))
                out.append(g @ g.T + 0.1 * np.eye(blk.dim))
            else:
                out.append(rng.uniform(0.1, 2.0, blk.count))
    return xs, ss


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("seed", range(4))
class TestKernels:
    """A, A^T and the Schur complement against dense einsums."""

    def test_apply_a_and_transpose(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_conic_problem(rng)
        coefs = [sdp._block_entries(problem, k) for k in range(len(problem.blocks))]
        dense = dense_reference(problem)
        xs, _ = random_interior(rng, problem)
        y = rng.standard_normal(problem.m)
        ref_a = sum(
            np.einsum("ipq,pq->i", a, x) if a.ndim == 3 else a @ x for a, x in zip(dense, xs)
        )
        assert rel_diff(sdp._apply_a(coefs, xs, problem.m), ref_a) <= 1e-13
        for at, a in zip(sdp._apply_at(coefs, problem.blocks, y), dense):
            ref = np.einsum("i,i...->...", y, a)
            assert rel_diff(at, ref) <= 1e-13
            if at.ndim == 2:
                assert np.array_equal(at, at.T)

    def test_schur_complement(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_conic_problem(rng)
        coefs = [sdp._block_entries(problem, k) for k in range(len(problem.blocks))]
        xs, ss = random_interior(rng, problem)
        schur = sdp._schur_complement(problem.blocks, coefs, xs, ss, problem.m)[0]
        ref = np.zeros((problem.m, problem.m))
        for a, x, s in zip(dense_reference(problem), xs, ss):
            if a.ndim == 3:
                # M[i, j] = <A_i, X A_j S^{-1}>
                ref += np.einsum("ipq,qr,jrs,sp->ij", a, x, a, np.linalg.inv(s))
            else:
                ref += (a * (x / s)) @ a.T
        assert rel_diff(schur, ref) <= 1e-13
        eigs = np.linalg.eigvalsh(schur)
        assert eigs[0] >= -1e-12 * eigs[-1]


@pytest.mark.parametrize("n,d,seed", [(3, 5, 0), (3, 5, 1), (4, 4, 0), (4, 4, 1)])
def test_dense_inputs_solve_and_verify(n, d, seed):
    f = dense_polynomial(np.random.default_rng(seed), n, 2 * d)
    res = best_l1_sos_approximation(f, d)
    report = verify(res, f, d)
    assert report.all_passed, str(report)
