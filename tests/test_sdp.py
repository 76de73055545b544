import numpy as np
import pytest

from l1sos import (
    ConicProblem,
    Entries,
    NonNegBlock,
    PsdBlock,
    SolverOptions,
    Status,
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
        coefs=(Entries([0], [0], [1], [-1.0]),),
        b=[1.0],
    )


def lp_as_diagonal():
    """min x s.t. x = 1, x >= 0 -> x* = 1 with dual multiplier 1."""
    return ConicProblem(
        blocks=(NonNegBlock(1),),
        c=(np.ones(1),),
        coefs=(Entries([0], [0], [0], [1.0]),),
        b=[1.0],
    )


def min_trace_cross():
    """min tr X s.t. X12 + X21 = 2, X PSD (2x2)."""
    return ConicProblem(
        blocks=(PsdBlock(2),),
        c=(np.eye(2),),
        coefs=(Entries([0], [0], [1], [1.0]),),
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
            coefs=(Entries([0], [0], [0], [1.0]),),
            b=[-1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.INFEASIBLE

    def test_infeasible_psd(self):
        # diag entries must sum to -1 while X is PSD: impossible.
        problem = ConicProblem(
            blocks=(PsdBlock(2),),
            c=(np.zeros((2, 2)),),
            coefs=(Entries([0, 0], [0, 1], [0, 1], [1.0, 1.0]),),
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
                coefs=(Entries([0], [0], [0], [1.0]),),
                b=[1.0],
            )

    def test_asymmetric_objective(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(PsdBlock(2),),
                c=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                coefs=(Entries([0], [0], [0], [1.0]),),
                b=[1.0],
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                coefs=(Entries([0], [1], [1], [1.0]),),
                b=[1.0],
            )

    def test_empty_constraint(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                coefs=(Entries([], [], [], []),),
                b=[1.0],
            )

    def test_nonfinite_rhs(self):
        with pytest.raises(ValueError):
            ConicProblem(
                blocks=(NonNegBlock(1),),
                c=(np.zeros(1),),
                coefs=(Entries([0], [0], [0], [1.0]),),
                b=[np.inf],
            )

    def test_coefficients_not_entries(self):
        with pytest.raises(TypeError):
            ConicProblem(
                blocks=(PsdBlock(2),),
                c=(np.zeros((2, 2)),),
                coefs=(([0], [0], [0], [1.0]),),
                b=[1.0],
            )

    def test_nonnegative_entry_off_diagonal(self):
        with pytest.raises(ValueError, match="block 0"):
            ConicProblem(
                blocks=(NonNegBlock(2),),
                c=(np.zeros(2),),
                coefs=(Entries([0], [0], [1], [1.0]),),
                b=[1.0],
            )

    @pytest.mark.parametrize(
        "con,row,col",
        [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 2, 0), (0, 0, -1), (0, 0, 2)],
        ids=["con-negative", "con-past", "row-negative", "row-past", "col-negative", "col-past"],
    )
    def test_index_outside_block(self, con, row, col):
        # A negative index used to pass and break the solver's bincount.
        with pytest.raises(ValueError, match="block 1"):
            ConicProblem(
                blocks=(NonNegBlock(1), PsdBlock(2)),
                c=(np.zeros(1), np.eye(2)),
                coefs=(Entries([0], [0], [0], [1.0]), Entries([con], [row], [col], [1.0])),
                b=[1.0],
            )


def random_conic_problem(rng, dims=(5, 3), count=4, m=9):
    """Random program with two PSD blocks and a nonnegative block, and its
    raw (con, rows, cols, vals) triples per block.  Every constraint repeats
    one PSD entry, once as (r, c) and once as (c, r), and one nonnegative
    index; constraint 0 has no entry in PSD block 1 and constraint 1 none in
    the nonnegative block."""
    raw = [[] for _ in range(len(dims) + 1)]
    for i in range(m):
        for k, dim in enumerate(dims):
            if (i, k) == (0, 1):
                continue
            nnz = int(rng.integers(1, 2 * dim))
            rows = rng.integers(0, dim, nnz)
            cols = rng.integers(0, dim, nnz)
            rows = np.append(rows, [rows[0], cols[0]])
            cols = np.append(cols, [cols[0], rows[0]])
            raw[k].append((np.full(rows.size, i), rows, cols, rng.standard_normal(rows.size)))
        if i != 1:
            idx = rng.integers(0, count, 3)
            idx = np.append(idx, idx[0])
            raw[-1].append((np.full(4, i), idx, idx, rng.standard_normal(4)))
    raw = [tuple(np.concatenate(field) for field in zip(*parts)) for parts in raw]
    blocks = tuple(PsdBlock(dim) for dim in dims) + (NonNegBlock(count),)
    c = tuple(np.zeros((dim, dim)) for dim in dims) + (np.zeros(count),)
    coefs = tuple(Entries(*triples) for triples in raw)
    return ConicProblem(blocks, c, coefs, rng.standard_normal(m)), raw


def dense_reference(problem, raw):
    """Each block's coefficients as a dense (m, dim, dim) or (m, count)
    array, from the raw triples: repeated entries are summed, and an entry
    at (r, c), r != c, also fills (c, r)."""
    out = []
    for blk, (con, rows, cols, vals) in zip(problem.blocks, raw):
        if isinstance(blk, PsdBlock):
            arr = np.zeros((problem.m, blk.dim, blk.dim))
            for i, r, c, v in zip(con, rows, cols, vals):
                arr[i, r, c] += v
                if r != c:
                    arr[i, c, r] += v
        else:
            arr = np.zeros((problem.m, blk.count))
            for i, r, v in zip(con, rows, vals):
                arr[i, r] += v
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


STORED = ("con", "rows", "cols", "vals", "touched", "slot", "bounds")


@pytest.mark.parametrize("seed", range(4))
class TestEntries:
    """The stored form against the raw triples it was built from."""

    def test_order_and_orientation_do_not_matter(self, seed):
        rng = np.random.default_rng(seed)
        for con, rows, cols, _ in random_conic_problem(rng)[1]:
            # Small integers, so the summed repeated entries are exact.
            vals = rng.integers(-3, 4, con.size).astype(float)
            ref = Entries(con, rows, cols, vals)
            p = rng.permutation(con.size)
            for other in (
                Entries(con[p], rows[p], cols[p], vals[p]),
                Entries(con, cols, rows, vals),
                Entries(con[p], cols[p], rows[p], vals[p]),
            ):
                for name in STORED:
                    assert np.array_equal(getattr(other, name), getattr(ref, name)), name

    def test_stored_form(self, seed):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng)
        for e, ref in zip(problem.coefs, dense_reference(problem, raw)):
            dense = np.zeros_like(ref)
            np.add.at(dense, (e.con, e.rows, e.cols)[: ref.ndim], e.vals)
            assert rel_diff(dense, ref) <= 1e-13
            # Sorted by (constraint, row, column) without repeats, and
            # grouped by constraint.
            key = np.stack([e.con, e.rows, e.cols])
            assert np.all(np.any(np.diff(key) != 0, axis=0))
            assert np.array_equal(np.lexsort(key[::-1]), np.arange(e.con.size))
            assert np.array_equal(e.touched[e.slot], e.con)
            assert np.array_equal(np.repeat(e.touched, np.diff(e.bounds)), e.con)


@pytest.mark.parametrize("seed", range(4))
class TestKernels:
    """A, A^T and the Schur complement against dense einsums."""

    def test_apply_a_and_transpose(self, seed):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng)
        coefs = problem.coefs
        dense = dense_reference(problem, raw)
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
        problem, raw = random_conic_problem(rng)
        coefs = problem.coefs
        xs, ss = random_interior(rng, problem)
        schur = sdp._schur_complement(problem.blocks, coefs, xs, ss, problem.m)[0]
        ref = np.zeros((problem.m, problem.m))
        for a, x, s in zip(dense_reference(problem, raw), xs, ss):
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
