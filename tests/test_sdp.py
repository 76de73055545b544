import numpy as np
import pytest

from l1sos import (
    ConicProblem,
    Entries,
    NonNegBlock,
    PsdBlock,
    SolverOptions,
    Status,
    StopReason,
    best_l1_sos_approximation,
    solve,
    verify,
)
from l1sos import approx, sdp
from l1sos.approx import assemble_reduced_dual, motzkin_like
from l1sos.moment import basis_products

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
        assert sol.stop_reason is StopReason.CONVERGED
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

    def test_step_data_in_trace(self):
        problem = assemble_reduced_dual(motzkin_like(), 4)
        sol = solve(problem, SolverOptions(trace=True))
        *steps, last = sol.trace
        assert steps
        for stats in steps:
            assert 0.0 < stats.alpha_p <= 1.0
            assert 0.0 < stats.alpha_d <= 1.0
            assert 0.0 <= stats.sigma <= 1.0
        assert np.isnan([last.alpha_p, last.alpha_d, last.sigma, last.reg]).all()
        assert solve(problem).trace is None

    def test_schur_shift_in_trace(self):
        problem = assemble_reduced_dual(dense_polynomial(np.random.default_rng(0), 3, 6), 3)
        sol = solve(problem, SolverOptions(trace=True))
        assert sol.status is Status.OPTIMAL
        *steps, last = sol.trace
        assert steps
        assert all(stats.reg == 0.0 for stats in steps)
        assert np.isnan(last.reg)
        assert solve(problem).trace is None

    def test_factor_schur_reports_shift(self):
        assert sdp._factor_schur(np.eye(3))[1] == 0.0
        # Indefinite by 1e-13 after scaling to unit diagonal: the first shift
        # repairs it.
        almost = np.array([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        assert sdp._factor_schur(almost)[1] == sdp._REG_INITIAL
        assert sdp._factor_schur(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_solution_blocks_psd(self):
        sol = solve(assemble_reduced_dual(motzkin_like(), 4))
        for mats in (sol.primal, sol.slack):
            for blk in mats:
                if blk.ndim == 2:
                    eigs = np.linalg.eigvalsh(0.5 * (blk + blk.T))
                    assert eigs[0] >= -1e-8 * (1.0 + np.trace(blk))
                else:
                    assert blk.min() >= -1e-8 * (1.0 + blk.sum())


def assert_farkas_ray(problem, sol):
    """-A^T(y) lies in the cone to roundoff and b'y > 0: no X >= 0 has
    A(X) = b."""
    assert sol.dual_objective == problem.b @ sol.dual > 0.0
    for blk, at in zip(problem.blocks, sdp._apply_at(problem.coefs, problem.blocks, sol.dual)):
        low = np.linalg.eigvalsh(-at)[0] if isinstance(blk, PsdBlock) else (-at).min()
        assert low >= -1e-14 * np.abs(at).max()


class TestStatuses:
    def test_max_iterations(self):
        sol = solve(min_trace_cross(), SolverOptions(max_iter=2))
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.stop_reason is StopReason.MAX_ITERATIONS
        assert sol.iterations == 2

    def test_infeasible_lp(self):
        # x = -1 with x >= 0 has no feasible point; the first full dual
        # step lands on a certificate ray.
        problem = ConicProblem(
            blocks=(NonNegBlock(1),),
            c=(np.zeros(1),),
            coefs=(Entries([0], [0], [0], [1.0]),),
            b=[-1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.INFEASIBLE
        assert sol.stop_reason is StopReason.FARKAS_RAY
        assert_farkas_ray(problem, sol)

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
        assert sol.stop_reason is StopReason.FARKAS_RAY
        assert_farkas_ray(problem, sol)

    def test_feasible_point(self):
        # Zero objective: every feasible X is optimal with y = 0, S = 0.  The
        # solve ends at the first iterate after a full primal step.
        problem = ConicProblem(
            blocks=(PsdBlock(3), NonNegBlock(2)),
            c=(np.zeros((3, 3)), np.zeros(2)),
            coefs=(
                Entries([0, 1, 2, 3], [0, 1, 2, 0], [0, 1, 2, 1], [1.0, 1.0, 1.0, 1.0]),
                Entries([3, 4], [0, 1], [0, 1], [1.0, -2.0]),
            ),
            b=[1.0, 2.0, 3.0, 0.5, -1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.stop_reason is StopReason.FEASIBLE_POINT
        assert np.array_equal(sol.dual, np.zeros(problem.m))
        assert all(not s.any() for s in sol.slack)
        assert sol.gap == sol.dual_objective == sol.primal_objective == 0.0
        assert sol.feas_dual == 0.0
        assert np.linalg.eigvalsh(sol.primal[0])[0] > 0.0
        assert sol.primal[1].min() > 0.0
        assert np.abs(sdp._apply_a(problem.coefs, sol.primal, problem.m) - problem.b).max() <= 1e-12

    def test_nonzero_objective_diverges(self):
        # min x s.t. x = -1, x >= 0: infeasible, but the objective is not
        # zero, so only the divergence test ends the solve.
        problem = ConicProblem(
            blocks=(NonNegBlock(1),),
            c=(np.ones(1),),
            coefs=(Entries([0], [0], [0], [1.0]),),
            b=[-1.0],
        )
        sol = solve(problem)
        assert sol.status is Status.INFEASIBLE
        assert sol.stop_reason is StopReason.DIVERGENCE

    def test_not_finite(self):
        # The starting point's complementarity tau^2 overflows.
        problem = ConicProblem(
            blocks=(NonNegBlock(1),),
            c=(np.ones(1),),
            coefs=(Entries([0], [0], [0], [1.0]),),
            b=[1e300],
        )
        with np.errstate(over="ignore"):
            sol = solve(problem)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.stop_reason is StopReason.NOT_FINITE
        assert sol.iterations == 0

    def test_step_failed(self, monkeypatch):
        monkeypatch.setattr(sdp, "_factor_schur", lambda m: None)
        sol = solve(min_trace_cross())
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.stop_reason is StopReason.STEP_FAILED
        assert sol.iterations == 0


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


STORED = (
    "con", "rows", "cols", "vals", "touched", "slot", "bounds",
    "triu_rows", "triu_cols", "triu_vals", "triu_starts",
)


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
            # The upper triangle with off-diagonal values doubled, grouped by
            # constraint.
            triu_con = np.repeat(e.touched, np.diff(np.append(e.triu_starts, e.triu_rows.size)))
            upper = np.zeros_like(ref)
            np.add.at(upper, (triu_con, e.triu_rows, e.triu_cols)[: ref.ndim], e.triu_vals)
            want = np.triu(ref) + np.triu(ref, 1) if ref.ndim == 3 else ref
            assert rel_diff(upper, want) <= 1e-13


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

    def test_nt_scaling_point(self, seed):
        rng = np.random.default_rng(seed)
        problem, _ = random_conic_problem(rng)
        xs, ss = random_interior(rng, problem)
        for blk, x, s in zip(problem.blocks, xs, ss):
            if isinstance(blk, PsdBlock):
                g, d = sdp._nt_scaling(x, s)
                w = g @ g.T
                assert rel_diff(w @ s @ w, x) <= 1e-12
                # Both iterates are diag(d) in the scaled space.
                assert rel_diff(g.T @ s @ g, np.diag(d)) <= 1e-12
                assert d.min() > 0.0

    def test_schur_complement(self, seed):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng)
        coefs = problem.coefs
        xs, ss = random_interior(rng, problem)
        schur = sdp._schur_complement(problem.blocks, coefs, xs, ss, problem.m)[0]
        ref = schur_reference(problem.blocks, dense_reference(problem, raw), xs, ss)
        assert rel_diff(schur, ref) <= 1e-13
        assert np.array_equal(schur, schur.T)
        eigs = np.linalg.eigvalsh(schur)
        assert eigs[0] >= -1e-12 * eigs[-1]

        # A PSD block that no constraint touches adds nothing.
        untouched = ConicProblem(
            problem.blocks + (PsdBlock(3),),
            problem.c + (np.zeros((3, 3)),),
            coefs + (Entries([], [], [], []),),
            problem.b,
        )
        xs, ss = random_interior(rng, untouched)
        schur = sdp._schur_complement(untouched.blocks, untouched.coefs, xs, ss, untouched.m)[0]
        ref = schur_reference(problem.blocks, dense_reference(problem, raw), xs, ss)
        assert rel_diff(schur, ref) <= 1e-13


def schur_reference(blocks, dense, xs, ss):
    """M[i, j] = <A_i, W A_j W> at the NT scaling point W S W = X by dense
    einsums, over the blocks of ``dense``."""
    m = dense[0].shape[0]
    ref = np.zeros((m, m))
    for blk, a, x, s in zip(blocks, dense, xs, ss):
        if isinstance(blk, PsdBlock):
            g = sdp._nt_scaling(x, s)[0]
            w = g @ g.T
            ref += np.einsum("ipq,qr,jrs,sp->ij", a, w, a, w, optimize=True)
        else:
            ref += (a * (x / s)) @ a.T
    return ref


def motzkin_blocks():
    """The sign-symmetry block program of Motzkin-like at d = 7, as the
    approximation solves it."""
    f = motzkin_like()
    bp = basis_products(f.n, 7)
    return approx._assemble_moment_side(f, bp, approx._sign_partition(f, bp), f.n + 1)


@pytest.mark.parametrize(
    "make",
    [lambda: assemble_reduced_dual(dense_polynomial(np.random.default_rng(0), 3, 6), 3),
     motzkin_blocks],
    ids=["dense-3-3", "motzkin-7"],
)
def test_schur_complement_at_late_iterates(make):
    # The iterate before the last one, where W is badly conditioned and the
    # diagonal of M spans many orders of magnitude: every entry must still
    # match to roundoff of its Cauchy-Schwarz bound.
    problem = make()
    n = solve(problem).iterations
    sol = solve(problem, SolverOptions(max_iter=n - 1))
    dense = []
    for x, e in zip(sol.primal, problem.coefs):
        a = np.zeros((problem.m,) + x.shape)
        np.add.at(a, (e.con, e.rows, e.cols)[: a.ndim], e.vals)
        dense.append(a)
    schur = sdp._schur_complement(problem.blocks, problem.coefs, sol.primal, sol.slack, problem.m)[0]
    assert np.array_equal(schur, schur.T)
    ref = schur_reference(problem.blocks, dense, sol.primal, sol.slack)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(schur - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("n,d,seed", [(3, 5, 0), (3, 5, 1), (4, 4, 0), (4, 4, 1)])
def test_dense_inputs_solve_and_verify(n, d, seed):
    f = dense_polynomial(np.random.default_rng(seed), n, 2 * d)
    res = best_l1_sos_approximation(f, d)
    report = verify(res, f, d)
    assert report.all_passed, str(report)
