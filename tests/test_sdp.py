import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from l1sos import (
    ConicProblem,
    Entries,
    NonNegBlock,
    PsdBlock,
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

SRC = Path(__file__).resolve().parent.parent / "src"


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
        sol = solve(factory())
        assert sol.status is Status.OPTIMAL
        for stats in sol.trace:
            assert stats.primal_objective - stats.dual_objective >= -1e-9

    def test_deterministic_iterates(self):
        problem = assemble_reduced_dual(motzkin_like(), 3)
        first = solve(problem)
        second = solve(problem)
        assert first.trace == second.trace  # bit-identical floats
        assert np.array_equal(first.dual, second.dual)

    def test_step_data_in_trace(self):
        problem = assemble_reduced_dual(motzkin_like(), 4)
        sol = solve(problem)
        *steps, last = sol.trace
        assert steps
        for stats in steps:
            assert 0.0 < stats.alpha_p <= 1.0
            assert 0.0 < stats.alpha_d <= 1.0
            assert 0.0 <= stats.sigma <= 1.0
        assert np.isnan([last.alpha_p, last.alpha_d, last.sigma, last.reg]).all()

    def test_schur_shift_in_trace(self):
        problem = assemble_reduced_dual(dense_polynomial(np.random.default_rng(0), 3, 6), 3)
        sol = solve(problem)
        assert sol.status is Status.OPTIMAL
        *steps, last = sol.trace
        assert steps
        assert all(stats.reg == 0.0 for stats in steps)
        assert np.isnan(last.reg)

    def test_factor_schur_reports_shift(self):
        assert sdp._factor_schur(np.eye(3))[1] == 0.0
        # Indefinite by 1e-13 after scaling to unit diagonal: the first shift
        # repairs it.
        almost = np.array([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        assert sdp._factor_schur(almost)[1] == sdp._REG_INITIAL
        assert sdp._factor_schur(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 495])
    def test_factor_schur_solves(self, n):
        # Sizes on both sides of the block size and across several blocks.
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, 2 * n))
        m = g @ g.T
        factor, reg = sdp._factor_schur(m)
        assert reg == 0.0
        _, l, invs = factor
        assert np.array_equal(l, np.tril(l))
        assert rel_diff(l @ l.T, m) <= 1e-13
        rhs = rng.standard_normal(n)
        want = np.linalg.solve(m, rhs)
        assert np.linalg.norm(sdp._schur_solve(factor, m, rhs) - want) <= 1e-12 * np.linalg.norm(want)

    def test_factor_schur_shifts_on_late_breakdown(self):
        # Unit diagonal, positive definite in its leading 130 x 130 part, and
        # indefinite by 1e-13 in its last two rows: the breakdown comes in
        # the last block column, and the first shift repairs it.
        rng = np.random.default_rng(5)
        g = rng.standard_normal((140, 280))
        g[-1] = g[-2]
        m = g @ g.T
        m /= np.sqrt(np.outer(np.diag(m), np.diag(m)))
        z = np.zeros(140)
        z[-2:] = [1.0, -1.0]
        m -= 0.5e-13 * np.outer(z, z)
        assert np.linalg.eigvalsh(m[:130, :130])[0] > 0.01
        assert np.linalg.eigvalsh(m)[0] < 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m)
        assert sdp._factor_schur(m)[1] == sdp._REG_INITIAL

    def test_phase_times_only_when_tracing(self):
        problem = assemble_reduced_dual(motzkin_like(), 4)
        sol = solve(problem)
        assert len(sol.phase_times) == len(sol.trace) - 1 == sol.iterations
        for times in sol.phase_times:
            assert min(times) > 0.0

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
    def test_max_iterations(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        sol = solve(min_trace_cross())
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

    def test_feasible_point_trace_ends_at_solution(self):
        # The last trace row describes the returned y = 0, S = 0, not the
        # iterate the solve stopped at.
        bp = basis_products(3, 2)
        r = np.random.default_rng(3).standard_normal((len(bp.basis),) * 2)
        g = bp.gram_polynomial(r @ r.T / len(bp.basis))
        unit = g * (1.0 / g.l1_norm())
        sol = approx._moment_side_solution(unit, 2, 0)[-1]
        assert sol.stop_reason is StopReason.FEASIBLE_POINT
        last = sol.trace[-1]
        assert last.dual_objective == last.gap == last.mu == last.feas_dual == 0.0
        assert (last.primal_objective, last.feas_primal) == (sol.primal_objective, sol.feas_primal)

    def test_nonzero_objective_diverges(self):
        # min x s.t. x = -1, x >= 0 is infeasible, and min -x1 s.t.
        # x1 - x2 = 0, x >= 0 is unbounded.  Neither objective is zero, so
        # no Farkas ray ends the solve: the iterates grow until they are no
        # longer finite.  A Farkas ray is the only infeasibility verdict.
        infeasible = ConicProblem(
            blocks=(NonNegBlock(1),),
            c=(np.ones(1),),
            coefs=(Entries([0], [0], [0], [1.0]),),
            b=[-1.0],
        )
        unbounded = ConicProblem(
            blocks=(NonNegBlock(2),),
            c=(np.array([-1.0, 0.0]),),
            coefs=(Entries([0, 0], [0, 1], [0, 1], [1.0, -1.0]),),
            b=[0.0],
        )
        for problem in (infeasible, unbounded):
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve(problem)
            assert sol.status is Status.NUMERICAL_FAILURE
            assert sol.stop_reason is StopReason.NOT_FINITE
        assert "divergence" not in {reason.value for reason in StopReason}

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

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "blk,obj",
        [
            (PsdBlock(2), lambda v: np.diag([v, 1.0])),
            (NonNegBlock(2), lambda v: np.array([v, 1.0])),
        ],
        ids=["psd", "nonneg"],
    )
    def test_nonfinite_objective(self, value, blk, obj):
        # Past this check a NaN objective ends the solve at iteration 0 and
        # an inf one overflows inside it.
        with pytest.raises(ValueError, match="objective block 1 is not finite"):
            ConicProblem(
                blocks=(NonNegBlock(1), blk),
                c=(np.zeros(1), obj(value)),
                coefs=(Entries([0], [0], [0], [1.0]), Entries([0], [1], [1], [1.0])),
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


def sorted_triples(con, rows, cols, vals):
    """A block's raw triples as :class:`Entries` holds them, without pads:
    an entry at (r, c) also at (c, r), repeated entries summed in input
    order, sorted by (constraint, row, column)."""
    summed = {}
    for i, r, c, v in zip(con.tolist(), rows.tolist(), cols.tolist(), vals.tolist()):
        for key in {(i, r, c), (i, c, r)}:
            summed[key] = summed.get(key, 0.0) + v
    keys = sorted(summed)
    return tuple(np.array(a, dtype=int) for a in zip(*keys)) + (np.array([summed[k] for k in keys]),)


STORED = (
    "con", "rows", "cols", "vals", "touched", "slot",
    "triu_at", "triu_vals", "triu_starts", "chunk_widths",
)

# Random programs by seed and constraint count.  With m = 37 the last Schur
# chunk is partial, and the constraints of each chunk have uneven entry
# counts, so the rows carry pads.
PROGRAMS = pytest.mark.parametrize(
    "seed,m", [(0, 9), (1, 9), (2, 9), (3, 9), (4, 37)], ids=["0", "1", "2", "3", "m37"]
)


@PROGRAMS
class TestEntries:
    """The stored form against the raw triples it was built from."""

    def test_order_and_orientation_do_not_matter(self, seed, m):
        rng = np.random.default_rng(seed)
        for con, rows, cols, _ in random_conic_problem(rng, m=m)[1]:
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

    def test_stored_form(self, seed, m):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng, m=m)
        for e, triples, ref in zip(problem.coefs, raw, dense_reference(problem, raw)):
            dense = np.zeros_like(ref)
            np.add.at(dense, (e.con, e.rows, e.cols)[: ref.ndim], e.vals)
            assert rel_diff(dense, ref) <= 1e-13
            # One row per touched constraint, as long as the longest of its
            # chunk: the constraint's sorted triples, then pads
            # (constraint, 0, 0, 0.0).
            con, rows, cols, vals = sorted_triples(*triples)
            touched, counts = np.unique(con, return_counts=True)
            assert np.array_equal(e.touched, touched)
            assert np.array_equal(e.touched[e.slot], e.con)
            assert np.all(np.diff(e.slot) >= 0)
            widths = np.bincount(e.slot, minlength=touched.size)
            los = range(0, touched.size, sdp._SCHUR_CHUNK)
            assert len(los) == e.chunk_widths.size
            for lo, width in zip(los, e.chunk_widths):
                assert width == counts[lo : lo + sdp._SCHUR_CHUNK].max()
                assert np.all(widths[lo : lo + sdp._SCHUR_CHUNK] == width)
            at = np.arange(e.slot.size) - np.repeat(np.cumsum(widths) - widths, widths)
            real = at < counts[e.slot]
            for stored, want in zip((e.con, e.rows, e.cols, e.vals), (con, rows, cols, vals)):
                assert np.array_equal(stored[real], want)
            assert not np.any([e.rows[~real], e.cols[~real], e.vals[~real]])
            # The upper triangle with off-diagonal values doubled, grouped by
            # constraint.
            up = rows <= cols
            assert np.array_equal(e.triu_at, np.flatnonzero(real & (e.rows <= e.cols)))
            assert np.array_equal(e.triu_vals, (np.where(rows == cols, 1.0, 2.0) * vals)[up])
            assert np.array_equal(e.triu_starts, np.searchsorted(con[up], touched))
            triu = (e.con[e.triu_at], e.rows[e.triu_at], e.cols[e.triu_at])
            upper = np.zeros_like(ref)
            np.add.at(upper, triu[: ref.ndim], e.triu_vals)
            want = np.triu(ref) + np.triu(ref, 1) if ref.ndim == 3 else ref
            assert rel_diff(upper, want) <= 1e-13

    def test_kernels_add_pads_as_zeros(self, seed, m):
        # A, A^T and the Schur complement bit for bit as their formulas give
        # them on the unpadded sorted triples.  The nonnegative block has a
        # padded row with an entry at index 0, which a pad would overwrite
        # if a kernel assigned instead of adding.
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng, m=m)
        blocks, coefs = problem.blocks, problem.coefs
        pad = coefs[-1].vals == 0.0
        at_zero = ~pad & (coefs[-1].rows == 0)
        assert np.any(np.isin(coefs[-1].slot[pad], coefs[-1].slot[at_zero]))
        triples = [sorted_triples(*t) for t in raw]
        xs, ss = random_interior(rng, problem)
        y = rng.standard_normal(problem.m)
        ref_a = np.zeros(problem.m)
        for (con, rows, cols, vals), x in zip(triples, xs):
            picked = x[rows, cols] if x.ndim == 2 else x[rows]
            ref_a += np.bincount(con, weights=vals * picked, minlength=problem.m)
        assert np.array_equal(sdp._apply_a(coefs, xs, problem.m), ref_a)
        for at, (con, rows, cols, vals), x in zip(sdp._apply_at(coefs, blocks, y), triples, xs):
            idx = rows * x.shape[0] + cols if x.ndim == 2 else rows
            ref = np.bincount(idx, weights=vals * y[con], minlength=x.size).reshape(x.shape)
            assert np.array_equal(at, ref)
        schur = sdp._schur_complement(blocks, coefs, xs, ss, problem.m)[0]
        assert np.array_equal(schur, schur_from_triples(blocks, triples, xs, ss, problem.m))


def schur_from_triples(blocks, triples, xs, ss, m):
    """The Schur complement by the formulas of :func:`sdp._schur_complement`
    on the unpadded sorted triples: W A_j W for one constraint at a time,
    R[j, i] = <A_i, W A_j W> read off it at the upper triangle of A_i, and
    M[i, j] = R[j, i] where j's chunk of constraints comes first, the mean
    of the two where i and j share a chunk."""
    schur = np.zeros((m, m))
    for blk, (con, rows, cols, vals), x, s in zip(blocks, triples, xs, ss):
        touched, slot = np.unique(con, return_inverse=True)
        k = touched.size
        if isinstance(blk, PsdBlock):
            g = sdp._nt_scaling(x, s)[0]
            w = g @ g.T
            waw = np.empty((k, blk.dim, blk.dim))
            for j in range(k):
                mine = slot == j
                left = np.take(w, rows[mine], axis=0) * vals[mine, None]
                waw[j] = left.T @ np.take(w, cols[mine], axis=0)
            up = rows <= cols
            picked = np.take(waw.reshape(k, -1), rows[up] * blk.dim + cols[up], axis=1)
            picked *= (np.where(rows == cols, 1.0, 2.0) * vals)[up]
            r = np.add.reduceat(picked, np.searchsorted(slot[up], np.arange(k)), axis=1)
            chunk = np.arange(k) // sdp._SCHUR_CHUNK
            first = chunk[:, None] < chunk
            block = np.where(chunk[:, None] == chunk, 0.5 * (r + r.T), np.where(first, r, r.T))
        else:
            q = np.zeros((k, blk.count))
            q[slot, rows] = vals * np.sqrt(x / s)[rows]
            block = q @ q.T
        schur[np.ix_(touched, touched)] += block
    return schur


@PROGRAMS
class TestKernels:
    """A, A^T and the Schur complement against dense einsums."""

    def test_apply_a_and_transpose(self, seed, m):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng, m=m)
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

    def test_nt_scaling_point(self, seed, m):
        rng = np.random.default_rng(seed)
        problem, _ = random_conic_problem(rng, m=m)
        xs, ss = random_interior(rng, problem)
        for blk, x, s in zip(problem.blocks, xs, ss):
            if isinstance(blk, PsdBlock):
                g, d = sdp._nt_scaling(x, s)
                w = g @ g.T
                assert rel_diff(w @ s @ w, x) <= 1e-12
                # Both iterates are diag(d) in the scaled space.
                assert rel_diff(g.T @ s @ g, np.diag(d)) <= 1e-12
                assert d.min() > 0.0

    def test_schur_complement(self, seed, m):
        rng = np.random.default_rng(seed)
        problem, raw = random_conic_problem(rng, m=m)
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
def test_schur_complement_at_late_iterates(monkeypatch, make):
    # The iterate before the last one, where W is badly conditioned and the
    # diagonal of M spans many orders of magnitude: every entry must still
    # match to roundoff of its Cauchy-Schwarz bound.
    problem = make()
    monkeypatch.setattr(sdp, "_MAX_ITER", solve(problem).iterations - 1)
    sol = solve(problem)
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


def test_blocked_cholesky_at_late_iterates(monkeypatch):
    # Late in a Motzkin-like solve at d = 11 (78 constraints, two block
    # columns) the diagonal of M spans 1e13 to 1e17 and the diagonal blocks
    # are so ill-conditioned that their inverses are accurate only to about
    # 1e-8; a panel multiplied by the inverse alone left L L^T off M by up
    # to 1e-10 of sqrt(M_ii M_jj).  The refined panel keeps roundoff.
    f = motzkin_like()
    bp = basis_products(f.n, 11)
    problem = approx._assemble_moment_side(f, bp, approx._sign_partition(f, bp), f.n + 1)
    checked = 0
    for it in range(10, solve(problem).iterations):
        monkeypatch.setattr(sdp, "_MAX_ITER", it)
        sol = solve(problem)
        m = sdp._schur_complement(problem.blocks, problem.coefs, sol.primal, sol.slack, problem.m)[0]
        try:
            l = sdp._blocked_cholesky(m)[0]
        except np.linalg.LinAlgError:
            continue
        scale = np.sqrt(np.outer(np.diag(m), np.diag(m)))
        assert np.max(np.abs(l @ l.T - m) / scale) <= 1e-14
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("n,d,seed", [(3, 5, 0), (3, 5, 1), (4, 4, 0), (4, 4, 1)])
def test_dense_inputs_solve_and_verify(n, d, seed):
    f = dense_polynomial(np.random.default_rng(seed), n, 2 * d)
    res = best_l1_sos_approximation(f, d)
    report = verify(res, f, d)
    assert report.all_passed, str(report)


def test_runtime_needs_numpy_only():
    # scipy is installed for the tests; the library must not load it.
    code = (
        "import sys; from l1sos import is_sos, motzkin_like, solve;"
        "from l1sos.approx import assemble_reduced_dual;"
        "solve(assemble_reduced_dual(motzkin_like(), 3)); is_sos(motzkin_like(), 3);"
        "print('scipy' in sys.modules)"
    )
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
