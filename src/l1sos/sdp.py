"""Primal-dual interior-point solver for small block-diagonal conic programs.

Problems mix dense positive-semidefinite blocks with nonnegative-orthant
blocks in the standard pair

    minimize    <C, Z>                 maximize    b' z
    subject to  <A_i, Z> = b_i         subject to  C - sum_i z_i A_i in K
                Z in K

where K is the product of the block cones.  The algorithm is path-following
with the HKM search direction and a Mehrotra predictor-corrector step.  A
PSD block is a symmetric matrix and a nonnegative block a vector; the
kernels branch on the block type.

The constraint coefficients come as one :class:`Entries` per block, a flat
list of (constraint, row, column, value) entries, the input format of SDPA.
It stores both (r, c) and (c, r) of every PSD entry, sorted by constraint,
repeated entries summed.  A(Z) and A^T(y) are bincounts over them.  The
Schur complement M[i, j] = <A_i, X A_j S^{-1}> is built factored, using the
per-constraint sparsity of SDPA (Fujisawa, Kojima & Nakata, Math.
Programming 79, 1997): with X = R R^T and S^{-1} = L L^T, row i of Q is
vec(R^T A_i L), one small product over constraint i's entries, and
M = Q Q^T is positive semidefinite by construction.  M gets a dense
Cholesky factorization, solved by blocked substitution; on breakdown each
row is shifted by an escalating multiple of its own diagonal entry.  Only
numpy is needed.  Everything is deterministic: a fixed scale-aware starting
point and no randomized pivoting, so identical inputs produce identical
iterate sequences.

Intended for desk-scale problems: block dimensions and constraint counts in
the tens to low hundreds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Divergence factor for the infeasibility heuristic: iterates this far above
# the initialization scale with a persistent objective ray are treated as a
# Farkas-type certificate.
_DIVERGENCE_FACTOR = 1e8
_REG_INITIAL = 1e-12
_REG_MAX = 1e-6
# Block size of the substitution in the Schur solve.
_SUBST_BLOCK = 64
# Share of the distance to the cone boundary that a step may cover.
_STEP_FRACTION = 0.98


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class PsdBlock:
    dim: int


@dataclass(frozen=True)
class NonNegBlock:
    count: int


Block = PsdBlock | NonNegBlock


@dataclass(frozen=True, eq=False)
class Entries:
    """One block's constraint coefficients: entry e adds ``vals[e]`` at
    (``rows[e]``, ``cols[e]``) of A_{``con[e]``}.  On a PSD block an entry
    off the diagonal stands for its mirrored pair; on a nonnegative block
    ``rows == cols``.

    Stored as the solver reads them: both triangles, sorted by (constraint,
    row, column), repeated entries summed.  ``touched`` lists the
    constraints with an entry in the block; entry e belongs to
    ``touched[slot[e]]``, and the entries of ``touched[t]`` are
    ``bounds[t]:bounds[t + 1]``.
    """

    con: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    touched: np.ndarray = field(init=False)
    slot: np.ndarray = field(init=False)
    bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        con, rows, cols = (np.asarray(a, dtype=int) for a in (self.con, self.rows, self.cols))
        vals = np.asarray(self.vals, dtype=float)
        if not (con.shape == rows.shape == cols.shape == vals.shape) or con.ndim != 1:
            raise ValueError("con, rows, cols and vals must be 1-d and equally long")
        # Mirror from the upper triangle, so both triangles sum the same
        # values in the same order.
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        off = rows != cols
        con, rows, cols, vals = (
            np.concatenate([con, con[off]]),
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
        order = np.lexsort((cols, rows, con))
        con, rows, cols = con[order], rows[order], cols[order]
        new = np.ones(con.size, dtype=bool)
        new[1:] = np.any(np.diff([con, rows, cols]) != 0, axis=0)
        vals = np.bincount(np.cumsum(new) - 1, weights=vals[order])
        con, rows, cols = con[new], rows[new], cols[new]
        first = np.diff(con, prepend=-1) != 0
        for name, value in (
            ("con", con), ("rows", rows), ("cols", cols), ("vals", vals),
            ("touched", con[first]), ("slot", np.cumsum(first) - 1),
            ("bounds", np.append(np.flatnonzero(first), con.size)),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class ConicProblem:
    """Block-structured conic program data.

    Parameters
    ----------
    blocks : sequence of PsdBlock / NonNegBlock
    c : sequence of arrays
        Objective per block: (dim, dim) symmetric for PSD blocks, (count,)
        for nonnegative blocks.
    coefs : sequence of Entries
        The constraint coefficients, one Entries per block.
    b : array, shape (m,)
        Right-hand side; every constraint needs an entry in some block.
    """

    blocks: tuple[Block, ...]
    c: tuple[np.ndarray, ...]
    coefs: tuple[Entries, ...]
    b: np.ndarray

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("problem needs at least one block")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be 1-d with one entry per constraint")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite")
        c, coefs = tuple(self.c), tuple(self.coefs)
        cs = []
        for k, (blk, ck, e) in enumerate(zip(blocks, c, coefs, strict=True)):
            ck = np.asarray(ck, dtype=float)
            if isinstance(blk, PsdBlock):
                if blk.dim < 1:
                    raise ValueError("PSD block dimension must be >= 1")
                if ck.shape != (blk.dim, blk.dim):
                    raise ValueError(f"objective block {k} has shape {ck.shape}")
                if not np.allclose(ck, ck.T):
                    raise ValueError(f"objective block {k} is not symmetric")
                ck, dim = 0.5 * (ck + ck.T), blk.dim
            elif isinstance(blk, NonNegBlock):
                if blk.count < 1:
                    raise ValueError("nonnegative block count must be >= 1")
                if ck.shape != (blk.count,):
                    raise ValueError(f"objective block {k} has shape {ck.shape}")
                dim = blk.count
            else:
                raise TypeError(f"unknown block type {type(blk)!r}")
            cs.append(ck)
            if not isinstance(e, Entries):
                raise TypeError(f"block {k}: coefficients must be Entries, not {type(e)!r}")
            if isinstance(blk, NonNegBlock) and np.any(e.rows != e.cols):
                raise ValueError(f"block {k}: nonnegative entries need rows == cols")
            if e.con.size and (e.con.min() < 0 or e.con.max() >= b.size):
                raise ValueError(f"block {k}: constraint index out of range")
            if e.rows.size and (e.rows.min() < 0 or e.rows.max() >= dim):
                raise ValueError(f"block {k}: row or column index out of range")
            if not np.isfinite(e.vals).all():
                raise ValueError(f"block {k}: non-finite value")
        counts = np.bincount(np.concatenate([e.touched for e in coefs]), minlength=b.size)
        if not counts.all():
            raise ValueError(f"constraint {counts.argmin()} has no nonzero coefficients")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "c", tuple(cs))
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.b.size


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    trace: bool = False


class IterationStats(NamedTuple):
    iteration: int
    primal_objective: float
    dual_objective: float
    gap: float
    mu: float
    feas_primal: float
    feas_dual: float


@dataclass(eq=False)
class ConicSolution:
    """Primal/dual iterate returned by :func:`solve`.

    ``status == Status.OPTIMAL`` guarantees the duality gap and both
    feasibility residuals are below the requested tolerances and that every
    primal and slack block is positive semidefinite up to roundoff.
    ``Status.INFEASIBLE`` means a divergence heuristic triggered: the
    iterates blew up along an improving ray (a Farkas-type certificate for
    primal infeasibility or unboundedness); the final iterate is returned so
    callers can inspect the certificate direction.
    """

    status: Status
    primal: tuple[np.ndarray, ...]
    dual: np.ndarray
    slack: tuple[np.ndarray, ...]
    primal_objective: float
    dual_objective: float
    gap: float
    feas_primal: float
    feas_dual: float
    iterations: int
    trace: tuple[IterationStats, ...] | None = None


def _apply_a(coefs, xs, m: int) -> np.ndarray:
    """A(Z): the vector of <A_i, Z> over the constraints."""
    out = np.zeros(m)
    for e, x in zip(coefs, xs):
        picked = x[e.rows, e.cols] if x.ndim == 2 else x[e.rows]
        out += np.bincount(e.con, weights=e.vals * picked, minlength=m)
    return out


def _apply_at(coefs, blocks, y):
    """A^T(y): sum_i y_i A_i, block by block."""
    out = []
    for blk, e in zip(blocks, coefs):
        w = e.vals * y[e.con]
        if isinstance(blk, PsdBlock):
            s = blk.dim
            out.append(np.bincount(e.rows * s + e.cols, weights=w, minlength=s * s).reshape(s, s))
        else:
            out.append(np.bincount(e.rows, weights=w, minlength=blk.count))
    return out


def _inner(blocks, xs, ys) -> float:
    total = 0.0
    for blk, x, y in zip(blocks, xs, ys):
        total += float(np.sum(x * y))
    return total


def _max_step_psd(linv: np.ndarray, d: np.ndarray) -> float:
    """Largest t with x + t*d still PSD, given linv = inv(cholesky(x)) of a
    positive definite x."""
    w = linv @ d @ linv.T
    lmin = np.linalg.eigvalsh(0.5 * (w + w.T))[0]
    if lmin >= -1e-14:
        return np.inf
    return -1.0 / lmin


def _max_step_nonneg(x: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0
    if not neg.any():
        return np.inf
    return float(np.min(-x[neg] / d[neg]))


def _max_step(blocks, linvs, xs, ds) -> float:
    step = np.inf
    for blk, linv, x, d in zip(blocks, linvs, xs, ds):
        if isinstance(blk, PsdBlock):
            step = min(step, _max_step_psd(linv, d))
        else:
            step = min(step, _max_step_nonneg(x, d))
    return step


def _schur_rows(e: Entries, r: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Q with M = Q Q^T on a PSD block's touched constraints, for X = R R^T
    and S^{-1} = L L^T: row t is vec(R^T A_i L) for i = touched[t], the sum
    over constraint i's entries (p, q, v) of v R[p]^T L[q]."""
    s = r.shape[0]
    left = r[e.rows] * e.vals[:, None]
    right = l[e.cols]
    q = np.empty((e.touched.size, s, s))
    bounds = e.bounds.tolist()
    for t in range(e.touched.size):
        lo, hi = bounds[t], bounds[t + 1]
        np.matmul(left[lo:hi].T, right[lo:hi], out=q[t])
    return q.reshape(e.touched.size, s * s)


def _schur_complement(blocks, coefs, xs, ss, m: int):
    """The Schur complement M[i, j] = <A_i, X A_j S^{-1}>, summed over the
    blocks as Q Q^T on the constraints each one touches; also the inverses
    of the slack blocks, and the inverse Cholesky factors of the PSD blocks
    of X and S for the step lengths.  Raises LinAlgError if a PSD block of
    X or S is not numerically positive definite."""
    sinvs, x_linvs, s_linvs = [], [], []
    schur = np.zeros((m, m))
    for blk, e, x, s in zip(blocks, coefs, xs, ss):
        if isinstance(blk, PsdBlock):
            rx = np.linalg.cholesky(x)
            ls = np.linalg.inv(np.linalg.cholesky(s))
            sinv = ls.T @ ls
            x_linvs.append(np.linalg.inv(rx))
            s_linvs.append(ls)
            q = _schur_rows(e, rx, ls.T)
        else:
            sinv = 1.0 / s
            x_linvs.append(None)
            s_linvs.append(None)
            q = np.zeros((e.touched.size, blk.count))
            q[e.slot, e.rows] = e.vals * np.sqrt(x * sinv)[e.rows]
        sinvs.append(sinv)
        if e.touched.size == m:
            schur += q @ q.T
        else:
            schur[np.ix_(e.touched, e.touched)] += q @ q.T
    return schur, sinvs, x_linvs, s_linvs


def _factor_schur(m: np.ndarray):
    """Cholesky factor of the Schur complement, with the inverses of its
    diagonal blocks for :func:`_cholesky_solve`; None on breakdown past the
    largest regularization.

    On breakdown, M is scaled to unit diagonal, D M D with
    D = diag(M)^(-1/2), and shifted by reg * I with reg escalating: row i of
    M is shifted by reg * M_ii, relative to its own scale.  Where M breaks
    down near an optimum its diagonal can span many orders of magnitude
    (1e6 to 1e20 on Motzkin-like programs), and a shift relative to the
    largest entry would swamp the small rows.
    """
    if not np.isfinite(m).all():
        return None
    n = m.shape[0]
    dsc = np.ones(n)
    a, reg = m, 0.0
    while True:
        try:
            l = np.linalg.cholesky(a)
            break
        except np.linalg.LinAlgError:
            reg = _REG_INITIAL if reg == 0.0 else reg * 10.0
            if reg > _REG_MAX:
                return None
            diag = np.diag(m)
            dsc = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
            a = m * np.outer(dsc, dsc) + reg * np.eye(n)
    k = _SUBST_BLOCK
    return dsc, l, [np.linalg.inv(l[lo : lo + k, lo : lo + k]) for lo in range(0, n, k)]


def _cholesky_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve D^{-1} L L^T D^{-1} x = rhs by blocked forward and back
    substitution."""
    dsc, l, invs = factor
    k = _SUBST_BLOCK
    x = dsc * rhs
    for j, inv in enumerate(invs):
        lo = j * k
        x[lo : lo + k] = inv @ (x[lo : lo + k] - l[lo : lo + k, :lo] @ x[:lo])
    for j in reversed(range(len(invs))):
        lo, hi = j * k, (j + 1) * k
        x[lo:hi] = invs[j].T @ (x[lo:hi] - l[hi:, lo:hi].T @ x[hi:])
    return dsc * x


def _schur_solve(factor, m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs through the (possibly regularized) factor, polished by
    two rounds of iterative refinement against the unregularized matrix."""
    x = _cholesky_solve(factor, rhs)
    for _ in range(2):
        x = x + _cholesky_solve(factor, rhs - m @ x)
    return x


def solve(problem: ConicProblem, options: SolverOptions | None = None) -> ConicSolution:
    """Solve the conic program, returning primal and dual variables, the dual
    slack, a certified duality gap and feasibility residuals."""
    opts = options if options is not None else SolverOptions()
    blocks = problem.blocks
    coefs = problem.coefs
    cs = [ck.copy() for ck in problem.c]
    b = problem.b.copy()
    m = problem.m

    a_inf = max(float(np.max(np.abs(e.vals), initial=0.0)) for e in coefs)
    b_inf = float(np.max(np.abs(b)))
    c_inf = max(float(np.max(np.abs(ck))) if ck.size else 0.0 for ck in cs)
    tau = 1.0 + max(b_inf, a_inf, c_inf)

    xs, ss = [], []
    dims = 0
    for blk in blocks:
        if isinstance(blk, PsdBlock):
            xs.append(tau * np.eye(blk.dim))
            ss.append(tau * np.eye(blk.dim))
            dims += blk.dim
        else:
            xs.append(tau * np.ones(blk.count))
            ss.append(tau * np.ones(blk.count))
            dims += blk.count
    y = np.zeros(m)
    nu = float(dims)

    b_scale = 1.0 + float(np.linalg.norm(b))
    c_scale = 1.0 + float(np.sqrt(sum(np.sum(ck * ck) for ck in cs)))

    trace: list[IterationStats] | None = [] if opts.trace else None
    status = Status.MAX_ITERATIONS
    it = 0
    pobj = dobj = gap = feas_p = feas_d = np.nan

    for it in range(opts.max_iter + 1):
        ax = _apply_a(coefs, xs, m)
        rp = b - ax
        aty = _apply_at(coefs, blocks, y)
        rd = [ck - at - sk for ck, at, sk in zip(cs, aty, ss)]
        pobj = _inner(blocks, cs, xs)
        dobj = float(b @ y)
        gap = abs(pobj - dobj)
        compl = _inner(blocks, xs, ss)
        mu = compl / nu
        feas_p = float(np.linalg.norm(rp)) / b_scale
        feas_d = float(np.sqrt(sum(np.sum(r * r) for r in rd))) / c_scale
        if trace is not None:
            trace.append(IterationStats(it, pobj, dobj, gap, mu, feas_p, feas_d))

        finite = (
            np.isfinite(pobj)
            and np.isfinite(dobj)
            and np.isfinite(mu)
            and np.isfinite(feas_p)
            and np.isfinite(feas_d)
        )
        if not finite:
            status = Status.NUMERICAL_FAILURE
            break

        scale_ref = 1.0 + abs(dobj)
        if (
            gap <= opts.gap_tol * scale_ref
            and compl <= opts.gap_tol * scale_ref
            and feas_p <= opts.feas_tol
            and feas_d <= opts.feas_tol
        ):
            status = Status.OPTIMAL
            break

        # Divergence certificates: the dual (resp. primal) iterate running
        # away along an improving ray while staying cone-feasible flags
        # primal infeasibility (resp. unboundedness).
        y_inf = float(np.max(np.abs(y))) if m else 0.0
        x_inf = max(float(np.max(np.abs(x))) for x in xs)
        if y_inf > _DIVERGENCE_FACTOR * tau and dobj > 1e-8 * y_inf * (1.0 + b_inf):
            status = Status.INFEASIBLE
            break
        if x_inf > _DIVERGENCE_FACTOR * tau and pobj < -1e-8 * x_inf * (1.0 + c_inf):
            status = Status.INFEASIBLE
            break

        if it == opts.max_iter:
            status = Status.MAX_ITERATIONS
            break

        try:
            stepped = _take_step(blocks, coefs, b, xs, y, ss, rp, rd, mu, nu)
        except np.linalg.LinAlgError:
            stepped = None
        if stepped is None:
            status = Status.NUMERICAL_FAILURE
            break
        xs, y, ss = stepped

    return ConicSolution(
        status=status,
        primal=tuple(xs),
        dual=y,
        slack=tuple(ss),
        primal_objective=pobj,
        dual_objective=dobj,
        gap=gap,
        feas_primal=feas_p,
        feas_dual=feas_d,
        iterations=it,
        trace=tuple(trace) if trace is not None else None,
    )


def _take_step(blocks, coefs, b, xs, y, ss, rp, rd, mu, nu):
    """One Mehrotra predictor-corrector step along the HKM direction.
    Returns the updated (xs, y, ss) or None on factorization breakdown."""
    m = len(b)
    schur, sinvs, x_linvs, s_linvs = _schur_complement(blocks, coefs, xs, ss, m)
    factor = _factor_schur(schur)
    if factor is None:
        return None

    def a_of(mats):
        return _apply_a(coefs, mats, m)

    # Predictor: pure Newton step toward feasibility and zero complementarity.
    rhs_aff = b + a_of(
        [
            (x @ r) @ sinv if isinstance(blk, PsdBlock) else x * r * sinv
            for blk, x, r, sinv in zip(blocks, xs, rd, sinvs)
        ]
    )
    dy_a = _schur_solve(factor, schur, rhs_aff)
    at_dy = _apply_at(coefs, blocks, dy_a)
    ds_a = [r - at for r, at in zip(rd, at_dy)]
    dx_a = []
    for blk, x, ds, sinv in zip(blocks, xs, ds_a, sinvs):
        if isinstance(blk, PsdBlock):
            d = -x - (x @ ds) @ sinv
            dx_a.append(0.5 * (d + d.T))
        else:
            dx_a.append(-x - x * ds * sinv)

    alpha_p = min(1.0, _max_step(blocks, x_linvs, xs, dx_a))
    alpha_d = min(1.0, _max_step(blocks, s_linvs, ss, ds_a))
    x_trial = [x + alpha_p * d for x, d in zip(xs, dx_a)]
    s_trial = [s + alpha_d * d for s, d in zip(ss, ds_a)]
    mu_aff = max(_inner(blocks, x_trial, s_trial), 0.0) / nu
    sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0
    # Safeguard: when infeasibility dominates the complementarity measure,
    # keep some centering so feasibility progress is not starved (otherwise
    # degenerate instances can pin the iterate to the cone boundary with the
    # primal residual stalled).
    rp_ratio = float(np.linalg.norm(rp)) / (mu * nu + 1e-300)
    if rp_ratio > 1.0:
        sigma = max(sigma, min(0.5, 0.1 * rp_ratio))
    target = sigma * mu

    # Corrector: recenter toward sigma*mu and compensate the dx*ds term.
    cross = [
        dx @ ds if isinstance(blk, PsdBlock) else dx * ds
        for blk, dx, ds in zip(blocks, dx_a, ds_a)
    ]
    rhs = (
        b
        - target * a_of(sinvs)
        + a_of(
            [
                (x @ r + cr) @ sinv if isinstance(blk, PsdBlock) else (x * r + cr) * sinv
                for blk, x, r, cr, sinv in zip(blocks, xs, rd, cross, sinvs)
            ]
        )
    )
    dy = _schur_solve(factor, schur, rhs)
    at_dy = _apply_at(coefs, blocks, dy)
    ds = [r - at for r, at in zip(rd, at_dy)]
    dx = []
    for blk, x, dsk, cr, sinv in zip(blocks, xs, ds, cross, sinvs):
        if isinstance(blk, PsdBlock):
            d = target * sinv - x - (cr + x @ dsk) @ sinv
            dx.append(0.5 * (d + d.T))
        else:
            dx.append(target * sinv - x - (cr + x * dsk) * sinv)

    alpha_p = min(1.0, _STEP_FRACTION * _max_step(blocks, x_linvs, xs, dx))
    alpha_d = min(1.0, _STEP_FRACTION * _max_step(blocks, s_linvs, ss, ds))
    if max(alpha_p, alpha_d) < 1e-13:
        return None

    xs_new = [x + alpha_p * d for x, d in zip(xs, dx)]
    y_new = y + alpha_d * dy
    ss_new = [s + alpha_d * d for s, d in zip(ss, ds)]
    return xs_new, y_new, ss_new
