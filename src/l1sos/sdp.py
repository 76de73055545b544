"""Primal-dual interior-point solver for small block-diagonal conic programs.

Problems mix dense positive-semidefinite blocks with nonnegative-orthant
blocks in the standard pair

    minimize    <C, Z>                 maximize    b' z
    subject to  <A_i, Z> = b_i         subject to  C - sum_i z_i A_i in K
                Z in K

where K is the product of the block cones.  The algorithm is path-following
with the Nesterov-Todd (NT) search direction and a Mehrotra
predictor-corrector step (Todd, Toh & Tutuncu, "On the Nesterov-Todd
direction in semidefinite programming", SIAM J. Optim. 8, 1998).  A PSD
block is a symmetric matrix and a nonnegative block a vector; the kernels
branch on the block type.

The constraint coefficients come as one :class:`Entries` per block, a flat
list of (constraint, row, column, value) entries, the input format of SDPA.
It stores each block's entries once: both (r, c) and (c, r) of every PSD
entry, repeated entries summed, one row per constraint, each row padded with
zero entries to the length of the longest in its chunk of constraints.
Entries are additive, so A(Z) and A^T(y) are bincounts over them, pads
included.  On each block the NT scaling point W satisfies W S W = X: it is
G G^T on a PSD block and diag(sqrt(x / s)) on a nonnegative one, the
diagonal of the PSD cone.  So on both the Schur complement
M[i, j] = <A_i, W A_j W> is built by the F3 formula of SDPA
(Fujisawa, Kojima & Nakata, Math. Programming 79, 1997), using the
per-constraint sparsity: W A_j W is a small product over constraint j's
entries, formed for a chunk of constraints at once by one stacked product
over their padded rows, and column j of M is read off it at the
upper-triangle entries of the constraints i >= j, summed by constraint in
one reduction, and mirrored into row j.  M is exactly
symmetric but positive semidefinite only up to roundoff.  M gets a dense
left-looking blocked Cholesky factorization, one matrix product per block
column, whose diagonal-block inverses also serve the blocked substitution
of each solve; on breakdown each row is shifted once by 1e-12 times its
own diagonal entry, and the shift is reported.  Only numpy is needed.
Everything is deterministic: a fixed scale-aware starting point and no
randomized pivoting, so identical inputs produce identical iterate
sequences.

A solve stops when the gap and the complementarity are at most
1e-8 (1 + |b'y|) and both relative residuals at most 1e-8, or after 200
iterations.  The rule is fixed (_GAP_TOL, _FEAS_TOL, _MAX_ITER).  A program
whose objective is zero in every block, a pure feasibility problem, stops
earlier, at its first exact certificate: an interior X after a full primal
step, returned with the optimal dual y = 0, S = 0, or a y after a full dual
step with S = -A^T(y) in the interior of K and b'y > 0, a Farkas ray that
proves infeasibility.  That ray is the only infeasibility verdict: a
program with a nonzero objective and no optimum is not detected as such,
and its solve ends when an iterate stops being finite, a step fails or the
iterations run out.  A step that fails raises LinAlgError naming its
cause, and the solve ends ``step_failed`` where it catches it.  Every
solution names the rule that ended it and carries its trace: the iterate
statistics of every iteration and the wall time of each step's phases.

A program may carry multiplicities, problem data that default to 1.  A
block with ``copies`` c stands for c identical copies of itself, and a
constraint with ``weight`` w for w identical constraints, as when a program
that a group of symmetries fixes is restricted to its fixed points (Gatermann
& Parrilo, J. Pure Appl. Algebra 192, 2004): the iterates are then those of
the full program, one copy of each.  Copies enter <C, X>, <X, S> and the
barrier parameter nu, the dual residual, A(X) and the Schur complement, as
the factor c of a PSD block's share of M and as W = diag(g sqrt(c)) on a
nonnegative block, which has one c per entry.  Weights enter the norms of
the primal residual and of b.  A^T(y) takes neither.  Unit multiplicities are
exact no-ops, a product with 1.0 or the norm of sqrt(1.0) times a vector,
so a program without them keeps its iterates bit for bit.

Intended for desk-scale problems: block dimensions and constraint counts in
the tens to low hundreds.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Shift of the unit-diagonal Schur complement when it does not factor as it
# is.
_REG = 1e-12
# Block size of the Cholesky factorization and substitution of the Schur
# complement.
_SUBST_BLOCK = 64
# W A_j W is formed for this many constraints j at a time before their
# entries of M are read off, so the products are never all held.
_SCHUR_CHUNK = 16
# Share of the distance to the cone boundary that a step may cover.
_STEP_FRACTION = 0.98
# The stopping rule: gap and complementarity relative to 1 + |b'y|, and the
# primal and dual residuals relative to 1 + ||b|| and 1 + ||C||.
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-8
_MAX_ITER = 200


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


class StopReason(str, enum.Enum):
    """The rule that ended a solve.  Each status has its own reasons:
    ``OPTIMAL`` ends ``CONVERGED`` or ``FEASIBLE_POINT``, ``INFEASIBLE``
    only ``FARKAS_RAY``, ``MAX_ITERATIONS`` only ``MAX_ITERATIONS``, and
    ``NUMERICAL_FAILURE`` ``NOT_FINITE`` or ``STEP_FAILED``."""

    # Gap, complementarity and both residuals below their tolerances.
    CONVERGED = "converged"
    # Zero objective: a feasible interior X after a full primal step.
    FEASIBLE_POINT = "feasible_point"
    # Zero objective: S = -A^T(y) after a full dual step, with b'y > 0.
    FARKAS_RAY = "farkas_ray"
    MAX_ITERATIONS = "max_iterations"
    NOT_FINITE = "not_finite"
    # The Schur complement did not factor, or no step could be taken.
    STEP_FAILED = "step_failed"


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

    Stored once, as the solver reads them: both triangles, repeated entries
    summed, in padded rows.  ``touched`` lists the constraints with an
    entry in the block, and row t holds those of ``touched[t]``, sorted by
    (row, column), then pads (``touched[t]``, 0, 0, 0.0) up to the longest
    row of its chunk of _SCHUR_CHUNK rows, ``chunk_widths[c]`` for chunk c.
    So a chunk's W A_j W are one stacked product, and entries are additive:
    every reader accumulates.

    ``triu_at`` indexes the entries with row <= column, in order, and
    ``triu_vals`` holds their values, off-diagonal ones doubled, so
    <A_i, Y> for a symmetric Y sums over them alone; those of
    ``touched[t]`` start at ``triu_starts[t]``.
    """

    con: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    touched: np.ndarray = field(init=False)
    triu_at: np.ndarray = field(init=False)
    triu_vals: np.ndarray = field(init=False)
    triu_starts: np.ndarray = field(init=False)
    chunk_widths: np.ndarray = field(init=False)

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
        first = np.diff(con, prepend=con[:1] - 1) != 0
        touched = con[first]
        # Every constraint keeps an entry here: each one below the diagonal
        # has its mirror above it.
        up = rows <= cols
        triu_first = np.diff(con[up], prepend=-1) != 0
        # The entries of touched[t] are bounds[t]:bounds[t + 1]; its padded
        # row, as long as every row of its chunk, starts at starts[t].
        bounds = np.append(np.flatnonzero(first), con.size)
        counts = np.diff(bounds)
        widths = np.maximum.reduceat(counts, np.arange(0, counts.size, _SCHUR_CHUNK))
        row_widths = np.repeat(widths, _SCHUR_CHUNK)[: counts.size]
        starts = np.cumsum(row_widths) - row_widths
        at = np.arange(con.size) + np.repeat(starts - bounds[:-1], counts)
        padded = []
        for a in (rows, cols, vals):
            pad = np.zeros(row_widths.sum(), dtype=a.dtype)
            pad[at] = a
            padded.append(pad)
        for name, value in (
            ("con", np.repeat(touched, row_widths)), ("rows", padded[0]), ("cols", padded[1]),
            ("vals", padded[2]), ("touched", touched), ("triu_at", at[up]),
            ("triu_vals", np.where(rows == cols, 1.0, 2.0)[up] * vals[up]),
            ("triu_starts", np.flatnonzero(triu_first)), ("chunk_widths", widths),
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
    copies : sequence, optional
        How many identical copies each block stands for: a positive number
        per PSD block, and per nonnegative block one positive number or one
        per entry.  1 by default.
    weights : array, shape (m,), optional
        How many identical constraints each constraint stands for, positive;
        1 by default.
    """

    blocks: tuple[Block, ...]
    c: tuple[np.ndarray, ...]
    coefs: tuple[Entries, ...]
    b: np.ndarray
    copies: tuple | None = None
    weights: np.ndarray | None = None

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
        copies = (1.0,) * len(blocks) if self.copies is None else tuple(self.copies)
        weights = np.ones(b.size) if self.weights is None else np.asarray(self.weights, dtype=float)
        if weights.shape != b.shape or not np.all(weights > 0.0) or not np.isfinite(weights).all():
            raise ValueError("weights must be positive and finite, one per constraint")
        cs, cps = [], []
        for k, (blk, ck, e, cp) in enumerate(zip(blocks, c, coefs, copies, strict=True)):
            ck, cp = np.asarray(ck, dtype=float), np.asarray(cp, dtype=float)
            if not np.all(cp > 0.0) or not np.isfinite(cp).all():
                raise ValueError(f"block {k}: copies must be positive and finite")
            if not np.isfinite(ck).all():
                raise ValueError(f"objective block {k} is not finite")
            if isinstance(blk, PsdBlock):
                if blk.dim < 1:
                    raise ValueError("PSD block dimension must be >= 1")
                if ck.shape != (blk.dim, blk.dim):
                    raise ValueError(f"objective block {k} has shape {ck.shape}")
                if not np.allclose(ck, ck.T):
                    raise ValueError(f"objective block {k} is not symmetric")
                if cp.shape != ():
                    raise ValueError(f"block {k}: a PSD block takes one number of copies")
                ck, dim, cp = 0.5 * (ck + ck.T), blk.dim, float(cp)
            elif isinstance(blk, NonNegBlock):
                if blk.count < 1:
                    raise ValueError("nonnegative block count must be >= 1")
                if ck.shape != (blk.count,):
                    raise ValueError(f"objective block {k} has shape {ck.shape}")
                if cp.shape not in ((), (blk.count,)):
                    raise ValueError(f"block {k}: copies have shape {cp.shape}")
                dim, cp = blk.count, np.broadcast_to(cp, (blk.count,)).copy()
            else:
                raise TypeError(f"unknown block type {type(blk)!r}")
            cs.append(ck)
            cps.append(cp)
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
        object.__setattr__(self, "copies", tuple(cps))
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return self.b.size


class IterationStats(NamedTuple):
    iteration: int
    primal_objective: float
    dual_objective: float
    gap: float
    mu: float
    feas_primal: float
    feas_dual: float
    # The step taken from this iterate: primal and dual step lengths, the
    # centering parameter and the shift of the unit-diagonal Schur complement
    # that its factorization needed; nan on the last row.
    alpha_p: float = math.nan
    alpha_d: float = math.nan
    sigma: float = math.nan
    reg: float = math.nan


class PhaseTimes(NamedTuple):
    """Wall time of one step's phases, in seconds: the Schur build (with the
    NT scaling), its factorization, and the rest of the step (both
    directions, the step lengths and the update)."""

    schur: float
    factor: float
    step: float


@dataclass(eq=False)
class ConicSolution:
    """Primal/dual iterate returned by :func:`solve`.

    ``status == Status.OPTIMAL`` guarantees the duality gap and both
    feasibility residuals are below the stopping tolerances and that every
    primal and slack block is positive semidefinite up to roundoff.  On a
    zero objective it may stop at a feasible point (``stop_reason`` is
    ``FEASIBLE_POINT``): X is then interior and y = 0, S = 0, so gap and
    dual residual are exactly 0.  ``Status.INFEASIBLE`` happens only on a
    zero objective and always means ``FARKAS_RAY``: the final iterate's y
    has -A^T(y) = S, interior to K up to roundoff, and b'y > 0, which
    proves that no feasible X exists.

    ``trace`` holds one row per iterate and ``phase_times`` one row per step
    taken from it.
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
    stop_reason: StopReason
    trace: tuple[IterationStats, ...]
    phase_times: tuple[PhaseTimes, ...]


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


def _inner(xs, ys, copies) -> float:
    """<X, Y> over the blocks, each block counted ``copies`` times."""
    total = 0.0
    for x, y, c in zip(xs, ys, copies):
        total += float(np.sum(x * y * c))
    return total


def _max_step(blocks, scalings, dds) -> float:
    """Largest t along the scaled directions ``dds`` from the scaled iterates
    of ``scalings``, d > 0: diag(d) + t dd stays PSD on a PSD block and
    d + t dd nonnegative on a nonnegative one."""
    step = np.inf
    for blk, (_, d), dd in zip(blocks, scalings, dds):
        if isinstance(blk, PsdBlock):
            r = d**-0.5
            lmin = np.linalg.eigvalsh(dd * r[:, None] * r)[0]
            if lmin < -1e-14:
                step = min(step, -1.0 / lmin)
        else:
            neg = dd < 0
            if neg.any():
                step = min(step, float(np.min(-d[neg] / dd[neg])))
    return step


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """G and d with G^T S G = G^{-1} X G^{-T} = diag(d) on a PSD block: W = G G^T
    is the NT scaling point, W S W = X.  With X = Lx Lx^T, S = Ls Ls^T and
    (Ls^T Lx)^T (Ls^T Lx) = V diag(lam) V^T, G = Lx V diag(lam)^(-1/4) and
    d = lam^(1/2).  Raises LinAlgError if X or S is not numerically positive
    definite."""
    lx = np.linalg.cholesky(x)
    p = np.linalg.cholesky(s).T @ lx
    lam, v = np.linalg.eigh(p.T @ p)
    if not lam[0] > 0.0:
        raise np.linalg.LinAlgError("scaled iterate is not positive definite")
    d = np.sqrt(lam)
    return (lx @ v) / np.sqrt(d), d


def _schur_block(e: Entries, w: np.ndarray, times: float) -> np.ndarray:
    """``times`` M[i, j], M[i, j] = <A_i, W A_j W>, on a block's touched
    constraints, by the F3 formula of SDPA: W A_j W is the sum over
    constraint j's entries (p, q, v) of v W[:, p] W[q, :], and M[i, j] for
    i >= j sums v (W A_j W)[p, q] over the upper-triangle entries of
    constraint i, W A_j W being symmetric; ``times`` scales those v.  Rows
    j are taken _SCHUR_CHUNK at a time, their W A_j W formed by one stacked
    product over the chunk's padded entries, and mirrored into the columns;
    where two rows of a chunk meet, the two values are averaged, so the
    result is exactly symmetric."""
    s = w.shape[0]
    k = e.touched.size
    flat = e.rows[e.triu_at] * s + e.cols[e.triu_at]
    starts = e.triu_starts
    vals = e.triu_vals * times
    out = np.empty((k, k))
    full = np.empty((min(k, _SCHUR_CHUNK), s, s))
    z = 0
    for lo, width in zip(range(0, k, _SCHUR_CHUNK), e.chunk_widths.tolist()):
        hi = min(lo + _SCHUR_CHUNK, k)
        a, z = z, z + (hi - lo) * width
        r, c = (idx[a:z].reshape(hi - lo, width) for idx in (e.rows, e.cols))
        left = np.take(w, r, axis=0)
        left *= e.vals[a:z].reshape(hi - lo, width, 1)
        np.matmul(left.transpose(0, 2, 1), np.take(w, c, axis=0), out=full[: hi - lo])
        # Entries are sorted by constraint: those of lo and later start at
        # starts[lo].
        first = starts[lo]
        picked = np.take(full[: hi - lo].reshape(hi - lo, s * s), flat[first:], axis=1)
        picked *= vals[first:]
        rows = np.add.reduceat(picked, starts[lo:] - first, axis=1)
        out[lo:hi, lo:] = rows
        out[lo:, lo:hi] = rows.T
        tile = rows[:, : hi - lo]
        out[lo:hi, lo:hi] = 0.5 * (tile + tile.T)
    return out


def _schur_complement(blocks, coefs, xs, ss, m: int, copies=None):
    """The Schur complement M[i, j] = <A_i, W A_j W> of the NT direction,
    summed over the blocks on the constraints each one touches, exactly
    symmetric; also the scaling of every block.  A PSD block's is (G, d)
    from :func:`_nt_scaling`, with W = G G^T; a nonnegative block's is
    (g, d) with g = sqrt(x / s) and d = sqrt(x s).  The orthant is the
    diagonal of the PSD cone and W = diag(g) its NT scaling point, so both
    cones take the F3 formula of :func:`_schur_block`.  A block of
    ``copies`` c, 1 by default, counts c times: a PSD block's share of M is
    multiplied by c, and a nonnegative block's W is diag(g sqrt(c)), with
    one c per entry.  Raises LinAlgError if a PSD block of X or S is not
    numerically positive definite."""
    scalings = []
    schur = np.zeros((m, m))
    for blk, e, x, s, c in zip(blocks, coefs, xs, ss, copies or (1.0,) * len(blocks)):
        if isinstance(blk, PsdBlock):
            g, d = _nt_scaling(x, s)
            w, times = g @ g.T, c
        else:
            g, d = np.sqrt(x / s), np.sqrt(x * s)
            w, times = np.diag(g * np.sqrt(c)), 1.0
        block = _schur_block(e, w, times)
        scalings.append((g, d))
        if e.touched.size == m:
            schur += block
        else:
            schur[np.ix_(e.touched, e.touched)] += block
    return schur, scalings


def _blocked_cholesky(a: np.ndarray):
    """Lower Cholesky factor L of a, left-looking by block columns of
    _SUBST_BLOCK, with the inverses of its diagonal blocks.  Each block
    column is updated by one product with the columns left of it, its
    diagonal block factored and inverted, and the panel below solved by
    that inverse, with one round of refinement against the diagonal block:
    on a badly scaled M the inverse is only accurate to about cond times
    roundoff, and the refined panel keeps L L^T = a to roundoff of each
    entry's scale.  Raises LinAlgError if a diagonal block breaks down."""
    n = a.shape[0]
    l = np.zeros_like(a)
    invs = []
    for lo in range(0, n, _SUBST_BLOCK):
        hi = min(lo + _SUBST_BLOCK, n)
        col = a[lo:, lo:hi] - l[lo:, :lo] @ l[lo:hi, :lo].T
        diag = np.linalg.cholesky(col[: hi - lo])
        inv = np.linalg.inv(diag)
        l[lo:hi, lo:hi] = diag
        panel = col[hi - lo :] @ inv.T
        l[hi:, lo:hi] = panel + (col[hi - lo :] - panel @ diag.T) @ inv.T
        invs.append(inv)
    return l, invs


def _factor_schur(m: np.ndarray):
    """Cholesky factor of the Schur complement, with the inverses of its
    diagonal blocks for :func:`_cholesky_solve`, and the shift it needed (0.0
    when M factored as it is).  Raises LinAlgError if M is not finite or
    does not factor with the shift either.

    On breakdown, M is scaled to unit diagonal, D M D with
    D = diag(M)^(-1/2), and shifted once by _REG * I: row i of M is shifted
    by _REG * M_ii, relative to its own scale.  Where M breaks down near an
    optimum its diagonal can span many orders of magnitude (1e6 to 1e20 on
    Motzkin-like programs), and a shift relative to the largest entry would
    swamp the small rows.
    """
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("the Schur complement is not finite")
    try:
        return (np.ones(m.shape[0]), *_blocked_cholesky(m)), 0.0
    except np.linalg.LinAlgError:
        pass
    diag = np.diag(m)
    dsc = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    try:
        l, invs = _blocked_cholesky(m * np.outer(dsc, dsc) + _REG * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("the Schur complement did not factor") from None
    return (dsc, l, invs), _REG


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


def solve(problem: ConicProblem) -> ConicSolution:
    """Solve the conic program, returning primal and dual variables, the dual
    slack, a certified duality gap and feasibility residuals."""
    # Overflow and NaN are reported as a not_finite stop, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, coefs, cs, b, m = problem.blocks, problem.coefs, problem.c, problem.b, problem.m
        copies, root_w = problem.copies, np.sqrt(problem.weights)

        a_inf = max(float(np.max(np.abs(e.vals), initial=0.0)) for e in coefs)
        b_inf = float(np.max(np.abs(b)))
        c_inf = max(float(np.max(np.abs(ck))) if ck.size else 0.0 for ck in cs)
        tau = 1.0 + max(b_inf, a_inf, c_inf)

        xs, ss = [], []
        nu = 0.0
        for blk, cp in zip(blocks, copies):
            if isinstance(blk, PsdBlock):
                xs.append(tau * np.eye(blk.dim))
                ss.append(tau * np.eye(blk.dim))
                nu += blk.dim * cp
            else:
                xs.append(tau * np.ones(blk.count))
                ss.append(tau * np.ones(blk.count))
                nu += float(np.sum(cp))
        y = np.zeros(m)

        b_scale = 1.0 + float(np.linalg.norm(root_w * b))
        c_scale = 1.0 + float(np.sqrt(sum(np.sum(ck * ck * cp) for ck, cp in zip(cs, copies))))

        # With a zero objective every feasible X is optimal, and every y with
        # -A^T(y) in K and b'y > 0 proves that none exists: the solve ends at the
        # first iterate that is either one, exactly.  A full step makes its
        # residual exact to roundoff, and every later one keeps it so.
        zero_objective = not any(ck.any() for ck in cs)
        full_p = full_d = False

        trace: list[IterationStats] = []
        phase_times: list[PhaseTimes] = []
        status, reason = Status.MAX_ITERATIONS, StopReason.MAX_ITERATIONS

        for it in range(_MAX_ITER + 1):
            rp = b - _apply_a(coefs, [x * cp for x, cp in zip(xs, copies)], m)
            rp_norm = float(np.linalg.norm(root_w * rp))
            aty = _apply_at(coefs, blocks, y)
            rd = [ck - at - sk for ck, at, sk in zip(cs, aty, ss)]
            pobj = _inner(cs, xs, copies)
            dobj = float(b @ y)
            gap = abs(pobj - dobj)
            compl = _inner(xs, ss, copies)
            mu = compl / nu
            feas_p = rp_norm / b_scale
            feas_d = float(np.sqrt(sum(np.sum(r * r * cp) for r, cp in zip(rd, copies)))) / c_scale
            trace.append(IterationStats(it, pobj, dobj, gap, mu, feas_p, feas_d))

            finite = (
                np.isfinite(pobj)
                and np.isfinite(dobj)
                and np.isfinite(mu)
                and np.isfinite(feas_p)
                and np.isfinite(feas_d)
            )
            if not finite:
                status, reason = Status.NUMERICAL_FAILURE, StopReason.NOT_FINITE
                break

            if zero_objective and full_p and feas_p <= _FEAS_TOL:
                # y = 0, S = 0 is dual optimal: gap and dual residual are 0.
                y, ss = np.zeros(m), [np.zeros_like(x) for x in xs]
                dobj = gap = feas_d = 0.0
                trace[-1] = IterationStats(it, pobj, dobj, gap, 0.0, feas_p, feas_d)
                status, reason = Status.OPTIMAL, StopReason.FEASIBLE_POINT
                break
            if zero_objective and full_d and dobj > 0.0:
                status, reason = Status.INFEASIBLE, StopReason.FARKAS_RAY
                break

            scale_ref = 1.0 + abs(dobj)
            if (
                gap <= _GAP_TOL * scale_ref
                and compl <= _GAP_TOL * scale_ref
                and feas_p <= _FEAS_TOL
                and feas_d <= _FEAS_TOL
            ):
                status, reason = Status.OPTIMAL, StopReason.CONVERGED
                break

            if it == _MAX_ITER:
                break

            try:
                xs, y, ss, alpha_p, alpha_d, sigma, reg, times = _take_step(
                    problem, xs, y, ss, rp_norm, rd, mu, nu
                )
            except np.linalg.LinAlgError:
                status, reason = Status.NUMERICAL_FAILURE, StopReason.STEP_FAILED
                break
            full_p, full_d = full_p or alpha_p == 1.0, full_d or alpha_d == 1.0
            trace[-1] = trace[-1]._replace(alpha_p=alpha_p, alpha_d=alpha_d, sigma=sigma, reg=reg)
            phase_times.append(times)

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
            stop_reason=reason,
            trace=tuple(trace),
            phase_times=tuple(phase_times),
        )


def _scaled(blk, g: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """G^T mat G: a block of the dual side in the NT scaled space, symmetric
    up to roundoff."""
    return g.T @ mat @ g if isinstance(blk, PsdBlock) else g * mat


def _unscaled(blk, g: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """G mat G^T: a block of the primal side back from the NT scaled space,
    symmetric up to roundoff."""
    return g @ mat @ g.T if isinstance(blk, PsdBlock) else g * mat


def _take_step(problem, xs, y, ss, rp_norm, rd, mu, nu):
    """One Mehrotra predictor-corrector step along the NT direction.

    In the scaled space of each block both X and S are diag(d); with
    dX~ = G^{-1} dX G^{-T} and dS~ = G^T dS G the direction solves

        A(dX) = rp,   A^T(dy) + dS = Rd,   dX~ + dS~ = E - diag(d),

    with E = 0 on the predictor and, on the corrector,
    E = sigma mu diag(d)^{-1} - (dX~_a dS~_a + dS~_a dX~_a) / (d_i + d_j),
    the symmetrized complementarity equation at diag(d).  Eliminating dX
    and dS leaves M dy = b + A(G (G^T Rd G - E) G^T).  Step lengths are read
    off the scaled iterate; ``rp_norm``, the weighted norm of rp, sets the
    centering safeguard.  Returns the updated (xs, y, ss) with the step
    lengths, sigma, the Schur shift and the :class:`PhaseTimes`.  Raises
    LinAlgError, naming the cause, if the NT scaling breaks down, the Schur
    complement is not finite or does not factor (from
    :func:`_factor_schur`), or no step can be taken."""
    blocks, coefs, copies, b, m = (
        problem.blocks, problem.coefs, problem.copies, problem.b, problem.m
    )
    start = time.perf_counter()
    schur, scalings = _schur_complement(blocks, coefs, xs, ss, m, copies)
    built = time.perf_counter()
    factor, reg = _factor_schur(schur)
    factored_at = time.perf_counter()
    psd = [isinstance(blk, PsdBlock) for blk in blocks]
    dmats = [np.diag(d) if p else d for p, (_, d) in zip(psd, scalings)]
    rd_scaled = [_scaled(blk, g, r) for blk, (g, _), r in zip(blocks, scalings, rd)]

    def direction(es):
        rhs = b + _apply_a(
            coefs,
            [
                _unscaled(blk, g, r - e) * cp
                for blk, (g, _), r, e, cp in zip(blocks, scalings, rd_scaled, es, copies)
            ],
            m,
        )
        dy = _schur_solve(factor, schur, rhs)
        ds = [r - at for r, at in zip(rd, _apply_at(coefs, blocks, dy))]
        ds_scaled = [_scaled(blk, g, dsk) for blk, (g, _), dsk in zip(blocks, scalings, ds)]
        dx_scaled = [e - dm - dst for e, dm, dst in zip(es, dmats, ds_scaled)]
        return dy, ds, dx_scaled, ds_scaled

    # Predictor: pure Newton step toward feasibility and zero complementarity.
    _, _, dx_a, ds_a = direction([0.0] * len(blocks))
    alpha_p = min(1.0, _max_step(blocks, scalings, dx_a))
    alpha_d = min(1.0, _max_step(blocks, scalings, ds_a))
    mu_aff = max(
        _inner(
            [dm + alpha_p * dx for dm, dx in zip(dmats, dx_a)],
            [dm + alpha_d * ds for dm, ds in zip(dmats, ds_a)],
            copies,
        ),
        0.0,
    ) / nu
    sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0
    # Safeguard: when infeasibility dominates the complementarity measure,
    # keep some centering so feasibility progress is not starved (otherwise
    # degenerate instances can pin the iterate to the cone boundary with the
    # primal residual stalled).
    rp_ratio = rp_norm / (mu * nu + 1e-300)
    if rp_ratio > 1.0:
        sigma = max(sigma, min(0.5, 0.1 * rp_ratio))
    target = sigma * mu

    # Corrector: recenter toward sigma*mu and compensate the dX~ dS~ term.
    es = []
    for p, (_, d), dx, ds in zip(psd, scalings, dx_a, ds_a):
        if p:
            h = dx @ ds
            e = -(h + h.T) / (d[:, None] + d)
            e.flat[:: d.size + 1] += target / d
        else:
            e = (target - dx * ds) / d
        es.append(e)
    dy, ds, dx_scaled, ds_scaled = direction(es)

    alpha_p = min(1.0, _STEP_FRACTION * _max_step(blocks, scalings, dx_scaled))
    alpha_d = min(1.0, _STEP_FRACTION * _max_step(blocks, scalings, ds_scaled))
    if max(alpha_p, alpha_d) < 1e-13:
        raise np.linalg.LinAlgError("no step could be taken")

    xs_new = []
    for blk, (g, _), x, dx in zip(blocks, scalings, xs, dx_scaled):
        dx = _unscaled(blk, g, dx)
        if isinstance(blk, PsdBlock):
            dx = 0.5 * (dx + dx.T)
        xs_new.append(x + alpha_p * dx)
    y_new = y + alpha_d * dy
    ss_new = [s + alpha_d * d for s, d in zip(ss, ds)]
    times = PhaseTimes(built - start, factored_at - built, time.perf_counter() - factored_at)
    return xs_new, y_new, ss_new, alpha_p, alpha_d, sigma, reg, times
