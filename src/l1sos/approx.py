"""Best l1-norm approximation of a polynomial by a sum of squares.

Given f and a degree bound 2d >= deg f, the closest SOS polynomial in the
l1 coefficient norm has the form

    g = f + lam_0 + sum_i lam_i * x_i^{2d},       lam >= 0,

and the distance is rho = sum_i lam_i.  The multipliers solve the program

    min  sum lam_i   s.t.  f + lam_0 + sum_i lam_i x_i^{2d} is SOS,

whose moment-side counterpart

    min  L_y(f)   s.t.  M_d(y) PSD,  L_y(1) <= 1,  L_y(x_i^{2d}) <= 1

is what actually gets handed to the conic solver: its constraint
multipliers are exactly (X*, lam*) where X* is the Gram matrix of g, its
variables give the optimal moment vector y*, and rho = -L_{y*}(f) with zero
duality gap.  With the multipliers tied to one epsilon the same program
gives the uniform baseline, and with none the SOS membership test; all
three share one solve, in one PSD block per class of basis monomials under
the sign flips that fix f.  Each block's constraint coefficients are one
:class:`~l1sos.sdp.Entries`, read from the upper triangle of the label
matrix with one mask per class.  :func:`assemble_full_form`, a
coefficient-wise formulation, is kept as a cross-check on tiny instances.

A result is accepted only through :func:`verify`'s own checks.  Each is
one function that returns a :class:`Check` and never raises, with residual
inf for an input that does not fit: :func:`_gram_check`, :func:`_gap_check`
and :func:`_psd_check`.  The pipeline hands them to :func:`_require`, which
raises every SolverFailure, so it refuses exactly what :func:`verify` would
fail.  The approximation and the baseline are accepted by one call of it,
in :func:`_accepted_solve`, and an accepted approximation keeps the
:class:`~l1sos.sdp.ConicSolution` of its solve, as a refusal does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .moment import (
    BasisProducts,
    MomentVector,
    basis_products,
    moment_matrix,
    riesz,
)
from .poly import Monomial, Polynomial
from .sdp import (
    ConicProblem,
    ConicSolution,
    Entries,
    NonNegBlock,
    PsdBlock,
    Status,
    StopReason,
    solve,
)

# Multipliers this far below zero are solver noise and get clipped; anything
# worse is treated as a failed solve.
_CLIP_TOL = 1e-9
_EIG_CLIP_REL = 1e-9
# is_sos accepts a ray as a witness only if L_y(g / ||g||_1) < -_WITNESS_MARGIN.
# A ray whose moment matrix is PSD only to the 1e-8 tolerance of _psd_check
# can show a small negative value on an SOS g.
_WITNESS_MARGIN = 1e-7


class SolverFailure(RuntimeError):
    """The conic solve did not reach Optimal status, or its result failed
    ``check``, one of the checks that :func:`verify` runs."""

    def __init__(
        self, message: str, solution: ConicSolution | None = None, check: Check | None = None
    ):
        super().__init__(message)
        self.solution = solution
        self.check = check


@dataclass(frozen=True, eq=False)
class SosCertificate:
    """Explicit decomposition g ~ sum_k weights[k] * squares[k]^2.

    ``residual`` is the l1 norm of the reconstruction error; all weights are
    strictly positive.
    """

    squares: tuple[Polynomial, ...]
    weights: tuple[float, ...]
    residual: float

    is_sos = True


@dataclass(frozen=True, eq=False)
class SosRefutation:
    """Witness that a polynomial g is not a sum of squares: a moment vector
    y of degree 2 d0, d0 = max(1, ceil(deg g / 2)), with M_{d0}(y) PSD but
    ``value`` = L_y(g) < 0 (no such y exists for SOS g).

    :func:`is_sos` returns the Farkas ray of its membership solve, scaled to
    largest corner moment 1, and only when it passes :func:`verify`'s
    witness checks with a margin.  The corner moments are at most 1, so
    -value / ||g||_1 is a lower bound on rho_{d0}(g / ||g||_1).  The ray is
    the first one the solve meets, not the best, so the bound can be loose:
    on Motzkin-like it is 0.0087 / ||g||_1 against
    rho_{d0}(g / ||g||_1) = 0.0162 / ||g||_1."""

    witness: MomentVector
    value: float

    is_sos = False


@dataclass(frozen=True, eq=False)
class ApproximationResult:
    """Output of :func:`best_l1_sos_approximation`.

    Attributes
    ----------
    lam : array, shape (n + 1,)
        Nonnegative perturbation coefficients (constant term first, then one
        per variable for x_i^{2d}).
    rho : float
        The l1 distance sum(lam).
    g : Polynomial
        The approximant f + lam_0 + sum_i lam_i x_i^{2d}.
    y_star : MomentVector
        Optimal moment vector of the dual program; rho = -L_{y_star}(f).
    gram : array
        PSD Gram matrix of g over the degree-d basis.
    certificate : SosCertificate
        Eigendecomposition-based square extraction from ``gram``.
    solver : ConicSolution
        The solve that produced the result, with its status, stop reason,
        residuals, per-iteration trace and phase times.  A zero f carries
        the exact optimal pair of its program, X = 0, y = 0, S = C, with
        nothing solved: zero iterations, ``optimal``, ``converged`` and an
        empty trace.
    """

    lam: np.ndarray
    rho: float
    g: Polynomial
    y_star: MomentVector
    gram: np.ndarray
    certificate: SosCertificate
    solver: ConicSolution


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            flag = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<28s} {flag}  residual={c.residual:.3e}  tol={c.tolerance:.3e}"
            )
        return "\n".join(lines)


def motzkin_like() -> Polynomial:
    """x1^2 x2^2 (x1^2 + x2^2 - 1) + 1/27: nonnegative on R^2 but not a sum
    of squares, with minimum 0 at (+-(1/3)^(1/2), +-(1/3)^(1/2))."""
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    return x1**2 * x2**2 * (x1**2 + x2**2 - 1.0) + 1.0 / 27.0


def _check_degree(f: Polynomial, d: int) -> None:
    if d < 1:
        raise ValueError("degree bound d must be >= 1")
    if 2 * d < f.degree():
        raise ValueError(
            f"degree bound too small: need 2d >= deg f = {f.degree()}, got 2d = {2 * d}"
        )


def _perturbation_monomials(n: int, two_d: int) -> list[Monomial]:
    """The constant monomial followed by x_i^{2d} for each variable."""
    pattern = [(0,) * n]
    for i in range(n):
        pattern.append(tuple(two_d if j == i else 0 for j in range(n)))
    return pattern


def _padded_coefficients(f: Polynomial, basis) -> tuple[np.ndarray, np.ndarray]:
    """f's coefficients in basis order, and those of its terms outside it."""
    out = np.zeros(len(basis))
    rest = []
    for mono, coeff in f.terms.items():
        i = basis.index.get(mono)
        if i is None:
            rest.append(coeff)
        else:
            out[i] = coeff
    return out, np.array(rest)


def _coefficient_error(bp: BasisProducts, gram: np.ndarray, g: Polynomial) -> np.ndarray:
    """g_alpha - <gram, B_alpha> for every alpha of degree <= 2d, followed by
    the coefficients of g's terms of higher degree."""
    gvec, rest = _padded_coefficients(g, bp.product_basis)
    return np.concatenate([gvec - bp.gram_coefficients(gram), rest])


def _gram_tolerance(g: Polynomial) -> float:
    """1e-7, relative to g's largest coefficient once that exceeds 1."""
    return 1e-7 * max([1.0] + [abs(c) for c in g.terms.values()])


def _gap_tolerance(f: Polynomial, rho: float) -> float:
    """Allowed |rho + L_{y*}(f)|: 1e-7 (min(1, ||f||_1) + rho).  The absolute
    part scales down with ||f||_1, or a tiny f would pass with a gap larger
    than rho."""
    return 1e-7 * (min(1.0, f.l1_norm()) + rho)


# The acceptance checks that the pipeline and verify share.  Each one is
# total: an input that does not fit fails with residual inf instead of
# raising.

def _gram_check(bp: BasisProducts, gram, g: Polynomial) -> Check:
    """The Gram matrix, s x s over bp's degree-d basis, reproduces every
    coefficient of g to :func:`_gram_tolerance`; terms of g above degree 2d
    count as errors."""
    s = len(bp.basis)
    res = np.inf
    if g.n == bp.basis.n and np.shape(gram) == (s, s) and np.isfinite(gram).all():
        res = float(np.abs(_coefficient_error(bp, gram, g)).max())
    tol = _gram_tolerance(g)
    return Check("gram_reproduces_g", res <= tol, res, tol)


def _nonnegative_check(lam, tol: float) -> Check:
    """Every multiplier is at least -tol; a non-finite one fails with
    residual inf."""
    lam = np.asarray(lam, dtype=float)
    res = max(0.0, -float(lam.min(initial=0.0))) if np.isfinite(lam).all() else np.inf
    return Check("nonnegative_multipliers", res <= tol, res, tol)


def _gap_check(f: Polynomial, rho: float, y: MomentVector) -> Check:
    """Zero duality gap, rho = -L_y(f), to :func:`_gap_tolerance`.  y must
    be finite, in f's variables and of degree at least deg f."""
    res = np.inf
    if y.n == f.n and y.degree >= f.degree() and np.isfinite(y.values).all():
        res = abs(rho + riesz(y, f))
    tol = _gap_tolerance(f, rho)
    return Check("zero_duality_gap", res <= tol, res, tol)


def _psd_check(name: str, mat) -> Check:
    """``mat``, a finite nonempty square matrix, is PSD: its symmetric
    part's smallest eigenvalue is at least -1e-8 (1 + its largest)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or not 0 < mat.shape[0] == mat.shape[1] or not np.isfinite(mat).all():
        return Check(name, False, np.inf, 1e-8)
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    res, tol = max(0.0, -float(evals[0])), 1e-8 * (1.0 + float(evals[-1]))
    return Check(name, res <= tol, res, tol)


def _require(sol: ConicSolution, *checks: Check, status: Status = Status.OPTIMAL) -> None:
    """Raise SolverFailure, with ``sol`` attached, unless the solve ended
    with ``status`` and every check passes, the first failed check named."""
    if sol.status != status:
        raise SolverFailure(
            f"conic solve ended with status {sol.status.value}, stopped by "
            f"{sol.stop_reason.value}, after {sol.iterations} iterations (gap={sol.gap:.3e}, "
            f"feas_primal={sol.feas_primal:.3e}, feas_dual={sol.feas_dual:.3e})",
            sol,
        )
    for c in checks:
        if not c.passed:
            raise SolverFailure(
                f"{c.name.replace('_', ' ')} check failed: residual {c.residual:.3e} "
                f"exceeds tolerance {c.tolerance:.3e}",
                sol,
                c,
            )


class _SignPartition(NamedTuple):
    """Block structure of the moment-side programs of f.

    ``classes[k]`` holds, in basis order, the basis indices of the k-th PSD
    block; ``invariant`` holds the product-basis indices of the monomials
    that keep a constraint.  Gram entries between classes and moments of the
    other monomials are zero at an optimum.
    """

    classes: tuple[np.ndarray, ...]
    invariant: np.ndarray


def _sign_partition(f: Polynomial, bp: BasisProducts) -> _SignPartition:
    """Split the moment-side programs of f by the sign flips that fix f.

    Let V be the span over GF(2) of the parities of supp f.  The flips
    x_i -> -x_i that fix f fix 1 and x_i^{2d} too, hence the whole program,
    so an optimum may be averaged over them (Gatermann & Parrilo 2004).
    Basis monomials beta, gamma then share a block exactly when
    beta + gamma mod 2 lies in V, and alpha keeps its constraint exactly
    when alpha mod 2 does.  Parities are 0/1 rows, column i holding
    alpha_i mod 2, so any number of variables is exact.  Gaussian
    elimination over GF(2) reduces f's parities and those of every product
    monomial together, one pivot column at a time; a product parity lies in
    V exactly when it reduces to zero.
    """
    span = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.n) % 2 == 1
    reduced = bp.product_basis.exponents % 2 == 1
    for i in range(f.n):
        hit = np.flatnonzero(span[:, i])
        if hit.size:
            pivot = span[hit[0]].copy()
            span[hit] ^= pivot
            reduced[reduced[:, i]] ^= pivot
    keep = ~reduced.any(axis=1)
    # beta_i and beta_j share a class exactly when their product keeps its
    # constraint.  Classes go in the order of their first basis monomial,
    # which is the first of its own class.
    first = keep[bp.labels].argmax(axis=1)
    leaders = np.flatnonzero(first == np.arange(first.size))
    return _SignPartition(tuple(np.flatnonzero(first == i) for i in leaders), np.flatnonzero(keep))


def _assemble_moment_side(
    f: Polynomial, bp: BasisProducts, partition: _SignPartition, multipliers: int
) -> ConicProblem:
    """Conic form of the moment-side program, one PSD block per class.

    One constraint per invariant monomial alpha of degree <= 2d, with
    right-hand side f_alpha (zero-padded).  Constraint multipliers are the
    Gram blocks followed by a nonnegative block of ``multipliers``
    perturbation multipliers: n + 1 free ones, 1 that ties the lam_i to a
    single epsilon, or none for the SOS membership program of f itself.
    Block k's entries are the upper-triangle pairs of class k, on the
    constraint of their label.
    """
    s = len(bp.basis)
    con_of = np.full(len(bp.product_basis), -1)
    con_of[partition.invariant] = np.arange(partition.invariant.size)
    rows, cols = np.triu_indices(s)
    con = con_of[bp.labels[rows, cols]]
    blocks: list[PsdBlock | NonNegBlock] = []
    c, coefs = [], []
    for idx in partition.classes:
        local = np.full(s, -1)
        local[idx] = np.arange(idx.size)
        # A pair shares a class exactly when its label keeps a constraint.
        mask = (local[rows] >= 0) & (con >= 0)
        blocks.append(PsdBlock(idx.size))
        c.append(np.zeros((idx.size, idx.size)))
        coefs.append(Entries(con[mask], local[rows[mask]], local[cols[mask]], np.ones(mask.sum())))
    if multipliers:
        # The perturbation monomials are even, so each keeps its constraint.
        pattern = _perturbation_monomials(f.n, 2 * bp.basis.degree)
        pat_con = con_of[[bp.product_basis.index_of(mono) for mono in pattern]]
        slots = np.arange(f.n + 1) if multipliers > 1 else np.zeros(f.n + 1, dtype=int)
        blocks.append(NonNegBlock(multipliers))
        c.append(np.ones(multipliers))
        coefs.append(Entries(pat_con, slots, slots, -np.ones(f.n + 1)))
    b = _padded_coefficients(f, bp.product_basis)[0][partition.invariant]
    return ConicProblem(tuple(blocks), tuple(c), tuple(coefs), b)


def assemble_reduced_dual(f: Polynomial, d: int) -> ConicProblem:
    """The moment-side conic program for f at degree bound 2d.

    Block structure: one PSD block of dimension s(d) and one nonnegative
    block of size n + 1; one constraint per monomial of degree <= 2d with
    right-hand side f_alpha.  This is the program without the sign-symmetry
    blocks that :func:`best_l1_sos_approximation` solves.
    """
    _check_degree(f, d)
    bp = basis_products(f.n, d)
    # One class and every constraint: the unreduced program.
    trivial = _SignPartition((np.arange(len(bp.basis)),), np.arange(len(bp.product_basis)))
    return _assemble_moment_side(f, bp, trivial, f.n + 1)


def assemble_full_form(f: Polynomial, d: int) -> ConicProblem:
    """Coefficient-wise formulation: minimize sum_alpha lam_alpha subject to
    |f_alpha - g_alpha| <= lam_alpha with g ranging over SOS polynomials.

    Much larger than the reduced program (2 s(2d) constraints instead of
    s(2d)); kept for cross-validation on tiny instances, where its optimal
    value ``solve(assemble_full_form(f, d)).primal_objective`` is rho.
    """
    _check_degree(f, d)
    bp = basis_products(f.n, d)
    s = len(bp.basis)
    m1 = len(bp.product_basis)
    fvec = _padded_coefficients(f, bp.product_basis)[0]
    rows, cols = np.triu_indices(s)
    labels = bp.labels[rows, cols]
    k = np.arange(m1)
    # Blocks: Gram matrix X, lam, slack u (plus side), slack v (minus side);
    # constraint k reads <X, B_k> + lam_k - u_k = f_k, and constraint m1 + k
    # reads -<X, B_k> + lam_k - v_k = -f_k.
    blocks = (PsdBlock(s), NonNegBlock(m1), NonNegBlock(m1), NonNegBlock(m1))
    c = (np.zeros((s, s)), np.ones(m1), np.zeros(m1), np.zeros(m1))
    coefs = (
        Entries(
            np.concatenate([labels, labels + m1]), np.tile(rows, 2), np.tile(cols, 2),
            np.repeat([1.0, -1.0], labels.size),
        ),
        Entries(np.concatenate([k, k + m1]), np.tile(k, 2), np.tile(k, 2), np.ones(2 * m1)),
        Entries(k, k, k, -np.ones(m1)),
        Entries(k + m1, k, k, -np.ones(m1)),
    )
    return ConicProblem(blocks, c, coefs, np.concatenate([fvec, -fvec]))


def _extract_certificate(gram: np.ndarray, bp: BasisProducts, g: Polynomial) -> SosCertificate:
    """Square extraction by eigendecomposition, clipping eigenvalues below
    1e-9 * max eigenvalue, with the l1 reconstruction residual against g."""
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    lmax = float(evals[-1]) if evals.size else 0.0
    keep = evals > _EIG_CLIP_REL * max(lmax, 0.0)
    weights, vecs = evals[keep], evecs[:, keep].T
    squares = tuple(Polynomial(bp.basis.n, dict(zip(bp.basis.monomials, v))) for v in vecs)
    # sum_k w_k q_k^2 has the Gram matrix Q^T diag(w) Q, row k of Q holding q_k.
    residual = float(np.abs(_coefficient_error(bp, (vecs.T * weights) @ vecs, g)).sum())
    return SosCertificate(squares, tuple(weights.tolist()), residual)


def _perturbation(n: int, two_d: int, lam: np.ndarray) -> Polynomial:
    return Polynomial(n, dict(zip(_perturbation_monomials(n, two_d), lam)))


def _moment_side_solution(
    f: Polynomial, d: int, multipliers: int
) -> tuple[BasisProducts, np.ndarray, np.ndarray, MomentVector, ConicSolution]:
    """Solve the moment-side program of f at degree bound 2d in sign-symmetry
    blocks, with ``multipliers`` perturbation multipliers (see
    :func:`_assemble_moment_side`), whatever status the solve ends with.
    A zero f is not solved: its program has b = 0 and the exact optimal
    pair X = 0, y = 0, S = C.

    Returns the basis products, the full Gram matrix carrying each block on
    its class, the raw multipliers (empty for none), y = -dual on the
    invariant monomials and zero elsewhere, and the solution.
    """
    bp = basis_products(f.n, d)
    partition = _sign_partition(f, bp)
    problem = _assemble_moment_side(f, bp, partition, multipliers)
    if f.is_zero():
        # C lies in the cone, so S = C is a dual slack.
        sol = ConicSolution(
            Status.OPTIMAL, tuple(np.zeros_like(c) for c in problem.c), np.zeros(problem.m),
            problem.c, 0.0, 0.0, 0.0, 0.0, 0.0, 0, StopReason.CONVERGED, trace=(), phase_times=(),
        )
    else:
        sol = solve(problem)
    gram = np.zeros((len(bp.basis), len(bp.basis)))
    for idx, x in zip(partition.classes, sol.primal):
        gram[np.ix_(idx, idx)] = x
    y_vals = np.zeros(len(bp.product_basis))
    # Subtracted, not negated, so a zero dual gives +0.0 moments.
    y_vals[partition.invariant] -= sol.dual
    raw = sol.primal[-1] if multipliers else np.zeros(0)
    return bp, gram, raw, MomentVector(bp.product_basis, y_vals), sol


def _accepted_solve(
    f: Polynomial, d: int, multipliers: int
) -> tuple[np.ndarray, float, Polynomial, MomentVector, np.ndarray, BasisProducts, ConicSolution]:
    """Solve the moment-side program of f with n + 1 free multipliers or 1
    tied one, and accept it as :func:`verify` would.

    The multipliers are clipped at zero, rho is their sum and g is f plus
    the perturbation with the multipliers broadcast to its n + 1 monomials.
    Returns (lam, rho, g, y, gram, basis products, solution).  Multipliers
    below -_CLIP_TOL, or a Gram matrix or moment vector that disagrees with
    them, mean the solve was not as accurate as its status claims: then
    SolverFailure is raised with the solution and the failed check attached.
    The status is read first, so nothing is computed from a failed solve.
    """
    bp, gram, raw, y, sol = _moment_side_solution(f, d, multipliers)
    _require(sol)
    lam = np.clip(raw, 0.0, None)
    rho = float(lam.sum())
    g = f + _perturbation(f.n, 2 * d, np.broadcast_to(lam, f.n + 1))
    _require(
        sol, _nonnegative_check(raw, _CLIP_TOL), _gram_check(bp, gram, g), _gap_check(f, rho, y)
    )
    return lam, rho, g, y, gram, bp, sol


def best_l1_sos_approximation(f: Polynomial, d: int) -> ApproximationResult:
    """Closest SOS polynomial of degree <= 2d to f in the l1 coefficient
    norm, together with the distance, multipliers, moment vector, Gram
    matrix, an explicit certificate and the solve's ConicSolution.

    Raises SolverFailure, with the raw solution attached, if the conic
    solve does not reach Optimal status, if a multiplier lies below
    -1e-9, or if the result fails :func:`verify`'s ``gram_reproduces_g``
    or ``zero_duality_gap`` check, which the pipeline runs through the same
    functions; the failed check is attached and named in the message.
    """
    _check_degree(f, d)
    lam, rho, g, y_star, gram, bp, sol = _accepted_solve(f, d, f.n + 1)
    return ApproximationResult(lam, rho, g, y_star, gram, _extract_certificate(gram, bp, g), sol)


def _sos_degree(g: Polynomial) -> int:
    """d0 = max(1, ceil(deg g / 2)), the degree at which is_sos decides g."""
    return max(1, (g.degree() + 1) // 2)


def is_sos(g: Polynomial, d: int) -> SosCertificate | SosRefutation:
    """Decide SOS membership; the degree bound 2d only has to cover deg g.

    A sum of squares of degree 2e is a sum of squares of polynomials of
    degree <= e (the simplest case of Reznick's Newton-polytope bound), so
    the answer is decided at d0 = max(1, ceil(deg g / 2)) whatever d is.
    Solves the Gram feasibility program over the degree-d0 basis.  Its
    objective is zero, so the solve stops at its first exact certificate:
    an interior feasible Gram matrix after a full primal step, which
    yields a certificate by eigendecomposition, or a Farkas ray y = -dual
    after a full dual step, with M_{d0}(y) PSD and L_y(g) < 0; the first
    such ray is taken, not the best (see :class:`SosRefutation`).  Scaled
    to largest corner moment 1, the ray is the witness if it passes
    :func:`verify`'s witness checks with L_y(g / ||g||_1) < -1e-7.

    There is one solve and no second opinion.  Any other outcome raises
    SolverFailure with the solution attached: a solve that ends neither
    way, or a ray that fails a witness check, which is then named in
    ``check``.  Near the boundary of the SOS cone, where double precision
    cannot tell the two answers apart, that refusal is the answer.  The
    program is split into sign-symmetry blocks and solved for g / ||g||_1,
    so the answer does not depend on g's scale; the certificate weights
    and the witness value are in g's units, and the certificate residual
    is taken against g itself.  A zero g is divided by 1 and certified
    with no squares; a g whose l1 norm overflows raises ValueError.
    """
    _check_degree(g, d)
    d0 = _sos_degree(g)
    norm = g.l1_norm()
    if norm == np.inf:
        raise ValueError("the l1 norm of g overflows double precision")
    unit = g * (1.0 / (norm or 1.0))
    bp, gram, _, ray, sol = _moment_side_solution(unit, d0, 0)
    if sol.status == Status.OPTIMAL:
        return _extract_certificate(norm * gram, bp, g)
    corner = max(ray.value(mono) for mono in _perturbation_monomials(g.n, 2 * d0))
    if 0.0 < corner < np.inf:
        ray = MomentVector(ray.basis, ray.values / corner)
    _require(sol, *_witness_checks(ray, unit, bp, -_WITNESS_MARGIN), status=Status.INFEASIBLE)
    return SosRefutation(witness=ray, value=riesz(ray, g))


def uniform_sos_perturbation(f: Polynomial, d: int) -> tuple[float, Polynomial]:
    """Smallest eps >= 0 with f + eps * (1 + sum_i x_i^{2d}) a sum of
    squares, found by tying all perturbation multipliers to one scalar.
    Returns (eps, perturbed polynomial).

    Accepted, or refused with SolverFailure, by the same code as
    :func:`best_l1_sos_approximation`, on the same checks: the tied
    multiplier is at least -1e-9, the Gram matrix reproduces the perturbed
    polynomial, and eps = -L_y(f)."""
    _check_degree(f, d)
    _, eps, g, *_ = _accepted_solve(f, d, 1)
    return eps, g


def _witness_checks(
    y: MomentVector, g: Polynomial, bp: BasisProducts, bound: float = 0.0
) -> tuple[Check, Check]:
    """The checks of a witness y that g is not SOS at bp's degree d0:
    M_{d0}(y), read through the label matrix, is PSD, and L_y(g) < bound.
    A y that cannot fill M_{d0} fails both with residual inf."""
    fits = y.n == g.n and y.degree >= 2 * bp.basis.degree
    psd = _psd_check("witness_moment_psd", y.values[bp.labels] if fits else None)
    value = riesz(y, g) if psd.residual < np.inf else np.inf
    return psd, Check("witness_value_negative", value < bound, value, bound)


def _certificate_checks(
    cert: SosCertificate, g: Polynomial, bp: BasisProducts, tol: float, fits: bool = True
) -> tuple[Check, Check]:
    """Certificate weights are positive, and the squares, which must live in
    bp's degree-d basis with one weight each, rebuild g to l1 error tol.
    Nothing is read from ``cert.residual``."""
    weights = np.asarray(cert.weights, dtype=float)
    wmin = float(weights.min()) if weights.size else 1.0
    squares = [_padded_coefficients(q, bp.basis) for q in cert.squares]
    if not fits or len(squares) != weights.size or any(rest.size for _, rest in squares):
        res = float("inf")
    else:
        q = np.array([vec for vec, _ in squares]).reshape(-1, len(bp.basis))
        res = float(np.abs(_coefficient_error(bp, (q.T * weights) @ q, g)).sum())
    return (
        Check("certificate_weights_positive", wmin > 0.0, max(0.0, -wmin), 0.0),
        Check("certificate_reconstruction", res <= tol, res, tol),
    )


def verify(
    result: ApproximationResult | SosCertificate | SosRefutation, f: Polynomial, d: int
) -> VerificationReport:
    """Independently recheck every structural invariant of a result.

    Nothing from the solver run is reused; every quantity is recomputed from
    the result fields, f and d.  Failures are report entries, not
    exceptions.  An :func:`is_sos` answer is checked at the degree d0 that
    :func:`is_sos` decides f at: a certificate's squares and weights must
    rebuild f to 1e-6 ||f||_1 in l1, whatever its stored ``residual`` says;
    a refutation's witness y must have M_{d0}(y) PSD and L_y(f) < 0.
    """
    if isinstance(result, (SosCertificate, SosRefutation)):
        bp = basis_products(f.n, _sos_degree(f))
        if isinstance(result, SosCertificate):
            checks = _certificate_checks(result, f, bp, 1e-6 * f.l1_norm())
        else:
            checks = _witness_checks(result.witness, f, bp)
        return VerificationReport(checks)

    checks: list[Check] = []
    n = f.n
    pattern = _perturbation_monomials(n, 2 * d)
    lam = np.asarray(result.lam, dtype=float)
    rho = float(result.rho)
    y = result.y_star

    checks.append(_nonnegative_check(lam, 0.0))

    # g - f is supported on {1, x_i^{2d}} and matches lam there, and rho is
    # its l1 norm.  A g in other variables or a lam of another length or
    # with non-finite entries fails both with residual inf.
    structure_res = dist_res = np.inf
    if result.g.n == n and lam.shape == (n + 1,) and np.isfinite(lam).all():
        diff = result.g - f
        off_pattern = sum(abs(c) for mono, c in diff.terms.items() if mono not in pattern)
        pattern_dev = max(abs(diff.coefficient(mono) - lam[i]) for i, mono in enumerate(pattern))
        structure_res = max(off_pattern, pattern_dev)
        dist_res = abs(rho - diff.l1_norm())
    tol = 1e-9 * (1.0 + rho)
    checks.append(Check("perturbation_structure", structure_res <= tol, structure_res, tol))
    checks.append(Check("rho_equals_l1_distance", dist_res <= tol, dist_res, tol))

    bp = basis_products(n, d)
    checks.append(_gram_check(bp, result.gram, result.g))
    checks.append(_psd_check("gram_psd", result.gram))
    checks.append(_gap_check(f, rho, y))

    # y* is feasible for the moment-side program; a y* of another degree
    # fails.
    feas_res = np.inf
    if y.n == n and y.degree == 2 * d and np.isfinite(y.values).all():
        feas_res = max(0.0, -float(np.linalg.eigvalsh(moment_matrix(y, d))[0]))
        feas_res = max(feas_res, max(y.value(mono) for mono in pattern) - 1.0)
    checks.append(Check("moment_vector_feasible", feas_res <= 1e-8, feas_res, 1e-8))

    # Certificate weights are positive and the squares rebuild g; a
    # certificate of another degree, told by the Gram matrix's shape, fails.
    s = len(bp.basis)
    cert_tol = 1e-6 * (1.0 + result.g.l1_norm())
    fits = np.shape(result.gram) == (s, s)
    checks.extend(_certificate_checks(result.certificate, result.g, bp, cert_tol, fits))

    return VerificationReport(tuple(checks))
