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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .moment import (
    BasisProducts,
    MomentVector,
    basis_products,
    enumerate_basis,
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
    SolverOptions,
    Status,
    StopReason,
    solve,
)

# Multipliers this far below zero are solver noise and get clipped; anything
# worse is treated as a failed solve.
_CLIP_TOL = 1e-9
_EIG_CLIP_REL = 1e-9
# l1 distance of g / ||g||_1 from the SOS cone below which is_sos calls g SOS.
_SOS_RHO_TOL = 1e-7


class SolverFailure(RuntimeError):
    """The conic solver did not reach Optimal status."""

    def __init__(self, message: str, solution: ConicSolution | None = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True, eq=False)
class SosCertificate:
    """Explicit decomposition g ~ sum_k weights[k] * squares[k]^2.

    ``residual`` is the l1 norm of the reconstruction error; all weights are
    strictly positive.
    """

    squares: tuple[Polynomial, ...]
    weights: tuple[float, ...]
    residual: float

    @property
    def is_sos(self) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class SosRefutation:
    """Witness that a polynomial g is not a sum of squares: a moment vector
    y of degree 2 d0, d0 = max(1, ceil(deg g / 2)), with M_{d0}(y) PSD but
    ``value`` = L_y(g) < 0 (no such y exists for SOS g).

    :func:`is_sos` returns the Farkas ray of its membership solve, scaled to
    largest corner moment 1, and the bounded program's optimal moment
    vector only when the ray fails :func:`verify`'s witness checks.  Either
    way the corner moments are at most 1, so -value / ||g||_1 is a lower
    bound on rho_{d0}(g / ||g||_1).  The ray is the first one the solve
    meets, not the best, so the bound can be loose: on Motzkin-like it is
    0.0087 / ||g||_1 against rho_{d0}(g / ||g||_1) = 0.0162 / ||g||_1."""

    witness: MomentVector
    value: float

    @property
    def is_sos(self) -> bool:
        return False


@dataclass(frozen=True)
class SolverReport:
    status: Status
    iterations: int
    gap: float
    feas_primal: float
    feas_dual: float
    stop_reason: StopReason


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
    solver : SolverReport
    """

    lam: np.ndarray
    rho: float
    g: Polynomial
    y_star: MomentVector
    gram: np.ndarray
    certificate: SosCertificate
    solver: SolverReport


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


@dataclass(frozen=True, eq=False)
class _SignPartition:
    """Block structure of the moment-side programs of f.

    ``classes[k]`` holds, in basis order, the basis indices of the k-th PSD
    block; ``invariant`` holds the product-basis indices of the monomials
    that keep a constraint.  Gram entries between classes and moments of the
    other monomials are zero at an optimum.
    """

    classes: tuple[np.ndarray, ...]
    invariant: np.ndarray

    @classmethod
    def trivial(cls, bp: BasisProducts) -> "_SignPartition":
        """One class and every constraint: the unreduced program."""
        return cls((np.arange(len(bp.basis)),), np.arange(len(bp.product_basis)))


def _sign_partition(f: Polynomial, bp: BasisProducts) -> _SignPartition:
    """Split the moment-side programs of f by the sign flips that fix f.

    Let V be the span over GF(2) of the parities of supp f.  The flips
    x_i -> -x_i that fix f fix 1 and x_i^{2d} too, hence the whole program,
    so an optimum may be averaged over them (Gatermann & Parrilo 2004).
    Basis monomials beta, gamma then share a block exactly when
    beta + gamma mod 2 lies in V, and alpha keeps its constraint exactly
    when alpha mod 2 does.  Parities are bitmasks (bit i is alpha_i mod 2),
    and a parity's coset of V is named by reducing it against an xor basis
    of V with distinct leading bits.
    """
    span: list[int] = []

    def coset(mono: Monomial) -> int:
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
    # beta_i and beta_j share a class exactly when their product keeps its
    # constraint.  Classes go in the order of their first basis monomial.
    first = keep[bp.labels].argmax(axis=1)
    classes = tuple(np.flatnonzero(first == i) for i in sorted(set(first.tolist())))
    return _SignPartition(classes, np.flatnonzero(keep))


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
    return _assemble_moment_side(f, bp, _SignPartition.trivial(bp), f.n + 1)


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


def _clip_multipliers(raw: np.ndarray, sol: ConicSolution) -> np.ndarray:
    if float(raw.min(initial=0.0)) < -_CLIP_TOL:
        raise SolverFailure(
            f"multiplier {raw.min():.3e} below -{_CLIP_TOL:.0e}; solve did not "
            "reach the required accuracy",
            sol,
        )
    return np.clip(raw, 0.0, None)


def _degenerate_result(f: Polynomial, d: int) -> ApproximationResult:
    n = f.n
    basis2d = enumerate_basis(n, 2 * d)
    s = len(enumerate_basis(n, d))
    cert = SosCertificate((), (), 0.0)
    report = SolverReport(Status.OPTIMAL, 0, 0.0, 0.0, 0.0, StopReason.CONVERGED)
    return ApproximationResult(
        lam=np.zeros(n + 1),
        rho=0.0,
        g=Polynomial.zero(n),
        y_star=MomentVector(basis2d, np.zeros(len(basis2d))),
        gram=np.zeros((s, s)),
        certificate=cert,
        solver=report,
    )


def _report(sol: ConicSolution) -> SolverReport:
    return SolverReport(
        status=sol.status,
        iterations=sol.iterations,
        gap=sol.gap,
        feas_primal=sol.feas_primal,
        feas_dual=sol.feas_dual,
        stop_reason=sol.stop_reason,
    )


def _perturbation(n: int, two_d: int, lam: np.ndarray) -> Polynomial:
    return Polynomial(n, dict(zip(_perturbation_monomials(n, two_d), lam)))


def _failure_message(sol: ConicSolution) -> str:
    return (
        f"conic solve ended with status {sol.status.value}, stopped by "
        f"{sol.stop_reason.value}, after {sol.iterations} iterations (gap={sol.gap:.3e}, "
        f"feas_primal={sol.feas_primal:.3e}, feas_dual={sol.feas_dual:.3e})"
    )


def _moment_side_solution(
    f: Polynomial, d: int, multipliers: int, options: SolverOptions | None
) -> tuple[BasisProducts, np.ndarray, np.ndarray, MomentVector, ConicSolution]:
    """Solve the moment-side program of f at degree bound 2d in sign-symmetry
    blocks, with ``multipliers`` perturbation multipliers (see
    :func:`_assemble_moment_side`), whatever status the solve ends with.

    Returns the basis products, the full Gram matrix carrying each block on
    its class, the raw multipliers (empty for none), y = -dual on the
    invariant monomials and zero elsewhere, and the solution.
    """
    bp = basis_products(f.n, d)
    partition = _sign_partition(f, bp)
    sol = solve(_assemble_moment_side(f, bp, partition, multipliers), options)
    gram = np.zeros((len(bp.basis), len(bp.basis)))
    for idx, x in zip(partition.classes, sol.primal):
        gram[np.ix_(idx, idx)] = x
    y_vals = np.zeros(len(bp.product_basis))
    y_vals[partition.invariant] = -sol.dual
    raw = sol.primal[-1] if multipliers else np.zeros(0)
    return bp, gram, raw, MomentVector(bp.product_basis, y_vals), sol


def _solve_moment_side(
    f: Polynomial, d: int, multipliers: int, options: SolverOptions | None
) -> tuple[BasisProducts, np.ndarray, np.ndarray, MomentVector, ConicSolution]:
    """:func:`_moment_side_solution`, raising SolverFailure unless the solve
    is optimal; y is then y*."""
    out = _moment_side_solution(f, d, multipliers, options)
    sol = out[-1]
    if sol.status != Status.OPTIMAL:
        raise SolverFailure(_failure_message(sol), sol)
    return out


def best_l1_sos_approximation(
    f: Polynomial, d: int, options: SolverOptions | None = None
) -> ApproximationResult:
    """Closest SOS polynomial of degree <= 2d to f in the l1 coefficient
    norm, together with the distance, multipliers, moment vector, Gram
    matrix and an explicit certificate.

    Raises SolverFailure (with the raw solution attached) if the conic
    solver does not reach Optimal status, or if its Gram matrix or its
    duality gap misses the accuracy that :func:`verify` asks of a result.
    """
    _check_degree(f, d)
    if f.is_zero():
        return _degenerate_result(f, d)
    norm = f.l1_norm()
    if norm > 1e6 or norm < 1e-6:
        warnings.warn(
            f"input has l1 norm {norm:.3e}; multipliers are reported in the "
            "same units and the solve may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )

    bp, gram, raw, y_star, sol = _solve_moment_side(f, d, f.n + 1, options)
    lam = _clip_multipliers(raw, sol)
    rho = float(lam.sum())
    g = f + _perturbation(f.n, 2 * d, lam)
    # Cross-check the two reconstructions of g: from the multipliers and
    # from the Gram block.  A mismatch means the solve was not as accurate
    # as its status claims.
    gram_dev = float(np.abs(_coefficient_error(bp, gram, g)).max())
    gram_tol = _gram_tolerance(g)
    if gram_dev > gram_tol:
        raise SolverFailure(
            f"Gram matrix reproduces g only to {gram_dev:.3e} (needs {gram_tol:.3e})", sol
        )
    gap = abs(rho + riesz(y_star, f))
    gap_tol = _gap_tolerance(f, rho)
    if gap > gap_tol:
        raise SolverFailure(f"duality gap {gap:.3e} exceeds {gap_tol:.3e}", sol)
    certificate = _extract_certificate(gram, bp, g)
    return ApproximationResult(
        lam=lam,
        rho=rho,
        g=g,
        y_star=y_star,
        gram=gram,
        certificate=certificate,
        solver=_report(sol),
    )


def _sos_degree(g: Polynomial) -> int:
    """d0 = max(1, ceil(deg g / 2)), the degree at which is_sos decides g."""
    return max(1, (g.degree() + 1) // 2)


def is_sos(
    g: Polynomial, d: int, options: SolverOptions | None = None
) -> SosCertificate | SosRefutation:
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
    :func:`verify`'s witness checks with L_y(g / ||g||_1) < -1e-7; that is
    a lower bound on the distance of g / ||g||_1 at d0, so the bounded
    program would refute too.
    Any other outcome is settled by the bounded moment-side program at d0:
    distance ~ 0 means g is SOS and supplies the Gram matrix, positive
    distance supplies its optimal moment vector as the witness.  Both
    programs are split into sign-symmetry blocks and solved for
    g / ||g||_1, so the answer and the distance threshold do not depend on
    g's scale; the certificate weights and the witness value are in g's
    units, and the certificate residual is taken against g itself.
    """
    _check_degree(g, d)
    if g.is_zero():
        return SosCertificate((), (), 0.0)
    d0 = _sos_degree(g)
    norm = g.l1_norm()
    unit = g * (1.0 / norm)
    bp, gram, _, ray, sol = _moment_side_solution(unit, d0, 0, options)
    if sol.status == Status.OPTIMAL:
        return _extract_certificate(norm * gram, bp, g)
    if sol.status == Status.INFEASIBLE:
        corner = max(ray.value(mono) for mono in _perturbation_monomials(g.n, 2 * d0))
        if 0.0 < corner < np.inf:
            ray = MomentVector(ray.basis, ray.values / corner)
            if all(c.passed for c in _witness_checks(ray, unit, bp, -_SOS_RHO_TOL)):
                return SosRefutation(witness=ray, value=riesz(ray, g))
    result = best_l1_sos_approximation(unit, d0, options)
    if result.rho > _SOS_RHO_TOL:
        return SosRefutation(witness=result.y_star, value=riesz(result.y_star, g))
    return _extract_certificate(norm * result.gram, bp, g)


def uniform_sos_perturbation(
    f: Polynomial, d: int, options: SolverOptions | None = None
) -> tuple[float, Polynomial]:
    """Smallest eps >= 0 with f + eps * (1 + sum_i x_i^{2d}) a sum of
    squares, found by tying all perturbation multipliers to one scalar.
    Returns (eps, perturbed polynomial)."""
    _check_degree(f, d)
    if f.is_zero():
        return 0.0, f
    eps = float(max(_solve_moment_side(f, d, 1, options)[2][0], 0.0))
    g = f + _perturbation(f.n, 2 * d, np.full(f.n + 1, eps))
    return eps, g


def _witness_checks(
    y: MomentVector, g: Polynomial, bp: BasisProducts, bound: float = 0.0
) -> tuple[Check, Check]:
    """The checks of a witness y that g is not SOS at bp's degree d0:
    M_{d0}(y), read through the label matrix, is PSD, and L_y(g) < bound.
    A y that cannot fill M_{d0} fails both with residual inf."""
    psd_res, psd_tol, value = float("inf"), 1e-8, float("inf")
    if y.n == g.n and y.degree >= 2 * bp.basis.degree and np.isfinite(y.values).all():
        evals = np.linalg.eigvalsh(y.values[bp.labels])
        psd_res = max(0.0, -float(evals[0]))
        psd_tol = 1e-8 * (1.0 + float(evals[-1]))
        value = riesz(y, g)
    return (
        Check("witness_moment_psd", psd_res <= psd_tol, psd_res, psd_tol),
        Check("witness_value_negative", value < bound, value, bound),
    )


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
    pattern_set = set(pattern)
    lam = np.asarray(result.lam, dtype=float)
    rho = float(result.rho)

    # Multipliers are nonnegative.
    neg = max(0.0, -float(lam.min(initial=0.0)))
    checks.append(Check("nonnegative_multipliers", neg == 0.0, neg, 0.0))

    # g - f is supported on {1, x_i^{2d}} and matches lam there.
    diff = result.g - f
    off_pattern = sum(
        abs(c) for mono, c in diff.terms.items() if mono not in pattern_set
    )
    pattern_dev = max(
        abs(diff.coefficient(mono) - lam[i]) for i, mono in enumerate(pattern)
    )
    structure_res = max(off_pattern, pattern_dev)
    structure_tol = 1e-9 * (1.0 + rho)
    checks.append(
        Check(
            "perturbation_structure",
            structure_res <= structure_tol,
            structure_res,
            structure_tol,
        )
    )

    # rho equals the l1 distance.
    dist_res = abs(rho - diff.l1_norm())
    dist_tol = 1e-9 * (1.0 + rho)
    checks.append(Check("rho_equals_l1_distance", dist_res <= dist_tol, dist_res, dist_tol))

    # A result of another degree has a Gram matrix or a moment vector that
    # does not fit degree d; the checks that read them fail instead of
    # raising.
    bp = basis_products(n, d)
    s = len(bp.basis)
    fits = np.shape(result.gram) == (s, s) and result.y_star.degree >= 2 * d

    # The Gram matrix reproduces the coefficients of g.
    gram_res = float("inf")
    if fits:
        gram_res = float(np.abs(_coefficient_error(bp, np.asarray(result.gram), result.g)).max())
    gram_tol = _gram_tolerance(result.g)
    checks.append(Check("gram_reproduces_g", gram_res <= gram_tol, gram_res, gram_tol))

    # The Gram matrix is PSD.
    evals = np.linalg.eigvalsh(0.5 * (result.gram + result.gram.T))
    lmax = float(evals[-1]) if evals.size else 0.0
    psd_res = max(0.0, -float(evals[0]))
    psd_tol = 1e-8 * (1.0 + lmax)
    checks.append(Check("gram_psd", psd_res <= psd_tol, psd_res, psd_tol))

    # Zero duality gap: rho = -L_{y*}(f).
    gap_res = abs(rho + riesz(result.y_star, f))
    gap_tol = _gap_tolerance(f, rho)
    checks.append(Check("zero_duality_gap", gap_res <= gap_tol, gap_res, gap_tol))

    # y* is feasible for the moment-side program.
    feas_res = float("inf")
    if fits:
        m_eigs = np.linalg.eigvalsh(moment_matrix(result.y_star, d))
        feas_res = max(0.0, -float(m_eigs[0]))
        corners = [result.y_star.value(mono) for mono in pattern]
        feas_res = max(feas_res, max(0.0, max(corners) - 1.0))
    checks.append(Check("moment_vector_feasible", feas_res <= 1e-8, feas_res, 1e-8))

    # Certificate weights are positive and the squares rebuild g.
    cert_tol = 1e-6 * (1.0 + result.g.l1_norm())
    checks.extend(_certificate_checks(result.certificate, result.g, bp, cert_tol, fits))

    return VerificationReport(tuple(checks))
