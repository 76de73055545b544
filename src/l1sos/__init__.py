"""Best l1-norm approximation of multivariate polynomials by sums of squares.

The package is organized bottom-up:

- :mod:`l1sos.poly` — sparse polynomial arithmetic and serialization,
- :mod:`l1sos.moment` — monomial bases, basis products, moment matrices,
- :mod:`l1sos.sdp` — a small dense primal-dual interior-point conic solver,
- :mod:`l1sos.approx` — the approximation pipeline, SOS membership checks,
  the uniform-perturbation baseline and an independent result verifier,
- :mod:`l1sos.cli` — the ``l1sos`` command-line front end.
"""

from .approx import (
    ApproximationResult,
    SolverFailure,
    SosCertificate,
    SosRefutation,
    VerificationReport,
    assemble_full_form,
    assemble_reduced_dual,
    best_l1_sos_approximation,
    is_sos,
    motzkin_like,
    uniform_sos_perturbation,
    verify,
)
from .moment import (
    BasisProducts,
    MomentVector,
    MonomialBasis,
    atomic_moments,
    basis_products,
    enumerate_basis,
    gaussian_moments,
    moment_matrix,
    riesz,
)
from .poly import (
    Monomial,
    ParseError,
    Polynomial,
    from_json_dict,
    parse_json,
    parse_text,
    to_json_dict,
    to_text,
)
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

__version__ = "0.1.0"

__all__ = [
    "ApproximationResult",
    "BasisProducts",
    "ConicProblem",
    "ConicSolution",
    "Entries",
    "MomentVector",
    "Monomial",
    "MonomialBasis",
    "NonNegBlock",
    "ParseError",
    "Polynomial",
    "PsdBlock",
    "SolverFailure",
    "SolverOptions",
    "SosCertificate",
    "SosRefutation",
    "Status",
    "StopReason",
    "VerificationReport",
    "assemble_full_form",
    "assemble_reduced_dual",
    "atomic_moments",
    "basis_products",
    "best_l1_sos_approximation",
    "enumerate_basis",
    "from_json_dict",
    "gaussian_moments",
    "is_sos",
    "moment_matrix",
    "motzkin_like",
    "parse_json",
    "parse_text",
    "riesz",
    "solve",
    "to_json_dict",
    "to_text",
    "uniform_sos_perturbation",
    "verify",
]
