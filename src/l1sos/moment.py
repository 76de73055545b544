"""Monomial bases, the basis-product label matrix, moment matrices and the
Riesz functional.

The degree-``d`` basis enumerates all exponent vectors of total degree <= d
in graded lexicographic order; its size is binomial(n + d, n).  The
basis-product matrices ``B_alpha`` are the 0/1 symmetric matrices satisfying

    v_d(x) v_d(x)^T = sum_alpha x^alpha B_alpha

so that a polynomial g of degree <= 2d is a sum of squares exactly when
g_alpha = <X, B_alpha> for some positive semidefinite X.  All of them are
stored as one integer matrix, labels[i, j] = index(beta_i + beta_j): B_alpha
is the set of entries labelled alpha.  Its upper triangle, with each label
mapped to its constraint, is the constraint data of the conic programs in
:mod:`l1sos.approx`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poly import Monomial, Polynomial, grlex_key


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Graded-lex ordered index of all monomials of total degree <= degree."""

    n: int
    degree: int
    monomials: tuple[Monomial, ...]
    index: dict[Monomial, int]

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, mono: Monomial) -> int:
        return self.index[tuple(mono)]


def _compositions(total: int, n: int) -> list[Monomial]:
    """All exponent vectors of length n summing to total."""
    if n == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        out.extend((head,) + rest for rest in _compositions(total - head, n - 1))
    return out


def enumerate_basis(n: int, d: int) -> MonomialBasis:
    """All monomials of degree <= d in n variables, graded-lex ordered.

    The zero exponent vector always has index 0 and the size is
    binomial(n + d, n).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    monos: list[Monomial] = []
    for total in range(d + 1):
        monos.extend(sorted(_compositions(total, n), key=grlex_key))
    index = {m: i for i, m in enumerate(monos)}
    assert len(monos) == math.comb(n + d, n)
    return MonomialBasis(n, d, tuple(monos), index)


@dataclass(frozen=True, eq=False)
class BasisProducts:
    """The matrices B_alpha for alpha of degree <= 2d, as one label matrix.

    ``labels[i, j]`` is the product-basis index of beta_i + beta_j, so
    B_alpha is the 0/1 matrix ``labels == index(alpha)``.  Gram
    coefficients sum the groups of equal labels, each in row-major order;
    moment matrices index y by the labels, and the constraint rows of the
    conic programs are the labels of the upper triangle.
    """

    basis: MonomialBasis
    product_basis: MonomialBasis
    labels: np.ndarray

    def matrix(self, alpha: Monomial) -> np.ndarray:
        return (self.labels == self.product_basis.index_of(alpha)).astype(float)

    @cached_property
    def _groups(self) -> list[np.ndarray]:
        """The flat positions of each label, in row-major order."""
        flat = self.labels.ravel()
        order = np.argsort(flat, kind="stable")
        return np.split(order, np.cumsum(np.bincount(flat))[:-1])

    def gram_coefficients(self, x: np.ndarray) -> np.ndarray:
        """All coefficients <X, B_alpha>, ordered like the product basis,
        each summed over its group in row-major order."""
        flat = np.asarray(x, dtype=float).ravel()
        return np.array([flat[positions].sum() for positions in self._groups])

    def gram_polynomial(self, x: np.ndarray) -> Polynomial:
        """The polynomial with coefficients <X, B_alpha>."""
        coeffs = self.gram_coefficients(x)
        return Polynomial(
            self.basis.n,
            dict(zip(self.product_basis.monomials, coeffs)),
        )


def basis_products(n: int, d: int) -> BasisProducts:
    """Build the label matrix of the degree-d basis by looking every sum
    beta_i + beta_j up among the degree-2d monomials."""
    basis, product_basis = enumerate_basis(n, d), enumerate_basis(n, 2 * d)
    # Exponent vectors compare as byte strings; the degree-d basis is a
    # prefix of the graded degree-2d one.
    exps = np.array(product_basis.monomials, dtype=np.int64)
    keys = exps.view(f"V{8 * n}")[:, 0]
    top = exps[: len(basis)]
    sums = (top[:, None] + top[None, :]).view(keys.dtype)[..., 0]
    order = np.argsort(keys)
    return BasisProducts(basis, product_basis, order[np.searchsorted(keys, sums, sorter=order)])


@dataclass(frozen=True, eq=False)
class MomentVector:
    """A real value y_alpha for every monomial of degree <= basis.degree."""

    basis: MonomialBasis
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.basis),):
            raise ValueError(
                f"expected {len(self.basis)} moment values, got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def degree(self) -> int:
        return self.basis.degree

    def value(self, mono: Monomial) -> float:
        return float(self.values[self.basis.index_of(mono)])


def moment_matrix(y: MomentVector, d: int) -> np.ndarray:
    """The symmetric matrix M with M[i, j] = y_{beta_i + beta_j} over the
    degree-d basis.  Requires y to cover degree 2d; the degree-2d basis is
    a prefix of y's graded-lex basis, so the label matrix indexes y."""
    if 2 * d > y.degree:
        raise ValueError(
            f"moment vector of degree {y.degree} cannot fill a degree-{d} "
            f"moment matrix (needs degree {2 * d})"
        )
    return y.values[basis_products(y.n, d).labels]


def riesz(y: MomentVector, f: Polynomial) -> float:
    """The linear functional sum_alpha f_alpha y_alpha."""
    if f.n != y.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {y.n}")
    total = 0.0
    for mono, coeff in f.terms.items():
        if sum(mono) > y.degree:
            raise ValueError(
                f"monomial {mono} exceeds moment vector degree {y.degree}"
            )
        total += coeff * y.value(mono)
    return total


def gaussian_moments(n: int, degree: int) -> MomentVector:
    """Moments of the standard Gaussian weight exp(-|x|^2) dx up to ``degree``
    (= 2d), uniformly scaled so that max |y_alpha| = 1/2.

    The moments factor across coordinates: the raw value is the product of
    Gamma((a_j + 1) / 2) over even exponents and vanishes whenever any
    exponent is odd.  The scaled vector is strictly inside the unit box and
    its moment matrices are positive definite, so it is a strictly feasible
    point for the moment-side programs.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 2 or degree % 2 != 0:
        raise ValueError("degree must be an even integer >= 2")
    basis = enumerate_basis(n, degree)
    raw = np.zeros(len(basis))
    for k, mono in enumerate(basis.monomials):
        if all(e % 2 == 0 for e in mono):
            raw[k] = math.prod(math.gamma((e + 1) / 2.0) for e in mono)
    raw *= 0.5 / raw.max()
    return MomentVector(basis, raw)


def atomic_moments(n: int, degree: int, points, weights) -> MomentVector:
    """Moments y_alpha = sum_k w_k p_k^alpha of a finite atomic measure.

    With nonnegative weights the resulting moment matrices are positive
    semidefinite, which makes this the natural generator for feasibility
    tests.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if points.shape[1] != n:
        raise ValueError(f"points must have {n} coordinates")
    if weights.shape != (points.shape[0],):
        raise ValueError("need one weight per point")
    basis = enumerate_basis(n, degree)
    values = np.array(
        [np.sum(weights * np.prod(points ** np.array(mono), axis=1)) for mono in basis.monomials]
    )
    return MomentVector(basis, values)
