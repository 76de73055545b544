import pytest

from l1sos import Polynomial, enumerate_basis, motzkin_like


@pytest.fixture(scope="session")
def motzkin() -> Polynomial:
    return motzkin_like()


def random_polynomial(rng, n, max_degree, n_terms=6, scale=1.0) -> Polynomial:
    """Random sparse polynomial with normal coefficients."""
    terms = {}
    for _ in range(n_terms):
        mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        while sum(mono) > max_degree:
            mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        terms[mono] = terms.get(mono, 0.0) + scale * rng.standard_normal()
    return Polynomial(n, terms)


def dense_polynomial(rng, n, degree) -> Polynomial:
    """Every monomial of degree <= degree with a standard normal coefficient."""
    basis = enumerate_basis(n, degree)
    return Polynomial(n, dict(zip(basis.monomials, rng.standard_normal(len(basis)))))
