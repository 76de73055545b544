"""Sparse multivariate polynomials over the monomial basis.

A polynomial in ``n`` variables is a finite map from exponent vectors
(tuples of nonnegative ints) to nonzero float coefficients.  Values are
immutable after construction and all operations are pure, so they can be
shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

Monomial = tuple[int, ...]


class ParseError(ValueError):
    """Malformed polynomial input (text or JSON)."""

    def __init__(self, message: str, line: int | None = None, term: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if term is not None:
            message = f"{message} (term {term})"
        super().__init__(message)
        self.line = line


def grlex_key(mono: Monomial):
    """Sort key for graded lexicographic order: total degree first, then
    lexicographic with x1 before x2 before ... (so x1^2 < x1*x2 < x2^2
    within a degree)."""
    return (sum(mono), tuple(-e for e in mono))


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial.

    Parameters
    ----------
    n : int
        Number of variables (>= 1).
    terms : dict
        Map from exponent tuple (length ``n``, entries >= 0) to coefficient.
        Exact-zero coefficients are dropped at construction; anything else
        is stored verbatim (no epsilon scrubbing).
    """

    n: int
    terms: dict[Monomial, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("polynomial needs at least one variable")
        # Checked in bulk; the offending term is looked up only on failure.
        monos = [tuple(map(int, mono)) for mono in self.terms]
        if set(map(len, monos)) - {self.n}:
            mono = next(mono for mono in monos if len(mono) != self.n)
            raise ValueError(f"exponent vector {mono} has length {len(mono)}, expected {self.n}")
        if monos and min(map(min, monos)) < 0:
            raise ValueError(f"negative exponent in {next(mono for mono in monos if min(mono) < 0)}")
        coeffs = map(float, self.terms.values())
        cleaned = {mono: coeff for mono, coeff in zip(monos, coeffs) if coeff != 0.0}
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, value: float) -> "Polynomial":
        return Polynomial(n, {(0,) * n: value})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The polynomial x_{i+1} (0-based variable index)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return Polynomial(n, {tuple(1 if j == i else 0 for j in range(n)): 1.0})

    @staticmethod
    def monomial(n: int, exps: Monomial, coeff: float = 1.0) -> "Polynomial":
        return Polynomial(n, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(mono) for mono in self.terms)

    def l1_norm(self) -> float:
        """Sum of absolute coefficient values."""
        return sum(abs(c) for c in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> float:
        return self.terms.get(tuple(mono), 0.0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(
                    f"variable count mismatch: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, float)):
            return Polynomial.constant(self.n, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0.0) + coeff
        return Polynomial(self.n, merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod: dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                prod[key] = prod.get(key, 0.0) + c1 * c2
        return Polynomial(self.n, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.n, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> float:
        """Value of the polynomial at a point (sequence of ``n`` reals)."""
        point = tuple(float(v) for v in point)
        if len(point) != self.n:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.n}"
            )
        total = 0.0
        for mono, coeff in self.terms.items():
            term = coeff
            for value, exp in zip(point, mono):
                if exp:
                    term *= value ** exp
            total += term
        return total

    __call__ = evaluate

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        """Human-readable form, e.g. ``1.0 - 1.0*x1^2*x2^2``."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=grlex_key):
            coeff = self.terms[mono]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join([f"{abs(coeff):.12g}"] + factors)
            if not parts:
                parts.append(body if coeff >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
        return " ".join(parts)


# -- input checks ---------------------------------------------------------------
#
# Both input formats hand every term to ``_add_term``: text tokens arrive as
# strings, JSON values as parsed.  Errors name the line (text) or the term
# number (JSON).


def _as_int(raw) -> int | None:
    """An int, or a string spelling one; None for anything else (2.5, true,
    null, "2.5")."""
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            return None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    return None


def _add_term(terms: dict[Monomial, float], coeff, exps, n: int, **where) -> None:
    """Check one term, a coefficient and a list of n exponents, and add it to
    ``terms``; raise ParseError at ``where`` (``line=`` or ``term=``)."""
    if not isinstance(exps, (list, tuple)):
        raise ParseError(f"exponents must be a list, not {exps!r}", **where)
    if len(exps) != n:
        raise ParseError(f"expected {n} exponents, got {len(exps)}", **where)
    if isinstance(coeff, bool):  # float(true) would read as 1.0
        raise ParseError(f"bad coefficient {coeff!r}", **where)
    try:
        value = float(coeff)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"bad coefficient {coeff!r}", **where) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite coefficient {coeff!r}", **where)
    mono = []
    for raw in exps:
        e = _as_int(raw)
        if e is None:
            raise ParseError(f"bad exponent {raw!r}", **where)
        if e < 0:
            raise ParseError(f"negative exponent {e}", **where)
        mono.append(e)
    key = tuple(mono)
    if key in terms:
        raise ParseError(f"duplicate monomial {key}", **where)
    terms[key] = value


def _variable_count(raw, **where) -> int:
    n = _as_int(raw)
    if n is None:
        raise ParseError(f"bad variable count {raw!r}", **where)
    if n < 1:
        raise ParseError("variable count must be >= 1", **where)
    return n


# -- text format -------------------------------------------------------------
#
# Canonical form, one term per line:
#
#     # optional comments
#     n 2
#     1.0 2 2
#     -1.0 0 0
#
# The ``n <count>`` header is optional; without it the variable count is
# inferred from the first term line.  Duplicate monomials are an error.


def parse_text(text: str) -> Polynomial:
    """Parse the line-oriented polynomial format. Raises ParseError with the
    offending line number on malformed input."""
    n: int | None = None
    terms: dict[Monomial, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            # A term line sets n, so terms come first: a header after them
            # is out of order, not a duplicate.
            if terms:
                raise ParseError("'n' header must precede all terms", lineno)
            if n is not None:
                raise ParseError("duplicate 'n' header", lineno)
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            n = _variable_count(tokens[1], line=lineno)
            continue
        if len(tokens) < 2:
            raise ParseError(
                "term line needs a coefficient and at least one exponent", lineno
            )
        if n is None:
            n = len(tokens) - 1
        _add_term(terms, tokens[0], tokens[1:], n, line=lineno)
    if n is None:
        raise ParseError("no polynomial found in input")
    return Polynomial(n, terms)


def to_text(f: Polynomial) -> str:
    """Serialize to the canonical text form.  ``parse_text(to_text(f)) == f``
    bit-exactly (coefficients are written with repr)."""
    lines = [f"n {f.n}"]
    for mono in sorted(f.terms, key=grlex_key):
        lines.append(" ".join([repr(f.terms[mono])] + [str(e) for e in mono]))
    return "\n".join(lines) + "\n"


# -- JSON format ---------------------------------------------------------------


def to_json_dict(f: Polynomial) -> dict:
    """JSON-ready form: ``{"n": n, "terms": [{"c": coeff, "e": [exps]}]}``."""
    return {
        "n": f.n,
        "terms": [
            {"c": f.terms[mono], "e": list(mono)}
            for mono in sorted(f.terms, key=grlex_key)
        ],
    }


def from_json_dict(data: dict) -> Polynomial:
    """Inverse of :func:`to_json_dict`.  Raises ParseError naming the term
    on malformed input."""
    if not isinstance(data, dict) or "n" not in data or "terms" not in data:
        raise ParseError("polynomial JSON needs 'n' and 'terms' keys")
    n = _variable_count(data["n"])
    if not isinstance(data["terms"], list):
        raise ParseError(f"'terms' must be a list, not {data['terms']!r}")
    terms: dict[Monomial, float] = {}
    for k, entry in enumerate(data["terms"]):
        if not isinstance(entry, dict) or "c" not in entry or "e" not in entry:
            raise ParseError("needs 'c' and 'e' keys", term=k)
        _add_term(terms, entry["c"], entry["e"], n, term=k)
    return Polynomial(n, terms)


def parse_json(text: str) -> Polynomial:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return from_json_dict(data)
