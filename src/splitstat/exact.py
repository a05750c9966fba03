"""Exact rational values: tagged u- and q-polynomials, and "a/b" text.

A `UPoly` is a value, not an algebra: the coefficients of a polynomial
in one tagged variable, ``q`` for the field size or ``u`` for its
reciprocal (u = 1/q), which the package computes elsewhere and hands
over whole.  It reads coefficients, evaluates exactly and prints, but
does no arithmetic.

Coefficients are `fractions.Fraction` throughout -- there is no floating
point anywhere in the computation path.  Coefficients are stored densely,
index = exponent, with the top coefficient nonzero unless the polynomial
is zero.  Instances are immutable and hashable, safe to share between
concurrent tasks.  Their base, `Immutable`, serves every value class of
the package that is defined by its fields.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Iterable, TypeVar

Q_VAR = "q"
U_VAR = "u"

Scalar = Fraction | int
T = TypeVar("T")


def _normalized(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    # A coefficient that is already a Fraction is kept as it is.
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Immutable:
    """Base of the immutable value classes.

    The public __slots__ are the fields, in constructor order, set once
    by `_store` at construction; a private slot holds a cache.  Instances
    compare and hash by their fields, print as a keyword constructor
    call, and pickle and copy through the constructor.
    """

    __slots__ = ()

    def _store(self, *values: object) -> None:
        for attr, v in zip(self.__slots__, values):
            object.__setattr__(self, attr, v)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> dict[str, object]:
        return {attr: getattr(self, attr) for attr in self.__slots__ if attr[0] != "_"}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{attr}={v!r}" for attr, v in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(self._fields().values())


class UPoly(Immutable):
    """A polynomial in a single tagged variable over the rationals."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Scalar]) -> None:
        if var not in (Q_VAR, U_VAR):
            raise ValueError(f"unknown variable tag {var!r}")
        self._store(var, _normalized(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the k-th power (0 beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def json_coeffs(self) -> list[str]:
        """Coefficients as "a/b" strings, index = exponent."""
        return [format_rational(c) for c in self.coeffs]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = format_rational(c)
            else:
                var = self.var if k == 1 else f"{self.var}^{k}"
                term = var if abs(c) == 1 else f"{format_rational(abs(c))}*{var}"
                if c < 0:
                    term = "-" + term
            parts.append(term)
        return join_signed(parts)


def power(x: T, e: int, mul: Callable[[T, T], T], one: T) -> T:
    """x**e by repeated squaring with `mul`, skipping the square after the top bit."""
    if e < 0:
        raise ValueError("negative exponents are not defined")
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def join_signed(terms: list[str]) -> str:
    """Join terms as "a + b - c", a later term's leading "-" becoming " - "; "0" if none."""
    if not terms:
        return "0"
    return terms[0] + "".join(
        f" - {term[1:]}" if term.startswith("-") else f" + {term}" for term in terms[1:]
    )


def format_rational(x: Scalar) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def quote_short(text: str) -> str:
    """repr(text), cut after 40 characters: an input as an error message quotes it."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def parse_rational(text: str) -> Fraction:
    """Parse an "a/b" or "a" string; the inverse of :func:`format_rational`.

    Decimals and exponents ("0.25", "-1.5e-3") are read exactly.  A value
    with more digits, or an exponent larger in size, than the print limit
    (sys.get_int_max_str_digits()) raises ValueError before any
    arithmetic.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        shown = quote_short(text)
        if sum(map(str.isdecimal, text)) > limit:
            raise ValueError(f"{shown} has more digits than the print limit of {limit}")
        # within the limit, the exponent's own digits convert safely
        exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if exponent.isdecimal() and int(exponent) > limit:
            raise ValueError(f"{shown} has an exponent beyond the print limit of {limit} digits")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
