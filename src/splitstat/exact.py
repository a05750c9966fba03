"""Dense univariate polynomials with exact rational coefficients.

Every polynomial carries a variable tag: ``q`` for the field-size variable
or ``u`` for its reciprocal (u = 1/q).  Arithmetic refuses to combine
polynomials with different tags; the one sanctioned bridge is
:func:`over_q_power`, which rewrites p(q)/q**d as a polynomial in u by
reversing the coefficient list.

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

from .errors import SeriesError, VariableTagMismatch

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

    def __init__(self, var: str, coeffs: tuple[Fraction, ...]) -> None:
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

    def _coerce(self, other: UPoly | Scalar) -> UPoly:
        if isinstance(other, UPoly):
            if other.var != self.var:
                raise VariableTagMismatch(
                    f"cannot combine a polynomial in {self.var!r} with one in {other.var!r}"
                )
            return other
        return UPoly(self.var, (other,))

    def __add__(self, other: UPoly | Scalar) -> UPoly:
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return UPoly(self.var, tuple(self.coeff(k) + o.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other: UPoly | Scalar) -> UPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: UPoly | Scalar) -> UPoly:
        return self._coerce(other) - self

    def __neg__(self) -> UPoly:
        return UPoly(self.var, tuple(-c for c in self.coeffs))

    def __mul__(self, other: UPoly | Scalar) -> UPoly:
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return UPoly(self.var, ())
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UPoly(self.var, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> UPoly:
        return power(self, e, UPoly.__mul__, UPoly(self.var, (Fraction(1),)))

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


def poly(var: str, coeffs: Iterable[Scalar]) -> UPoly:
    """Build a polynomial from low-to-high coefficients."""
    return UPoly(var, tuple(coeffs))


def monomial(var: str, k: int, c: Scalar = 1) -> UPoly:
    """The single term c * var**k."""
    return UPoly(var, (0,) * k + (c,))


def divmod_poly(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """Exact polynomial long division: a = q*b + r with deg r < deg b."""
    if a.var != b.var:
        raise VariableTagMismatch(
            f"cannot divide a polynomial in {a.var!r} by one in {b.var!r}"
        )
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    lead = b.coeffs[-1]
    db = b.degree
    for shift in range(len(rem) - len(b.coeffs), -1, -1):
        c = rem[shift + db] / lead
        if c == 0:
            continue
        quo[shift] = c
        for i, bc in enumerate(b.coeffs):
            rem[shift + i] -= c * bc
    return UPoly(a.var, tuple(quo)), UPoly(a.var, tuple(rem))


def series_expand(numer: UPoly, denom: UPoly, order: int) -> list[Fraction]:
    """Power-series coefficients c_0..c_order of numer/denom.

    Exact long division; requires a nonzero constant term in the
    denominator (otherwise the quotient is not a power series).
    """
    if numer.var != denom.var:
        raise VariableTagMismatch(
            f"cannot expand a quotient mixing {numer.var!r} and {denom.var!r}"
        )
    if order < 0:
        raise ValueError("order must be nonnegative")
    d0 = denom.coeff(0)
    if d0 == 0:
        raise SeriesError("denominator has zero constant term; quotient is not a power series")
    out: list[Fraction] = []
    for k in range(order + 1):
        s = numer.coeff(k)
        for i in range(1, k + 1):
            s -= denom.coeff(i) * out[k - i]
        out.append(s / d0)
    return out


def over_q_power(p: UPoly, d: int) -> UPoly:
    """Rewrite p(q)/q**d as a polynomial in u = 1/q.

    Requires deg p <= d (otherwise the quotient has positive powers of q
    and is not a u-polynomial).  The coefficient of u**k is the
    coefficient of q**(d-k) in p.
    """
    if p.var != Q_VAR:
        raise VariableTagMismatch("over_q_power expects a polynomial in q")
    if p.degree > d:
        raise ValueError(f"degree {p.degree} exceeds q-power {d}; quotient not polynomial in u")
    return UPoly(U_VAR, tuple(p.coeff(d - k) for k in range(d + 1)))


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


def parse_rational(text: str) -> Fraction:
    """Parse an "a/b" or "a" string; the inverse of :func:`format_rational`.

    Decimals and exponents ("0.25", "-1.5e-3") are read exactly.  A value
    with more digits, or an exponent larger in size, than the print limit
    (sys.get_int_max_str_digits()) raises ValueError before any
    arithmetic.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
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
