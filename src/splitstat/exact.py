"""Exact rational values: one stored form, tagged polynomials, "a/b" text.

The package stores a row of rationals in one form: integers over one
positive denominator, in lowest terms.  `lowest_terms` reduces integers
by one gcd; `over_one_denominator` puts rationals over the lcm of their
denominators; `add_rows` adds two such rows over the lcm of theirs.
`UPoly`, `sym_chars.ClassFunction`, `sym_chars.CharacterPolynomial` and
the series route's sums are built by these alone.  A `Fraction` is made
only when a value is read out or parsed from text; `format_ratio` writes
integers over a denominator as "a/b" text without one.

A `UPoly` is a value, not an algebra: a polynomial in one tagged
variable, ``q`` for the field size or ``u`` for its reciprocal (u = 1/q),
computed elsewhere and handed over whole as integers, index = exponent,
with the top one nonzero (none, over 1, for zero).  It reads
coefficients and evaluates exactly; it does no arithmetic and prints
nothing but its "a/b" strings.  No value is ever a float.  Instances are
immutable and hashable; their base, `Immutable`, serves every value
class of the package that is defined by its fields.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, TypeVar

Q_VAR = "q"
U_VAR = "u"

Scalar = Fraction | int
T = TypeVar("T")


def lowest_terms(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """The integers nums over den >= 1 in lowest terms, by one gcd, which
    raises TypeError on a value that is no integer."""
    nums = tuple(nums)
    if (g := gcd(den, *nums)) != 1:
        nums, den = tuple(n // g for n in nums), den // g
    return nums, den


def over_one_denominator(values: Iterable[Scalar]) -> tuple[tuple[int, ...], int]:
    """Rationals as integers over the lcm of their denominators, in lowest terms."""
    values = tuple(values)
    if bad := [v for v in values if not isinstance(v, (int, Fraction))]:
        raise ValueError(f"values must be ints or Fractions, not {cut_short(repr(bad[0]))}")
    den = lcm(*(v.denominator for v in values))
    return lowest_terms((v.numerator * (den // v.denominator) for v in values), den)


def add_rows(
    a: Iterable[int], a_den: int, b: Iterable[int], b_den: int
) -> tuple[tuple[int, ...], int]:
    """a / a_den + b / b_den, entry by entry, for integer rows of one length,
    over the lcm of the two denominators, in lowest terms."""
    den = lcm(a_den, b_den)
    sa, sb = den // a_den, den // b_den
    return lowest_terms((sa * x + sb * y for x, y in zip(a, b, strict=True)), den)


def strip_zeros(nums: Sequence[int]) -> Sequence[int]:
    """nums up to its last nonzero entry: a polynomial's stored coefficients."""
    top = len(nums)
    while top and not nums[top - 1]:
        top -= 1
    return nums[:top]


def format_ratio(n: int, den: int) -> str:
    """The integers n over den >= 1 as "a/b" in lowest terms, or "a"."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


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
    """A polynomial in a single tagged variable over the rationals.

    Stored as `numerators`, index = exponent, over one positive
    `denominator`, in lowest terms; the constructor takes integers only.
    """

    __slots__ = ("var", "numerators", "denominator")

    def __init__(self, var: str, numerators: Iterable[int], denominator: int = 1) -> None:
        if var not in (Q_VAR, U_VAR):
            raise ValueError(f"unknown variable tag {var!r}")
        nums = tuple(numerators)
        if not all(type(n) is int for n in nums) or type(denominator) is not int or denominator < 1:
            raise ValueError("UPoly takes integer numerators over a positive integer denominator")
        self._store(var, *lowest_terms(strip_zeros(nums), denominator))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index = exponent."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the k-th power (0 beyond the stored degree)."""
        in_range = 0 <= k < len(self.numerators)
        return Fraction(self.numerators[k] if in_range else 0, self.denominator)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x, acc = Fraction(x), Fraction(0)
        for n in reversed(self.numerators):
            acc = acc * x + n
        return acc / self.denominator

    def json_coeffs(self) -> list[str]:
        """Coefficients as "a/b" strings, index = exponent."""
        return [format_ratio(n, self.denominator) for n in self.numerators]


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
    return format_ratio(x.numerator, x.denominator)


def cut_short(text: object) -> str:
    """str(text), cut after 40 characters: an input as an error message names it bare."""
    if isinstance(text, int) and (bits := abs(text).bit_length()) > 2000:
        # str() of an integer past the print limit (640 digits or more)
        # fails, so 41 digits or more are kept first, as 0.30102 < log10(2)
        cut = abs(text) // 10 ** ((bits - 1) * 30102 // 100000 - 40)
        text = -cut if text < 0 else cut
    return text if len(text := str(text)) <= 40 else f"{text[:40]}..."


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
        raise ValueError(f"zero denominator in {quote_short(text)}") from None
