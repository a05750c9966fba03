"""Class functions on the symmetric group S_d.

A factorization statistic is exactly a rational-valued class function:
its value on a polynomial depends only on the factorization type, i.e.
on a partition of d.  This module provides the inner product, irreducible
characters via border-strip (Murnaghan-Nakayama) recursion, hook-length
dimensions, decomposition into irreducibles, the built-in statistics,
and character polynomials (statistics defined uniformly in d as
polynomials in the part-count functions x_1, x_2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Mapping

from .errors import DegreeMismatch, UnknownStatistic
from .partitions import Partition, partitions_of

Scalar = Fraction | int


class ClassFunction:
    """A rational-valued function on the partitions of d."""

    __slots__ = ("d", "name", "_values")

    def __init__(
        self,
        d: int,
        values: Mapping[Partition, Scalar],
        name: str = "",
    ) -> None:
        table: dict[Partition, Fraction] = {}
        for lam, v in values.items():
            if lam.d != d:
                raise DegreeMismatch(f"partition {lam} does not have size {d}")
            table[lam] = Fraction(v)
        for lam in partitions_of(d):
            table.setdefault(lam, Fraction(0))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_values", table)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("ClassFunction is immutable")

    @classmethod
    def from_function(
        cls, d: int, fn: Callable[[Partition], Scalar], name: str = ""
    ) -> "ClassFunction":
        return cls(d, {lam: fn(lam) for lam in partitions_of(d)}, name=name)

    def value(self, lam: Partition) -> Fraction:
        if lam.d != self.d:
            raise DegreeMismatch(f"partition {lam} does not have size {self.d}")
        return self._values[lam]

    __call__ = value

    def items(self) -> Iterable[tuple[Partition, Fraction]]:
        """(partition, value) pairs in canonical partition order."""
        return ((lam, self._values[lam]) for lam in partitions_of(self.d))

    def _check(self, other: "ClassFunction") -> None:
        if self.d != other.d:
            raise DegreeMismatch(f"degree mismatch: {self.d} vs {other.d}")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(
            self.d, {lam: self._values[lam] + other._values[lam] for lam in self._values}
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(
            self.d, {lam: self._values[lam] - other._values[lam] for lam in self._values}
        )

    def __mul__(self, scalar: Scalar) -> "ClassFunction":
        c = Fraction(scalar)
        return ClassFunction(self.d, {lam: v * c for lam, v in self._values.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.d == other.d
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self.d, tuple(sorted((lam.parts, v) for lam, v in self._values.items()))))

    def __repr__(self) -> str:
        tag = self.name or "ClassFunction"
        return f"<{tag} on partitions of {self.d}>"


def inner(P: ClassFunction, X: ClassFunction) -> Fraction:
    """Standard inner product: (1/d!) sum over sigma of P(sigma) X(sigma).

    Summed per conjugacy class this is sum over partitions of
    P(lam) X(lam) / z_lam, with z_lam the centralizer order.
    """
    if P.d != X.d:
        raise DegreeMismatch(f"degree mismatch: {P.d} vs {X.d}")
    total = Fraction(0)
    for lam in partitions_of(P.d):
        total += P.value(lam) * X.value(lam) / lam.centralizer_order()
    return total


# ---------------------------------------------------------------------------
# Irreducible characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mn_value(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Border-strip recursion on first-column shifted coordinates ("beta
    # numbers"): removing a strip of length t subtracts t from one beta
    # number; the sign is (-1)**(number of beta numbers it jumps over).
    if not cycles:
        return 1
    t = cycles[0]
    rest = cycles[1:]
    n = len(shape)
    beta = tuple(shape[i] + (n - 1 - i) for i in range(n))
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        new_beta = sorted(beta[:i] + beta[i + 1:] + (nb,), reverse=True)
        parts = tuple(new_beta[j] - (n - 1 - j) for j in range(n))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        sub = _mn_value(parts, rest)
        total += -sub if crossings % 2 else sub
    return total


def mn_character(shape: Partition, cycle_type: Partition) -> int:
    """Irreducible character value chi_shape(cycle_type), exactly."""
    if shape.d != cycle_type.d:
        raise DegreeMismatch(f"shape {shape} and class {cycle_type} have different sizes")
    return _mn_value(shape.parts, cycle_type.parts)


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def irr_dim(shape: Partition) -> int:
    """Dimension of the irreducible indexed by shape, by hook lengths."""
    conj = _conjugate(shape.parts)
    hooks = 1
    for i, row in enumerate(shape.parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    num = factorial(shape.d)
    assert num % hooks == 0, "hook product must divide d!"
    return num // hooks


@lru_cache(maxsize=None)
def irreducible_character(shape: Partition) -> ClassFunction:
    """chi_shape as a class function on partitions of shape.d."""
    return ClassFunction.from_function(
        shape.d,
        lambda lam: mn_character(shape, lam),
        name=f"chi{shape.label()}",
    )


def decompose(X: ClassFunction) -> dict[Partition, Fraction]:
    """Coefficients a_shape with X = sum of a_shape * chi_shape.

    Shapes with coefficient zero are omitted.  The irreducible characters
    are an orthonormal basis, so a_shape = <X, chi_shape>.
    """
    out: dict[Partition, Fraction] = {}
    for shape in partitions_of(X.d):
        a = inner(X, irreducible_character(shape))
        if a != 0:
            out[shape] = a
    return out


def reconstruct(d: int, coefficients: Mapping[Partition, Scalar]) -> ClassFunction:
    """The class function sum of a_shape * chi_shape."""
    values = {lam: Fraction(0) for lam in partitions_of(d)}
    for shape, a in coefficients.items():
        chi = irreducible_character(shape)
        for lam in values:
            values[lam] += Fraction(a) * chi.value(lam)
    return ClassFunction(d, values)


# ---------------------------------------------------------------------------
# Built-in statistics
# ---------------------------------------------------------------------------

def one(d: int) -> ClassFunction:
    """The trivial character."""
    return ClassFunction.from_function(d, lambda lam: 1, name="one")


def sgn(d: int) -> ClassFunction:
    """The sign character."""
    return ClassFunction.from_function(d, lambda lam: lam.sign(), name="sgn")


def roots(d: int) -> ClassFunction:
    """R: number of roots in the base field, with multiplicity (= x_1)."""
    return ClassFunction.from_function(d, lambda lam: lam.mult(1), name="R")


def quadratic_excess(d: int) -> ClassFunction:
    """Q: reducible minus irreducible quadratic factors, C(x_1, 2) - x_2."""
    return ClassFunction.from_function(
        d, lambda lam: Fraction(lam.mult(1) * (lam.mult(1) - 1), 2) - lam.mult(2), name="Q"
    )


def even_type(d: int) -> ClassFunction:
    """ET: indicator of even factorization type, (1 + sgn)/2."""
    return ClassFunction.from_function(
        d, lambda lam: Fraction(1 + lam.sign(), 2), name="ET"
    )


def indicator(lam0: Partition) -> ClassFunction:
    """The statistic that is 1 on one factorization type and 0 elsewhere."""
    return ClassFunction(lam0.d, {lam0: Fraction(1)}, name=f"ind:{lam0.label()}")


_BUILTINS: dict[str, Callable[[int], ClassFunction]] = {
    "one": one,
    "1": one,
    "sgn": sgn,
    "ET": even_type,
    "R": roots,
    "Q": quadratic_excess,
}


def builtin(name: str, d: int) -> ClassFunction:
    """Look up a built-in statistic by name ("one", "sgn", "ET", "R", "Q")."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownStatistic(
            f"unknown statistic {name!r}; known names: one, sgn, ET, R, Q"
        ) from None
    return factory(d)


def builtin_names() -> tuple[str, ...]:
    return ("one", "sgn", "ET", "R", "Q")


# ---------------------------------------------------------------------------
# Character polynomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (variable index j, exponent) pairs; the
# empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]


def _norm_terms(table: Mapping[Monomial, Fraction]) -> tuple[tuple[Monomial, Fraction], ...]:
    return tuple(sorted((m, c) for m, c in table.items() if c != 0))


@dataclass(frozen=True)
class CharacterPolynomial:
    """A polynomial in the part-count functions x_1, x_2, ...

    Evaluating at a partition substitutes x_j = (number of parts of size
    j); the same expression therefore defines a statistic for every d.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]
    name: str = ""

    @classmethod
    def constant(cls, c: Scalar, name: str = "") -> "CharacterPolynomial":
        return cls(_norm_terms({(): Fraction(c)}), name=name)

    @classmethod
    def variable(cls, j: int, name: str = "") -> "CharacterPolynomial":
        if j < 1:
            raise ValueError("variable indices start at x1")
        return cls(_norm_terms({((j, 1),): Fraction(1)}), name=name)

    @classmethod
    def binomial(cls, j: int, b: int) -> "CharacterPolynomial":
        """C(x_j, b) expanded into monomials in x_j."""
        if b < 0:
            raise ValueError("binomial order must be nonnegative")
        out = cls.constant(1)
        for i in range(b):
            out = out * (cls.variable(j) - i)
        return out * Fraction(1, factorial(b))

    def __add__(self, other: "CharacterPolynomial | Scalar") -> "CharacterPolynomial":
        o = other if isinstance(other, CharacterPolynomial) else CharacterPolynomial.constant(other)
        table = dict(self.terms)
        for m, c in o.terms:
            table[m] = table.get(m, Fraction(0)) + c
        return CharacterPolynomial(_norm_terms(table))

    __radd__ = __add__

    def __sub__(self, other: "CharacterPolynomial | Scalar") -> "CharacterPolynomial":
        o = other if isinstance(other, CharacterPolynomial) else CharacterPolynomial.constant(other)
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "CharacterPolynomial":
        return CharacterPolynomial.constant(other) - self

    def __neg__(self) -> "CharacterPolynomial":
        return CharacterPolynomial(tuple((m, -c) for m, c in self.terms), name=self.name)

    def __mul__(self, other: "CharacterPolynomial | Scalar") -> "CharacterPolynomial":
        o = other if isinstance(other, CharacterPolynomial) else CharacterPolynomial.constant(other)
        table: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                exps: dict[int, int] = dict(m1)
                for j, e in m2:
                    exps[j] = exps.get(j, 0) + e
                mono = tuple(sorted(exps.items()))
                table[mono] = table.get(mono, Fraction(0)) + c1 * c2
        return CharacterPolynomial(_norm_terms(table))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CharacterPolynomial":
        if e < 0:
            raise ValueError("negative exponents are not defined")
        out = CharacterPolynomial.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, lam: Partition) -> Fraction:
        """Value at one partition (substitute the part counts of lam)."""
        total = Fraction(0)
        for mono, c in self.terms:
            term = c
            for j, e in mono:
                term *= Fraction(lam.mult(j)) ** e
            total += term
        return total

    def class_function(self, d: int) -> ClassFunction:
        """The statistic this expression defines on partitions of d."""
        if d < 0:
            raise ValueError("d must be nonnegative")
        return ClassFunction.from_function(d, self.evaluate, name=self.name or str(self))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, c in self.terms:
            body = "*".join(
                f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in mono
            )
            if not body:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        text = chunks[0]
        for chunk in chunks[1:]:
            text += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return text


def cp_one() -> CharacterPolynomial:
    return CharacterPolynomial.constant(1, name="one")


def cp_roots() -> CharacterPolynomial:
    return CharacterPolynomial.variable(1, name="R")


def cp_quadratic_excess() -> CharacterPolynomial:
    p = CharacterPolynomial.binomial(1, 2) - CharacterPolynomial.binomial(2, 1)
    return CharacterPolynomial(p.terms, name="Q")


_BUILTIN_POLYNOMIALS: dict[str, Callable[[], CharacterPolynomial]] = {
    "one": cp_one,
    "1": cp_one,
    "R": cp_roots,
    "Q": cp_quadratic_excess,
}


def builtin_polynomial(name: str) -> CharacterPolynomial:
    """Built-in statistics expressible as character polynomials."""
    try:
        return _BUILTIN_POLYNOMIALS[name]()
    except KeyError:
        raise UnknownStatistic(
            f"{name!r} is not a character-polynomial statistic; "
            "use one, R, Q, or an expression in x1, x2, ..."
        ) from None


# ---------------------------------------------------------------------------
# Expression parser:  "x1*(x1-1)/2 - x2"
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise UnknownStatistic(f"bad variable at position {i} in {text!r}")
            tokens.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        else:
            raise UnknownStatistic(f"unexpected character {ch!r} in statistic {text!r}")
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UnknownStatistic(f"unexpected end of statistic expression {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> CharacterPolynomial:
        result = self.expr()
        if self.peek() is not None:
            raise UnknownStatistic(
                f"trailing input {self.peek()!r} in statistic {self.text!r}"
            )
        return result

    def expr(self) -> CharacterPolynomial:
        result = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> CharacterPolynomial:
        result = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                result = result * rhs
            elif not rhs.terms:
                raise UnknownStatistic(f"division by zero in {self.text!r}")
            elif len(rhs.terms) != 1 or rhs.terms[0][0] != ():
                raise UnknownStatistic(f"division is only defined by constants in {self.text!r}")
            else:
                result = result * (1 / rhs.terms[0][1])
        return result

    def unary(self) -> CharacterPolynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result = self.power()
        return result if sign == 1 else -result

    def power(self) -> CharacterPolynomial:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise UnknownStatistic(f"exponent must be a nonnegative integer in {self.text!r}")
            return base ** int(tok)
        return base

    def atom(self) -> CharacterPolynomial:
        tok = self.take()
        if tok == "(":
            inside = self.expr()
            if self.take() != ")":
                raise UnknownStatistic(f"unbalanced parentheses in {self.text!r}")
            return inside
        if tok.isdigit():
            return CharacterPolynomial.constant(int(tok))
        if tok.startswith("x"):
            return CharacterPolynomial.variable(int(tok[1:]))
        raise UnknownStatistic(f"unexpected token {tok!r} in statistic {self.text!r}")


def parse_character_polynomial(text: str) -> CharacterPolynomial:
    """Parse an expression in x1, x2, ... with integer/rational coefficients.

    Supported syntax: + - * / ^ and parentheses; division requires a
    constant divisor (so 1/2 and (x1-1)/2 both work).
    """
    p = _Parser(text).parse()
    return CharacterPolynomial(p.terms, name=text.strip())
