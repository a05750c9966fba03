"""Class functions on the symmetric group S_d.

A factorization statistic is exactly a rational-valued class function:
its value on a polynomial depends only on the factorization type, i.e.
on a partition of d.  This module provides the inner product, the
character table of S_d (each row chi_lam one integer of 32-bit slots,
built by the Murnaghan-Nakayama rule from the rows of lam with a rim
hook removed, which lower degrees built once and every later degree
reuses, and read out by `measures.signed_words`), hook-length dimensions,
decomposition into irreducibles, character polynomials (statistics
defined uniformly in d as polynomials in the part-count functions x_1,
x_2, ...) and signed polynomials (one of them plus sgn times another),
the built-in statistics, and `statistic`, the one reader of statistic
specs such as "Q", "ind:[2,1]" or "x1^2 - x2": all it returns is read at
a degree d through `at_degree(d)`.

Class functions and character polynomials are stored in one form,
integers over one positive denominator in lowest terms: a class function
its values in partition order, a character polynomial the coefficients
of its monomials.  Only the expression parser adds and multiplies
polynomials, in integers.  Character polynomials (`values_at`),
irreducible characters and character-table rows hand their integer
values over as they are (`ClassFunction.from_integers`), with no
Fraction per partition or term.
A pairing sum over lam of P(lam) X(lam) / z_lam in `inner` and
`decompose` is an integer dot product over one denominator, row by row,
as each makes one pairing per build: `class_weights` writes
P(lam) / z_lam as integers W_lam over one D.  `measures.measure_pairing`
pairs P's numerators with the packed measure for `expect`, one
multiply-add per nonzero value for every u**k at once.  These and the census
in `gf` read each statistic through `at_degree(d)`; the census then reads
`values_at` at the types it counts, and `class_function(d)` evaluates at
every partition of d from x_j and sign columns shared by all statistics.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import factorial, isqrt, lcm
from operator import add, attrgetter, mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BudgetExceeded, DegreeMismatch, UnknownStatistic
from .exact import (
    Immutable, Scalar, add_rows, cut_short, format_ratio, join_signed, lowest_terms,
    over_one_denominator, parse_rational, power, quote_short,
)
from .measures import PARTITION_BUDGET, check_partition_budget, signed_words
from .partitions import Partition, class_scales, partition_count_exceeds, partitions_of
from .partitions import positions


class ClassFunction(Immutable):
    """A rational-valued function on the partitions of d.

    Stored in one form: `numerators`, the values at the partitions of d in
    partition order as integers over one positive `denominator`, in
    lowest terms, so equal functions store equal integers.  It is read
    out, never added or scaled: statistics are combined in spec text.
    """

    __slots__ = ("d", "name", "numerators", "denominator")

    def __init__(self, d: int, values: Mapping[Partition, Scalar], name: str = "") -> None:
        if wrong := [lam for lam in values if lam.d != d]:
            raise DegreeMismatch(f"partition {wrong[0]} does not have size {d}")
        check_partition_budget(d)
        self._store(d, name, *over_one_denominator(values.get(lam, 0) for lam in partitions_of(d)))

    @classmethod
    def from_integers(
        cls, d: int, numerators: Iterable[int], denominator: int = 1, name: str = ""
    ) -> "ClassFunction":
        """The class function numerators[i] / denominator at the i-th
        partition of d in partition order; a d past PARTITION_BUDGET
        raises BudgetExceeded, as `ClassFunction(d, ...)` does."""
        check_partition_budget(d)  # before the partitions of d are counted
        nums = list(numerators)
        try:  # lowest_terms' gcd refuses a value that is no integer
            if len(nums) == len(partitions_of(d)) and denominator >= 1:
                out = cls.__new__(cls)
                out._store(d, name, *lowest_terms(nums, denominator))
                return out
        except TypeError:
            pass
        raise ValueError(f"need p({d}) integer numerators over a positive integer denominator")

    def __reduce__(self) -> tuple:
        return ClassFunction.from_integers, (self.d, self.numerators, self.denominator, self.name)

    def value(self, lam: Partition) -> Fraction:
        if lam.d != self.d:
            raise DegreeMismatch(f"partition {lam} does not have size {self.d}")
        return Fraction(self.numerators[positions(self.d)[lam.parts]], self.denominator)

    __call__ = value

    def at_degree(self, d: int) -> "ClassFunction":
        """This statistic on partitions of d; any other d raises DegreeMismatch."""
        if d != self.d:
            raise DegreeMismatch(f"statistic is for degree {self.d}, not {d}")
        return self

    def values_at(self, lams: Sequence[Partition]) -> tuple[list[int], int]:
        """The values at lams, partitions of d, as integers over one denominator."""
        at = positions(self.d)
        return [self.numerators[at[lam.parts]] for lam in lams], self.denominator

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassFunction) and (
            self.d, self.denominator, self.numerators
        ) == (other.d, other.denominator, other.numerators)

    def __hash__(self) -> int:
        return hash((self.d, self.denominator, self.numerators))

    def __repr__(self) -> str:
        tag = self.name or "ClassFunction"
        return f"<{tag} on partitions of {self.d}>"


def class_weights(P: ClassFunction) -> tuple[tuple[int, ...], int]:
    """Integers W and one denominator D with P(lam) / z_lam = W[i] / D,
    lam the i-th partition of P.d in partition order.

    Pairing P with integer values X(lam) is then the integer dot product
    of W and X over D.
    """
    scales, lcm_z = class_scales(P.d)
    return tuple(map(mul, P.numerators, scales)), P.denominator * lcm_z


def inner(P: ClassFunction, X: ClassFunction) -> Fraction:
    """Standard inner product: (1/d!) sum over sigma of P(sigma) X(sigma).

    Summed per conjugacy class this is sum over partitions of
    P(lam) X(lam) / z_lam, with z_lam the centralizer order.
    """
    if P.d != X.d:
        raise DegreeMismatch(f"degree mismatch: {P.d} vs {X.d}")
    weights, den = class_weights(P)
    return Fraction(sum(map(mul, weights, X.numerators)), den * X.denominator)


# ---------------------------------------------------------------------------
# Irreducible characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _packed_rows(n: int) -> tuple[dict[tuple[int, ...], int], tuple[int, ...]]:
    # Per shape lam of n, by its parts, the row chi_lam over the classes of
    # n as one integer of signed 32-bit slots, the classes in reverse
    # partition order (the last class in slot 0); and c(n, t), t = 0..n,
    # the number of partitions of n with every part at most t.  The classes
    # whose largest part is t then fill slots c(n, t-1) to c(n, t), class
    # (t, sigma) in the slot of sigma in a row of n - t, so that the
    # Murnaghan-Nakayama rule, chi_lam(t, sigma) = sum over rim hooks h of
    # size t of (-1)**leg(h) chi_{lam - h}(sigma), is one signed sum of
    # rows of n - t per t, each cut to its low c(n - t, t) slots (`cut`),
    # shifted into place.  Rim hooks match cells: the one of cell (i, j)
    # runs from the end of row i to column j of row r = lam'_j - 1, the
    # last row of column j, so its size is the hook length and its leg
    # r - i; removing it sets rows i..r-1 to lam_{row+1} - 1 and row r to j.
    # |chi_lam| <= f^lam <= sqrt(n!) < 2**31 for n <= 20, so every value
    # fits its slot (the tests check this at the largest d DECOMPOSE_BUDGET
    # admits).  The lower degrees are built in ascending order, so the
    # cache recursion is one level deep.
    if not n:
        return {(): 1}, (1,)
    lower, fits, cut = [_packed_rows(m) for m in range(n)], [0], [{}]
    for t in range(1, n + 1):
        rows, lower_fits = lower[n - t]
        k = lower_fits[min(t, n - t)]
        fits.append(fits[-1] + k)
        half = 1 << (32 * k - 1)
        cut.append(rows if k == len(rows) else {
            parts: ((row + half) & (2 * half - 1)) - half for parts, row in rows.items()
        })
    packed = {}
    for lam in partitions_of(n):
        parts = lam.parts
        conj, dec, sums = _conjugate(parts), tuple(p - 1 for p in parts), [0] * (n + 1)
        for j in range(parts[0]):
            r = conj[j] - 1
            # lam - h: rows before i, rows i+1..r one shorter, j, rows past r;
            # in column 0, r is the last row and the rows of length 1 drop out
            top, tail = (r + 1, (j,) + parts[r + 1 :]) if j else (len(parts) - parts.count(1), ())
            for i in range(r + 1):
                t = parts[i] - j + r - i
                value = cut[t][parts[:i] + dec[i + 1 : top] + tail]
                sums[t] += -value if (r - i) & 1 else value
        packed[parts] = sum(s << 32 * fits[t - 1] for t, s in enumerate(sums) if s)
    return packed, tuple(fits)


@lru_cache(maxsize=None)
def _character_table(d: int) -> tuple[tuple[int, ...], ...]:
    # Row i holds chi_shape at every class, shape the i-th partition of d,
    # both in partition order: the packed rows of d, read out in C as
    # 32-bit slots and reversed.
    check_decompose_budget(d)
    rows, shapes = _packed_rows(d)[0], partitions_of(d)
    words = signed_words((rows[shape.parts] for shape in shapes), len(shapes), 32)
    return tuple(row[::-1] for row in words)


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    # lam'_j counts the rows longer than j: the k-th row, taken from the
    # shortest up, sets it to k for the columns it passes the row below by
    conj, k = [], len(parts)
    for p in reversed(parts):
        conj += [k] * (p - len(conj))
        k -= 1
    return tuple(conj)


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
    """chi_shape as a class function on partitions of shape.d.

    A row of the character table of S_d, so it raises BudgetExceeded past
    DECOMPOSE_BUDGET before building anything.
    """
    row = _character_table(shape.d)[positions(shape.d)[shape.parts]]
    return ClassFunction.from_integers(shape.d, row, name=f"chi{shape.label()}")


# Cap on the character table of S_d, which decompose and
# irreducible_character read: p(d)**2 (shape, class) values.  d = 18 (148225
# values) builds its table in 40-70 ms on a 2-core host; the cap was sized
# to a slower build and is kept until it is refitted.
DECOMPOSE_BUDGET = 150_000


def check_decompose_budget(d: int) -> None:
    """Raise BudgetExceeded if decomposing at degree d needs more than
    DECOMPOSE_BUDGET (shape, class) pairs of character values."""
    # p(d)**2 > DECOMPOSE_BUDGET exactly when p(d) > isqrt(DECOMPOSE_BUDGET)
    if partition_count_exceeds(d, isqrt(DECOMPOSE_BUDGET)):
        raise BudgetExceeded(
            f"decompose at d={d} needs p(d)^2 (shape, class) pairs of character "
            f"values, more than the cap of {DECOMPOSE_BUDGET}"
        )


def decompose(X: ClassFunction) -> dict[Partition, Fraction]:
    """Coefficients a_shape with X = sum of a_shape * chi_shape, keyed by
    shape in partition order.

    Shapes with coefficient zero are omitted.  The irreducible characters
    are an orthonormal basis, so a_shape = <X, chi_shape>: one integer
    dot product of class_weights(X) with each row of the character table.
    Raises BudgetExceeded, before building any character, past
    DECOMPOSE_BUDGET.
    """
    weights, den = class_weights(X)
    out: dict[Partition, Fraction] = {}
    for shape, row in zip(partitions_of(X.d), _character_table(X.d)):
        if a := sum(map(mul, weights, row)):
            out[shape] = Fraction(a, den)
    return out


# ---------------------------------------------------------------------------
# Character polynomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (variable index j, exponent) pairs; the
# empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]


class _PolynomialStatistic(Immutable):
    # What character and signed polynomials share: values and class
    # functions read from `values_at`, integers over one denominator.

    __slots__ = ()

    def evaluate(self, lam: Partition) -> Fraction:
        """Value at one partition (substitute the part counts of lam)."""
        (n,), den = self.values_at((lam,))
        return Fraction(n, den)

    def values_at(self, lams: Sequence[Partition]) -> tuple[list[int], int]:
        """The values at lams, partitions of one d, as integers over one
        denominator."""
        counts: dict[int, list[int]] = {}

        def column(j: int) -> list[int]:
            if j not in counts:
                counts[j] = [lam.mult(j) for lam in lams]
            return counts[j]

        return self._values(column, map(Partition.sign, lams), len(lams))

    def class_function(self, d: int) -> ClassFunction:
        """The statistic this expression defines on partitions of d.

        Monomials in some x_j with j > d vanish there and are dropped
        first.  Raises BudgetExceeded, before evaluating anything, when d
        has more than PARTITION_BUDGET partitions or a value at d could
        have more digits than Python prints (sys.get_int_max_str_digits()).
        The x_j and sign columns over the partitions of d are shared by
        every statistic (`_part_counts`, `_signs`).
        """
        if d < 0:
            raise ValueError("d must be nonnegative")
        check_partition_budget(d)
        p = self.at_degree(d)
        values = p._values(partial(_part_counts, d), _signs(d), len(partitions_of(d)))
        return ClassFunction.from_integers(d, *values, name=p.name)


# The columns that class functions of polynomials read: x_j and sgn over
# the partitions of d, in partition order.  Every spec at d reads the same
# ones, so they are cached for the process; the caches are bounded, as
# class_function checks the partition cap first and drops the monomials in
# x_j, j > d: a key has d <= 23 and j <= d, at most 276 x_j columns and 24
# sign columns in all.
@lru_cache(maxsize=None)
def _part_counts(d: int, j: int) -> tuple[int, ...]:
    return tuple(map(tuple.count, map(attrgetter("parts"), partitions_of(d)), repeat(j)))


@lru_cache(maxsize=None)
def _signs(d: int) -> tuple[int, ...]:
    # sgn(lam) = (-1)**(d - len(lam)), looked up by the number of parts
    by_length = [(-1) ** (d - k) for k in range(d + 1)]
    return tuple(map(by_length.__getitem__, map(len, map(attrgetter("parts"), partitions_of(d)))))


class CharacterPolynomial(_PolynomialStatistic):
    """A polynomial in the part-count functions x_1, x_2, ...

    Evaluating at a partition substitutes x_j = (number of parts of size
    j); the same expression therefore defines a statistic for every d.
    Stored as `terms`, (monomial, numerator) pairs in monomial order, over
    one positive `denominator`, in lowest terms and with no zero
    numerator; the constructor takes integers only.
    """

    __slots__ = ("terms", "denominator", "name")

    def __init__(
        self, terms: Iterable[tuple[Monomial, int]], denominator: int = 1, name: str = ""
    ) -> None:
        pairs = sorted((m, n) for m, n in terms if n)
        nums = [n for _, n in pairs]
        if any(type(n) is not int for n in (denominator, *nums)) or denominator < 1:
            raise ValueError("CharacterPolynomial takes integers over a positive denominator")
        nums, den = lowest_terms(nums, denominator)
        self._store(tuple(zip((m for m, _ in pairs), nums)), den, name)

    @classmethod
    def constant(cls, c: Scalar, name: str = "") -> "CharacterPolynomial":
        return cls((((), c.numerator),), c.denominator, name)

    @classmethod
    def variable(cls, j: int, name: str = "") -> "CharacterPolynomial":
        if j < 1:
            raise ValueError("variable indices start at x1")
        return cls(((((j, 1),), 1),), 1, name)

    def __neg__(self) -> "CharacterPolynomial":
        return CharacterPolynomial(((m, -n) for m, n in self.terms), self.denominator, self.name)

    def __mul__(self, other: "CharacterPolynomial") -> "CharacterPolynomial":
        table: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                exps: dict[int, int] = dict(m1)
                for j, e in m2:
                    exps[j] = exps.get(j, 0) + e
                mono = tuple(sorted(exps.items()))
                table[mono] = table.get(mono, 0) + c1 * c2
        return CharacterPolynomial(table.items(), self.denominator * other.denominator)

    def _values(
        self, column: Callable[[int], Sequence[int]], signs: Iterable[int], n: int
    ) -> tuple[list[int], int]:
        # The values at n partitions, whose x_j are column(j), as integers
        # over the denominator; the signs are not read.
        return self._numerators(column, n), self.denominator

    def _numerators(self, column: Callable[[int], Sequence[int]], n: int) -> list[int]:
        # The values at n partitions times the denominator, x_j at them
        # being column(j); each monomial is evaluated at all of them at once.
        total = [0] * n
        for mono, c in self.terms:
            vals: Iterable[int] = repeat(c, n)
            for j, e in mono:
                vals = map(mul, vals, column(j) if e == 1 else map(pow, column(j), repeat(e)))
            total = list(map(add, total, vals))
        return total

    def at_degree(self, d: int) -> "CharacterPolynomial":
        """The same statistic on partitions of d, with the monomials in
        some x_j, j > d, which vanish there, dropped, and named as this
        one (by its expression when unnamed).  Raises BudgetExceeded when
        a value at d could have more digits than Python prints
        (sys.get_int_max_str_digits()); no partition is enumerated.
        """
        name = self.name or str(self)
        live = tuple((m, c) for m, c in self.terms if all(j <= d for j, _ in m))
        same = len(live) == len(self.terms) and self.name
        p = self if same else CharacterPolynomial(live, self.denominator, name)
        if (bits := _print_bits()) and not p._printable(d, bits):
            raise BudgetExceeded(
                f"values of {cut_short(name)} at d={d} can exceed {sys.get_int_max_str_digits()} "
                "digits, the limit for printing integers"
            )
        return p

    def _printable(self, d: int, bits: int) -> bool:
        # Every value at d is at most the sum over terms of |numerator| times
        # prod_j (d // j)**e_j, over the denominator, as x_j <= d // j; a
        # bit-length screen refuses huge powers before computing them.
        bound = 0
        for mono, n in self.terms:
            size = abs(n)
            for j, e in mono:
                m = d // j
                if size and size.bit_length() + e * (m.bit_length() - 1) > bits:
                    return False
                size *= m**e
            bound += size
        return max(bound, self.denominator).bit_length() <= bits

    def __str__(self) -> str:
        chunks = []
        for mono, n in self.terms:
            body = "*".join(
                f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in mono
            )
            c = format_ratio(n, self.denominator)
            if not body:
                chunks.append(c)
            elif c == "1":
                chunks.append(body)
            elif c == "-1":
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        return join_signed(chunks)


class SignedPolynomial(_PolynomialStatistic):
    """plain + signed * sgn, for character polynomials plain and signed.

    The sign character is no polynomial in the part counts, but E_d of
    sgn times a character polynomial has a closed series form as E_d of a
    polynomial does (`expect._series_sum`), so the built-ins
    sgn = 0 + 1*sgn and ET = 1/2 + 1/2*sgn are defined uniformly in d.
    """

    __slots__ = ("plain", "signed", "name")

    def __init__(self, plain: CharacterPolynomial, signed: CharacterPolynomial, name: str) -> None:
        self._store(plain, signed, name)

    def _values(
        self, column: Callable[[int], Sequence[int]], signs: Iterable[int], n: int
    ) -> tuple[tuple[int, ...], int]:
        # The values at n partitions, whose x_j are column(j) and signs
        # `signs`, as integers over one denominator.
        plain, signed = (part._numerators(column, n) for part in (self.plain, self.signed))
        twisted = map(mul, signs, signed)
        return add_rows(plain, self.plain.denominator, twisted, self.signed.denominator)

    def at_degree(self, d: int) -> "SignedPolynomial":
        """Both parts at degree d (`CharacterPolynomial.at_degree`)."""
        return SignedPolynomial(self.plain.at_degree(d), self.signed.at_degree(d), self.name)


# ---------------------------------------------------------------------------
# Expression parser:  "x1*(x1-1)/2 - x2"
# ---------------------------------------------------------------------------

# After any whitespace: a token (an ASCII number, a variable x1, x2, ...,
# an operator or a parenthesis); else an x with no digit after it, a bad
# variable; else a stray character, past an x when it is a non-ASCII digit.
_TOKEN = re.compile(r"\s*(?:(?P<tok>[0-9]+|x[0-9]+|[-+*/^()])|(?P<x>x)(?!\d)|x?(?P<ch>\S))")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for m in _TOKEN.finditer(text):
        if m["x"]:
            at = m.start("x")
            raise UnknownStatistic(f"bad variable at position {at} in {quote_short(text)}")
        if ch := m["ch"]:
            raise UnknownStatistic(f"unexpected character {ch!r} in statistic {quote_short(text)}")
        tokens.append(m["tok"])
    return tokens


# Caps on parsing an expression: parenthesis depth (the parser recurses
# once per level), and the work of expanding products and powers.  A
# product counts 16 units plus, per pair of terms, 2 units, 2 per
# variable of the widest monomial and 1 per 256 coefficient bits; a unit
# is under 1.5 us on a 2-core host, so the cap is about 0.3 s of work.
MAX_NESTING = 150
PARSE_BUDGET = 200_000


class _Parser:
    def __init__(self, text: str) -> None:
        self.shown = quote_short(text)  # how a message names the expression
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0
        self.bits = _print_bits()

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UnknownStatistic(f"unexpected end of statistic expression {self.shown}")
        self.pos += 1
        return tok

    def parse(self) -> CharacterPolynomial:
        result = self.expr()
        if self.peek() is not None:
            raise UnknownStatistic(
                f"trailing input {quote_short(self.peek())} in statistic {self.shown}"
            )
        return result

    def check_bits(self, bits: int) -> None:
        """Refuse an integer of `bits` bits past the print limit."""
        if self.bits and bits > self.bits:
            raise BudgetExceeded(
                f"coefficients of {self.shown} can exceed "
                f"{sys.get_int_max_str_digits()} digits, the limit for printing integers"
            )

    def number(self, digits: str) -> int:
        """int(digits), refused when it has more digits than the print limit."""
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            raise BudgetExceeded(
                f"{quote_short(digits)} in statistic {self.shown} has more digits than "
                f"the print limit of {limit}"
            )
        return int(digits)

    def mul(self, a: CharacterPolynomial, b: CharacterPolynomial) -> CharacterPolynomial:
        """a * b, refused before multiplying when over a cap."""
        bits = _coefficient_bits(a) + _coefficient_bits(b)
        self.check_bits(bits)
        width = max((len(m) for m, _ in a.terms + b.terms), default=0)
        self.work += 16 + len(a.terms) * len(b.terms) * (2 + 2 * width + bits // 256)
        if self.work > PARSE_BUDGET:
            raise BudgetExceeded(
                f"expanding {self.shown} needs more than the cap of {PARSE_BUDGET} "
                "work units (pairs of terms multiplied, weighted by their size)"
            )
        return a * b

    def expr(self) -> CharacterPolynomial:
        # The sum is put over the lcm of its terms' denominators, refused as
        # soon as that passes the print limit, and added up in one table at
        # the end, so a long sum costs linear time.
        summands, den, sign = [], 1, 1
        while True:
            summands.append((sign, term := self.term()))
            den = lcm(den, term.denominator)
            self.check_bits(den.bit_length())
            if self.peek() not in ("+", "-"):
                break
            sign = 1 if self.take() == "+" else -1
        table: dict[Monomial, int] = {}
        for sign, term in summands:
            scale = sign * (den // term.denominator)
            for m, n in term.terms:
                table[m] = table.get(m, 0) + scale * n
        return CharacterPolynomial(table.items(), den)

    def term(self) -> CharacterPolynomial:
        result = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                result = self.mul(result, rhs)
            elif not rhs.terms:
                raise UnknownStatistic(f"division by zero in {self.shown}")
            elif len(rhs.terms) != 1 or rhs.terms[0][0] != ():
                raise UnknownStatistic(f"division is only defined by constants in {self.shown}")
            else:
                n = rhs.terms[0][1]  # rhs is n / rhs.denominator
                inverse = ((), rhs.denominator if n > 0 else -rhs.denominator)
                result = self.mul(result, CharacterPolynomial((inverse,), abs(n)))
        return result

    def factor(self) -> CharacterPolynomial:
        # Signs, then an atom, then an optional ^ with an integer exponent.
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise UnknownStatistic(f"exponent must be a nonnegative integer in {self.shown}")
            result = power(result, self.number(tok), self.mul, CharacterPolynomial.constant(1))
        return result if sign == 1 else -result

    def atom(self) -> CharacterPolynomial:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise UnknownStatistic(
                    f"statistic nests parentheses deeper than {MAX_NESTING} levels"
                )
            inside = self.expr()
            if self.take() != ")":
                raise UnknownStatistic(f"unbalanced parentheses in {self.shown}")
            self.depth -= 1
            return inside
        if tok.isdigit():
            return CharacterPolynomial.constant(self.number(tok))
        if tok.startswith("x"):
            return CharacterPolynomial.variable(self.number(tok[1:]))
        raise UnknownStatistic(f"unexpected token {quote_short(tok)} in statistic {self.shown}")


def _coefficient_bits(p: CharacterPolynomial) -> int:
    # The bits of the denominator plus those of the largest numerator
    # bound those of every integer in p.
    return p.denominator.bit_length() + max((abs(n).bit_length() for _, n in p.terms), default=0)


def _print_bits() -> int:
    # Integers of at most this many bits have at most
    # sys.get_int_max_str_digits() digits, as 3.3219 < log2(10); 0 when
    # printing has no limit.
    return sys.get_int_max_str_digits() * 33219 // 10000


def parse_character_polynomial(text: str) -> CharacterPolynomial:
    """Parse an expression in x1, x2, ... with integer/rational coefficients.

    Supported syntax: + - * / ^ and parentheses; division requires a
    constant divisor (so 1/2 and (x1-1)/2 both work).
    """
    p = _Parser(text).parse()
    return CharacterPolynomial(p.terms, p.denominator, name=text.strip())


# ---------------------------------------------------------------------------
# Built-in statistics and statistic specs
# ---------------------------------------------------------------------------

# Each built-in statistic's one definition, under its name: a character
# polynomial, or one plus sgn times another.  "1" is one more key for one.
# The parts of sgn and ET are named by their expressions, as `at_degree`
# would name them.
_HALF = CharacterPolynomial((((), 1),), 2, name="1/2")
_ONE = CharacterPolynomial.constant(1, name="one")
_BUILTINS: dict[str, CharacterPolynomial | SignedPolynomial] = {
    "one": _ONE,
    "1": _ONE,
    "sgn": SignedPolynomial(
        CharacterPolynomial.constant(0, name="0"), CharacterPolynomial.constant(1, name="1"),
        name="sgn",
    ),
    "ET": SignedPolynomial(_HALF, _HALF, name="ET"),
    "R": CharacterPolynomial.variable(1, name="R"),
    # C(x1, 2) - x2 = (x1^2 - x1 - 2 x2) / 2
    "Q": CharacterPolynomial(((((1, 2),), 1), (((1, 1),), -1), (((2, 1),), -2)), 2, name="Q"),
}


def builtin_names() -> tuple[str, ...]:
    """The built-in statistics' names, without the alias 1 for one."""
    return tuple(dict.fromkeys(stat.name for stat in _BUILTINS.values()))


def _check_builtin(name: str) -> None:
    if name not in _BUILTINS:
        raise UnknownStatistic(
            f"unknown statistic {quote_short(name)}; known names: {', '.join(builtin_names())}"
        )


def builtin(name: str, d: int) -> ClassFunction:
    """A built-in statistic (one of builtin_names(), or 1) on partitions of d,
    from `resolve`'s cache."""
    _check_builtin(name)
    return resolve(name, d)


def builtin_polynomial(name: str) -> CharacterPolynomial:
    """A built-in statistic's character polynomial: one (alias 1), R or Q."""
    _check_builtin(name)
    return polynomial_statistic(name)


def sgn(d: int) -> ClassFunction:
    """The sign character."""
    return builtin("sgn", d)


def quadratic_excess(d: int) -> ClassFunction:
    """Q: reducible minus irreducible quadratic factors, C(x_1, 2) - x_2."""
    return builtin("Q", d)


def even_type(d: int) -> ClassFunction:
    """ET: indicator of even factorization type, (1 + sgn)/2."""
    return builtin("ET", d)


def indicator(lam0: Partition) -> ClassFunction:
    """The statistic that is 1 on one factorization type and 0 elsewhere."""
    check_partition_budget(lam0.d)  # before the partitions of d are counted
    ones = [0] * len(partitions_of(lam0.d))
    ones[positions(lam0.d)[lam0.parts]] = 1
    return ClassFunction.from_integers(lam0.d, ones, name=f"ind:{lam0.label()}")


def _type_label(label: str, d: int) -> Partition:
    # A label of at most 40 characters is parsed, and the caller names it
    # whole if its size is not d.  A longer one is checked here and quoted
    # short: a partition of d has at most d parts, so a label with more is
    # refused before any part is read.
    if len(label) <= 40:
        return Partition.parse(label)
    if label.count(",") < d:
        with suppress(ValueError):
            if (lam := Partition.parse(label)).d == d:
                return lam
    raise UnknownStatistic(f"type label {quote_short(label.strip())} is not a partition of d={d}")


def _indicator_spec(label: str, d: int) -> ClassFunction:
    if (lam := _type_label(label, d)).d != d:
        raise UnknownStatistic(f"indicator partition {lam.label()} has size {lam.d}, not d={d}")
    return indicator(lam)


def _table_spec(path: str, d: int) -> ClassFunction:
    # The longest table within the caps: PARTITION_BUDGET values of at most
    # `limit` digits, and as much again (a set limit is >= 640) for labels.
    cap = 2 * PARTITION_BUDGET * (limit := sys.get_int_max_str_digits())
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(cap + 1 if limit else -1)
        if limit and len(text) > cap:
            raise UnknownStatistic(f"{cut_short(path)} is longer than the cap of {cap} characters")
        # numbers are kept as their source text, read exactly below; an
        # object as its (key, value) pairs, so that no key drops another
        raw = json.loads(
            text, parse_float=str, parse_int=str, parse_constant=str, object_pairs_hook=tuple
        )
    except OSError as exc:  # named by its first 40 characters, as below
        raise type(exc)(exc.errno, exc.strerror, cut_short(path)) from None
    except RecursionError:
        raise UnknownStatistic(f"{cut_short(path)} nests JSON too deeply to read") from None
    if not isinstance(raw, tuple):
        raise UnknownStatistic(
            f"{cut_short(path)} must hold a JSON object mapping type labels to rationals"
        )
    values: dict[Partition, Fraction] = {}
    for key, v in raw:
        if (lam := _type_label(key, d)) in values:
            raise UnknownStatistic(f"{cut_short(path)} names the type {lam.label()} twice")
        if not isinstance(v, str):  # numbers and strings are read as their text
            kind = {tuple: "a JSON object", list: "a JSON array"}.get(type(v))
            kind = kind or f"JSON {json.dumps(v)}"  # true, false or null
            raise UnknownStatistic(
                f"{cut_short(path)} maps the type {lam.label()} to {kind}, not a rational"
            )
        values[lam] = parse_rational(v)
    return ClassFunction(d, values, name=f"@{path}")


class _TypeStatistic(Immutable):
    # "ind:[...]" or "@table.json": at_degree(d) is what `read` (_indicator_spec
    # or _table_spec) makes of the text after the prefix, read on every call.

    __slots__ = ("read", "text")

    def __init__(self, read: Callable[[str, int], ClassFunction], text: str) -> None:
        self._store(read, text)

    def at_degree(self, d: int) -> ClassFunction:
        check_partition_budget(d)  # before a label is parsed or a table opened
        return self.read(self.text, d)

    class_function = at_degree  # the ClassFunction at d, as a polynomial's is


# Bounds on the two caches of statistic specs below: parsed specs, and
# class functions per (spec, d).  Every cached d has at most
# PARTITION_BUDGET partitions, so an entry holds at most that many values.
SPEC_CACHE_SIZE = 256

# What answers at_degree(d), and so what expect and the census read.
Statistic = ClassFunction | CharacterPolynomial | SignedPolynomial | _TypeStatistic


def statistic(spec: str) -> CharacterPolynomial | SignedPolynomial | _TypeStatistic:
    """What a statistic spec (the CLI's --stat) means: a character
    polynomial (one, 1, R, Q, expressions in x1, x2, ...), a signed
    polynomial (sgn, ET), or for "ind:[3,1,1]" and "@table.json" (labels
    to rationals) an object whose `at_degree(d)` is the ClassFunction on
    the partitions of d.  Each answers `at_degree(d)` and
    `class_function(d)`; `expected`, `expected_sf` and `gf.census` take
    each as it is.  A spec is parsed once per process and print limit
    (sys.get_int_max_str_digits()), in a cache of SPEC_CACHE_SIZE
    entries; "@table.json" is read on every `at_degree` call.
    """
    return _statistic(spec.strip(), sys.get_int_max_str_digits())


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _statistic(s: str, digits: int) -> CharacterPolynomial | SignedPolynomial | _TypeStatistic:
    # `digits`, the print limit, is part of the key: the parser refuses
    # coefficients past it.
    if s in _BUILTINS:
        return _BUILTINS[s]
    if s.startswith("@"):
        return _TypeStatistic(_table_spec, s[1:])
    if s.startswith("ind:"):
        return _TypeStatistic(_indicator_spec, s[len("ind:"):])
    return parse_character_polynomial(s)


def resolve(spec: str, d: int) -> ClassFunction:
    """The class function on partitions of d that a statistic spec names.

    Raises BudgetExceeded, before an expression is parsed or a partition
    enumerated, when d has more than PARTITION_BUDGET partitions.  The
    result is cached per (spec, d) and print limit, in SPEC_CACHE_SIZE
    entries, except for "@table.json", which is read on every call.
    """
    if (s := spec.strip()).startswith("@"):  # not cached: a table is read on every call
        return statistic(s).at_degree(d)
    return _resolved(s, d, sys.get_int_max_str_digits())


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _resolved(s: str, d: int, digits: int) -> ClassFunction:
    # `digits` is part of the key: class_function refuses values past it.
    check_partition_budget(d)
    return _statistic(s, digits).class_function(d)


def polynomial_statistic(spec: str) -> CharacterPolynomial:
    """The character polynomial a statistic spec names; refuses the others."""
    stat = statistic(spec)
    if isinstance(stat, CharacterPolynomial):
        return stat
    names = ", ".join(n for n in builtin_names() if isinstance(_BUILTINS[n], CharacterPolynomial))
    raise UnknownStatistic(
        f"{quote_short(spec.strip())} is not a character polynomial, which limits need "
        f"(use {names}, or an expression in x1, x2, ...)"
    )
