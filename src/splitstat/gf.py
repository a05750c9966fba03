"""Brute-force ground truth over finite fields.

Constructs F_q for prime powers q (make_field reads q = p^n for any
prime power p, factoring p once) and builds every monic polynomial of
degree n as a product of lower-degree irreducibles, multiplying actual
polynomials over F_q.  Each product is marked in a seen-map of all q**n
monic candidates; a second mark would mean two factorizations of one
polynomial, so unique factorization is checked explicitly and a failure
raises ConsistencyError.  The unmarked candidates are the degree-n
irreducibles, and the factor degrees of the products (with and without
repeated factors) give the census histogram, from which exact census
averages of factorization statistics follow.  Degree 1 needs no walk:
every monic linear polynomial is irreducible and none is a product.

Over a small prime field the walk runs on packed polynomials (Kronecker
substitution): a Python int whose byte j holds the coefficient c_j.  A
product is then one big-int multiply, reduced mod p by translating its
bytes, and a seen-map index is its first n bytes read as base-p digits,
all in C.  The final factors of a product come from one pool, laid out as
one int with a polynomial per (n+1)-byte slot, so one multiply gives the
whole pool's products.  This applies while no coefficient of any product
in the walk can pass 255 before reduction, i.e.
(n // 2 + 1) * (p - 1)**2 <= 255: every p <= 7 within the default budget,
F_11 to degree 3.  Larger primes multiply coefficient tuples in Python;
extension fields multiply them through add/mul lookup tables, built from
discrete logarithms in O(q**2) list entries by a field's first walk and
kept for its later ones; the field's own methods never read them.

This module is an oracle, not a performance artifact: everything is
deterministic and exact, enumeration is single-threaded, and it is capped
by an explicit budget (default 10**7 polynomials).

Field elements are encoded as integers 0..q-1.  For a prime field the
integer is the residue itself; for F_{p^n} it encodes the length-n
coefficient vector over F_p in base p (digit i = coefficient of the i-th
power of the residue class of x modulo the field's defining polynomial).
A sieved irreducible of degree k is stored as its sieve index: its
coefficients c_0..c_{k-1} read as base-q digits, c_0 most significant,
8 bytes each in an array (degree 1 is range(q)); `irreducibles`, the one
reader of the sieve, spells them as coefficient tuples on access.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from fractions import Fraction
import struct
from itertools import chain, compress, product, repeat
from math import isqrt
from operator import itemgetter

from .errors import BudgetExceeded, ConsistencyError, InvalidCharacteristic
from .exact import Immutable, cut_short
from .partitions import Partition
from .sym_chars import Statistic

DEFAULT_BUDGET = 10**7

# The last divisor `_least_prime_factor` tries, about 0.05 s of trial
# division on a 2-core host: it settles every m below (FACTOR_BOUND + 1)**2,
# so every prime base up to 10**12.
FACTOR_BOUND = 10**6


def _least_prime_factor(m: int) -> int:
    """The least prime factor of m >= 2, by trial division up to FACTOR_BOUND.

    Raises BudgetExceeded when m has no factor that far and is too large
    for that to prove it prime.
    """
    for i in range(2, min(isqrt(m), FACTOR_BOUND) + 1):
        if m % i == 0:
            return i
    if isqrt(m) > FACTOR_BOUND:
        raise BudgetExceeded(
            f"{cut_short(m)} has no prime factor up to {FACTOR_BOUND}, "
            "where trial division stops"
        )
    return m


class FqField:
    """The field with q = p**n elements, its methods on residues mod p, or
    for n > 1 on coefficient vectors over F_p reduced modulo `modulus`.

    Use :func:`make_field` to construct one; direct construction assumes
    the modulus is a valid monic irreducible.
    """

    __slots__ = ("p", "n", "q", "modulus", "_tables", "_irr", "_hist")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]) -> None:
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._tables = None  # the tuple kernel's, built on the first walk
        self._irr: dict[int, Sequence[int]] = {}  # sieve indices by degree
        self._hist: dict[int, tuple[dict, dict]] = {}

    # -- element encoding --------------------------------------------------

    def _decode(self, e: int) -> list[int]:
        digits = []
        for _ in range(self.n):
            e, r = divmod(e, self.p)
            digits.append(r)
        return digits

    def _encode(self, digits: Sequence[int]) -> int:
        e = 0
        for c in reversed(digits):
            e = e * self.p + c
        return e

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        return self._encode(
            [(x + y) % self.p for x, y in zip(self._decode(a), self._decode(b))]
        )

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        prod = _multiplier(self.p)(self._decode(a), self._decode(b))
        return self._encode(_divrem(self.p, prod, self.modulus)[1])

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FqField)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FqField(q={self.p}^{self.n})" if self.n > 1 else f"FqField(q={self.p})"


def _first_irreducible(p: int, n: int) -> tuple[int, ...]:
    # The first monic irreducible of degree n over F_p in sieve order
    # (constant coefficient most significant): the first candidate with no
    # factor among the irreducibles of degree at most n // 2.  Candidates
    # with c_0 = 0 are divisible by x, so the scan starts at c_0 = 1.
    lower = list(chain.from_iterable(irreducibles(FqField(p, 1, (0, 1)), n // 2).values()))
    for tail in product(range(1, p), *[range(p)] * (n - 1)):
        cand = tail + (1,)
        if all(_divrem(p, cand, g)[1] for g in lower):
            return cand
    raise AssertionError(f"no irreducible of degree {n} over F_{p}")  # unreachable


def make_field(p: int, n: int = 1) -> FqField:
    """F_{p^n} for any prime power p, as F_{r^m} with r prime: make_field(4) is F_4.

    p is factored once, and one that is no prime power "is not prime".  The
    modulus is x for m = 1, else the lexicographically smallest monic
    irreducible of degree m over F_r, coefficients compared low-to-high;
    finding it sieves F_r to degree m // 2, which raises BudgetExceeded
    before any work when that sieve would pass DEFAULT_BUDGET.
    """
    r, rest, k = _least_prime_factor(p) if p >= 2 else 0, p, 0
    while r and rest % r == 0:
        rest, k = rest // r, k + 1
    if not k or rest != 1:
        raise InvalidCharacteristic(f"{cut_short(p)} is not prime")
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    m = k * n
    return FqField(r, m, (0, 1) if m == 1 else _first_irreducible(r, m))


class FqPoly(Immutable):
    """A monic polynomial over a finite field, coefficients low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]) -> None:
        if not coeffs or coeffs[-1] != 1:
            raise ValueError("FqPoly must be monic")
        if any(not 0 <= c < field.q for c in coeffs):
            raise ValueError("coefficients must be field elements 0..q-1")
        self._store(field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                x = "x" if k == 1 else f"x^{k}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(terms) if terms else "0"


def _divrem(p: int, num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Over F_p, den monic: (quotient, remainder), the remainder's trailing zeros stripped.
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for shift in range(len(rem) - len(den), -1, -1):
        c = rem[shift + dd]
        if c:
            quo[shift] = c
            for i, dc in enumerate(den, shift):
                rem[i] = (rem[i] - c * dc) % p
    del rem[dd:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


def _power_within(p: int, e: int, budget: int) -> int | None:
    # p**e, or None when its bit length alone puts it over the budget:
    # sizes such as 2**(10**8) are never built.
    return None if (p.bit_length() - 1) * e > budget.bit_length() else p**e


def check_sieve_budget(p: int, n: int, max_degree: int, budget: int) -> None:
    """Raise BudgetExceeded if sieving F_{p^n} to max_degree would pass the budget.

    A base below 2 is no field size; make_field rejects it.
    """
    if p < 2:
        return
    if _power_within(p, n * max_degree, budget) is None:
        needs = f"at least q^{cut_short(max_degree)} = {cut_short(p)}^{cut_short(n * max_degree)}"
    elif (total := sum(p ** (n * j) for j in range(1, max_degree + 1))) <= budget:
        return
    else:
        needs = cut_short(total)
    raise BudgetExceeded(
        f"sieving irreducibles to degree {cut_short(max_degree)} needs {needs} polynomial "
        f"enumerations over F_{cut_short(p)}{f'^{cut_short(n)}' if n > 1 else ''}, "
        f"above the budget of {cut_short(budget)}; raise the budget to proceed"
    )


def check_census_budget(p: int, n: int, d: int, budget: int) -> None:
    """Raise BudgetExceeded if a degree-d census over F_{p^n} would pass the budget.

    A degree below 1 raises ValueError first, before any field work.  The
    message writes q^d in exponent form; it is never built when too large.
    """
    if d < 1:
        raise ValueError("census needs degree at least 1")
    size = _power_within(p, n * d, budget)
    if size is None or size > budget:
        raise BudgetExceeded(
            f"census of q^d = {cut_short(p)}^{cut_short(n * d)} polynomials is above the "
            f"budget of {cut_short(budget)}; raise the budget to proceed"
        )


def _speller(q: int, k: int):
    # Sieve index -> coefficient tuple (c_0, ..., c_{k-1}, 1) of the monic
    # degree-k polynomial it names.  The index splits into a high and a low
    # block of base-q digits, each looked up in a table of about q**(k/2)
    # digit tuples; a linear x + c has index c and needs no table.
    if k == 1:
        return lambda i: (i, 1)
    low_digits = k // 2
    high = list(product(range(q), repeat=k - low_digits))
    low = [t + (1,) for t in product(range(q), repeat=low_digits)]
    size = q**low_digits

    def spell(i: int) -> tuple[int, ...]:
        a, b = divmod(i, size)
        return high[a] + low[b]

    return spell


class _Polys(Sequence):
    """The monic degree-k polynomials at the given sieve indices, read as
    coefficient tuples on access; nothing is built for a length."""

    __slots__ = ("_indices", "_spell")

    def __init__(self, q: int, k: int, indices: Sequence[int]) -> None:
        self._indices = indices
        self._spell = _speller(q, k)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, j: int) -> tuple[int, ...]:
        return self._spell(self._indices[j])

    def __iter__(self):
        return map(self._spell, self._indices)


def _build_tables(field: FqField) -> tuple[list[list[int]], list[list[int]]]:
    # The add and mul lookup tables of an extension field, from discrete
    # logarithms: exp lists g**0..g**(q-2) for the first generator g in
    # encoding order, a*b = g**(log a + log b), and a + b = a*(1 + b/a),
    # where adding 1 raises the constant digit by one mod p.  itemgetter
    # gathers every row in C.
    q, p = field.q, field.p
    for g in range(2, q):
        exp = [1]
        while (e := field.mul(exp[-1], g)) != 1 and len(exp) < q:
            exp.append(e)
        if len(exp) == q - 1:
            break
    else:  # without a generator the quotient ring is no field
        raise ValueError(f"modulus {field.modulus} is not irreducible over F_{p}")
    log = [0, *sorted(range(q - 1), key=exp.__getitem__)]  # exp[log[a]] == a
    exp2, by_log = exp + exp, itemgetter(*log[1:])  # exp2[log a:][log b] == a*b
    mul = [[0] * q] + [[0, *by_log(exp2[log[a]:])] for a in range(1, q)]
    one_plus = [c + 1 - p if c % p == p - 1 else c + 1 for c in range(q)]
    # row a: b -> b/a (row 1/a of mul) -> 1 + b/a -> a*(1 + b/a) (row a)
    add = [list(range(q))]
    add += [list(itemgetter(*itemgetter(*mul[exp[-log[a]]])(one_plus))(mul[a])) for a in range(1, q)]
    return add, mul


def _multiplier(p: int, tables: tuple[list[list[int]], list[list[int]]] | None = None):
    # Product of two coefficient tuples over F_p, or through an extension
    # field's add/mul lookup tables.  Packed walks never call it.
    if tables is None:
        def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return tuple([c % p for c in out])

        return mul
    add_t, mul_t = tables

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul_t[x]
                for j, y in enumerate(b, i):
                    out[j] = add_t[out[j]][row[y]]
        return tuple(out)

    return mul


_BASE36 = b"0123456789abcdefghijklmnopqrstuvwxyz"  # digit characters int() reads


def _packs(field: FqField, n: int) -> bool:
    # Whether a degree-n walk runs on packed polynomials (Kronecker
    # substitution), byte j of an int holding c_j.  A coefficient of a
    # product of degrees a and b sums at most min(a, b) + 1 <= n // 2 + 1
    # terms below p**2, so under this bound it fits its byte with no carry
    # into the next.
    return field.n == 1 and (n // 2 + 1) * (field.p - 1) ** 2 <= 255


def _kernel(field: FqField, n: int):
    # The arithmetic of a degree-n walk: the pools of irreducibles of
    # degree 1..n-1 in its working form, the product of two polynomials,
    # and indices(prod, k, first), the seen-map indices of prod * g for
    # every g in pools[k][first:].
    q, p = field.q, field.p
    if _packs(field, n):
        width = n + 1
        from_bytes = int.from_bytes
        reduce = bytes(c % p for c in range(256))
        digits = bytes(_BASE36[c % p] for c in range(256))
        pools = {
            k: [from_bytes(bytes(c), "little") for c in _Polys(q, k, field._irr[k])]
            for k in range(1, n)
        }
        # Each pool also laid out as one int, a polynomial per width-byte
        # slot: one multiply by prod then gives every prod * g, slot by slot.
        slots = {
            k: from_bytes(b"".join(g.to_bytes(width, "little") for g in pool), "little")
            for k, pool in pools.items()
        }
        unpack = struct.Struct(f"<{n}sx").iter_unpack

        def mul(a: int, b: int) -> int:
            return from_bytes((a * b).to_bytes(width, "little").translate(reduce), "little")

        def indices(prod: int, k: int, first: int):
            # A slot's first n bytes, reduced mod p and read as base-p
            # digits with c_0 first, spell its index; its last is the
            # leading 1.
            products = prod * (slots[k] >> 8 * width * first)
            buf = products.to_bytes(width * (len(pools[k]) - first), "little")
            return map(int, chain.from_iterable(unpack(buf.translate(digits))), repeat(p))

        return pools, mul, indices
    if field.n > 1 and field._tables is None:  # q**2 entries each; the seen-map has q**n
        field._tables = _build_tables(field)
    mul = _multiplier(p, field._tables)
    pools = {k: list(_Polys(q, k, field._irr[k])) for k in range(1, n)}

    def indices(prod: tuple[int, ...], k: int, first: int) -> list[int]:
        out = []
        for g in pools[k][first:]:
            index = 0
            for c in mul(prod, g)[:n]:
                index = index * q + c
            out.append(index)
        return out

    return pools, mul, indices


def _walk(field: FqField, n: int) -> tuple[Sequence[int], tuple[dict, dict]]:
    # Build every reducible monic polynomial of degree n as a product of a
    # nondecreasing (degree, sieve order) multiset of irreducibles of
    # degree < n, which field._irr must hold.  Returns the sieve indices of
    # the degree-n irreducibles and the (all, squarefree) type histograms.
    q = field.q
    if n == 1:
        # every monic linear polynomial is irreducible and none is a product
        return range(q), ({Partition((1,)): q}, {Partition((1,)): q})
    pools, mul, indices = _kernel(field, n)
    # unseen[i] is 1 until a product reaches the candidate whose
    # coefficients c_0..c_{n-1}, read as base-q digits with c_0 most
    # significant, spell i: sieve order.
    unseen = bytearray(b"\x01") * q**n
    all_counts: dict[tuple[int, ...], int] = {}
    sf_counts: dict[tuple[int, ...], int] = {}

    def extend(prod, degs, last_k, last_i, left, squarefree) -> None:
        # prod ends in factor last_i of degree last_k; multiply on factors
        # at or after it in (degree, sieve) order until `left` is used up.
        for k in range(last_k, left // 2 + 1):
            pool = pools[k]
            for i in range(last_i if k == last_k else 0, len(pool)):
                repeat = k == last_k and i == last_i
                extend(mul(prod, pool[i]), degs + (k,), k, i, left - k, squarefree and not repeat)
        if left < last_k:
            return
        first = last_i if left == last_k else 0
        pool = pools[left]
        for index in indices(prod, left, first):
            if not unseen[index]:
                raise ConsistencyError(
                    f"{FqPoly(field, _speller(q, n)(index))} over F_{q} arises from "
                    "two different factorizations into irreducibles"
                )
            unseen[index] = 0
        key = degs + (left,)
        count = len(pool) - first
        all_counts[key] = all_counts.get(key, 0) + count
        if squarefree and left == last_k:
            count -= 1  # the first final factor repeats the last one
        if squarefree and count:
            sf_counts[key] = sf_counts.get(key, 0) + count

    for k in range(1, n // 2 + 1):
        for i, g in enumerate(pools[k]):
            extend(g, (k,), k, i, n - k, True)
    del extend  # it calls itself; breaking the cycle frees the seen-map and pools on return

    found = array("q", compress(range(q**n), unseen))
    all_counts[(n,)] = sf_counts[(n,)] = len(found)

    hist_all = {Partition(degs): c for degs, c in all_counts.items()}
    hist_sf = {Partition(degs): c for degs, c in sf_counts.items()}
    return found, (hist_all, hist_sf)


def _sieve(field: FqField, max_degree: int) -> None:
    # Fill field._irr and field._hist for every degree up to max_degree.
    for n in range(1, max_degree + 1):
        if n not in field._irr:
            field._irr[n], field._hist[n] = _walk(field, n)


def irreducibles(
    field: FqField, max_degree: int, budget: int = DEFAULT_BUDGET
) -> dict[int, Sequence[tuple[int, ...]]]:
    """All monic irreducibles of degree 1..max_degree, grouped by degree.

    Each degree's entry lazily spells coefficient tuples, low-to-high: a
    count reads only its length, and no FqPoly is built.  Sieve order: the
    constant coefficient is most significant, and every product of
    lower-degree irreducibles is discarded.
    """
    check_sieve_budget(field.p, field.n, max_degree, budget)
    _sieve(field, max_degree)
    return {deg: _Polys(field.q, deg, field._irr[deg]) for deg in range(1, max_degree + 1)}


def census(
    field: FqField,
    d: int,
    stat: Statistic,
    squarefree_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """(1/q**d) * sum of stat(type(f)) over all monic degree-d f.

    With squarefree_only, the sum is restricted to polynomials with no
    repeated irreducible factor (the q**d normalization is kept).  The
    result is exact: one integer dot product of the type counts with the
    statistic's integer values at the types that occur, over its one
    denominator, with no partition of d enumerated.
    """
    stat = stat.at_degree(d)  # refuses another degree, or unprintable values, before the walk
    counts = type_counts(field, d, squarefree_only, budget)
    values, den = stat.values_at(tuple(counts))
    total = sum(n * v for n, v in zip(counts.values(), values))
    return Fraction(total, den * field.q**d)


def type_counts(
    field: FqField,
    d: int,
    squarefree_only: bool = False,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict[Partition, int]:
    """Exact histogram of factorization types among monic degree-d polynomials.

    Enumeration is single-threaded: ``threads`` is accepted for
    compatibility and never changes a result.
    """
    if d not in field._hist:
        check_census_budget(field.p, field.n, d, budget)
        _sieve(field, d)
    all_counts, sf_counts = field._hist[d]
    return dict(sf_counts if squarefree_only else all_counts)
