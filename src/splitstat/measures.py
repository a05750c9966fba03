"""Necklace polynomials and exact splitting measures.

The d-th necklace polynomial counts monic irreducible polynomials of
degree d over F_q.  Unique factorization turns these counts into the
splitting measure: the probability that a uniform monic degree-d
polynomial has factorization type lam is a product of polynomial
binomial coefficients divided by q**d, i.e. a polynomial in u = 1/q.
Choosing factors with repetition allowed gives the measure over all
polynomials; without repetition, the squarefree variant.

The measure is built by one packed walk, `_packed_products`: z_lam *
nu(lam) reversed into u, one integer per partition with [u**k] in bit
slot k (Kronecker substitution), the product of parts[1:] times a factor
j*M_j(q) +- j*i packed the same way, j = parts[0], with a memo of the
products of suffixes that lives for one walk: one multiply per distinct
suffix of parts.  The one stored form per (degree, flavor) is
`packed_measure`, those integers over the partitions of d at a slot width
fixed by d alone.  This module owns it and reads every slot, in C by
`signed_words`, the one reader of packed signed slots (it also reads the
32-bit rows of the `sym_chars` character table).  `measure_columns` reads
the columns, for `measure` and the splitting-measure views (nu(lam) =
column / z_lam), and `measure_rows` the d rows z_lam * [u**k] nu(lam)
from them, which the `lie_chars` tables cache; and
`measure_pairing` pairs a class function's numerators with every row at
once, for `expect`'s measure route.  `_measure_products` packs the
binomial terms of the series route in a walk of their own, and reads
the slots it needs.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import chain, islice
from math import factorial
from operator import mul
from types import MappingProxyType

from .errors import BudgetExceeded, ConsistencyError
from .exact import Q_VAR, U_VAR, UPoly
from .partitions import Partition, class_scales, partition_count_exceeds, partitions_of


@lru_cache(maxsize=None)
def necklace(d: int) -> UPoly:
    """Number of monic irreducible degree-d polynomials, as a polynomial in q.

    Unique factorization counts the q**d monic polynomials of degree d
    by their irreducible factors: q**d = sum over e | d of e * necklace(e).
    """
    if d < 1:
        raise ValueError("necklace polynomials start at degree 1")
    coeffs = [0] * d + [1]
    for e in range(1, d):
        if d % e == 0:
            m_e = necklace(e)  # e * M_e has integer coefficients
            for k, n in enumerate(m_e.numerators):
                coeffs[k] -= e // m_e.denominator * n
    return UPoly(Q_VAR, coeffs, d)


def _packed_factor(j: int, shift: int, width: int) -> int:
    # The factor j*M_j(q) + shift, M_j = necklace(j), reversed into u and
    # packed at 2**width: j*M_j is monic of degree j over the integers, so
    # its q**j term, 1, goes in slot 0 and its q**k term in slot j - k.
    # Built from the top slot down, the nonzero terms only, one shift or
    # add at a time: at a large j the factor is j + 1 slots wide, and at
    # most two such integers are alive at once.
    m_j = necklace(j)
    nums, scale = m_j.numerators, j // m_j.denominator
    packed, slot = scale * nums[0] + shift, j
    for k in range(1, j):
        if nums[k]:
            packed <<= width * (slot - (j - k))
            packed += scale * nums[k]
            slot = j - k
    packed <<= width * slot
    return packed + 1


def _slot_width(bound: int) -> int:
    # The bits of one packed slot that holds, signed, any value of size at
    # most `bound` times a 64-bit digit: a multiple of 64, at least 128, so
    # that the bias 2**(width-1) `_unpacked` adds sits above the low word.
    return -(-(bound.bit_length() + 65) // 64) * 64


def _packed_products(lams: Sequence[Partition], squarefree: bool, width: int) -> list[int]:
    # z_lam * nu(lam) per lam in the order given, each one integer: its
    # u**k coefficient in slot k of 2**width.  nu(lam) * q**w is the product
    # over part sizes j of the polynomial binomial coefficient: choose m_j
    # irreducibles of degree j, with repetition (rising product) or without
    # when squarefree (falling product): times z_lam, the product over j
    # and i < m_j of j*M_j(q) + j*i (- j*i squarefree), reversed into u one
    # factor at a time.  The product of parts is the product of parts[1:]
    # times the factor of t = parts[0] at i = m_t - 1, so a memo of the
    # products of suffixes, which lives for this walk only, makes each
    # distinct nonempty suffix one multiply: a leaf scans for its longest
    # suffix already made and multiplies up from there, with no recursion.
    # Each factor has l1 norm at most j*(1 + i), so every coefficient of a
    # product of parts mu is at most z_mu, which divides z_lam: `width`
    # must hold the largest z_lam signed.  A factor is packed once per walk
    # and dropped with it: at a large part j it is j + 1 slots wide.
    factors: dict[tuple[int, int], int] = {}
    products: dict[tuple[int, ...], int] = {(): 1}
    leaves = []
    for lam in lams:
        parts, k = lam.parts, 0
        while (prod := products.get(parts[k:])) is None:
            k += 1
        for i in range(k - 1, -1, -1):
            t = parts[i]
            key = (t, (-t if squarefree else t) * (parts.index(t) + parts.count(t) - 1 - i))
            factor = factors.get(key)
            if factor is None:
                factor = factors[key] = _packed_factor(*key, width)
            prod = products[parts[i:]] = prod * factor
        # For weight w >= 1 the q**0 term, u**w, must be 0 (each part
        # size's first factor has none), so the product runs from u**0 to
        # u**(w-1), the cohomological range.  Its lower slots sum to less
        # than half of 2**(width*w) in size, so u**w is 0 exactly when
        # this shift leaves -1 or 0.
        if lam.d and (prod >> (width * lam.d - 1)) not in (-1, 0):
            raise ConsistencyError(
                f"measure product for {lam} has u-degree {lam.d}, "
                f"beyond the cohomological range {lam.d - 1}"
            )
        leaves.append(prod)
    return leaves


def _signed_slots(lifted: int, slots: int, width: int) -> list[int]:
    # Slots 0..slots-1 of a packed integer lifted by `_bias`, each read back signed.
    top, half = (1 << width) - 1, 1 << (width - 1)
    return [(lifted >> width * k & top) - half for k in range(slots)]


def _bias(slots: int, width: int) -> int:
    # 2**(width-1) in each of `slots` slots: it lifts a signed slot to nonnegative.
    return ((1 << width * slots) - 1) // ((1 << width) - 1) << (width - 1)


def signed_words(ints: Iterable[int], slots: int, width: int) -> Iterator[tuple[int, ...]]:
    """Slots 0..slots-1 of each packed integer, signed, slot k in bits
    [k*width, (k+1)*width): one tuple per integer, read in C 256 at a time
    through a little-endian struct.  The width is 32, or a multiple of 64
    whose slots hold values that fit their low 64-bit word.  The bias lifts
    each slot apart from the one below; its top bit flipped back, the slot
    is its own two's complement."""
    mask, bias = (1 << width * slots) - 1, _bias(slots, width)
    fmt = f"<{slots}i" if width == 32 else "<" + f"q{width // 8 - 8}x" * slots
    unpack, size, ints = struct.Struct(fmt).iter_unpack, width * slots // 8, iter(ints)
    while block := list(islice(ints, 256)):
        yield from unpack(b"".join(
            ((n + bias & mask) ^ bias).to_bytes(size, "little") for n in block
        ))


def _unpacked(
    leaves: Sequence[int], width: int, lams: Sequence[Partition], slots: int
) -> Iterator[tuple[int, ...]]:
    # Slots 0..slots-1 of each packed leaf, the product of lam, leaf after
    # leaf.  A value is at most z_lam in size, so `signed_words` reads it
    # from the low word of its slot (width >= 128) unless z_lam passes
    # 2**63 (a few lam from d = 21 on); those leaves are read slot by slot.
    for leaf, lam, column in zip(leaves, lams, signed_words(leaves, slots, width)):
        if lam.centralizer_order() >> 63:
            column = tuple(_signed_slots(leaf + _bias(slots, width), slots, width))
        yield column


def _measure_products(lams: Sequence[Partition], squarefree: bool, order: int) -> list[list[int]]:
    # z_lam * nu(lam) as integer u-coefficients, per lam in the order
    # given: u**0 to u**(w-1) for weight w >= 1 (u**0 alone for w = 0), cut
    # after u**order.  One packed walk, at the width of the largest z_lam,
    # read out to the slots kept.
    width = _slot_width(max((lam.centralizer_order() for lam in lams), default=1))
    keep = [min(max(lam.d, 1), order + 1) for lam in lams]
    leaves = _packed_products(lams, squarefree, width)
    columns = _unpacked(leaves, width, lams, max(keep, default=1))
    return [list(column[:n]) for column, n in zip(columns, keep)]


# Cap on the partition route (measures, character tables, expected
# values of class functions): p(d) factorization types, one integer
# measure product each.  d = 23 (1255 types) builds its rows in 11-28 ms
# per flavour on a 2-core host; the cap was sized to a slower product and
# is kept until it is refitted.
PARTITION_BUDGET = 1255


def check_partition_budget(d: int) -> None:
    """Raise BudgetExceeded if d has more than PARTITION_BUDGET partitions."""
    if partition_count_exceeds(d, PARTITION_BUDGET):
        raise BudgetExceeded(
            f"the partition route at d={d} needs p(d) factorization types, "
            f"more than the cap of {PARTITION_BUDGET}"
        )


@lru_cache(maxsize=None)
def packed_measure(d: int, /, *, squarefree: bool) -> tuple[tuple[int, ...], int]:
    """The measure columns z_lam * nu(lam) over the partitions of d, each
    packed into one integer, and the slot width: [u**k] in bit slot k.

    The width is fixed by d alone: |z_lam * [u**k] nu(lam)| <= z_lam,
    which divides d!, so a slot of `_slot_width(d! * p(d))` bits holds
    every value, and also a pairing of p(d) columns times lcm(z) / z_lam
    (at most d!) with 64-bit digits.  A u-degree beyond d-1 raises
    ConsistencyError, and a d past PARTITION_BUDGET raises BudgetExceeded
    before any partition is enumerated.  The flag is keyword-only so that
    every caller shares one cache entry.
    """
    if d < 1:
        raise ValueError("splitting measures start at degree 1")
    check_partition_budget(d)
    lams = partitions_of(d)
    width = _slot_width(factorial(d) * len(lams))
    return tuple(_packed_products(lams, squarefree, width)), width


def measure_rows(d: int, /, *, squarefree: bool) -> tuple[tuple[int, ...], ...]:
    """The integers z_lam * [u**k] nu(lam): row k, k = 0..d-1, over lam in partition order.

    nu is the measure over all monic polynomials, or with `squarefree` the
    q**d-normalized squarefree one; row k is psi_d^k, and (-1)**k phi_d^k
    when squarefree.  Read out of `packed_measure(d)` on every call, and
    raising its errors; the `lie_chars` tables cache what they read.
    """
    values = list(chain.from_iterable(measure_columns(d, squarefree=squarefree)))
    return tuple(tuple(values[k::d]) for k in range(d))


def measure_columns(d: int, /, *, squarefree: bool) -> Iterator[tuple[int, ...]]:
    """The columns z_lam * nu(lam), lam in partition order, [u**k] at index k:
    `packed_measure(d)` is read, and its errors raised, by this call, and its
    columns read out 256 at a time as they are iterated."""
    return _unpacked(*packed_measure(d, squarefree=squarefree), partitions_of(d), d)


@lru_cache(maxsize=None)
def _scaled_columns(d: int, squarefree: bool) -> tuple[tuple[int, ...], int, int, int]:
    # The packed columns of d times lcm(z) / z_lam, in partition order; the
    # slot width, the bias of d slots, and lcm(z).
    columns, width = packed_measure(d, squarefree=squarefree)
    scales, lcm_z = class_scales(d)
    return tuple(map(mul, columns, scales)), width, _bias(d, width), lcm_z


def _balanced_digits(nums: Sequence[int]) -> Iterator[tuple[int, Sequence[int]]]:
    # (place, digits): nums = sum over places of digits * 2**place, each digit
    # in [-2**63, 2**63), so one packing serves every size; nums if they are.
    place, half = 0, 1 << 63
    while max(nums) >= half or min(nums) < -half:
        low = [((a + half) & (2 * half - 1)) - half for a in nums]
        yield place, low
        nums = [(a - b) >> 64 for a, b in zip(nums, low)]
        place += 64
    yield place, nums


def measure_pairing(d: int, nums: Sequence[int], /, *, squarefree: bool) -> tuple[list[int], int]:
    """Integers T_k and lcm(z), k = 0..d-1: sum over lam of nums[i] * [u**k] nu(lam)
    is T_k / lcm(z), lam the i-th partition of d.  With the columns scaled by
    lcm(z) / z_lam, one multiply-add per partition and 64-bit digit of nums
    gives every T_k at once in its slot."""
    columns, width, bias, lcm_z = _scaled_columns(d, squarefree)
    for place, digits in _balanced_digits(nums):
        slots = _signed_slots(sum(map(mul, digits, columns)) + bias, d, width)
        totals = [t + (v << place) for t, v in zip(totals, slots)] if place else slots
    return totals, lcm_z


def _as_measure(d: int, squarefree: bool) -> Mapping[Partition, UPoly]:
    # nu(lam) = column / z_lam; the columns first, so a refused d enumerates nothing.
    return MappingProxyType({
        lam: UPoly(U_VAR, column, lam.centralizer_order())
        for column, lam in zip(measure_columns(d, squarefree=squarefree), partitions_of(d))
    })


@lru_cache(maxsize=None)
def splitting_measure(d: int) -> Mapping[Partition, UPoly]:
    """Measure of factorization types among all monic degree-d polynomials.

    A read-only mapping from partitions, in partition order, to
    u-polynomials.  Values sum to 1 as a polynomial identity.
    """
    return _as_measure(d, squarefree=False)


@lru_cache(maxsize=None)
def sf_splitting_measure(d: int) -> Mapping[Partition, UPoly]:
    """q**d-normalized measure of factorization types among squarefree polynomials.

    A read-only mapping like `splitting_measure`.  Values sum to the
    squarefree density: 1 - u for d >= 2, and 1 for d = 1 (every monic
    linear polynomial is squarefree).
    """
    return _as_measure(d, squarefree=True)
