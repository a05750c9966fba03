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
slot k (Kronecker substitution), each step one multiply by a factor
j*M_j(q) +- j*i packed the same way, one step per distinct prefix of
parts taken in ascending order: `partitions.prefix_walk`, the walk the
character table shares, which returns the products in the order given.
The one stored object per (degree, flavor) is `packed_measure`, those
integers over the partitions of d at a slot width fixed by d alone;
`measure_rows` reads its d integer rows z_lam * [u**k] nu(lam) out in C.
The measure is nu(lam) = column / z_lam, the `lie_chars` tables are the
rows (phi's signed by (-1)**k), and `expect` pairs a class function with
the packed columns, scaled by lcm(z) / z_lam, for every row at once; no
inversion or repacking pass converts one form into another.  `expect`
reads a character polynomial's binomial terms' products, of every weight
up to d, from its own walk (`_measure_products`), to the slots it needs.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .errors import BudgetExceeded, ConsistencyError
from .exact import Q_VAR, U_VAR, UPoly
from .partitions import Partition, partition_count_exceeds, partitions_of, prefix_walk


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
    # factor at a time.  `prefix_walk` takes the parts ascending, so a prefix
    # shared by several partitions is one multiply; its step n finds part t
    # after i = n - parts.index(t) parts t.  Each factor has l1 norm at most
    # j*(1 + i), so every coefficient of a product of prefix parts mu is at
    # most z_mu, which divides z_lam: `width` must hold the largest z_lam
    # signed.  A factor is packed once per walk and dropped with it: at a
    # large part j it is j + 1 slots wide.
    factors: dict[tuple[int, int], int] = {}

    def step(prod: int, parts: tuple[int, ...], n: int) -> int:
        t = parts[n]
        key = (t, (-t if squarefree else t) * (n - parts.index(t)))
        factor = factors.get(key)
        if factor is None:
            factor = factors[key] = _packed_factor(*key, width)
        return prod * factor

    leaves = prefix_walk([lam.parts[::-1] for lam in lams], 1, step)
    for lam, leaf in zip(lams, leaves):
        # For weight w >= 1 the q**0 term, u**w, must be 0 (each part
        # size's first factor has none), so the product runs from u**0 to
        # u**(w-1), the cohomological range.  Its lower slots sum to less
        # than half of 2**(width*w) in size, so u**w is 0 exactly when
        # this shift leaves -1 or 0.
        if lam.d and (leaf >> (width * lam.d - 1)) not in (-1, 0):
            raise ConsistencyError(
                f"measure product for {lam} has u-degree {lam.d}, "
                f"beyond the cohomological range {lam.d - 1}"
            )
    return leaves


def _unpacked(leaves: Sequence[int], lams: Sequence[Partition], slots: int, width: int) -> list[int]:
    # Slots 0..slots-1 of each packed leaf, the product of lam, leaf after
    # leaf, 256 leaves at a time, so that the copies made on the way hold one
    # block.  Adding the bias 2**(width-1) to every slot lifts it to
    # nonnegative and leaves its low 64-bit word the two's complement of its
    # value (width >= 128); the lifted leaves, cut to `slots` slots, are
    # written out as bytes and those words read back in C.  A value is at most
    # z_lam in size, so that word is the value unless z_lam passes 2**63 (a
    # few lam from d = 21 on); those leaves are read slot by slot.
    mask, top = (1 << width * slots) - 1, (1 << width) - 1
    bias, values = (mask // top) << (width - 1), []
    for start in range(0, len(leaves), 256):
        lifted = [((leaf & mask) + bias) & mask for leaf in leaves[start : start + 256]]
        words = array("q", b"".join(leaf.to_bytes(width * slots // 8, "little") for leaf in lifted))
        if sys.byteorder == "big":
            words.byteswap()
        block = words[:: width // 64].tolist()
        for i, lam in enumerate(lams[start : start + 256]):
            if lam.centralizer_order() >> 63:
                block[i * slots : (i + 1) * slots] = [
                    (lifted[i] >> width * k & top) - (1 << (width - 1)) for k in range(slots)
                ]
        values += block
    return values


def _measure_products(lams: Sequence[Partition], squarefree: bool, order: int) -> list[list[int]]:
    # z_lam * nu(lam) as integer u-coefficients, per lam in the order
    # given: u**0 to u**(w-1) for weight w >= 1 (u**0 alone for w = 0), cut
    # after u**order.  One packed walk, at the width of the largest z_lam,
    # read out to the slots kept.
    width = _slot_width(max((lam.centralizer_order() for lam in lams), default=1))
    keep = [min(max(lam.d, 1), order + 1) for lam in lams]
    slots = max(keep, default=1)
    values = _unpacked(_packed_products(lams, squarefree, width), lams, slots, width)
    return [values[i * slots : i * slots + n] for i, n in enumerate(keep)]


# Cap on the partition route (measures, character tables, expected
# values of class functions): p(d) factorization types, one integer
# measure product each.  d = 23 (1255 types) builds its rows in under
# 0.01 s per flavour on a 2-core host; the cap was sized to a slower
# product and is kept until it is refitted.
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


@lru_cache(maxsize=None)
def measure_rows(d: int, /, *, squarefree: bool) -> tuple[tuple[int, ...], ...]:
    """The integers z_lam * [u**k] nu(lam): row k, k = 0..d-1, over lam in partition order.

    nu is the measure over all monic polynomials, or with `squarefree` the
    q**d-normalized squarefree one; row k is psi_d^k, and (-1)**k phi_d^k
    when squarefree.  Read out of `packed_measure(d)`, whose errors they
    raise; the flag is keyword-only so that callers share one cache entry,
    but `phi_table` reads past it, to sign in place the one copy it holds.
    """
    columns, width = packed_measure(d, squarefree=squarefree)
    values = _unpacked(columns, partitions_of(d), d, width)
    return tuple(tuple(values[k::d]) for k in range(d))


def _as_measure(d: int, squarefree: bool) -> Mapping[Partition, UPoly]:
    # nu(lam) = column / z_lam, read back as u-polynomials.
    columns = zip(*measure_rows(d, squarefree=squarefree))
    return MappingProxyType({
        lam: UPoly(U_VAR, column, lam.centralizer_order())
        for lam, column in zip(partitions_of(d), columns)
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
