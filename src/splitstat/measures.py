"""Necklace polynomials and exact splitting measures.

The d-th necklace polynomial counts monic irreducible polynomials of
degree d over F_q.  Unique factorization turns these counts into the
splitting measure: the probability that a uniform monic degree-d
polynomial has factorization type lam is a product of polynomial
binomial coefficients divided by q**d, i.e. a polynomial in u = 1/q.
Choosing factors with repetition allowed gives the measure over all
polynomials; without repetition, the squarefree variant.

The one stored object per (degree, flavor) is `measure_rows`, the
integers z_lam * [u**k] nu(lam) as d rows over the partitions.  The
measure is nu(lam) = column / z_lam, the `lie_chars` tables wrap the
same rows, and `expect` pairs a class function with each row; no
inversion pass converts one form into another.  For a character
polynomial, `expect` reads z_lam * nu(lam) of single partitions, of
every weight up to d, as integer products (`_measure_numerators`).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .errors import BudgetExceeded, ConsistencyError
from .exact import Q_VAR, U_VAR, UPoly, over_q_power
from .partitions import Partition, partition_count_exceeds, partitions_of


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
            for k, c in enumerate(necklace(e).coeffs):
                if c:
                    coeffs[k] -= e * c
    return UPoly(Q_VAR, tuple(Fraction(c, d) for c in coeffs))


def _measure_value(lam: Partition, with_repetition: bool) -> UPoly:
    # Product over part sizes j of the polynomial binomial coefficient:
    # choose m_j irreducibles of degree j, with repetition for the full
    # measure (rising product) or without for the squarefree one (falling
    # product).  The q-degree of the product is exactly d, so dividing by
    # q**d reverses the coefficients into a u-polynomial.
    prod = UPoly(Q_VAR, (Fraction(1),))
    for j, m in lam.multiplicities():
        base = necklace(j)
        for i in range(m):
            prod = prod * (base + i if with_repetition else base - i)
        prod = prod * Fraction(1, factorial(m))
    if prod.degree != lam.d:
        raise ConsistencyError(
            f"type-count product for {lam} has q-degree {prod.degree}, expected {lam.d}"
        )
    return over_q_power(prod, lam.d)


def _measure_numerators(lam: Partition, squarefree: bool) -> list[int]:
    # z_lam * nu(lam) as integer u-coefficients, from the same product as
    # _measure_value: j*M_j has integer coefficients (M_j = necklace(j)),
    # so the product over j and i < m_j of j*M_j(q) + j*i (- j*i when
    # squarefree) is z_lam * q**w * nu(lam) over the integers.  Its
    # q-degree is w, and for w >= 1 its q**0 coefficient is 0 (the i = 0
    # factor has none), so reversed it runs from u**0 to u**(w-1).
    prod = [1]
    for j, m in lam.multiplicities():
        # M_j has no constant term, so j*i is the factor's whole q**0 part
        terms = [(k, int(j * c)) for k, c in enumerate(necklace(j).coeffs) if c]
        for i in range(m):
            shift = -j * i if squarefree else j * i
            out = [shift * a for a in prod] + [0] * j
            for k, c in terms:
                for t, a in enumerate(prod):
                    out[t + k] += a * c
            prod = out
    return prod[:0:-1] if lam.d else prod


# Cap on the partition route (measures, character tables, expected
# values): p(d) factorization types, one measure product each.  d = 23
# (1255 types) builds its rows in about 2.5 s on a 2-core host.
PARTITION_BUDGET = 1255


def check_partition_budget(d: int) -> None:
    """Raise BudgetExceeded if d has more than PARTITION_BUDGET partitions."""
    if partition_count_exceeds(d, PARTITION_BUDGET):
        raise BudgetExceeded(
            f"the partition route at d={d} needs p(d) factorization types, "
            f"more than the cap of {PARTITION_BUDGET}"
        )


@lru_cache(maxsize=None)
def measure_rows(d: int, /, *, squarefree: bool) -> tuple[tuple[int, ...], ...]:
    """The integers z_lam * [u**k] nu(lam): row k, k = 0..d-1, over lam in partition order.

    nu is the measure over all monic polynomials, or with `squarefree` the
    q**d-normalized squarefree one; row k is psi_d^k, and (-1)**k phi_d^k
    when squarefree.  A u-degree beyond d-1 or a non-integer raises
    ConsistencyError, and a d past PARTITION_BUDGET raises BudgetExceeded
    before any partition is enumerated.  The flag is keyword-only so that
    every caller shares one cache entry.
    """
    if d < 1:
        raise ValueError("splitting measures start at degree 1")
    check_partition_budget(d)
    rows: list[list[int]] = [[] for _ in range(d)]
    for lam in partitions_of(d):
        nu = _measure_value(lam, with_repetition=not squarefree)
        if nu.degree > d - 1:
            raise ConsistencyError(
                f"measure value for {lam} has u-degree {nu.degree}, "
                f"beyond the cohomological range {d - 1}"
            )
        z = lam.centralizer_order()
        for k, row in enumerate(rows):
            v = nu.coeff(k) * z
            if v.denominator != 1:
                raise ConsistencyError(f"non-integer character value {v} at k={k}, lam={lam}")
            row.append(v.numerator)
    return tuple(map(tuple, rows))


def _as_measure(d: int, squarefree: bool) -> Mapping[Partition, UPoly]:
    # nu(lam) = column / z_lam, read back as u-polynomials.
    columns = zip(*measure_rows(d, squarefree=squarefree))
    return MappingProxyType({
        lam: UPoly(U_VAR, tuple(Fraction(c, lam.centralizer_order()) for c in column))
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
