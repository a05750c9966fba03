"""Necklace polynomials and exact splitting measures.

The d-th necklace polynomial counts monic irreducible polynomials of
degree d over F_q.  Unique factorization turns these counts into the
splitting measure: the probability that a uniform monic degree-d
polynomial has factorization type lam is a product of polynomial
binomial coefficients divided by q**d, i.e. a polynomial in u = 1/q.
Choosing factors with repetition allowed gives the measure over all
polynomials; without repetition, the squarefree variant.

The measure is built by one integer step, `_factor_step`, times one
factor j*M_j(q) +- j*i, and one driver, `_measure_products`, runs it for
any list of partitions: z_lam * nu(lam), reversed into u, with one step
per distinct prefix of parts taken in ascending order, the walk
`partitions.prefix_walk` that the character table shares.  The one
stored object per (degree, flavor) is `measure_rows`, d integer rows
z_lam * [u**k] nu(lam) over the partitions of d, which reads it over
`partitions_of(d)`.
The measure is nu(lam) = column / z_lam, the `lie_chars` tables are the
same rows (phi's signed by (-1)**k), and `expect` packs each column into
one integer, on its first query at a (degree, flavor), to pair a class
function with every row at once; no inversion pass converts one form
into another.  For a character polynomial, `expect` reads the products
of its binomial terms' partitions, of every weight up to d, in one call.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _factor_terms(j: int, shift: int) -> tuple[tuple[int, int], ...]:
    # The nonzero terms (k, c), k < j, of the factor j*M_j(q) + shift,
    # M_j = necklace(j): j*M_j is monic of degree j over the integers.
    m_j = necklace(j)
    low = [j // m_j.denominator * n for n in m_j.numerators[:j]]
    low[0] += shift
    return tuple((k, c) for k, c in enumerate(low) if c)


def _factor_step(prod: list[int], j: int, shift: int) -> list[int]:
    # prod * (j*M_j(q) + shift) in q: the one step that builds the measure
    out = [0] * j + prod
    for k, c in _factor_terms(j, shift):
        for t, a in enumerate(prod, k):
            out[t] += a * c
    return out


def _in_u(lam: Partition, prod: list[int]) -> list[int]:
    # lam's finished q-product reversed into u.  For weight w >= 1 its
    # q**0 term must be 0 (each part size's first factor has none), so it
    # runs from u**0 to u**(w-1), the cohomological range.
    if lam.d and prod[0]:
        raise ConsistencyError(
            f"measure product for {lam} has u-degree {lam.d}, "
            f"beyond the cohomological range {lam.d - 1}"
        )
    return prod[:0:-1] if lam.d else prod


def _measure_products(lams: Sequence[Partition], squarefree: bool) -> list[list[int]]:
    # z_lam * nu(lam) as integer u-coefficients, per lam in the order given.
    # nu(lam) * q**w is the product over part sizes j of the polynomial
    # binomial coefficient: choose m_j irreducibles of degree j, with
    # repetition (rising product) or without when squarefree (falling
    # product): times z_lam, the product over j and i < m_j of
    # j*M_j(q) + j*i (- j*i squarefree).  `prefix_walk` takes the parts
    # ascending, so a prefix shared by several partitions is one factor
    # step, its last part t after i parts t.
    def step(prod: list[int], parts: tuple[int, ...], n: int) -> list[int]:
        t = parts[n]
        return _factor_step(prod, t, (-t if squarefree else t) * parts[:n].count(t))

    products = prefix_walk((lam.parts[::-1] for lam in lams), [1], step)
    return [_in_u(lam, products[lam.parts[::-1]]) for lam in lams]


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
def measure_rows(d: int, /, *, squarefree: bool) -> tuple[tuple[int, ...], ...]:
    """The integers z_lam * [u**k] nu(lam): row k, k = 0..d-1, over lam in partition order.

    nu is the measure over all monic polynomials, or with `squarefree` the
    q**d-normalized squarefree one; row k is psi_d^k, and (-1)**k phi_d^k
    when squarefree.  The columns are `_measure_products` over
    `partitions_of(d)`; a u-degree beyond d-1 raises ConsistencyError,
    and a d past PARTITION_BUDGET raises BudgetExceeded before any
    partition is enumerated.  The flag is keyword-only so that every
    caller shares one cache entry.
    """
    if d < 1:
        raise ValueError("splitting measures start at degree 1")
    check_partition_budget(d)
    return tuple(zip(*_measure_products(partitions_of(d), squarefree)))


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
