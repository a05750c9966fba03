"""Necklace polynomials and exact splitting measures.

The d-th necklace polynomial counts monic irreducible polynomials of
degree d over F_q.  Unique factorization turns these counts into the
splitting measure: the probability that a uniform monic degree-d
polynomial has factorization type lam is a product of polynomial
binomial coefficients divided by q**d, i.e. a polynomial in u = 1/q.
Choosing factors with repetition allowed gives the measure over all
polynomials; without repetition, the squarefree variant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import ConsistencyError
from .exact import Q_VAR, UPoly, over_q_power
from .partitions import Partition, partitions_of

FLAVOR_ALL = "all"
FLAVOR_SQUAREFREE = "squarefree"


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


class SplittingMeasure:
    """Factorization-type probabilities for one degree, as u-polynomials."""

    __slots__ = ("d", "flavor", "_values")

    def __init__(self, d: int, flavor: str, values: dict[Partition, UPoly]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("SplittingMeasure is immutable")

    def value(self, lam: Partition) -> UPoly:
        return self._values[lam]

    def items(self) -> tuple[tuple[Partition, UPoly], ...]:
        return tuple((lam, self._values[lam]) for lam in partitions_of(self.d))

    def total(self) -> UPoly:
        out = UPoly("u", ())
        for lam in partitions_of(self.d):
            out = out + self._values[lam]
        return out

    def __repr__(self) -> str:
        return f"<SplittingMeasure d={self.d} flavor={self.flavor}>"


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


@lru_cache(maxsize=None)
def splitting_measure(d: int) -> SplittingMeasure:
    """Measure of factorization types among all monic degree-d polynomials.

    Values sum to 1 as a polynomial identity.
    """
    if d < 1:
        raise ValueError("splitting measures start at degree 1")
    values = {lam: _measure_value(lam, with_repetition=True) for lam in partitions_of(d)}
    return SplittingMeasure(d, FLAVOR_ALL, values)


@lru_cache(maxsize=None)
def sf_splitting_measure(d: int) -> SplittingMeasure:
    """q**d-normalized measure of factorization types among squarefree polynomials.

    Values sum to the squarefree density: 1 - u for d >= 2, and 1 for
    d = 1 (every monic linear polynomial is squarefree).
    """
    if d < 1:
        raise ValueError("splitting measures start at degree 1")
    values = {lam: _measure_value(lam, with_repetition=False) for lam in partitions_of(d)}
    return SplittingMeasure(d, FLAVOR_SQUAREFREE, values)
