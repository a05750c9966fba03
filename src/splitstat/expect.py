"""Expected values of factorization statistics.

The expected value of a statistic P over monic degree-d polynomials is
sum over lam of P(lam) nu(lam), summed against the splitting measure nu.
It is read from the stored integer rows z_lam [u**k] nu(lam) of
`measures.measure_rows`: each u**k coefficient is one integer dot
product of `sym_chars.class_weights(P)`, the integers W_lam with
P(lam) / z_lam = W_lam / D, with row k, over the one denominator D.
Row k is the character psi_d^k, so the cohomology gives no second route:
sum_k <P, psi_d^k> u**k is the same sum term by term (the tests check
this identity; the census in `gf` is the independent check).  The
squarefree variant sums against the squarefree measure, under a choice
of normalization: by q**d, or by the actual squarefree count, which
divides out the squarefree density (1 - u for d >= 2, 1 at d = 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .errors import BudgetExceeded, ConsistencyError, DegreeMismatch
from .exact import U_VAR, Immutable, UPoly
from .measures import _measure_value, measure_rows
from .partitions import Partition
from .sym_chars import CharacterPolynomial, ClassFunction, class_weights

VIA_MEASURE = "measure"

NORM_Q_POWER = "q_power"
NORM_SF_COUNT = "sf_count"


class ExpectationResult(Immutable):
    """An exact expected value as a polynomial in u = 1/q.

    `checks` names the checks that ran while computing it.
    """

    __slots__ = ("d", "statistic", "value", "route", "normalization", "checks")

    def __init__(
        self,
        d: int,
        statistic: str,
        value: UPoly,
        route: str,
        normalization: str | None = None,
        checks: tuple[str, ...] = (),
    ) -> None:
        self._store(d, statistic, value, route, normalization, checks)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.value.coeffs

    def at_q(self, q: int | Fraction) -> Fraction:
        """Evaluate at a concrete field size."""
        return self.value.evaluate(Fraction(1, q))


def _measure_sum(P: ClassFunction, squarefree: bool) -> tuple[list[int], int]:
    # nu(lam) = column / z_lam, so the u**k total pairs row k (in partition
    # order) with the weights P(lam) / z_lam = W_lam / D: the integer
    # totals, and D.
    weights, den = class_weights(P)
    return [sum(map(mul, weights, row)) for row in measure_rows(P.d, squarefree=squarefree)], den


def _u_poly(total: list[int], den: int) -> UPoly:
    return UPoly(U_VAR, tuple(Fraction(t, den) for t in total))


def _stat_name(P: ClassFunction, name: str | None) -> str:
    return name if name is not None else (P.name or "stat")


def _check_args(d: int, P: ClassFunction) -> None:
    if d < 1:
        raise ValueError("expected values start at degree 1")
    if P.d != d:
        raise DegreeMismatch(f"statistic is for degree {P.d}, not {d}")


def expected(d: int, P: ClassFunction, name: str | None = None) -> ExpectationResult:
    """E_d(P): the mean of P over all monic degree-d polynomials.

    Summed against the splitting measure; its u**k coefficient equals
    <P, psi_d^k> by the definition of psi.
    """
    _check_args(d, P)
    return ExpectationResult(
        d=d,
        statistic=_stat_name(P, name),
        value=_u_poly(*_measure_sum(P, squarefree=False)),
        route=VIA_MEASURE,
    )


def expected_sf(
    d: int,
    P: ClassFunction,
    normalization: str = NORM_Q_POWER,
    name: str | None = None,
) -> ExpectationResult:
    """Squarefree expected value of P, under a choice of normalization.

    Summed against the squarefree measure; its u**k coefficient equals
    (-1)**k <P, phi_d^k> by the definition of phi.  NORM_Q_POWER divides
    the squarefree sum by q**d (so the all-types and squarefree results
    are directly comparable); NORM_SF_COUNT divides by the squarefree
    count, giving a true conditional mean.  The second is the first
    divided by the squarefree density, 1 - u for d >= 2 and 1 at d = 1;
    that division is always exact, which the "exact_division" check
    asserts.
    """
    _check_args(d, P)
    if normalization not in (NORM_Q_POWER, NORM_SF_COUNT):
        raise ValueError(f"unknown normalization {normalization!r}")
    total, den = _measure_sum(P, squarefree=True)
    if normalization == NORM_SF_COUNT and d >= 2:
        # dividing by 1 - u takes prefix sums; the last is the remainder
        *total, rem = accumulate(total)
        if rem:
            raise ConsistencyError(
                f"squarefree sum for {_stat_name(P, name)} at d={d} is not "
                "divisible by the squarefree density 1 - u"
            )
    return ExpectationResult(
        d=d,
        statistic=_stat_name(P, name),
        value=_u_poly(total, den),
        route=VIA_MEASURE,
        normalization=normalization,
        checks=("exact_division",) if normalization == NORM_SF_COUNT else (),
    )


def eval_q1(d: int, P: ClassFunction) -> Fraction:
    """E_d(P) evaluated at q = 1.

    Equals P at the all-ones partition: the character rows sum to the
    regular character, whose inner product with P picks out that value.
    """
    return expected(d, P).value.evaluate(1)


def trivial_coeff(d: int, P: ClassFunction) -> Fraction:
    """Constant term of E_d(P): the large-q limit of the expected value.

    Equals the coefficient of the trivial character in the expansion of
    P into irreducibles.
    """
    return expected(d, P).value.coeff(0)


class StableLimit(Immutable):
    """Coefficientwise limit of E_d(P) as d grows, with witnesses.

    coeffs[k] is the limit of the u**k coefficient; stabilized_at[k] is
    the least d > k from which that coefficient of E_d(P) equals it.
    """

    __slots__ = ("statistic", "order", "coeffs", "stabilized_at")

    def __init__(
        self,
        statistic: str,
        order: int,
        coeffs: tuple[Fraction, ...],
        stabilized_at: tuple[int, ...],
    ) -> None:
        self._store(statistic, order, coeffs, stabilized_at)


# Cap on _limit_cost: about 1.5 s of work on a 2-core host.
LIMIT_BUDGET = 5_000_000


def _limit_cost(P: CharacterPolynomial, order: int) -> int:
    # A monomial prod_j x_j**e_j of weight w has at most prod_j e_j
    # binomial terms, each a measure product of e_j factors of degree j
    # plus passes over w + 1 Fraction coefficients, then prefix sums and
    # a convolution up to u**order; weights fit the slowest timed inputs.
    cost = 0
    for mono, _ in P.terms:
        terms, parts, w, product = 1, 0, 0, 0
        for j, e in mono:
            product += (j + 1) * (e * (w + 1) + j * e * (e - 1) // 2)
            terms, parts, w = terms * e, parts + e, w + j * e
        cost += terms * (8 * product + 128 * (w + 1) + (parts + min(w, order) + 1) * (order + 1))
    return cost


def _binomial_terms(P: CharacterPolynomial) -> dict[Partition, Fraction]:
    # P in the basis prod_j C(x_j, m_j), keyed by the partition with m_j
    # parts j; x*C(x,m) = m*C(x,m) + (m+1)*C(x,m+1) expands each x_j**e.
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, c in P.terms:
        partial = {(): c}
        for j, e in mono:
            a = [1]
            for _ in range(e):
                a = [m * (x + y) for m, (x, y) in enumerate(zip(a + [0], [0] + a))]
            partial = {
                k + (j,) * m: v * am for k, v in partial.items() for m, am in enumerate(a) if am
            }
        for k, v in partial.items():
            out[k] = out.get(k, 0) + v
    return {Partition(k): v for k, v in out.items() if v}


def stable_limit(P: CharacterPolynomial, order: int) -> StableLimit:
    """Limit of the first `order`+1 coefficients of E_d(P) as d grows.

    For lam with m_j parts j and weight w, unique factorization gives
    E_d(prod_j C(x_j, m_j)) = nu_w(lam) * [prod_j (1 - u**j)**(-m_j)],
    the series truncated after u**(d - w), with nu_w the splitting
    measure (the point counting of Church-Ellenberg-Farb,
    arXiv:1309.6038).  The limit drops the truncation.  Each degree adds
    one series coefficient per term, so stabilized_at[k] is the larger
    of k + 1 and the last d whose summed u**k increment is nonzero.
    Raises BudgetExceeded when _limit_cost exceeds LIMIT_BUDGET.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    name = P.name or str(P)
    if (cost := _limit_cost(P, order)) > LIMIT_BUDGET:
        raise BudgetExceeded(
            f"limit of {name} to order {order} needs about {cost} work units, "
            f"over the cap of {LIMIT_BUDGET}"
        )
    terms = [
        (lam, [c * a for a in _measure_value(lam, with_repetition=True).coeffs[: order + 1]])
        for lam, c in _binomial_terms(P).items()
    ]
    den = lcm(*(a.denominator for _, nu in terms for a in nu))
    # incr[k][d]: den times the change in [u**k] E_d(P) from d - 1 to d
    incr: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for lam, nu in terms:
        b = [1] + [0] * order
        for j in lam.parts:
            for s in range(j, order + 1):
                b[s] += b[s - j]
        nums = [a.numerator * (den // a.denominator) for a in nu]
        for s, bs in enumerate(b):
            for i, a in enumerate(nums[: order + 1 - s]):
                incr[i + s][lam.d + s] = incr[i + s].get(lam.d + s, 0) + a * bs
    return StableLimit(
        statistic=name,
        order=order,
        coeffs=tuple(Fraction(sum(row.values()), den) for row in incr),
        stabilized_at=tuple(
            max([k + 1] + [d for d, x in row.items() if x]) for k, row in enumerate(incr)
        ),
    )

