"""Expected values of factorization statistics.

The expected value of a statistic P over monic degree-d polynomials is
sum over lam of P(lam) nu(lam), summed against the splitting measure nu,
and its u**k coefficient is <P, psi_d^k>.  P is read at d through
`at_degree(d)`, and two routes compute it, chosen by what P is there:

* the measure route, for a ClassFunction on the partitions of d: P's
  numerators paired with the measure by `measures.measure_pairing`, which
  owns the packed measure and its slot format, one integer multiply-add
  per partition with a nonzero numerator for every u**k at once, over
  P.denominator * lcm(z); nothing is packed at query time;
* the series route, for a CharacterPolynomial: P in the basis of
  products of binomials prod_j C(x_j, m_j), each term a splitting
  measure at its own weight times a truncated power series (see
  `_series_terms`), with no partition of d enumerated; and for a
  SignedPolynomial A + B*sgn (the built-ins sgn and ET), A as above and B*sgn
  from B's terms, with their series twisted by sgn (see `_rest`).

The two agree term by term; the tests check that, and the census in `gf`
is the independent check.  The squarefree variant sums against the
squarefree measure, under a choice of normalization: by q**d, or by the
actual squarefree count, which divides out the squarefree density
(1 - u for d >= 2, 1 at d = 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .errors import BudgetExceeded, ConsistencyError
from .exact import U_VAR, Immutable, UPoly, add_rows, cut_short
from .measures import _measure_products, measure_pairing
from .partitions import Partition
from .sym_chars import CharacterPolynomial, ClassFunction, SignedPolynomial, Statistic

Series = CharacterPolynomial | SignedPolynomial

VIA_MEASURE = "measure"
VIA_SERIES = "series"

NORM_Q_POWER = "q_power"
NORM_SF_COUNT = "sf_count"


class ExpectationResult(Immutable):
    """An exact expected value as a polynomial in u = 1/q.

    `route` is VIA_MEASURE or VIA_SERIES; `checks` names the checks that
    ran while computing it.
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

    def at_q(self, q: int | Fraction) -> Fraction:
        """Evaluate at a concrete field size."""
        return self.value.evaluate(Fraction(1, q))


def _series_sum(d: int, P: Series, squarefree: bool) -> tuple[list[int], int]:
    # The same totals on the series route, for P at degree d.  A term of
    # weight w gives nu_w(lam) u**s b_s, for each s <= d - w, times what the
    # polynomials of degree r = d - w - s with none of the term's factors
    # add (_rest): over all polynomials b truncated after u**(d - w);
    # squarefree, that and u**(s+1) b_s taken off for r >= 2.  The parts of
    # a SignedPolynomial are summed apart, the second twisted by sgn.
    parts = (P.plain, P.signed) if isinstance(P, SignedPolynomial) else (P,)
    what = f"the series route for {cut_short(P.name)} at d={d}"
    budgeted = _budgeted_terms(parts, d - 1, squarefree, d, what)  # before any list of length d
    total, den = [0] * d, 1
    for signed, (terms, terms_den) in zip((False, True), budgeted):
        series, part_den = _series_terms(terms, terms_den, d - 1, squarefree, d, signed)
        part = [0] * d
        for w, nums, b in series:
            for s, bs in enumerate(b):
                for shift, c in _rest(d - w - s, squarefree, signed):
                    cb, at = c * bs, s + shift
                    for i, a in enumerate(nums):
                        part[at + i] += a * cb
        total, den = add_rows(total, den, part, part_den)
    return list(total), den


def _rest(r: int, squarefree: bool, signed: bool) -> tuple[tuple[int, int], ...]:
    # q**-r [T**r] of the zeta function of the polynomials left after a
    # term's factors, as (power of u, coefficient) pairs: 1/(1 - qT) gives
    # 1; squarefree, (1 - qT**2)/(1 - qT) gives 1 - u from r = 2 on.
    # Twisted by sgn, each irreducible factor of degree k counts
    # (-1)**(k-1): (1 + qT)/(1 - qT**2) gives u**(r // 2), and squarefree
    # 1 + qT gives 1 up to r = 1 and nothing after.
    if signed:
        return ((0, 1),) if r <= 1 else () if squarefree else ((r // 2, 1),)
    return ((0, 1), (1, -1)) if squarefree and r >= 2 else ((0, 1),)


def _sum(d: int, P: Statistic, sf: bool, name: str | None) -> tuple[list[int], int, str, str]:
    # The integer u**k totals, their one denominator, the route, and the
    # name, `name` or else that of P at d.  P is read at d (`at_degree`),
    # and what it is there decides the route.
    if d < 1:
        raise ValueError("expected values start at degree 1")
    P = P.at_degree(d)
    name = P.name or "stat" if name is None else name
    if isinstance(P, ClassFunction):
        totals, lcm_z = measure_pairing(d, P.numerators, squarefree=sf)
        return totals, P.denominator * lcm_z, VIA_MEASURE, name
    return *_series_sum(d, P, sf), VIA_SERIES, name


def expected(d: int, P: Statistic, name: str | None = None) -> ExpectationResult:
    """E_d(P): the mean of P over all monic degree-d polynomials.

    Its u**k coefficient equals <P, psi_d^k> by the definition of psi.
    P is any statistic (`sym_chars.statistic`) or ClassFunction, read at d
    through `at_degree(d)`.  A ClassFunction there takes the measure route;
    a CharacterPolynomial or SignedPolynomial takes the series route at
    any d, priced and refused past LIMIT_BUDGET by `_budgeted_terms`
    before its sums run.
    """
    total, den, route, name = _sum(d, P, False, name)
    return ExpectationResult(d=d, statistic=name, value=UPoly(U_VAR, total, den), route=route)


def expected_sf(
    d: int,
    P: Statistic,
    normalization: str = NORM_Q_POWER,
    name: str | None = None,
) -> ExpectationResult:
    """Squarefree expected value of P, under a choice of normalization.

    Its u**k coefficient equals (-1)**k <P, phi_d^k> by the definition
    of phi; P takes the route `expected` would give it.  NORM_Q_POWER
    divides the squarefree sum by q**d (so the all-types and squarefree
    results are directly comparable); NORM_SF_COUNT divides by the
    squarefree count, giving a true conditional mean.  The second is the
    first divided by the squarefree density, 1 - u for d >= 2 and 1 at
    d = 1; that division is always exact, which the "exact_division"
    check asserts.
    """
    if normalization not in (NORM_Q_POWER, NORM_SF_COUNT):
        raise ValueError(f"unknown normalization {normalization!r}")
    total, den, route, name = _sum(d, P, True, name)
    if normalization == NORM_SF_COUNT and d >= 2:
        # dividing by 1 - u takes prefix sums; the last is the remainder
        *total, rem = accumulate(total)
        if rem:
            raise ConsistencyError(
                f"squarefree sum for {name} at d={d} is not "
                "divisible by the squarefree density 1 - u"
            )
    return ExpectationResult(
        d=d,
        statistic=name,
        value=UPoly(U_VAR, total, den),
        route=route,
        normalization=normalization,
        checks=("exact_division",) if normalization == NORM_SF_COUNT else (),
    )


def eval_q1(d: int, P: ClassFunction) -> Fraction:
    """E_d(P) evaluated at q = 1.

    Equals P at the all-ones partition: the character rows sum to the
    regular character, whose inner product with P picks out that value.
    """
    return expected(d, P).value.evaluate(1)


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


# Cap on the series route's work, for E_d and stable_limit alike, which
# `_budgeted_terms` prices and refuses: about 1.5 s of work on a 2-core host.
LIMIT_BUDGET = 5_000_000


def _series_cost(terms: dict[Partition, int], order: int, squarefree: bool, d: int) -> int:
    # The work of _series_terms and the sums over its output, to u**order
    # and truncated at d.  Per term of weight w: the integer measure
    # product, counted as a convolution, each factor of degree j
    # multiplying the product so far by at most j + 1 coefficients, and
    # as if no two terms shared a suffix of parts (`_measure_products`
    # multiplies packed integers once per distinct suffix, so this
    # over-counts; it is kept as it is so that the same inputs are
    # refused); the series, once per part; the
    # convolution with the measure to u**order, twice over when
    # squarefree.  Once per part size j, the necklace polynomial M_j; and
    # each of the order + 1 coefficients of the answer is reduced and
    # printed.
    cost, sizes = 48 * (order + 1), set()
    for lam in terms:
        n = min(order, d - lam.d) + 1
        product, w = 0, 0
        for j, m in lam.multiplicities():
            product += (j + 1) * (m * (w + 1) + j * m * (m - 1) // 2)
            w += j * m
            sizes.add(j)
        cost += 16 + product + n * (len(lam) + (1 + squarefree) * (min(w, order) + 1))
    return cost + 16 * sum(sizes)


def _budgeted_terms(
    parts: tuple[CharacterPolynomial, ...], order: int, squarefree: bool, d: int, what: str
) -> list[tuple[dict[Partition, int], int]]:
    # The one front end of the series route: per part, its binomial terms
    # of weight at most d as integers over the part's denominator, once the
    # expansions' counted work plus _series_cost (to u**order, truncated at
    # d) is within LIMIT_BUDGET; past it BudgetExceeded, naming `what`.  An
    # expansion stops as soon as the work so far passes the cap.
    out, cost = [], 0
    for P in parts:
        terms, work = _binomial_terms(P, d, LIMIT_BUDGET - cost)
        cost += work
        if cost <= LIMIT_BUDGET:
            cost += _series_cost(terms, order, squarefree, d)
        if cost > LIMIT_BUDGET:
            raise BudgetExceeded(f"{what} needs more than the cap of {LIMIT_BUDGET} work units")
        out.append((terms, P.denominator))
    return out


def _binomial_terms(
    P: CharacterPolynomial, weight: int, cap: int
) -> tuple[dict[Partition, int], int]:
    # P in the basis prod_j C(x_j, m_j), keyed by the partition with m_j
    # parts j, as integers over P.denominator, and the work done.
    # x**e = sum over m >= 1 of a_m C(x, m), a_m = m! S(e, m) = sum over
    # i <= m of (-1)**(m-i) C(m, i) i**e, the surjections onto m points.
    # Terms of partitions larger than `weight` are dropped as soon as the
    # parts still to come (one per variable left) would take them past it.
    # The work counts the a_m (by the size of i**e) and the terms formed,
    # each step before it runs; once it would pass `cap`, the expansion
    # stops.
    out: dict[tuple[int, ...], int] = {}
    work = 0
    for mono, c in P.terms:
        rest = sum(j for j, _ in mono)
        partial = {(): c}
        for j, e in mono:
            rest -= j
            top = min(e, (weight - rest) // j)
            if top < 1:  # every term is past `weight`
                partial = {}
                break
            work += (top + 1) ** 2 * (1 + e * top.bit_length() // 4096) + 4 * len(partial) * top
            if work > cap:
                return {}, work
            powers = [i**e for i in range(top + 1)]
            a = [
                sum((-1) ** (m - i) * comb(m, i) * powers[i] for i in range(m + 1))
                for m in range(top + 1)
            ]
            partial = {
                k + (j,) * m: v * a[m]
                for k, v in partial.items()
                for m in range(1, top + 1)
                if sum(k) + j * m + rest <= weight
            }
        for k, v in partial.items():
            out[k] = out.get(k, 0) + v
    return {Partition(k): v for k, v in out.items() if v}, work


def _series_terms(
    terms: dict[Partition, int],
    terms_den: int,
    order: int,
    squarefree: bool,
    d: int,
    signed: bool = False,
) -> tuple[list[tuple[int, list[int], list[int]]], int]:
    # Unique factorization gives E_d(prod_j C(x_j, m_j)) for lam with m_j
    # parts j and weight w <= d as nu_w(lam) * [prod_j (1 - u**j)**(-m_j)],
    # the series truncated after u**(d - w), with nu_w the splitting measure
    # (the point counting of Church-Ellenberg-Farb, arXiv:1309.6038); the
    # squarefree sum has the measure without repetition and
    # prod_j (1 + u**j)**(-m_j).  The terms are those `_budgeted_terms`
    # gives, of weight at most d.  Per term c * lam, c over terms_den: w;
    # the integers c * nu_w(lam) (to u**order) over den = terms_den *
    # lcm(z), z running over the terms' z_lam, as nu_w(lam) is an integer
    # row over z_lam, all read from one `_measure_products` call; and b,
    # the series to u**min(order, d - w); then den.  Signed, the terms are
    # those of B in B*sgn: a factor of degree j counts (-1)**(j-1), so the
    # term takes sgn(lam) and each part j of the series
    # (1 -+ (-1)**(j-1) u**j)**-1.
    lcm_z = lcm(*(lam.centralizer_order() for lam in terms))
    sign = -1 if squarefree else 1
    out = []
    for (lam, c), nu in zip(terms.items(), _measure_products(list(terms), squarefree, order)):
        scale = c * (lcm_z // lam.centralizer_order())
        top = min(order, d - lam.d)
        b = [1] + [0] * top
        for j in lam.parts:
            step = -sign if signed and j % 2 == 0 else sign
            for s in range(j, top + 1):
                b[s] += step * b[s - j]
        if signed:
            scale *= lam.sign()
        out.append((lam.d, [scale * a for a in nu], b))
    return out, terms_den * lcm_z


def stable_limit(P: CharacterPolynomial, order: int) -> StableLimit:
    """Limit of the first `order`+1 coefficients of E_d(P) as d grows.

    The series route at degree top = order + the largest weight sum of
    j * e_j of a monomial prod_j x_j**e_j of P: past that degree no
    binomial term is dropped and no series is cut before u**order (see
    _series_terms).  Each degree adds one series coefficient per term, so
    stabilized_at[k] is the larger of k + 1 and the last d whose summed
    u**k increment is nonzero.  Raises BudgetExceeded when the work,
    counted and estimated by `_budgeted_terms` with the series to
    u**order, passes LIMIT_BUDGET.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    name = P.name or str(P)
    top = order + max((sum(j * e for j, e in mono) for mono, _ in P.terms), default=0)
    what = f"limit of {cut_short(name)} to order {order}"
    ((terms, terms_den),) = _budgeted_terms((P,), order, False, top, what)
    series, den = _series_terms(terms, terms_den, order, False, top)
    # incr[k][d]: den times the change in [u**k] E_d(P) from d - 1 to d
    incr: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for w, nums, b in series:
        for s, bs in enumerate(b):
            for i, a in enumerate(nums[: order + 1 - s]):
                incr[i + s][w + s] = incr[i + s].get(w + s, 0) + a * bs
    return StableLimit(
        statistic=name,
        order=order,
        coeffs=tuple(Fraction(sum(row.values()), den) for row in incr),
        stabilized_at=tuple(
            max([k + 1] + [d for d, x in row.items() if x]) for k, row in enumerate(incr)
        ),
    )
