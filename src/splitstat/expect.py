"""Expected values of factorization statistics.

The expected value of a statistic P over monic degree-d polynomials is
sum over lam of P(lam) nu(lam), summed against the splitting measure nu.
The cohomology characters give no second route: they are defined by
coefficient inversion, psi_d^k(lam) = z_lam [u**k] nu(lam), so
sum_k <P, psi_d^k> u**k is the same sum term by term (the tests check
this identity; the census in `gf` is the independent check).  The
squarefree variant sums against the squarefree measure, under a choice
of normalization: by q**d, or by the actual squarefree count, which
divides out the squarefree density (1 - u for d >= 2, 1 at d = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DegreeMismatch, NotStabilized
from .exact import U_VAR, UPoly, divmod_poly, monomial, series_expand
from .measures import SplittingMeasure, sf_splitting_measure, splitting_measure
from .partitions import partitions_of
from .sym_chars import CharacterPolynomial, ClassFunction

VIA_MEASURE = "measure"

NORM_Q_POWER = "q_power"
NORM_SF_COUNT = "sf_count"


@dataclass(frozen=True)
class ExpectationResult:
    """An exact expected value as a polynomial in u = 1/q.

    `checks` names the checks that ran while computing it.
    """

    d: int
    statistic: str
    value: UPoly
    route: str
    normalization: str | None = None
    checks: tuple[str, ...] = ()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.value.coeffs

    def at_q(self, q: int | Fraction) -> Fraction:
        """Evaluate at a concrete field size."""
        return self.value.evaluate(Fraction(1, q))


def _measure_sum(P: ClassFunction, measure: SplittingMeasure) -> UPoly:
    # A measure value is a q-degree-d product divided by q**d, so its
    # u-degree is at most d.
    total = [Fraction(0)] * (measure.d + 1)
    for lam in partitions_of(measure.d):
        c = P.value(lam)
        if c:
            for k, a in enumerate(measure.value(lam).coeffs):
                total[k] += a * c
    return UPoly(U_VAR, tuple(total))


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
        value=_measure_sum(P, splitting_measure(d)),
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
    value = _measure_sum(P, sf_splitting_measure(d))
    checks: tuple[str, ...] = ()
    if normalization == NORM_SF_COUNT:
        density = UPoly(U_VAR, (1,) if d == 1 else (1, -1))
        value, rem = divmod_poly(value, density)
        if not rem.is_zero():
            raise ConsistencyError(
                f"squarefree sum for {_stat_name(P, name)} at d={d} is not "
                f"divisible by the squarefree density {density}"
            )
        checks = ("exact_division",)
    return ExpectationResult(
        d=d,
        statistic=_stat_name(P, name),
        value=value,
        route=VIA_MEASURE,
        normalization=normalization,
        checks=checks,
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


@dataclass(frozen=True)
class StableLimit:
    """Coefficientwise limit of E_d(P) as d grows, with witnesses.

    coeffs[k] is the stable value of the u**k coefficient;
    stabilized_at[k] is the first d of the run of three consecutive
    degrees on which that value was observed.
    """

    statistic: str
    order: int
    coeffs: tuple[Fraction, ...]
    stabilized_at: tuple[int, ...]


def stable_limit(
    P: CharacterPolynomial, order: int, d_cap: int = 30
) -> StableLimit:
    """Limit of the first `order`+1 coefficients of E_d(P) as d grows.

    A statistic given by a character polynomial has eventually constant
    coefficients; each coefficient is accepted once it agrees for three
    consecutive d (sampled only for d > k, where the coefficient is a
    genuine character multiplicity rather than a vanishing artifact).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if d_cap < 3:
        raise ValueError("d_cap must allow at least three degrees")
    pending = set(range(order + 1))
    settled_value: dict[int, Fraction] = {}
    settled_at: dict[int, int] = {}
    last: dict[int, Fraction] = {}
    run_start: dict[int, int] = {}
    run_len: dict[int, int] = {}
    for d in range(1, d_cap + 1):
        e = expected(d, P.class_function(d), name=P.name or str(P))
        for k in sorted(pending):
            if d < k + 1:
                continue
            v = e.value.coeff(k)
            if k in last and v == last[k] and run_start[k] + run_len[k] == d:
                run_len[k] += 1
            else:
                run_start[k] = d
                run_len[k] = 1
            last[k] = v
            if run_len[k] == 3:
                settled_value[k] = v
                settled_at[k] = run_start[k]
                pending.discard(k)
        if not pending:
            break
    if pending:
        k = min(pending)
        raise NotStabilized(
            f"coefficient of u^{k} for {P.name or P} did not settle on three "
            f"consecutive degrees by d_cap={d_cap}; raise the cap"
        )
    return StableLimit(
        statistic=P.name or str(P),
        order=order,
        coeffs=tuple(settled_value[k] for k in range(order + 1)),
        stabilized_at=tuple(settled_at[k] for k in range(order + 1)),
    )


def q_limit_closed_form(order: int) -> list[Fraction]:
    """Series coefficients of the closed-form large-d limit for the
    quadratic-excess statistic:

        (1/2)(1 + u)/(1 - u)**2 - (1/2)(1 - u)/(1 - u**2),

    expanded exactly to the requested order.
    """
    one = UPoly(U_VAR, (Fraction(1),))
    u = monomial(U_VAR, 1)
    num1 = (one + u) * Fraction(1, 2)
    den1 = (one - u) ** 2
    num2 = (one - u) * Fraction(1, 2)
    den2 = one - u * u
    numer = num1 * den2 - num2 * den1
    denom = den1 * den2
    return series_expand(numer, denom, order)
