"""Expected values: dual routes, specializations, squarefree variants, limits."""

import json
import pickle
import random
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitstat import cli, expect, gf, measures, sym_chars
from splitstat.errors import BudgetExceeded, ConsistencyError, DegreeMismatch
from oracles import measure_sum_by_rows, poly_mul, poly_sum, upoly
from splitstat.exact import U_VAR, UPoly
from splitstat.expect import (
    NORM_Q_POWER,
    NORM_SF_COUNT,
    VIA_MEASURE,
    VIA_SERIES,
    ExpectationResult,
    StableLimit,
    eval_q1,
    expected,
    expected_sf,
    stable_limit,
)
from splitstat.gf import census, make_field
from splitstat.lie_chars import phi_table, psi_table
from splitstat.measures import sf_splitting_measure, splitting_measure
from splitstat.partitions import Partition, class_scales, partitions_of
from splitstat.sym_chars import (
    ClassFunction,
    SignedPolynomial,
    builtin,
    builtin_polynomial,
    decompose,
    even_type,
    indicator,
    inner,
    parse_character_polynomial,
    quadratic_excess,
    sgn,
)

def q_limit_closed_form(order):
    """The large-d limit of E_d(Q), derived by hand: the u**k coefficient
    of (1/2)(1 + u)/(1 - u)**2 - (1/2)(1 - u)/(1 - u**2) is
    ((2k + 1) - (-1)**k)/2."""
    return [Fraction((2 * k + 1) - (-1) ** k, 2) for k in range(order + 1)]


GOLDEN_QUADRATIC_EXCESS = {
    3: [0, 2, 1],
    4: [0, 2, 2, 2],
    5: [0, 2, 2, 4, 2],
    6: [0, 2, 2, 4, 4, 3],
    10: [0, 2, 2, 4, 4, 6, 6, 8, 8, 5],
}


def test_quadratic_excess_golden_rows():
    for d, coeffs in GOLDEN_QUADRATIC_EXCESS.items():
        assert expected(d, quadratic_excess(d)).value == UPoly(U_VAR, coeffs)


def test_result_metadata():
    r = expected(3, quadratic_excess(3))
    assert (r.d, r.statistic, r.route) == (3, "Q", VIA_MEASURE)
    assert r.checks == ()
    assert r.normalization is None


def test_sign_expectation_is_a_single_power():
    for d in range(1, 11):
        got = expected(d, sgn(d)).value
        assert got == UPoly(U_VAR, [0] * (d // 2) + [1])


def test_roots_expectation_is_geometric():
    for d in range(1, 11):
        assert expected(d, builtin("R", d)).value == UPoly(U_VAR, [1] * d)


def test_even_type_bias():
    for d in range(2, 11):
        want = [1] + [0] * (d // 2 - 1) + [1]
        assert expected(d, even_type(d)).value == UPoly(U_VAR, want, 2)


def test_degree_bound():
    for d in range(1, 9):
        for name in ("one", "sgn", "ET", "R", "Q"):
            assert len(expected(d, builtin(name, d)).value.numerators) - 1 <= d - 1


def test_expected_validates_arguments():
    with pytest.raises(DegreeMismatch):
        expected(3, builtin("one", 4))
    with pytest.raises(ValueError):
        expected(0, builtin("one", 0))


def test_q1_specializations():
    for d in range(1, 11):
        assert eval_q1(d, quadratic_excess(d)) == comb(d, 2)
        assert eval_q1(d, builtin("R", d)) == d
        assert eval_q1(d, sgn(d)) == 1


def test_large_q_specializations():
    # The constant term of E_d(P), its large-q limit, is the multiplicity
    # of the trivial character in P.
    def constant(d, P):
        return expected(d, P).value.coeff(0)

    for d in range(1, 11):
        assert constant(d, quadratic_excess(d)) == 0
        assert constant(d, builtin("R", d)) == 1
        for P in (quadratic_excess(d), builtin("R", d), even_type(d), sgn(d)):
            assert constant(d, P) == inner(P, builtin("one", d))
    # the even-type statistic only splits off a half trivial once the sign
    # character is distinct from the trivial one, i.e. for d >= 2
    for d in range(2, 11):
        assert constant(d, even_type(d)) == Fraction(1, 2)
    assert constant(1, even_type(1)) == 1


def test_squarefree_even_type_probability_is_exactly_half():
    for d in range(2, 9):
        r = expected_sf(d, even_type(d), NORM_SF_COUNT)
        assert r.value == UPoly(U_VAR, [1], 2)
        assert "exact_division" in r.checks


def test_squarefree_roots_q_power():
    assert expected_sf(2, builtin("R", 2)).value == UPoly(U_VAR, [1, -1])
    assert expected_sf(3, builtin("R", 3)).value == UPoly(U_VAR, [1, -2, 1])


def test_squarefree_roots_conditional_mean_is_alternating_geometric():
    # verified against the census below; the conditional mean over
    # squarefree polynomials alternates: 1 - u + u^2 - ... (d-1 terms)
    for d in range(2, 9):
        got = expected_sf(d, builtin("R", d), NORM_SF_COUNT).value
        want = UPoly(U_VAR, [(-1) ** k for k in range(d - 1)])
        assert got == want


def test_squarefree_values_match_census():
    F = make_field(3)
    for d in (1, 2, 3, 4):
        density = 1 if d == 1 else 1 - Fraction(1, 3)
        for name in ("one", "sgn", "ET", "R", "Q"):
            P = builtin(name, d)
            sf_census = census(F, d, P, squarefree_only=True)
            assert expected_sf(d, P).at_q(3) == sf_census
            conditional = expected_sf(d, P, NORM_SF_COUNT).at_q(3)
            assert conditional * density == sf_census


def test_squarefree_degree_one():
    r = expected_sf(1, builtin("one", 1))
    assert r.value == UPoly(U_VAR, [1])
    # every monic linear polynomial is squarefree: the density is 1, so the
    # conditional mean of the constant 1 is 1
    conditional = expected_sf(1, builtin("one", 1), NORM_SF_COUNT)
    assert conditional.value == UPoly(U_VAR, [1])
    assert conditional.checks == ("exact_division",)
    with pytest.raises(TypeError):
        expected_sf(1, builtin("one", 1), NORM_SF_COUNT, series_order=4)


def test_expected_values_are_character_inner_products():
    # psi and phi read the same integer columns as the measure sum, so the
    # sum and the inner products with the character rows agree term by term
    for d in range(1, 10):
        stats = [builtin(name, d) for name in ("one", "sgn", "ET", "R", "Q")]
        stats += [
            parse_character_polynomial(e).class_function(d) for e in ("x1*x2", "x1^2-x2")
        ]
        if d <= 6:
            stats += [indicator(lam) for lam in partitions_of(d)]
        psi, phi = (
            [ClassFunction.from_integers(d, row) for row in table(d)]
            for table in (psi_table, phi_table)
        )
        for P in stats:
            via_psi = upoly([inner(P, psi[k]) for k in range(d)])
            assert via_psi == expected(d, P).value
            via_phi = upoly([(-1) ** k * inner(P, phi[k]) for k in range(d)])
            assert via_phi == expected_sf(d, P).value


def test_expectations_match_the_fraction_measure_sum():
    # the reference: sum over lam of P(lam) nu(lam) in Fractions, against
    # the measures read back from the columns as u-polynomials
    rng = random.Random(12)
    for d in range(1, 13):
        stats = [builtin(name, d) for name in ("one", "sgn", "ET", "R", "Q")]
        stats += [
            parse_character_polynomial(e).class_function(d)
            for e in ("x1^3/7", "2/3*x1*x2 - 5/4*x3 + 1/6")
        ]
        stats.append(ClassFunction(d, {
            lam: Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))
            for lam in partitions_of(d)
        }))
        for P in stats:
            for measure, result in (
                (splitting_measure(d), expected(d, P)),
                (sf_splitting_measure(d), expected_sf(d, P)),
            ):
                want = poly_sum(
                    [c * P.value(lam) for c in measure[lam].coeffs] for lam in partitions_of(d)
                )
                assert result.value == upoly(want)


def test_conditional_mean_is_the_squarefree_sum_over_one_minus_u():
    # prefix sums against the density: times 1 - u, the conditional mean
    # gives back the squarefree sum
    for d in range(2, 11):
        for name in ("one", "sgn", "ET", "R", "Q"):
            P = builtin(name, d)
            mean = expected_sf(d, P, NORM_SF_COUNT).value
            back = upoly(poly_mul(mean.coeffs, [1, -1]))
            assert back == expected_sf(d, P).value, (d, name)


def test_indivisible_squarefree_sum_is_a_consistency_error(monkeypatch):
    # rows whose sum over u**k is not 0 leave a remainder after dividing by
    # 1 - u: here row 0 is all 1 and row 1 all 0, so every packed column is
    # 1, scaled afresh, past the cache of scaled columns
    monkeypatch.setattr(measures, "_scaled_columns", measures._scaled_columns.__wrapped__)
    monkeypatch.setattr(
        measures, "packed_measure", lambda d, squarefree: ((1,) * len(partitions_of(d)), 128)
    )
    with pytest.raises(
        ConsistencyError,
        match=r"^squarefree sum for one at d=2 is not divisible by the squarefree density 1 - u$",
    ):
        expected_sf(2, builtin("one", 2), NORM_SF_COUNT)


# Numerator sizes in bits: zero, either side of the 2**63 bound on one
# packed digit, and 3000 decimal digits.
DIGITS_3000 = 9965
WIDTHS = (0, 62, 63, 64, 65, DIGITS_3000)


def sized_class_function(d, widths, signs, den, seed):
    # numerators each of a width drawn from `widths` (exactly that many
    # bits), all positive, all negative or of mixed signs
    rng = random.Random(seed)
    nums = []
    for _ in partitions_of(d):
        bits = rng.choice(widths)
        n = rng.getrandbits(bits) | 1 << bits - 1 if bits else 0
        nums.append({"+": n, "-": -n, "+-": rng.choice((n, -n))}[signs])
    return ClassFunction.from_integers(d, nums, den)


def widths_grid(test):
    # at d = 12, numerators of each WIDTHS size and all of them mixed, of
    # each sign pattern
    for n, widths in enumerate([[w] for w in WIDTHS] + [list(WIDTHS)]):
        for signs in ("+", "-", "+-"):
            test = example(d=12, widths=widths, signs=signs, den=7, seed=n)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 12),
    widths=st.lists(st.sampled_from(WIDTHS) | st.integers(0, DIGITS_3000), min_size=1, max_size=4),
    signs=st.sampled_from(("+", "-", "+-")),
    den=st.integers(1, 10**9),
    seed=st.integers(0, 2**32),
)
@example(d=1, widths=[64], signs="-", den=1, seed=0)
@example(d=5, widths=[0], signs="+", den=1, seed=0)  # the zero function
@example(d=20, widths=list(WIDTHS), signs="+-", den=7, seed=1)
@example(d=23, widths=list(WIDTHS), signs="+-", den=1, seed=2)
@example(d=23, widths=[63], signs="-", den=1, seed=3)
@widths_grid
def test_packed_pairing_equals_the_row_wise_reference(d, widths, signs, den, seed):
    P = sized_class_function(d, widths, signs, den, seed)
    result = expected(d, P)
    assert result.route == VIA_MEASURE
    assert result.value == UPoly(U_VAR, *measure_sum_by_rows(P, False))
    total, sf_den = measure_sum_by_rows(P, True)
    assert expected_sf(d, P).value == UPoly(U_VAR, total, sf_den)
    if d >= 2:
        *total, rem = accumulate(total)
        assert rem == 0
    assert expected_sf(d, P, NORM_SF_COUNT).value == UPoly(U_VAR, total, sf_den)


@pytest.mark.parametrize("d", [1, 4, 12, 16, 20])
def test_one_digit_pairing_meets_the_digit_route_at_its_bound(d):
    # numerators whose sizes sum to at most (2**63 - 1) // lcm(z) are paired
    # in one digit and read from each slot's low word; one more unit takes
    # the 64-bit digits: both equal the row-wise reference, in either sign
    lcm_z = class_scales(d)[1]
    n = len(partitions_of(d))
    rng = random.Random(d)
    for size in ((2**63 - 1) // lcm_z, (2**63 - 1) // lcm_z + 1):
        cuts = sorted(rng.randrange(size + 1) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
        for signs in ("+", "-", "+-"):
            nums = [p if signs == "+" or signs == "+-" and rng.random() < 0.5 else -p for p in parts]
            P = ClassFunction.from_integers(d, nums)
            for sf in (False, True):
                assert measures.measure_pairing(d, nums, squarefree=sf) == (
                    measure_sum_by_rows(P, sf)[0], lcm_z
                )


def test_one_packing_per_degree_and_flavour():
    # numerators of any size share the one packing of their (d, flavour)
    measures._scaled_columns.cache_clear()
    for n, (d, sf) in enumerate(((7, False), (7, True), (9, True), (9, False)), 1):
        for widths in ([0], [1], [63], [64], [65, 2], [DIGITS_3000]):
            P = sized_class_function(d, widths, "+-", 3, n)
            if sf:
                expected_sf(d, P)
                expected_sf(d, P, NORM_SF_COUNT)
            else:
                expected(d, P)
            assert measures._scaled_columns.cache_info().currsize == n


def test_tables_and_measures_pack_nothing():
    # the tables read the packed measure columns; scaling them for the
    # pairing waits for the first measure-route query
    measures._scaled_columns.cache_clear()
    for build in (psi_table, phi_table, splitting_measure, sf_splitting_measure):
        build(10)
    decompose(builtin("R", 10))
    expected(10, builtin_polynomial("Q"))  # the series route
    assert measures._scaled_columns.cache_info().currsize == 0
    expected(10, builtin("R", 10))
    assert measures._scaled_columns.cache_info().currsize == 1


def test_checks_name_only_what_ran():
    assert expected(4, builtin("R", 4)).checks == ()
    assert expected_sf(4, builtin("R", 4)).checks == ()
    assert expected_sf(4, builtin("R", 4), NORM_SF_COUNT).checks == ("exact_division",)


def test_main_theorem_census_sweep_subset():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        F = make_field(p, n)
        for d in (1, 2, 3, 4):
            for name in ("one", "sgn", "ET", "R", "Q"):
                P = builtin(name, d)
                assert census(F, d, P) == expected(d, P).at_q(F.q)


def test_stable_limit_quadratic_excess():
    limit = stable_limit(builtin_polynomial("Q"), 9)
    assert [int(c) for c in limit.coeffs] == [0, 2, 2, 4, 4, 6, 6, 8, 8, 10]
    assert all(d <= 30 for d in limit.stabilized_at)
    assert limit.coeffs == tuple(q_limit_closed_form(9))


def test_stable_limit_roots():
    limit = stable_limit(builtin_polynomial("R"), 5)
    assert list(limit.coeffs) == [1, 1, 1, 1, 1, 1]


def test_stable_limit_constant():
    limit = stable_limit(builtin_polynomial("one"), 4)
    assert list(limit.coeffs) == [1, 0, 0, 0, 0]


def test_stable_limit_reports_witnesses():
    limit = stable_limit(parse_character_polynomial("x1"), 3)
    # coefficient k is sampled for d > k, so the witness is past k
    for k, d_seen in enumerate(limit.stabilized_at):
        assert d_seen >= k + 1


def test_closed_form_prefix():
    assert q_limit_closed_form(0) == [0]
    assert q_limit_closed_form(2) == [0, 2, 2]


def test_stable_limit_of_higher_binomial():
    # C(x1, 3) counts triples of fixed points; its limit coefficients are
    # another instance of eventual constancy
    cp = parse_character_polynomial("x1*(x1-1)*(x1-2)/6")
    limit = stable_limit(cp, 3)
    e20 = expected(20, cp.class_function(20)).value
    assert limit.coeffs == tuple(e20.coeff(k) for k in range(4))


# The five limit statistics of the benchmark, the built-ins, and
# statistics that vanish below their weight, where agreement on a run of
# small degrees says nothing about the limit.
ROUTE_STATS = (
    "one", "R", "Q", "x2", "x4", "x5", "x1*x3", "x1*x2*x3", "x1^3",
    "x1*x2", "2*x1*x2", "x1*x2-x2", "(x1-1)*x2", "x1*x2+x1",
)


@pytest.mark.parametrize("spec", ROUTE_STATS)
def test_stable_limit_matches_partition_route(spec):
    # The limit comes from the generating function; each E_d here is the
    # sum against the splitting measure.  From stabilized_at[k] on, the
    # u**k coefficient equals the limit; one degree earlier it differs,
    # unless that degree is k or less.
    order = 8
    if spec in ("one", "R", "Q"):
        P = builtin_polynomial(spec)
    else:
        P = parse_character_polynomial(spec)
    limit = stable_limit(P, order)
    top = max(limit.stabilized_at) + 2
    values = {d: expected(d, P.class_function(d)).value for d in range(1, top + 1)}
    for k, (c, start) in enumerate(zip(limit.coeffs, limit.stabilized_at)):
        assert start >= k + 1
        for d in range(start, top + 1):
            assert values[d].coeff(k) == c, (k, d)
        if start - 1 > k:
            assert values[start - 1].coeff(k) != c, (k, start)


def test_stable_limit_below_weight():
    # x4 vanishes for d < 4, but E_d(x4) has constant term 1/4 from d = 4
    limit = stable_limit(parse_character_polynomial("x4"), 2)
    assert limit.coeffs == (Fraction(1, 4), 0, Fraction(-1, 4))
    assert limit.stabilized_at == (4, 2, 4)


def test_stable_limit_builds_no_measure_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("stable_limit must not sample E_d")

    caches = (measures.packed_measure, measures._scaled_columns, partitions_of)
    monkeypatch.setattr(expect, "expected", forbidden)
    monkeypatch.setattr(measures, "packed_measure", forbidden)
    sizes = [cache.cache_info().currsize for cache in caches]
    limit = stable_limit(builtin_polynomial("Q"), 40)
    assert [cache.cache_info().currsize for cache in caches] == sizes
    assert limit.coeffs == tuple(q_limit_closed_form(40))
    assert limit.stabilized_at[40] == 42


def test_expectations_sum_the_integer_columns(monkeypatch):
    # values pinned from the Fraction-measure sum; no measure is built
    def forbidden(*args, **kwargs):
        raise AssertionError("expectations must read the packed measure")

    monkeypatch.setattr(measures, "splitting_measure", forbidden)
    monkeypatch.setattr(measures, "sf_splitting_measure", forbidden)
    sizes = (splitting_measure.cache_info().currsize, sf_splitting_measure.cache_info().currsize)
    assert expected(22, quadratic_excess(22)).value.json_coeffs() == [
        "0", "2", "2", "4", "4", "6", "6", "8", "8", "10", "10",
        "12", "12", "14", "14", "16", "16", "18", "18", "20", "20", "11",
    ]
    assert expected_sf(20, quadratic_excess(20), NORM_SF_COUNT).value.json_coeffs() == [
        "0", "-1", "3", "-4", "4", "-5", "7", "-8", "8", "-9",
        "11", "-12", "12", "-13", "15", "-16", "16", "-17", "10",
    ]
    assert (splitting_measure.cache_info().currsize, sf_splitting_measure.cache_info().currsize) == sizes


# The polynomial built-ins, terms that vanish below their weight, and
# non-integer coefficients.
SERIES_STATS = (
    "one", "R", "Q", "x4", "x5", "x1*x3", "x1*x2*x3", "x1^3/7", "2/3*x1*x2-5/4*x3+1/6",
)


@pytest.mark.parametrize("spec", SERIES_STATS)
def test_series_route_equals_the_partition_route(spec):
    P = sym_chars.statistic(spec)
    for d in range(1, 17):
        C = P.class_function(d)
        pairs = [(expected(d, P), expected(d, C))]
        pairs += [
            (expected_sf(d, P, norm), expected_sf(d, C, norm))
            for norm in (NORM_Q_POWER, NORM_SF_COUNT)
        ]
        for series, partition in pairs:
            assert (series.route, partition.route) == (VIA_SERIES, VIA_MEASURE)
            assert series.value == partition.value, (d, series.normalization)
            assert series.statistic == partition.statistic
            assert series.checks == partition.checks


# (plain, signed): sgn, ET, and sgn times terms of odd and even parts,
# of several weights, with non-integer coefficients.
SIGNED_STATS = (
    ("0", "1"), ("1/2", "1/2"), ("x1", "x2"), ("0", "x1*x3"), ("Q", "x1^2-x2"),
    ("0", "x2^2*x1/3+x4"), ("x3", "x3^2-x6+1"),
)


@pytest.mark.parametrize("plain,signed", SIGNED_STATS)
def test_signed_series_route_equals_the_partition_route(plain, signed):
    P = SignedPolynomial(sym_chars.statistic(plain), sym_chars.statistic(signed), name="P")
    for d in range(1, 15):
        C = P.class_function(d)
        assert C == ClassFunction(d, {
            lam: P.plain.evaluate(lam) + lam.sign() * P.signed.evaluate(lam)
            for lam in partitions_of(d)
        })
        pairs = [(expected(d, P), expected(d, C))]
        pairs += [
            (expected_sf(d, P, norm), expected_sf(d, C, norm))
            for norm in (NORM_Q_POWER, NORM_SF_COUNT)
        ]
        for series, partition in pairs:
            assert (series.route, partition.route) == (VIA_SERIES, VIA_MEASURE)
            assert series.value == partition.value, (d, series.normalization)


def test_sign_in_closed_form():
    # sum of sgn over monic degree-d polynomials is q**ceil(d/2); over the
    # squarefree ones it is 0 from d = 2 on
    P = sym_chars.statistic("sgn")
    for d in range(1, 120):
        assert expected(d, P).value == UPoly(U_VAR, [0] * (d // 2) + [1])
        assert expected_sf(d, P).value == UPoly(U_VAR, [1] if d == 1 else [])
        assert expected(d, sym_chars.statistic("ET")).value == (
            UPoly(U_VAR, [1]) if d == 1 else UPoly(U_VAR, [1] + [0] * (d // 2 - 1) + [1], 2)
        )


def test_series_route_enumerates_no_partition_of_d(monkeypatch, capsys):
    real = partitions_of

    def guarded(d):
        if d >= 20:
            raise AssertionError(f"partitions_of({d}) on the series route")
        return real(d)

    def forbidden(*args, **kwargs):
        raise AssertionError("the series route must not build measure rows")

    monkeypatch.setattr(measures, "packed_measure", forbidden)
    assert not hasattr(gf, "partitions_of")  # the census reads no partition list
    for module in (cli, measures, sym_chars):
        monkeypatch.setattr(module, "partitions_of", guarded)
    assert cli.main(["expect", "--d", "22", "--stat", "Q", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == [
        "0", "2", "2", "4", "4", "6", "6", "8", "8", "10", "10",
        "12", "12", "14", "14", "16", "16", "18", "18", "20", "20", "11",
    ]
    for stat in ("Q", "sgn", "ET"):
        assert cli.main(["sf-expect", "--d", "20", "--stat", stat, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["route"] == VIA_SERIES
    assert cli.main(["expect", "--d", "22", "--stat", "sgn", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["0"] * 11 + ["1"]


@pytest.mark.parametrize("spec", SERIES_STATS + ("x1*x2", "x1^2-x2", "(x1-1)*x2"))
def test_series_route_past_the_partition_cap(spec):
    # d >= 24 is refused on the partition route; here E_d is checked
    # against P on the identity class (its value at q = 1) and against the
    # stable limit, from each coefficient's witness on.
    P = sym_chars.statistic(spec)
    limit = stable_limit(P, 12)
    for d in range(24, 61):
        got = expected(d, P).value
        assert got.evaluate(1) == P.evaluate(Partition([1] * d))
        for k, (c, start) in enumerate(zip(limit.coeffs, limit.stabilized_at)):
            if d >= start:
                assert got.coeff(k) == c, (d, k)
        if spec == "R":
            assert got == UPoly(U_VAR, [1] * d)


def test_series_route_cost_cap():
    with pytest.raises(BudgetExceeded, match=f"cap of {expect.LIMIT_BUDGET} work units"):
        expected(10**9, builtin_polynomial("Q"))
    with pytest.raises(BudgetExceeded, match="at d=10000 needs more than the cap"):
        expected_sf(10_000, parse_character_polynomial("x1^100"))
    # one term, but a million coefficients to write out
    with pytest.raises(BudgetExceeded, match="for R at d=1000000 needs more than the cap"):
        expected(10**6, builtin_polynomial("R"))
    with pytest.raises(BudgetExceeded, match="for ET at d=1000000 needs more than the cap"):
        expected_sf(10**6, sym_chars.statistic("ET"))
    # the expansion of x1^9000 stops at weight 3
    x1_9000 = parse_character_polynomial("x1^9000")
    assert expected(3, x1_9000).value.coeff(0) == (3**9000 + 3) // 6


def test_stable_limit_cost_cap():
    with pytest.raises(BudgetExceeded, match=f"cap of {expect.LIMIT_BUDGET}"):
        stable_limit(parse_character_polynomial("x1^100000000"), 1)
    with pytest.raises(BudgetExceeded, match="order 10000000"):
        stable_limit(builtin_polynomial("Q"), 10_000_000)
    # one term, but every coefficient to u**100000 to write out
    with pytest.raises(BudgetExceeded, match="limit of R to order 100000 needs more"):
        stable_limit(builtin_polynomial("R"), 100_000)
    # priced per distinct binomial term: 441 terms, well under the cap
    assert stable_limit(parse_character_polynomial("x1^20*x2^20"), 12).order == 12


def test_result_records_are_immutable_values():
    r = expected(3, builtin("Q", 3))
    same = ExpectationResult(3, "Q", UPoly(U_VAR, [0, 2, 1]), VIA_MEASURE)
    assert r == same and hash(r) == hash(same)
    assert r != ExpectationResult(3, "Q", same.value, VIA_MEASURE, checks=("exact_division",))
    assert r != ExpectationResult(3, "R", same.value, VIA_MEASURE)
    assert repr(r) == (
        "ExpectationResult(d=3, statistic='Q', value=UPoly(var='u', numerators=(0, 2, 1), "
        "denominator=1), route='measure', normalization=None, checks=())"
    )
    lim = stable_limit(builtin_polynomial("Q"), 1)
    same_lim = StableLimit(
        statistic="Q", order=1, coeffs=(Fraction(0), Fraction(2)), stabilized_at=(1, 3)
    )
    assert lim == same_lim and hash(lim) == hash(same_lim)
    assert lim != StableLimit("Q", 1, same_lim.coeffs, (1, 4))
    assert repr(lim) == (
        "StableLimit(statistic='Q', order=1, coeffs=(Fraction(0, 1), Fraction(2, 1)), "
        "stabilized_at=(1, 3))"
    )
    for record, attrs in (
        (r, ("d", "statistic", "value", "route", "normalization", "checks", "new")),
        (lim, ("statistic", "order", "coeffs", "stabilized_at", "new")),
    ):
        assert pickle.loads(pickle.dumps(record)) == record
        for attr in attrs:
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
