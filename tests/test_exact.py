"""Exact rational values, and the list-polynomial references in oracles.py.

The references are what other tests compare the package against, so
their algebra is checked here too.
"""

import copy
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import poly_add, poly_mul, series_expand, upoly
from splitstat.exact import (
    Q_VAR,
    U_VAR,
    UPoly,
    add_rows,
    cut_short,
    format_ratio,
    format_rational,
    join_signed,
    lowest_terms,
    over_one_denominator,
    parse_rational,
    power,
    quote_short,
)


def rand_poly(rng, max_deg=6):
    n = rng.randrange(max_deg + 1)
    return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(n + 1)]


def same(a, b):
    # equal as polynomials: trailing zeros do not count
    return upoly(a) == upoly(b)


def test_rational_arithmetic_stays_reduced():
    # the rational backend must keep values in lowest terms with a
    # positive denominator after every operation
    from math import gcd

    rng = random.Random(19)
    for _ in range(80):
        a = Fraction(rng.randrange(-60, 60), rng.randrange(1, 40))
        b = Fraction(rng.randrange(-60, 60), rng.randrange(1, 40))
        c = Fraction(rng.randrange(-60, 60), rng.randrange(1, 40))
        for x in (a + b, a - b, a * b, a + b * c, (a + b) * c):
            assert x.denominator > 0
            assert gcd(x.numerator, x.denominator) == 1
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_difference_of_squares():
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng)
        assert poly_add([], p) == p
        assert poly_add(p, []) == p


def test_normalization_strips_trailing_zeros():
    assert UPoly(U_VAR, (1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    zero = UPoly(U_VAR, (0, 0), 5)
    assert (zero.numerators, zero.denominator) == ((), 1)
    assert zero == UPoly(U_VAR, ()) and zero.coeff(0) == 0 and zero.json_coeffs() == []


def test_upoly_stores_integers_over_one_denominator():
    p = UPoly(U_VAR, [2, 4, 0], 6)
    assert (p.numerators, p.denominator) == ((1, 2), 3)
    assert p.coeffs == (Fraction(1, 3), Fraction(2, 3))
    assert p.coeff(1) == Fraction(2, 3) and p.coeff(2) == p.coeff(-1) == 0
    assert all(type(n) is int for n in p.numerators)
    assert UPoly(Q_VAR, iter([-4, 0, 6]), 8) == UPoly(Q_VAR, [-2, 0, 3], 4)
    for numerators, denominator in (
        ([Fraction(1, 2)], 1),
        ([Fraction(2)], 1),
        ([1, 2.0], 1),
        ([1], 0),
        ([1], -3),
        ([1], Fraction(3)),
    ):
        with pytest.raises(ValueError, match="integer numerators over a positive"):
            UPoly(U_VAR, numerators, denominator)


def test_upoly_refuses_numerators_that_are_no_int():
    class Int(int):
        pass

    for bad in (True, False, 1.0, Int(1)):
        for numerators in ([bad], [1, bad], [bad, 0, 2]):
            with pytest.raises(ValueError, match="integer numerators over a positive"):
                UPoly(U_VAR, numerators)
            with pytest.raises(ValueError, match="integer numerators over a positive"):
                UPoly(Q_VAR, iter(numerators), 3)


INTEGERS = st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, -1, 2**63, -(2**63)])
DENOMINATORS = st.integers(1, 10**12) | st.sampled_from([1, 2, 2**64])


def reduced(nums, den):
    return den >= 1 and gcd(den, *nums) == 1 and all(type(n) is int for n in nums)


@given(st.lists(INTEGERS, max_size=9), DENOMINATORS)
def test_lowest_terms_is_the_fraction_reference(nums, den):
    out, out_den = lowest_terms(iter(nums), den)
    assert [Fraction(n, out_den) for n in out] == [Fraction(n, den) for n in nums]
    assert reduced(out, out_den)


@given(st.data(), DENOMINATORS, DENOMINATORS)
def test_add_rows_is_the_fraction_reference(data, a_den, b_den):
    n = data.draw(st.integers(0, 9))
    a, b = (data.draw(st.lists(INTEGERS, min_size=n, max_size=n)) for _ in range(2))
    nums, den = add_rows(iter(a), a_den, b, b_den)
    assert [Fraction(x, den) for x in nums] == [
        Fraction(x, a_den) + Fraction(y, b_den) for x, y in zip(a, b)
    ]
    assert reduced(nums, den)


def test_lowest_terms_takes_one_gcd():
    assert lowest_terms([-4, 6], 8) == ((-2, 3), 4)
    assert lowest_terms(iter([3, 5]), 1) == ((3, 5), 1)
    assert lowest_terms([3, 5], 7) == ((3, 5), 7)
    assert lowest_terms([0, 0], 7) == ((0, 0), 1)
    assert lowest_terms([], 9) == ((), 1)
    assert lowest_terms([10**40, -(10**30)], 10**20) == ((10**20, -(10**10)), 1)


def test_over_one_denominator_takes_the_lcm():
    assert over_one_denominator([Fraction(1, 2), Fraction(-1, 3), 1]) == ((3, -2, 6), 6)
    assert over_one_denominator([Fraction(-1, 2), Fraction(3, 4)]) == ((-2, 3), 4)
    assert over_one_denominator([2, 0, -7]) == ((2, 0, -7), 1)
    assert over_one_denominator(iter([Fraction(5, 6)])) == ((5,), 6)
    assert over_one_denominator([Fraction(0), 0]) == ((0, 0), 1)
    assert over_one_denominator([]) == ((), 1)
    rng = random.Random(23)
    for _ in range(40):
        values = rand_poly(rng)
        nums, den = over_one_denominator(values)
        assert den >= 1 and [Fraction(n, den) for n in nums] == values
        assert lowest_terms(nums, den) == (nums, den)


def test_add_rows_adds_over_the_lcm():
    assert add_rows([1, 1], 2, [1, -1], 3) == ((5, 1), 6)
    assert add_rows([1, 3], 4, iter([1, -1]), 4) == ((1, 1), 2)
    assert add_rows([], 5, [], 7) == ((), 1)
    with pytest.raises(ValueError):
        add_rows([1, 2], 1, [1], 1)
    rng = random.Random(31)
    for _ in range(40):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        a, b = a + [0] * (5 - len(a)), b + [0] * (5 - len(b))
        nums, den = add_rows(*over_one_denominator(a), *over_one_denominator(b))
        assert [Fraction(n, den) for n in nums] == [x + y for x, y in zip(a, b)]
        assert lowest_terms(nums, den) == (nums, den)


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert same(poly_add(a, b), poly_add(b, a))
        assert same(poly_mul(a, b), poly_mul(b, a))
        assert same(poly_add(poly_add(a, b), c), poly_add(a, poly_add(b, c)))
        assert same(poly_mul(poly_mul(a, b), c), poly_mul(a, poly_mul(b, c)))
        assert same(poly_mul(a, poly_add(b, c)), poly_add(poly_mul(a, b), poly_mul(a, c)))


def test_eval_is_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        a, b = upoly(rand_poly(rng)), upoly(rand_poly(rng))
        x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        ab = upoly(poly_mul(a.coeffs, b.coeffs))
        assert ab.evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_eval_examples():
    assert UPoly(U_VAR, (1, -1)).evaluate(1) == 0
    assert UPoly(U_VAR, (0, 2, 1)).evaluate(Fraction(1, 3)) == Fraction(7, 9)
    # E_3(Q) = 2u + u^2 at u=1 gives 3 = C(3,2)
    assert UPoly(U_VAR, (0, 2, 1)).evaluate(1) == 3
    assert UPoly(U_VAR, (3, -6, 1), 4).evaluate(Fraction(-1, 2)) == Fraction(25, 16)


def test_series_geometric():
    assert series_expand([1], [1, -1], 3) == [1, 1, 1, 1]
    assert series_expand([1], [1, 1], 3) == [1, -1, 1, -1]


def test_series_of_polynomial_is_padded_coeffs():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, 5)
        got = series_expand(p, [1], 8)
        assert got == p + [0] * (9 - len(p))


def test_series_matches_product():
    # if c = a/b to high order then (sum c_k u^k) * b agrees with a on low terms
    rng = random.Random(13)
    for _ in range(20):
        a = rand_poly(rng, 5)
        b = rand_poly(rng, 5)
        if b[0] == 0:
            b[0] = 1
        order = 12
        c = series_expand(a, b, order)
        back = poly_mul(c, b)
        for k in range(order + 1 - (len(upoly(b).numerators) - 1)):
            assert back[k] == (a[k] if k < len(a) else 0)


def test_quadratic_excess_limit_series():
    # (1/2)(1+u)/(1-u)^2 - (1/2)(1-u)/(1-u^2), expanded to order 9, over
    # the common denominator (1-u)^2 (1-u^2)
    half = Fraction(1, 2)
    one_minus_u = [1, -1]
    square = poly_mul(one_minus_u, one_minus_u)
    num = poly_add(
        poly_mul([half, half], [1, 0, -1]), poly_mul([-half, half], square)
    )
    den = poly_mul(square, [1, 0, -1])
    assert series_expand(num, den, 9) == [0, 2, 2, 4, 4, 6, 6, 8, 8, 10]


def test_rational_serialization():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    rng = random.Random(17)
    for _ in range(40):
        x = Fraction(rng.randrange(-1000, 1000), rng.randrange(1, 1000))
        assert parse_rational(format_rational(x)) == x
        assert format_rational(x) == format_ratio(x.numerator, x.denominator)
    assert format_rational(0) == "0" and format_rational(-12) == "-12"


def test_messages_name_an_input_by_its_first_40_characters():
    for text in ("", "x1^2", "'", "y" * 40):
        assert (cut_short(text), quote_short(text)) == (text, repr(text))
    text = "x1+" * 1000
    assert cut_short(text) == "x1+" * 13 + "x..."
    assert quote_short(text) == "'" + "x1+" * 13 + "x'..."


def test_parse_rational_reads_decimals_exactly_within_the_print_limit():
    assert parse_rational("0.30000000000000001") == Fraction(30000000000000001, 10**17)
    assert parse_rational(" -15e-4 ") == Fraction(-3, 2000)
    assert parse_rational("9" * 4300) == 10**4300 - 1
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("1E-4300") == Fraction(1, 10**4300)
    for text, message in (
        ("1e100000000", "'1e100000000' has an exponent beyond the print limit of 4300 digits"),
        ("2.5E-4301", "'2.5E-4301' has an exponent beyond the print limit of 4300 digits"),
        ("9" * 4301, f"'{'9' * 40}'... has more digits than the print limit of 4300"),
        ("1/" + "3" * 4300, "has more digits than the print limit of 4300"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_rational(text)


def test_json_coeffs():
    p = UPoly(U_VAR, (0, 4, 1), 2)
    assert p.json_coeffs() == ["0", "2", "1/2"]
    assert UPoly(U_VAR, (-3, 2, 6), 4).json_coeffs() == ["-3/4", "1/2", "3/2"]
    rng = random.Random(29)
    for _ in range(40):
        values = rand_poly(rng)
        want = [format_rational(c) for c in upoly(values).coeffs]
        assert upoly(values).json_coeffs() == want
        assert [format_ratio(c.numerator * 6, c.denominator * 6) for c in values] == [
            format_rational(c) for c in values
        ]


def test_power_matches_repeated_multiplication():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for e in range(40):
        calls.clear()
        assert power(3, e, mul, 1) == 3**e
        # one square per bit below the top one, one multiply per set bit
        assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")
    u = [1, Fraction(-1, 2)]
    assert power(u, 5, poly_mul, [1]) == poly_mul(u, poly_mul(u, poly_mul(u, poly_mul(u, u))))
    assert power(u, 0, poly_mul, [1]) == [1]
    with pytest.raises(ValueError, match="negative exponents are not defined"):
        power(u, -1, poly_mul, [1])


def test_signed_sums_print_one_way():
    assert join_signed([]) == "0"
    assert join_signed(["-a", "b", "-2*c", "1/2"]) == "-a + b - 2*c + 1/2"


def test_upoly_is_an_immutable_value():
    p = UPoly("u", (2, 4, 0, 0), 2)
    assert (p.numerators, p.denominator) == ((1, 2), 1)  # trailing zeros dropped
    same = UPoly(var="u", numerators=(3, 6), denominator=3)
    assert p == same and hash(p) == hash(same)
    assert p != UPoly("q", (1, 2)) and p != UPoly("u", (1, 3)) and p != UPoly("u", (1, 2), 5)
    assert repr(UPoly("u", (1, 3), 6)) == "UPoly(var='u', numerators=(1, 3), denominator=6)"
    half = UPoly("q", (1, -1), 2)
    for q in (p, half):
        assert pickle.loads(pickle.dumps(q)) == copy.deepcopy(q) == q
    for attr in ("var", "numerators", "denominator", "coeffs", "new"):
        with pytest.raises(AttributeError):
            setattr(p, attr, ())
    with pytest.raises(ValueError, match="unknown variable tag 'x'"):
        UPoly("x", (1,))
