"""Exact rational values, and the list-polynomial references in oracles.py.

The references are what other tests compare the package against, so
their algebra is checked here too.
"""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from oracles import poly_add, poly_mul, series_expand
from splitstat.exact import (
    Q_VAR,
    U_VAR,
    UPoly,
    _normalized,
    format_rational,
    join_signed,
    parse_rational,
    power,
)


def rand_poly(rng, max_deg=6):
    n = rng.randrange(max_deg + 1)
    return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(n + 1)]


def same(a, b):
    # equal as polynomials: trailing zeros do not count
    return UPoly(U_VAR, a) == UPoly(U_VAR, b)


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
    assert UPoly(U_VAR, (0, 0)).is_zero()
    assert UPoly(U_VAR, ()).degree == -1


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
        a, b = UPoly(U_VAR, rand_poly(rng)), UPoly(U_VAR, rand_poly(rng))
        x = Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        ab = UPoly(U_VAR, poly_mul(a.coeffs, b.coeffs))
        assert ab.evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_eval_examples():
    assert UPoly(U_VAR, (1, -1)).evaluate(1) == 0
    assert UPoly(U_VAR, (0, 2, 1)).evaluate(Fraction(1, 3)) == Fraction(7, 9)
    # E_3(Q) = 2u + u^2 at u=1 gives 3 = C(3,2)
    assert UPoly(U_VAR, (0, 2, 1)).evaluate(1) == 3


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
        for k in range(order + 1 - UPoly(U_VAR, b).degree):
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
    p = UPoly(U_VAR, (0, 2, Fraction(1, 2)))
    assert p.json_coeffs() == ["0", "2", "1/2"]


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
    assert str(UPoly(Q_VAR, ())) == "0"
    assert str(UPoly(Q_VAR, (0, -1, Fraction(1, 2)))) == "-q + 1/2*q^2"
    assert str(UPoly(Q_VAR, (Fraction(-3, 2), 1, 0, -2))) == "-3/2 + q - 2*q^3"
    assert str(UPoly(U_VAR, (1, Fraction(-1, 3)))) == "1 - 1/3*u"


def test_upoly_is_an_immutable_value():
    p = UPoly("u", (Fraction(1), Fraction(2), Fraction(0), 0))
    assert p.coeffs == (Fraction(1), Fraction(2))  # trailing zeros dropped
    same = UPoly(var="u", coeffs=(1, 2))
    assert p == same and hash(p) == hash(same)
    assert p != UPoly("q", (1, 2)) and p != UPoly("u", (1, 3))
    assert repr(UPoly("u", (1,))) == "UPoly(var='u', coeffs=(Fraction(1, 1),))"
    assert pickle.loads(pickle.dumps(p)) == copy.deepcopy(p) == p
    for attr in ("var", "coeffs", "new"):
        with pytest.raises(AttributeError):
            setattr(p, attr, ())
    with pytest.raises(ValueError, match="unknown variable tag 'x'"):
        UPoly("x", (1,))


def test_normalized_keeps_fractions_and_converts_the_rest():
    half, third = Fraction(1, 2), Fraction(-1, 3)
    out = _normalized([half, 3, True, third, 0, Fraction(0), False])
    assert out == (half, Fraction(3), Fraction(1), third)
    assert out[0] is half and out[3] is third
    assert [type(c) for c in out] == [Fraction] * 4
    assert _normalized([0, Fraction(0)]) == _normalized([]) == ()
    # UPoly keeps the Fractions it is given
    assert UPoly(U_VAR, (half, third)).coeffs[1] is third
