"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact (rational arithmetic); there are no tolerances
to tune.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

from oracles import poly_mul, poly_sum, series_expand, upoly
from splitstat.exact import U_VAR, UPoly
from splitstat.expect import (
    NORM_SF_COUNT,
    eval_q1,
    expected,
    expected_sf,
    stable_limit,
)
from splitstat.gf import census, irreducibles, make_field, type_counts
from splitstat.lie_chars import psi_table
from splitstat.measures import necklace, sf_splitting_measure, splitting_measure
from splitstat.partitions import Partition, partitions_of, positions
from splitstat.sym_chars import (
    ClassFunction,
    builtin,
    builtin_polynomial,
    decompose,
    even_type,
    inner,
    irr_dim,
    irreducible_character,
    quadratic_excess,
    sgn,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]
STATS = ("one", "sgn", "ET", "R", "Q")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_c01_golden_quadratic_excess_table():
    golden = {
        3: [0, 2, 1],
        4: [0, 2, 2, 2],
        5: [0, 2, 2, 4, 2],
        6: [0, 2, 2, 4, 4, 3],
        10: [0, 2, 2, 4, 4, 6, 6, 8, 8, 5],
    }
    with criterion("criterion 1: golden expected-value table for Q"):
        for d, coeffs in golden.items():
            assert expected(d, quadratic_excess(d)).value == UPoly(U_VAR, coeffs)


def test_c02_sign_localization():
    with criterion("criterion 2: expected sign is a single inverse power"):
        for d in range(1, 11):
            assert expected(d, sgn(d)).value == UPoly(U_VAR, [0] * (d // 2) + [1])
            for k, values in enumerate(psi_table(d)):
                row = ClassFunction.from_integers(d, values)
                assert inner(sgn(d), row) == (1 if k == d // 2 else 0)


def test_c03_roots_geometric():
    with criterion("criterion 3: expected root count is the geometric sum"):
        for d in range(1, 11):
            assert expected(d, builtin("R", d)).value == UPoly(U_VAR, [1] * d)
            for row in psi_table(d):
                assert inner(builtin("R", d), ClassFunction.from_integers(d, row)) == 1


def test_c04_even_type_bias():
    with criterion("criterion 4: even-type bias and squarefree half"):
        for d in range(2, 11):
            want = [1] + [0] * (d // 2 - 1) + [1]
            assert expected(d, even_type(d)).value == UPoly(U_VAR, want, 2)
        for d in range(2, 9):
            got = expected_sf(d, even_type(d), NORM_SF_COUNT).value
            assert got == UPoly(U_VAR, [1], 2)


def test_c05_regular_representation():
    with criterion("criterion 5: character rows sum to the regular character"):
        for d in range(1, 11):
            table = psi_table(d)
            sums = [sum(c) for c in zip(*table)]
            assert sums == [factorial(d) if lam.mult(1) == d else 0 for lam in partitions_of(d)]
            identity = positions(d)[(1,) * d]
            assert sum(row[identity] for row in table) == factorial(d)


def test_c06_nonnegative_integral_decomposition():
    with criterion("criterion 6: multiplicities are nonnegative integers"):
        for d in range(1, 9):
            table = psi_table(d)
            identity = positions(d)[(1,) * d]
            for k, values in enumerate(table):
                row = ClassFunction.from_integers(d, values)
                dim_total = 0
                for shape in partitions_of(d):
                    m = inner(row, irreducible_character(shape))
                    assert m.denominator == 1 and m >= 0, (d, k, shape, m)
                    dim_total += int(m) * irr_dim(shape)
                assert dim_total == values[identity]
            assert decompose(ClassFunction.from_integers(d, table[0])) == {Partition([d]): 1}


def test_c07_main_theorem_census_oracle():
    with criterion("criterion 7: census equals formula for q<=5, d<=5"):
        for p, n in FIELDS:
            field = make_field(p, n)
            for d in range(1, 6):
                for name in STATS:
                    P = builtin(name, d)
                    u = Fraction(1, field.q)
                    assert census(field, d, P) == expected(d, P).value.evaluate(u)
                    assert census(field, d, P, squarefree_only=True) == expected_sf(
                        d, P
                    ).value.evaluate(u)


def test_c08_measure_identities():
    with criterion("criterion 8: measure normalization and point mass"):
        one_poly = UPoly(U_VAR, [1])
        density = UPoly(U_VAR, [1, -1])

        def mass(measure):
            return upoly(poly_sum(nu.coeffs for nu in measure.values()))

        for d in range(1, 13):
            assert mass(splitting_measure(d)) == one_poly
            # at d = 1 every monic linear polynomial is squarefree, so the
            # squarefree mass is 1 rather than 1 - u (confirmed by census)
            sf_mass = mass(sf_splitting_measure(d))
            assert sf_mass == (one_poly if d == 1 else density)
        for d in range(1, 13):
            for lam, value in splitting_measure(d).items():
                assert value.evaluate(1) == (1 if lam.mult(1) == d else 0)


def test_c09_stable_limits():
    with criterion("criterion 9: coefficientwise stable limits"):
        limit = stable_limit(builtin_polynomial("Q"), 9)
        assert list(limit.coeffs) == [0, 2, 2, 4, 4, 6, 6, 8, 8, 10]
        # u**k coefficient of (1/2)(1+u)/(1-u)^2 - (1/2)(1-u)/(1-u^2)
        assert limit.coeffs == tuple(Fraction(2 * k + 1 - (-1) ** k, 2) for k in range(10))
        assert all(d <= 30 for d in limit.stabilized_at)
        ones = stable_limit(builtin_polynomial("R"), 8)
        assert list(ones.coeffs) == [1] * 9
        assert all(d <= 30 for d in ones.stabilized_at)


def test_c10_specializations():
    with criterion("criterion 10: q = 1 and large-q specializations"):
        for d in range(1, 11):
            assert eval_q1(d, quadratic_excess(d)) == comb(d, 2)
            assert eval_q1(d, builtin("R", d)) == d
            assert expected(d, quadratic_excess(d)).value.coeff(0) == 0
        # the half trivial component of the even-type statistic needs the
        # sign character to differ from the trivial one, i.e. d >= 2
        for d in range(2, 11):
            half = expected(d, even_type(d)).value.coeff(0)
            assert half == inner(even_type(d), builtin("one", d)) == Fraction(1, 2)


def test_c11_irreducible_counts():
    with criterion("criterion 11: sieved counts match the count polynomial"):
        for p, n in FIELDS:
            field = make_field(p, n)
            table = irreducibles(field, 6)
            for j in range(1, 7):
                assert len(table[j]) == necklace(j).evaluate(field.q)
        # M_6(q)/q^6 as a polynomial in u: the q-coefficients reversed
        m6 = necklace(6)
        assert UPoly(U_VAR, m6.numerators[::-1], m6.denominator) == UPoly(
            U_VAR, [1, 0, 0, -1, -1, 1], 6
        )


def test_c12_property_suites():
    with criterion("criterion 12: orthonormality, round trips, determinism"):
        # character orthonormality, d <= 8
        for d in range(1, 9):
            shapes = partitions_of(d)
            for a in shapes:
                for b in shapes:
                    got = inner(irreducible_character(a), irreducible_character(b))
                    assert got == (1 if a == b else 0)
        # decompose / reconstruct round-trip on randomized class functions
        rng = random.Random(2024)
        for d in (3, 5, 8):
            for _ in range(3):
                X = ClassFunction(
                    d,
                    {
                        lam: Fraction(rng.randrange(-30, 31), rng.randrange(1, 11))
                        for lam in partitions_of(d)
                    },
                )
                parts = decompose(X)
                back = {
                    lam: sum(a * irreducible_character(s).value(lam) for s, a in parts.items())
                    for lam in partitions_of(d)
                }
                assert ClassFunction(d, back) == X
        # census determinism under varied thread counts
        histograms = []
        for threads in (1, 2, 5):
            field = make_field(3)
            histograms.append(type_counts(field, 4, threads=threads))
        assert histograms[0] == histograms[1] == histograms[2]
        # series expansion against direct polynomial multiplication
        for _ in range(20):
            a = UPoly(U_VAR, [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
            b = UPoly(U_VAR, [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
            if b.coeff(0) == 0:
                b = UPoly(U_VAR, (1,) + b.numerators[1:])
            order = 10
            coeffs = series_expand(a.coeffs, b.coeffs, order)
            back = upoly(poly_mul(coeffs, b.coeffs))
            for k in range(order + 1 - (len(b.numerators) - 1)):
                assert back.coeff(k) == a.coeff(k)
