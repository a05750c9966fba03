"""Class functions, irreducible characters, and character polynomials."""

import copy
import json
import pickle
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod

import pytest

from splitstat import exact, expect, gf, measures, sym_chars
from splitstat.errors import BudgetExceeded, DegreeMismatch, UnknownStatistic
from splitstat.lie_chars import psi_table
from splitstat.measures import measure_rows, necklace
from splitstat.partitions import Partition, partitions_of
from splitstat.sym_chars import (
    DECOMPOSE_BUDGET,
    MAX_NESTING,
    PARSE_BUDGET,
    CharacterPolynomial,
    ClassFunction,
    SignedPolynomial,
    builtin,
    builtin_polynomial,
    check_decompose_budget,
    class_weights,
    decompose,
    even_type,
    indicator,
    inner,
    irr_dim,
    irreducible_character,
    parse_character_polynomial,
    polynomial_statistic,
    quadratic_excess,
    resolve,
    sgn,
    statistic,
)


def permutation_of_type(lam):
    # a concrete permutation with the given cycle type, as a dict i -> image
    perm = {}
    start = 0
    for part in lam.parts:
        cycle = list(range(start, start + part))
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % part]
        start += part
    return perm


def test_trivial_and_sign_characters():
    for d in range(1, 8):
        for lam in partitions_of(d):
            assert irreducible_character(Partition([d])).value(lam) == 1
            assert irreducible_character(Partition([1] * d)).value(lam) == lam.sign()


def test_standard_character_value():
    assert irreducible_character(Partition([2, 1])).value(Partition([1, 1, 1])) == 2


def test_dimensions_match_hook_lengths():
    for d in range(1, 15):
        identity = Partition([1] * d)
        for shape in partitions_of(d):
            assert irreducible_character(shape).value(identity) == irr_dim(shape)


def test_character_rows_are_orthonormal():
    for d in range(1, 11):
        chis = [irreducible_character(shape) for shape in partitions_of(d)]
        for i, a in enumerate(chis):
            assert [inner(a, b) for b in chis] == [int(i == j) for j in range(len(chis))]


def test_character_columns_are_orthogonal():
    # sum over shapes of chi(rho) chi(sigma) is z_rho if rho = sigma, else 0
    for d in range(1, 11):
        lams = partitions_of(d)
        rows = [irreducible_character(shape).numerators for shape in lams]
        for i, rho in enumerate(lams):
            sums = [sum(row[i] * row[j] for row in rows) for j in range(len(lams))]
            assert sums == [rho.centralizer_order() if i == j else 0 for j in range(len(lams))]


@lru_cache(maxsize=None)
def removal_character(shape, cycles):
    # chi_shape(cycles) by removing border strips, one cycle at a time: on
    # beta numbers, subtract t from one of them, with sign (-1)**(number
    # of beta numbers it jumps over)
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    n = len(shape)
    beta = [shape[i] + n - 1 - i for i in range(n)]
    total = 0
    for i, b in enumerate(beta):
        if b - t < 0 or b - t in beta:
            continue
        jumped = sum(1 for c in beta if b - t < c < b)
        new_beta = sorted(beta[:i] + beta[i + 1:] + [b - t], reverse=True)
        parts = tuple(p for p in (new_beta[j] - (n - 1 - j) for j in range(n)) if p)
        total += (-1) ** jumped * removal_character(parts, rest)
    return total


def test_character_table_matches_strip_removal():
    for d in range(13):
        lams = partitions_of(d)
        for shape in lams:
            want = [removal_character(shape.parts, lam.parts) for lam in lams]
            assert list(irreducible_character(shape).numerators) == want, shape


def test_character_tables_do_not_depend_on_the_order_degrees_are_built():
    # each degree's rows are built from the lower degrees' rows, which a
    # table of a higher degree built first has already made
    tables = []
    for degrees in ((14, 12, 10, 8), (8, 10, 12, 14)):
        sym_chars._packed_rows.cache_clear()
        sym_chars._character_table.cache_clear()
        tables.append({d: sym_chars._character_table(d) for d in degrees})
    assert tables[0] == tables[1]


def test_character_values_fit_their_32_bit_slots_up_to_the_decompose_cap():
    # |chi_lam| <= f^lam <= sqrt(d!), since the squares of the f^lam sum to
    # d!: below 2**31 up to d = 20, so a cap refitted past that must widen
    # the packed rows' slots
    d = 1
    with pytest.raises(BudgetExceeded):
        while True:
            sym_chars.check_decompose_budget(d)
            d += 1
    d -= 1  # the largest d the cap admits
    assert factorial(d) < 2**62
    assert max(max(map(abs, row)) for row in sym_chars._character_table(d)) < 2**31


def test_characters_past_the_decompose_cap_are_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"d=19 .*cap of {DECOMPOSE_BUDGET}"):
        irreducible_character(Partition([19]))
    assert time.perf_counter() - start < 0.1


def test_from_integers_past_the_partition_cap_is_refused_at_once():
    # as ClassFunction(d, ...) is: before p(d) is counted, and whether or
    # not as many numerators as partitions are given (p(24) = 1575)
    start = time.perf_counter()
    for d, nums in ((60, [1]), (24, [1] * 1575)):
        with pytest.raises(BudgetExceeded, match=f"d={d} .*cap of {measures.PARTITION_BUDGET}"):
            ClassFunction.from_integers(d, nums)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("numerators, denominator", [
    ([Fraction(1, 2), 1, 1], 1), ([0.5, 1, 1], 1), ([2.0, 1, 1], 1), ([1, "1", 1], 1),
    ([1, 1, 1], 2.0), ([1, 1, 1], "2"), ([1, 1, 1], Fraction(2)), ([0.5, 1, 1], 3),
])
def test_from_integers_refuses_values_that_are_not_integers(numerators, denominator):
    # stored as they are, they would reach the measure route's pairing
    with pytest.raises(ValueError, match=r"^need p\(3\) integer numerators over a positive"):
        ClassFunction.from_integers(3, numerators, denominator)


@pytest.mark.parametrize("value", [0.5, 2.0, "1/2", None, b"1"])
def test_class_function_values_must_be_ints_or_fractions(value):
    with pytest.raises(ValueError, match="^values must be ints or Fractions, not "):
        ClassFunction(2, {Partition([2]): value})


def round_trips(value):
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)


def test_values_pickle_and_copy_through_their_constructors():
    for clone in round_trips(Partition([2, 1])):
        assert clone == Partition([2, 1]) and clone.d == 3
    for clone in round_trips(builtin("Q", 3)):
        assert clone == builtin("Q", 3) and clone.name == "Q"


def test_hook_dimension_examples():
    assert irr_dim(Partition([6])) == 1
    assert irr_dim(Partition([5, 1])) == 5
    assert irr_dim(Partition([3, 2])) == 5


def test_burnside_sum_of_squares():
    for d in range(1, 8):
        assert sum(irr_dim(s) ** 2 for s in partitions_of(d)) == factorial(d)


def test_character_orthonormality():
    for d in range(1, 8):
        shapes = partitions_of(d)
        for a in shapes:
            for b in shapes:
                expected = 1 if a == b else 0
                assert inner(irreducible_character(a), irreducible_character(b)) == expected


def test_inner_product_examples():
    assert inner(builtin("one", 4), builtin("one", 4)) == 1
    assert inner(sgn(5), sgn(5)) == 1
    assert inner(builtin("one", 3), sgn(3)) == 0
    with pytest.raises(DegreeMismatch):
        inner(builtin("one", 3), builtin("one", 4))


def test_class_function_reads_out_at_its_own_degree_only():
    # the interface character and signed polynomials have: at_degree, then
    # values_at any partitions of that degree, in the order given
    P = quadratic_excess(5)
    assert P.at_degree(5) is P
    for d in (4, 6):
        with pytest.raises(DegreeMismatch, match=rf"^statistic is for degree 5, not {d}$"):
            P.at_degree(d)
    lams = (Partition([3, 1, 1]), Partition([1] * 5), Partition([2, 1, 1, 1]), Partition([5]))
    third = ClassFunction(5, {lam: P(lam) / 3 for lam in partitions_of(5)})
    nums, den = third.values_at(lams)
    assert den == 3 and [Fraction(n, den) for n in nums] == [P(lam) / 3 for lam in lams]
    assert P.values_at(()) == ([], 1)


def test_builtin_values_on_worked_examples():
    g = Partition([2, 1, 1, 1])
    h = Partition([3, 1, 1])
    assert builtin("R", 5).value(g) == 3
    assert builtin("R", 5).value(h) == 2
    assert quadratic_excess(5).value(g) == 2
    assert quadratic_excess(5).value(h) == 1
    assert even_type(5).value(g) == 0
    assert even_type(5).value(h) == 1


def test_even_type_is_half_one_plus_sign():
    for d in range(1, 9):
        half = {lam: Fraction(1 + sgn(d).value(lam), 2) for lam in partitions_of(d)}
        assert even_type(d) == ClassFunction(d, half)


def test_indicator():
    lam = Partition([3, 1])
    ind = indicator(lam)
    assert ind.value(lam) == 1
    assert sum(ind.value(mu) for mu in partitions_of(4)) == 1


def test_builtin_dispatch():
    assert builtin("R", 4) == ClassFunction(4, {lam: lam.mult(1) for lam in partitions_of(4)})
    assert builtin("Q", 4) == quadratic_excess(4)
    assert builtin("ET", 4) == even_type(4)
    assert builtin("one", 4) == ClassFunction(4, dict.fromkeys(partitions_of(4), 1))
    assert builtin("sgn", 4) == sgn(4)
    with pytest.raises(UnknownStatistic, match="known names: one, sgn, ET, R, Q$"):
        builtin("nope", 4)
    assert builtin("1", 4) == builtin("one", 4)


def test_quadratic_excess_matches_exterior_square_trace():
    # oracle: act with a concrete permutation of each cycle type on pairs
    # {i, j}; the trace of the induced action on the second exterior power
    # is (#fixed pairs) - (#transposed pairs)
    for d in range(2, 9):
        for lam in partitions_of(d):
            perm = permutation_of_type(lam)
            fixed = sum(
                1 for i in range(d) for j in range(i + 1, d)
                if perm[i] == i and perm[j] == j
            )
            swapped = sum(
                1 for i in range(d) for j in range(i + 1, d)
                if perm[i] == j and perm[j] == i
            )
            assert quadratic_excess(d).value(lam) == fixed - swapped


def test_roots_matches_fixed_point_count():
    for d in range(1, 8):
        for lam in partitions_of(d):
            perm = permutation_of_type(lam)
            assert builtin("R", d).value(lam) == sum(1 for i in range(d) if perm[i] == i)


def test_mn_against_direct_trace_for_standard_rep():
    # character of the permutation representation minus one is chi_[d-1,1]
    for d in range(2, 7):
        shape = Partition([d - 1, 1])
        for lam in partitions_of(d):
            assert irreducible_character(shape).value(lam) == lam.mult(1) - 1


def test_decompose_permutation_character():
    got = decompose(builtin("R", 4))
    assert got == {Partition([4]): 1, Partition([3, 1]): 1}


def test_decompose_even_type():
    for d in (2, 3, 5):
        got = decompose(even_type(d))
        assert got == {
            Partition([d]): Fraction(1, 2),
            Partition([1] * d): Fraction(1, 2),
        }


def test_decompose_reconstruct_roundtrip():
    rng = random.Random(41)
    for d in (2, 3, 5, 8):
        for _ in range(5):
            values = {
                lam: Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                for lam in partitions_of(d)
            }
            X = ClassFunction(d, values)
            parts = decompose(X)
            back = {
                lam: sum(a * irreducible_character(s).value(lam) for s, a in parts.items())
                for lam in partitions_of(d)
            }
            assert ClassFunction(d, back) == X


def fraction_inner(P, X):
    # the pairing summed in Fractions, one partition at a time: the
    # reference for the integer dot products of inner and decompose
    return sum(
        (P.value(lam) * X.value(lam) / lam.centralizer_order() for lam in partitions_of(P.d)),
        Fraction(0),
    )


def test_integer_pairings_match_the_fraction_sum(tmp_path):
    rng = random.Random(9)
    for d in range(1, 11):
        table = tmp_path / f"stat{d}.json"
        table.write_text(json.dumps({
            lam.label(): f"{rng.randrange(-30, 31)}/{rng.randrange(1, 13)}"
            for lam in rng.sample(partitions_of(d), min(5, len(partitions_of(d))))
        }))
        stats = [resolve(spec, d) for spec in ("one", "sgn", "ET", "R", "Q", f"@{table}")]
        stats += [
            parse_character_polynomial(e).class_function(d)
            for e in ("x1^2-x2", "(x1-1)*x1/2", "x1^3/7", "2/3*x1*x2 - 5/4*x3 + 1/6")
        ]
        characters = [irreducible_character(shape) for shape in partitions_of(d)]
        for P in stats:
            want = {
                shape: a
                for shape, chi in zip(partitions_of(d), characters)
                if (a := fraction_inner(P, chi)) != 0
            }
            assert decompose(P) == want
            for X in stats[::3] + characters[:3]:
                assert inner(P, X) == fraction_inner(P, X)


def test_class_weights_put_every_value_over_one_denominator():
    P = parse_character_polynomial("x1^3/7 - 1/2*x2").class_function(6)
    weights, den = class_weights(P)
    assert len(weights) == len(partitions_of(6))
    for lam, w in zip(partitions_of(6), weights):
        assert Fraction(w, den) == P.value(lam) / lam.centralizer_order()
        assert isinstance(w, int)


def test_stored_values_match_the_fraction_evaluation():
    # CharacterPolynomial.evaluate, one Fraction per partition, is the
    # reference for the integer numerators that class_function stores
    specs = ("one", "R", "Q", "x1^2-x2", "(x1-1)*x1/2", "x1^3/7", "2/3*x1*x2 - 5/4*x3 + 1/6")
    rules = {"sgn": Partition.sign, "ET": lambda lam: Fraction(1 + lam.sign(), 2)}
    for d in range(0, 13):
        for spec in specs:
            P, poly = resolve(spec, d), statistic(spec)
            assert [P.value(lam) for lam in partitions_of(d)] == [
                poly.evaluate(lam) for lam in partitions_of(d)
            ]
        for spec, rule in rules.items():
            assert [resolve(spec, d).value(lam) for lam in partitions_of(d)] == list(
                map(rule, partitions_of(d))
            )


def test_stored_form_is_in_lowest_terms():
    values = {lam: Fraction(i, 6) for i, lam in enumerate(partitions_of(5))}
    P = ClassFunction(5, values)
    Q = ClassFunction.from_integers(5, [4 * i for i in range(len(values))], 24)
    assert P == Q and hash(P) == hash(Q)
    assert (P.numerators, P.denominator) == (tuple(range(len(values))), 6)
    zero = ClassFunction(5, {lam: v - Q.value(lam) for lam, v in values.items()})
    assert (zero.numerators, zero.denominator) == ((0,) * 7, 1)
    c = Fraction(-3, 2)
    scaled = ClassFunction(5, {lam: v * c for lam, v in values.items()})
    assert (scaled.numerators, scaled.denominator) == (tuple(-i for i in range(7)), 4)
    with pytest.raises(ValueError):
        ClassFunction.from_integers(5, [1, 2], 1)
    with pytest.raises(ValueError):
        ClassFunction.from_integers(5, [0] * 7, 0)
    for attr in ("numerators", "name", "new"):
        with pytest.raises(AttributeError):
            setattr(P, attr, None)


def test_producers_build_no_fraction_per_partition(monkeypatch):
    # Every producer hands integers over one denominator to the stored
    # form; a Fraction is made only when a single value is read out.
    P = parse_character_polynomial("x1^3/7 - 1/2*x2")
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    assert not hasattr(measures, "Fraction")
    for module in (exact, measures, expect, sym_chars, gf):
        monkeypatch.setattr(module, "Fraction", Counting, raising=False)
    stored = P.class_function(12)
    sym_chars._packed_rows.cache_clear()
    sym_chars._character_table.__wrapped__(12)  # the whole table, built afresh
    chi = irreducible_character.__wrapped__(Partition([6, 4, 2]))
    row = ClassFunction.from_integers(12, psi_table(12)[5])
    for squarefree in (False, True):
        measures.packed_measure.__wrapped__(12, squarefree=squarefree)
        measure_rows(12, squarefree=squarefree)
    m12 = necklace.__wrapped__(12)
    nu = measures.splitting_measure.__wrapped__(12)
    sf_nu = measures.sf_splitting_measure.__wrapped__(12)
    e = expect.expected(12, stored)
    e_sf = expect.expected_sf(12, stored, expect.NORM_SF_COUNT)
    # character polynomial arithmetic, and the series route
    text = "(x1^3/7 - 1/2*x2)"
    arithmetic = [parse_character_polynomial(text + tail) for tail in (f"+{text}", f"*{text}", "^3")]
    live = P.at_degree(12)
    series = expect.expected(12, P), expect.expected_sf(12, P, expect.NORM_SF_COUNT)
    assert built == []
    # the read-outs: the limit's coefficients and the census's one value
    limit = expect.stable_limit(P, 6)
    assert len(built) == len(limit.coeffs) == 7
    built.clear()
    census = gf.census(gf.make_field(3), 6, P)
    assert len(built) == 1
    monkeypatch.undo()
    assert stored.denominator == 14 and chi.denominator == row.denominator == 1
    assert m12.denominator == 12 and len(nu) == len(sf_nu) == len(partitions_of(12))
    assert (series[0].value, series[1].value) == (e.value, e_sf.value)
    assert live == P and [p.denominator for p in arithmetic] == [7, 196, 2744]
    assert census == gf.census(gf.make_field(3), 6, P.class_function(6))


def test_decompose_cap_admits_d_18_and_refuses_d_19():
    assert len(partitions_of(18)) ** 2 <= DECOMPOSE_BUDGET < len(partitions_of(19)) ** 2
    check_decompose_budget(18)
    for d in (19, 22, 10**9):
        with pytest.raises(BudgetExceeded, match=f"cap of {DECOMPOSE_BUDGET}"):
            check_decompose_budget(d)
    with pytest.raises(BudgetExceeded, match="d=19"):
        decompose(builtin("one", 19))


def test_class_function_degree_checks():
    for values in ({Partition([2]): 1}, {Partition([3]): 1, Partition([2, 1, 1]): 2}):
        with pytest.raises(DegreeMismatch):
            ClassFunction(3, values)
    P = builtin("one", 3)
    with pytest.raises(DegreeMismatch):
        P.value(Partition([2]))


def test_character_polynomial_binomial_expansion():
    cp = parse_character_polynomial("x1*(x1-1)/2")
    for x in range(7):
        lam = Partition([1] * x) if x else Partition(())
        assert cp.evaluate(lam) == comb(x, 2)


def test_builtin_polynomials_match_direct_formulas():
    # one = 1, R = m_1 and Q = C(m_1, 2) - m_2, with m_j the parts of size j
    for d in range(1, 11):
        stats = {name: builtin(name, d) for name in ("one", "1", "R", "Q")}
        for lam in partitions_of(d):
            m1 = sum(1 for part in lam.parts if part == 1)
            m2 = sum(1 for part in lam.parts if part == 2)
            want = {"one": 1, "1": 1, "R": m1, "Q": comb(m1, 2) - m2}
            for name, value in want.items():
                assert stats[name].value(lam) == value
                assert builtin_polynomial(name).evaluate(lam) == value
    with pytest.raises(UnknownStatistic, match=r"\(use one, R, Q, or an expression"):
        builtin_polynomial("sgn")


def test_statistic_resolves_every_spec_form(tmp_path):
    for spec in ("one", "1", "R", "Q", "x1^2 - x2"):
        assert isinstance(statistic(spec), CharacterPolynomial)
    assert statistic(" 1 ") == statistic("one") == builtin_polynomial("1")
    for spec, rule in (("sgn", Partition.sign), ("ET", lambda lam: Fraction(1 + lam.sign(), 2))):
        assert isinstance(statistic(spec), SignedPolynomial)
        for d in range(1, 9):
            want = ClassFunction(d, {lam: rule(lam) for lam in partitions_of(d)})
            assert statistic(spec).class_function(d) == resolve(spec, d) == want
            assert resolve(spec, d).name == spec
    table = tmp_path / "stat.json"
    table.write_text('{"[2]": "1/3"}')
    for spec, d, want in (
        ("ind:[2,1]", 3, indicator(Partition([2, 1]))),
        (f"@{table}", 2, ClassFunction(2, {Partition([2]): Fraction(1, 3)})),
    ):
        stat = statistic(spec)
        assert not isinstance(stat, CharacterPolynomial)
        assert stat.at_degree(d) == want
    with pytest.raises(UnknownStatistic, match="'ind:\\[2\\]' is not a character polynomial"):
        polynomial_statistic("ind:[2]")


def test_every_statistic_goes_straight_into_expect_and_the_census(tmp_path):
    # Each kind statistic() returns is read through at_degree(d) by
    # expected, expected_sf and gf.census, and agrees with its class
    # function on the partitions of d, resolve(spec, d).
    table = tmp_path / "stat.json"
    table.write_text('{"[2,1]": "1/3", "[1,1,1]": -2}')
    F = gf.make_field(3)
    for spec in ("one", "1", "Q", "x1^2 - 3*x2", "sgn", "ET", "ind:[2,1]", f"@{table}"):
        stat, P = statistic(spec), resolve(spec, 3)
        nums, den = stat.at_degree(3).values_at(partitions_of(3))
        assert [Fraction(n, den) for n in nums] == [P(lam) for lam in partitions_of(3)]
        for flavor in (expect.expected, expect.expected_sf):
            assert flavor(3, stat).value == flavor(3, P).value
        for squarefree in (False, True):
            assert gf.census(F, 3, stat, squarefree) == gf.census(F, 3, P, squarefree)
    assert statistic("1") is statistic("one")
    assert expect.expected(3, statistic("ind:[2,1]")).statistic == "ind:[2,1]"
    with pytest.raises(ValueError, match="start at degree 1"):
        expect.expected(0, statistic("ind:[2,1]"))


def test_expressions_take_ascii_digits_only():
    # str.isdigit accepts superscripts and other scripts' digits; the
    # tokenizer does not, so each is an unexpected character
    for text, ch in (("x1\u00b2", "\u00b2"), ("x\u0663", "\u0663"), ("\u0663*x1", "\u0663")):
        with pytest.raises(UnknownStatistic, match=f"unexpected character '{ch}' in statistic"):
            parse_character_polynomial(text)
    with pytest.raises(UnknownStatistic, match="bad variable at position 3 in 'x1-x'"):
        parse_character_polynomial("x1-x")
    want = CharacterPolynomial(((((12, 1),), 3), (((1, 1), (12, 1)), -1)))
    assert parse_character_polynomial(" x12 *\t( 3-x1 ) ").terms == want.terms


def test_parse_character_polynomial():
    q_expr = parse_character_polynomial("x1*(x1-1)/2 - x2")
    for d in range(1, 9):
        assert q_expr.class_function(d) == quadratic_excess(d)
    assert parse_character_polynomial("1/2 + 1/2").evaluate(Partition([3])) == 1
    cube = parse_character_polynomial("x1^3")
    assert cube.evaluate(Partition([1, 1, 1])) == 27
    assert parse_character_polynomial("-x1 + 2").evaluate(Partition([1])) == 1


def test_parse_rejects_bad_expressions():
    for bad in ("x1 +", "x", "x1/x2", "2 ** 3", "x1^x1", "(x1", "y1"):
        with pytest.raises(UnknownStatistic):
            parse_character_polynomial(bad)


def test_parse_names_division_by_zero():
    for bad in ("x1/0", "x1/(x2-x2)", "1/(1-1)"):
        with pytest.raises(UnknownStatistic, match="division by zero"):
            parse_character_polynomial(bad)


def test_parse_nesting_limit():
    deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_character_polynomial(deep).terms == ((((1, 1),), Fraction(1)),)
    with pytest.raises(UnknownStatistic, match=f"deeper than {MAX_NESTING} levels"):
        parse_character_polynomial("(" + deep + ")")


def test_parse_work_cap():
    with pytest.raises(BudgetExceeded, match=f"cap of {PARSE_BUDGET}"):
        parse_character_polynomial("(x1+x2)^2000")
    with pytest.raises(BudgetExceeded, match="cap of"):
        parse_character_polynomial("*".join(f"x{i}" for i in range(1, 2000)))
    with pytest.raises(BudgetExceeded, match="coefficients of '2\\^100000000'"):
        parse_character_polynomial("2^100000000")
    assert len(parse_character_polynomial("(x1+x2)^200").terms) == 201


def test_long_sums_parse_in_linear_time():
    # adding term by term copied the whole sum each time: minutes for this
    text = "+".join(f"x{i}" for i in range(1, 20001))
    start = time.perf_counter()
    assert len(parse_character_polynomial(text).terms) == 20000
    assert time.perf_counter() - start < 5


def test_class_function_refuses_unprintable_values():
    limit = sys.get_int_max_str_digits()
    assert parse_character_polynomial("x1^9000").class_function(3).value(
        Partition([1, 1, 1])
    ) == 3**9000
    for text in ("x1^10000", "x1^100000000"):
        with pytest.raises(BudgetExceeded, match=f"can exceed {limit} digits"):
            parse_character_polynomial(text).class_function(3)
    # x2 vanishes at d = 1, so its size there does not matter
    assert parse_character_polynomial("x2^100000000").class_function(1) == ClassFunction(1, {})


def test_vanishing_monomials_are_dropped_before_evaluation(monkeypatch):
    wide = "(" + "+".join(f"x{j}" for j in range(1, 61)) + ")^2"
    narrow = "(" + "+".join(f"x{j}" for j in range(1, 21)) + ")^2"
    assert resolve(wide, 20) == resolve(narrow, 20)
    # the x21..x60 monomials are zero at d = 20, so none of them is evaluated:
    # both squares evaluate the 210 monomials in x1..x20, each at all 627
    # partitions of 20 at once
    evaluated = []
    numerators = CharacterPolynomial._numerators

    def counting(self, column, n):
        evaluated.extend((mono, n) for mono, _ in self.terms)
        return numerators(self, column, n)

    monkeypatch.setattr(CharacterPolynomial, "_numerators", counting)
    for spec in (wide, narrow):
        evaluated.clear()
        statistic(spec).class_function(20)  # resolve(spec, 20) is cached
        assert len(evaluated) == 210
        assert all(n == len(partitions_of(20)) for _, n in evaluated)
        assert max(j for mono, _ in evaluated for j, _ in mono) == 20


def test_products_and_values_match_fraction_arithmetic():
    # Random sums of c/k * x_j^e, checked against the same sums, and
    # their +, -, negation, division by a constant, products and powers,
    # evaluated term by term in Fraction arithmetic.
    rng = random.Random(5)

    def random_terms():
        return [
            (rng.randrange(-9, 10), rng.randrange(1, 7), rng.randrange(1, 4), rng.randrange(0, 3))
            for _ in range(rng.randrange(1, 5))
        ]

    for _ in range(20):
        terms_a, terms_b = random_terms(), random_terms()
        text_a, text_b = (
            "(" + " + ".join(f"{c}/{k}*x{j}^{e}" for c, k, j, e in terms) + ")"
            for terms in (terms_a, terms_b)
        )
        a, b = parse_character_polynomial(text_a), parse_character_polynomial(text_b)
        n = rng.randrange(1, 30)
        divided = parse_character_polynomial(f"{text_a}/{-n}")
        parsed = {
            form: parse_character_polynomial(form.format(a=text_a, b=text_b, n=n))
            for form in ("{a}*{b}", "{a}+{b}", "{a}-{b}", "{a} + 3/{n}", "{a} * 1/{n}", "{a}^3")
        }
        weight = max((sum(j * e for j, e in mono) for mono, _ in a.terms), default=0)
        binomial_terms, _ = expect._binomial_terms(a, weight, expect.LIMIT_BUDGET)
        for lam in partitions_of(6):
            ref_a, ref_b = (
                sum((Fraction(c, k) * lam.mult(j) ** e for c, k, j, e in terms), Fraction(0))
                for terms in (terms_a, terms_b)
            )
            assert a.evaluate(lam) == ref_a and b.evaluate(lam) == ref_b
            value = {form: p.evaluate(lam) for form, p in parsed.items()}
            assert value["{a}*{b}"] == ref_a * ref_b
            assert value["{a}+{b}"] == ref_a + ref_b
            assert value["{a}-{b}"] == ref_a - ref_b
            assert (-a).evaluate(lam) == -ref_a
            assert value["{a} + 3/{n}"] == ref_a + Fraction(3, n)
            assert value["{a} * 1/{n}"] == -divided.evaluate(lam) == ref_a / n
            assert value["{a}^3"] == ref_a**3
            # the series route's basis: a as a sum of c_mu prod_j C(x_j, m_j)
            binomials = (
                c * prod(comb(lam.mult(j), m) for j, m in mu.multiplicities())
                for mu, c in binomial_terms.items()
            )
            assert Fraction(sum(binomials), a.denominator) == ref_a


def test_power_squares_repeatedly():
    huge = parse_character_polynomial("x1^100000000")
    assert huge.terms == ((((1, 100000000),), Fraction(1)),)
    p = "(x1 + 2*x2 - 1/3)"
    for e in range(8):
        product = "*".join([p] * e) or "1"
        powered = parse_character_polynomial(f"{p}^{e}")
        assert powered.terms == parse_character_polynomial(product).terms


def test_character_polynomial_str_roundtrip():
    cp = builtin_polynomial("Q")
    again = parse_character_polynomial(str(cp))
    assert again.terms == cp.terms
    signed = parse_character_polynomial("-x1 + 3 - x2^2/2 + 2*x1*x3")
    assert str(signed) == "3 - x1 + 2*x1*x3 - 1/2*x2^2"
    assert str(parse_character_polynomial("0*x1")) == "0"


def test_permutation_census_agrees_with_inner_product():
    # 1/d! sum over sigma of P(sigma) X(sigma), summed literally over S_d
    for d in (3, 4):
        P, X = builtin("R", d), sgn(d)
        total = Fraction(0)
        for perm in permutations(range(d)):
            seen = [False] * d
            lengths = []
            for s in range(d):
                if seen[s]:
                    continue
                ln, i = 0, s
                while not seen[i]:
                    seen[i] = True
                    i = perm[i]
                    ln += 1
                lengths.append(ln)
            lam = Partition(lengths)
            total += P.value(lam) * X.value(lam)
        assert inner(P, X) == total / factorial(d)


def test_character_polynomial_is_an_immutable_value():
    R = builtin_polynomial("R")
    assert repr(R) == "CharacterPolynomial(terms=((((1, 1),), 1),), denominator=1, name='R')"
    Q = builtin_polynomial("Q")
    assert (Q.terms, Q.denominator) == (((((1, 1),), -1), (((1, 2),), 1), (((2, 1),), -2)), 2)
    same = CharacterPolynomial(terms=Q.terms, denominator=2, name="Q")
    assert Q == same and hash(Q) == hash(same)
    assert pickle.loads(pickle.dumps(Q)) == Q
    assert Q != CharacterPolynomial(Q.terms, 2) and Q != CharacterPolynomial(R.terms, name="Q")
    for attr in ("terms", "denominator", "name", "new"):
        with pytest.raises(AttributeError):
            setattr(Q, attr, None)
    # integers over one denominator, in lowest terms, in monomial order
    P = parse_character_polynomial("(x1-1)*x1/2 - x2/3")
    assert P == CharacterPolynomial(reversed([(m, 5 * n) for m, n in P.terms]), 30, P.name)
    assert P.class_function(5) == CharacterPolynomial(P.terms, P.denominator).class_function(5)
    assert CharacterPolynomial([(((1, 1),), 0)], 7) == CharacterPolynomial(())
    for terms, den in (([((), Fraction(1, 2))], 1), ([((), 1)], 0), ([((), 1)], Fraction(2))):
        with pytest.raises(ValueError):
            CharacterPolynomial(terms, den)


def test_repeated_resolves_share_one_class_function():
    for spec in ("Q", " Q ", "sgn", "ind:[2,1,1]", "x1^2 - 3*x2"):
        assert resolve(spec, 4) is resolve(spec, 4) is resolve(spec.strip(), 4)
    assert resolve("Q", 5) is not resolve("Q", 4)


def test_an_expression_is_parsed_once_for_every_degree(monkeypatch):
    from splitstat.expect import expected, expected_sf

    parses = []
    parse = sym_chars.parse_character_polynomial

    def counting(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(sym_chars, "parse_character_polynomial", counting)
    sym_chars._statistic.cache_clear()
    sym_chars._resolved.cache_clear()
    spec = "x1^3 - 2*x1*x2 + x3/3"
    for d in range(4, 17):
        for flavor in (expected, expected_sf):
            assert flavor(d, resolve(spec, d)) == flavor(d, statistic(spec).class_function(d))
    assert parses == [spec]


def test_table_specs_are_read_on_every_call(tmp_path):
    table = tmp_path / "stat.json"
    table.write_text('{"[2]": "1/3"}')
    assert resolve(f"@{table}", 2) == ClassFunction(2, {Partition([2]): Fraction(1, 3)})
    table.write_text('{"[1,1]": "5"}')
    assert resolve(f"@{table}", 2) == ClassFunction(2, {Partition([1, 1]): Fraction(5)})
    assert statistic(f"@{table}").at_degree(2) == resolve(f"@{table}", 2)
    table.write_text("[1]")
    with pytest.raises(UnknownStatistic, match="must hold a JSON object"):
        resolve(f"@{table}", 2)


def test_bad_specs_raise_on_every_call(capsys):
    from splitstat.cli import main

    for bad, error in (("x1 +", UnknownStatistic), ("(x1+x2)^2000", BudgetExceeded)):
        for _ in range(3):
            with pytest.raises(error):
                resolve(bad, 4)
            with pytest.raises(error):
                statistic(bad)
            assert main(["expect", "--d", "4", "--stat", bad]) == 2
            assert "error" in capsys.readouterr().err


def test_spec_caches_are_bounded():
    for cached in (sym_chars._statistic, sym_chars._resolved):
        assert cached.cache_info().maxsize == sym_chars.SPEC_CACHE_SIZE > 0


def test_a_cached_resolve_keeps_the_print_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(2 * limit)
        assert resolve("x1^10000", 3).value(Partition([1, 1, 1])) == 3**10000
        sys.set_int_max_str_digits(limit)
        with pytest.raises(BudgetExceeded, match=f"can exceed {limit} digits"):
            resolve("x1^10000", 3)
        with pytest.raises(BudgetExceeded, match=f"can exceed {limit} digits"):
            statistic("x1^10000").class_function(3)
    finally:
        sys.set_int_max_str_digits(limit)


def test_large_degrees_are_refused_before_enumerating_partitions():
    start = time.perf_counter()
    for call in (
        lambda: builtin("Q", 45),
        lambda: builtin("sgn", 45),
        lambda: resolve("x1^2", 60),
        lambda: resolve("ind:[60]", 60),
        lambda: resolve("@no-such-table.json", 60),  # before the file is read
        lambda: ClassFunction(60, {}),
        lambda: parse_character_polynomial("x1").class_function(10**6),
        lambda: indicator(Partition([60])),
    ):
        with pytest.raises(BudgetExceeded, match="cap of 1255"):
            call()
    assert time.perf_counter() - start < 0.1
    assert len(resolve("Q", 23).numerators) == len(partitions_of(23)) == 1255
