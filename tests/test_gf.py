"""Finite field construction, factoring, and the census oracle."""

import cProfile
import gc
import pstats
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import divrem, factorization_type, irreducibles_by_division
from splitstat import gf
from splitstat.cli import main
from splitstat.errors import BudgetExceeded, ConsistencyError, DegreeMismatch, InvalidCharacteristic
from splitstat.gf import (
    FqField,
    FqPoly,
    _divrem,
    _packs,
    census,
    irreducibles,
    make_field,
    type_counts,
)
from splitstat.partitions import Partition
from splitstat.sym_chars import builtin, indicator, parse_character_polynomial


def field_mul(F, a, b):
    # product of two raw coefficient tuples over F
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return tuple(out)


def test_prime_field_basics():
    f2 = make_field(2)
    assert (f2.p, f2.n, f2.q) == (2, 1, 2)
    assert f2.modulus == (0, 1)
    f7 = make_field(7)
    assert f7.add(5, 4) == 2
    assert [b for b in range(7) if f7.mul(3, b) == 1] == [5]


def test_non_prime_characteristic_rejected():
    with pytest.raises(InvalidCharacteristic):
        make_field(6)
    with pytest.raises(InvalidCharacteristic):
        make_field(1)


def test_trial_division_stops_at_its_bound():
    # FACTOR_BOUND = 10^6 settles every base below (10^6 + 1)^2; past
    # that, one with no prime factor up to 10^6 is refused, prime or not
    assert make_field(999_999_999_989).q == 999_999_999_989
    with pytest.raises(InvalidCharacteristic, match="is not prime"):
        make_field(2 * 10**30)
    for p in (10**30 + 57, 1_000_003 * 1_000_033):
        with pytest.raises(BudgetExceeded, match=f"^{p} has no prime factor up to 1000000, "):
            make_field(p)


def test_make_field_reads_a_prime_power_base():
    assert make_field(4) == make_field(2, 2)
    F = make_field(4, 3)
    assert (F.p, F.n, F.q) == (2, 6, 64) and F == make_field(2, 6)
    for base in (12, 2 * 10**30):
        with pytest.raises(InvalidCharacteristic, match=f"^{base} is not prime$"):
            make_field(base)
    with pytest.raises(ValueError, match="^extension degree must be at least 1$"):
        make_field(4, 0)


def test_a_prime_q_base_is_trial_divided_once(capsys):
    # the CLI leaves the base to make_field, which factors it once; the
    # profiler counts calls under any name they are made through
    argv = ["irreducibles", "--q", "999999999989", "--max-degree", "1", "--budget", "10000000000000"]
    profile = cProfile.Profile()
    assert profile.runcall(main, argv) == 0
    assert "degree 1: 999999999989" in capsys.readouterr().out
    calls = [
        stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
        if name == "_least_prime_factor" and path == gf.__file__
    ]
    assert calls == [1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divrem_undoes_a_product_and_matches_the_oracle(data):
    # over F_2..F_13: a * b divided by a monic b leaves a and no
    # remainder, and any division agrees with the oracle's long division
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    residues = st.lists(st.integers(0, p - 1), max_size=8).map(tuple)
    a = data.draw(residues.filter(len))
    b = data.draw(residues) + (1,)
    num = data.draw(residues)
    F = make_field(p)
    assert _divrem(p, field_mul(F, a, b), b) == (a, ())
    assert _divrem(p, num, b) == divrem(F, num, b)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a quadratic over F_2 is irreducible iff it has no roots
    f2 = make_field(2)
    candidates = []
    for c0, c1 in product(range(2), repeat=2):
        g = FqPoly(f2, (c0, c1, 1))
        if all(g.evaluate(x) != 0 for x in range(2)):
            candidates.append((c0, c1, 1))
    assert candidates == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_f9_modulus_is_lex_first():
    # oracle: scan x^2 + c1 x + c0 by (c0, c1) for the first with no roots
    f3 = make_field(3)
    for c0, c1 in product(range(3), repeat=2):
        if all(FqPoly(f3, (c0, c1, 1)).evaluate(x) != 0 for x in range(3)):
            first = (c0, c1, 1)
            break
    assert make_field(3, 2).modulus == first == (1, 0, 1)
    # pinned moduli; below degree 4 each is the first rootless candidate
    pinned = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 0, 1, 1),
        (3, 2): (1, 0, 1),
        (2, 4): (1, 0, 0, 1, 1),
        (5, 2): (1, 1, 1),
        (3, 3): (1, 0, 2, 1),
    }
    for (p, n), modulus in pinned.items():
        assert make_field(p, n).modulus == modulus
        if n < 4:
            fp = make_field(p)
            rootless = (
                tail + (1,)
                for tail in product(range(p), repeat=n)
                if all(FqPoly(fp, tail + (1,)).evaluate(x) != 0 for x in range(p))
            )
            assert next(rootless) == modulus


def test_reducible_modulus_is_rejected():
    # no element of F_2[x]/(x^2) or F_3[x]/((x + 1)(x + 2)) generates the
    # units, so the first walk's table build stops instead of stepping
    # powers forever
    for p, modulus in ((2, (0, 0, 1)), (3, (2, 0, 1))):
        with pytest.raises(ValueError, match=rf"modulus {re.escape(str(modulus))} is not irreducible"):
            type_counts(FqField(p, 2, modulus), 2)


def test_field_construction_builds_no_tables():
    # F_256 finds its modulus by sieving F_2 to degree 4 and builds nothing
    # of size q**2: its walks build their lookup tables
    tracemalloc.start()
    try:
        F = make_field(2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.modulus == (1, 0, 0, 0, 1, 1, 0, 1, 1)
    assert peak < 100_000


def test_large_extension_moduli_are_found_fast():
    # candidates with c_0 = 0 are divisible by x; the scan skips them
    pinned = {
        (2, 20): (1,) + (0,) * 16 + (1, 0, 0, 1),
        (7, 9): (1,) + (0,) * 7 + (1, 1),
        (3, 14): (1,) + (0,) * 11 + (1, 1, 1),
    }
    for (p, n), modulus in pinned.items():
        start = time.perf_counter()
        assert make_field(p, n).modulus == modulus
        assert time.perf_counter() - start < 1.0, (p, n)


def test_field_axioms_spot_checks():
    rng = random.Random(23)
    for p, n in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        F = make_field(p, n)
        for a in range(1, F.q):
            assert sum(F.mul(a, b) == 1 for b in range(F.q)) == 1  # one inverse

        def frobenius(x):  # x**p, as p factors
            return reduce(F.mul, [x] * p)

        for _ in range(30):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert frobenius(F.add(a, b)) == F.add(frobenius(a), frobenius(b))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(F.add(a, b), b) == a


def test_built_tables_equal_decode_arithmetic():
    # every extension field with q <= 64: the discrete-logarithm tables a
    # walk builds against the coefficient-vector arithmetic of the methods
    for p, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)):
        F = make_field(p, n)
        type_counts(F, 2)
        add, mul = F._tables
        for a in range(F.q):
            assert add[a] == [F.add(a, b) for b in range(F.q)], (F, a)
            assert mul[a] == [F.mul(a, b) for b in range(F.q)], (F, a)


def test_field_axioms_above_the_table_limit():
    # F_{2^9}: the methods give the same answers before and after a walk
    # builds its lookup tables, and a later walk reuses those tables
    F = make_field(2, 9)
    sample = range(0, F.q, 37)

    def arithmetic():
        for a in sample:
            for b in sample:
                assert F.mul(a, b) == F.mul(b, a)
                assert F.sub(F.add(a, b), b) == a
                for c in (1, 2, 300, 511):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            if a:
                # a**(q - 2) = a**2 * a**4 * ... * a**256, the squares of a
                squares = [a]
                for _ in range(8):
                    squares.append(F.mul(squares[-1], squares[-1]))
                assert F.mul(a, reduce(F.mul, squares[1:])) == 1
            assert F.add(a, F.neg(a)) == 0
        return [(F.add(a, b), F.mul(a, b)) for a in sample for b in sample]

    before = arithmetic()
    type_counts(F, 2)
    tables = F._tables
    assert arithmetic() == before
    type_counts(F, 2, squarefree_only=True)
    irreducibles(F, 2)
    assert F._tables is tables


@pytest.mark.parametrize("p, n", [(17, 2), (2, 9)], ids=["F_289", "F_512"])
def test_type_counts_above_the_table_limit(p, n):
    # d = 2: q(q+1)/2 products of two linear factors, q(q-1)/2 of them
    # squarefree, and (q**2 - q)/2 irreducible quadratics
    F = make_field(p, n)
    q = F.q
    irreducible = (q * q - q) // 2
    assert type_counts(F, 2) == {Partition([1, 1]): q * (q + 1) // 2, Partition([2]): irreducible}
    assert type_counts(F, 2, squarefree_only=True) == {
        Partition([1, 1]): q * (q - 1) // 2,
        Partition([2]): irreducible,
    }


def test_irreducible_indices_are_stored_compactly():
    # 8 bytes per sieve index, not an int object of 28 bytes or more per
    # index: the stored indices and every object they hold, by getsizeof
    F = make_field(101)
    type_counts(F, 2)
    stored = F._irr[2]
    held = sys.getsizeof(stored) + sum(map(sys.getsizeof, gc.get_referents(stored)))
    assert held < 9 * len(stored)


def test_walks_leave_no_reference_cycles():
    # the seen-map and pools are freed when a walk returns, not at the
    # next collection: the packed, prime tuple and table kernels
    for p, n, d in ((3, 1, 6), (101, 1, 2), (2, 2, 4)):
        F = make_field(p, n)
        gc.collect()
        gc.disable()
        try:
            type_counts(F, d)
            assert gc.collect() == 0, (F, d)
        finally:
            gc.enable()


def test_irreducibles_over_f2():
    f2 = make_field(2)
    table = irreducibles(f2, 3)
    assert list(table[2]) == [(1, 1, 1)]
    assert sorted(table[3]) == [(1, 0, 1, 1), (1, 1, 0, 1)]


def test_irreducibles_linear_over_f3():
    f3 = make_field(3)
    table = irreducibles(f3, 1)
    assert list(table[1]) == [(0, 1), (1, 1), (2, 1)]


def test_irreducibles_are_coefficient_tuples_built_without_polynomials(monkeypatch):
    # the sieve's one reader spells coefficient tuples in sieve order,
    # the trial-division oracle's order, and wraps none in an FqPoly
    def no_poly(self, *args, **kwargs):
        raise AssertionError("FqPoly built by irreducibles")

    monkeypatch.setattr(FqPoly, "__init__", no_poly)
    for F, max_degree in ((make_field(2), 10), (make_field(2, 2), 4)):
        table = {k: tuple(polys) for k, polys in irreducibles(F, max_degree).items()}
        assert table == irreducibles_by_division(F, max_degree)


def test_irreducible_counts_match_root_test_oracle():
    # independent oracle for degree <= 3: irreducible iff no roots
    for p, n in ((2, 1), (3, 1), (5, 1), (2, 2)):
        F = make_field(p, n)
        table = irreducibles(F, 3)
        for deg in (2, 3):
            rootless = 0
            for tail in product(range(F.q), repeat=deg):
                g = FqPoly(F, tail + (1,))
                if all(g.evaluate(x) != 0 for x in range(F.q)):
                    rootless += 1
            assert len(table[deg]) == rootless


def test_budget_error_names_the_budget():
    f5 = make_field(5)
    with pytest.raises(BudgetExceeded, match="budget of 100"):
        irreducibles(f5, 4, budget=100)
    with pytest.raises(BudgetExceeded, match="budget of 10"):
        census(f5, 3, builtin("one", 3), budget=10)


def test_factorization_type_worked_examples():
    # g = x^2 (x+1) (x^2+1) over F_3 has type [2,1,1,1]
    f3 = make_field(3)
    g = field_mul(f3, field_mul(f3, (0, 0, 1), (1, 1)), (1, 0, 1))
    assert factorization_type(f3, g) == (Partition([2, 1, 1, 1]), False)
    # h = (x+1)(x-1)(x^3 - x + 1) over F_3 has type [3,1,1]
    h = field_mul(f3, field_mul(f3, (1, 1), (2, 1)), (1, 2, 0, 1))
    assert factorization_type(f3, h) == (Partition([3, 1, 1]), True)
    # multiplicity is not recorded beyond degree counts: x^2 has type [1,1]
    assert factorization_type(f3, (0, 0, 1)) == (Partition([1, 1]), False)
    assert factorization_type(make_field(2), (0, 0, 1)) == (Partition([1, 1]), False)


def test_factorization_type_against_explicit_products():
    # multiply random irreducibles together and recover the type
    rng = random.Random(31)
    for p, n in ((2, 1), (3, 1), (2, 2)):
        F = make_field(p, n)
        pool = [g for deg in (1, 2, 3) for g in irreducibles(F, 3)[deg]]
        for _ in range(25):
            factors = rng.choices(pool, k=rng.randrange(1, 4))
            prod = (1,)
            for g in factors:
                prod = field_mul(F, prod, g)
            expected = Partition(sorted((len(g) - 1 for g in factors), reverse=True))
            assert factorization_type(F, prod)[0] == expected


def test_census_worked_examples():
    f2 = make_field(2)
    assert census(f2, 2, builtin("R", 2)) == Fraction(3, 2)
    f3 = make_field(3)
    assert census(f3, 2, builtin("one", 2)) == 1
    assert census(f3, 2, indicator(Partition([2]))) == Fraction(1, 3)


def test_census_normalizations():
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = make_field(p, n)
        for d in (1, 2, 3):
            assert census(F, d, builtin("one", d)) == 1
            sf = census(F, d, builtin("one", d), squarefree_only=True)
            if d == 1:
                assert sf == 1
            else:
                assert sf == 1 - Fraction(1, F.q)


def test_census_of_a_character_polynomial_reads_its_class_function():
    for p, n, top in ((2, 1, 6), (3, 1, 4), (2, 2, 3)):
        F = make_field(p, n)
        for spec in ("x1^2-x2", "x1*x3/5", "x4"):
            P = parse_character_polynomial(spec)
            for d in range(1, top + 1):
                for squarefree in (False, True):
                    assert census(F, d, P, squarefree_only=squarefree) == census(
                        F, d, P.class_function(d), squarefree_only=squarefree
                    )


def test_census_rejects_degree_mismatch():
    # before the walk, with the message of the class function's at_degree
    F = make_field(2)
    with pytest.raises(DegreeMismatch, match=r"^statistic is for degree 2, not 3$"):
        census(F, 3, builtin("one", 2))
    with pytest.raises(DegreeMismatch, match=r"^statistic is for degree 4, not 3$"):
        census(F, 3, builtin("R", 4), squarefree_only=True)
    assert F._hist == {}


def test_census_deterministic_across_thread_counts():
    results = []
    for threads in (1, 2, 4, 7):
        F = make_field(3)  # fresh field: no shared cache between runs
        results.append(type_counts(F, 4, threads=threads))
    assert all(r == results[0] for r in results)


def test_type_counts_add_up():
    F = make_field(3)
    counts = type_counts(F, 3)
    assert sum(counts.values()) == 27
    sf = type_counts(F, 3, squarefree_only=True)
    assert sum(sf.values()) == 27 - 9
    assert all(sf[lam] <= counts[lam] for lam in sf)


def test_packed_kernel_applies_below_the_slot_bound():
    # (d // 2 + 1) * (p - 1)**2 <= 255: F_11 packs to degree 3, F_7 to 13
    assert _packs(make_field(11), 3) and not _packs(make_field(11), 4)
    assert _packs(make_field(7), 13) and not _packs(make_field(7), 14)
    assert _packs(make_field(2), 20) and not _packs(make_field(13), 2)
    assert not _packs(make_field(2, 2), 2)  # extension fields multiply tuples


def test_type_counts_match_trial_division_reference():
    # reference: classify every monic polynomial by trial division by the
    # oracle's own irreducibles; the prime fields run the packed kernel,
    # F_11 at d = 4 and the extension fields the tuple kernels
    cases = (
        ((2, 1), 8), ((3, 1), 5), ((5, 1), 4), ((7, 1), 4), ((11, 1), 4), ((2, 2), 4), ((3, 2), 3),
    )
    for (p, n), max_d in cases:
        F = make_field(p, n)
        irr = irreducibles_by_division(F, max_d // 2)
        for d in range(1, max_d + 1):
            ref_all, ref_sf = {}, {}
            for tail in product(range(F.q), repeat=d):
                lam, squarefree = factorization_type(F, tail + (1,), irr)
                ref_all[lam] = ref_all.get(lam, 0) + 1
                if squarefree:
                    ref_sf[lam] = ref_sf.get(lam, 0) + 1
            assert type_counts(F, d) == ref_all, (F, d)
            assert type_counts(F, d, squarefree_only=True) == ref_sf, (F, d)


def repeat_x(p, n, d):
    # F_{p^n} with its degree < d sieved, then x listed twice among the
    # linear irreducibles: stored by sieve index, x + c has index c
    F = make_field(p, n)
    type_counts(F, d - 1)
    F._irr[1] = (0,) + tuple(F._irr[1])
    return F


def test_repeated_irreducible_breaks_unique_factorization():
    F = repeat_x(3, 1, 2)
    assert _packs(F, 2)
    with pytest.raises(ConsistencyError, match=r"x\^2 over F_3 arises from two"):
        type_counts(F, 2)


@pytest.mark.parametrize(
    "p, n, d",
    [(11, 1, 4), (2, 2, 2), (17, 2, 2)],
    ids=["F_11 d=4", "F_4 tables", "F_289 tables built by the walk"],
)
def test_unpacked_kernels_catch_a_repeated_irreducible(p, n, d):
    F = repeat_x(p, n, d)
    assert not _packs(F, d)
    with pytest.raises(ConsistencyError, match=rf"x\^{d} over F_{F.q} arises from two"):
        type_counts(F, d)


def test_degree_one_needs_no_walk():
    # every monic linear polynomial is irreducible and none is a product:
    # over F_{2^20} neither a seen-map nor a million tuples is built
    F = make_field(2, 20)
    tracemalloc.start()
    try:
        counts = type_counts(F, 1)
        sf = type_counts(F, 1, squarefree_only=True)
        linear = irreducibles(F, 1)[1]
        assert len(linear) == 2**20
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == sf == {Partition([1]): 2**20}
    assert peak < 100_000
    assert (linear[0], linear[5], linear[-1]) == ((0, 1), (5, 1), (2**20 - 1, 1))
    assert list(irreducibles(make_field(5), 1)[1]) == [(c, 1) for c in range(5)]


def test_extension_field_construction_is_bounded():
    # F_{2^60} would sieve F_2 to degree 30 for its modulus
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="sieving irreducibles to degree 30 .* budget of 10000000"):
        make_field(2, 60)
    assert time.perf_counter() - start < 0.1


def test_fqpoly_is_an_immutable_value():
    F3 = make_field(3)
    f = FqPoly(F3, (1, 2, 1))
    same = FqPoly(field=F3, coeffs=(1, 2, 1))
    assert f == same and hash(f) == hash(same)
    assert f != FqPoly(F3, (1, 0, 1)) and f != FqPoly(make_field(5), (1, 2, 1))
    assert repr(f) == "FqPoly(field=FqField(q=3), coeffs=(1, 2, 1))"
    for attr in ("field", "coeffs", "new"):
        with pytest.raises(AttributeError):
            setattr(f, attr, None)
    for coeffs in ((), (1, 2), (2, 0)):
        with pytest.raises(ValueError, match="FqPoly must be monic"):
            FqPoly(F3, coeffs)
    for coeffs in ((3, 1), (-1, 1), (0, 5, 1)):
        with pytest.raises(ValueError, match=r"coefficients must be field elements 0\.\.q-1"):
            FqPoly(F3, coeffs)
