"""Necklace polynomials and splitting measures."""

import ast
import inspect
import random
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstat import expect, measures, sym_chars
from splitstat.errors import BudgetExceeded, ConsistencyError
from oracles import poly_add, poly_mul, poly_sum, upoly
from splitstat.exact import Q_VAR, U_VAR, UPoly
from splitstat.expect import expected, expected_sf, stable_limit
from splitstat.gf import irreducibles, make_field, type_counts
from splitstat.lie_chars import phi_table, psi_table
from splitstat.measures import (
    PARTITION_BUDGET,
    check_partition_budget,
    measure_rows,
    necklace,
    sf_splitting_measure,
    splitting_measure,
)
from splitstat.partitions import Partition, partitions_of
from splitstat.sym_chars import builtin_polynomial, parse_character_polynomial


def total(measure):
    return upoly(poly_sum(nu.coeffs for nu in measure.values()))


def test_necklace_small_degrees():
    assert necklace(1) == UPoly(Q_VAR, [0, 1])
    assert necklace(2) == UPoly(Q_VAR, [0, -1, 1], 2)
    assert necklace(3) == UPoly(Q_VAR, [0, -1, 0, 1], 3)
    # stored as integers over d: 12 * M_12 = q^12 - q^6 - q^4 + q^2
    m12 = necklace(12)
    assert m12.denominator == 12 and m12.numerators == (0, 0, 1, 0, -1, 0, -1) + (0,) * 5 + (1,)


def test_degree_six_probability_display():
    # M_6(q)/q^6 = (1/6)(1 - u^3 - u^4 + u^5)
    m6 = necklace(6)
    assert UPoly(U_VAR, m6.numerators[::-1], m6.denominator) == UPoly(
        U_VAR, [1, 0, 0, -1, -1, 1], 6
    )


def test_necklace_counts_match_sieve():
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = make_field(p, n)
        table = irreducibles(F, 5 if F.q <= 3 else 4)
        for deg, polys in table.items():
            assert necklace(deg).evaluate(F.q) == len(polys)


def test_measure_degree_two():
    m = splitting_measure(2)
    assert m[Partition([1, 1])] == UPoly(U_VAR, [1, 1], 2)
    assert m[Partition([2])] == UPoly(U_VAR, [1, -1], 2)


def test_sf_measure_degree_two():
    m = sf_splitting_measure(2)
    assert m[Partition([1, 1])] == UPoly(U_VAR, [1, -1], 2)
    assert m[Partition([2])] == UPoly(U_VAR, [1, -1], 2)


def test_degree_one_measures():
    assert splitting_measure(1)[Partition([1])] == UPoly(U_VAR, [1])
    assert sf_splitting_measure(1)[Partition([1])] == UPoly(U_VAR, [1])


def test_measure_normalization_identities():
    one = UPoly(U_VAR, [1])
    density = UPoly(U_VAR, [1, -1])
    for d in range(1, 13):
        assert total(splitting_measure(d)) == one
        # squarefree: every monic linear polynomial is squarefree, so the
        # d = 1 mass is 1; from d = 2 on the density is 1 - u
        expected = one if d == 1 else density
        assert total(sf_splitting_measure(d)) == expected


def test_measure_at_u_equals_one_is_point_mass():
    for d in range(1, 11):
        m = splitting_measure(d)
        for lam, p in m.items():
            assert p.evaluate(1) == (1 if lam.mult(1) == d else 0)


def test_constant_term_is_reciprocal_centralizer():
    for d in range(1, 11):
        m = splitting_measure(d)
        for lam, p in m.items():
            assert p.coeff(0) == Fraction(1, lam.centralizer_order())


def test_u_degree_bounded_by_cohomological_range():
    # the top coefficient lives at u^(d-1): the product counting types has
    # zero constant term in q, so u^d never appears
    for d in range(1, 11):
        m = splitting_measure(d)
        for lam, p in m.items():
            assert len(p.numerators) - 1 <= d - 1
        assert len(m[Partition([1] * d)].numerators) - 1 == d - 1


def test_measure_matches_census_frequencies():
    for p, n, d in ((3, 1, 3), (2, 1, 4), (5, 1, 2), (2, 2, 2), (2, 1, 10), (3, 1, 7)):
        F = make_field(p, n)
        u = Fraction(1, F.q)
        counts = type_counts(F, d)
        m = splitting_measure(d)
        for lam in partitions_of(d):
            freq = Fraction(counts.get(lam, 0), F.q**d)
            assert m[lam].evaluate(u) == freq


def test_sf_measure_matches_census_frequencies():
    for p, n, d in ((3, 1, 3), (2, 1, 4), (2, 2, 2), (5, 1, 2)):
        F = make_field(p, n)
        u = Fraction(1, F.q)
        counts = type_counts(F, d, squarefree_only=True)
        m = sf_splitting_measure(d)
        for lam in partitions_of(d):
            freq = Fraction(counts.get(lam, 0), F.q**d)
            assert m[lam].evaluate(u) == freq


def test_measures_reject_nonpositive_degree():
    with pytest.raises(ValueError):
        splitting_measure(0)
    with pytest.raises(ValueError):
        measure_rows(0, squarefree=False)
    with pytest.raises(ValueError):
        necklace(0)


@pytest.mark.usefixtures("partitions_of_refused_past_the_cap")
def test_partition_route_cap_admits_d_23_and_refuses_d_24():
    # the guard patches the package's modules: this module's partitions_of is the real one
    assert len(partitions_of(23)) <= PARTITION_BUDGET < len(partitions_of(24))
    check_partition_budget(23)
    for d in (24, 60, 10**9):
        message = f"d={d} needs p\\(d\\) factorization types, more than the cap of 1255"
        with pytest.raises(BudgetExceeded, match=message):
            check_partition_budget(d)
    for build in (
        lambda: measure_rows(24, squarefree=True),
        lambda: splitting_measure(200),
        lambda: psi_table(10**9),
        lambda: phi_table(10**9),
    ):
        with pytest.raises(BudgetExceeded, match=f"cap of {PARTITION_BUDGET}"):
            build()


def test_the_partition_cap_follows_the_budget_in_force(monkeypatch):
    # the cap check reads PARTITION_BUDGET on every call: lifted to p(30),
    # d = 30 passes and d = 31 is refused; put back, d = 24 is refused again
    monkeypatch.setattr(measures, "PARTITION_BUDGET", 5604)  # p(30)
    check_partition_budget(30)
    with pytest.raises(BudgetExceeded, match="d=31 needs .* the cap of 5604$"):
        check_partition_budget(31)
    monkeypatch.setattr(measures, "PARTITION_BUDGET", 1255)
    check_partition_budget(23)
    with pytest.raises(BudgetExceeded, match="d=24 needs .* the cap of 1255$"):
        check_partition_budget(24)


def test_measure_is_a_read_only_mapping_in_partition_order():
    for measure in (splitting_measure(5), sf_splitting_measure(5)):
        assert tuple(measure) == partitions_of(5)
        with pytest.raises(TypeError):
            measure[Partition([5])] = UPoly(U_VAR, [1])


def test_measure_is_column_over_centralizer_order():
    # column lam of the stored rows is z_lam * nu(lam)
    for squarefree, measure in ((False, splitting_measure(7)), (True, sf_splitting_measure(7))):
        rows = measure_rows(7, squarefree=squarefree)
        assert [len(row) for row in rows] == [len(partitions_of(7))] * 7
        assert all(type(c) is int for row in rows for c in row)
        for lam, column in zip(partitions_of(7), zip(*rows)):
            z = lam.centralizer_order()
            assert measure[lam] == UPoly(U_VAR, column, z)
            assert [measure[lam].coeff(k) for k in range(7)] == [Fraction(c, z) for c in column]


def fraction_measure(lam, squarefree):
    # Reference for the integer kernel: nu(lam) as a product of polynomial
    # binomial coefficients in Fraction q-polynomials, prod over part
    # sizes j of C(M_j + m_j - 1, m_j), or C(M_j, m_j) when squarefree,
    # divided by q**d: its u-coefficients, the q-coefficients reversed.
    prod = [1]
    for j, m in lam.multiplicities():
        for i in range(m):
            prod = poly_mul(prod, poly_add(necklace(j).coeffs, [-i if squarefree else i]))
        prod = poly_mul(prod, [Fraction(1, factorial(m))])
    assert len(prod) == lam.d + 1
    return prod[::-1]


def oracle_products(lams, squarefree):
    # z_lam * nu(lam) from the Fraction product, to u**(w-1), the
    # cohomological range (u**0 for the empty partition)
    return [
        [c * lam.centralizer_order() for c in fraction_measure(lam, squarefree)[: max(lam.d, 1)]]
        for lam in lams
    ]


def test_integer_measure_product_is_the_fraction_product_times_z():
    # d = 21 reads its 792 leaves in four blocks of 256; [1^21], the last
    # leaf, has z = 21! >= 2**63 and is read slot by slot; each walk is built afresh
    measures.packed_measure.cache_clear()
    for squarefree in (False, True):
        for d in (*range(1, 13), 16, 21):
            rows = measure_rows(d, squarefree=squarefree)
            assert all(type(c) is int for row in rows for c in row)
            want = oracle_products(partitions_of(d), squarefree)
            assert rows == tuple(tuple(nu[k] for nu in want) for k in range(d)), d


def test_every_row_value_fits_the_slot_width_fixed_by_d():
    # |row_k[lam]| <= z_lam (each factor j*M_j +- j*i has l1 norm at most
    # j*(1 + i)) and z_lam divides d!, so a value times lcm(z) / z_lam is
    # at most lcm(z) <= d!: the width packed_measure fixes from d alone
    # holds the rows and their pairings
    for d in range(1, 24):
        lams = partitions_of(d)
        assert all(factorial(d) % lam.centralizer_order() == 0 for lam in lams)
        for squarefree in (False, True):
            for row in measure_rows(d, squarefree=squarefree):
                assert all(abs(v) <= lam.centralizer_order() for v, lam in zip(row, lams))
    widths = {d: measures.packed_measure(d, squarefree=False)[1] for d in (1, 16, 20, 21, 23)}
    assert widths == {1: 128, 16: 128, 20: 192, 21: 192, 23: 192}


def test_measure_products_of_any_list_in_the_order_given():
    # mixed weights, repeats, a partition that is a prefix of another
    # ([1] of [1,1], [2] of [2,2,1]) and the empty partition
    lams = [
        Partition(parts)
        for parts in ([3, 1], [1], [], [1, 1], [5, 2, 2], [2, 2, 1], [1], [2], [4, 4, 1, 1], [])
    ]
    for squarefree in (False, True):
        got = measures._measure_products(lams, squarefree, 9)  # every slot of weight <= 10
        assert got == oracle_products(lams, squarefree)
        assert got[2] == [1] and got[1] == got[6]
        assert measures._measure_products([], squarefree, 0) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 10).flatmap(lambda w: st.sampled_from(partitions_of(w))), max_size=12),
    st.booleans(),
)
def test_measure_products_match_the_fraction_product(lams, squarefree):
    # order 9 reads every slot of weight <= 10
    assert measures._measure_products(lams, squarefree, 9) == oracle_products(lams, squarefree)


def count_factor_steps(monkeypatch):
    # the parts t of every factor step the measure walk takes from here on,
    # each one multiply by a packed factor: the factors are ints that note
    # each product they are taken into, and hand back a plain int
    steps = []

    class Factor(int):
        def __rmul__(self, other):
            steps.append(self.part)
            return int(other) * int(self)

        __mul__ = __rmul__

    def counted(j, shift, width):
        factor = Factor(real(j, shift, width))
        factor.part = j
        return factor

    real = measures._packed_factor
    monkeypatch.setattr(measures, "_packed_factor", counted)
    return steps


def direct_product(lam, squarefree, width):
    # z_lam * nu(lam) packed, every factor of lam multiplied in
    prod = 1
    for j, m in lam.multiplicities():
        for i in range(m):
            prod *= measures._packed_factor(j, (-j if squarefree else j) * i, width)
    return prod


@pytest.mark.parametrize(
    "weights, shuffled",
    [([d], False) for d in range(13)] + [(range(9), False), (range(9), True)],
    ids=[*map(str, range(13)), "mixed", "mixed-shuffled"],
)
def test_measure_walk_multiplies_once_per_distinct_suffix(monkeypatch, weights, shuffled):
    # The mixed list has partitions of every weight up to 8, so one's parts
    # are often a suffix of another's ([1] of [2, 1]), as in the series
    # route's binomial terms.  Shuffled with repeats, the same partitions
    # give the same leaves, each in its own place, for the same multiplies.
    lams = [lam for w in weights for lam in partitions_of(w)]
    if shuffled:
        lams = random.Random(5).sample(lams + lams[::3], len(lams) + len(lams[::3]))
    width = measures._slot_width(factorial(max(weights)) * len(lams))
    suffixes = {lam.parts[i:] for lam in lams for i in range(len(lam))}
    for squarefree in (False, True):
        want = [direct_product(lam, squarefree, width) for lam in lams]
        steps = count_factor_steps(monkeypatch)
        assert measures._packed_products(lams, squarefree, width) == want
        assert sorted(steps) == sorted(suffix[0] for suffix in suffixes)
        monkeypatch.undo()
    if weights == [12]:
        assert len(suffixes) == 153  # against 399 parts over the 77 partitions
    if weights == range(9):
        assert len(suffixes) == 66  # shuffled with repeats or not


def test_measure_walk_takes_no_frame_per_part():
    # a leaf of 301 parts walked cold, with fewer frames to spare than it
    # has parts: the walk multiplies the parts up in a loop
    lam = Partition([2] + [1] * 300)
    width = measures._slot_width(lam.centralizer_order())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        leaves = measures._packed_products([lam], False, width)
    finally:
        sys.setrecursionlimit(limit)
    assert leaves == [direct_product(lam, False, width)]


def test_measure_rows_take_one_factor_step_per_prefix_node(monkeypatch):
    # d = 12 has 153 nonempty nondecreasing part prefixes (the nonempty
    # suffixes of its parts), against 271 nonincreasing ones and 399 parts
    # over its 77 partitions
    steps = count_factor_steps(monkeypatch)
    prefixes = {lam.parts[::-1][:i] for lam in partitions_of(12) for i in range(1, len(lam) + 1)}
    assert len(prefixes) == 153 and sum(map(len, partitions_of(12))) == 399
    for squarefree in (False, True):
        steps.clear()
        measures.packed_measure.__wrapped__(12, squarefree=squarefree)  # what the rows read
        assert len(steps) == 153


def test_series_terms_share_their_prefix_steps(monkeypatch):
    # x1^20*x2^20 has 400 binomial terms with 8400 parts in all, and 420
    # distinct nondecreasing prefixes: the limit takes one step for each
    steps = count_factor_steps(monkeypatch)
    P = parse_character_polynomial("x1^20*x2^20")
    stable_limit(P, 12)
    assert len(steps) == 420
    terms, _ = expect._binomial_terms(P, 20 + 2 * 20, expect.LIMIT_BUDGET)
    assert len(terms) == 400 and sum(map(len, terms)) == 8400


def test_measure_product_checks_the_u_degree(monkeypatch):
    # a necklace polynomial with a constant term puts a q**0 term in the
    # product, u**d once reversed: the rows and the series route refuse it.
    # The rows are read out of `packed_measure`.
    def shifted(j):
        m_j = real(j)
        return UPoly(Q_VAR, poly_add(m_j.numerators, [m_j.denominator]), m_j.denominator)

    real = measures.necklace
    monkeypatch.setattr(measures, "necklace", shifted)
    for squarefree in (False, True):
        with pytest.raises(ConsistencyError, match="u-degree 3, beyond the cohomological range 2"):
            measures.packed_measure.__wrapped__(3, squarefree=squarefree)
    Q = builtin_polynomial("Q")
    for route in (lambda: expected(3, Q), lambda: expected_sf(3, Q)):
        with pytest.raises(ConsistencyError, match="u-degree 2, beyond the cohomological range 1"):
            route()


# The packed measure's stored form and slot format: `measures` alone names them.
SLOT_FORMAT = {"packed_measure", "_unpacked", "_slot_width"}
PACKAGE = Path(measures.__file__).resolve().parent


def slot_format_uses(source):
    """Each name, attribute or import in source of a SLOT_FORMAT name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in SLOT_FORMAT:
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "measures.py"], ids=lambda p: p.name
)
def test_only_measures_knows_the_slot_format(path):
    assert slot_format_uses(path.read_text(encoding="utf-8")) == []


def test_the_slot_format_scan_finds_each_kind_of_use():
    assert slot_format_uses("from .measures import measure_pairing\nx = packed_width\n") == []
    for bad in (
        "from .measures import packed_measure",
        "from .measures import _unpacked as read",
        "import splitstat.measures as m\nm._slot_width(3)",
        "columns, width = packed_measure(3, squarefree=False)",
    ):
        assert len(slot_format_uses(bad)) == 1, bad
    assert slot_format_uses((PACKAGE / "measures.py").read_text(encoding="utf-8"))


# Packed signed slots are read in C by `measures.signed_words` alone; gf's
# census packs unsigned mod-p bytes, a format of its own.
BYTE_READERS = {"measures.py", "gf.py"}


def byte_handling(source):
    """Each import of array or struct, and each use of byteorder, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr} & {"byteorder"}
        else:
            continue
        names &= {"array", "struct", "byteorder"}
        found += [f"line {node.lineno}: {name}" for name in sorted(names)]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_reader_of_packed_slots(path):
    found = byte_handling(path.read_text(encoding="utf-8"))
    if path.name in BYTE_READERS:
        found = [use for use in found if use.endswith("byteorder")]
    assert found == []


def test_the_byte_handling_scan_finds_each_kind_of_use():
    assert byte_handling("from .measures import signed_words\nx = arrays\nstructure = 1\n") == []
    for bad in (
        "import array",
        "from array import array",
        "import struct",
        "from struct import Struct",
        "import sys\nif sys.byteorder == 'big': pass",
        "from sys import byteorder",
    ):
        assert len(byte_handling(bad)) == 1, bad


def pack(values, width):
    return sum(v << width * k for k, v in enumerate(values))


@pytest.mark.parametrize("width", [32, 128, 192])
@pytest.mark.parametrize("count", [0, 1, 256, 257, 513])
def test_signed_words_read_every_slot_as_signed_slots_does(width, count):
    # the extremes of the 32-bit slot or of the 64-bit word read from a
    # wide one; each integer packs one slot more than is read, which the
    # reader must drop
    top = 31 if width == 32 else 63
    edges = [-(1 << top), (1 << top) - 1, -1, 0, 1, 1 - (1 << top)]
    rng = random.Random(width * 1000 + count)
    slots = 5
    ints = [pack(rng.choices(edges, k=slots + 1), width) for _ in range(count)]
    if count:
        ints[0] = pack(edges[:slots], width)  # a negative top slot read
    got = list(measures.signed_words(ints, slots, width))
    bias = measures._bias(slots, width)
    assert got == [tuple(measures._signed_slots(n + bias, slots, width)) for n in ints]
    assert list(measures.signed_words(iter(ints), slots, width)) == got


def test_signed_words_read_one_slot_and_many():
    for width in (32, 128):
        got = list(measures.signed_words([-1, 5, -(1 << 31)], 1, width))
        assert got == [(-1,), (5,), (-(1 << 31),)]
    values = list(range(-40, 40))
    assert list(measures.signed_words([pack(values, 128)], 80, 128)) == [tuple(values)]


def read_outs():
    # every read-out of packed slots, from cleared caches
    for cache in (
        psi_table, phi_table, measures.packed_measure,
        sym_chars._packed_rows, sym_chars._character_table,
    ):
        cache.cache_clear()
    lams = [lam for w in range(11) for lam in partitions_of(w)]
    return (
        psi_table(12),
        phi_table(12),
        sym_chars._character_table(12),
        list(measures.measure_columns(12, squarefree=True)),
        measures._measure_products(lams, False, 6),
        measures._measure_products(lams, True, 9),
    )


def test_read_outs_do_not_depend_on_the_host_byte_order(monkeypatch):
    native = read_outs()
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    try:
        assert read_outs() == native
    finally:
        monkeypatch.undo()
        read_outs()
