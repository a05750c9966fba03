"""Character tables extracted from the splitting measures."""

from math import factorial

import pytest

from oracles import char_table_json
from splitstat.lie_chars import KIND_PHI, CharTable, phi_table, psi_table
from splitstat.partitions import Partition, partitions_of
from splitstat.sym_chars import decompose, inner, roots, sgn


def regular_check(d):
    """Whether the psi rows sum to the regular character: d! at [1^d], 0 elsewhere."""
    t = psi_table(d)
    sums = [sum(c) for c in zip(*(t.row(k).numerators for k in t.degrees))]
    return sums == [factorial(d) if lam.mult(1) == d else 0 for lam in partitions_of(d)]


def test_psi_degree_two():
    t = psi_table(2)
    two = Partition([2])
    onedup = Partition([1, 1])
    assert (t.value(0, onedup), t.value(0, two)) == (1, 1)
    assert (t.value(1, onedup), t.value(1, two)) == (1, -1)


def test_psi_row_zero_is_trivial():
    for d in range(1, 11):
        t = psi_table(d)
        assert all(t.value(0, lam) == 1 for lam in partitions_of(d))


def test_psi_row_zero_decomposes_as_one_trivial():
    for d in range(1, 9):
        assert decompose(psi_table(d).row(0)) == {Partition([d]): 1}


def test_row_sums_give_regular_character():
    t = psi_table(3)
    sums = {
        lam: sum(t.value(k, lam) for k in t.degrees) for lam in partitions_of(3)
    }
    assert sums[Partition([1, 1, 1])] == 6
    assert sums[Partition([2, 1])] == 0
    assert sums[Partition([3])] == 0


def test_regular_check_range():
    for d in range(1, 11):
        assert regular_check(d)


def test_identity_column_sums_to_factorial():
    for d in range(1, 11):
        t = psi_table(d)
        identity = Partition([1] * d)
        dims = [t.value(k, identity) for k in t.degrees]
        assert all(v >= 0 for v in dims)
        assert sum(dims) == factorial(d)


def test_identity_column_is_the_configuration_space_poincare_polynomial():
    # independent of the measures: the Poincare polynomial of d ordered
    # points in R^2 (and, in t = u^2, in R^3) is prod_{i<d} (1 + i*t), and
    # the identity class carries the dimensions of the cohomology groups
    for d in range(1, 13):
        poincare = [1]
        for i in range(1, d):
            poincare = [a + i * b for a, b in zip(poincare + [0], [0] + poincare)]
        identity = Partition([1] * d)
        for table in (psi_table(d), phi_table(d)):
            assert [table.value(k, identity) for k in table.degrees] == poincare


def test_phi_degree_two():
    t = phi_table(2)
    assert all(t.value(k, lam) == 1 for k in (0, 1) for lam in partitions_of(2))


def test_phi_degree_three_example():
    assert phi_table(3).value(1, Partition([1, 1, 1])) == 3


def test_phi_degree_one():
    t = phi_table(1)
    assert list(t.degrees) == [0]
    assert t.value(0, Partition([1])) == 1


def test_phi_row_zero_is_trivial():
    for d in range(1, 9):
        t = phi_table(d)
        assert all(t.value(0, lam) == 1 for lam in partitions_of(d))


def test_sign_multiplicity_is_localized():
    # <sgn, psi_d^k> is 1 exactly at k = floor(d/2), else 0
    for d in range(1, 11):
        t = psi_table(d)
        s = sgn(d)
        for k in t.degrees:
            expected = 1 if k == d // 2 else 0
            assert inner(s, t.row(k)) == expected


def test_standard_multiplicity_in_every_degree():
    # <R, psi_d^k> = 1 for every k in the cohomological range
    for d in range(1, 11):
        t = psi_table(d)
        r = roots(d)
        for k in t.degrees:
            assert inner(r, t.row(k)) == 1


def test_psi_decomposition_example():
    assert decompose(psi_table(2).row(1)) == {Partition([1, 1]): 1}


def test_tables_reject_nonpositive_degree():
    with pytest.raises(ValueError):
        psi_table(0)
    with pytest.raises(ValueError):
        phi_table(0)
    with pytest.raises(ValueError, match="unknown character table kind 'chi'"):
        CharTable(3, "chi")


def test_table_is_an_immutable_value_read_from_the_measure_rows():
    t = CharTable(4, KIND_PHI)
    assert repr(t) == "CharTable(d=4, kind='phi')"
    assert t == phi_table(4) and hash(t) == hash(phi_table(4)) and t != psi_table(4)
    assert char_table_json(t) == char_table_json(phi_table(4))
    for attr in ("d", "kind", "_rows", "new"):
        with pytest.raises(AttributeError):
            setattr(t, attr, None)


def test_json_shape():
    got = char_table_json(psi_table(2))
    assert got == {"0": {"[2]": 1, "[1,1]": 1}, "1": {"[2]": -1, "[1,1]": 1}}
