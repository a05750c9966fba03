"""Character tables extracted from the splitting measures."""

from math import factorial

import pytest

from oracles import char_table_json
from splitstat.lie_chars import phi_table, psi_table
from splitstat.measures import measure_rows
from splitstat.partitions import Partition, partitions_of, positions
from splitstat.sym_chars import ClassFunction, builtin, decompose, inner, sgn


def value(table, k, lam):
    """Row k of a table at the partition lam."""
    return table[k][positions(lam.d)[lam.parts]]


def row(d, table, k):
    """Row k of a table as a class function, for `inner` and `decompose`."""
    return ClassFunction.from_integers(d, table[k])


def regular_check(d):
    """Whether the psi rows sum to the regular character: d! at [1^d], 0 elsewhere."""
    sums = [sum(c) for c in zip(*psi_table(d))]
    return sums == [factorial(d) if lam.mult(1) == d else 0 for lam in partitions_of(d)]


def test_psi_degree_two():
    t = psi_table(2)
    two = Partition([2])
    onedup = Partition([1, 1])
    assert (value(t, 0, onedup), value(t, 0, two)) == (1, 1)
    assert (value(t, 1, onedup), value(t, 1, two)) == (1, -1)


def test_psi_row_zero_is_trivial():
    for d in range(1, 11):
        assert all(v == 1 for v in psi_table(d)[0])


def test_psi_row_zero_decomposes_as_one_trivial():
    for d in range(1, 9):
        assert decompose(row(d, psi_table(d), 0)) == {Partition([d]): 1}


def test_row_sums_give_regular_character():
    t = psi_table(3)
    sums = {lam: sum(value(t, k, lam) for k in range(3)) for lam in partitions_of(3)}
    assert sums[Partition([1, 1, 1])] == 6
    assert sums[Partition([2, 1])] == 0
    assert sums[Partition([3])] == 0


def test_regular_check_range():
    for d in range(1, 11):
        assert regular_check(d)


def test_identity_column_sums_to_factorial():
    for d in range(1, 11):
        identity = Partition([1] * d)
        dims = [value(psi_table(d), k, identity) for k in range(d)]
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
            assert [value(table, k, identity) for k in range(len(table))] == poincare


def test_phi_degree_two():
    t = phi_table(2)
    assert all(v == 1 for r in t for v in r)


def test_phi_degree_three_example():
    assert value(phi_table(3), 1, Partition([1, 1, 1])) == 3


def test_phi_degree_one():
    assert phi_table(1) == ((1,),)


def test_phi_row_zero_is_trivial():
    for d in range(1, 9):
        assert all(v == 1 for v in phi_table(d)[0])


def test_sign_multiplicity_is_localized():
    # <sgn, psi_d^k> is 1 exactly at k = floor(d/2), else 0
    for d in range(1, 11):
        t = psi_table(d)
        s = sgn(d)
        for k in range(d):
            expected = 1 if k == d // 2 else 0
            assert inner(s, row(d, t, k)) == expected


def test_standard_multiplicity_in_every_degree():
    # <R, psi_d^k> = 1 for every k in the cohomological range
    for d in range(1, 11):
        t = psi_table(d)
        r = builtin("R", d)
        for k in range(d):
            assert inner(r, row(d, t, k)) == 1


def test_psi_decomposition_example():
    assert decompose(row(2, psi_table(2), 1)) == {Partition([1, 1]): 1}


def test_tables_reject_nonpositive_degree():
    for table in (psi_table, phi_table):
        for d in (0, -3):
            with pytest.raises(ValueError, match="splitting measures start at degree 1"):
                table(d)


def test_tables_are_the_measure_rows():
    # psi is the rows themselves; phi signs row k by (-1)**k, once, on rows
    # measure_rows reads out afresh
    for d in range(1, 24):
        assert psi_table(d) == measure_rows(d, squarefree=False)
        phi = phi_table.__wrapped__(d)
        assert phi_table(d) == phi
        sf = measure_rows(d, squarefree=True)
        assert len(phi) == len(sf) == d
        for k in range(d):
            assert phi[k] == tuple((-1) ** k * v for v in sf[k])


def test_json_shape():
    got = char_table_json("psi", 2)
    assert got == {"0": {"[2]": 1, "[1,1]": 1}, "1": {"[2]": -1, "[1,1]": 1}}
