"""Partition enumeration and the scalars attached to cycle types."""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest

from oracles import descending_parts
from splitstat import partitions
from splitstat.partitions import (
    Partition,
    _partition_count,
    partition_count_exceeds,
    partitions_of,
)


def partition_counts_oracle(n):
    # Independent counts p(0..n) via the classical DP over largest part:
    # table[k][m] counts the partitions of m with parts <= k.
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[k][0] = 1
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            table[k][m] = table[k - 1][m] + (table[k][m - k] if m >= k else 0)
    return table[n]


def partition_count_oracle(n):
    return partition_counts_oracle(n)[n]


def cycle_type_of(perm):
    # perm maps i -> perm[i]; returns sorted cycle lengths
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_partitions_of_zero():
    assert partitions_of(0) == (Partition(()),)


def test_partitions_of_four_order():
    got = [list(lam.parts) for lam in partitions_of(4)]
    assert got == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_partitions_of_steps_through_the_recursive_enumeration():
    for d in range(31):
        assert [lam.parts for lam in partitions_of(d)] == list(descending_parts(d, d))


def test_enumerated_partitions_match_constructed_ones():
    for d in range(31):
        for lam in partitions_of(d):
            ref = Partition(lam.parts)
            assert type(lam.parts) is tuple and (lam.parts, lam.d) == (ref.parts, ref.d)
            assert [lam.mult(j) for j in range(1, d + 1)] == [ref.mult(j) for j in range(1, d + 1)]
            assert lam.multiplicities() == ref.multiplicities()
            assert lam.centralizer_order() == ref.centralizer_order()


def test_multiplicities_match_a_count_of_the_parts():
    # reference: a Counter over the parts as given, and prod_j j**m * m!,
    # for partitions enumerated, built from shuffled parts and parsed
    rng = random.Random(20)
    for d in range(21):
        sizes = range(1, d + 2)
        for lam in partitions_of(d):
            given = list(lam.parts)
            rng.shuffle(given)
            counts = Counter(given)
            z = prod(j**m * factorial(m) for j, m in counts.items())
            text = ",".join(map(str, given))
            others = (Partition(given), Partition.parse(text), Partition.parse(f"[{text}]"))
            for built in (lam, *others):
                assert built.parts == lam.parts
                assert [built.mult(j) for j in sizes] == [counts[j] for j in sizes]
                assert built.multiplicities() == tuple(sorted(counts.items()))
                assert built.centralizer_order() == z


def test_a_partition_stores_its_parts_alone():
    assert Partition.__slots__ == ("parts", "d", "_z")
    lam = Partition([3, 1, 1])
    assert [type(getattr(lam, name)) for name in Partition.__slots__] == [tuple, int, int]


def test_partition_counts():
    assert len(partitions_of(10)) == 42 == partition_count_oracle(10)
    for d in range(13):
        assert len(partitions_of(d)) == partition_count_oracle(d)


def test_partition_count_exceeds_stops_at_the_first_degree_over_the_cap():
    for d in range(13):
        p = len(partitions_of(d))
        assert not partition_count_exceeds(d, p) and partition_count_exceeds(d, p - 1)
    # p(100) = 190569292 (Hardy and Ramanujan's table)
    assert partition_count_exceeds(100, 190569291) and not partition_count_exceeds(100, 190569292)
    assert partition_count_exceeds(10**9, 1000)


def test_partition_counts_are_counted_once():
    partition_count_exceeds(40, 10**6)
    counted = len(partitions._COUNTS)
    for d, cap in ((40, 10**6), (23, 1255), (10**9, 1255), (10**9, 387)):
        partition_count_exceeds(d, cap)
    assert len(partitions._COUNTS) == counted


COUNTS = partition_counts_oracle(120)


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-walks", "walks-so-far"])
@pytest.mark.parametrize("cap", [0, 1, 2, 387, 1255, 10**6])
def test_partition_count_exceeds_is_p_of_d_over_the_cap(monkeypatch, cap, fresh):
    # whatever order the degrees come in, and whatever counts other calls
    # left behind, the answer is p(max(d, 0)) > cap
    if fresh:
        monkeypatch.setattr(partitions, "_COUNTS", {0: 1})
    degrees = list(range(-2, 41))
    for order in (degrees, degrees[::-1], random.Random(cap).sample(degrees, len(degrees))):
        for d in order:
            assert partition_count_exceeds(d, cap) == (COUNTS[max(d, 0)] > cap), (d, cap)


def test_partition_count_exceeds_at_the_counts_themselves(monkeypatch):
    monkeypatch.setattr(partitions, "_COUNTS", {0: 1})
    for n in range(41):
        for cap in (COUNTS[n], COUNTS[n] - 1):
            for d in range(-2, 41):
                assert partition_count_exceeds(d, cap) == (COUNTS[max(d, 0)] > cap), (d, cap)


def test_partition_count_exceeds_below_one():
    # p(0) = 1: a degree d <= 0 is over a cap below 1 only, and nothing fits one
    assert not partition_count_exceeds(-3, 1) and not partition_count_exceeds(0, 1)
    assert partition_count_exceeds(-3, 0) and partition_count_exceeds(0, 0)
    assert partition_count_exceeds(-1, -5) and partition_count_exceeds(10**9, -1)


def test_a_call_reads_no_count_past_its_degree(monkeypatch):
    read = []

    def counted(n):
        read.append(n)
        return _partition_count(n)

    monkeypatch.setattr(partitions, "_COUNTS", {0: 1})
    monkeypatch.setattr(partitions, "_partition_count", counted)
    assert not partition_count_exceeds(5, 10**100)  # p(8500) would be over it
    assert read == [1, 2, 3, 4, 5]  # p(0) = 1 is stored from the start
    read.clear()
    assert not partition_count_exceeds(5, 10**100) and not partition_count_exceeds(-1, 10**100)
    assert read == []
    assert not partition_count_exceeds(8, 10**100) and read == [6, 7, 8]
    read.clear()
    # a second cap counts nothing already stored: p(5) = 7 > 5 decides it
    assert partition_count_exceeds(10**9, 5) and read == []
    assert partition_count_exceeds(10**12, 5) and not partition_count_exceeds(4, 5)  # p(4) = 5
    assert read == []
    # and a third counts on from the table only to d, or to p(13) = 101 > 100
    assert not partition_count_exceeds(10, 100) and read == [9, 10]  # p(10) = 42
    assert partition_count_exceeds(10**9, 100) and read == [9, 10, 11, 12, 13]


def test_threads_counting_at_once_give_every_answer_and_count(monkeypatch):
    # 4 threads extend one fresh table at once, switching as often as the
    # interpreter allows: the thread count never changes an answer, and
    # the table ends as p(0..120), each count under its own n
    grid = [(d, cap) for d in range(-2, 121) for cap in (0, 5, 387, 1255, 10**6, 10**30)]
    expected = {(d, cap): COUNTS[max(d, 0)] > cap for d, cap in grid}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(30):
            monkeypatch.setattr(partitions, "_COUNTS", {0: 1})
            orders = [random.Random(4 * round_ + i).sample(grid, len(grid)) for i in range(4)]
            wrong, done = [], []

            def check(order):
                wrong.extend(q for q in order if partition_count_exceeds(*q) != expected[q])
                done.append(order)  # not reached if a check raised

            threads = [threading.Thread(target=check, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), round_
            table = partitions._COUNTS
            assert len(done) == 4 and wrong == [], round_
            assert len(table) == 121 and [table[n] for n in range(121)] == COUNTS, round_
    finally:
        sys.setswitchinterval(interval)


def test_no_duplicates_and_correct_sums():
    for d in range(13):
        lams = partitions_of(d)
        assert len(set(lams)) == len(lams)
        assert all(lam.d == d for lam in lams)
        assert all(lam.parts == tuple(sorted(lam.parts, reverse=True)) for lam in lams)


def test_centralizer_orders():
    assert Partition([1, 1, 1]).centralizer_order() == 6
    assert Partition([2]).centralizer_order() == 2
    for d in range(13):
        assert Partition([1] * d).centralizer_order() == factorial(d)


def test_class_equation():
    for d in range(13):
        assert sum(factorial(d) // lam.centralizer_order() for lam in partitions_of(d)) == factorial(d)


def test_class_sizes_against_permutation_census():
    # direct census of cycle types of all of S_d for small d
    for d in range(1, 7):
        counts = {}
        for perm in permutations(range(d)):
            t = cycle_type_of(perm)
            counts[t] = counts.get(t, 0) + 1
        for lam in partitions_of(d):
            assert counts[lam.parts] == factorial(d) // lam.centralizer_order()


def test_sign_examples():
    assert Partition([1, 1, 1]).sign() == 1
    assert Partition([2, 1, 1, 1]).sign() == -1
    assert Partition([3, 1, 1]).sign() == 1


def test_sign_closed_forms_agree():
    # product form over parts vs (-1)^(d - length)
    for d in range(11):
        for lam in partitions_of(d):
            prod = 1
            for j, m in lam.multiplicities():
                prod *= (-1) ** (m * (j - 1))
            assert lam.sign() == prod == (-1) ** (lam.d - len(lam))


def test_part_counts():
    assert Partition([2, 1, 1, 1]).mult(1) == 3
    assert Partition([3, 1, 1]).mult(2) == 0
    assert Partition([5]).mult(5) == 1
    with pytest.raises(ValueError):
        Partition([3]).mult(0)


def test_labels_and_parsing():
    lam = Partition([3, 1, 1])
    assert lam.label() == "[3,1,1]"
    assert Partition.parse("[3,1,1]") == lam
    assert Partition.parse("3,1,1") == lam
    assert Partition.parse("[]") == Partition(())
    with pytest.raises(ValueError):
        Partition.parse("[3,x]")


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])
    # input order does not matter
    assert Partition([1, 3, 1]).parts == (3, 1, 1)


@pytest.mark.parametrize("parts", [[1.5], [2.0, 1], ["3"], [2, "1"], [None], [Fraction(3)]])
def test_parts_that_are_not_integers_are_refused(parts):
    # read as integers by operator.index, not truncated or parsed by int()
    with pytest.raises(ValueError, match="^partition parts must be positive integers$"):
        Partition(parts)


def test_immutability():
    lam = Partition([2, 1])
    with pytest.raises(AttributeError):
        lam.d = 5
