"""Partition combinatorics and monomial-ideal characters."""

import pickle
from functools import lru_cache

import pytest

from nesthilb.laurent import LaurentPoly
from nesthilb.partitions import (
    EMPTY,
    NestedPair,
    Partition,
    enumerate_nested_pairs,
    enumerate_partitions,
    staircase_numerator,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partition_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(enumerate_partitions(n)) == count


def test_enumeration_order_is_decreasing_lex():
    parts = [tuple(p) for p in enumerate_partitions(4)]
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_pickled_partition_hashes_and_caches_like_the_original():
    """A pickled copy of a partition is equal, hashes equal and hits the
    cache entries made with the original."""
    calls = []

    @lru_cache(maxsize=None)
    def size(mu):
        calls.append(mu)
        return mu.size

    originals = enumerate_partitions(4)
    for mu in originals:
        size(mu)
    for mu in originals:
        copy = pickle.loads(pickle.dumps(mu))
        assert copy is not mu and copy == mu and hash(copy) == hash(mu)
        assert size(copy) == 4
    assert calls == list(originals)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_containment():
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert not Partition((3, 2)).contains(Partition((2, 2, 1)))
    assert Partition((1,)).contains(EMPTY)


def test_nested_pair_rejects_non_containment():
    with pytest.raises(ValueError):
        NestedPair(Partition((2,)), Partition((1, 1)))


def test_nested_pair_count_by_direct_filter():
    for n1 in range(6):
        for n2 in range(n1 + 1):
            count = sum(
                1
                for mu in enumerate_partitions(n1)
                for nu in enumerate_partitions(n2)
                if mu.contains(nu)
            )
            assert len(enumerate_nested_pairs(n1, n2)) == count


def test_nested_pairs_empty_range():
    with pytest.raises(ValueError):
        enumerate_nested_pairs(1, 2)


def test_generators_of_staircase():
    assert Partition((2, 1)).generators() == [(0, 2), (1, 1), (2, 0)]
    assert EMPTY.generators() == [(0, 0)]


def test_resolution_numerator_consistency():
    """(1-t1)(1-t2) Z + P = 1: the resolution recovers the cokernel, whose
    character Z has one term t1^a t2^b per cell (a, b)."""
    corr = LaurentPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    for n in range(7):
        for mu in enumerate_partitions(n):
            lhs = corr * LaurentPoly(dict.fromkeys(mu.cells(), 1)) + staircase_numerator(mu)
            assert lhs == LaurentPoly.one()
