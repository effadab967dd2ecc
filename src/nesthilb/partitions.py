"""Partitions, nested pairs, and torus characters of monomial ideals."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import ge

from .laurent import LaurentPoly


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def size(self):
        return sum(self)

    def __repr__(self):
        return f"Partition{tuple(self)}"

    def contains(self, other):
        """Containment of Young diagrams: other fits inside self row by row."""
        return len(other) <= len(self) and all(map(ge, self, other))

    def cells(self):
        """Zero-based (row, column) cells; cell (a, b) is the monomial t1^a t2^b."""
        for a, row in enumerate(self):
            for b in range(row):
                yield (a, b)

    def generators(self):
        """Exponents of the minimal monomial generators of the ideal.

        Row a of the diagram occupies columns 0..self[a]-1 with t1-exponent a;
        the ideal below the staircase is generated by the corner monomials.
        """
        gens = []
        prev = None
        for a in range(len(self) + 1):
            width = self[a] if a < len(self) else 0
            if prev is None or width < prev:
                gens.append((a, width))
            prev = width
        return gens


EMPTY = Partition()


class NestedPair(namedtuple("NestedPair", "outer inner")):
    """A containment pair of partitions: inner fits inside outer."""

    __slots__ = ()

    def __new__(cls, outer, inner):
        if not outer.contains(inner):
            raise ValueError("inner partition does not fit inside outer")
        return super().__new__(cls, outer, inner)


@lru_cache(maxsize=None)
def enumerate_partitions(n):
    """All partitions of n, in decreasing lexicographic order of part tuples.

    The order is canonical: (4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def partition_tuples(k, n):
    """All k-tuples of partitions of total size n: the torus-fixed points of
    the Hilbert scheme of n points on k charts, and the Fock states of
    grading n over a rank-k lattice."""
    if k == 0:
        return [()] if n == 0 else []
    tuples = []
    for m in range(n + 1):
        rest = partition_tuples(k - 1, n - m)
        tuples.extend((mu,) + tail for mu in enumerate_partitions(m) for tail in rest)
    return tuples


@lru_cache(maxsize=None)
def enumerate_nested_pairs(n1, n2):
    """All pairs (outer of n1, inner of n2) with inner contained in outer."""
    if n1 < n2:
        raise ValueError("empty nesting range")
    pairs = []
    for outer in enumerate_partitions(n1):
        for inner in enumerate_partitions(n2):
            if outer.contains(inner):
                pairs.append(NestedPair(outer, inner))
    return tuple(pairs)


@lru_cache(maxsize=None)
def staircase_numerator(mu):
    """Numerator of the Hilbert series of the ideal's free resolution.

    Computed from the Taylor complex on the minimal monomial generators:
    every nonempty subset contributes (-1)^(size-1) times its lcm monomial.
    The cokernel character then equals (1 - numerator)/((1-t1)(1-t2)).
    """
    gens = mu.generators()
    s = len(gens)
    result = LaurentPoly.zero()
    for mask in range(1, 1 << s):
        a = b = 0
        size = 0
        for i in range(s):
            if mask >> i & 1:
                size += 1
                a = max(a, gens[i][0])
                b = max(b, gens[i][1])
        result = result + LaurentPoly.monomial(a, b, (-1) ** (size - 1))
    return result
