"""Integer symmetric functions in several alphabets, on the h-basis.

A monomial prod h_m^(i) of complete homogeneous symmetric functions,
one alphabet i per lattice basis vector, is a sorted tuple of (m, i)
pairs with m > 0, graded by the sum of the m's; the empty tuple is 1.
These monomials are a Z-basis (Macdonald, Symmetric functions and Hall
polynomials, I.2), so a polynomial is {monomial: int} and a series in t
is one such dict per degree.  Nothing here divides except exactly.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import groupby
from operator import itemgetter


def grading(state):
    return sum(map(itemgetter(0), state))


def insert(state, factor):
    """The monomial state * factor, for one factor, without re-sorting."""
    k = bisect(state, factor)
    return state[:k] + (factor,) + state[k:]


def product(a, b):
    """The monomial a * b."""
    return tuple(sorted(a + b))


@lru_cache(maxsize=None)
def power_sum(n, i):
    """p_n^(i) as {monomial: int}, by Newton's p_n = n h_n - sum_{r<n} p_r h_{n-r}."""
    out = {((n, i),): n}
    for r in range(1, n):
        for state, c in power_sum(r, i).items():
            key = insert(state, (n - r, i))
            out[key] = out.get(key, 0) - c
    return {state: c for state, c in out.items() if c}


def exp_series(v, cap):
    """prod_i H_i(t)^(v_i) up to degree cap, one {monomial: int} per degree of t.

    The series is exp(sum_n p_n(v) t^n / n), so its degree-m part solves
    m F_m = sum_{n=1}^m p_n(v) F_{m-n}, where the division is exact.
    """
    sums = [{p: c * a for i, c in enumerate(v) if c for p, a in power_sum(n, i).items()}
            for n in range(1, cap + 1)]
    out = [{(): 1}]
    for m in range(1, cap + 1):
        part = {}
        for n in range(1, m + 1):
            for p, a in sums[n - 1].items():
                for s, b in out[m - n].items():
                    key = product(s, p)
                    part[key] = part.get(key, 0) + a * b
        out.append({s: a // m for s, a in part.items() if a})
    return out


def binomials(c, n):
    """C(c, r) for r = 0..n and any integer c, negative included."""
    out = [1]
    for r in range(n):
        out.append(out[-1] * (c - r) // (r + 1))
    return out


def shift_map(weights):
    """The ring automorphism H_i(t) -> H_i(t) (1 + t)^(weights[i]), on monomials.

    It sends h_m^(i) to sum_r C(weights[i], r) h_{m-r}^(i), so in the
    image of a monomial the total r is its drop in grading.  A monomial's
    image is the image of its prefix times the image of its last factor;
    both are cached for the lifetime of the returned function.
    """
    gens = {}
    images = {(): {(): 1}}

    def image(state):
        k = len(state)
        while state[:k] not in images:
            k -= 1
        out = images[state[:k]]
        for mode, i in state[k:]:
            gen = gens.get((mode, i))
            if gen is None:
                gen = gens[mode, i] = [
                    ((mode - r, i) if r < mode else None, b)
                    for r, b in enumerate(binomials(weights[i], mode))
                    if b
                ]
            step = {}
            for s, a in out.items():
                for g, b in gen:
                    key = insert(s, g) if g else s
                    step[key] = step.get(key, 0) + a * b
            k += 1
            out = images[state[:k]] = step
        return out

    return image


def splits(state):
    """Every (s, rest) with s * rest = state, both sorted."""
    out = [((), ())]
    for factor, group in groupby(state):
        k = len(tuple(group))
        out = [(s + (factor,) * j, r + (factor,) * (k - j)) for s, r in out for j in range(k + 1)]
    return out
