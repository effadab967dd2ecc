"""Ring-level properties of the exact Laurent polynomial arithmetic."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesthilb.characters import euler_class
from nesthilb.laurent import LaurentPoly
from nesthilb.series import GradedPoly

exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_additive_inverse(a):
    assert a - a == LaurentPoly.zero()
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a


@given(polys, polys)
def test_bar_is_multiplicative(a, b):
    # bar inverts every torus weight, so it is a ring involution
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().bar() == a


@given(polys, exponents)
def test_shift_is_monomial_multiplication(a, m):
    assert a.shift(m) == a * LaurentPoly.monomial(*m)


small_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
small_terms = st.dictionaries(small_exponents, st.integers(-2, 2), max_size=6)
lattice_vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def _reference(pairs):
    """The nonzero sums of (exponents, coefficient) pairs, via a Counter."""
    total = Counter()
    for exps, c in pairs:
        total[exps] += c
    return {exps: c for exps, c in total.items() if c}


@settings(max_examples=200)
@given(small_terms, small_terms, st.integers(-2, 2), small_exponents, lattice_vectors,
       lattice_vectors)
def test_every_operation_returns_the_normal_form(ta, tb, scalar, m, u, v):
    """Small coefficients cancel often; no result stores a zero coefficient,
    and each equals its Counter reference, also where a non-injective
    substitution merges terms."""
    a, b = LaurentPoly(ta), LaurentPoly(tb)
    negb = [(e, -c) for e, c in tb.items()]
    cases = [
        (a + b, [*ta.items(), *tb.items()]),
        (a - b, [*ta.items(), *negb]),
        (-b, negb),
        (a * b, [((a1 + a2, b1 + b2), c1 * c2)
                 for (a1, b1), c1 in ta.items() for (a2, b2), c2 in tb.items()]),
        (a * scalar, [(e, scalar * c) for e, c in ta.items()]),
        (a * 0, []),
        (a.bar(), [((-x, -y), c) for (x, y), c in ta.items()]),
        (a.shift(m), [((x + m[0], y + m[1]), c) for (x, y), c in ta.items()]),
    ]
    for w1, w2 in ((u, v), ((1, 0), (1, 0))):
        cases.append((a.substitute(w1, w2),
                      [((x * w1[0] + y * w2[0], x * w1[1] + y * w2[1]), c)
                       for (x, y), c in ta.items()]))
    for result, pairs in cases:
        assert 0 not in result.terms.values()
        assert result.terms == _reference(pairs)


@given(polys)
def test_rank_is_evaluation_at_one(a):
    assert a.rank() == sum(a.terms.values())


@settings(max_examples=60)
@given(polys, st.dictionaries(exponents, st.integers(-5, 5), min_size=1, max_size=4))
def test_exact_division_roundtrip(q, d_terms):
    divisor = LaurentPoly(d_terms)
    if not divisor.terms:
        return
    product = q * divisor
    assert product.divide_exact(divisor) == q


def test_division_rejects_inexact():
    # t1 + t2 is not divisible by 1 - t1
    a = LaurentPoly({(1, 0): 1, (0, 1): 1})
    d = LaurentPoly({(0, 0): 1, (1, 0): -1})
    with pytest.raises(ValueError):
        a.divide_exact(d)


def test_substitute_composes_weights():
    a = LaurentPoly({(1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 2)})
    # t1 -> t^(2,-1), t2 -> t^(0,1)
    out = a.substitute((2, -1), (0, 1))
    assert out == LaurentPoly({(2, -1): 1, (0, 1): 1, (2, 0): Fraction(1, 2)})


def test_divisions_of_integers_stay_exact():
    """Integer inputs divide into ints or Fractions, never into floats."""
    exact = (int, Fraction)
    e = euler_class(LaurentPoly({(1, 0): 1, (0, 1): -2}), (3, 5))
    assert e == Fraction(3, 25) and isinstance(e, exact)
    g = GradedPoly(2, [1, 3, 0]).divide(GradedPoly(2, [2, 1]))
    assert g.coeffs == [Fraction(1, 2), Fraction(5, 4), Fraction(-5, 8)]
    assert all(isinstance(c, exact) for c in g.coeffs)
    q = LaurentPoly({(0, 0): 1, (1, 0): 1}).divide_exact(LaurentPoly({(0, 0): 2, (1, 0): 2}))
    assert q == LaurentPoly.constant(Fraction(1, 2))
    assert all(isinstance(c, exact) for c in q.terms.values())
