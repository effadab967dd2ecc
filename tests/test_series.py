"""Truncated power series and graded-polynomial arithmetic."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesthilb.series import (
    GradedPoly,
    Series2,
    binomial_factor_series,
    linear_power,
    product_formula,
)

CAP = 5


def graded(row, denom=1):
    """The GradedPoly of an integer row over a denominator, as the kernels
    return them: the reference arithmetic that the tests read them with."""
    return GradedPoly(len(row) - 1, [Fraction(c, denom) for c in row])

unit_series = st.dictionaries(
    st.tuples(st.integers(0, CAP), st.integers(0, CAP)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
    max_size=5,
).map(lambda t: Series2(CAP, {**t, (0, 0): 1}))

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(unit_series, rationals, rationals)
@settings(max_examples=60)
def test_pow_is_additive_in_the_exponent(s, r1, r2):
    assert s.pow(r1) * s.pow(r2) == s.pow(r1 + r2)


@given(unit_series, rationals)
@settings(max_examples=60)
def test_pow_inverse(s, r):
    assert s.pow(r) * s.pow(-r) == Series2.one(CAP)


integer_unit_series = st.dictionaries(
    st.tuples(st.integers(0, CAP), st.integers(0, CAP)), st.integers(-5, 5), max_size=5,
).map(lambda t: Series2(CAP, {**t, (0, 0): 1}))


def _geometric_inverse(s):
    """1/s as the geometric series sum (-x)^k in x = s - 1."""
    x = s - Series2.one(s.cap)
    result, power = Series2.one(s.cap), Series2.one(s.cap)
    for _ in range(s.cap):
        power = power * -x
        result = result + power
    return result


@given(integer_unit_series, st.integers(-4, 6))
@settings(max_examples=60)
def test_integer_pow_is_the_repeated_product(s, n):
    """exp(n log s) equals the n-fold product of s, or of its geometric
    inverse for n < 0; s times s.inverse() is one."""
    base = s if n >= 0 else _geometric_inverse(s)
    expected = Series2.one(CAP)
    for _ in range(abs(n)):
        expected = expected * base
    assert s.pow(n) == expected
    assert s * s.inverse() == Series2.one(CAP)


@given(unit_series)
def test_exp_log_roundtrip(s):
    assert s.log().exp() == s


small_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-2, 2), max_size=8
)


def _reference(pairs, cap):
    """The nonzero sums of (exponents, coefficient) pairs up to total degree
    cap, via a Counter."""
    total = Counter()
    for exps, c in pairs:
        if sum(exps) <= cap:
            total[exps] += c
    return {exps: c for exps, c in total.items() if c}


@settings(max_examples=200)
@given(small_terms, small_terms, st.integers(0, 4), st.integers(0, 4))
def test_sum_and_product_return_the_normal_form(ta, tb, cap_a, cap_b):
    """At unequal caps, with small coefficients that cancel often, no result
    stores a zero coefficient or a term past its cap, and each equals its
    Counter reference."""
    a, b = Series2(cap_a, ta), Series2(cap_b, tb)
    ta = {e: c for e, c in ta.items() if sum(e) <= cap_a}
    tb = {e: c for e, c in tb.items() if sum(e) <= cap_b}
    negb = [(e, -c) for e, c in tb.items()]
    cap = min(cap_a, cap_b)
    cases = [
        (a + b, [*ta.items(), *tb.items()]),
        (a - b, [*ta.items(), *negb]),
        (a * b, [((a1 + a2, b1 + b2), c1 * c2)
                 for (a1, b1), c1 in ta.items() for (a2, b2), c2 in tb.items()]),
    ]
    for result, pairs in cases:
        assert result.cap == cap
        assert 0 not in result.terms.values()
        assert all(d1 + d2 <= cap for d1, d2 in result.terms)
        assert result.terms == _reference(pairs, cap)


def test_pow_requires_unit():
    s = Series2(3, {(1, 0): 1})
    with pytest.raises(ValueError):
        s.pow(Fraction(1, 2))


def test_binomial_factor_integer_exponent():
    s = binomial_factor_series(1, 0, 2, 4)
    # (1 - q1)^2 = 1 - 2 q1 + q1^2
    assert s == Series2(4, {(0, 0): 1, (1, 0): -2, (2, 0): 1})


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda d: d != (0, 0)),
    st.builds(Fraction, st.integers(-9, 6), st.integers(1, 4)),
    st.integers(0, 6),
)
@settings(max_examples=60)
def test_binomial_factor_matches_log_exp_power(d, r, cap):
    """The direct binomial expansion equals the power series s^r of Series2.pow."""
    d1, d2 = d
    assert binomial_factor_series(d1, d2, r, cap) == Series2(cap, {(0, 0): 1, (d1, d2): -1}).pow(r)


def test_product_formula_single_family():
    # prod (1 - q^n)^-1 on the diagonal: partition counts 1,1,2,3,5,7
    s = product_formula([((1, 1), -1)], 10)
    for n, p in enumerate([1, 1, 2, 3, 5]):
        assert s.coeff(n, n) == p


def test_product_formula_rejects_constant_factor():
    with pytest.raises(ValueError):
        product_formula([((0, 0), 1)], 3)


@pytest.mark.parametrize("d1, d2, r", [(-1, 0, 2), (-2, 1, 3), (0, 0, 2)])
def test_binomial_factor_rejects_nonpositive_total_degree(d1, d2, r):
    """A monomial of total degree <= 0 has no truncated expansion: it is the
    product formula's ValueError, not the zero series or a ZeroDivisionError."""
    with pytest.raises(ValueError, match="factor monomials must have positive total degree"):
        binomial_factor_series(d1, d2, r, 4)


# ---------------------------------------------------------------------------
# graded polynomials


def test_linear_power_positive():
    g = linear_power(Fraction(3), 2, 4)
    assert g[:3] == [Fraction(1), Fraction(6), Fraction(9)]
    assert g[3] == 0


def test_linear_power_integer_mult_stays_integral():
    # (1 + 3g)^-2 = sum C(-2, k) 3^k g^k = sum (-1)^k (k + 1) 3^k g^k
    g = linear_power(3, -2, 5)
    assert g == [(-1) ** k * (k + 1) * 3**k for k in range(6)]
    assert all(type(c) is int for c in g)
    assert linear_power(-1, 3, 5) == [1, -3, 3, -1, 0, 0]
    assert linear_power(1, Fraction(1, 2), 2) == [1, Fraction(1, 2), Fraction(-1, 8)]


def test_linear_power_negative_is_inverse():
    w = Fraction(5, 2)
    a = linear_power(w, 3, 6)
    b = linear_power(w, -3, 6)
    assert graded(a) * graded(b) == GradedPoly.one(6)


def test_divide_roundtrip():
    a = GradedPoly(4, [1, 2, 3, 4, 5])
    b = GradedPoly(4, [1, -1, 7, 0, 2])
    assert a.divide(b) * b == a


def test_divide_requires_unit():
    a = GradedPoly(2, [1, 1, 1])
    b = GradedPoly(2, [0, 1, 0])
    with pytest.raises(ValueError):
        a.divide(b)
