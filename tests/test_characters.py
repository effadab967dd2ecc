"""Character calculus: blocks, virtual tangents, Euler classes."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nesthilb.characters import (
    DegenerateSpecializationError,
    LocalizationError,
    TrivialWeightError,
    block_character,
    block_character_resolution,
    chern_poly,
    euler_class,
    euler_factors,
    newton_chern,
    power_sums,
    trivial_multiplicity,
    virtual_tangent_character,
    virtual_tangent_character_resolution,
)
from nesthilb.laurent import LaurentPoly
from nesthilb.partitions import (
    EMPTY,
    NestedPair,
    Partition,
    enumerate_nested_pairs,
    enumerate_partitions,
)
from nesthilb.series import GradedPoly, linear_power


def test_block_rank():
    """Every block V(mu_a, mu_b) with |mu_a| + |mu_b| <= 10 has only positive
    multiplicities and rank |mu_a| + |mu_b|: the product route's top factor
    rests on this, since a chart block's top Chern class is then the product
    of its weights."""
    for na in range(11):
        for nb in range(11 - na):
            for mu in enumerate_partitions(na):
                for nu in enumerate_partitions(nb):
                    block = block_character(mu, nu)
                    assert all(m > 0 for m in block.terms.values()), (mu, nu)
                    assert block.rank() == na + nb, (mu, nu)


def test_block_matches_resolution_oracle():
    for na in range(4):
        for nb in range(4):
            for mu in enumerate_partitions(na):
                for nu in enumerate_partitions(nb):
                    assert block_character(mu, nu) == block_character_resolution(mu, nu)


partitions_to_8 = st.integers(0, 8).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))


@given(partitions_to_8, partitions_to_8)
@settings(max_examples=50)
def test_block_matches_resolution_oracle_to_size_8(mu, nu):
    """The arm-leg block equals the free-resolution oracle, nested or not."""
    assert block_character(mu, nu) == block_character_resolution(mu, nu)


def test_resolution_oracle_stays_in_integers():
    """(1 - t1)(1 - t2) is monic, so the oracle's exact divisions leave int
    coefficients: every resolution block and tangent to size 3."""
    partitions = [mu for n in range(4) for mu in enumerate_partitions(n)]
    characters = [block_character_resolution(mu, nu) for mu in partitions for nu in partitions]
    characters += [
        virtual_tangent_character_resolution(pair)
        for n1 in range(4)
        for n2 in range(n1 + 1)
        for pair in enumerate_nested_pairs(n1, n2)
    ]
    assert all(type(c) is int for ch in characters for c in ch.terms.values())


def test_tangent_matches_resolution_oracle():
    for n1 in range(4):
        for n2 in range(n1 + 1):
            for pair in enumerate_nested_pairs(n1, n2):
                assert virtual_tangent_character(pair) == (
                    virtual_tangent_character_resolution(pair)
                )


def test_closed_forms_one_point():
    one = Partition((1,))
    assert virtual_tangent_character(NestedPair(one, one)) == LaurentPoly(
        {(-1, 0): 1, (0, -1): 1}
    )
    assert virtual_tangent_character(NestedPair(one, EMPTY)) == LaurentPoly(
        {(-1, 0): 1, (0, -1): 1, (-1, -1): -1}
    )


def test_nested_pairs_compare_by_value():
    """Two nested pairs built separately from equal partitions are equal and
    hash equal, so the second tangent character read is a cache hit."""
    first = NestedPair(Partition((2, 1)), Partition((1,)))
    second = NestedPair(Partition([2, 1]), Partition([1]))
    assert first is not second and first == second and hash(first) == hash(second)
    expected = virtual_tangent_character(first)
    hits = virtual_tangent_character.cache_info().hits
    assert virtual_tangent_character(second) is expected
    assert virtual_tangent_character.cache_info().hits == hits + 1


def test_tangent_rank_and_no_trivial_weight():
    for n1 in range(6):
        for n2 in range(n1 + 1):
            for pair in enumerate_nested_pairs(n1, n2):
                t = virtual_tangent_character(pair)
                assert t.rank() == n1 + n2
                assert trivial_multiplicity(t) == 0


def test_non_nested_block_has_trivial_weight():
    """A trivial weight survives in V(mu_a, mu_b) exactly when nesting fails.

    For |mu_a| >= |mu_b| the multiplicity is exactly one; for smaller
    outer size it is at least one and can be bigger.
    """
    for na in range(5):
        for nb in range(5):
            for mu in enumerate_partitions(na):
                for nu in enumerate_partitions(nb):
                    m = trivial_multiplicity(block_character(mu, nu))
                    if mu.contains(nu):
                        assert m == 0
                    elif na >= nb:
                        assert m == 1
                    else:
                        assert m >= 1
    assert (
        trivial_multiplicity(block_character(Partition((1,)), Partition((2, 1)))) == 2
    )


def test_euler_class_basics():
    c = LaurentPoly({(1, 0): 1, (0, 1): 2, (-1, -1): -1})
    spec = (Fraction(3), Fraction(5))
    assert euler_class(c, spec) == Fraction(3 * 25, -8)


def test_euler_class_rejects_trivial_weight():
    with pytest.raises(TrivialWeightError):
        euler_class(LaurentPoly({(0, 0): 1, (1, 0): 1}), (Fraction(1), Fraction(2)))


def test_euler_class_flags_degenerate_draw():
    with pytest.raises(DegenerateSpecializationError):
        euler_class(LaurentPoly({(1, -1): 1}), (Fraction(2), Fraction(2)))


def test_euler_factors_report_a_killed_weight_before_a_trivial_one():
    """A killed nontrivial weight is a bad draw even beside a trivial weight,
    so the draw is redrawn rather than read as a vanishing class."""
    spec = (2, 2)
    with pytest.raises(DegenerateSpecializationError):
        euler_factors(LaurentPoly({(0, 0): 1, (1, -1): 1, (1, 0): 1}), spec)
    with pytest.raises(TrivialWeightError):
        euler_factors(LaurentPoly({(0, 0): 1, (1, 0): 1}), spec)


def test_chern_poly_trivial_weight_kills_top_degree():
    # a rank-2 class with one trivial summand has vanishing second Chern class
    c = LaurentPoly({(0, 0): 1, (1, 0): 1})
    g = chern_poly(c, (Fraction(3), Fraction(7)), 2)
    assert g.coeffs[0] == 1
    assert g.coeffs[1] == 3
    assert g.coeffs[2] == 0


def test_chern_poly_reads_a_killed_weight_as_a_unit_factor():
    """(2, 2) kills the weight (1, -1).  A total Chern class is a polynomial
    in the weights, so its factor 1 + 0 g is 1, as a trivial weight's is,
    and its power sums are 0: only Euler classes meet the pole rule."""
    spec = (Fraction(2), Fraction(2))
    assert chern_poly(LaurentPoly({(1, -1): 1}), spec, 1) == GradedPoly.one(1)
    assert power_sums(LaurentPoly({(1, -1): 1}), spec, 1) == [0, 0]
    live = LaurentPoly({(1, 0): 1})
    with_killed = LaurentPoly({(1, 0): 1, (1, -1): -2, (0, 0): 1})
    assert chern_poly(with_killed, spec, 3) == chern_poly(live, spec, 3)
    assert power_sums(with_killed, spec, 3) == power_sums(live, spec, 3)


nontrivial_characters = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda w: w != (0, 0)),
    st.integers(-3, 3).filter(bool),
    max_size=5,
).map(LaurentPoly)


@given(
    nontrivial_characters,
    nontrivial_characters,
    st.integers(1, 97),
    st.integers(-97, 97).filter(bool),
)
@settings(max_examples=80)
def test_chern_poly_is_multiplicative(a, b, x, y):
    """c(A - B) = c(A) / c(B): a ratio integrand is one Chern class, also
    where the spec kills a weight."""
    spec = (Fraction(x), Fraction(y))
    assert chern_poly(a - b, spec, 4) == chern_poly(a, spec, 4).divide(chern_poly(b, spec, 4))


@given(
    nontrivial_characters,
    st.integers(-97, 97).filter(bool),
    st.integers(-97, 97).filter(bool),
    st.integers(0, 8),
)
@settings(max_examples=80)
def test_chern_poly_matches_binomial_product(c, x, y, cap):
    """Newton's identities in integers agree with multiplying out the
    binomial series (1 + w g)^mult weight by weight, also where the spec
    kills a weight."""
    expected = GradedPoly.one(cap)
    for (u, v), mult in c.terms.items():
        expected = expected * linear_power(u * x + v * y, mult, cap)
    got = chern_poly(c, (x, y), cap)
    assert got == expected
    assert all(type(coeff) is int for coeff in got.coeffs)


def test_chern_poly_rejects_non_integer_specialization():
    # at x = 1/2 the first power sum is 1/2, which no integer e_1 matches
    with pytest.raises(LocalizationError, match="not integral"):
        chern_poly(LaurentPoly({(1, 0): 1}), (Fraction(1, 2), 1), 1)


small_specs = st.tuples(st.integers(-4, 4).filter(bool), st.integers(-4, 4).filter(bool))


def newton_chern_at(p):
    """newton_chern at one point: the Chern classes of one list p of signed
    power sums, each p_k passed as a column of one entry."""
    return [e for (e,) in newton_chern([[x] for x in p])]


def _newton_chern_poly(c, spec, cap):
    """Chern classes by Newton's identities on the power sums: the product
    route's algorithm."""
    return GradedPoly(cap, newton_chern_at(power_sums(c, spec, cap)))


virtual_characters = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-3, 3).filter(bool),
    max_size=6,
).map(LaurentPoly)


@given(virtual_characters, small_specs, st.integers(0, 7))
@settings(max_examples=200)
def test_chern_poly_matches_newton_on_power_sums(c, spec, cap):
    """The linear-factor product and Newton's identities give the same Chern
    classes of a virtual character, negative multiplicities, trivial weights
    and killed weights included."""
    assert chern_poly(c, spec, cap) == _newton_chern_poly(c, spec, cap)


@given(st.lists(virtual_characters, min_size=1, max_size=5), small_specs, st.integers(0, 6))
@settings(max_examples=100)
def test_newton_chern_solves_each_column(chars, spec, cap):
    """newton_chern on the power sums of several characters as columns gives,
    at each point, the Chern classes of that point's character alone."""
    columns = [list(p) for p in zip(*(power_sums(c, spec, cap) for c in chars))]
    solved = newton_chern(columns)
    for i, c in enumerate(chars):
        assert [e[i] for e in solved] == chern_poly(c, spec, cap).coeffs


@given(nontrivial_characters, nontrivial_characters, small_specs, st.integers(0, 6))
@settings(max_examples=120)
def test_power_sums_add_over_a_sum(a, b, spec, cap):
    """power_sums of a + b is the sum of the power sums of a and of b at
    every spec, killed weights included, and Newton's identities on it give
    chern_poly(a + b)."""
    pa, pb = power_sums(a, spec, cap), power_sums(b, spec, cap)
    p = power_sums(a + b, spec, cap)
    assert p == [x + y for x, y in zip(pa, pb)]
    assert GradedPoly(cap, newton_chern_at(p)) == chern_poly(a + b, spec, cap)


@given(st.lists(nontrivial_characters, min_size=1, max_size=4), small_specs)
@settings(max_examples=120)
def test_euler_factors_multiply_to_euler_class(parts, spec):
    try:
        factors = [euler_factors(c, spec) for c in parts]
    except DegenerateSpecializationError:
        assume(False)
    num = den = 1
    for n, d in factors:
        num, den = num * n, den * d
    assert all(type(f) is int for f in (num, den))
    assert Fraction(num, den) == euler_class(sum(parts[1:], parts[0]), spec)
