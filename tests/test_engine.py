"""Localization engine: fixed points, dual routes, series, universality."""

import ast
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import call
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesthilb import engine, verify
from nesthilb.characters import (
    DegenerateSpecializationError,
    LocalizationError,
    TrivialWeightError,
    block_character,
    chern_poly,
    euler_class,
    euler_factors,
    power_sums,
    virtual_tangent_character,
    virtual_tangent_character_resolution,
)
from nesthilb.engine import SpecializationDisagreement
from nesthilb.laurent import LaurentPoly
from nesthilb.partitions import EMPTY, NestedPair, Partition, enumerate_nested_pairs
from nesthilb.series import GradedPoly, Series2
from nesthilb.toric import ToricSurface, builtin_surface, chern_numbers
from test_characters import newton_chern_at
from test_toric import global_weight, surfaces_with_bundles

P2 = builtin_surface("p2")
Q = builtin_surface("p1xp1")


def _tangent(surface, outer, inner):
    """Virtual tangent character at the nested fixed point (outer, inner),
    substituted into the global weights and summed over the charts; at
    (tup, tup) it is the tangent of one Hilbert scheme, since T(mu, mu) =
    V(mu, mu)."""
    return sum(
        (virtual_tangent_character(NestedPair(outer[c.index], inner[c.index])).substitute(c.u, c.v)
         for c in surface.charts),
        LaurentPoly.zero(),
    )


def _fiber_character(surface, bundle, tup_a, tup_b):
    """Global character of the fiber class at a product fixed point, with
    source ideals from tup_a and target ideals from tup_b, twisted by
    `bundle` (None: untwisted)."""
    total = LaurentPoly.zero()
    for c in surface.charts:
        block = engine._global_block(c.u, c.v, tup_a[c.index], tup_b[c.index])
        total = total + (block if bundle is None else block.shift(global_weight(bundle, c)))
    return total


def _integrand_character(surface, nums, dens, tup_a, tup_b):
    """Twisted fiber characters of nums minus those of dens: the virtual
    character whose total Chern class is prod c(nums) / prod c(dens)."""
    total = LaurentPoly.zero()
    for m in nums:
        total = total + _fiber_character(surface, m, tup_a, tup_b)
    for m in dens:
        total = total - _fiber_character(surface, m, tup_a, tup_b)
    return total


def _fixed_point_sum(surface, nums, dens, n1, n2, spec):
    """The nested localization sum over the global fixed points, one at a
    time: the reference for the chart-factorized kernel."""
    cap = n1 + n2
    total = GradedPoly(cap)
    for outer, inner in engine.enumerate_global_fixed_points(surface, n1, n2):
        e = euler_class(_tangent(surface, outer, inner), spec)
        integrand = _integrand_character(surface, nums, dens, outer, inner)
        total = total + chern_poly(integrand, spec, cap) * (1 / e)
    return total


def _raise_at_killed_weight(char, spec):
    """The Euler-class rule that a top factor keeps: raise where the spec
    kills a nontrivial weight of char, as `euler_factors` does."""
    x, y = spec
    if any(a * x + b * y == 0 for a, b in char.terms if (a, b) != (0, 0)):
        raise DegenerateSpecializationError("killed weight in a top factor")


def _assembled_point(surface, tops, nums, dens, n1, n2, spec, point):
    """The product route's summand at one product fixed point from the
    global characters: the reference for the chart-local kernel.  Each top
    factor raises where a nontrivial weight of its summed fiber blocks is
    killed; the integrand is read by `chern_poly`, a killed weight as 1."""
    tup1, tup2 = point
    cap = max((2 - len(tops)) * (n1 + n2), 0)
    scalar = 1
    for bundle, swap in tops:
        source, target = (tup2, tup1) if swap else (tup1, tup2)
        char = _fiber_character(surface, bundle, source, target)
        _raise_at_killed_weight(char, spec)
        scalar *= chern_poly(char, spec, n1 + n2).coeffs[n1 + n2]
        if not scalar:
            return GradedPoly(cap)
    e = euler_class(_tangent(surface, tup1, tup1) + _tangent(surface, tup2, tup2), spec)
    integrand = _integrand_character(surface, nums, dens, tup1, tup2)
    return chern_poly(integrand, spec, cap) * (scalar / e)


def _outcome(compute):
    try:
        return compute()
    except LocalizationError as err:
        return type(err)


def test_fixed_point_counts():
    # nested fixed points: chartwise nested pairs with the right total sizes
    points = engine.enumerate_global_fixed_points(P2, 2, 1)
    assert all(
        sum(mu.size for mu in outer) == 2 and sum(mu.size for mu in inner) == 1
        for outer, inner in points
    )
    # one chart holds (2,1): 2 nested pairs x 3 charts; outer split 1+1 over
    # two charts with the inner point on either: 3 chart pairs x 2
    assert len(points) == 12


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)"])
def test_nested_fixed_points_match_chartwise_count(name):
    """The nested fixed points number the coefficients of the k-th power of
    the one-chart series sum |nested pairs (a, b)| q1^a q2^b."""
    surface = builtin_surface(name)
    cap = 6
    grid = engine.series_grid(cap)
    chart = Series2(cap, {(a, b): len(enumerate_nested_pairs(a, b)) for a, b in grid})
    expected = chart.pow(len(surface.charts))
    for n1, n2 in grid:
        count = len(engine.enumerate_global_fixed_points(surface, n1, n2))
        assert count == expected.coeff(n1, n2), (n1, n2)


@pytest.mark.parametrize("name", ["p2", "hirzebruch(1)"])
def test_engine_tangent_is_the_oracle_sum(name):
    surface = builtin_surface(name)
    for n1, n2 in engine.series_grid(4):
        for outer, inner in engine.enumerate_global_fixed_points(surface, n1, n2):
            oracle = sum(
                (
                    virtual_tangent_character_resolution(NestedPair(o, i)).substitute(c.u, c.v)
                    for c, o, i in zip(surface.charts, outer, inner)
                ),
                LaurentPoly.zero(),
            )
            assert _tangent(surface, outer, inner) == oracle, (outer, inner)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)"])
def test_factored_kernel_matches_fixed_point_sum(name):
    """Every graded coefficient, not only the top one, of the product of
    the chart tables equals the sum over the global fixed points."""
    surface = builtin_surface(name)
    k = len(surface.charts)
    nums = [surface.line_bundle([1] + [0] * (k - 1)), surface.canonical_bundle()]
    dens = [surface.line_bundle([0, 2] + [0] * (k - 2))]
    spec = (13, 29)  # a weight (a, b) with |a|, |b| < 13 never vanishes here
    grid = engine.series_grid(5)
    sums = engine._nested_sums(surface, nums, dens, grid, spec)
    assert sorted(sums) == sorted(grid)
    for n1, n2 in grid:
        expected = _fixed_point_sum(surface, nums, dens, n1, n2, spec)
        assert sums[n1, n2] == expected, (n1, n2)
        # the one-point grid of multi_bundle_invariant and invariant_record
        assert engine._nested_sums(surface, nums, dens, [(n1, n2)], spec) == {(n1, n2): expected}


def _graded_nested_sums(surface, nums, dens, grid, spec):
    """The product of the same chart tables by GradedPoly arithmetic: the
    reference for the integer rows of `_nested_sums`."""
    keys = engine._local_keys(grid)
    cap = max(n1 + n2 for n1, n2 in grid)
    total = {(0, 0): GradedPoly.one(cap)}
    denom = 1
    for chart in surface.charts:
        table, chart_denom = engine._chart_table(chart, nums, dens, keys, spec, cap)
        denom *= chart_denom
        product = {}
        for (a1, b1), g1 in total.items():
            for (a2, b2), g2 in table.items():
                key = (a1 + a2, b1 + b2)
                if key in keys:
                    product[key] = product.get(key, GradedPoly(cap)) + g1 * g2
        total = product
    return {
        (n1, n2): GradedPoly(n1 + n2, [Fraction(c, denom) for c in total[n1, n2].coeffs])
        for n1, n2 in grid
    }


@settings(max_examples=25, deadline=None)
@given(surfaces_with_bundles())
def test_integer_rows_multiply_like_graded_polys(surface_bundle):
    """The integer-row product of the chart tables equals their GradedPoly
    product, or raises the same error, for a nums-only integrand and for a
    nums+dens one whose rows run to the full cap."""
    surface, bundle = surface_bundle
    o, k = surface.structure_sheaf(), surface.canonical_bundle()
    grid = engine.series_grid(4)
    keys = engine._local_keys(grid)
    for nums, dens in (([bundle], []), ([bundle, k], [o, o])):
        for spec in ((13, 29), (1, -3), (2, 1)):
            expected = _outcome(lambda: _graded_nested_sums(surface, nums, dens, grid, spec))
            assert _outcome(lambda: engine._nested_sums(surface, nums, dens, grid, spec)) == expected
            if dens and spec == (13, 29):
                # K twists every chart block, O leaves it alone: they never cancel
                table, _ = engine._chart_table(surface.charts[0], nums, dens, keys, spec, 4)
                assert any(entry.coeffs[4] for entry in table.values())


def test_nested_sums_run_no_graded_poly_arithmetic(monkeypatch):
    """The chart tables multiply as integer rows: no GradedPoly product or
    sum runs, and the sums equal the GradedPoly reference."""
    h = Q.line_bundle([1, 0, 0, 0])
    nums, dens = [h, Q.canonical_bundle()], [Q.structure_sheaf()]
    grid, spec = engine.series_grid(6), (13, 29)
    expected = _graded_nested_sums(Q, nums, dens, grid, spec)

    def refuse(*args):
        raise AssertionError("GradedPoly arithmetic in the nested product")

    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(GradedPoly, name, refuse)
    assert engine._nested_sums(Q, nums, dens, grid, spec) == expected


def _fraction_chart_table(chart, nums, dens, keys, spec, cap):
    """One chart's table with one Fraction Euler class per nested pair: the
    reference for the integer chart tables."""
    table = {}
    for a, b in keys:
        total = GradedPoly(cap)
        for pair in enumerate_nested_pairs(a, b):
            e = euler_class(virtual_tangent_character(pair).substitute(chart.u, chart.v), spec)
            block = engine._global_block(chart.u, chart.v, pair.outer, pair.inner)
            integrand = LaurentPoly.zero()
            for m in nums:
                integrand = integrand + block.shift(global_weight(m, chart))
            for m in dens:
                integrand = integrand - block.shift(global_weight(m, chart))
            total = total + chern_poly(integrand, spec, cap) * (1 / e)
        table[a, b] = total
    return table


def _global_chart_table(chart, nums, dens, keys, spec, cap):
    """One chart's integer table from the global characters: the tangent and
    the blocks read at the global exponents, each block twisted by the
    global bundle weights, and its Chern classes by Newton's identities on
    the power sums.  The reference for `_chart_table`, which reads them at
    the chart's own exponents with the linear-factor `chern_poly`."""
    terms = []
    for key in keys:
        for pair in enumerate_nested_pairs(*key):
            tangent = virtual_tangent_character(pair).substitute(chart.u, chart.v)
            num, den = euler_factors(tangent, spec)
            block = engine._global_block(chart.u, chart.v, pair.outer, pair.inner)
            integrand = LaurentPoly.zero()
            for m in nums:
                integrand = integrand + block.shift(global_weight(m, chart))
            for m in dens:
                integrand = integrand - block.shift(global_weight(m, chart))
            terms.append((key, newton_chern_at(power_sums(integrand, spec, cap)), num, den))
    denom = lcm(*(abs(num) for _, _, num, _ in terms))
    table = {key: [0] * (cap + 1) for key in keys}
    for key, coeffs, num, den in terms:
        factor = den * (denom // num)
        table[key] = [t + factor * c for t, c in zip(table[key], coeffs)]
    return {key: GradedPoly(cap, coeffs) for key, coeffs in table.items()}, denom


def _assert_chart_tables_match(surface, integrands, specs, cap):
    """Every chart table of every integrand equals the global assembly, or
    raises the same error, at every spec."""
    keys = engine._local_keys(engine.series_grid(cap))
    for nums, dens in integrands:
        for spec in specs:
            for c in surface.charts:
                args = (c, nums, dens, keys, spec, cap)
                expected = _outcome(lambda: _global_chart_table(*args))
                assert _outcome(lambda: engine._chart_table(*args)) == expected, (
                    c.index, spec, nums, dens)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)", "hirzebruch(2)"])
def test_chart_tables_match_global_assembly(name):
    """The chart tables at local exponents equal those of the global
    characters, also at specializations that kill weights."""
    surface = builtin_surface(name)
    k = len(surface.charts)
    h = surface.line_bundle([1] + [0] * (k - 1))
    d = surface.line_bundle([0, 2] + [0] * (k - 2))
    integrands = [([h], []), ([h, surface.canonical_bundle()], [d])]
    _assert_chart_tables_match(surface, integrands, ((13, 29), (1, 1), (1, -3), (2, 1)), 4)


@settings(max_examples=25, deadline=None)
@given(surfaces_with_bundles())
def test_chart_tables_match_global_assembly_on_random_surfaces(surface_bundle):
    surface, bundle = surface_bundle
    k = surface.canonical_bundle()
    integrands = [([bundle], []), ([bundle, k], [bundle]), ([k], [bundle])]
    _assert_chart_tables_match(surface, integrands, ((13, 29), (1, -3), (2, 1)), 3)


@settings(max_examples=50, deadline=None)
@given(surfaces_with_bundles(), st.booleans())
def test_local_twist_pairs_the_global_weight_with_the_chart_rays(surface_bundle, clockwise):
    """The shift read off the divisor coefficients is the bundle's global
    weight paired with each chart's two rays, on fans turning either way."""
    surface, bundle = surface_bundle
    if clockwise:
        surface = ToricSurface(surface.name, surface.rays[::-1])
        bundle = surface.line_bundle(bundle.coeffs[::-1])
    for chart in surface.charts:
        (w1, w2), ((a1, a2), (b1, b2)) = global_weight(bundle, chart), chart.rays
        assert engine._local_twist(chart, bundle) == (w1 * a1 + w2 * a2, w1 * b1 + w2 * b2)


def test_chart_table_nets_killed_weights_over_nums_and_dens():
    """At (1, -3) the O(1)-twisted blocks of chart 0 lose a weight that its
    tangents keep.  Alone it is a unit factor of the integrand, and the
    table equals the global reference; cancelled by a dens block, the table
    is that of the remaining integrand."""
    chart = P2.charts[0]
    h, k = P2.line_bundle([1, 0, 0]), P2.canonical_bundle()
    keys = engine._local_keys(engine.series_grid(2))
    spec = (1, -3)
    x, y = engine._local_weights(chart, spec)
    shift = engine._local_twist(chart, h)
    assert any(
        (a, b) != (0, 0) and a * x + b * y == 0
        for key in keys for pair in enumerate_nested_pairs(*key)
        for a, b in block_character(pair.outer, pair.inner).shift(shift).terms
    )
    assert engine._chart_table(chart, [h], [], keys, spec, 2) == (
        _global_chart_table(chart, [h], [], keys, spec, 2))
    cancelled = engine._chart_table(chart, [h, k], [h], keys, spec, 2)
    assert cancelled == _global_chart_table(chart, [h, k], [h], keys, spec, 2)
    assert cancelled == engine._chart_table(chart, [k], [], keys, spec, 2)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)"])
def test_chart_tables_are_integral(name):
    """Every chart table entry holds ints, and over the chart denominator
    it is the sum of Fraction Euler class quotients over the nested pairs."""
    surface = builtin_surface(name)
    k = len(surface.charts)
    nums = [surface.line_bundle([1] + [0] * (k - 1)), surface.canonical_bundle()]
    dens = [surface.line_bundle([0, 2] + [0] * (k - 2))]
    spec = (13, 29)
    cap = 6
    keys = engine._local_keys(engine.series_grid(cap))
    for chart in surface.charts:
        table, denom = engine._chart_table(chart, nums, dens, keys, spec, cap)
        assert type(denom) is int and denom > 0
        reference = _fraction_chart_table(chart, nums, dens, keys, spec, cap)
        assert sorted(table) == keys
        for key, entry in table.items():
            assert all(type(c) is int for c in entry.coeffs), (chart.index, key)
            assert [Fraction(c, denom) for c in entry.coeffs] == reference[key].coeffs, (
                chart.index, key)


def test_chart_tables_catch_killed_and_trivial_tangent_weights(monkeypatch):
    """(1, 1) kills the tangent weights (a, -a); with no integrand bundles only
    the Euler factors see them.  A trivial tangent weight is an error too."""
    grid = engine.series_grid(2)
    with pytest.raises(DegenerateSpecializationError):
        engine._nested_sums(P2, [], [], grid, (1, 1))
    assert engine._nested_sums(P2, [], [], grid, (13, 29))[0, 0].coeffs == [1]
    monkeypatch.setattr(engine, "virtual_tangent_character", lambda pair: LaurentPoly({(0, 0): 1}))
    monkeypatch.setattr(engine, "_tangent_euler", engine._tangent_euler.__wrapped__)
    with pytest.raises(TrivialWeightError):
        engine._nested_sums(P2, [], [], grid, (13, 29))


@settings(max_examples=40, deadline=None)
@given(surfaces_with_bundles())
def test_local_tangent_euler_reads_the_global_weights(surface_bundle):
    """On every chart of a random surface, the tangent Euler factors read at
    the chart's own weights equal those of the global character, or raise
    the same error, also at specializations that kill weights."""
    surface, _ = surface_bundle
    for c in surface.charts:
        for n1 in range(4):
            for n2 in range(n1 + 1):
                for pair in enumerate_nested_pairs(n1, n2):
                    tangent = virtual_tangent_character(pair).substitute(c.u, c.v)
                    for spec in ((13, 29), (1, 1), (1, -1), (2, 1)):
                        expected = _outcome(lambda: euler_factors(tangent, spec))
                        local = engine._local_weights(c, spec)
                        got = _outcome(lambda: engine._tangent_euler(local, pair))
                        assert got == expected, (c.index, pair, spec)


@pytest.mark.parametrize("name", ["p2", "hirzebruch(1)"])
def test_local_keys_are_the_chart_components(name):
    """The chart tables keep exactly the sizes (a, b) that some nested fixed
    point of the grid has on one chart, so they evaluate the same weights."""
    surface = builtin_surface(name)
    grid = engine.series_grid(5)
    for n1, n2 in grid:
        components = {
            (outer[c].size, inner[c].size)
            for outer, inner in engine.enumerate_global_fixed_points(surface, n1, n2)
            for c in range(len(surface.charts))
        }
        assert engine._local_keys([(n1, n2)]) == sorted(components), (n1, n2)
    assert engine._local_keys(grid) == sorted(grid)


def _assert_product_kernel_matches(surface, integrands, sizes, specs):
    """At every product fixed point of each size, `_product_sum` gives the
    summand of the global characters, or raises the same error.  Returns the
    outcomes and the number of summands with a value whose nums or dens
    blocks hold a killed weight, which both read as a unit factor."""
    outcomes, killed = set(), 0
    for n1, n2 in sizes:
        for spec in specs:
            for tops, nums, dens in integrands:
                for point in engine.enumerate_product_fixed_points(surface, n1, n2):
                    args = (surface, tops, nums, dens, n1, n2, spec)
                    expected = _outcome(lambda: _assembled_point(*args, point))
                    assert _outcome(lambda: engine._product_sum(*args, [point])) == expected, (
                        spec, tops, point)
                    outcomes.add(expected if isinstance(expected, type) else "value")
                    if not isinstance(expected, type) and any(
                        _outcome(lambda: _raise_at_killed_weight(block, spec))
                        for m in (*nums, *dens) for block in _chart_blocks(surface, m, *point)
                    ):
                        killed += 1
    return outcomes, killed


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)"])
def test_product_kernel_matches_assembled_characters(name):
    """At every product fixed point of (2, 1) and (3, 1), the power sums and
    Euler factors read from the cached chart factors give the summand
    of the global characters, or raise the same error, also at
    specializations that kill weights."""
    surface = builtin_surface(name)
    k = len(surface.charts)
    h = surface.line_bundle([1] + [0] * (k - 1))
    d = surface.line_bundle([0, 2] + [0] * (k - 2))
    integrands = [
        (engine._NESTED_LOCUS, [h], []),
        # the h blocks cancel: the product route subtracts their power sums
        (engine._NESTED_LOCUS, [h, surface.canonical_bundle()], [h]),
        (((h, False), (d, True)), [], []),
    ]
    outcomes, killed = _assert_product_kernel_matches(
        surface, integrands, ((2, 1), (3, 1)), ((13, 29), (1, 1), (1, -1), (2, 1)))
    assert outcomes == {"value", DegenerateSpecializationError}
    assert killed


def test_product_kernel_matches_assembled_characters_on_random_surfaces():
    """The chart-frame product kernel equals the global assembly on random
    surfaces and bundles, at every product fixed point of (1, 1) and (2, 1),
    for [M], [M, K]/[M] and a swapped two-top pairing; some summand raises
    at the spec (1, -1)."""
    outcomes = set()

    @settings(max_examples=15, deadline=None)
    @given(surfaces_with_bundles())
    def check(surface_bundle):
        surface, m = surface_bundle
        k = surface.canonical_bundle()
        integrands = [
            (engine._NESTED_LOCUS, [m], []),
            (engine._NESTED_LOCUS, [m, k], [m]),
            (((m, False), (k, True)), [], []),
        ]
        outcomes.update(_assert_product_kernel_matches(
            surface, integrands, ((1, 1), (2, 1)), ((13, 29), (1, -1)))[0])

    check()
    assert DegenerateSpecializationError in outcomes


def _per_point_product_sum(surface, tops, nums, dens, n1, n2, spec, points):
    """`engine._product_sum` one point at a time, from the same cached chart
    tables: the reference for its column blocks and their denominator fold."""
    cap = (2 - len(tops)) * (n1 + n2)
    charts = [(c, engine._local_weights(c, spec)) for c in surface.charts]
    top_tables = [
        (swap, [engine._top_table(local, None if b is None else engine._local_twist(c, b))
                for c, local in charts])
        for b, swap in tops
    ]
    hilbert = [engine._top_table(local, None) for _, local in charts]
    integrand_tables = [
        engine._integrand_table(local, tuple(engine._local_twist(c, m) for m in nums),
                                tuple(engine._local_twist(c, m) for m in dens), cap)
        for c, local in charts
    ]

    @cache
    def tangent(tup):
        return prod(map(call, hilbert, tup, tup))

    acc = [0] * (cap + 1)
    denom = 1
    for tup1, tup2 in points:
        scalar = 1
        for swap, tables in top_tables:
            mus_a, mus_b = (tup2, tup1) if swap else (tup1, tup2)
            scalar *= prod(map(call, tables, mus_a, mus_b))
            if not scalar:
                break
        if not scalar:
            continue
        num = tangent(tup1) * tangent(tup2)
        e = newton_chern_at(list(map(sum, zip(*map(call, integrand_tables, tup1, tup2)))))
        # add scalar / num * e to acc / denom
        if num < 0:
            num, scalar = -num, -scalar
        scale = num // gcd(denom, num)
        if scale != 1:
            denom *= scale
            acc = [a * scale for a in acc]
        factor = scalar * (denom // num)
        acc = [a + factor * c for a, c in zip(acc, e)]
    return GradedPoly(cap, [Fraction(a, denom) for a in acc])


def _assert_blocks_match_per_point(surface, integrands, sizes, specs):
    """On the whole point list of each size, `_product_sum` gives the per-point
    loop's coefficients, or raises the same error; returns the outcomes."""
    outcomes = set()
    for n1, n2 in sizes:
        points = engine.enumerate_product_fixed_points(surface, n1, n2)
        for spec in specs:
            for tops, nums, dens in integrands:
                args = (surface, tops, nums, dens, n1, n2, spec, points)
                expected = _outcome(lambda: _per_point_product_sum(*args))
                assert _outcome(lambda: engine._product_sum(*args)) == expected, (spec, tops)
                outcomes.add(expected if isinstance(expected, type) else "value")
    return outcomes


def test_product_blocks_match_the_per_point_loop():
    """The 3528 product fixed points of (5, 2) on p1 x p1 span many blocks;
    summed in blocks over one lcm denominator they give the coefficients of
    the per-point loop."""
    bundle = Q.line_bundle([1, 1, 0, 0])
    assert len(engine.enumerate_product_fixed_points(Q, 5, 2)) > 8 * engine._BLOCK
    outcomes = _assert_blocks_match_per_point(
        Q, [(engine._NESTED_LOCUS, [bundle], [])], [(5, 2)], [(13, 29), (-41, 6)])
    assert outcomes == {"value"}


def test_product_blocks_match_the_per_point_loop_on_random_surfaces(monkeypatch):
    """With blocks of 5 points, the whole point lists of (1, 1) and (2, 1) on
    random surfaces and bundles give the per-point loop's coefficients for
    [M], [M, K]/[M], [M] without tops and a swapped two-top pairing, or the
    same error: some list raises at the spec (1, -1), and some list has a
    value at (13, 29)."""
    monkeypatch.setattr(engine, "_BLOCK", 5)
    outcomes = {}

    @settings(max_examples=15, deadline=None)
    @given(surfaces_with_bundles())
    def check(surface_bundle):
        surface, m = surface_bundle
        k = surface.canonical_bundle()
        integrands = [
            (engine._NESTED_LOCUS, [m], []),
            (engine._NESTED_LOCUS, [m, k], [m]),
            ((), [m], []),
            (((m, False), (k, True)), [], []),
        ]
        for spec in ((13, 29), (1, -1)):
            outcomes.setdefault(spec, set()).update(_assert_blocks_match_per_point(
                surface, integrands, ((1, 1), (2, 1)), [spec]))

    check()
    assert "value" in outcomes[13, 29]
    assert DegenerateSpecializationError in outcomes[1, -1]


def test_product_blocks_where_every_top_factor_is_zero():
    """The 2632 non-nested product fixed points of (5, 2) on p1 x p1, in
    many blocks, all have top factor 0 and sum to the zero class."""
    bundle = Q.line_bundle([1, 1, 0, 0])
    apart = [point for point in engine.enumerate_product_fixed_points(Q, 5, 2)
             if not all(map(Partition.contains, *point))]
    assert len(apart) == 2632
    args = (Q, engine._NESTED_LOCUS, [bundle], [], 5, 2, (13, 29), apart)
    assert engine._product_sum(*args) == _per_point_product_sum(*args) == GradedPoly(7)


def _chart_blocks(surface, bundle, tup_a, tup_b):
    """The fiber blocks from tup_a to tup_b, one per chart, twisted by
    `bundle` (None: untwisted)."""
    blocks = []
    for c in surface.charts:
        block = engine._global_block(c.u, c.v, tup_a[c.index], tup_b[c.index])
        blocks.append(block if bundle is None else block.shift(global_weight(bundle, c)))
    return blocks


def _newton_top(blocks, spec, top):
    """newton_chern of the summed power sums of the chart blocks, read at
    degree top, raising where a nontrivial weight of their sum is killed:
    the reference for the product route's top factor."""
    char = sum(blocks[1:], blocks[0])
    _raise_at_killed_weight(char, spec)
    return newton_chern_at(power_sums(char, spec, top))[top]


def _top_factor_cases(surface):
    """(bundle, tup_a, tup_b, spec, top) at every product fixed point of
    (2, 1) and (3, 1): the untwisted nested-locus factor and a twisted,
    swapped pairing factor."""
    d = surface.line_bundle([0, 2] + [0] * (len(surface.charts) - 2))
    for n1, n2 in ((2, 1), (3, 1)):
        for spec in ((13, 29), (1, 1), (1, -1)):
            for tup1, tup2 in engine.enumerate_product_fixed_points(surface, n1, n2):
                yield None, tup1, tup2, spec, n1 + n2
                yield d, tup2, tup1, spec, n1 + n2


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)"])
def test_top_factor_matches_newton(name):
    """The product of the chart Euler numbers read from the top-factor pair
    tables, one per chart, gives the top Chern class of the summed power
    sums, or raises the same error."""
    surface = builtin_surface(name)
    outcomes = set()
    for bundle, tup_a, tup_b, spec, top in _top_factor_cases(surface):
        blocks = _chart_blocks(surface, bundle, tup_a, tup_b)
        expected = _outcome(lambda: _newton_top(blocks, spec, top))
        tables = [engine._top_table(engine._local_weights(c, spec),
                                    None if bundle is None else engine._local_twist(c, bundle))
                  for c in surface.charts]
        got = _outcome(lambda: prod([table(*key) for table, key in zip(tables, zip(tup_a, tup_b))]))
        assert got == expected, (bundle, tup_a, tup_b, spec)
        outcomes.add(expected if isinstance(expected, type) else bool(expected))
    assert outcomes == {True, False, DegenerateSpecializationError}


def test_product_route_reads_tangents_only_where_the_top_factor_is_nonzero():
    """At the spec (0, 5) the first chart's tangent at the partition (1)
    has a killed weight.  A non-nested point with that partition as its
    outer tuple, its boxes on different charts, has top factor 0 and adds
    the zero class without reading the tangent."""
    spec = (0, 5)
    one = Partition((1,))
    local = engine._local_weights(P2.charts[0], spec)
    with pytest.raises(DegenerateSpecializationError):
        engine._top_table(local, None)(one, one)
    apart = ((one, EMPTY, EMPTY), (EMPTY, one, EMPTY))
    args = (P2, engine._NESTED_LOCUS, [], [], 1, 1, spec)
    assert engine._product_sum(*args, [apart]) == GradedPoly(2)


def test_product_route_reads_no_nested_tangent(monkeypatch):
    """The product route takes its Hilbert-scheme tangents from the block
    table, so it needs neither nested tangent to match the closed form."""

    def unread(*args):
        raise RuntimeError("nested tangent read")

    monkeypatch.setattr(engine, "_tangent_euler", unread)
    monkeypatch.setattr(engine, "virtual_tangent_character", unread)
    bundle = P2.line_bundle([1, 0, 0])
    assert engine.z_nest_series(P2, bundle, 4, route="product") == (
        engine.closed_form_series(P2, bundle, 4))


def test_nested_route_rejects_tops():
    """Only the product route reads a top factor: the nested route would
    silently drop a pairing that the product route gives 27 at (1, 1)."""
    h = P2.line_bundle([1, 0, 0])
    tops = ((h, False), (h, True))
    assert engine.multi_bundle_invariant(P2, [], [], 1, 1, route="product", tops=tops) == 27
    with pytest.raises(ValueError, match="only the product route reads tops"):
        engine.multi_bundle_invariant(P2, [], [], 1, 1, route="nested", tops=tops)
    assert engine.multi_bundle_invariant(P2, [h], [], 1, 1, route="nested",
                                         tops=engine._NESTED_LOCUS) == (
        engine.multi_bundle_invariant(P2, [h], [], 1, 1, route="product"))


def test_negative_cap_is_rejected():
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        engine.series_grid(-1)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        engine.z_nest_series(P2, P2.line_bundle([1, 0, 0]), -1)


def _engine_reach():
    """{engine function: every name it reads, also through the engine
    functions it calls}, from the module's syntax tree."""
    tree = ast.parse(Path(engine.__file__).read_text())
    reads = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }

    def reach(name):
        names, todo = set(), [name]
        while todo:
            for read in reads[todo.pop()] - names:
                names.add(read)
                if read in reads:
                    todo.append(read)
        return names

    return {name: reach(name) for name in reads}


def test_routes_share_no_kernel():
    """The product route names no nested tangent, Chern algorithm, integrand
    assembly or enumeration, and the nested route no power sum or Newton
    identity: the two routes stay independent checks of each other."""
    reach = _engine_reach()
    assert {"power_sums", "chern_poly"} <= reach["_localize"]  # read through both routes
    nested = {"_tangent_euler", "_chart_table", "_nested_sums", "_local_keys", "_net_integrand"}
    product = {"_product_sum", "_top_table", "_integrand_table"}
    for name in product:
        shared = reach[name] & (nested | {"virtual_tangent_character", "chern_poly",
                                          "enumerate_nested_pairs"})
        assert not shared, (name, shared)
    for name in nested:
        shared = reach[name] & (product | {"power_sums", "newton_chern"})
        assert not shared, (name, shared)


def test_nestprod_ratio_line_catches_a_dens_sign_slip(monkeypatch):
    """Counting dens with the sign +1 in the nested route's integrand fails
    exactly the ratio line of nestprod: the product route assembles its
    integrand on its own, and no other line reads dens."""
    net = engine._net_integrand
    monkeypatch.setattr(engine, "_net_integrand",
                        lambda block, nums, dens: net(block, [*nums, *dens], []))
    failed = [check.label for check in verify.suite_nestprod(cap=1) if not check.passed]
    assert failed == ["ratio [O(1), O(1)]/[O] route agreement on p2 up to total degree 1"]


@pytest.mark.parametrize("route", ["nested", "product"])
def test_negative_sizes_are_rejected(route):
    """A negative size is a ValueError on both routes; the product route
    still reads n1 < n2, as a pairing of two tops: C(O(1).O(1), n) on p2."""
    o, h = P2.structure_sheaf(), P2.line_bundle([1, 0, 0])
    for sizes in ((-1, -2), (1, -1), (-1, 0)):
        with pytest.raises(ValueError, match="sizes must be nonnegative"):
            engine.multi_bundle_invariant(P2, [o], [], *sizes, route=route)
    tops = ((h, False), (h, False))
    assert [engine.multi_bundle_invariant(P2, [], [], 0, n, route="product", tops=tops)
            for n in (1, 2)] == [1, 0]


def test_more_top_factors_than_the_dimension_are_rejected():
    """Three top factors of degree n1 + n2 exceed the dimension 2 (n1 + n2)
    of the product at every target but (0, 0), where the empty product of
    Hilbert schemes gives 1."""
    tops = ((P2.line_bundle([1, 0, 0]), False),) * 3
    for sizes in ((1, 0), (0, 1), (2, 1)):
        with pytest.raises(ValueError, match="top factors exceed the dimension"):
            engine.multi_bundle_invariant(P2, [], [], *sizes, route="product", tops=tops)
    assert engine.multi_bundle_invariant(P2, [], [], 0, 0, route="product", tops=tops) == 1


def test_product_fixed_points_include_non_nested():
    nested = len(engine.enumerate_global_fixed_points(P2, 1, 1))
    product = sum(1 for _ in engine.enumerate_product_fixed_points(P2, 1, 1))
    assert product == 9 and nested == 3


def test_trivial_invariants():
    assert engine.multi_bundle_invariant(P2, [P2.structure_sheaf()], [], 0, 0) == 1
    assert engine.multi_bundle_invariant(P2, [P2.structure_sheaf()], [], 1, 0) == 9


def test_route_agreement_small():
    for surface in (P2, Q):
        bundle = surface.canonical_bundle()
        for n1, n2 in ((1, 0), (1, 1), (2, 0), (2, 1)):
            a = engine.multi_bundle_invariant(surface, [bundle], [], n1, n2, route="nested")
            b = engine.multi_bundle_invariant(surface, [bundle], [], n1, n2, route="product")
            assert a == b, (surface.name, n1, n2)


def test_nested_route_rejects_empty_range():
    with pytest.raises(ValueError):
        engine.multi_bundle_invariant(P2, [P2.structure_sheaf()], [], 1, 2)


def test_seed_independence_of_values():
    bundle = P2.line_bundle([1, 0, 0])
    vals = {
        engine.multi_bundle_invariant(P2, [bundle], [], 2, 1, seed=s) for s in (0, 1, 7)
    }
    assert len(vals) == 1


@settings(max_examples=80, deadline=None)
@given(surfaces_with_bundles())
def test_random_surfaces_route_agreement_and_closed_form(surface_bundle):
    surface, bundle = surface_bundle
    for n1, n2 in engine.series_grid(2):
        nested, product = (
            engine.multi_bundle_invariant(surface, [bundle], [], n1, n2, route=route)
            for route in ("nested", "product")
        )
        assert nested == product, (n1, n2)
    assert engine.z_nest_series(surface, bundle, 4) == engine.closed_form_series(surface, bundle, 4)


def _count_calls(monkeypatch, name, calls, rewrite=lambda result, calls: result):
    original = getattr(engine, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return rewrite(original(*args, **kwargs), calls)

    monkeypatch.setattr(engine, name, counted)


def test_series_is_one_pass_per_specialization(monkeypatch):
    calls = []
    _count_calls(monkeypatch, "_dual_spec_graded", calls)
    _count_calls(monkeypatch, "draw_specialization", calls)
    bundle = P2.line_bundle([1, 0, 0])
    engine.z_nest_series(P2, bundle, 6)
    assert calls.count("_dual_spec_graded") == 1
    assert calls.count("draw_specialization") == 2


def test_degenerate_first_draw_redraws_the_whole_grid_once(monkeypatch):
    # chart 0 of the plane has the tangent weight (0, 1), which (x, 0) kills
    def degenerate_first(spec, calls):
        return (spec[0], 0) if calls.count("draw_specialization") == 1 else spec

    calls = []
    _count_calls(monkeypatch, "_dual_spec_graded", calls)
    _count_calls(monkeypatch, "draw_specialization", calls, degenerate_first)
    bundle = P2.line_bundle([1, 0, 0])
    series = engine.z_nest_series(P2, bundle, 6)
    assert calls.count("_dual_spec_graded") == 1
    assert calls.count("draw_specialization") == 3
    assert series == engine.closed_form_series(P2, bundle, 6)


def test_closed_form_series_spot_values():
    s = engine.closed_form_series(P2, P2.structure_sheaf(), 4)
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 0) == 9
    assert s.coeff(1, 1) == 3
    assert s.coeff(2, 0) == 36
    assert s.coeff(2, 1) == 36


@pytest.mark.parametrize("name", ["p2", "p1xp1", "hirzebruch(1)", "hirzebruch(-3)"])
def test_closed_products_are_integers(name):
    """The closed products of integer Chern numbers hold ints, not Fractions
    with denominator 1."""
    surface = builtin_surface(name)
    k = len(surface.charts)
    for bundle in (surface.structure_sheaf(), surface.line_bundle([1] + [0] * (k - 1)),
                   surface.canonical_bundle()):
        series = engine.closed_form_series(surface, bundle, 6)
        assert all(type(c) is int for c in series.terms.values()), bundle
    assert all(type(c) is int for c in engine.gottsche_product_coefficients(k, 6))


def test_series_matches_closed_form_to_degree_three():
    for surface in (P2, Q):
        for bundle in (surface.structure_sheaf(), surface.canonical_bundle()):
            direct = engine.z_nest_series(surface, bundle, 3)
            closed = engine.closed_form_series(surface, bundle, 3)
            for key, value in direct.terms.items():
                assert closed.coeff(*key) == value


def test_gottsche_counts():
    assert engine.gottsche_product_coefficients(3, 4) == [1, 3, 9, 22, 51]
    for surface in (P2, Q):
        assert engine.gottsche_fixed_point_counts(surface, 5) == (
            engine.gottsche_product_coefficients(surface.euler_number, 5)
        )


def test_duality_sign_identity():
    """Swapping the second factor equals twisting it by K - M with sign."""
    m1 = P2.line_bundle([1, 0, 0])
    m2 = P2.line_bundle([0, 1, 1])
    def pairing(n1, n2, m, swap):
        return engine.multi_bundle_invariant(
            P2, [], [], n1, n2, route="product", tops=((m1, False), (m, swap))
        )

    for n1, n2 in ((1, 0), (1, 1), (2, 1), (2, 2)):
        swapped = pairing(n1, n2, m2, True)
        dual = pairing(n1, n2, m2.dual_twist(), False)
        assert swapped == (-1) ** (n1 + n2) * dual, (n1, n2)


def test_multi_bundle_ratio_routes_agree():
    h = P2.line_bundle([1, 0, 0])
    o = P2.structure_sheaf()
    for n1, n2 in ((1, 0), (1, 1), (2, 1)):
        a = engine.multi_bundle_invariant(P2, [h, h], [o], n1, n2, route="nested")
        b = engine.multi_bundle_invariant(P2, [h, h], [o], n1, n2, route="product")
        assert a == b, (n1, n2)


def test_ratio_by_itself_is_degree_zero():
    h = P2.line_bundle([1, 0, 0])
    value = engine.multi_bundle_invariant(P2, [h], [h], 1, 1, route="nested")
    assert value == 0  # integrand has no top-degree part left


def test_universality_fit_reproduces_generators():
    fit = engine.universal_series_fit(2, seed=3)
    for surface, bundle, _ in engine.cobordism_generators():
        cn = chern_numbers(surface, bundle)
        pred = engine.predicted_series(fit, cn)
        direct = engine.z_nest_series(surface, bundle, 2, seed=3)
        assert pred.terms == direct.terms


def test_disagreement_surfaces_as_error():
    with pytest.raises(SpecializationDisagreement):
        engine._dual_spec_graded(lambda spec: {(0, 0): GradedPoly(0, [spec[0]])}, seed=0)


def test_repeated_draws_count_as_redraws(monkeypatch):
    monkeypatch.setattr(engine, "draw_specialization", lambda rng: (Fraction(3), Fraction(5)))
    with pytest.raises(DegenerateSpecializationError, match="no fresh nondegenerate"):
        engine._dual_spec_graded(lambda spec: {(0, 0): GradedPoly(0, [1])}, seed=0)
