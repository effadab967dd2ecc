"""Global fixed-point localization over a toric surface.

Two independent routes compute the same invariants:

* the nested route sums over the pairs (outer, inner) of partition
  tuples, indexed like the charts, that are nested on every chart,
  weighting total Chern classes of the twisted fiber classes by the
  inverse Euler class of the virtual tangent character.  At a fixed
  specialization both classes are multiplicative over the charts, so the
  sum over the fixed points of every (n1, n2) at once is the product over
  the charts of local tables {(a, b): sum over the one-chart nested pairs
  of sizes (a, b)}, truncated to the requested grid.  Each table holds
  integers over one chart denominator;
* the product route sums over all pairs of partition tuples (nested or
  not) on the product of two Hilbert schemes, cutting down to the nested
  locus with the top Chern class of the untwisted fiber class, in column
  blocks of cached chart factors, its tangents V(mu, mu) among them.

Both routes read every chart block V(mu_a, mu_b) at the chart's own
exponents and weights (`_local_weights`).  A bundle twists a block by
the monomial of its local shift (`_local_twist`), so an integrand is the
block times the chart's twist class, the sum of the nums monomials less
that of the dens ones.  Each route builds its own twist class: the
nested route (`_net_integrand`) for its linear factors, the product
route (`_integrand_table`) for its power sums.  Only Euler classes meet
the pole rule (`euler_factors`): the nested tangents, and the product
route's Hilbert-scheme tangents and top factors.  A Chern class of an
integrand is a polynomial in the weights, so a weight that the
specialization kills there is a unit factor.  The routes differ in their
Chern algorithm (linear factors against Newton's identities) and in
their summation (table products against the product fixed points).

The partition tuples come from `partitions.partition_tuples`.  All
arithmetic is exact: both routes return integer rows over one positive
denominator, and only each final value becomes a Fraction.  Every value
is computed at two generic numeric specializations of the torus weights,
which must agree.  The engine returns values with their specializations;
the CLI labels and encodes them.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import compress
from math import lcm, prod
from operator import add, call, mul

from .characters import (
    DegenerateSpecializationError,
    LocalizationError,
    TrivialWeightError,
    block_character,
    chern_poly,
    euler_factors,
    newton_chern,
    power_sums,
    virtual_tangent_character,
)
from .laurent import LaurentPoly
from .partitions import Partition, enumerate_nested_pairs, partition_tuples
from .series import Series2, product_formula
from .toric import builtin_surface, check_bundle, chern_numbers

MAX_REDRAWS = 8
_BLOCK = 256  # product fixed points per column block of `_product_sum`


class SpecializationDisagreement(LocalizationError):
    """Two generic specializations gave different values: internal bug."""


# ---------------------------------------------------------------------------
# fixed-point enumeration


def enumerate_product_fixed_points(surface, n1, n2):
    """All pairs of partition tuples on the product of Hilbert schemes."""
    k = len(surface.charts)
    tups2 = partition_tuples(k, n2)
    return [(tup1, tup2) for tup1 in partition_tuples(k, n1) for tup2 in tups2]


def enumerate_global_fixed_points(surface, n1, n2):
    """The nested fixed points: the product fixed points (outer, inner) with
    sizes (n1, n2) whose inner partition fits in the outer one on every chart.

    The nested route never lists them; they are the reference its chart
    tables are tested against."""
    if n1 < n2:
        raise ValueError("empty nesting range")
    k = len(surface.charts)
    inners = partition_tuples(k, n2)
    return [
        (outer, inner)
        for outer in partition_tuples(k, n1)
        for inner in inners
        if all(map(Partition.contains, outer, inner))
    ]


# ---------------------------------------------------------------------------
# cached chart-local character assembly


@lru_cache(maxsize=None)
def _global_block(u, v, mu_a, mu_b):
    """V(mu_a, mu_b) at the global exponents of the chart with weights u, v,
    for the tests' global-frame references: the engine reads chart frames."""
    return block_character(mu_a, mu_b).substitute(u, v)


def _local_weights(chart, spec):
    """The chart's own weights (u.spec, v.spec): on a unimodular cone
    (a, b) -> a u + b v is a bijection of Z^2 and (a u + b v).spec =
    a (u.spec) + b (v.spec), so a block read at the chart's own exponents
    has the weights, values and killed weights of its global character."""
    (u1, u2), (v1, v2), (x, y) = chart.u, chart.v, spec
    return u1 * x + u2 * y, v1 * x + v2 * y


def _local_twist(chart, bundle):
    """The bundle's shift (<w, r_i>, <w, r_i+1>) of chart i's exponents, for
    its weight w = -a_i u - a_i+1 v there: (u, v) is the dual basis of the
    chart's rays (r_i, r_i+1), so the shift is the divisor's (-a_i, -a_i+1)."""
    coeffs = bundle.coeffs
    return -coeffs[chart.index], -coeffs[(chart.index + 1) % len(coeffs)]


@lru_cache(maxsize=None)
def _tangent_euler(local, pair):
    """Integer Euler factors (num, den) of one chart's virtual tangent at the
    nested pair, read at the chart's own weights `local`, raising at a pole
    like `euler_factors`.  Only the nested route reads it."""
    return euler_factors(virtual_tangent_character(pair), local)


def _net_integrand(chart, nums, dens):
    """The nested route's twist class on one chart: the monomials of the
    local shifts of nums less those of dens, so that a block times it is
    one character whose linear factors are prod c(nums) / prod c(dens).
    The product route builds its own (`_integrand_table`)."""
    twist = Counter(_local_twist(chart, m) for m in nums)
    twist.subtract(_local_twist(chart, m) for m in dens)
    return LaurentPoly(twist)


# ---------------------------------------------------------------------------
# localization sums


def _local_keys(grid):
    """The one-chart sizes (a, b) that fit under a target (n1, n2) of the grid:
    a <= n1, b <= n2 and a - b <= n1 - n2, so that each is the component on
    one chart of a nested fixed point of the grid."""
    keys = set()
    for n1, n2 in grid:
        if n1 < n2:
            raise ValueError("empty nesting range")
        keys.update(
            (a, b) for a in range(n1 + 1) for b in range(min(a, n2) + 1) if a - b <= n1 - n2
        )
    return sorted(keys)


def _chart_table(chart, nums, dens, keys, spec, cap):
    """One chart's integer table and its denominator D_c: ({(a, b): row}, D_c),
    where row / D_c lists by degree up to cap the sum of c(integrand) /
    e(tangent) over the nested pairs of sizes (a, b) on this chart.

    Like `_tangent_euler` it reads each block at the chart's own exponents,
    times the twist class of `_net_integrand`, and `chern_poly` reads the
    product at the chart's own weights.  Only the tangents can raise at a
    killed weight.

    With e = num / den, D_c = lcm(|num|) over the chart's pairs, and each
    pair adds its nonzero integer Chern coefficients times den * (D_c // num)
    into its key's row in place."""
    local = _local_weights(chart, spec)
    twist = _net_integrand(chart, nums, dens)
    terms = []
    for key in keys:
        for pair in enumerate_nested_pairs(*key):
            num, den = _tangent_euler(local, pair)
            integrand = block_character(pair.outer, pair.inner) * twist
            terms.append((key, chern_poly(integrand, local, cap), num, den))
    denom = lcm(*(abs(num) for _, _, num, _ in terms))
    table = {key: [0] * (cap + 1) for key in keys}
    for key, coeffs, num, den in terms:
        factor = den * (denom // num)
        row = table[key]
        for k, c in enumerate(coeffs):
            if c:
                row[k] += factor * c
    return table, denom


def _nested_sums(surface, nums, dens, grid, spec):
    """The nested localization sums {(n1, n2): (row, denom)} of every target
    of the grid: the product of the integer chart tables, keeping only the
    sizes that fit under a target, as a row of n1 + n2 + 1 ints over the
    product of the chart denominators, which is positive.

    Each table row's nonzero (degree, coefficient) pairs are read once and
    convolved into its key's row up to the cap."""
    keys = _local_keys(grid)
    cap = max(n1 + n2 for n1, n2 in grid)
    fits = set(keys)
    total = {(0, 0): [1] + [0] * cap}
    denom = 1
    for chart in surface.charts:
        table, chart_denom = _chart_table(chart, nums, dens, keys, spec, cap)
        denom *= chart_denom
        entries = [
            (a, b, [(k, c) for k, c in enumerate(row) if c])
            for (a, b), row in table.items()
        ]
        product = {}
        for (a1, b1), row1 in total.items():
            terms1 = [(i, x) for i, x in enumerate(row1) if x]
            for a2, b2, terms2 in entries:
                key = (a1 + a2, b1 + b2)
                if key not in fits:
                    continue
                row = product.setdefault(key, [0] * (cap + 1))
                for i, x in terms1:
                    for j, y in terms2:
                        if i + j > cap:
                            break
                        row[i + j] += x * y
        total = product
    return {(n1, n2): (total[n1, n2][: n1 + n2 + 1], denom) for n1, n2 in grid}


@lru_cache(maxsize=None)
def _top_table(local, shift):
    """Top Chern classes of one chart's blocks at its own weights `local`,
    times the monomial of the local shift `shift` (None: untwisted, and at
    (mu, mu) the Hilbert-scheme tangent), as a cached function of
    (mu_a, mu_b).  A block is a sum of weights, none subtracted
    (`block_character`), so each is the product of its weights, 0 at a
    trivial weight, and a killed weight raises (`euler_factors`): nothing
    can cancel it.  Unlike the integrand's Chern classes, a top factor
    keeps the pole rule: a factor of 0 skips the tangent read at its point,
    so a 0 caused by the draw could hide a killed tangent weight.  A
    raising entry is not cached, so every read raises."""
    twist = LaurentPoly.one() if shift is None else LaurentPoly.monomial(*shift)

    @cache
    def top(mu_a, mu_b):
        try:
            return euler_factors(block_character(mu_a, mu_b) * twist, local)[0]
        except TrivialWeightError:
            return 0

    return top


@lru_cache(maxsize=None)
def _integrand_table(local, nums, dens, cap):
    """Signed power sums (`power_sums`) at the chart's own weights `local`
    of one chart's integrand, as a cached function of (mu_a, mu_b): the
    block times the twist class, the monomials of the local shifts nums
    less those of dens.  The nested route builds its own (`_net_integrand`)."""
    counts = Counter(nums)
    counts.subtract(dens)
    twist = LaurentPoly(counts)

    @cache
    def integrand(mu_a, mu_b):
        return power_sums(block_character(mu_a, mu_b) * twist, local, cap)

    return integrand


def _product_sum(surface, tops, nums, dens, n1, n2, spec, points):
    """Localization sum over the product of Hilbert schemes.

    tops: list of (bundle-or-None, swap) contributing scalar top Chern
    factors of degree n1+n2 each, swap exchanging the ideals chartwise;
    nums/dens contribute total Chern classes tracked in the formal grading.
    The grading degree left for extraction is (2 - len(tops)) * (n1 + n2),
    which `_localize` keeps nonnegative.

    Power sums add and Chern and Euler classes multiply over the charts, so
    each chart's factors come from one cached function per top factor and
    one for the integrand, mapped over the chart's column of partitions in
    blocks of _BLOCK points.  Each top factor reads every chart, so that a
    weight killed in one chart raises even where another chart's factor is
    0, and drops the points where it is 0.  Only at the points left does it
    read the Hilbert-scheme tangents V(mu, mu) from the untwisted top tables,
    cached once per tuple, and solve Newton's identities on the summed chart
    power sums column-wise; each block folds into one lcm denominator.
    Returns (row, denom): cap + 1 ints over that positive denominator.
    """
    cap = (2 - len(tops)) * (n1 + n2)
    charts = [(c, _local_weights(c, spec)) for c in surface.charts]
    top_tables = [
        (swap, [_top_table(local, None if b is None else _local_twist(c, b))
                for c, local in charts])
        for b, swap in tops
    ]
    hilbert = [_top_table(local, None) for _, local in charts]
    integrand_tables = [
        _integrand_table(local, tuple(_local_twist(c, m) for m in nums),
                         tuple(_local_twist(c, m) for m in dens), cap)
        for c, local in charts
    ]

    @cache
    def tangent(tup):
        return prod(map(call, hilbert, tup, tup))

    acc = [0] * (cap + 1)
    denom = 1
    for start in range(0, len(points), _BLOCK):
        tups1, tups2 = zip(*points[start:start + _BLOCK])
        scalars = [1] * len(tups1)
        for swap, tables in top_tables:
            mus_a, mus_b = (tups2, tups1) if swap else (tups1, tups2)
            for table, col_a, col_b in zip(tables, zip(*mus_a), zip(*mus_b)):
                scalars = list(map(mul, scalars, map(table, col_a, col_b)))
            tups1, tups2 = tuple(compress(tups1, scalars)), tuple(compress(tups2, scalars))
            scalars = list(compress(scalars, scalars))
        if not scalars:
            continue
        tangents = list(map(mul, map(tangent, tups1), map(tangent, tups2)))
        chart_sums = (zip(*map(table, col1, col2))
                      for table, col1, col2 in zip(integrand_tables, zip(*tups1), zip(*tups2)))
        e = newton_chern([list(reduce(partial(map, add), p_k)) for p_k in zip(*chart_sums)])
        # add scalar / tangent * e at each point to acc / denom
        scale = lcm(denom, *tangents) // denom
        denom *= scale
        factors = [s * (denom // t) for s, t in zip(scalars, tangents)]
        acc = [a * scale + sum(map(mul, factors, e_k)) for a, e_k in zip(acc, e)]
    return acc, denom


# ---------------------------------------------------------------------------
# specialization policy


def draw_specialization(rng):
    return (rng.randint(1, 97), rng.choice([-1, 1]) * rng.randint(1, 97))


def _dual_spec_graded(compute, seed):
    """Run `compute(spec)`, {target: (int row, denom > 0)}, at two agreeing
    generic specializations; returns ({target: Fraction(row[-1], denom)}, specs).

    A draw that is degenerate or repeats the earlier spec is redrawn, up to
    MAX_REDRAWS times for each value; checks at every target that the
    entries below the top degree vanish and that the value is identical at
    both specializations.
    """
    rng = random.Random(seed)
    values = []
    specs = []
    for _ in range(2):
        for _attempt in range(MAX_REDRAWS + 1):
            spec = draw_specialization(rng)
            if spec in specs:
                continue
            try:
                rows = compute(spec)
            except DegenerateSpecializationError:
                continue
            specs.append(spec)
            for target, (row, _) in rows.items():
                for k, c in enumerate(row[:-1]):
                    if c:
                        raise SpecializationDisagreement(
                            f"nonzero sub-degree coefficient at degree {k} of {target}"
                        )
            values.append({target: Fraction(row[-1], denom) for target, (row, denom) in rows.items()})
            break
        else:
            raise DegenerateSpecializationError(
                f"no fresh nondegenerate specialization in {MAX_REDRAWS + 1} draws"
            )
    for target, value in values[0].items():
        if value != values[1][target]:
            raise SpecializationDisagreement(
                f"specialization disagreement at {target}: {value} != {values[1][target]}"
            )
    return values[0], specs


_NESTED_LOCUS = ((None, False),)


def _localize(surface, route, nums, dens, grid, seed, tops=_NESTED_LOCUS):
    """The one localization pipeline: returns ({(n1, n2): value}, specializations)
    for every target of the grid.

    The integrand is prod c(twist by nums) / prod c(twist by dens).  The
    product route also multiplies by the top Chern classes in `tops`; its
    default cuts the product of Hilbert schemes down to the nested locus.
    A negative size is a ValueError on both routes; n1 < n2 is one only on
    the nested route, since a product-route pairing may read it.  Three top
    factors of degree n1 + n2 exceed the product's dimension 2 (n1 + n2):
    a ValueError at every target but (0, 0).
    """
    if route == "nested" and tops != _NESTED_LOCUS:
        raise ValueError("only the product route reads tops")
    if any(n < 0 for target in grid for n in target):
        raise ValueError("sizes must be nonnegative")
    if len(tops) > 2 and any(n1 + n2 for n1, n2 in grid):
        raise ValueError("top factors exceed the dimension")
    for bundle in (*nums, *dens, *(b for b, _ in tops if b is not None)):
        check_bundle(surface, bundle)
    if route == "nested":
        compute = partial(_nested_sums, surface, nums, dens, grid)
    elif route == "product":
        points = {target: enumerate_product_fixed_points(surface, *target) for target in grid}

        def compute(spec):
            return {
                target: _product_sum(surface, tops, nums, dens, *target, spec, points[target])
                for target in grid
            }
    else:
        raise ValueError(f"unknown route {route!r}")
    return _dual_spec_graded(compute, seed)


# ---------------------------------------------------------------------------
# public invariants


InvariantRecord = namedtuple("InvariantRecord", "n1 n2 route value specializations")


def multi_bundle_invariant(surface, nums, dens, n1, n2, *, seed=0, route="nested",
                           tops=_NESTED_LOCUS):
    """Integral of prod c(twist by nums) / prod c(twist by dens) against the
    virtual class of the nested Hilbert scheme.

    The "nested" route sums over the nested fixed points; the "product"
    route sums over the product of Hilbert schemes, times the top Chern
    class of the fiber class of each (bundle-or-None, swap) in `tops`, swap
    exchanging source and target ideals chartwise.  The default top factor
    cuts the product down to the nested locus, so both routes give the same
    number; `tops=((b1, False), (b2, swap))` with no nums is the pairing of
    two top Chern classes.  The nested route raises ValueError on other `tops`.
    """
    return _localize(surface, route, nums, dens, [(n1, n2)], seed, tops)[0][n1, n2]


def invariant_record(surface, bundle, n1, n2, route="nested", seed=0):
    """Compute one invariant with the two specializations that produced it."""
    values, specs = _localize(surface, route, [bundle], [], [(n1, n2)], seed)
    return InvariantRecord(n1, n2, route, values[n1, n2], specs)


# ---------------------------------------------------------------------------
# generating series


def series_grid(cap):
    """The (n1, n2) with n1 >= n2 >= 0 and n1 + n2 <= cap, in table order."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return [(n1, n2) for n1 in range(cap + 1) for n2 in range(min(n1, cap - n1) + 1)]


def z_nest_series(surface, bundle, cap, seed=0, route="nested"):
    """Generating series of the invariants over series_grid(cap), from one
    pair of specializations for the whole grid."""
    return Series2(cap, _localize(surface, route, [bundle], [], series_grid(cap), seed)[0])


def closed_form_series(surface, bundle, cap):
    """Closed product form of the invariant series.

    The product over n > 0 of
    (1 - q2^(n-1) q1^n)^(K.(K-M)) (1 - (q1 q2)^n)^((K-M).M - e(S)),
    with each coefficient then multiplied by (-1)^(n1+n2).
    """
    cn = chern_numbers(surface, bundle)
    a = cn.K_squared - cn.M_dot_K
    b = (cn.M_dot_K - cn.M_squared) - surface.euler_number
    product = product_formula([((1, 0), a), ((1, 1), b)], cap)
    terms = {
        (d1, d2): c * (-1) ** (d1 + d2) for (d1, d2), c in product.terms.items()
    }
    return Series2(cap, terms)


def gottsche_product_coefficients(euler, nmax):
    """Coefficients of prod_{n>0} (1 - q^n)^(-euler) up to q^nmax."""
    diagonal = product_formula([((1, 1), -euler)], 2 * nmax)
    return [diagonal.coeff(n, n) for n in range(nmax + 1)]


def gottsche_fixed_point_counts(surface, nmax):
    """Number of partition tuples over the charts with total size n <= nmax."""
    return [len(partition_tuples(len(surface.charts), n)) for n in range(nmax + 1)]


# ---------------------------------------------------------------------------
# universality


def cobordism_generators():
    """The four generator pairs spanning surface-plus-bundle cobordism."""
    p2 = builtin_surface("p2")
    p1xp1 = builtin_surface("p1xp1")
    return [
        (p2, p2.structure_sheaf(), "O"),
        (p2, p2.line_bundle([1, 0, 0]), "O(1)"),
        (p1xp1, p1xp1.structure_sheaf(), "O"),
        (p1xp1, p1xp1.line_bundle([1, 0, 0, 0]), "O(1,0)"),
    ]


def universal_series_fit(cap, seed=0):
    """Log series (l1, l2, l3, l4) with log Z = M^2 l1 + M.K l2 + K^2 l3 + c2 l4,
    solved from the generators' log series: universality makes it linear."""
    l = [z_nest_series(surface, bundle, cap, seed=seed).log()
         for surface, bundle, _ in cobordism_generators()]
    # generator rows (M^2, M.K, K^2, c2): (0,0,9,3), (1,-3,9,3), (0,0,8,4), (0,-2,8,4)
    l2 = (l[2] - l[3]) * Fraction(1, 2)
    l3 = (l[0] * 4 - l[2] * 3) * Fraction(1, 12)
    l4 = (l[2] * 9 - l[0] * 8) * Fraction(1, 12)
    return (l[1] - l[0] + l2 * 3, l2, l3, l4)


def predicted_series(fit, cn):
    """The series exp(M^2 l1 + M.K l2 + K^2 l3 + c2 l4) that the fit predicts
    for Chern numbers cn."""
    l1, l2, l3, l4 = fit
    return (l1 * cn.M_squared + l2 * cn.M_dot_K + l3 * cn.K_squared + l4 * cn.c2).exp()
