"""Named verification suites shared by the CLI and the test harness.

Each suite runs a battery of exact cross-checks and returns a list of
Check records; a suite passes when every check does.  A check is a list
of counterexamples (`_check`), most often the cells where two numbers
differ (`_compare`); its failure detail spells out the first three, each
with its indices and both values, so a red run is actionable on its own.
"""

from __future__ import annotations

from collections import namedtuple

from . import engine, fock
from .characters import (
    block_character,
    block_character_resolution,
    trivial_multiplicity,
    virtual_tangent_character,
    virtual_tangent_character_resolution,
)
from .laurent import LaurentPoly
from .partitions import EMPTY, NestedPair, Partition, enumerate_nested_pairs, enumerate_partitions
from .toric import ToricSurface, builtin_surface, chern_numbers


Check = namedtuple("Check", "label passed detail", defaults=("",))


def _surface_bundles(surface):
    """The standard bundle triple on a builtin surface: O, a hyperplane-type
    bundle, and the canonical bundle."""
    coeffs = [0] * len(surface.rays)
    coeffs[0] = 1
    return [
        ("O", surface.structure_sheaf()),
        ("O(1)" if len(surface.rays) == 3 else "O(1,0)", surface.line_bundle(coeffs)),
        ("K", surface.canonical_bundle()),
    ]


def _check(label, bad):
    """Passes when `bad`, the list of counterexamples, is empty; the detail
    names the first three."""
    return Check(label, not bad, "; ".join(bad[:3]))


def _compare(label, cells, values, names):
    """Passes when the two numbers values(*cell) are equal at every cell;
    each mismatch reads "(cell): name0=a name1=b"."""
    bad = []
    for cell in cells:
        a, b = values(*cell)
        if a != b:
            bad.append(f"({','.join(map(str, cell))}): {names[0]}={a} {names[1]}={b}")
    return _check(label, bad)


def _triangle(cap):
    """The (d1, d2) with d1 + d2 <= cap: every coefficient of a Series2."""
    return [(d1, d2) for d1 in range(cap + 1) for d2 in range(cap - d1 + 1)]


def suite_gottsche(cap=6, seed=0):
    checks = []
    for name in ("p2", "p1xp1", "hirzebruch(1)"):
        surface = builtin_surface(name)
        counts = engine.gottsche_fixed_point_counts(surface, cap)
        product = engine.gottsche_product_coefficients(surface.euler_number, cap)
        checks.append(
            _compare(
                f"fixed-point counts match Euler product on {name}",
                [(n,) for n in range(cap + 1)], lambda n: (counts[n], product[n]),
                ("count", "product"),
            )
        )
    known = [1, 3, 9, 22, 51]
    got = engine.gottsche_product_coefficients(3, 4)
    checks.append(
        _compare(
            "first five Euler numbers of point Hilbert schemes of the plane",
            [(n,) for n in range(5)], lambda n: (got[n], known[n]), ("got", "expected"),
        )
    )
    return checks


def suite_nestprod(cap=5, seed=0):
    grid = engine.series_grid(cap)
    routes = ("nested", "product")

    def by_route(surface, nums, dens):
        return lambda n1, n2: [
            engine.multi_bundle_invariant(surface, nums, dens, n1, n2, seed=seed, route=route)
            for route in routes
        ]

    checks = []
    for name in ("p2", "p1xp1"):
        surface = builtin_surface(name)
        for label, bundle in _surface_bundles(surface):
            checks.append(
                _compare(
                    f"route agreement on {name}/{label} up to total degree {cap}",
                    grid, by_route(surface, [bundle], []), routes,
                )
            )
    p2 = builtin_surface("p2")
    h, o, m2 = p2.line_bundle([1, 0, 0]), p2.structure_sheaf(), p2.line_bundle([0, 1, 1])
    checks.append(
        _compare(
            f"ratio [O(1), O(1)]/[O] route agreement on p2 up to total degree {cap}",
            grid, by_route(p2, [h, h], [o]), routes,
        )
    )

    def pairing(n1, n2, m, swap):
        return engine.multi_bundle_invariant(
            p2, [], [], n1, n2, seed=seed, route="product", tops=((h, False), (m, swap))
        )

    def pairings(n1, n2):
        dual = pairing(n1, n2, m2.dual_twist(), False)
        return pairing(n1, n2, m2, True), (-1) ** (n1 + n2) * dual

    checks.append(
        _compare(
            f"duality sign of the swapped pairing on p2 up to total degree {cap}",
            _triangle(cap), pairings, ("swapped", "signed dual"),
        )
    )
    return checks


def suite_theorem4(cap=5, seed=0):
    checks = []
    for name in ("p2", "p1xp1"):
        surface = builtin_surface(name)
        for label, bundle in _surface_bundles(surface):
            direct = engine.z_nest_series(surface, bundle, cap, seed=seed)
            closed = engine.closed_form_series(surface, bundle, cap)
            checks.append(
                _compare(
                    f"series matches closed product on {name}/{label} to degree {cap}",
                    engine.series_grid(cap),
                    lambda n1, n2: (direct.coeff(n1, n2), closed.coeff(n1, n2)),
                    ("direct", "closed"),
                )
            )
    p2 = builtin_surface("p2")
    spot = engine.multi_bundle_invariant(p2, [p2.structure_sheaf()], [], 1, 0, seed=seed)
    checks.append(Check("spot value at (1,0) on the plane equals 9", spot == 9, f"got {spot}"))
    return checks


def suite_universality(cap=4, seed=0):
    checks = []
    fit = engine.universal_series_fit(cap, seed=seed)
    f1 = builtin_surface("hirzebruch(1)")
    # hirzebruch(1) has the K^2 and c2 of the generator p1xp1; the blow-up,
    # with K^2 = 7 and c2 = 5, also tests the fit's l3 and l4
    blowup = ToricSurface("five-ray blow-up of p2", [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)])
    cases = [
        (f1, "O", f1.structure_sheaf()),
        (f1, "O(1,0,2,0)", f1.line_bundle([1, 0, 2, 0])),
        (blowup, "O", blowup.structure_sheaf()),
        (blowup, "O(1,0,2,0,0)", blowup.line_bundle([1, 0, 2, 0, 0])),
    ]
    for surface, label, bundle in cases:
        cn = chern_numbers(surface, bundle)
        pred = engine.predicted_series(fit, cn)
        direct = engine.z_nest_series(surface, bundle, cap, seed=seed)
        checks.append(
            _compare(
                f"universal fit predicts {surface.name}/{label} to degree {cap}",
                _triangle(cap), lambda d1, d2: (pred.coeff(d1, d2), direct.coeff(d1, d2)),
                ("predicted", "direct"),
            )
        )
    return checks


def suite_fock(cap=3, seed=0):
    checks = []
    p2 = fock.Lattice(builtin_surface("p2"))
    quadric = fock.Lattice(builtin_surface("p1xp1"))
    grading = min(cap + 1, 4)
    checks.append(
        Check(
            f"Heisenberg commutation relations up to grading {grading}",
            fock.heisenberg_check(p2, grading),
        )
    )
    checks.append(
        Check(
            f"half-vertex exchange relation up to grading {cap}",
            fock.gamma_commutation_check(p2, (0, 1, 0), (1, 2, 0), cap)
            and fock.gamma_commutation_check(quadric, (0, 1, 0, 0), (0, 0, 1, 0), cap),
        )
    )
    checks.append(
        Check(
            "grading-operator conjugation rescales the vertex argument",
            fock.qn_conjugation_check(p2, (0, 1, 0), cap),
        )
    )
    pairs = [
        (p2, "plane", p2.zero(), p2.zero()),
        (p2, "plane", (0, 1, 0), (0, 2, 0)),
        (p2, "plane", (1, 1, 0), (0, 2, 1)),
        (quadric, "quadric", quadric.zero(), (0, 1, 2, 0)),
        (quadric, "quadric", (0, 1, 0, 0), (0, 0, 1, 0)),
    ]
    # w_trace keeps the nonzero cells of the box n1, n2 <= cap
    cells = [(n1, n2) for n1 in range(cap + 1) for n2 in range(cap + 1)]
    boxes = []
    for lattice, name, m1, m2 in pairs:
        box = fock.w_trace(lattice, m1, m2, cap)
        boxes.append(box)
        series = fock.trace_product_series(lattice, m1, m2, cap)
        checks.append(
            _compare(
                f"graded trace equals closed product on {name} lattice, M1={m1} M2={m2}",
                cells, lambda n1, n2: (box.get((n1, n2), 0), series.coeff(n1, n2)),
                ("trace", "product"),
            )
        )
    zero_box = boxes[0]  # the first pair is untwisted, on the plane
    gottsche = engine.gottsche_product_coefficients(p2.rank, cap)
    checks.append(
        _compare(
            "untwisted trace degenerates to the Euler-number product",
            cells, lambda n1, n2: (zero_box.get((n1, n2), 0), gottsche[n1] if n1 == n2 else 0),
            ("trace", "product"),
        )
    )
    return checks


def _oracle_mismatches(sizes):
    """The nested pairs of the sizes (n1, n2) whose tangent character differs
    from the free-resolution oracle, each shown with both characters."""
    bad = []
    for n1, n2 in sizes:
        for pair in enumerate_nested_pairs(n1, n2):
            direct = virtual_tangent_character(pair)
            resolved = virtual_tangent_character_resolution(pair)
            if direct != resolved:
                bad.append(f"{pair}: {direct} != {resolved}")
    return bad


def suite_oracle(cap=3, seed=0):
    partitions = [mu for n in range(cap + 1) for mu in enumerate_partitions(n)]
    block_bad = [
        f"V({a}, {b}): {block_character(a, b)} != {block_character_resolution(a, b)}"
        for a in partitions
        for b in partitions
        if block_character(a, b) != block_character_resolution(a, b)
    ]
    one = Partition((1,))
    t_11 = virtual_tangent_character(NestedPair(one, one))
    t_10 = virtual_tangent_character(NestedPair(one, EMPTY))
    e_11 = LaurentPoly({(-1, 0): 1, (0, -1): 1})
    e_10 = e_11 + LaurentPoly({(-1, -1): -1})
    rank_bad = []
    for n1, n2 in engine.series_grid(8):
        for pair in enumerate_nested_pairs(n1, n2):
            t = virtual_tangent_character(pair)
            if t.rank() != n1 + n2 or trivial_multiplicity(t):
                rank_bad.append(f"{pair}: rank={t.rank()} trivial={trivial_multiplicity(t)}")
    return [
        _check(
            f"blocks V(mu_a, mu_b) match the free-resolution oracle, nested or not, "
            f"sizes <= {cap}",
            block_bad,
        ),
        _check(
            f"tangent characters match the free-resolution oracle, outer size <= {cap}",
            _oracle_mismatches((n1, n2) for n1 in range(cap + 1) for n2 in range(n1 + 1)),
        ),
        _check(
            "tangent characters match the oracle at outer size 4, inner size 0, 2 or 4",
            _oracle_mismatches((4, n2) for n2 in (0, 2, 4)),
        ),
        Check(
            "closed forms at one point",
            t_11 == e_11 and t_10 == e_10,
            f"(1),(1): got={t_11} expected={e_11}; (1),(): got={t_10} expected={e_10}",
        ),
        _check("virtual rank n1+n2 and no trivial weight up to total degree 8", rank_bad),
    ]


_SUITE_FUNCS = {
    "gottsche": suite_gottsche,
    "nestprod": suite_nestprod,
    "theorem4": suite_theorem4,
    "universality": suite_universality,
    "fock": suite_fock,
    "oracle": suite_oracle,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name, cap=None, seed=0):
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}")
    caps = {} if cap is None else {"cap": cap}
    return _SUITE_FUNCS[name](seed=seed, **caps)
