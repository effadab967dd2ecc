"""Acceptance gate: the ten cross-validation criteria, one test each.

Criteria 1-9 are checks of the `verify` suites, run here once per
session at the suites' default caps; each test asserts that the checks
holding its criterion passed.  Criterion 10 (CLI determinism) is tested
here directly.  Every check is exact rational/integer equality; there
are no tolerances anywhere, and a failed check reports its first three
counterexamples.
"""

import functools
import io
import json

from nesthilb import cli, verify

run_suite = functools.cache(verify.run_suite)
SURFACE_BUNDLES = [f"{s}/{b}" for s, bundles in (("p2", ("O", "O(1)", "K")),
                                                 ("p1xp1", ("O", "O(1,0)", "K")))
                   for b in bundles]


def assert_checks_pass(suite, *prefixes):
    """Each label prefix names at least one check of the suite; all passed."""
    checks = run_suite(suite)
    for prefix in prefixes:
        held = [c for c in checks if c.label.startswith(prefix)]
        assert held, (suite, prefix, [c.label for c in checks])
        failed = [(c.label, c.detail) for c in held if not c.passed]
        assert not failed, failed


def test_criterion_1_tangent_character_oracle():
    """Virtual tangent characters equal the free-resolution oracle exactly:
    all pairs with outer size <= 3, outer size 4 with inner size 0, 2, 4,
    and the closed forms at one point; so does every block V(mu_a, mu_b),
    nested or not, with sizes <= 3."""
    assert_checks_pass(
        "oracle",
        "blocks V(mu_a, mu_b) match the free-resolution oracle, nested or not, sizes <= 3",
        "tangent characters match the free-resolution oracle, outer size <= 3",
        "tangent characters match the oracle at outer size 4",
        "closed forms at one point",
    )


def test_criterion_2_rank_and_no_trivial_weight():
    """rank(T^vir) = n1 + n2 and no trivial weight, all pairs n1+n2 <= 8."""
    assert_checks_pass("oracle", "virtual rank n1+n2 and no trivial weight up to total degree 8")


def test_criterion_3_gottsche_counts():
    """Fixed-point counts match the Euler-number product up to degree 6."""
    assert_checks_pass(
        "gottsche",
        *(f"fixed-point counts match Euler product on {s}" for s in ("p2", "p1xp1", "hirzebruch(1)")),
        "first five Euler numbers",
    )


def test_criterion_4_dual_route_agreement():
    """Nested and product localization agree for all n1+n2 <= 5."""
    assert_checks_pass(
        "nestprod",
        *(f"route agreement on {sb} up to total degree 5" for sb in SURFACE_BUNDLES),
    )


def test_criterion_5_closed_form_series():
    """Localization series equals the closed product up to total degree 5."""
    assert_checks_pass(
        "theorem4",
        *(f"series matches closed product on {sb} to degree 5" for sb in SURFACE_BUNDLES),
        "spot value at (1,0) on the plane equals 9",
    )


def test_criterion_6_universality():
    """The four fitted universal log series predict two more surfaces exactly."""
    assert_checks_pass(
        "universality",
        "universal fit predicts hirzebruch(1)/O to degree 4",
        "universal fit predicts hirzebruch(1)/O(1,0,2,0) to degree 4",
        "universal fit predicts five-ray blow-up of p2/O to degree 4",
        "universal fit predicts five-ray blow-up of p2/O(1,0,2,0,0) to degree 4",
    )


def test_criterion_7_multi_bundle_ratio():
    """Ratio integrands [O(1), O(1)] / [O] agree across routes, n1+n2 <= 5."""
    assert_checks_pass("nestprod", "ratio [O(1), O(1)]/[O] route agreement on p2 up to total degree 5")


def test_criterion_8_fock_trace():
    """Truncated Fock traces reproduce the closed three-family product."""
    assert_checks_pass(
        "fock",
        "Heisenberg commutation relations",
        "half-vertex exchange relation up to grading 3",
        "grading-operator conjugation rescales the vertex argument",
        *(f"graded trace equals closed product on {name} lattice, M1={m1} M2={m2}"
          for name, m1, m2 in (("plane", (0, 1, 0), (0, 2, 0)), ("plane", (1, 1, 0), (0, 2, 1)),
                               ("quadric", (0, 0, 0, 0), (0, 1, 2, 0)),
                               ("quadric", (0, 1, 0, 0), (0, 0, 1, 0)))),
        "untwisted trace degenerates to the Euler-number product",
    )


def test_criterion_9_duality_sign():
    """Pairing with swapped factor = (-1)^(n1+n2) pairing against K - M."""
    assert_checks_pass("nestprod", "duality sign of the swapped pairing on p2 up to total degree 5")


def test_criterion_10_determinism():
    """Fixed seed: byte-identical output; varied seed: identical values."""

    def run(argv):
        out = io.StringIO()
        code = cli.main(argv, out=out)
        assert code == 0
        return out.getvalue()

    argv = ["integrate", "--surface", "p2", "--bundle", "O(1)",
            "--n1", "2", "--n2", "1", "--route", "both", "--seed", "3"]
    assert run(argv) == run(argv)
    values = set()
    for seed in ("0", "4", "11"):
        text = run(["integrate", "--surface", "p2", "--bundle", "O(1)",
                    "--n1", "2", "--n2", "1", "--seed", seed])
        record = json.loads(text)["records"][0]
        values.add((record["value"]["num"], record["value"]["den"]))
    assert len(values) == 1, values


def test_verify_suites_all_pass():
    """Every verification suite is green at its default cap."""
    for name in verify.SUITES:
        failed = [(c.label, c.detail) for c in run_suite(name) if not c.passed]
        assert not failed, (name, failed)
