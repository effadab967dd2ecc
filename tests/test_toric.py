"""Toric surfaces, equivariant line bundles, intersection numbers."""

import functools
import operator
import re
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nesthilb import cli, engine, toric
from nesthilb.fock import Lattice
from nesthilb.toric import (
    ToricError,
    ToricSurface,
    builtin_surface,
    chern_numbers,
    intersection_number,
    load_surface_config,
)

ROOT = Path(__file__).resolve().parent.parent


def test_charts_have_unimodular_dual_bases():
    for name in ("p2", "p1xp1", "hirzebruch(1)", "hirzebruch(3)"):
        surface = builtin_surface(name)
        for chart in surface.charts:
            r1, r2 = chart.rays
            # duality: <u, r1> = 1, <u, r2> = 0 and symmetrically for v
            assert chart.u[0] * r1[0] + chart.u[1] * r1[1] == 1
            assert chart.u[0] * r2[0] + chart.u[1] * r2[1] == 0
            assert chart.v[0] * r1[0] + chart.v[1] * r1[1] == 0
            assert chart.v[0] * r2[0] + chart.v[1] * r2[1] == 1


def test_non_unimodular_fan_rejected():
    with pytest.raises(ToricError):
        ToricSurface("bad", [(1, 0), (1, 2), (-1, -1)])


@pytest.mark.parametrize("rays", [
    [(1, 0), (0, 1), (-1, -1)] * 2,  # the plane's rays wound twice: K^2 = 18, e = 6
    [(1, 0), (0, 1), (-1, 0), (0, 1)],  # unimodular cones turning both ways
], ids=["wound-twice", "mixed-orientation"])
def test_rays_that_are_not_a_fan_rejected(rays):
    with pytest.raises(ToricError):
        ToricSurface("bad", rays)


def test_clockwise_plane_accepted():
    p2 = ToricSurface("p2-clockwise", [(1, 0), (-1, -1), (0, 1)])
    assert chern_numbers(p2, p2.structure_sheaf()).K_squared == 9


def test_euler_numbers():
    assert builtin_surface("p2").euler_number == 3
    assert builtin_surface("p1xp1").euler_number == 4
    assert builtin_surface("hirzebruch(2)").euler_number == 4


def test_intersection_numbers_plane():
    p2 = builtin_surface("p2")
    h = p2.line_bundle([1, 0, 0])
    k = p2.canonical_bundle()
    assert intersection_number(p2, h, h) == 1
    assert intersection_number(p2, h, k) == -3
    assert intersection_number(p2, k, k) == 9


def test_intersection_numbers_quadric_and_blowup():
    q = builtin_surface("p1xp1")
    f1 = q.line_bundle([1, 0, 0, 0])
    f2 = q.line_bundle([0, 1, 0, 0])
    assert intersection_number(q, f1, f1) == 0
    assert intersection_number(q, f1, f2) == 1
    assert intersection_number(q, q.canonical_bundle(), q.canonical_bundle()) == 8
    f = builtin_surface("hirzebruch(1)")
    assert intersection_number(f, f.canonical_bundle(), f.canonical_bundle()) == 8


def test_intersection_is_bilinear_and_symmetric():
    p2 = builtin_surface("p2")
    a = p2.line_bundle([2, 1, 0])
    b = p2.line_bundle([0, 1, 3])
    c = p2.line_bundle([1, 1, 1])
    assert intersection_number(p2, a, b) == intersection_number(p2, b, a)
    assert intersection_number(p2, p2.line_bundle([2, 2, 3]), c) == (
        intersection_number(p2, a, c) + intersection_number(p2, b, c)
    )


def test_chern_number_tuples():
    p2 = builtin_surface("p2")
    cn = chern_numbers(p2, p2.structure_sheaf())
    assert (cn.M_squared, cn.M_dot_K, cn.K_squared, cn.c2) == (0, 0, 9, 3)
    q = builtin_surface("p1xp1")
    cn = chern_numbers(q, q.structure_sheaf())
    assert (cn.M_squared, cn.M_dot_K, cn.K_squared, cn.c2) == (0, 0, 8, 4)


def test_dual_twist_chern_data():
    # <K - M, M> = M.K - M^2 for every bundle
    p2 = builtin_surface("p2")
    m = p2.line_bundle([2, 0, 1])
    md = m.dual_twist()
    assert md.coeffs == [-3, -1, -2]
    assert intersection_number(p2, md, m) == (
        intersection_number(p2, m, p2.canonical_bundle())
        - intersection_number(p2, m, m)
    )


def global_weight(bundle, chart):
    """The bundle's global weight m = -a_i u - a_i+1 v at chart i, the vertex
    of the divisor polytope there: the reference frame of the tests."""
    a1 = bundle.coeffs[chart.index]
    a2 = bundle.coeffs[(chart.index + 1) % len(bundle.coeffs)]
    return (-a1 * chart.u[0] - a2 * chart.v[0], -a1 * chart.u[1] - a2 * chart.v[1])


def test_local_weight_convention():
    # each chart weight pairs to -a_r with both rays r of its cone
    for name in ("p2", "p1xp1", "hirzebruch(1)", "hirzebruch(-7)"):
        surface = builtin_surface(name)
        n = len(surface.rays)
        coeffs = [3, -1, 2, 5][:n]
        bundle = surface.line_bundle(coeffs)
        for chart in surface.charts:
            m = global_weight(bundle, chart)
            for offset, r in enumerate(chart.rays):
                assert m[0] * r[0] + m[1] * r[1] == -coeffs[(chart.index + offset) % n]


def test_bundle_arithmetic_validation():
    p2 = builtin_surface("p2")
    with pytest.raises(ToricError):
        p2.line_bundle([1, 0])


def test_bundle_from_another_surface_is_rejected():
    p2, q = builtin_surface("p2"), builtin_surface("p1xp1")
    stray = q.line_bundle([1, 0, 0, 1])
    with pytest.raises(ToricError, match="does not live on"):
        intersection_number(p2, stray, stray)
    with pytest.raises(ToricError, match="does not live on"):
        Lattice(p2).vector(stray)
    with pytest.raises(ToricError, match="does not live on"):
        engine.multi_bundle_invariant(p2, [stray], [], 1, 0)
    # a bundle on another copy of the same fan is on the same surface
    twin = builtin_surface("p2").line_bundle([1, 0, 0])
    assert intersection_number(p2, twin, twin) == 1
    own = p2.line_bundle([1, 0, 0])
    assert engine.multi_bundle_invariant(p2, [twin], [], 2, 1) == (
        engine.multi_bundle_invariant(p2, [own], [], 2, 1)
    )


def test_load_surface_config(tmp_path):
    path = tmp_path / "surface.yaml"
    path.write_text(
        "name: quadric\n"
        "rays: [[1, 0], [0, 1], [-1, 0], [0, -1]]\n"
        "bundles:\n  ruling: [1, 0, 0, 0]\n"
    )
    surface, bundles = load_surface_config(path)
    assert surface.euler_number == 4
    assert intersection_number(surface, bundles["ruling"], bundles["ruling"]) == 0


def test_load_surface_config_rejects_junk(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("just a string\n")
    with pytest.raises(ToricError):
        load_surface_config(path)


def test_shipped_config_loads_and_unknown_keys_are_named(tmp_path):
    config = ROOT / "configs" / "hirzebruch1.yaml"
    surface, bundles = load_surface_config(config)
    assert (surface.name, sorted(bundles)) == ("hirzebruch1", ["anticanonical", "fiber", "section"])
    path = tmp_path / "extra.yaml"
    path.write_text(config.read_text() + "extra: 1\n")
    with pytest.raises(ToricError, match="unknown config key 'extra'"):
        load_surface_config(path)


PLANE = "rays: [[1, 0], [0, 1], [-1, -1]]\n"


def _read_yaml(stream):
    """PyYAML's reading of `stream`, with every key unique in its mapping and
    every integer spelled canonically: the oracle of the plain reader."""

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep)
            seen = set()
            for key_node, _ in node.value:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r}", key_node.start_mark
                    )
                seen.add(key)
            return mapping

        def construct_canonical_int(self, node):
            text = self.construct_scalar(node)
            if not re.fullmatch(toric._INT, text):
                raise yaml.constructor.ConstructorError(
                    None, None, f"integer {text!r} is not spelled canonically", node.start_mark
                )
            return int(text)

    UniqueKeyLoader.add_constructor(
        "tag:yaml.org,2002:int", UniqueKeyLoader.construct_canonical_int
    )
    try:
        return yaml.load(stream, Loader=UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ToricError(f"invalid YAML: {' '.join(str(exc).split())}")


@st.composite
def _now_and_then(draw, common, rare, one_in):
    """`rare` one draw in `one_in`, else `common`."""
    return draw(rare if draw(st.sampled_from(range(one_in))) == 0 else common)


# Words, some of them YAML's bools and nulls, and some not words at all.
_words = _now_and_then(
    st.builds(operator.add, st.sampled_from("Aaz_"), st.text("Aaz_09", max_size=3)),
    st.sampled_from(["yes", "No", "on", "OFF", "null", "Null", "true", "False", "~", "'h'", "1"]),
    6,
)
_integers = _now_and_then(
    st.integers(-12, 12).map(str),
    st.sampled_from(["-0", "010", "-01", "00", "+1", "1_0", "0x10", "1:30", "1.5", ""]),
    8,
)


def _flow_list(items):
    return st.builds(
        lambda items, comma, pad: f"[{pad}{comma.join(items)}{pad}]",
        st.lists(items, max_size=3), _now_and_then(st.sampled_from([",", ", "]), st.just(" ,"), 20),
        st.sampled_from(["", " "]),
    )


_flow_lists = _flow_list(st.recursive(_integers, _flow_list, max_leaves=4))
_values = _now_and_then(_flow_lists, st.one_of(_words, _integers), 10)
_tails = _now_and_then(
    st.sampled_from(["", "", " # note", "  #n", " "]), st.sampled_from(["#n", "\t"]), 20
)
_indents = _now_and_then(st.just(2), st.sampled_from([0, 1, 4]), 20)


@st.composite
def near_plain_texts(draw):
    """Texts in or near the plain form: top-level keys with flow values or with
    one block of `- ` items or `label: ` entries, some indented unevenly, some
    mixing both kinds, among comments and blank lines, some with CRLF line ends."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        key, tail = draw(_words), draw(_tails)
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(_values)}{tail}")
            continue
        lines.append(f"{key}:{tail}")
        dash, indent = draw(st.booleans()), draw(_indents)
        for _ in range(draw(_now_and_then(st.integers(1, 3), st.just(0), 20))):
            if draw(_now_and_then(st.just(False), st.booleans(), 20)):
                dash, indent = not dash, draw(_indents)
            head = "- " if dash else f"{draw(_words)}: "
            lines.append(f"{' ' * indent}{head}{draw(_values)}{draw(_tails)}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "# note", "  # note"])))
    end = draw(_now_and_then(st.just("\n"), st.just("\r\n"), 5))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=300, deadline=None)
@given(near_plain_texts())
def test_plain_reader_agrees_with_pyyaml(text):
    """On every text it accepts, the plain reader reads what PyYAML reads: the
    same keys in the same order, the same types and the same integers."""
    try:
        plain = toric._read_plain(text)
    except ValueError:
        return
    assert repr(plain) == repr(_read_yaml(text))


def test_shipped_configs_and_the_readme_example_are_plain():
    texts = [path.read_text() for path in sorted((ROOT / "configs").glob("*.yaml"))]
    texts += re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(texts) >= 2
    for text in texts:
        assert repr(toric._read_plain(text)) == repr(_read_yaml(text))


@pytest.mark.parametrize("text", [
    PLANE.replace("\n", "\r\n") + "bundles:\r\n  h: [1, 0, 0]\r\n",
    '{"rays": [[1, 0], [0, 1], [-1, -1]], "bundles": {"h": [1, 0, 0]}}',
], ids=["crlf", "json"])
def test_crlf_plain_text_and_json_load(tmp_path, text):
    path = tmp_path / "surface.yaml"
    path.write_bytes(text.encode())
    surface, bundles = load_surface_config(path)
    assert (surface.name, surface.rays) == ("custom", [(1, 0), (0, 1), (-1, -1)])
    assert {label: bundle.coeffs for label, bundle in bundles.items()} == {"h": [1, 0, 0]}


@pytest.mark.parametrize("text, reason", [
    (PLANE + "bundles: {h: [1, 0, 0]}\n", "not a plain value: '{h: [1, 0, 0]}'"),
    (PLANE + "bundles:\n  'h': [1, 0, 0]\n", 'not a plain line: "  \'h\': [1, 0, 0]"'),
    ("rays:\n- [1, 0]\n- [0, 1]\n- [-1, -1]\nbundles:\n  h: [1, 0, 0]\n",
     "misplaced line: '- [1, 0]'"),
], ids=["flow-mapping", "quoted-label", "compact-block"])
def test_yaml_outside_the_plain_form_is_usage_error(tmp_path, capsys, text, reason):
    """PyYAML would read each of these texts, but a config is plain or JSON."""
    path = tmp_path / "surface.yaml"
    path.write_text(text)
    code = cli.main(["integrate", "--surface", str(path), "--n1", "1", "--n2", "0"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", (
        f"error: config {path} is neither in the plain form ({reason}) nor JSON "
        "(Expecting value: line 1 column 1 (char 0))\n"
    ))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _localization_sum(surface, l1, l2):
    """c1(L1).c1(L2) as sum over charts of (w1.p)(w2.p) / ((u.p)(v.p)),
    at a point p = (1, k) where no chart weight vanishes."""
    p = next(
        (1, k) for k in count(1)
        if all(_dot(c.u, (1, k)) and _dot(c.v, (1, k)) for c in surface.charts)
    )
    return sum(
        Fraction(
            _dot(global_weight(l1, c), p) * _dot(global_weight(l2, c), p),
            _dot(c.u, p) * _dot(c.v, p),
        )
        for c in surface.charts
    )


def _blow_up(rays, i):
    """The toric blow-up of the fixed point on rays i, i+1: insert their sum."""
    r1, r2 = rays[i], rays[(i + 1) % len(rays)]
    return rays[: i + 1] + [(r1[0] + r2[0], r1[1] + r2[1])] + rays[i + 1 :]


@st.composite
def surfaces_with_bundles(draw):
    """Iterated toric blow-ups of P^2 or F_a, with a random line bundle."""
    a = draw(st.integers(-3, 3))
    rays = draw(st.sampled_from([
        [(1, 0), (0, 1), (-1, -1)],
        [(1, 0), (0, 1), (-1, a), (0, -1)],
    ]))
    for _ in range(draw(st.integers(0, 3))):
        rays = _blow_up(rays, draw(st.integers(0, len(rays) - 1)))
    surface = ToricSurface("blown-up", rays)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rays), max_size=len(rays)))
    return surface, surface.line_bundle(coeffs)


@functools.cache
def _fit():
    return engine.universal_series_fit(3)


def _check_intersections_and_closed_form(surface, bundle):
    k = surface.canonical_bundle()
    for l1, l2 in ((bundle, bundle), (bundle, k), (k, k)):
        assert intersection_number(surface, l1, l2) == _localization_sum(surface, l1, l2)
    series = engine.z_nest_series(surface, bundle, 3)
    assert series == engine.closed_form_series(surface, bundle, 3)
    # universality: the fit from the four generators predicts any surface
    assert engine.predicted_series(_fit(), chern_numbers(surface, bundle)) == series


@settings(max_examples=25, deadline=None)
@given(surfaces_with_bundles())
def test_random_surfaces_intersections_and_closed_form(surface_bundle):
    _check_intersections_and_closed_form(*surface_bundle)


def test_hirzebruch_minus_seven_intersections_and_closed_form():
    # a chart weight of F_{-7} is orthogonal to (1, 7): the form must not care
    surface = builtin_surface("hirzebruch(-7)")
    cn = chern_numbers(surface, surface.canonical_bundle())
    assert (cn.M_squared, cn.M_dot_K, cn.K_squared, cn.c2) == (8, 8, 8, 4)
    _check_intersections_and_closed_form(surface, surface.line_bundle([1, 0, 2, 0]))
