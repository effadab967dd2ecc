"""Toric surfaces, equivariant line bundles, intersection numbers."""

import pytest

from nesthilb.toric import (
    ToricError,
    ToricSurface,
    builtin_surface,
    chern_numbers,
    intersection_number,
    load_surface_config,
)


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
    assert intersection_number(p2, a + b, c) == (
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


def test_local_weight_convention():
    p2 = builtin_surface("p2")
    h = p2.line_bundle([1, 0, 0])
    chart = p2.charts[0]
    c1, c2 = h.local_weight(chart)
    # the chart weight written on the chart's own coordinates is -a per ray
    assert (c1, c2) == (-1, 0)


def test_bundle_arithmetic_validation():
    p2 = builtin_surface("p2")
    q = builtin_surface("p1xp1")
    with pytest.raises(ToricError):
        p2.line_bundle([1, 0])
    with pytest.raises(ToricError):
        p2.structure_sheaf() + q.structure_sheaf()


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
