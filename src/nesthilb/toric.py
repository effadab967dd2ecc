"""Smooth projective toric surfaces as lists of fixed-point charts.

Everything is derived from the cyclically ordered list of rays by 2x2
integer linear algebra: each adjacent (unimodular) cone gives one chart,
whose two tangent weights are the dual basis of the cone, and a
torus-invariant divisor gives one linearization weight per chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import DegenerateSpecializationError


class ToricError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """One torus fixed point: local coordinates have weights u and v."""

    index: int
    rays: tuple  # the two rays spanning the cone, in cyclic order
    u: tuple  # dual basis vector pairing to 1 with rays[0]
    v: tuple  # dual basis vector pairing to 1 with rays[1]


def _det(r1, r2):
    return r1[0] * r2[1] - r1[1] * r2[0]


def _dual_basis(r1, r2):
    det = _det(r1, r2)
    if det not in (1, -1):
        raise ToricError(f"cone on {r1}, {r2} is not unimodular")
    # rows of the inverse transpose of [r1; r2]
    u = (r2[1] * det, -r2[0] * det)
    v = (-r1[1] * det, r1[0] * det)
    return u, v


class ToricSurface:
    def __init__(self, name, rays):
        rays = [tuple(int(c) for c in r) for r in rays]
        if len(rays) < 3:
            raise ToricError("need at least three rays")
        self.name = name
        self.rays = rays
        self.charts = []
        n = len(rays)
        for i in range(n):
            r1, r2 = rays[i], rays[(i + 1) % n]
            u, v = _dual_basis(r1, r2)
            self.charts.append(Chart(i, (r1, r2), u, v))
        signs = {_det(*chart.rays) for chart in self.charts}
        if len(signs) != 1:
            raise ToricError("cones turn both ways around the origin: not a fan")
        # r_{i-1} + r_{i+1} = a_i r_i with a_i = s det(r_{i-1}, r_{i+1}) and D_i^2 = -a_i,
        # so K^2 = sum D_i^2 + 2 sum D_i D_{i+1} = 2n - sum a_i; Noether: K^2 + e = 12
        s = signs.pop()
        k_sq = 2 * n - sum(s * _det(rays[i - 1], rays[(i + 1) % n]) for i in range(n))
        if k_sq + n != 12:
            raise ToricError(f"rays wind around the origin more than once: K^2 + e = {k_sq + n}")

    @property
    def euler_number(self):
        return len(self.charts)

    def line_bundle(self, coeffs):
        return EquivariantLineBundle(self, coeffs)

    def structure_sheaf(self):
        return self.line_bundle([0] * len(self.rays))

    def canonical_bundle(self):
        return self.line_bundle([-1] * len(self.rays))

    def __repr__(self):
        return f"ToricSurface({self.name!r}, {len(self.charts)} charts)"


class EquivariantLineBundle:
    """Line bundle of a torus-invariant divisor sum(a_i D_i).

    The weight at each chart solves <m, ray> = -a_ray for the chart's two
    rays; this is the vertex of the divisor polytope at that fixed point.
    """

    def __init__(self, surface, coeffs):
        coeffs = [int(a) for a in coeffs]
        if len(coeffs) != len(surface.rays):
            raise ToricError("one divisor coefficient per ray required")
        self.surface = surface
        self.coeffs = coeffs
        self.weights = []
        n = len(surface.rays)
        for chart in surface.charts:
            a1 = coeffs[chart.index]
            a2 = coeffs[(chart.index + 1) % n]
            # m = -a1 * u - a2 * v satisfies <m, r1> = -a1, <m, r2> = -a2
            m = (-a1 * chart.u[0] - a2 * chart.v[0], -a1 * chart.u[1] - a2 * chart.v[1])
            self.weights.append(m)

    def local_weight(self, chart):
        """The chart weight written in the chart's own coordinates.

        Returns (c1, c2) with weight = c1*u + c2*v; the multiplying monomial
        is t1^c1 t2^c2 in local coordinates.
        """
        m = self.weights[chart.index]
        r1, r2 = chart.rays
        # <m, r1> = c1, <m, r2> = c2 since (u, v) is the dual basis
        return (m[0] * r1[0] + m[1] * r1[1], m[0] * r2[0] + m[1] * r2[1])

    def dual_twist(self):
        """The Serre-dual twist K - L of this bundle."""
        return EquivariantLineBundle(
            self.surface, [-1 - a for a in self.coeffs]
        )

    def __add__(self, other):
        if other.surface is not self.surface:
            raise ToricError("bundles live on different surfaces")
        return EquivariantLineBundle(
            self.surface, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return EquivariantLineBundle(self.surface, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"EquivariantLineBundle({self.surface.name!r}, {self.coeffs})"


@dataclass(frozen=True)
class ChernNumbers:
    M_squared: int
    M_dot_K: int
    K_squared: int
    c2: int


def builtin_surface(name):
    """Built-in surfaces: 'p2', 'p1xp1', and 'hirzebruch(a)'."""
    if name == "p2":
        return ToricSurface("p2", [(1, 0), (0, 1), (-1, -1)])
    if name == "p1xp1":
        return ToricSurface("p1xp1", [(1, 0), (0, 1), (-1, 0), (0, -1)])
    if name.startswith("hirzebruch(") and name.endswith(")"):
        a = int(name[len("hirzebruch(") : -1])
        return ToricSurface(name, [(1, 0), (0, 1), (-1, a), (0, -1)])
    raise ToricError(f"unknown surface {name!r}")


def _localization_sum(surface, m1s, m2s, spec):
    x, y = spec
    total = Fraction(0)
    for chart in surface.charts:
        du = chart.u[0] * x + chart.u[1] * y
        dv = chart.v[0] * x + chart.v[1] * y
        if du == 0 or dv == 0:
            raise DegenerateSpecializationError("degenerate specialization")
        w1 = m1s[chart.index]
        w2 = m2s[chart.index]
        total += Fraction((w1[0] * x + w1[1] * y) * (w2[0] * x + w2[1] * y), du * dv)
    return total


_INTERSECTION_SPECS = ((Fraction(1), Fraction(7)), (Fraction(3), Fraction(-5)))


def intersection_number(surface, l1, l2):
    """Intersection number c1(L1).c1(L2) by fixed-point localization.

    Evaluated at two independent generic specializations; both must agree
    and the common value must be an integer.
    """
    values = [
        _localization_sum(surface, l1.weights, l2.weights, spec) for spec in _INTERSECTION_SPECS
    ]
    if len(set(values)) != 1:
        raise ToricError("non-constant localization sum")
    value = values[0]
    if value.denominator != 1:
        raise ToricError("non-integer intersection number")
    return int(value)


def chern_numbers(surface, bundle):
    k = surface.canonical_bundle()
    return ChernNumbers(
        M_squared=intersection_number(surface, bundle, bundle),
        M_dot_K=intersection_number(surface, bundle, k),
        K_squared=intersection_number(surface, k, k),
        c2=surface.euler_number,
    )


def load_surface_config(path):
    """Load a surface plus named bundles from a YAML/JSON config file.

    Schema: {name: str, rays: [[x, y], ...], bundles: {label: [a_1, ...]}}.
    Returns (surface, {label: bundle}).
    """
    import yaml

    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict) or "rays" not in data:
        raise ToricError("config must be a mapping with a 'rays' field")
    surface = ToricSurface(str(data.get("name", "custom")), data["rays"])
    bundles = {}
    for label, coeffs in (data.get("bundles") or {}).items():
        bundles[str(label)] = surface.line_bundle(coeffs)
    return surface, bundles
