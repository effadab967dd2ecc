"""Smooth projective toric surfaces as lists of fixed-point charts.

Everything is derived from the cyclically ordered list of rays by 2x2
integer linear algebra: each adjacent (unimodular) cone gives one chart,
whose two tangent weights are the dual basis of the cone, a
torus-invariant divisor is one coefficient per ray, and the
self-intersections of the boundary divisors give the intersection form.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple


class ToricError(Exception):
    pass


class Chart(namedtuple("Chart", "index rays u v")):
    """One torus fixed point: local coordinates have weights u and v.

    rays holds the two rays spanning the cone, in cyclic order; u is the dual
    basis vector pairing to 1 with rays[0], and v with rays[1].
    """

    __slots__ = ()


def _det(r1, r2):
    return r1[0] * r2[1] - r1[1] * r2[0]


def _integers(values, what, length):
    """values as a tuple of ints; a bool, a float or a wrong length is a ToricError."""
    if (
        not isinstance(values, (list, tuple))
        or len(values) != length
        or any(isinstance(c, bool) or not isinstance(c, int) for c in values)
    ):
        raise ToricError(f"{what} must be a list of {length} integers, got {values!r}")
    return tuple(values)


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
        if not isinstance(rays, (list, tuple)):
            raise ToricError(f"rays must be a list of integer pairs, got {rays!r}")
        rays = [_integers(r, "a ray", 2) for r in rays]
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
        # r_{i-1} + r_{i+1} = a_i r_i with a_i = s det(r_{i-1}, r_{i+1}), and D_i^2 = -a_i
        s = signs.pop()
        self.self_intersections = [-s * _det(rays[i - 1], rays[(i + 1) % n]) for i in range(n)]
        # Noether's identity K^2 + e = 12 fails for rays that wind more than once
        k = self.canonical_bundle()
        k_sq = intersection_number(self, k, k)
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
    """Line bundle of a torus-invariant divisor sum(a_i D_i)."""

    def __init__(self, surface, coeffs):
        coeffs = list(_integers(coeffs, "divisor coefficients (one per ray)", len(surface.rays)))
        self.surface = surface
        self.coeffs = coeffs

    def dual_twist(self):
        """The Serre-dual twist K - L of this bundle."""
        return EquivariantLineBundle(
            self.surface, [-1 - a for a in self.coeffs]
        )

    def __repr__(self):
        return f"EquivariantLineBundle({self.surface.name!r}, {self.coeffs})"


ChernNumbers = namedtuple("ChernNumbers", "M_squared M_dot_K K_squared c2")


def builtin_surface(name):
    """Built-in surfaces: 'p2', 'p1xp1', and 'hirzebruch(a)'."""
    if name == "p2":
        return ToricSurface("p2", [(1, 0), (0, 1), (-1, -1)])
    if name == "p1xp1":
        return ToricSurface("p1xp1", [(1, 0), (0, 1), (-1, 0), (0, -1)])
    if name.startswith("hirzebruch(") and name.endswith(")"):
        # only the canonical spelling, so that a surface has one name
        a = canonical_int(name[len("hirzebruch(") : -1])
        if a is not None:
            return ToricSurface(name, [(1, 0), (0, 1), (-1, a), (0, -1)])
    raise ToricError(f"unknown surface {name!r}")


def check_bundle(surface, bundle):
    """Raise ToricError unless the bundle lives on a surface with the rays of `surface`."""
    if bundle.surface is not surface and bundle.surface.rays != surface.rays:
        raise ToricError(f"{bundle!r} does not live on {surface!r}")


def intersection_number(surface, l1, l2):
    """Intersection number c1(L1).c1(L2) from the fan.

    D_i^2 is the stored self-intersection, adjacent boundary divisors meet
    once, and all other pairs are disjoint.
    """
    check_bundle(surface, l1)
    check_bundle(surface, l2)
    a, b, n = l1.coeffs, l2.coeffs, len(surface.rays)
    return sum(
        a[i] * b[i] * surface.self_intersections[i]
        + a[i] * b[(i + 1) % n]
        + a[(i + 1) % n] * b[i]
        for i in range(n)
    )


def chern_numbers(surface, bundle):
    k = surface.canonical_bundle()
    return ChernNumbers(
        M_squared=intersection_number(surface, bundle, bundle),
        M_dot_K=intersection_number(surface, bundle, k),
        K_squared=intersection_number(surface, k, k),
        c2=surface.euler_number,
    )


CONFIG_KEYS = ("name", "rays", "bundles")

# The plain form of a config, a subset of YAML that PyYAML reads to the same
# data: top-level `key: value` lines, each value a word, a canonical integer or
# a one-line flow list of canonical integers, or one indented block of
# `- value` items or `label: value` entries; full-line and trailing comments.
# Words are identifiers other than YAML 1.1's bool and null words, which do
# not read as strings, and shorter than the 1024 characters past which PyYAML
# finds no key.  The patterns compile on first use, in re's cache, so that a
# run without a config file does not pay for them.
_INT = r"(?:0|-?[1-9][0-9]*)(?![0-9])"
_WORD = r"[A-Za-z_][A-Za-z0-9_]{0,999}"
_PLAIN_LIST = rf"\[(?:[][, ]|{_INT})*\]"
_PLAIN_LINE = rf"( *)(?:(-) +|({_WORD}):(?: +|$))(.*)"
_NOT_PLAIN_TEXT = r"[^\n -~]"  # a tab, a bare CR, a BOM or a non-ASCII character
_YAML_WORDS = {"y", "n", "yes", "no", "true", "false", "on", "off", "null"}


def canonical_int(text):
    """int(text) if text spells an integer as str() spells it, else None:
    so 010, +1, 1_0, -0, 0x10 and 1:30 are None."""
    return int(text) if re.fullmatch(_INT, text) else None


def _read_plain(text):
    """The mapping that PyYAML reads from `text`, if `text` is in the plain
    form; ValueError otherwise.  CRLF line ends read as LF."""
    text = text.replace("\r\n", "\n")
    if re.search(_NOT_PLAIN_TEXT, text):
        raise ValueError("not printable ASCII")
    lines = []  # [key, value, indented lines under it]
    for line in text.split("\n"):
        content, comment, _ = line.partition("#")
        if comment and content.strip(" ") and not content.endswith(" "):
            raise ValueError(f"'#' inside a value: {line!r}")
        content = content.rstrip(" ")
        if not content:
            continue
        match = re.fullmatch(_PLAIN_LINE, content)
        if match is None:
            raise ValueError(f"not a plain line: {line!r}")
        indent, dash, key, value = match.groups()
        if indent and lines and not lines[-1][1]:
            lines[-1][2].append((indent, dash, key, value))
        elif indent or dash:
            raise ValueError(f"misplaced line: {line!r}")
        else:
            lines.append([key, value, []])
    if not lines:
        raise ValueError("no keys")
    return _unique_keys(
        (_plain_value(key), _plain_value(value) if value else _plain_block(block))
        for key, value, block in lines
    )


def _plain_block(block):
    """The list or mapping of one indented block of plain lines."""
    if not block or len({(indent, dash) for indent, dash, _, _ in block}) != 1:
        raise ValueError("an empty block, or uneven indentation")
    if block[0][1]:
        return [_plain_value(value) for _, _, _, value in block]
    return _unique_keys((_plain_value(label), _plain_value(value)) for _, _, label, value in block)


def _unique_keys(pairs):
    """A dict of (key, value) pairs; ValueError at a repeated key.  Both the
    plain reader and the JSON reader build every mapping with it."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ValueError(f"repeated key {key!r}")
        mapping[key] = value
    return mapping


def _plain_value(text):
    """A word, a canonical integer or a flow list of canonical integers as
    PyYAML reads it; ValueError otherwise."""
    if re.fullmatch(_WORD, text) and text.lower() not in _YAML_WORDS:
        return text
    if re.fullmatch(_PLAIN_LIST, text):
        return json.loads(text)
    value = canonical_int(text)
    if value is None:
        raise ValueError(f"not a plain value: {text!r}")
    return value


def _json_int(text):
    """A JSON integer spelled canonically; ValueError at -0."""
    value = canonical_int(text)
    if value is None:
        raise ValueError(f"integer {text!r} is not spelled canonically")
    return value


def load_surface_config(path):
    """Load a surface plus named bundles from a config file.

    The file is UTF-8 text in the plain form (see _read_plain), or else
    JSON.  Schema: {name: str, rays: [[x, y], ...], bundles: {label: [a_1,
    ...]}}.  Text in neither form, a repeated key in any mapping, any other
    top-level key, an integer not spelled as Python's str spells it (010,
    +1, 1_0, -0, 0x10, 1:30), or a name or a label that is not a string is
    a ToricError.  Returns (surface, {label: bundle}).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ToricError(f"config {path} is not UTF-8 text: {exc}") from None
    try:
        data = _read_plain(text)
    except ValueError as plain:
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
        except ValueError as exc:
            raise ToricError(
                f"config {path} is neither in the plain form ({plain}) nor JSON ({exc})"
            ) from None
    return _surface_from_config(data)


def _surface_from_config(data):
    """(surface, {label: bundle}) from a config's data, whichever reader read it."""
    if not isinstance(data, dict) or "rays" not in data:
        raise ToricError("config must be a mapping with a 'rays' field")
    unknown = [key for key in data if key not in CONFIG_KEYS]
    if unknown:
        allowed = ", ".join(CONFIG_KEYS)
        raise ToricError(f"unknown config key {unknown[0]!r}; allowed keys: {allowed}")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise ToricError(f"'name' must be a string, got {name!r}")
    surface = ToricSurface(name, data["rays"])
    named = data.get("bundles", {})
    if not isinstance(named, dict):
        raise ToricError("'bundles' must be a mapping from labels to coefficient lists")
    for label in named:
        if not isinstance(label, str):
            raise ToricError(f"bundle labels must be strings, got {label!r}")
    return surface, {label: surface.line_bundle(coeffs) for label, coeffs in named.items()}
