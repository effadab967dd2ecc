"""Per-chart character calculus for the localization formulas.

A Character is a LaurentPoly with integer coefficients read as a virtual
torus representation: the coefficient at (a, b) is the multiplicity of the
weight t1^a t2^b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import add, mul

from .laurent import LaurentPoly
from .partitions import NestedPair, staircase_numerator
from .series import GradedPoly

TRIVIAL = (0, 0)

# (1 - t1)(1 - t2), the denominator of the free-resolution oracle.
_RESOLUTION_DENOM = LaurentPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


class LocalizationError(Exception):
    """Base class for localization failures."""


class TrivialWeightError(LocalizationError):
    """A trivial weight appeared where an Euler class needs pure weights."""


class DegenerateSpecializationError(LocalizationError):
    """The numeric specialization killed a weight; the caller must redraw."""


@lru_cache(maxsize=None)
def block_character(mu_a, mu_b):
    """The two-index block V(I_a, I_b) = chi(R, R) - chi(I_a, I_b), from arm
    and leg lengths as f(mu_a, mu_b) + bar(f(mu_b, mu_a))/(t1 t2), where
    f(lam, nu) sums t1^(nu'_j - i - 1) t2^(j - lam_i) over the cells (i, j)
    of lam and nu'_j counts the parts of nu greater than j: the conjugate of
    Carlsson-Okounkov's Ext character.  Both halves fill one term dict, the
    second as t1^(i - mu_a'_j) t2^(mu_b_i - j - 1) over the cells of mu_b.
    A sum of |mu_a| + |mu_b| weights, none subtracted, it is a genuine
    character.
    """
    width = max(mu_a[:1] + mu_b[:1], default=0)
    conj_a, conj_b = ([sum(p > j for p in mu) for j in range(width)] for mu in (mu_a, mu_b))
    terms = {}
    for i, row in enumerate(mu_a):
        for j in range(row):
            weight = (conj_b[j] - i - 1, j - row)
            terms[weight] = terms.get(weight, 0) + 1
    for i, row in enumerate(mu_b):
        for j in range(row):
            weight = (i - conj_a[j], row - j - 1)
            terms[weight] = terms.get(weight, 0) + 1
    return LaurentPoly(terms)


@lru_cache(maxsize=None)
def virtual_tangent_character(pair: NestedPair):
    """Virtual tangent character of a nested fixed point on one chart:
    V(outer, outer) + V(inner, inner) - V(outer, inner), of rank
    |outer| + |inner|, from the arm-leg blocks (`block_character`)."""
    outer, inner = pair
    terms = dict(block_character(outer, outer).terms)
    for sign, block in ((1, block_character(inner, inner)), (-1, block_character(outer, inner))):
        for weight, mult in block.terms.items():
            terms[weight] = terms.get(weight, 0) + sign * mult
    return LaurentPoly(terms)


def block_character_resolution(mu_a, mu_b):
    """Independent route to the block character via free resolutions.

    Uses the Taylor-complex numerators P of both ideals and the rational
    form (1 - bar(P_a) P_b)/((1 - t1)(1 - t2)), divided exactly.
    """
    numerator = LaurentPoly.one() - staircase_numerator(mu_a).bar() * staircase_numerator(mu_b)
    return numerator.divide_exact(_RESOLUTION_DENOM)


def virtual_tangent_character_resolution(pair: NestedPair):
    """Independent oracle for the virtual tangent character.

    Computes -chi(I1,I1) - chi(I2,I2) + chi(I1,I2) + chi(R,R) from the
    Taylor-complex numerators, dividing the combined numerator exactly by
    (1 - t1)(1 - t2).
    """
    p1 = staircase_numerator(pair.outer)
    p2 = staircase_numerator(pair.inner)
    numerator = LaurentPoly.one() - p1.bar() * p1 - p2.bar() * p2 + p1.bar() * p2
    return numerator.divide_exact(_RESOLUTION_DENOM)


def trivial_multiplicity(c):
    return c.coeff(0, 0)


def euler_factors(c, spec):
    """Integer Euler class of a character at a numeric specialization: (num, den).

    num / den multiplies (a x + b y)^mult over all weights; negative
    multiplicities divide.  This is the one owner of the pole rule, and
    the engine reads it only for Euler classes: a nontrivial weight that the
    specialization (x, y) sends to 0 raises DegenerateSpecializationError, a
    bad draw; failing that, a trivial weight raises TrivialWeightError (it
    forces a vanishing or ill-defined class).
    """
    x, y = spec
    num = den = 1
    for (a, b), mult in c.terms.items():
        w = a * x + b * y
        if not w and (a, b) != TRIVIAL:
            raise DegenerateSpecializationError("degenerate specialization")
        if mult > 0:
            num *= w ** mult
        else:
            den *= w ** (-mult)
    if trivial_multiplicity(c):
        raise TrivialWeightError("trivial weight in Euler class")
    return num, den


def euler_class(c, spec):
    """Equivariant Euler class of a character at a numeric specialization,
    as a Fraction; raises like `euler_factors`."""
    return Fraction(*euler_factors(c, spec))


def power_sums(c, spec, cap):
    """Signed power sums of the weights of a character.

    p[k] = (-1)^(k-1) sum mult w^k for 1 <= k <= cap (p[0] = 0) over the
    weights w = a x + b y at the numeric specialization (x, y); they add
    over a sum of characters.  A weight that specializes to 0 adds nothing,
    whether it is trivial or killed by the draw: Chern classes are
    polynomials in the weights and have no poles (see `chern_poly`).  This
    is what makes top Chern classes of classes with trivial summands vanish.
    """
    x, y = spec
    p = [0] * (cap + 1)
    for (a, b), mult in c.terms.items():
        w = a * x + b * y
        term = -mult
        for k in range(1, cap + 1):
            term *= -w
            p[k] += term
    return p


def newton_chern(p):
    """The Chern classes [e_0, ..., e_cap] of the signed power sums p, as
    columns: p[k] lists p_k at each of a run of points, and e[k] lists e_k.

    Newton's identities k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i, all in
    integers, with the signs already in p; each division by k is exact, and
    a remainder raises LocalizationError.
    """
    e = [[1] * len(p[0])]
    for k in range(1, len(p)):
        sums = list(reduce(partial(map, add), map(partial(map, mul), reversed(e), p[1:k + 1])))
        rem = next(filter(None, (s % k for s in sums)), 0)
        if rem:
            raise LocalizationError(f"Newton's identity left remainder {rem} in degree {k}")
        e.append([s // k for s in sums])
    return e


def chern_poly(c, spec, cap):
    """Total equivariant Chern class of a character, graded formally.

    Returns the GradedPoly whose degree-k coefficient is the specialization
    of the k-th Chern class of the product of (1 + g (a x + b y))^mult over
    all weights, truncated at cap, at an integer specialization (x, y).  Each
    factor 1 + w g multiplies in place from the top degree down; a negative
    mult multiplies by the integer series of 1 / (1 + w g) instead.  A
    weight that specializes to 0, trivial or killed by the draw, is the unit
    factor 1: a total Chern class is a polynomial in the weights, so no draw
    makes it degenerate, and only an Euler class in a denominator meets the
    pole rule (`euler_factors`).  A non-integer specialization raises
    LocalizationError.
    """
    x, y = spec
    if x.denominator != 1 or y.denominator != 1:
        raise LocalizationError(f"specialization {x}, {y} is not integral")
    x, y = int(x), int(y)
    e = [1] + [0] * cap
    top = 0  # e[k] = 0 for k > top
    for (a, b), mult in c.terms.items():
        w = a * x + b * y
        if not w:
            continue
        if mult > 0:
            for _ in range(mult):
                if top < cap:
                    top += 1
                for k in range(top, 0, -1):
                    e[k] += w * e[k - 1]
        else:
            top = cap
            for _ in range(-mult):
                for k in range(1, cap + 1):
                    e[k] -= w * e[k - 1]
    return GradedPoly(cap, e)
