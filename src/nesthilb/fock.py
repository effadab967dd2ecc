"""Truncated Fock-space model of a lattice Heisenberg algebra.

States are normal-ordered creation monomials applied to the vacuum,
graded by the total mode; operators act exactly below a grading cap.
The commutator is normalized as
[alpha_m(g), alpha_{-m}(g')] = (-1)^(m-1) m <g, g'>,
the unique sign for which the vertex-operator exchange relation
Gamma_+ Gamma_- = (1 + z1/z2)^<M1,M2> Gamma_- Gamma_+ holds.

Formal variables are carried on the two exponent slots of a LaurentPoly
coefficient per state; what the slots mean (z1/z2, or z/q) is chosen by
each computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .partitions import partition_tuples
from .series import linear_power, product_formula
from .toric import check_bundle, intersection_number


class FockError(Exception):
    pass


class Lattice:
    """Even cohomology of a toric surface with its integer intersection form.

    Basis (1, D_3, ..., D_k, pt) of rank k = e(S): the rays r_1, r_2 of
    chart 0 are a Z-basis, so the relations sum <m, r_i> D_i = 0 eliminate
    D_1 and D_2, and the other boundary divisors pair by the fan's form.
    Carries the canonical vector K; the trace identities take the Euler
    coupling e to be the rank.
    """

    def __init__(self, surface):
        self.surface = surface
        k = self.rank = surface.euler_number
        units = [surface.line_bundle([int(i == j) for i in range(k)]) for j in range(2, k)]
        pairing = [[0] * k for _ in range(k)]
        pairing[0][k - 1] = pairing[k - 1][0] = 1
        for i, a in enumerate(units, 1):
            for j, b in enumerate(units, 1):
                pairing[i][j] = intersection_number(surface, a, b)
        self.pairing = tuple(map(tuple, pairing))
        self.canonical = self.vector(surface.canonical_bundle())

    def vector(self, bundle):
        """Coordinates of c1(O(sum a_i D_i)), with D_1, D_2 eliminated by chart 0's dual basis."""
        check_bundle(self.surface, bundle)
        chart, a = self.surface.charts[0], bundle.coeffs
        dot = lambda m, r: m[0] * r[0] + m[1] * r[1]
        divisors = (
            a[j] - a[0] * dot(chart.u, r) - a[1] * dot(chart.v, r)
            for j, r in enumerate(self.surface.rays[2:], 2)
        )
        return (0, *divisors, 0)

    def pair(self, u, v):
        return sum(
            self.pairing[i][j] * u[i] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def pair_basis(self, u, j):
        """Pairing of a vector with the j-th basis vector."""
        return sum(self.pairing[i][j] * u[i] for i in range(self.rank))

    def dual(self, v):
        """The Serre-dual vector K - v."""
        return tuple(k - c for k, c in zip(self.canonical, v))

    def zero(self):
        return (0,) * self.rank


def grading(state):
    return sum(mode for mode, _ in state)


class FockElement:
    """Finite combination of creation monomials with LaurentPoly coefficients.

    A state is a sorted tuple of (mode > 0, basis index) pairs; the empty
    tuple is the vacuum.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pruned = {}
        if terms:
            for state, poly in terms.items():
                if poly.terms:
                    pruned[state] = poly
        self.terms = pruned

    @classmethod
    def vacuum(cls):
        return cls({(): LaurentPoly.one()})

    @classmethod
    def basis(cls, state):
        return cls({tuple(sorted(state)): LaurentPoly.one()})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for state, poly in other.terms.items():
            if state in terms:
                terms[state] = terms[state] + poly
            else:
                terms[state] = poly
        return FockElement(terms)

    def scale(self, factor):
        """Multiply every coefficient by a LaurentPoly or scalar."""
        return FockElement({s: p * factor for s, p in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FockElement) and self.terms == other.terms

    def filtered(self, keep):
        """Keep only coefficient monomials for which keep((e1, e2)) is true."""
        out = {}
        for state, poly in self.terms.items():
            kept = {e: c for e, c in poly.terms.items() if keep(e)}
            if kept:
                out[state] = LaurentPoly(kept)
        return FockElement(out)

    def __repr__(self):
        return f"FockElement({self.terms!r})"


@lru_cache(maxsize=None)
def basis_states(rank, n):
    """All states of grading n over a rank-r lattice, in sorted order.

    The states are the rank-tuples of partitions of total size n: the parts
    of the i-th partition are the modes of the creation factors on basis
    vector i.
    """
    if n < 0:
        raise FockError("grading must be nonnegative")
    return tuple(sorted(
        tuple(sorted((m, i) for i, mu in enumerate(tup) for m in mu.parts))
        for tup in partition_tuples(rank, n)
    ))


def apply_alpha(lattice, m, v, x, cap):
    """One Heisenberg mode: creation for m < 0, annihilation for m > 0.

    Annihilation contracts against each matching creation factor with the
    normalized commutator and kills the vacuum; creation prepends a factor
    and drops states graded above cap.
    """
    if m == 0:
        raise FockError("mode must be nonzero")
    out = {}
    if m < 0:
        n = -m
        for state, poly in x.terms.items():
            if grading(state) + n > cap:
                continue
            for i, c in enumerate(v):
                if not c:
                    continue
                ns = tuple(sorted(state + ((n, i),)))
                scaled = poly * c
                out[ns] = out[ns] + scaled if ns in out else scaled
    else:
        norm = (-1) ** (m - 1) * m
        for state, poly in x.terms.items():
            for j, (mode, idx) in enumerate(state):
                if mode != m:
                    continue
                p = lattice.pair_basis(v, idx)
                if not p:
                    continue
                ns = state[:j] + state[j + 1 :]
                scaled = poly * (norm * p)
                out[ns] = out[ns] + scaled if ns in out else scaled
    return FockElement(out)


def gamma_operator(lattice, sign, v, zarg, x, cap):
    """The half-vertex operator exp(sum_{n>0} z^(-sign*n)/n alpha_{sign*n}(v)).

    zarg = ((e1, e2), s) describes the formal argument z = s * w1^e1 w2^e2
    with s = +-1; powers of z become exponent shifts on the coefficients.
    """
    if sign not in (1, -1):
        raise FockError("sign must be +1 or -1")
    (e1, e2), s = zarg
    if s not in (1, -1):
        raise FockError("z-argument scalar must be +-1")
    result = x
    term = x
    k = 0
    while not term.is_zero():
        k += 1
        nxt = FockElement.zero()
        for n in range(1, cap + 1):
            y = apply_alpha(lattice, sign * n, v, term, cap)
            if y.is_zero():
                continue
            e = -sign * n
            mono = LaurentPoly.monomial(e * e1, e * e2, Fraction(s**n, n))
            nxt = nxt + y.scale(mono)
        term = nxt.scale(Fraction(1, k))
        result = result + term
    return result


def number_operator(x):
    """q^N: scale each state by q^grading, q living on slot 1."""
    return FockElement({state: poly.shift((0, grading(state))) for state, poly in x.terms.items()})


def gamma_commutation_check(lattice, m1, m2, cap):
    """Verify Gamma_+(M2,z2) Gamma_-(M1,z1) = (1+z1/z2)^<M1,M2> reversed.

    Checked on every basis state of grading <= cap.  Truncation is exact
    on coefficient monomials whose z1-exponent is at most cap minus the
    state's grading; only that window is compared.
    """
    if cap < 1:
        raise FockError("cap must be at least 1")
    p = lattice.pair(m1, m2)
    z1 = ((1, 0), 1)
    z2 = ((0, 1), 1)
    for n in range(cap + 1):
        window = cap - n
        binomial = linear_power(1, p, window).coeffs
        scalar = LaurentPoly({(k, -k): c for k, c in enumerate(binomial)})
        for state in basis_states(lattice.rank, n):
            x = FockElement.basis(state)
            lhs = gamma_operator(lattice, 1, m2, z2, gamma_operator(lattice, -1, m1, z1, x, cap), cap)
            rhs = gamma_operator(lattice, -1, m1, z1, gamma_operator(lattice, 1, m2, z2, x, cap), cap)
            rhs = rhs.scale(scalar)
            keep = lambda e: e[0] <= window
            if lhs.filtered(keep) != rhs.filtered(keep):
                return False
    return True


def qn_conjugation_check(lattice, v, cap):
    """Verify q^N Gamma_-(M, z) = Gamma_-(M, qz) q^N on all states <= cap.

    Slot 0 carries z, slot 1 carries q; both sides truncate identically,
    so the comparison is an exact equality.
    """
    z = ((1, 0), 1)
    qz = ((1, 1), 1)
    for n in range(cap + 1):
        for state in basis_states(lattice.rank, n):
            x = FockElement.basis(state)
            lhs = number_operator(gamma_operator(lattice, -1, v, z, x, cap))
            rhs = gamma_operator(lattice, -1, v, qz, number_operator(x), cap)
            if lhs != rhs:
                return False
    return True


def w_trace(lattice, m1, m2, cap):
    """Graded trace of q^N composed with both twisted correspondence operators.

    Applies W(M2)(1/z1) W(M1)(z1) with W(M) = Gamma_-(-M,-z) Gamma_+(-M^D,z)
    to every basis state of grading n1 <= cap, reads off the diagonal
    coefficient, and converts q^n1 z1^(2(n2-n1)) to the (q1, q2) grid.
    Returns {(n1, n2): coefficient} over the box n1, n2 <= cap, which is the
    exact window under the grading cap.
    """
    m1d = lattice.dual(m1)
    m2d = lattice.dual(m2)
    neg = lambda v: tuple(-c for c in v)
    box = {}
    for n in range(cap + 1):
        for state in basis_states(lattice.rank, n):
            x = FockElement.basis(state)
            y = gamma_operator(lattice, 1, neg(m1d), ((1, 0), 1), x, cap)
            y = gamma_operator(lattice, -1, neg(m1), ((1, 0), -1), y, cap)
            y = gamma_operator(lattice, 1, neg(m2d), ((-1, 0), 1), y, cap)
            y = gamma_operator(lattice, -1, neg(m2), ((-1, 0), -1), y, cap)
            diag = y.terms.get(state)
            if diag is None:
                continue
            for (e, _), c in diag.terms.items():
                if e % 2:
                    raise FockError("odd z-exponent on the trace diagonal")
                n2 = n + e // 2
                if 0 <= n2 <= cap:
                    key = (n, n2)
                    box[key] = box.get(key, 0) + c
    return {k: v for k, v in box.items() if v}


def trace_product_series(lattice, m1, m2, cap):
    """Closed product the graded trace must reproduce.

    Three binomial families in (q1, q2) with exponents <M1, M2^D>,
    <M1^D, M1> + <M2^D, M2> - e, with e the rank, and <M1^D, M2>;
    expanded far enough to cover the box n1, n2 <= cap.
    """
    m1d = lattice.dual(m1)
    m2d = lattice.dual(m2)
    a = lattice.pair(m1, m2d)
    b = lattice.pair(m1d, m1) + lattice.pair(m2d, m2) - lattice.rank
    c = lattice.pair(m1d, m2)
    return product_formula([((0, 1), a), ((1, 1), b), ((1, 0), c)], 2 * cap)


def trace_matches_product(lattice, m1, m2, cap):
    """Compare the Fock-side trace with the closed product on the cap box."""
    box = w_trace(lattice, m1, m2, cap)
    series = trace_product_series(lattice, m1, m2, cap)
    for n1 in range(cap + 1):
        for n2 in range(cap + 1):
            if box.get((n1, n2), 0) != series.coeff(n1, n2):
                return False
    return True


def heisenberg_check(lattice, cap):
    """Commutators on all states of grading <= cap, for modes up to cap.

    [alpha_m(g), alpha_n(g')] must be (-1)^(m-1) m <g,g'> when n = -m and
    zero otherwise; checked on basis vectors g, g' of the lattice.
    """
    big = 2 * cap  # room so creation before annihilation is not clipped
    basis_vecs = [
        tuple(1 if i == j else 0 for j in range(lattice.rank))
        for i in range(lattice.rank)
    ]
    for g_state_n in range(cap + 1):
        for state in basis_states(lattice.rank, g_state_n):
            x = FockElement.basis(state)
            for m in range(1, cap + 1):
                for n in (-m, m - cap - 1):
                    for gi, g in enumerate(basis_vecs):
                        for gj, gp in enumerate(basis_vecs):
                            ab = apply_alpha(lattice, m, g, apply_alpha(lattice, n, gp, x, big), big)
                            ba = apply_alpha(lattice, n, gp, apply_alpha(lattice, m, g, x, big), big)
                            comm = ab + ba.scale(-1)
                            if n == -m:
                                want = x.scale((-1) ** (m - 1) * m * lattice.pairing[gi][gj])
                            else:
                                want = FockElement.zero()
                            if comm != want:
                                return False
    return True
