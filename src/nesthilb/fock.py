"""Truncated Fock-space model of a lattice Heisenberg algebra.

The Fock space of a rank-r lattice is the ring of symmetric functions in
r alphabets, whose integer arithmetic lives in `symmetric`.  A state, a
sorted tuple of (mode > 0, basis index) pairs, is the monomial
prod h_m^(i) of complete homogeneous symmetric functions: a Z-basis
graded by the total mode, with the empty tuple as the vacuum (Macdonald,
Symmetric functions and Hall polynomials, I.2).  Every operator has
integer entries on this basis:

- alpha_{-n}(v), n > 0, multiplies by p_n(v) = sum_i v_i p_n^(i), with
  p_n written in the h's by Newton's identity (Macdonald I.2.11);
- alpha_n(g), n > 0, is the derivation
  h_k^(j) -> (-1)^(n-1) <g, e_j> h_{k-n}^(j);
- Gamma_-(v, z) multiplies by prod_i H_i(z)^(v_i), where
  H_i(z) = sum_m h_m^(i) z^m, which is exp(sum_n p_n(v) z^n / n);
- Gamma_+(v, z) is the ring automorphism
  H_j(t) -> H_j(t) (1 + t/z)^<v, e_j>, that is
  h_m^(j) -> sum_r C(<v, e_j>, r) z^(-r) h_{m-r}^(j).

Operators act exactly below a grading cap.  The commutator is normalized
as [alpha_m(g), alpha_{-m}(g')] = (-1)^(m-1) m <g, g'>, the unique sign
for which the vertex-operator exchange relation
Gamma_+ Gamma_- = (1 + z1/z2)^<M1,M2> Gamma_- Gamma_+ holds.

Every coefficient is an int.  `apply_alpha` builds a map
{state: int} -> {state: int}; `gamma_operator` builds a map
{state: int} -> {(state, k): int} whose key carries the power k of z,
so a formal variable is an integer exponent, never a polynomial slot.
A relation check builds each operator once and applies it to every basis
state of the full-rank space.  Every factor of the graded trace acts on
each alphabet alone, so it is a product of rank-1 traces, each taken once.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache

from .partitions import partition_tuples
from .series import linear_power, product_formula
from .symmetric import exp_series, grading, power_sum, product, shift_map, splits
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

    def check(self, v):
        """The vector v, whose length must be the rank: more entries name no alphabet."""
        if len(v) != self.rank:
            raise FockError(f"vector {tuple(v)} has length {len(v)}, not the rank {self.rank}")
        return v

    def pair(self, u, v):
        u, v = self.check(u), self.check(v)
        return sum(self.pairing[i][j] * a * b for i, a in enumerate(u) for j, b in enumerate(v))

    def pair_basis(self, u, j):
        """Pairing of a vector with the j-th basis vector."""
        return sum(self.pairing[i][j] * c for i, c in enumerate(self.check(u)))

    def dual(self, v):
        """The Serre-dual vector K - v."""
        return tuple(k - c for k, c in zip(self.canonical, self.check(v)))

    def zero(self):
        return (0,) * self.rank


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
        tuple(sorted((m, i) for i, mu in enumerate(tup) for m in mu))
        for tup in partition_tuples(rank, n)
    ))


def apply_alpha(lattice, m, v, cap):
    """alpha_m(v) as a map {state: int} -> {state: int}; creation drops
    states graded above cap, and zero coefficients may remain."""
    if m == 0:
        raise FockError("mode must be nonzero")
    if m < 0:
        terms = [(p, c * k) for i, c in enumerate(lattice.check(v)) if c
                 for p, k in power_sum(-m, i).items()]
    else:
        pairs = [(-1) ** (m - 1) * lattice.pair_basis(v, j) for j in range(lattice.rank)]

    def op(x):
        out = {}
        for state, coeff in x.items():
            if m > 0:
                j, end = bisect(state, (m,)), len(state)
                while j < end:  # factors of mode >= m; a paired one once, from its first copy j
                    mode, idx = factor = state[j]
                    copies = bisect(state, factor, j) - j if pairs[idx] else 1
                    if pairs[idx]:
                        low = (mode - m, idx)  # h_mode -> h_(mode-m), which sorts below j
                        k = bisect(state, low, 0, j)
                        key = state[:k] + (low,) * (mode > m) + state[k:j] + state[j + 1 :]
                        out[key] = out.get(key, 0) + coeff * pairs[idx] * copies
                    j += copies
            elif grading(state) - m <= cap:
                for p, k in terms:
                    key = product(state, p)
                    out[key] = out.get(key, 0) + coeff * k
        return out

    return op


def gamma_operator(lattice, sign, v, cap):
    """exp(sum_{n>0} z^(-sign*n)/n alpha_{sign*n}(v)) as a map
    {state: int} -> {(state, k): int}, with k the power of z.

    Gamma_- (sign -1) multiplies by the degree-k part of prod H^v, below
    the cap; Gamma_+ is exact on every state, and k is minus its drop in
    grading.
    """
    if sign not in (1, -1):
        raise FockError("sign must be +1 or -1")
    if sign < 0:
        series = exp_series(lattice.check(v), cap)
    else:
        image = shift_map([lattice.pair_basis(v, j) for j in range(lattice.rank)])

    def op(x):
        out = {}
        for state, coeff in x.items():
            n = grading(state)
            if sign < 0:
                for k, part in enumerate(series[: max(cap - n, 0) + 1]):
                    for g, c in part.items():
                        key = (product(state, g), k)
                        out[key] = out.get(key, 0) + coeff * c
            else:
                for low, c in image(state).items():
                    key = (low, grading(low) - n)
                    out[key] = out.get(key, 0) + coeff * c
        return out

    return op


def gamma_commutation_check(lattice, m1, m2, cap):
    """Verify Gamma_+(M2,z2) Gamma_-(M1,z1) = (1+z1/z2)^<M1,M2> reversed.

    Checked on every basis state of grading <= cap.  A term is keyed by
    its state and its power of z1; the power of z2 is the state's grading
    minus the start grading minus that power.  Truncation is exact on the
    z1-powers up to cap minus the start grading, the window compared; the
    left side stays in it, so a right-side z1^k term takes its binomial to
    degree window - k only.  Gamma_+ goes once over each z1-power part of
    the Gamma_- image, Gamma_- once over the Gamma_+ image.
    """
    if cap < 1:
        raise FockError("cap must be at least 1")
    p = lattice.pair(m1, m2)
    plus = gamma_operator(lattice, 1, m2, cap)
    minus = gamma_operator(lattice, -1, m1, cap)
    for n in range(cap + 1):
        window = cap - n
        binomial = linear_power(1, p, window)
        for state in basis_states(lattice.rank, n):
            parts = [{} for _ in range(window + 1)]
            for (s, k1), c in minus({state: 1}).items():
                parts[k1][s] = c
            lhs = {(t, k1): d for k1, part in enumerate(parts)
                   for (t, _), d in plus(part).items() if d}
            rhs = {}
            for (t, k1), d in minus({s: c for (s, _), c in plus({state: 1}).items()}).items():
                for k in range(k1, window + 1):  # none past the window
                    rhs[t, k] = rhs.get((t, k), 0) + binomial[k - k1] * d
            if lhs != {k: c for k, c in rhs.items() if c}:
                return False
    return True


def qn_conjugation_check(lattice, v, cap):
    """Verify q^N Gamma_-(M, z) = Gamma_-(M, qz) q^N on all states <= cap.

    Both sides truncate identically, so the relation holds exactly when
    every z^k term of Gamma_- applied to a state of grading n lands in
    grading n + k.
    """
    minus = gamma_operator(lattice, -1, v, cap)
    for n in range(cap + 1):
        for state in basis_states(lattice.rank, n):
            if any(c and grading(t) != n + k for (t, k), c in minus({state: 1}).items()):
                return False
    return True


def w_trace(lattice, m1, m2, cap):
    """Graded trace of q^N W(M2)(1/z1) W(M1)(z1), W(M) = Gamma_-(-M,-z) Gamma_+(-M^D,z).

    Every factor acts on each alphabet alone and the Fock space is the
    tensor product of the alphabets' rings, so the trace is the product of
    the rank-1 traces: their boxes convolve.  Returns {(n1, n2): int} over
    the box n1, n2 <= cap, the exact window under the grading cap.
    """
    d1, d2 = lattice.dual(m1), lattice.dual(m2)  # checks m1 and m2
    box = {(0, 0): 1}
    for i in range(lattice.rank):
        weights = -lattice.pair_basis(d1, i), -lattice.pair_basis(d2, i)
        factor = _alphabet_trace(*weights, -m1[i], -m2[i], cap)
        out = {}
        for (a1, a2), c in box.items():
            for (b1, b2), d in factor:
                if a1 + b1 <= cap and a2 + b2 <= cap:
                    out[a1 + b1, a2 + b2] = out.get((a1 + b1, a2 + b2), 0) + c * d
        box = out
    return {k: v for k, v in box.items() if v}


@lru_cache(maxsize=None)
def _alphabet_trace(w1, w2, e1, e2, cap):
    """w_trace on one alphabet (states basis_states(1, n)) as a shared tuple
    of ((n1, n2), int) items, cached on the five integers that fix it: the
    weights <-M^D, e_i> of Gamma_+(-M^D, z) and exponents -M_i of
    Gamma_-(-M, -z), M = M1, M2, and the cap.  A term through a state of
    grading n2 after W(M1) carries q^n1 z1^(2(n2-n1)), so it lands in the
    (n1, n2) cell.  Only the diagonal of the last Gamma_- is formed: the
    sum of G[state - s] y[s] over the sub-multisets s of the state.
    """
    lower1, lower2 = shift_map([w1]), shift_map([w2])
    # Gamma_-(-M, -z) signs degree d by (-1)^d
    signed = lambda e: [{g: (-1) ** d * c for g, c in part.items()}
                        for d, part in enumerate(exp_series((e,), cap))]
    raise1 = signed(e1)
    raise2 = {g: c for part in signed(e2) for g, c in part.items()}
    box = {}
    for n in range(cap + 1):
        for state in basis_states(1, n):
            diag = [(s, raise2[rest]) for s, rest in splits(state) if rest in raise2]
            mid = {}
            for a, ca in lower1(state).items():
                for part in raise1[: cap - grading(a) + 1]:
                    for g, cg in part.items():
                        key = product(a, g)
                        mid[key] = mid.get(key, 0) + ca * cg
            for b, cb in mid.items():
                image = lower2(b)
                t = sum(image.get(s, 0) * c for s, c in diag)
                if cb and t:
                    key = (n, grading(b))
                    box[key] = box.get(key, 0) + cb * t
    return tuple(box.items())


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
    cells = [(n1, n2) for n1 in range(cap + 1) for n2 in range(cap + 1)]
    return all(box.get(cell, 0) == series.coeff(*cell) for cell in cells)


def heisenberg_check(lattice, cap):
    """Commutators on all states of grading <= cap, for modes up to cap.

    [alpha_m(g), alpha_n(g')] must be (-1)^(m-1) m <g,g'> when n = -m and
    zero otherwise; checked on basis vectors g, g' of the lattice.
    """
    big = 2 * cap  # room so creation before annihilation is not clipped
    rank = range(lattice.rank)
    alpha = {m: [apply_alpha(lattice, m, tuple(int(i == j) for j in rank), big) for i in rank]
             for m in range(-cap, cap + 1) if m}
    for grade in range(cap + 1):
        for state in basis_states(lattice.rank, grade):
            x = {state: 1}
            ups = {n: [a(x) for a in alpha[n]] for n in range(-cap, 0)}
            for m in range(1, cap + 1):
                down = [a(x) for a in alpha[m]]
                # one n when the two coincide, at 2m = cap + 1
                for n in dict.fromkeys((-m, m - cap - 1)):
                    scale = (-1) ** (m - 1) * m if n == -m else 0
                    for lower, d, row in zip(alpha[m], down, lattice.pairing):
                        for raise_, up, g in zip(alpha[n], ups[n], row):
                            comm = lower(up)
                            for s, c in raise_(d).items() if d else ():
                                comm[s] = comm.get(s, 0) - c
                            comm[state] = comm.get(state, 0) - scale * g
                            if any(comm.values()):
                                return False
    return True
