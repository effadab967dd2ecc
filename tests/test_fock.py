"""Heisenberg algebra on the truncated Fock space and trace identities."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from test_toric import surfaces_with_bundles

from nesthilb import engine, fock, symmetric, verify
from nesthilb.fock import Lattice, apply_alpha, gamma_operator
from nesthilb.laurent import LaurentPoly
from nesthilb.series import linear_power
from nesthilb.toric import builtin_surface, intersection_number

P2 = Lattice(builtin_surface("p2"))
QUAD = Lattice(builtin_surface("p1xp1"))


def test_lattice_is_the_intersection_form():
    # the fan-derived forms equal the hand-typed even cohomology:
    # P^2 on (1, h, pt) with K = -3h, the quadric on (1, f1, f2, pt) with K = -2f1 - 2f2
    assert P2.pairing == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert P2.canonical == (0, -3, 0)
    assert QUAD.pairing == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    assert QUAD.canonical == (0, -2, -2, 0)


def test_lattice_pairing_and_dual():
    assert P2.pair((0, 1, 0), (0, 1, 0)) == 1  # h.h
    assert P2.pair((1, 0, 0), (0, 0, 1)) == 1  # 1.pt
    assert P2.dual((0, 1, 0)) == (0, -4, 0)  # K - h
    assert QUAD.pair((0, 1, 0, 0), (0, 0, 1, 0)) == 1  # f1.f2


def test_basis_state_counts_follow_euler_product():
    for lattice in (P2, QUAD):
        counts = [len(fock.basis_states(lattice.rank, n)) for n in range(5)]
        assert counts == engine.gottsche_product_coefficients(lattice.rank, 4)
        for n in range(5):
            states = fock.basis_states(lattice.rank, n)
            assert len(set(states)) == len(states)
            for state in states:
                assert list(state) == sorted(state)
                assert all(mode >= 1 and 0 <= i < lattice.rank for mode, i in state)
                assert fock.grading(state) == n
    # every multiset of creation factors of grading 2 over a rank-2 lattice
    assert set(fock.basis_states(2, 2)) == {
        ((1, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 0),), ((2, 1),),
    }


VAC = {(): 1}


def _nonzero(x):
    return {k: c for k, c in x.items() if c}


def test_annihilation_kills_vacuum():
    assert _nonzero(apply_alpha(P2, 1, (0, 1, 0), 4)(VAC)) == {}


def test_single_contraction_normalization():
    # alpha_1(g) alpha_{-1}(g') |0> = <g, g'> |0>
    created = apply_alpha(P2, -1, (0, 1, 0), 4)(VAC)
    assert _nonzero(apply_alpha(P2, 1, (0, 2, 0), 4)(created)) == {(): 2}


def test_creation_raises_grading():
    # Newton's identity: p_3 = 3 h_3 - 3 h_1 h_2 + h_1^3
    assert _nonzero(apply_alpha(P2, -3, (0, 0, 1), 4)(VAC)) == {
        ((3, 2),): 3, ((1, 2), (2, 2)): -3, ((1, 2), (1, 2), (1, 2)): 1,
    }


def test_mode_zero_rejected():
    with pytest.raises(fock.FockError):
        apply_alpha(P2, 0, (0, 1, 0), 4)


@pytest.mark.parametrize("call", [
    lambda: apply_alpha(P2, -1, (0, 1, 0, 2), 3),
    lambda: apply_alpha(P2, 1, (0, 1), 3),
    lambda: gamma_operator(P2, -1, (0, 1, 0, 2), 3),
    lambda: gamma_operator(P2, 1, (0, 1), 3),
    lambda: P2.dual((0, 1)),
    lambda: P2.pair((0, 1, 0), (0, 1, 0, 0)),
    lambda: P2.pair_basis((0, 1), 0),
    lambda: fock.w_trace(P2, (0, 1), (0, 2, 0), 3),
    lambda: fock.gamma_commutation_check(P2, (0, 1, 0, 1), (1, 2, 0), 2),
    lambda: fock.qn_conjugation_check(P2, (0, 1), 2),
    lambda: fock.trace_matches_product(P2, (0, 1, 0), (0, 2, 0, 0), 2),
], ids=["creation", "annihilation", "gamma_minus", "gamma_plus", "dual", "pair", "pair_basis",
        "w_trace", "gamma_exchange", "qn_conjugation", "trace_matches_product"])
def test_wrong_length_vectors_are_rejected(call):
    """A vector on a rank-3 lattice has three coordinates: a fourth would name
    an alphabet the Fock space does not have, and a missing one is not zero."""
    with pytest.raises(fock.FockError, match="not the rank 3"):
        call()


def _alpha_reference(lattice, m, v, x):
    """alpha_m(v), m > 0, on every factor of every state, re-sorted by symmetric.product."""
    pairs = [(-1) ** (m - 1) * lattice.pair_basis(v, j) for j in range(lattice.rank)]
    out = {}
    for state, coeff in x.items():
        for j, (mode, idx) in enumerate(state):
            if mode >= m and pairs[idx]:
                lowered = ((mode - m, idx),) if mode > m else ()
                key = symmetric.product(state[:j] + state[j + 1 :], lowered)
                out[key] = out.get(key, 0) + coeff * pairs[idx]
    return out


@pytest.mark.parametrize("lattice", [P2, QUAD], ids=["p2", "p1xp1"])
def test_annihilation_matches_sorting_reference(lattice):
    """Every mode 1-4 on every state to grading 6, repeated factors included."""
    v = (1, 2, -1, 3)[: lattice.rank]  # every basis vector pairs nonzero with v
    states = [s for n in range(7) for s in fock.basis_states(lattice.rank, n)]
    for m in (1, 2, 3, 4):
        op = apply_alpha(lattice, m, v, 6)
        for state in states:
            out = op({state: 3})
            assert out == _alpha_reference(lattice, m, v, {state: 3}), (m, state)
            assert all(key == tuple(sorted(key)) and type(c) is int for key, c in out.items())


def test_heisenberg_relations_to_grading_four():
    assert fock.heisenberg_check(P2, 4)


@pytest.mark.parametrize("name", ["p1xp1", "hirzebruch(1)"])
def test_heisenberg_relations_on_more_lattices(name):
    assert fock.heisenberg_check(Lattice(builtin_surface(name)), 3)


@pytest.mark.parametrize("lattice", [P2, QUAD], ids=["p2", "p1xp1"])
def test_shared_operators_equal_one_shot(lattice):
    """A map built once and applied to every state, forwards and backwards,
    equals a fresh map per state, with int coefficients throughout."""
    states = [s for n in range(4) for s in fock.basis_states(lattice.rank, n)]
    v = tuple(range(-1, lattice.rank - 1))  # negative, zero and positive entries
    builders = [lambda m=m: apply_alpha(lattice, m, v, 3) for m in (-3, -1, 1, 2)]
    builders += [lambda sign=sign: gamma_operator(lattice, sign, v, 3) for sign in (-1, 1)]
    for build in builders:
        shared = build()
        for state in states + states[::-1]:
            out = shared({state: 2})
            assert out == build()({state: 2})
            assert all(type(c) is int for c in out.values())
    for bad in (
        lambda: apply_alpha(lattice, 0, v, 3),
        lambda: gamma_operator(lattice, 0, v, 3),
        lambda: gamma_operator(lattice, 2, v, 3),
    ):
        with pytest.raises(fock.FockError):
            bad()


@pytest.mark.parametrize("check", [
    lambda: fock.heisenberg_check(P2, 4),
    lambda: fock.gamma_commutation_check(P2, (0, 1, 0), (1, 2, 0), 4),
], ids=["heisenberg", "gamma_exchange"])
def test_relation_checks_stay_small_in_memory(check):
    """No per-state cache of operator rows: each check's traced heap peaks under 1 MB."""
    tracemalloc.start()
    try:
        assert check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_relation_checks_catch_a_flipped_sign(monkeypatch):
    """Each relation check fails once one sign or index of the model is flipped."""
    with monkeypatch.context() as m:
        # the derivation's coefficient (-1)^(n-1) <g, e_j> changes sign
        pair_basis = Lattice.pair_basis
        m.setattr(Lattice, "pair_basis", lambda lattice, u, j: -pair_basis(lattice, u, j))
        assert not fock.heisenberg_check(P2, 2)
    with monkeypatch.context() as m:
        # the Gamma_+ generator image takes (1 - t/z) for (1 + t/z)
        binomials = symmetric.binomials
        m.setattr(symmetric, "binomials", lambda c, n: [(-1) ** r * b for r, b in enumerate(binomials(c, n))])
        assert not fock.gamma_commutation_check(P2, (0, 1, 0), (1, 2, 0), 2)
    with monkeypatch.context() as m:
        # Gamma_+ reads the pairing with the reversed basis vector on each alphabet
        pair_basis = Lattice.pair_basis
        reversed_index = lambda lattice, u, j: pair_basis(lattice, u, lattice.rank - 1 - j)
        m.setattr(Lattice, "pair_basis", reversed_index)
        assert not fock.trace_matches_product(QUAD, (0, 1, 0, 0), (0, 0, 1, 0), 3)
    with monkeypatch.context() as m:
        # Gamma_- attaches z^(d+1) instead of z^d to a grading raise d
        exp_series = fock.exp_series
        m.setattr(fock, "exp_series", lambda v, cap: [{}] + exp_series(v, cap))
        assert not fock.qn_conjugation_check(P2, (0, 1, 0), 2)
    assert fock.heisenberg_check(P2, 2)
    assert fock.gamma_commutation_check(P2, (0, 1, 0), (1, 2, 0), 2)
    assert fock.qn_conjugation_check(P2, (0, 1, 0), 2)
    assert fock.trace_matches_product(QUAD, (0, 1, 0, 0), (0, 0, 1, 0), 3)


def test_gamma_on_vacuum():
    assert gamma_operator(P2, -1, P2.zero(), 3)(VAC) == {((), 0): 1}
    assert gamma_operator(P2, 1, (0, 1, 0), 3)(VAC) == {((), 0): 1}
    # first-order creation term carries z^1
    assert gamma_operator(P2, -1, (0, 1, 0), 1)(VAC) == {((), 0): 1, (((1, 1),), 1): 1}
    # Gamma_+ lowers h_2 by C(<v, e_1>, r) z^(-r); <h, h> = 1
    assert gamma_operator(P2, 1, (0, 1, 0), 3)({((2, 1),): 1}) == {
        (((2, 1),), 0): 1, (((1, 1),), -1): 1,
    }


@pytest.mark.parametrize("lattice, v", [(P2, (1, 2, -1)), (QUAD, (0, 1, -1, 2))],
                         ids=["p2", "p1xp1"])
def test_gamma_minus_truncates_at_the_cap(lattice, v):
    """On a basis state of grading n <= cap, the cap-truncated Gamma_- gives
    the z-powers k = 0 ... cap - n, each landing in grading n + k, and no
    other: the window that an exchange check bounded by it must respect."""
    for cap in range(1, 5):
        minus = gamma_operator(lattice, -1, v, cap)
        for n in range(cap + 1):
            for state in fock.basis_states(lattice.rank, n):
                image = {key: c for key, c in minus({state: 1}).items() if c}
                assert {k for _, k in image} == set(range(cap - n + 1)), (cap, state)
                assert all(symmetric.grading(s) == n + k for s, k in image), (cap, state)


def _exchange_reference(lattice, m1, m2, cap):
    """gamma_commutation_check term by term: Gamma_+ on each term of the
    Gamma_- image, Gamma_- on each term of the Gamma_+ image, and the whole
    binomial on each, with every key past the window dropped afterwards."""
    p = lattice.pair(m1, m2)
    plus = gamma_operator(lattice, 1, m2, cap)
    minus = gamma_operator(lattice, -1, m1, cap)
    for n in range(cap + 1):
        window = cap - n
        binomial = linear_power(1, p, window)
        keep = lambda terms: {k: c for k, c in terms.items() if c and k[1] <= window}
        for state in fock.basis_states(lattice.rank, n):
            lhs, rhs = {}, {}
            for (s, k1), c in minus({state: 1}).items():
                for (t, _), d in plus({s: c}).items():
                    lhs[t, k1] = lhs.get((t, k1), 0) + d
            for (s, _), c in plus({state: 1}).items():
                for (t, k1), d in minus({s: c}).items():
                    for j, b in enumerate(binomial):
                        rhs[t, k1 + j] = rhs.get((t, k1 + j), 0) + b * d
            if keep(lhs) != keep(rhs):
                return False
    return True


@pytest.mark.parametrize("flip", [False, True], ids=["plain", "flipped"])
def test_exchange_check_matches_term_by_term_reference(monkeypatch, flip):
    """The grouped, window-bounded exchange check gives the per-term verdict,
    on a true model and on one whose Gamma_+ takes (1 - t/z) for (1 + t/z)."""
    if flip:
        binomials = symmetric.binomials
        monkeypatch.setattr(symmetric, "binomials",
                            lambda c, n: [(-1) ** r * b for r, b in enumerate(binomials(c, n))])
    cases = [
        (P2, (0, 1, 0), (1, 2, 0)),
        (QUAD, (0, 1, 0, 0), (0, 0, 1, 0)),
        (Lattice(builtin_surface("hirzebruch(1)")), (0, 1, -1, 0), (1, 1, 2, -1)),
    ]
    verdicts = []
    for lattice, m1, m2 in cases:
        for cap in range(1, 5):
            verdict = fock.gamma_commutation_check(lattice, m1, m2, cap)
            assert verdict == _exchange_reference(lattice, m1, m2, cap), (m1, m2, cap)
            verdicts.append(verdict)
    assert not any(verdicts) if flip else all(verdicts)


def test_gamma_commutation():
    assert fock.gamma_commutation_check(P2, (0, 1, 0), (1, 2, 0), 3)
    assert fock.gamma_commutation_check(QUAD, (0, 1, 0, 0), (0, 0, 1, 0), 3)
    # orthogonal vectors commute on the nose
    assert fock.gamma_commutation_check(QUAD, (0, 1, 0, 0), (0, 1, 0, 0), 2)


def test_grading_conjugation():
    assert fock.qn_conjugation_check(P2, (0, 1, 0), 3)
    assert fock.qn_conjugation_check(QUAD, (0, 0, 1, 0), 3)


def test_trace_degenerates_to_euler_product():
    box = fock.w_trace(P2, P2.zero(), P2.zero(), 3)
    assert box == {
        (0, 0): 1,
        (1, 1): 3,
        (2, 2): 9,
        (3, 3): 22,
    }


def test_trace_matches_closed_product():
    cases = [
        (P2, (0, 1, 0), (0, 2, 0)),
        (P2, (1, 1, 0), (0, 2, 1)),
        (QUAD, QUAD.zero(), (0, 1, 2, 0)),
        (QUAD, (0, 1, 0, 0), (0, 0, 1, 0)),
    ]
    for lattice, m1, m2 in cases:
        assert fock.trace_matches_product(lattice, m1, m2, 3), (m1, m2)


def _p_add(out, state, poly):
    total = out.pop(state, LaurentPoly.zero()) + poly
    if total:
        out[state] = total


def _p_alpha(lattice, m, v, x, cap):
    """alpha_m on {state: LaurentPoly} in the power-sum basis, where a
    state is prod p_mode^(index)."""
    out = {}
    for state, poly in x.items():
        if m < 0 and fock.grading(state) - m <= cap:
            for i, c in enumerate(v):
                _p_add(out, tuple(sorted(state + ((-m, i),))), poly * c)
        for j, (mode, idx) in enumerate(state if m > 0 else ()):
            if mode == m:
                coeff = (-1) ** (m - 1) * m * lattice.pair_basis(v, idx)
                _p_add(out, state[:j] + state[j + 1 :], poly * coeff)
    return out


def _p_gamma(lattice, sign, v, z, x, cap):
    """exp(sum_n z^(-sign*n)/n alpha_{sign*n}(v)) by its series; z = (e, s) is s * w^e."""
    e, s = z
    result, term = dict(x), x
    k = 0
    while term:
        k += 1
        nxt = {}
        for n in range(1, cap + 1):
            mono = LaurentPoly.monomial(-sign * n * e, 0, Fraction(s**n, n * k))
            for state, poly in _p_alpha(lattice, sign * n, v, term, cap).items():
                _p_add(nxt, state, poly * mono)
        term = nxt
        for state, poly in term.items():
            _p_add(result, state, poly)
    return result


def _p_basis_trace(lattice, m1, m2, cap):
    """Reference w_trace: the four half-vertex operators expanded in the power-sum basis."""
    neg = lambda v: tuple(-c for c in v)
    operators = (
        (1, neg(lattice.dual(m1)), (1, 1)),
        (-1, neg(m1), (1, -1)),
        (1, neg(lattice.dual(m2)), (-1, 1)),
        (-1, neg(m2), (-1, -1)),
    )
    box = {}
    for n in range(cap + 1):
        for state in fock.basis_states(lattice.rank, n):
            y = {state: LaurentPoly.one()}
            for sign, v, z in operators:
                y = _p_gamma(lattice, sign, v, z, y, cap)
            for (e, _), c in y.get(state, LaurentPoly.zero()).terms.items():
                key = (n, n + e // 2)
                if key[1] <= cap:
                    box[key] = box.get(key, 0) + c
    return {k: v for k, v in box.items() if v}


# twisted pairs with negative coordinates, one per surface
TWISTED = pytest.mark.parametrize("name, m1, m2", [
    ("p2", (-1, 2, 0), (0, -1, 1)),
    ("p1xp1", (0, -1, 2, 0), (1, 0, -1, 0)),
    ("hirzebruch(1)", (0, 1, -2, 0), (-1, 0, 2, 1)),
], ids=["p2", "p1xp1", "hirzebruch(1)"])


@pytest.mark.parametrize("cap", [2, 3])
@TWISTED
def test_trace_equals_power_sum_reference(name, m1, m2, cap):
    lattice = Lattice(builtin_surface(name))
    box = fock.w_trace(lattice, m1, m2, cap)
    assert all(type(c) is int for c in box.values())
    assert box == _p_basis_trace(lattice, m1, m2, cap)


def _h_basis_trace(lattice, m1, m2, cap):
    """Reference w_trace on the full-rank space: the four factors applied to
    every h-basis state of every alphabet at once, and the diagonal read off."""
    neg = lambda v: tuple(-c for c in v)
    lower = lambda v: symmetric.shift_map([lattice.pair_basis(v, j) for j in range(lattice.rank)])
    lower1, lower2 = lower(neg(lattice.dual(m1))), lower(neg(lattice.dual(m2)))
    # Gamma_-(-M, -z): the degree-d part of prod H^(-M) picks up (-1)^d
    signed = lambda v: [
        {g: (-1) ** d * c for g, c in part.items()}
        for d, part in enumerate(symmetric.exp_series(neg(v), cap))
    ]
    raise1 = signed(m1)
    raise2 = {g: c for part in signed(m2) for g, c in part.items()}
    box = {}
    for n in range(cap + 1):
        for state in fock.basis_states(lattice.rank, n):
            diag = [(s, raise2[rest]) for s, rest in symmetric.splits(state) if rest in raise2]
            mid = {}
            for a, ca in lower1(state).items():
                for part in raise1[: cap - fock.grading(a) + 1]:
                    for g, cg in part.items():
                        key = symmetric.product(a, g)
                        mid[key] = mid.get(key, 0) + ca * cg
            for b, cb in mid.items():
                image = lower2(b)
                t = sum(image.get(s, 0) * c for s, c in diag)
                if cb and t:
                    key = (n, fock.grading(b))
                    box[key] = box.get(key, 0) + cb * t
    return {k: v for k, v in box.items() if v}


@TWISTED
def test_trace_equals_full_rank_reference(name, m1, m2):
    """The per-alphabet trace equals the full-rank one at cap 4, past the
    p-basis reference's depth, from a cold rank-1 cache and from a warm one."""
    lattice = Lattice(builtin_surface(name))
    want = _h_basis_trace(lattice, m1, m2, 4)
    fock._alphabet_trace.cache_clear()
    for _ in range(2):
        box = fock.w_trace(lattice, m1, m2, 4)
        assert all(type(c) is int for c in box.values())
        assert box == want
    assert fock._alphabet_trace.cache_info().hits >= lattice.rank


def test_suite_shares_rank1_traces():
    """The Fock suite's 17 rank-1 traces at cap 4 are 9 distinct ones; seven
    are the untwisted alphabet."""
    fock._alphabet_trace.cache_clear()
    verify.suite_fock(cap=4)
    info = fock._alphabet_trace.cache_info()
    assert (info.currsize, info.misses + info.hits) == (9, 17)


def _swapped_pairing(surface, b1, b2, n1, n2):
    return engine.multi_bundle_invariant(
        surface, [], [], n1, n2, route="product", tops=((b1, False), (b2, True))
    )


@pytest.mark.parametrize("name, c1, c2", [
    ("p2", [1, 0, 0], [0, 2, 0]),
    ("p1xp1", [1, 0, 0, 0], [0, 1, 1, 0]),
    ("hirzebruch(1)", [0, 1, 0, 0], [1, 0, 0, 1]),
], ids=["p2", "p1xp1", "hirzebruch(1)"])
def test_trace_agrees_with_geometric_pairing(name, c1, c2):
    """Algebraic trace coefficients equal the localization pairing."""
    surface = builtin_surface(name)
    lattice = Lattice(surface)
    b1, b2 = surface.line_bundle(c1), surface.line_bundle(c2)
    m1, m2 = lattice.vector(b1), lattice.vector(b2)
    box = fock.w_trace(lattice, m1, m2, 3)
    series = fock.trace_product_series(lattice, m1, m2, 3)
    for n1 in range(4):
        for n2 in range(4):
            geo = _swapped_pairing(surface, b1, b2, n1, n2)
            assert box.get((n1, n2), 0) == series.coeff(n1, n2) == geo, (n1, n2)


def _det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


@settings(max_examples=25, deadline=None)
@given(surfaces_with_bundles())
def test_random_surface_lattice_and_trace(surface_bundle):
    surface, bundle = surface_bundle
    lattice = Lattice(surface)
    k = surface.canonical_bundle()
    divisors = [list(row[1:-1]) for row in lattice.pairing[1:-1]]
    assert _det(divisors) in (1, -1)
    for l1, l2 in ((bundle, bundle), (bundle, k), (k, k)):
        assert lattice.pair(lattice.vector(l1), lattice.vector(l2)) == intersection_number(
            surface, l1, l2
        )
    m1, m2 = lattice.vector(bundle), lattice.canonical
    box = fock.w_trace(lattice, m1, m2, 3)
    series = fock.trace_product_series(lattice, m1, m2, 3)
    for n1 in range(4):
        for n2 in range(4):
            assert box.get((n1, n2), 0) == series.coeff(n1, n2), (n1, n2)
    for n1 in range(3):
        for n2 in range(3 - n1):
            geo = _swapped_pairing(surface, bundle, k, n1, n2)
            assert box.get((n1, n2), 0) == series.coeff(n1, n2) == geo, (n1, n2)
