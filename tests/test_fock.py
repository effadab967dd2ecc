"""Heisenberg algebra on the truncated Fock space and trace identities."""

from fractions import Fraction

import pytest

from nesthilb import engine, fock
from nesthilb.fock import FockElement, Lattice, apply_alpha, gamma_operator
from nesthilb.laurent import LaurentPoly
from nesthilb.toric import builtin_surface

P2 = fock.p2_lattice()
QUAD = fock.p1xp1_lattice()


def test_lattice_validation():
    with pytest.raises(fock.FockError):
        Lattice([[0, 1], [2, 0]], (0, 0))  # not symmetric
    with pytest.raises(fock.FockError):
        Lattice([[1]], (0, 0))  # canonical vector length


def test_lattice_pairing_and_dual():
    assert P2.pair((0, 1, 0), (0, 1, 0)) == 1  # h.h
    assert P2.pair((1, 0, 0), (0, 0, 1)) == 1  # 1.pt
    assert P2.dual((0, 1, 0)) == (0, -4, 0)  # K - h
    assert QUAD.pair((0, 1, 0, 0), (0, 0, 1, 0)) == 1  # f1.f2


def test_basis_state_counts_follow_euler_product():
    for lattice in (P2, QUAD):
        counts = [len(fock.basis_states(lattice.rank, n)) for n in range(5)]
        assert counts == engine.gottsche_product_coefficients(lattice.rank, 4)


def test_annihilation_kills_vacuum():
    out = apply_alpha(P2, 1, (0, 1, 0), FockElement.vacuum(), 4)
    assert out.is_zero()


def test_single_contraction_normalization():
    # alpha_1(g) alpha_{-1}(g') |0> = <g, g'> |0>
    created = apply_alpha(P2, -1, (0, 1, 0), FockElement.vacuum(), 4)
    out = apply_alpha(P2, 1, (0, 2, 0), created, 4)
    assert out == FockElement.vacuum().scale(Fraction(2))


def test_creation_raises_grading():
    x = FockElement.vacuum()
    y = apply_alpha(P2, -3, (0, 0, 1), x, 4)
    (state,) = y.terms
    assert fock.grading(state) == 3


def test_mode_zero_rejected():
    with pytest.raises(fock.FockError):
        apply_alpha(P2, 0, (0, 1, 0), FockElement.vacuum(), 4)


def test_heisenberg_relations_to_grading_four():
    assert fock.heisenberg_check(P2, 4)


def test_gamma_on_vacuum():
    vac = FockElement.vacuum()
    zero = P2.zero()
    assert gamma_operator(P2, -1, zero, ((1, 0), 1), vac, 3) == vac
    assert gamma_operator(P2, 1, (0, 1, 0), ((1, 0), 1), vac, 3) == vac
    # first-order creation term carries z^1
    out = gamma_operator(P2, -1, (0, 1, 0), ((1, 0), 1), vac, 1)
    assert out.terms[((1, 1),)] == LaurentPoly.monomial(1, 0)


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


def test_trace_on_plain_intersection_form():
    # rank-2 lattice with the quadric form and matching Euler coupling
    lattice = Lattice([[0, 1], [1, 0]], (-2, -2))
    assert fock.trace_matches_product(lattice, (1, 0), (0, 2), 3)


def test_trace_agrees_with_geometric_pairing():
    """Algebraic trace coefficients equal the localization pairing."""
    surface = builtin_surface("p2")
    b1 = surface.line_bundle([1, 0, 0])
    b2 = surface.line_bundle([0, 2, 0])
    box = fock.w_trace(P2, (0, 1, 0), (0, 2, 0), 2)
    for n1 in range(3):
        for n2 in range(3):
            geo = engine.multi_bundle_invariant(
                surface, [], [], n1, n2, route="product", tops=((b1, False), (b2, True))
            )
            assert box.get((n1, n2), Fraction(0)) == geo, (n1, n2)
