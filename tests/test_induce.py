import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfkit.coiso import (galilei_subgroup, homogeneous_space,
                           homogeneous_space_report, subgroup_report)
from hopfkit.errors import (ConfigError, NotInvertible, RelationNotPreserved,
                            SideMismatch)
from hopfkit.hopf import builtin
from hopfkit.ncalg import AlgebraElement, Morphism, tensor_map
from hopfkit.induce import (
    Corepresentation,
    IndElement,
    _galilei_module,
    eq_sesq_defect,
    equivalence_intertwiner,
    galilei_rep,
    ind_generic_report,
    ind_space,
    intertwiner_report,
    j_structure,
    jform_report,
    minkowski_form,
    mirror_right_report,
    relations_report,
    rho_from_weight,
    rho_tilde_generic,
    scalar_product,
    sesq_form,
    star_pairing,
    trivial_corep,
    unitarity_report,
)
from hopfkit.pairing import pair
from hopfkit.quasiinv import (LAURENT, OPS, RegularModule, Weight, act,
                              chi, galilei_weight)
from hopfkit.scalars import I, M, ONE, U, W, ZERO, scalar

SUB = galilei_subgroup()
UQ = builtin("uq-g1")
IWM = I * W * M


def gv(l, c=ONE):
    return chi(l, c)


def test_rep_of_b_at_zero():
    assert galilei_rep("B", gv(0)) == gv(0, IWM * scalar(Fraction(1, 2)))


def test_rep_of_t_at_zero():
    got = galilei_rep("T", gv(0))
    coeff = ONE / (2 * W * W * M)
    expected = (gv(0, U) - gv(0, 2 * coeff) + gv(1, coeff) + gv(-1, coeff))
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(-4, 4),
                       st.sampled_from([ONE, -I, I / (2 * W), ONE / (W * M), U]),
                       max_size=5))
def test_rep_of_t_matches_termwise_formula(coeffs):
    # T A = A u - (2A - A chi - A chi^-1)/(2 w^2 m), term by term
    A = AlgebraElement(LAURENT, {(l,): c for l, c in coeffs.items()})
    k = ONE / (2 * W * W * M)
    out = {}
    for l, a in coeffs.items():
        for n, c in ((l, a * U - 2 * a * k), (l + 1, a * k), (l - 1, a * k)):
            out[n] = out.get(n, ZERO) + c
    expected = {(n,): c for n, c in out.items() if not c.is_zero()}
    assert galilei_rep("T", A).terms == expected


def test_bt_commutator_closed_form():
    for l in range(-3, 4):
        lhs = galilei_rep("B", galilei_rep("T", gv(l))) \
            - galilei_rep("T", galilei_rep("B", gv(l)))
        rhs = (gv(l + 1) - gv(l - 1)).scale(I / (2 * W))
        assert lhs == rhs


# the closed table uq-g1 -> OPS written out independently of hopfkit.induce
OPS_CHI, OPS_ONE = OPS.gen("chi"), OPS.one()
T_COEFF = ONE / (2 * W * W * M)
REP_TABLE = [OPS_ONE.scale(M), OPS_CHI,
             OPS_ONE.scale(U) - (OPS_ONE.scale(2) - OPS_CHI
                                 - OPS_CHI.inverse()).scale(T_COEFF),
             (OPS.gen("E") + OPS_ONE.scale(Fraction(1, 2))).scale(IWM)]


# the module action: the same table with B -> iwm E, no 1/2 shift
MODULE_TABLE = REP_TABLE[:3] + [OPS.gen("E").scale(IWM)]


def test_module_action_differs_from_rep_by_half():
    # B acts as iwm*l on the module, iwm*(l+1/2) in the representation
    for l in range(-2, 3):
        assert _galilei_module(False).act(UQ.pres.gen("B"), gv(l)) == gv(l, IWM * l)


WINDOW2 = [UQ.pres.monomial(mon) for mon in UQ.pres.monomials_up_to(2)]


def test_weight_reconstructs_closed_table():
    phi = galilei_weight()
    assert len(WINDOW2) == 50
    for X in WINDOW2:
        for l in range(-3, 4):
            assert rho_from_weight(X, gv(l), phi) == _galilei_module(True).act(X, gv(l))


def test_chi_module_with_galilei_action_is_the_module_action():
    mod = _galilei_module(False)
    table = Morphism(UQ.pres, MODULE_TABLE)
    for X in WINDOW2:
        for l in range(-3, 4):
            assert mod.act(X, gv(l)) == act(table.apply(X), gv(l))


def test_rep_table_matches_galilei_rep():
    rep = Morphism(UQ.pres, REP_TABLE)
    X = UQ.pres.gen("B") * UQ.pres.gen("T") + UQ.pres.gen("K", -2)
    for l in range(-3, 4):
        assert act(rep.apply(X), gv(l)) == _galilei_module(True).act(X, gv(l))
        for g in ("M", "K", "T", "B"):
            assert (act(rep.apply(UQ.pres.gen(g)), gv(l))
                    == galilei_rep(g, gv(l)))


@pytest.mark.parametrize("slot, image", [
    (1, OPS_CHI.inverse()),  # K -> chi^-1 breaks K B K^-1 = B - iw M
    (2, OPS_ONE.scale(U) - (OPS_ONE.scale(2) - OPS_CHI).scale(T_COEFF)),
], ids=["K-to-chi-inverse", "T-without-chi-inverse"])
def test_mutant_rep_tables_fail_at_construction(slot, image):
    table = list(REP_TABLE)
    table[slot] = image
    with pytest.raises(RelationNotPreserved):
        Morphism(UQ.pres, table)


def test_minkowski_values():
    assert minkowski_form(gv(-1), gv(0)) == ONE
    assert minkowski_form(gv(0), gv(0)) == ZERO
    assert minkowski_form(gv(2), gv(-3)) == ONE


def test_minkowski_b_selfadjoint():
    for l in range(-3, 3):
        A, B = gv(l), gv(-l - 1)
        assert minkowski_form(A, galilei_rep("B", B)) \
            == minkowski_form(galilei_rep("B", A), B)


def test_j_structure():
    assert j_structure(gv(0)) == gv(-1)
    assert j_structure(j_structure(gv(0))) == gv(0)
    assert scalar_product(gv(2), gv(2)) == ONE
    assert minkowski_form(gv(2), gv(-3)) == scalar_product(j_structure(gv(2)), gv(-3))


def test_star_pairing_contraction():
    assert star_pairing(gv(2), gv(0)) == chi(3)
    assert star_pairing(gv(0, I), gv(0)) == chi(1, -I)


def test_intertwiner_shifts():
    xi = chi(1)
    assert equivalence_intertwiner(xi, gv(3)) == gv(4)
    with pytest.raises(NotInvertible):
        equivalence_intertwiner(LAURENT.one() + xi, gv(0))


def test_trivial_corep_and_ind_space():
    rho = trivial_corep(SUB, side="right")
    assert rho.is_unitary()
    for degree in (0, 1, 2):
        basis = ind_space(SUB, rho, degree)
        hom = homogeneous_space(SUB, degree)
        assert sorted(str(a.components[0]) for a in basis) \
            == sorted(str(b) for b in hom)


def _shear_corep(side, g="th"):
    """The two-dimensional corepresentation [[1, g], [0, 1]] (1 = pi(1)),
    whose off-diagonal entry couples the two components; every generator
    g of fq-j is primitive, so each gives a corepresentation."""
    q = SUB.quotient.pres
    one = SUB.pi.apply(SUB.ambient.pres.one())
    return Corepresentation(SUB, [[one, q.gen(g)], [q.zero(), one]],
                            side=side)


# sorted bases of the shear corepresentation's induced space at degrees 1, 2
SHEAR_BASES = {
    "right": {1: ["(1, 0)", "(t, 1)", "(v, 0)"],
              2: ["(1, 0)", "(t*v, v)", "(t, 1)", "(v, 0)", "(v^2, 0)"]},
    "left": {1: ["(0, 1)", "(0, v)", "(1, t)"],
             2: ["(0, 1)", "(0, v)", "(0, v^2)", "(1, t)", "(v, t*v)"]},
}


@pytest.mark.parametrize("side", ["right", "left"])
def test_ind_space_of_a_two_dimensional_corep(side):
    # right corep: A_1 ranges over H_d = span{1, v, ..., v^d}, and
    # A_0 = t A_1 + h with h in H_d exists only when t A_1 fits the
    # window, so there are (d + 1) + d vectors; the left side mirrors
    # this with the components swapped
    rho = _shear_corep(side)
    m = rho.matrix
    assert not rho.is_unitary()  # tau_K(m[0][1]) = -th, not m[1][0] = 0
    amb, pi = SUB.ambient, SUB.pi
    for d in (1, 2, 3):
        basis = ind_space(SUB, rho, d)
        assert len(basis) == 2 * d + 1
        if d in SHEAR_BASES[side]:
            assert sorted(str(A) for A in basis) == SHEAR_BASES[side][d]
        for A in basis:
            comps = A.components
            for j in range(2):
                d_j = amb.delta.apply(comps[j])
                if side == "right":
                    # (pi x id) Delta A_j = sum_i m[j][i] (x) A_i
                    lhs = tensor_map([pi, None], d_j)
                    rhs = m[j][0].tensor(comps[0]) + m[j][1].tensor(comps[1])
                else:
                    # (id x pi) Delta A_j = sum_i A_i (x) m[i][j]
                    lhs = tensor_map([None, pi], d_j)
                    rhs = comps[0].tensor(m[0][j]) + comps[1].tensor(m[1][j])
                assert lhs == rhs, (d, str(A), j)
            for i in range(2):
                assert eq_sesq_defect(A, rho, i).is_zero(), (d, str(A), i)


def _defect_per_leg(A, rho, i):
    """eq_sesq_defect as a loop over the legs of each Delta A_j."""
    amb, pi = rho.sub.ambient, rho.sub.pi
    sinv = amb.antipode_inv
    total = None
    for j in range(rho.n):
        d = amb.delta.apply(A.components[j])
        for (m1, m2), c in d.terms.items():
            e1, e2 = amb.pres.monomial(m1), amb.pres.monomial(m2)
            if A.side == "left":
                piece = (pi.apply(sinv.apply(e1)) * rho.matrix[i][j]
                         ).tensor(e2).scale(c)
            else:
                piece = e1.tensor(rho.matrix[j][i] * pi.apply(sinv.apply(e2))
                                  ).scale(c)
            total = piece if total is None else total + piece
    if A.side == "left":
        rhs = pi.apply(amb.pres.one()).tensor(A.components[i])
    else:
        rhs = A.components[i].tensor(pi.apply(amb.pres.one()))
    return total - rhs


FQ_WINDOW_2 = SUB.ambient.pres.monomials_up_to(2)
LEG_COEFFS = [ONE, -ONE, I, scalar(Fraction(-3, 2)), W, ONE / (W + M)]
components = st.dictionaries(st.sampled_from(FQ_WINDOW_2),
                             st.sampled_from(LEG_COEFFS), max_size=3).map(
    lambda terms: AlgebraElement(SUB.ambient.pres, terms))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["right", "left"]), components, components)
def test_eq_sesq_defect_matches_the_per_leg_sum_off_the_induced_space(
        corep_side, a0, a1):
    # random vectors, mostly outside the induced space, so the defect is
    # compared where it is not zero
    assume(a0 or a1)
    rho = _shear_corep(corep_side)
    A = IndElement([a0, a1], "left" if corep_side == "right" else "right")
    for i in range(2):
        assert eq_sesq_defect(A, rho, i) == _defect_per_leg(A, rho, i)


# two-component vectors from the first 12 monomials of fq-g1
FQ_FIRST_12 = [SUB.ambient.pres.monomial(m) for m in FQ_WINDOW_2[:12]]


@pytest.mark.parametrize("g", ["xh", "muh"])
@pytest.mark.parametrize("corep_side", ["right", "left"])
def test_eq_sesq_defect_keeps_the_leg_order_of_a_noncentral_shear(
        corep_side, g):
    # th is central in fq-j, so the th shear cannot tell b_ji pi(...) from
    # pi(...) b_ji; xh and muh do not commute with the pi(Sinv(.)) legs,
    # so a swapped product in either case of eq_sesq_defect differs from
    # the per-leg sum on some of these 288 cases
    rho = _shear_corep(corep_side, g)
    side = "left" if corep_side == "right" else "right"
    for a0, a1 in itertools.product(FQ_FIRST_12, repeat=2):
        A = IndElement([a0, a1], side)
        for i in range(2):
            assert eq_sesq_defect(A, rho, i) == _defect_per_leg(A, rho, i), \
                (str(a0), str(a1), i)


def test_sesq_form_and_membership():
    v = SUB.ambient.pres.gen("v")
    A = IndElement([v], "left")
    B = IndElement([v * v], "left")
    form = sesq_form(A, B)
    assert form == v * v * v  # v is real
    with pytest.raises(SideMismatch):
        sesq_form(A, IndElement([v], "right"))


def test_eq_sesq_identity_on_v():
    rho = trivial_corep(SUB, side="right")
    A = IndElement([SUB.ambient.pres.gen("v")], "left")
    assert eq_sesq_defect(A, rho, 0).is_zero()
    rho_l = trivial_corep(SUB, side="left")
    A_r = IndElement([SUB.ambient.pres.gen("v")], "right")
    assert eq_sesq_defect(A_r, rho_l, 0).is_zero()


def test_relations_report():
    rep = relations_report(3)
    assert rep.passed, [c.id for c in rep.failures()]


def test_unitarity_report():
    rep = unitarity_report(3)
    assert rep.passed, [c.id for c in rep.failures()]


def test_jform_report():
    rep = jform_report(3)
    assert rep.passed, [c.id for c in rep.failures()]


def test_intertwiner_report():
    rep = intertwiner_report(3)
    assert rep.passed, [c.id for c in rep.failures()]


def test_ind_generic_report():
    rep = ind_generic_report(SUB, 2)
    assert rep.passed, [c.id for c in rep.failures()]


def test_mirror_right_report():
    rep = mirror_right_report(SUB, 2)
    assert rep.passed, [c.id for c in rep.failures()]


@pytest.mark.parametrize("report", [
    ind_generic_report, mirror_right_report, homogeneous_space,
    homogeneous_space_report, subgroup_report])
def test_generic_reports_refuse_a_negative_degree(report):
    # a negative degree has no induced basis or window: an error, not a
    # vacuous pass
    with pytest.raises(ConfigError, match="degree must be >= 0"):
        report(SUB, -1)


def test_twisted_action_leg_order():
    # psi(X) = <X, x> 1 is not the counit, so the two legs of the sum are
    # told apart; with the counit weight both orders give X.a, and on the
    # chi module K acts as 1 with phi[K^s] = 1
    mod = RegularModule()
    v, x = mod.fq.pres.gen("v"), mod.fq.pres.gen("x")
    psi = Weight("pair-x", mod, lambda X: mod.one().scale(pair(X, x)))
    for g in ("M", "K", "T", "B"):
        X = UQ.pres.gen(g)
        for a in (v, x * v):
            left = right = mod.zero()
            for (m1, m2), c in UQ.delta.apply(X).terms.items():
                left = left + (mod.act_mono(m1, a)
                               * psi.of_mono(m2)).scale(c)
                right = right + (psi.of_mono(m1)
                                 * mod.act_mono(m2, a, side="right")).scale(c)
            assert (rho_tilde_generic(X, IndElement([a], "left"), psi)
                    == IndElement([left], "left"))
            assert (rho_tilde_generic(X, IndElement([a], "right"), psi)
                    == IndElement([right], "right"))
    B = UQ.pres.gen("B")
    assert (rho_tilde_generic(B, IndElement([v], "left"), psi).components[0]
            == mod.one().scale(-W))
    assert (rho_tilde_generic(B, IndElement([v], "right"), psi).components[0]
            == mod.one().scale(W))
