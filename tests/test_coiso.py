import pytest

from hopfkit.coiso import (
    build_subgroup,
    epsilon_side,
    galilei_subgroup,
    homogeneous_space,
    homogeneous_space_report,
    is_member,
    subgroup_report,
)
from hopfkit.errors import NotCoalgebraMorphism, NotModuleMorphism, TauIncompatible
from hopfkit.hopf import HopfStructure, builtin

FQ = builtin("fq-g1")
FJ = builtin("fq-j")
SUB = galilei_subgroup()


def v_power(k):
    return FQ.pres.monomial((0, 0, 0, k))


def test_galilei_subgroup_builds():
    assert SUB.side == "two-sided"
    assert SUB.pi.apply(FQ.pres.gen("v")).is_zero()
    assert SUB.pi.apply(FQ.pres.gen("mu")) == FJ.pres.gen("muh")


def test_identity_projection_has_zero_kernel():
    ident = build_subgroup(FQ, FQ, {g: FQ.pres.gen(g) for g in FQ.pres.generators},
                           side="two-sided", check_degree=2)
    rep = subgroup_report(ident, 2)
    failed = [c for c in rep.failures() if not c.id.startswith("kernel-dimension")]
    assert not failed
    # no kernel entries at all: pi is injective
    assert not [c for c in rep.checks if c.id.startswith("kernel-right")]


def test_killing_x_too_is_not_a_coalgebra_morphism():
    table = {"mu": FJ.pres.gen("muh"), "x": FJ.pres.zero(),
             "t": FJ.pres.gen("th"), "v": FJ.pres.zero()}
    with pytest.raises((NotCoalgebraMorphism, NotModuleMorphism)):
        build_subgroup(FQ, FJ, table, side="two-sided", check_degree=2)


def test_non_surjective_pi_names_the_missed_monomials():
    table = {"mu": FJ.pres.gen("muh"), "x": FJ.pres.gen("xh"),
             "t": FJ.pres.zero(), "v": FJ.pres.zero()}
    with pytest.raises(NotModuleMorphism) as exc:
        build_subgroup(FQ, FJ, table, side="two-sided", check_degree=2)
    assert str(exc.value) == ("pi is not surjective on the degree-2 window; "
                              "missing [(0, 0, 1), (0, 0, 2), (0, 1, 1)]")


def test_membership_of_v():
    assert is_member(SUB, FQ.pres.gen("v"))
    assert is_member(SUB, FQ.pres.gen("v"), side="right")


def test_non_membership_of_x():
    assert not is_member(SUB, FQ.pres.gen("x"))
    assert not is_member(SUB, FQ.pres.gen("mu"))


def test_homogeneous_space_is_v_polynomials():
    for degree in (0, 1, 2, 3):
        basis = homogeneous_space(SUB, degree)
        expected = [v_power(k) for k in range(degree + 1)]
        assert sorted(str(b) for b in basis) == sorted(str(e) for e in expected)
        for b, e in zip(sorted(basis, key=lambda x: x.degree()), expected):
            assert b == e


def test_right_homogeneous_space_matches_left():
    # the subgroup is two-sided, so both memberships carve out v powers
    basis = homogeneous_space(SUB, 2, side="right")
    assert sorted(b.degree() for b in basis) == [0, 1, 2]
    for b in basis:
        assert is_member(SUB, b, side="right")


def test_epsilon_side_values():
    v = FQ.pres.gen("v")
    assert epsilon_side(v, SUB).is_zero()
    assert epsilon_side(FQ.pres.one(), SUB) == SUB.pi.apply(FQ.pres.one())
    assert epsilon_side(v * v, SUB).is_zero()
    assert epsilon_side(v, SUB, side="right").is_zero()


def _epsilon_side_per_leg(a, side):
    sinv, pi = FQ.antipode_inv, SUB.pi
    out = FJ.pres.zero()
    for (m1, m2), c in FQ.delta.apply(a).terms.items():
        e1, e2 = FQ.pres.monomial(m1), FQ.pres.monomial(m2)
        if side == "left":
            out = out + pi.apply(sinv.apply(e2) * e1) * c
        else:
            out = out + pi.apply(e2 * sinv.apply(e1)) * c
    return out


@pytest.mark.parametrize("side", ["left", "right"])
def test_epsilon_side_is_the_per_leg_sum_and_eps_times_pi_one(side):
    # sum Sinv(a_(2)) a_(1) = eps(a) 1 = sum a_(2) Sinv(a_(1)), so the value
    # is eps(a) pi(1) on every monomial, member of the homogeneous space or not
    window = FQ.pres.monomials_up_to(3)
    assert len(window) == 35
    pi1 = SUB.pi.apply(FQ.pres.one())
    for mon in window:
        a = FQ.pres.monomial(mon)
        got = epsilon_side(a, SUB, side)
        assert got == _epsilon_side_per_leg(a, side), (side, str(a))
        assert got == pi1 * FQ.epsilon.apply(a), (side, str(a))


def test_tau_mismatch_is_rejected():
    # a quotient whose tau fixes th instead of negating it still satisfies
    # the algebra relations, but pi no longer intertwines the involutions
    p = FJ.pres
    bad_tau = [-p.gen("muh"), -p.gen("xh"), p.gen("th")]
    quotient = HopfStructure(
        "fq-j-bad-tau", p,
        [FJ.delta.apply(p.gen(g)) for g in p.generators],
        [FJ.epsilon.apply(p.gen(g)) for g in p.generators],
        antipode_table=None, star_table=None, tau_table=bad_tau)
    table = {"mu": p.gen("muh"), "x": p.gen("xh"),
             "t": p.gen("th"), "v": p.zero()}
    with pytest.raises(TauIncompatible):
        build_subgroup(FQ, quotient, table, side="two-sided", check_degree=2)


def test_subgroup_report_passes():
    rep = subgroup_report(SUB, 3)
    assert rep.passed, [c.id for c in rep.failures()]


def test_homogeneous_space_report_passes():
    rep = homogeneous_space_report(SUB, 3)
    assert rep.passed, [c.id for c in rep.failures()]
