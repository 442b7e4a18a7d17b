from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit.errors import (NotGroupLike, NotInvertible, NotTauReal,
                            PresentationMismatch, StarUndefined)
from hopfkit.hopf import algebra_presentation, builtin
from hopfkit.ncalg import AlgebraElement
from hopfkit.quasiinv import (
    LAURENT,
    OPS,
    ChiFraction,
    ChiFractionModule,
    ChiModule,
    act,
    chi,
    chi_from_h0,
    chi_to_h0,
    coboundary_vanishing_report,
    coboundary_weight,
    cocycle_check,
    d1_defect,
    epsilon_weight,
    essential_invariance_decide,
    galilei_weight,
    galilei_weight_of,
    nu_w,
    nu_w_functional,
    quasi_invariance_check,
    recurrence_report,
    transform_weight,
    translate_functional,
    weight_coefficient,
)
from hopfkit.scalars import I, M, ONE, U, W, ZERO, scalar

UQ = builtin("uq-g1")
H0 = algebra_presentation("h0-irr")
IWM = I * W * M


def uq(name, exp=1):
    return UQ.pres.gen(name, exp)


# -- chi basis and nu_w ----------------------------------------------------


def test_chi_conversion_round_trip():
    for e in (H0.gen("v0") ** 2, H0.gen("v1") ** 3, H0.one(),
              H0.gen("v0") * H0.gen("v1")):
        assert chi_to_h0(chi_from_h0(e)) == e
    for x in (chi(3), chi(-2), chi(1) + chi(-1), chi(0) + chi(2, I * W)):
        assert chi_from_h0(chi_to_h0(x)) == x


# a fixed deck of coefficients, with the denominators the engine meets
COEFFS = [ONE, -ONE, I, ONE / (W * M), I / (2 * W), W * M + I,
          scalar(Fraction(-3, 2)), U / M]


def laurent_elements(max_terms=4):
    terms = st.dictionaries(st.integers(-4, 4), st.sampled_from(COEFFS),
                            max_size=max_terms)
    return terms.map(lambda d: AlgebraElement(
        LAURENT, {(l,): c for l, c in d.items()}))


def h0_elements():
    mons = H0.monomials_up_to(3)
    return st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS),
                           max_size=3).map(lambda d: AlgebraElement(H0, d))


def ops_elements(max_terms=3):
    mons = st.tuples(st.integers(-4, 4), st.integers(0, 4))
    return st.dictionaries(mons, st.sampled_from(COEFFS),
                           max_size=max_terms).map(
        lambda d: AlgebraElement(OPS, d))


@settings(max_examples=60, deadline=None)
@given(ops_elements(), ops_elements(), laurent_elements())
def test_ops_act_is_an_action(p, q, f):
    # products in OPS use the rules E chi^+-1 = chi^+-1 E +- chi^+-1; act
    # reads chi^a E^b directly, so this checks the rules independently
    assert act(p * q, f) == act(p, act(q, f))


def test_ops_act_values_and_mismatch():
    E, c = OPS.gen("E"), OPS.gen("chi")
    assert act(E, chi(3, I)) == chi(3, 3 * I)
    assert act(c * E * E, chi(-2)) == chi(-1, scalar(4))
    assert act(E, chi(0)).is_zero()
    with pytest.raises(PresentationMismatch):
        act(chi(1), chi(1))
    with pytest.raises(PresentationMismatch):
        act(E, E)


@settings(max_examples=60, deadline=None)
@given(laurent_elements(), laurent_elements())
def test_laurent_product_is_convolution(x, y):
    conv = {}
    for (l,), a in x.terms.items():
        for (n,), b in y.terms.items():
            conv[l + n] = conv.get(l + n, ZERO) + a * b
    assert (x * y).terms == {(k,): c for k, c in conv.items() if not c.is_zero()}


@settings(max_examples=60, deadline=None)
@given(laurent_elements(), laurent_elements())
def test_laurent_star_is_multiplicative_involution(x, y):
    star = ChiModule().star
    assert star(star(x)) == x
    assert star(x * y) == star(x) * star(y)
    assert star(x + y) == star(x) + star(y)


@settings(max_examples=30, deadline=None)
@given(h0_elements())
def test_chi_round_trip_on_random_h0_elements(e):
    assert chi_to_h0(chi_from_h0(e)) == e


def test_nu_w_values():
    assert nu_w(chi(0)) == ONE
    assert nu_w(chi(5)) == ZERO
    assert nu_w(H0.gen("v0") ** 3) == (ONE / (W * M)) ** 3
    assert nu_w(H0.gen("v1") ** 2) == (ONE / (W * M)) ** 2
    assert nu_w(H0.gen("v1") ** 3) == -((ONE / (W * M)) ** 3)


def test_nu_w_reality():
    rep = nu_w_functional().reality_report(6)
    assert rep.passed


# -- the action table ------------------------------------------------------


def test_action_of_b_shifts():
    mod = ChiModule()
    for l in range(-4, 5):
        assert mod.act(uq("B"), chi(l)) == chi(l + 1, IWM * l)
        assert mod.act(uq("K"), chi(l)) == chi(l)
        assert mod.act(uq("T"), chi(l)).is_zero()
        assert mod.act(uq("M"), chi(l)).is_zero()


def test_action_module_algebra_law():
    mod = ChiModule()
    for l in range(-4, 5):
        for n in range(-4, 5):
            lhs = mod.act(uq("B"), chi(l) * chi(n))
            rhs = (mod.act(uq("B"), chi(l)) * mod.act(uq("K"), chi(n))
                   + mod.act(uq("K", -1), chi(l)) * mod.act(uq("B"), chi(n)))
            assert lhs == rhs


def test_action_star_compatibility():
    # (X.a)* = tau(X).a*
    mod = ChiModule()
    for name in ("K", "B", "T", "M"):
        X = uq(name)
        tauX = UQ.tau.apply(X)
        for l in range(-4, 5):
            a = chi(l)
            assert ChiModule().star(mod.act(X, a)) == mod.act(tauX, ChiModule().star(a))


# -- the weight ------------------------------------------------------------


def test_weight_on_generators():
    assert galilei_weight_of(uq("K")) == chi(0)
    assert galilei_weight_of(uq("K", -1)) == chi(0)
    assert galilei_weight_of(UQ.pres.one()) == chi(0)
    half_wm = W * M * scalar(Fraction(1, 2))
    assert galilei_weight_of(uq("B")) == chi(1, I * half_wm)
    assert galilei_weight_of(uq("T")).is_zero()
    assert galilei_weight_of(uq("M")).is_zero()


def test_weight_coefficient_recurrence():
    rep = recurrence_report(8)
    assert rep.passed
    assert weight_coefficient(1) == W * M * scalar(Fraction(1, 2))


def test_cocycle_on_b_k():
    phi = galilei_weight()
    assert d1_defect(phi, uq("B"), uq("K")).is_zero()
    assert d1_defect(phi, UQ.pres.one(), UQ.pres.one()).is_zero()


def test_cocycle_check_low_degree():
    rep = cocycle_check(galilei_weight(), 2)
    assert rep.passed, [c.id for c in rep.failures()]


def test_cocycle_check_right_mirror():
    rep = cocycle_check(galilei_weight(), 2, side="right")
    assert rep.passed, [c.id for c in rep.failures()]


# -- quasi-invariance -------------------------------------------------------


def test_quasi_invariance_spot_value():
    # both sides at X=B, a=chi^l equal -iwm delta_{l,-1}
    mod = ChiModule()
    h = nu_w_functional()
    phi = galilei_weight()
    for l in range(-3, 3):
        lhs = h(mod.act(uq("B"), chi(l)))
        expected = -IWM if l == -1 else ZERO
        assert lhs == expected


@pytest.mark.parametrize("form", ["def", "lemma"])
def test_quasi_invariance_left(form):
    rep = quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                 degree=1, window=3, form=form)
    assert rep.passed, [c.id for c in rep.failures()]


@pytest.mark.parametrize("form", ["def", "lemma"])
def test_quasi_invariance_right_mirror(form):
    rep = quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                 degree=1, window=3, form=form, side="right")
    assert rep.passed, [c.id for c in rep.failures()]


# -- transforms and essential invariance ------------------------------------


def test_transform_weight_values():
    phi = galilei_weight()
    phi1 = transform_weight(phi, chi(1))
    assert phi1(uq("B")) == chi(1, IWM * scalar(Fraction(3, 2)))
    assert phi1(uq("K")) == chi(0)
    assert phi1(uq("T")).is_zero()
    # xi = 1 leaves the weight alone
    phi_same = transform_weight(phi, chi(0))
    for g in ("M", "K", "T", "B"):
        assert phi_same(uq(g)) == phi(uq(g))


def test_transformed_pair_is_quasi_invariant():
    phi1 = transform_weight(galilei_weight(), chi(1))
    h1 = nu_w_functional().conjugated_by(chi(1))
    rep = quasi_invariance_check(h1, phi1, degree=1, window=3, form="def")
    assert rep.passed, [c.id for c in rep.failures()]
    rep = quasi_invariance_check(h1, phi1, degree=1, window=3, form="lemma")
    assert rep.passed, [c.id for c in rep.failures()]


def test_essential_invariance_refuted_for_galilei():
    for window in range(1, 9):
        res = essential_invariance_decide(galilei_weight(), window)
        assert res.status == "refuted"
        assert res.solution_dim == 0
        assert res.certificate  # the forced-zero rows are the certificate


def test_essential_invariance_certificate_shape():
    res = essential_invariance_decide(galilei_weight(), 2)
    # each B-row reads (iwm(l - 1/2)) * a[l] = 0: one unknown per row
    assert all(row.count("a[") == 1 for row in res.certificate)


def test_invariant_weight_gives_unit_coboundary():
    res = essential_invariance_decide(epsilon_weight(ChiModule()), 4)
    assert res.status == "coboundary"
    assert res.xi == chi(0)


def test_coboundary_of_chi_recovered():
    phi = transform_weight(epsilon_weight(ChiModule()), chi(1))
    res = essential_invariance_decide(phi, 4)
    assert res.status == "coboundary"
    assert sorted(res.xi.terms) == [(1,)]


def test_translate_functional():
    h, phi = nu_w_functional(), galilei_weight()
    hk, phik, xi = translate_functional(h, phi, UQ.pres.one())
    assert xi == chi(0)
    for l in range(-2, 3):
        assert hk(chi(l)) == h(chi(l))
        assert phik(uq("B")) == phi(uq("B"))
    with pytest.raises(NotTauReal):
        translate_functional(h, phi, uq("K"))
    with pytest.raises(NotTauReal):
        translate_functional(h, phi, uq("K", 2))
    with pytest.raises(NotGroupLike):
        translate_functional(h, phi, uq("B"))


def test_group_like_scan():
    from hopfkit.quasiinv import group_like_monomials, tau_real_group_likes
    found = group_like_monomials(2)
    assert {str(e) for e in found} == {"1", "K", "K^-1", "K^2", "K^-2"}
    assert tau_real_group_likes(2) == [UQ.pres.one()]


# -- cohomology --------------------------------------------------------------


def test_fraction_field_basics():
    one_plus_chi = LAURENT.one() + chi(1)
    f = ChiFraction(LAURENT.one(), one_plus_chi)
    assert f * ChiFraction.from_chi(one_plus_chi) == ChiFraction.one()
    with pytest.raises(NotInvertible):
        one_plus_chi.inverse()
    # (chi^2 - 1)/(chi - 1) reduces to chi + 1
    num = chi(2) - chi(0)
    den = chi(1) - chi(0)
    assert ChiFraction(num, den) == ChiFraction.from_chi(chi(1) + chi(0))


nonzero_laurent = laurent_elements(max_terms=3).filter(lambda e: not e.is_zero())


@settings(max_examples=60, deadline=None)
@given(laurent_elements(max_terms=3), nonzero_laurent,
       laurent_elements(max_terms=3), nonzero_laurent, nonzero_laurent)
def test_fraction_field_laws(p, q, p2, q2, r):
    f, g = ChiFraction(p, q), ChiFraction(p2, q2)
    assert ChiFraction(p * r, q * r) == f
    assert (f + g) - g == f
    if not p.is_zero():
        assert f * f.inverse() == ChiFraction.one()
    if p * q2 != p2 * q:
        assert f != g


@pytest.mark.parametrize("d", range(5))
def test_fraction_module_b_power_keeps_one_denominator(d):
    # B is a derivation, so B^d (1/(1+chi)) has denominator (1+chi)^(d+1)
    module = ChiFractionModule()
    one_plus_chi = LAURENT.one() + chi(1)
    f = ChiFraction(LAURENT.one(), one_plus_chi)
    out = module.act_mono((0, 0, 0, d), f)
    assert out.den == one_plus_chi ** (d + 1)
    steps = f
    for _ in range(d):
        steps = module.act_mono((0, 0, 0, 1), steps)
    assert out == steps


def test_fraction_module_has_no_star():
    with pytest.raises(StarUndefined):
        ChiFractionModule().star(ChiFraction.one())


def test_d0_of_non_invertible_sample():
    # B.(1 + chi) = iwm chi^2, so d0(1+chi)[B] = iwm chi^2 / (1 + chi)
    w = coboundary_weight(LAURENT.one() + chi(1))
    val = w(uq("B"))
    expected = ChiFraction(chi(2, IWM), LAURENT.one() + chi(1))
    assert val == expected


def test_d1_d0_vanishes():
    rep = coboundary_vanishing_report(degree=1)
    assert rep.passed, [c.id for c in rep.failures()]
