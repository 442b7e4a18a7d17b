from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit.quasiinv as quasiinv
from hopfkit.cli import SUITES, run_suite
from hopfkit.errors import (ConfigError, InvalidArgument, NotGroupLike,
                            NotInvertible, NotTauReal, PresentationMismatch,
                            StarUndefined)
from hopfkit.hopf import (BUILTIN_NAMES, HOPF_NAMES, algebra_presentation,
                          builtin)
from hopfkit.induce import _galilei_module, galilei_basis
from hopfkit.ncalg import AlgebraElement, Presentation
from hopfkit.pairing import engine as pairing_engine, pairing_report
from hopfkit.quasiinv import (
    LAURENT,
    OPS,
    ChiFraction,
    ChiFractionModule,
    ChiModule,
    Functional,
    RegularModule,
    Weight,
    act,
    chi,
    chi_from_h0,
    coboundary_vanishing_report,
    coboundary_weight,
    cocycle_check,
    d1_defect,
    epsilon_weight,
    essential_invariance_decide,
    essential_invariance_report,
    galilei_weight,
    galilei_weight_of,
    nu_w,
    nu_w_functional,
    quasi_invariance_check,
    recurrence_report,
    transform_weight,
    translate_functional,
    twisted_action,
    weight_coefficient,
)
from hopfkit.scalars import I, M, ONE, U, W, ZERO, scalar

UQ = builtin("uq-g1")
H0 = algebra_presentation("h0-irr")
IWM = I * W * M


def uq(name, exp=1):
    return UQ.pres.gen(name, exp)


# -- chi basis and nu_w ----------------------------------------------------


def chi_to_h0(x):
    """The inverse of chi_from_h0, as an oracle: chi^l = (1 + wm v1)^l and
    chi^-l = (1 - wm v0)^l."""
    chi_pos = H0.one() + H0.gen("v1") * (W * M)
    chi_neg = H0.one() - H0.gen("v0") * (W * M)
    out = H0.zero()
    for (l,), c in x.terms.items():
        out = out + (chi_pos if l >= 0 else chi_neg) ** abs(l) * c
    return out


def test_chi_conversion_round_trip():
    for e in (H0.gen("v0") ** 2, H0.gen("v1") ** 3, H0.one(),
              H0.gen("v0") * H0.gen("v1")):
        assert chi_to_h0(chi_from_h0(e)) == e
    for x in (chi(3), chi(-2), chi(1) + chi(-1), chi(0) + chi(2, I * W)):
        assert chi_from_h0(chi_to_h0(x)) == x


# a fixed deck of coefficients, with the denominators the engine meets
COEFFS = [ONE, -ONE, I, ONE / (W * M), I / (2 * W), W * M + I,
          scalar(Fraction(-3, 2)), U / M]


def laurent_elements(max_terms=4, coeffs=COEFFS):
    terms = st.dictionaries(st.integers(-4, 4), st.sampled_from(coeffs),
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


def test_b_exponent_is_the_n_degree_in_the_dual_basis():
    # galilei_weight_of pairs X with v^n only up to the largest B-exponent
    # of X; that is exact when it equals the largest N-exponent of X in
    # the dual basis, the only letter that pairs with v
    eng = pairing_engine()
    v = builtin("fq-g1").pres.gen("v")
    mons = UQ.pres.monomials_up_to(3)
    assert len(mons) == 140
    sums = [uq("B") * uq("T") - uq("T") * uq("B"),
            uq("B") ** 3 + uq("M") * uq("B"),
            uq("K", -2) * uq("B") ** 2 + uq("T") * uq("B") * I,
            uq("M") ** 2 + uq("K") * uq("T"),
            UQ.pres.zero()]
    for X in [UQ.pres.monomial(m) for m in mons] + sums:
        b = max((m[3] for m in X.terms), default=0)
        n = max((m[3] for m in eng.to_dual.apply(X).terms), default=0)
        assert b == n, X
        assert eng.pair(X, v ** (b + 1)).is_zero(), X


def test_chi_modules_and_weight_reject_an_fq_element():
    # v in fq-g1 has the exponent tuple (0, 0, 0, 1) of B in uq-g1, which
    # the per-monomial caches would read as B
    v = builtin("fq-g1").pres.gen("v")
    calls = [lambda: ChiModule().act(v, chi(1)),
             lambda: _galilei_module(False).act(v, chi(1)),
             lambda: ChiFractionModule().act(v, ChiFraction(chi(1))),
             lambda: galilei_weight()(v),
             lambda: galilei_weight()(v.scale(0))]
    for call in calls:
        with pytest.raises(PresentationMismatch):
            call()


def test_chi_module_act_is_the_linear_extension_of_act_mono():
    X = uq("B") * uq("K") + uq("T").scale(2) - uq("K", -1)
    assert len(X.terms) > 2
    for mod in (ChiModule(), _galilei_module(False)):
        for l in range(-3, 4):
            f = chi(l) + chi(l + 1, I)
            assert mod.act(X, f) == act(mod.action.apply(X), f)
    frac = ChiFractionModule()
    for f in (ChiFraction(chi(2)), ChiFraction(chi(-1), LAURENT.one() + chi(1))):
        want = frac.zero()
        for umon, c in X.terms.items():
            want = want + frac.act_mono(umon, f).scale(c)
        assert frac.act(X, f) == want


def test_d1_defect_right_is_the_right_mirror():
    # the Galilei weight is a right cocycle, so a weight that is not one
    # checks the defect's value as well as its zeros
    not_cocycle = Weight("eps-chi", ChiModule(),
                         lambda X: chi(1, UQ.epsilon.apply(X)))
    window = [UQ.pres.monomial(m) for m in UQ.pres.monomials_up_to(1)]
    nonzero = 0
    for psi in (galilei_weight(), not_cocycle):
        for X in window:
            for Y in window:
                got = d1_defect(psi, X, Y, side="right")
                assert got == psi(X * Y) - twisted_action(psi, Y, psi(X),
                                                          side="right")
                nonzero += not got.is_zero()
    assert nonzero


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
    # the group-likes of the PBW window are the K powers, and since
    # tau(K^l) = K^-l only the unit is tau-real, so translation is only
    # ever exercised trivially
    window = map(UQ.pres.monomial, UQ.pres.monomials_up_to(2))
    found = [e for e in window if UQ.is_group_like(e)]
    assert {str(e) for e in found} == {"1", "K", "K^-1", "K^2", "K^-2"}
    assert [k for k in found if UQ.tau.apply(k) == k] == [UQ.pres.one()]


# -- cohomology --------------------------------------------------------------


def test_fraction_field_basics():
    one_plus_chi = LAURENT.one() + chi(1)
    f = ChiFraction(LAURENT.one(), one_plus_chi)
    assert f * ChiFraction(one_plus_chi) == ChiFraction.one()
    with pytest.raises(NotInvertible):
        one_plus_chi.inverse()
    # (chi^2 - 1)/(chi - 1) reduces to chi + 1
    num = chi(2) - chi(0)
    den = chi(1) - chi(0)
    assert ChiFraction(num, den) == ChiFraction(chi(1) + chi(0))


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


def test_fraction_module_agrees_with_its_action_on_unit_denominators():
    # the quotient rule reads the action, so it serves any action, here
    # the Galilei module's, whose T moves chi^l to chi^(l+-1)
    gal = _galilei_module(False)
    frac = ChiFractionModule(gal.action)
    xs = [UQ.pres.monomial(mon) for mon in UQ.pres.monomials_up_to(2)]
    xs.append(uq("B") * uq("T") + uq("K", -2).scale(I))
    for X in xs:
        for l in range(-2, 3):
            f = chi(l) + chi(l + 1, I)
            assert frac.act(X, ChiFraction(f)) == ChiFraction(gal.act(X, f))


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


def test_fraction_sum_with_a_zero_summand_returns_the_other_operand():
    f = ChiFraction(chi(1) + chi(-2, I), LAURENT.one() + chi(1))
    for zero in (ChiFraction(LAURENT.zero()),
                 ChiFraction(LAURENT.zero(), chi(2))):
        assert zero + f is f
        assert f + zero is f
    assert f + ChiFraction(LAURENT.zero()) == f


def test_general_sum_mutant_fails_d1_d0(monkeypatch):
    # a wrong general path (a d + c b)/(b b) behind the zero shortcut must
    # still fail the d1 d0 rows: most of their sums start from a zero
    def wrong_add(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        return ChiFraction(self.num * other.den + other.num * self.den,
                           self.den * self.den)

    monkeypatch.setattr(ChiFraction, "__add__", wrong_add)
    failed = [c.id for c in coboundary_vanishing_report().failures()]
    assert failed
    assert all(cid.startswith("d1d0[") for cid in failed)


# -- the basis-pair memo of twisted_action -----------------------------------


def leg_sum_reference(phi, X, a, side, module=None):
    """sum X_(1).a phi[X_(2)] (left) or sum phi[X_(1)] a.X_(2) (right),
    through the module's act and phi's __call__ on whole legs."""
    m = module or phi.module
    out = m.zero()
    for (m1, m2), c in UQ.delta.apply(X).terms.items():
        X1, X2 = UQ.pres.monomial(m1), UQ.pres.monomial(m2)
        if side == "left":
            piece = m.act(X1, a) * phi(X2)
        else:
            piece = phi(X1) * m.act(X2, a, side="right")
        out = out + piece.scale(c)
    return out


# -- naive sums: every coproduct leg and every term, zero or not, with the
# chi modules' operators built and applied here, not by the module

E_OP = OPS.gen("E")


def naive_operator(action, umon):
    """The image of a uq-g1 monomial, its letters' images multiplied in
    order (K is the only invertible letter)."""
    op = OPS.one()
    for g, e in enumerate(umon):
        img = action.images[g] if e >= 0 else action.images[g].inverse()
        for _ in range(abs(e)):
            op = op * img
    return op


def naive_act_on_laurent(op, f):
    """chi^a E^b chi^l = l^b chi^(a+l), term by term."""
    out = LAURENT.zero()
    for (a, b), c in op.terms.items():
        for (l,), k in f.terms.items():
            out = out + chi(a + l, c * k * scalar(l ** b))
    return out


def naive_act_on_fraction(op, f):
    """E is a derivation, E(n/d) = (E(n) d - n E(d))/d^2, applied b times
    for each term chi^a E^b, with no common denominator."""
    out = ChiFraction(LAURENT.zero())
    for (a, b), c in op.terms.items():
        g = f
        for _ in range(b):
            g = ChiFraction(naive_act_on_laurent(E_OP, g.num) * g.den
                            - g.num * naive_act_on_laurent(E_OP, g.den),
                            g.den * g.den)
        out = out + ChiFraction(chi(a, c)) * g
    return out


def naive_act_mono(module, umon, f, side):
    if isinstance(module, RegularModule):
        # the regular action is the pairing layer's, tested there
        return module.act_mono(umon, f, side)
    op = naive_operator(module.action, umon)
    if isinstance(module, ChiFractionModule):
        return naive_act_on_fraction(op, f)
    return naive_act_on_laurent(op, f)


def naive_act(module, X, f, side="left"):
    out = module.zero()
    for umon, c in X.terms.items():
        out = out + naive_act_mono(module, umon, f, side).scale(c)
    return out


def naive_weight(fn, module, X):
    """The weight with defining function fn, summed over every term of X."""
    out = module.zero()
    for umon, c in X.terms.items():
        out = out + fn(UQ.pres.monomial(umon)).scale(c)
    return out


def naive_twisted(fn, module, X, a, side):
    """sum X_(1).a phi[X_(2)] or sum phi[X_(1)] a.X_(2) over every leg."""
    out = module.zero()
    for (m1, m2), c in UQ.delta.apply(X).terms.items():
        if side == "left":
            piece = naive_act_mono(module, m1, a, side) * \
                fn(UQ.pres.monomial(m2))
        else:
            piece = fn(UQ.pres.monomial(m1)) * \
                naive_act_mono(module, m2, a, side)
        out = out + piece.scale(c)
    return out


def naive_d1(fn, module, X, Y, side):
    lhs = naive_weight(fn, module, X * Y)
    if side == "left":
        return lhs - naive_twisted(fn, module, X,
                                   naive_weight(fn, module, Y), side)
    return lhs - naive_twisted(fn, module, Y, naive_weight(fn, module, X),
                               side)


def pair_x_weight(mod):
    """psi(X) = <X, x> 1 on fq-g1, the weight of
    tests/test_induce.py::test_twisted_action_leg_order: not the counit,
    so its left and right sums differ."""
    return Weight("pair-x", mod, pair_x_fn(mod))


def pair_x_fn(mod):
    x = mod.fq.pres.gen("x")
    return lambda X: mod.one().scale(pairing_engine().pair(X, x))


# one weight for every example, so left and right, and both modules, meet
# on the same basis pairs in one cache
SHARED_PHI = galilei_weight()
TWIST_COEFFS = COEFFS + [ONE / (W + M)]


def uq_elements(max_terms=3):
    return st.dictionaries(st.sampled_from(UQ.pres.monomials_up_to(2)),
                           st.sampled_from(TWIST_COEFFS),
                           max_size=max_terms).map(
        lambda d: AlgebraElement(UQ.pres, d))


@settings(max_examples=60, deadline=None)
@given(uq_elements(), laurent_elements(3, TWIST_COEFFS),
       st.sampled_from(["left", "right"]), st.booleans())
def test_twisted_action_matches_leg_sum(X, a, side, galilei):
    module = _galilei_module(False) if galilei else None
    if galilei and side == "right":
        # the Galilei module acts on the left only
        with pytest.raises(InvalidArgument):
            twisted_action(SHARED_PHI, X, a, side, module)
        return
    got = twisted_action(SHARED_PHI, X, a, side, module)
    assert got == leg_sum_reference(SHARED_PHI, X, a, side, module), \
        (X, a, side, galilei)


# K - 1 acts as zero: K and 1 act as the identity on the default chi module
# and phi[K] = phi[1] = 1, so its two terms cancel
CANCELLING = [uq("K") - UQ.pres.one(),
              (uq("K", 2) - uq("K")).scale(ONE / (W + M))]


@pytest.mark.parametrize("side", ["left", "right"])
def test_twisted_action_on_zero_and_cancelling_terms(side):
    a = chi(2) + chi(-1, I)
    for X in CANCELLING:
        got = twisted_action(SHARED_PHI, X, a, side)
        assert got.is_zero() and got.terms == {}
        assert got == leg_sum_reference(SHARED_PHI, X, a, side)
    X = uq("B") * uq("K") + uq("T", 2).scale(I)
    gal = _galilei_module(False)
    if side == "right":
        # refused before the zero shortcuts, whatever the vector
        for vector in (a, LAURENT.zero()):
            with pytest.raises(InvalidArgument):
                twisted_action(SHARED_PHI, X, vector, side, gal)
    for module in (None, gal) if side == "left" else (None,):
        zero = twisted_action(SHARED_PHI, X, LAURENT.zero(), side, module)
        assert zero.is_zero()
        assert zero == leg_sum_reference(SHARED_PHI, X, LAURENT.zero(), side,
                                         module)
        with_cancel = X + CANCELLING[0]
        assert twisted_action(SHARED_PHI, with_cancel, a, side, module) == \
            leg_sum_reference(SHARED_PHI, with_cancel, a, side, module)


def test_twisted_action_memo_keeps_sides_and_modules_apart():
    # one weight, one basis pair, met in this order: the Galilei module's
    # left sum differs from the default chi module's (where left and right
    # agree), and the Galilei module refuses the right side; on the
    # regular module one weight's left and right sums differ
    phi = galilei_weight()
    gal = _galilei_module(False)
    X, a = uq("B") * uq("B"), chi(1)
    seen = {}
    for module, sides in ((None, ("left", "right")), (gal, ("left",))):
        for side in sides:
            got = twisted_action(phi, X, a, side, module)
            assert got == leg_sum_reference(phi, X, a, side, module), \
                (module, side)
            seen[(module, side)] = got
    with pytest.raises(InvalidArgument):
        twisted_action(phi, X, a, "right", gal)
    assert seen[(gal, "left")] != seen[(None, "left")]
    assert seen[(None, "left")] == seen[(None, "right")]
    mod = RegularModule()
    psi = pair_x_weight(mod)
    v = mod.fq.pres.gen("v")
    got = {side: twisted_action(psi, uq("B"), v, side)
           for side in ("left", "right")}
    for side in ("left", "right"):
        assert got[side] == naive_twisted(pair_x_fn(mod), mod, uq("B"), v,
                                          side), side
    assert got["left"] != got["right"]


def test_shared_weight_keeps_the_sides_apart_on_the_regular_module():
    # one pair-x weight serves both sides of the regular module, whose left
    # and right sums differ on some of these 250 basis pairs (counted with
    # the naive sums), so a memo key without side would hand the right sum
    # the left one; each side's reference comes from a fresh weight that
    # sees that side only
    mod = RegularModule()
    phi, fn = pair_x_weight(mod), pair_x_fn(mod)
    fresh = {side: pair_x_weight(mod) for side in ("left", "right")}
    vectors = [mod.fq.pres.monomial(m) for m in mod.fq.pres.monomials_up_to(1)]
    differ = naive_differ = 0
    for umon in UQ.pres.monomials_up_to(2):
        X = UQ.pres.monomial(umon)
        for a in vectors:
            got = {}
            for side in ("left", "right"):
                got[side] = twisted_action(phi, X, a, side)
                assert got[side] == twisted_action(fresh[side], X, a,
                                                   side), (umon, a, side)
            differ += got["left"] != got["right"]
            naive_differ += (naive_twisted(fn, mod, X, a, "left")
                             != naive_twisted(fn, mod, X, a, "right"))
    assert (len(UQ.pres.monomials_up_to(2)), len(vectors)) == (50, 5)
    assert differ == naive_differ > 0


def test_twisted_action_rejects_an_element_of_another_algebra():
    # chi^1 and y^1 share the exponent tuple (1,) that keys the cache, and
    # B in uq-g1 and v in fq-g1 the tuple (0, 0, 0, 1)
    phi = galilei_weight()
    twisted_action(phi, uq("B"), chi(1))
    other = Presentation("y", ("y",), (True,), {})
    v = builtin("fq-g1").pres.gen("v")
    for X, a in ((uq("B"), other.monomial((1,))), (uq("B"), other.zero()),
                 (v, chi(1)), (v, LAURENT.zero())):
        with pytest.raises(PresentationMismatch):
            twisted_action(phi, X, a)


def test_twisted_action_caches_are_per_weight():
    # two weights on one module: each gets its own sums, never the other's
    phi = galilei_weight()
    eps = epsilon_weight(phi.module)
    X, a = uq("B") * uq("K") + uq("B", 2), chi(1) + chi(-2, W)
    first = twisted_action(phi, X, a)
    assert first == leg_sum_reference(phi, X, a, "left")
    assert eps._twist_cache == {}
    assert twisted_action(eps, X, a) == leg_sum_reference(eps, X, a, "left")
    assert twisted_action(eps, X, a) != first
    assert twisted_action(phi, X, a) == first


nonzero_small_laurent = laurent_elements(2, TWIST_COEFFS).filter(
    lambda e: not e.is_zero())


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(UQ.pres.monomials_up_to(1)),
       st.sampled_from(UQ.pres.monomials_up_to(1)),
       laurent_elements(2, TWIST_COEFFS), nonzero_small_laurent,
       st.sampled_from(["left", "right"]))
def test_twisted_action_on_fractions_matches_leg_sum(mx, my, num, den, side):
    # a ChiFraction has no basis terms: it is summed as it stands, and
    # nothing enters the weight's cache
    w = coboundary_weight(LAURENT.one() + chi(1))
    X = UQ.pres.monomial(mx) + UQ.pres.monomial(my).scale(I)
    a = ChiFraction(num, den)
    assert twisted_action(w, X, a, side) == leg_sum_reference(w, X, a, side)
    assert w._twist_cache == {}


def test_repeated_twisted_action_makes_no_module_actions(monkeypatch):
    # the second call on basis pairs already seen reads phi's cache only,
    # whatever the coefficients on those pairs; a weight of its own, since
    # earlier tests have warmed the shared galilei_weight()
    phi = Weight("galilei", ChiModule(), galilei_weight_of)
    X = uq("B") * uq("B") + uq("K").scale(ONE / (W + M)) + uq("T")
    a = chi(2) + chi(-1, I)
    calls = []
    real = ChiModule.act_mono

    def counting(self, umon, f, side="left"):
        calls.append(umon)
        return real(self, umon, f, side)

    monkeypatch.setattr(ChiModule, "act_mono", counting)
    for side in ("left", "right"):
        first = twisted_action(phi, X, a, side)
        assert calls
        calls.clear()
        assert twisted_action(phi, X, a, side) == first
        assert twisted_action(phi, X.scale(I), a.scale(3), side) == \
            first.scale(3 * I)
        assert calls == []


# -- zero values and the right side -------------------------------------------


# pairs of Galilei generators whose images do not commute
NONCOMMUTING = [("K", "B"), ("B", "K"), ("T", "B"), ("B", "T")]


def test_a_chi_module_refuses_a_right_action_that_is_not_one():
    # read on the right, a hom needs a.(XY) = (a.X).Y, that is X Y and
    # Y X acting alike; both Galilei tables break that on these pairs, so
    # they refuse the right side, before any zero shortcut; the weight's
    # images commute, so its hom is an antihom and serves both sides
    phi = galilei_weight()
    for half in (True, False):
        gal = _galilei_module(half)
        assert gal.sides == ("left",)
        for x, y in NONCOMMUTING:
            X, Y = uq(x), uq(y)
            assert gal.act(Y, gal.act(X, chi(1))) != gal.act(X * Y, chi(1))
            (umon,) = X.terms
            for call in (lambda: gal.act(X, chi(1), side="right"),
                         lambda: gal.act_mono(umon, chi(1), side="right"),
                         lambda: twisted_action(phi, X, chi(1), "right", gal),
                         lambda: twisted_action(phi, X, LAURENT.zero(),
                                                "right", gal)):
                with pytest.raises(InvalidArgument, match="no right action"):
                    call()
        with pytest.raises(InvalidArgument, match="side must be one of"):
            gal.act(uq("B"), chi(1), side="up")
    for mod in (ChiModule(), ChiFractionModule()):
        assert mod.sides == ("left", "right")
    mod = ChiModule()
    for x, y in NONCOMMUTING:
        for l in range(-2, 3):
            a = mod.act(uq(y), mod.act(uq(x), chi(l), "right"), "right")
            assert a == mod.act(uq(x) * uq(y), chi(l), "right")
    with pytest.raises(InvalidArgument, match="side must be one of"):
        mod.act(uq("M"), chi(1), side="Right")


XI = LAURENT.one() + chi(1)


def naive_coboundary(X):
    """d0(xi)[X] = X.xi xi^-1 with the naive fraction action."""
    xi = ChiFraction(XI)
    return naive_act(ChiFractionModule(), X, xi) * xi.inverse()


def fq_elements():
    fq = builtin("fq-g1").pres
    return st.dictionaries(st.sampled_from(fq.monomials_up_to(2)),
                           st.sampled_from(COEFFS[:5]), max_size=2).map(
        lambda d: AlgebraElement(fq, d))


def fractions():
    return st.tuples(laurent_elements(2, COEFFS[:5]),
                     nonzero_small_laurent).map(lambda p: ChiFraction(*p))


# (weight, its defining function written here, vectors): the Galilei
# weight on the chi module, a coboundary on the fraction field and the
# pair-x weight on the regular module
ORACLE_CASES = {
    "galilei-chi": (galilei_weight, lambda mod: galilei_weight_of,
                    lambda: laurent_elements(3, TWIST_COEFFS)),
    "coboundary-fraction": (lambda: coboundary_weight(XI),
                            lambda mod: naive_coboundary, fractions),
    "pair-x-regular": (lambda: pair_x_weight(RegularModule()), pair_x_fn,
                       fq_elements),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_shortcuts_match_the_naive_sums(case, data):
    # the weight, the twisted sum and the cocycle defect skip zero values,
    # zero legs and zero operators; the naive sums here skip nothing
    make, fn_of, vectors = ORACLE_CASES[case]
    phi = make()
    m = phi.module
    fn = fn_of(m)
    X = data.draw(uq_elements(), "X")
    Y = data.draw(uq_elements(2), "Y")
    a = data.draw(vectors(), "a")
    side = data.draw(st.sampled_from(["left", "right"]), "side")
    assert phi(X) == naive_weight(fn, m, X)
    assert twisted_action(phi, X, a, side) == naive_twisted(fn, m, X, a, side)
    assert d1_defect(phi, X, Y, side) == naive_d1(fn, m, X, Y, side)


@settings(max_examples=40, deadline=None)
@given(uq_elements(), st.one_of(laurent_elements(3, TWIST_COEFFS),
                                fractions()),
       st.sampled_from(["weight", "galilei", "galilei-closed"]),
       st.sampled_from(["left", "right"]))
def test_chi_module_act_matches_the_naive_operator(X, f, action, side):
    # act and act_mono against operators built letter by letter and
    # applied term by term (E as a derivation on fractions), zero
    # operators included: M and T act as zero in the weight's module
    action = {"weight": None, "galilei": _galilei_module(False).action,
              "galilei-closed": _galilei_module(True).action}[action]
    mod = (ChiFractionModule if isinstance(f, ChiFraction) else ChiModule)(
        action)
    if side not in mod.sides:
        side = "left"
    assert mod.act(X, f, side) == naive_act(mod, X, f, side)
    for umon in X.terms:
        assert mod.act_mono(umon, f, side) == \
            naive_act_mono(mod, umon, f, side)


def test_cocycle_suite_applies_no_zero_operator(monkeypatch):
    # run cold, the suite once applied the zero operator 669 times through
    # act and 321 times through the quotient rule; a zero operator now
    # gives the module's zero at once, and a b with no chi part is skipped
    zero = []
    real_act, real_apply = quasiinv.act, ChiFractionModule._apply

    def counting_act(op, f):
        zero.append(op.is_zero())
        return real_act(op, f)

    def counting_apply(self, op, f):
        zero.append(op.is_zero())
        return real_apply(self, op, f)

    monkeypatch.setattr(quasiinv, "act", counting_act)
    monkeypatch.setattr(ChiFractionModule, "_apply", counting_apply)
    assert run_suite("cocycle").passed
    assert zero and not any(zero)


def test_every_presentation_has_one_zero_that_stays_empty():
    # elements are never mutated, so zero() hands out one shared element;
    # no suite may add a term to it
    def presentations():
        for name in BUILTIN_NAMES:
            yield (builtin(name).pres if name in HOPF_NAMES
                   else algebra_presentation(name))
        yield LAURENT
        yield OPS

    zeros = [p.zero() for p in presentations()]
    assert len(zeros) == 6
    for p, z in zip(presentations(), zeros):
        assert p.zero() is z and z.terms == {} and z.pres is p
    for name in SUITES:
        assert run_suite(name, {"degree": 2} if name == "hopf-axioms"
                         else None).passed, name
    for p, z in zip(presentations(), zeros):
        assert p.zero() is z and z.terms == {}, p.name


# -- the row-wise batteries ---------------------------------------------------


def window(degree):
    return [UQ.pres.monomial(m) for m in UQ.pres.monomials_up_to(degree)]


def perturbed_weight():
    """A fresh weight equal to the Galilei weight except at B, where chi^2
    is added: its cocycle law fails at some pairs and holds at others."""
    def fn(X):
        value = galilei_weight_of(X)
        return value + chi(2) if (0, 0, 0, 1) in X.terms else value
    return Weight("galilei + chi^2 at B", ChiModule(), fn)


def outcomes(rep, prefix):
    """check id -> (passed, witness) for the report's ids with a prefix."""
    return {c.id: (c.status == "pass", c.witness) for c in rep.checks
            if c.id.startswith(prefix)}


def per_pair_cocycle(phi, degree, side):
    """The cocycle rows as per-pair d1_defect values decide them; each
    defect is checked against the law written out with X * Y."""
    out = {}
    for X in window(degree):
        for Y in window(degree):
            defect = d1_defect(phi, X, Y, side)
            if side == "left":
                rhs = twisted_action(phi, X, phi(Y))
            else:
                rhs = twisted_action(phi, Y, phi(X), side)
            assert defect == phi(X * Y) - rhs, (str(X), str(Y))
            ok = defect.is_zero()
            out[f"cocycle[{X}|{Y}]"] = (ok, None if ok else f"{X} | {Y}")
    return out


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("make", [galilei_weight, perturbed_weight])
def test_row_wise_cocycle_battery_matches_per_pair_defects(make, side):
    phi = make()
    got = outcomes(cocycle_check(phi, 2, side), "cocycle[")
    assert got == per_pair_cocycle(phi, 2, side)
    assert len(got) == 2500
    failed = sum(not ok for ok, _ in got.values())
    if phi is galilei_weight():
        assert failed == 0
    else:
        assert 0 < failed < 2500


def test_row_wise_d1d0_rows_match_per_pair_defects():
    want = {}
    for xi in (chi(1), chi(-2), LAURENT.one() + chi(1)):
        w = coboundary_weight(xi)
        for X in window(1):
            for Y in window(1):
                ok = d1_defect(w, X, Y).is_zero()
                want[f"d1d0[{xi}|{X}|{Y}]"] = \
                    (ok, None if ok else f"xi={xi}, {X}|{Y}")
    assert outcomes(coboundary_vanishing_report(), "d1d0[") == want
    assert len(want) == 3 * 12 * 12


def unhoisted_def_cells(h, phi, degree, width, side):
    """The def-form cells with each X's legs built anew and h(p1 a p2)
    evaluated for every leg of every cell."""
    m = phi.module
    star_leg = lambda mon: m.star(phi(UQ.star.apply(UQ.pres.monomial(mon))))
    s_leg = lambda mon: phi(UQ.antipode.apply(UQ.pres.monomial(mon)))
    leg1, leg2 = (star_leg, s_leg) if side == "left" else (s_leg, star_leg)
    out = {}
    for X in window(degree):
        legs = [(c, leg1(m1), leg2(m2))
                for (m1, m2), c in UQ.delta.apply(X).terms.items()]
        for a in m.basis(width):
            lhs = h(m.act(X, a, side=side))
            rhs = ZERO
            for c, p1, p2 in legs:
                rhs = rhs + c * h(p1 * a * p2)
            ok = lhs == rhs
            out[f"cell[{X}|{a}]"] = (ok, None if ok else f"X={X}, a={a}")
    return out


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("make", [galilei_weight, perturbed_weight])
def test_hoisted_def_cells_match_the_unhoisted_leg_sum(make, side):
    h, phi = nu_w_functional(), make()
    rep = quasi_invariance_check(h, phi, 2, 5, "def", side)
    got = outcomes(rep, "cell[")
    assert got == unhoisted_def_cells(h, phi, 2, 5, side)
    assert len(got) == 50 * 11
    failed = sum(not ok for ok, _ in got.values())
    assert (failed == 0) == (phi is galilei_weight())


@pytest.mark.parametrize("xi", [None, 1, -1])
def test_antipode_leg_equals_starred_leg_so_a_def_leg_swap_is_invisible(xi):
    """phi[S Y] = phi[Y*]* on every uq-g1 monomial of degree <= 3, for the
    Galilei weight and its transforms by chi^1 and chi^-1.  The def form
    pairs phi[X_(1)*]* with phi[S X_(2)] on the left and phi[S X_(1)] with
    phi[X_(2)*]* on the right; as the two leg values agree, swapping the
    legs of one side leaves every cell unchanged, so no suite can tell the
    leg order apart for these weights."""
    phi = galilei_weight()
    if xi is not None:
        phi = transform_weight(phi, chi(xi))
    m = phi.module
    xs = window(3)
    assert len(xs) == 140
    for Y in xs:
        assert phi(UQ.antipode.apply(Y)) == m.star(phi(UQ.star.apply(Y))), Y


@pytest.mark.parametrize("side", ["left", "right"])
def test_cocycle_check_weighs_each_window_element_once(monkeypatch, side):
    calls = []
    real = Weight.__call__

    def counting(self, X):
        calls.append(X)
        return real(self, X)

    monkeypatch.setattr(Weight, "__call__", counting)
    assert cocycle_check(galilei_weight(), 2, side).passed
    # phi[1], then phi once per window element and once per product XY:
    # 1 + 50 + 2,500 calls, where rebuilding phi[Y] (left) or phi[X]
    # (right) for every pair made 5,001
    assert len(calls) == 2551


@pytest.mark.parametrize("side", ["left", "right"])
def test_def_form_builds_each_leg_and_cell_value_once(monkeypatch, side):
    nu = nu_w_functional()
    h_calls, w_calls = [], []
    h = Functional("nu_w", nu.module, lambda a: h_calls.append(1) or nu(a))
    real = Weight.__call__

    def counting(self, X):
        w_calls.append(X)
        return real(self, X)

    monkeypatch.setattr(Weight, "__call__", counting)
    assert quasi_invariance_check(h, galilei_weight(), 2, 5, "def",
                                  side).passed
    xs, basis = window(2), ChiModule().basis(5)
    legs = {leg for X in xs for leg in UQ.delta.apply(X).terms}
    # one weight value per leg monomial on either side of the tensor
    assert len(w_calls) == len({m1 for m1, _ in legs}) + \
        len({m2 for _, m2 in legs})
    # h reads each basis element and its star for the reality rows, each
    # cell's left side, and each product p1 a p2 of distinct values once:
    # 11 value pairs of the 140 leg pairs, where the 50 coproducts have
    # 150 legs
    monkeypatch.setattr(Weight, "__call__", real)
    phi, m = galilei_weight(), ChiModule()
    star_leg = lambda mon: m.star(phi(UQ.star.apply(UQ.pres.monomial(mon))))
    s_leg = lambda mon: phi(UQ.antipode.apply(UQ.pres.monomial(mon)))
    leg1, leg2 = (star_leg, s_leg) if side == "left" else (s_leg, star_leg)
    pairs = {(leg1(m1), leg2(m2)) for m1, m2 in legs}
    assert (len(pairs), len(legs)) == (11, 140)
    assert sum(len(UQ.delta.apply(X).terms) for X in xs) == 150
    assert len(h_calls) == 2 * len(basis) + len(xs) * len(basis) + \
        len(pairs) * len(basis)


def test_chi_fraction_equality_mutant_fails_the_cocycle_suite(monkeypatch):
    # the d1 d0 rows compare the two sides with ChiFraction.__eq__, which
    # cross-multiplies; an equality reading other.den twice must fail them
    def wrong_eq(self, other):
        if not isinstance(other, ChiFraction):
            return NotImplemented
        return self.num * other.den == other.num * other.den

    assert run_suite("cocycle").passed
    monkeypatch.setattr(ChiFraction, "__eq__", wrong_eq)
    rep = run_suite("cocycle")
    failed = [c.id for c in rep.failures()]
    assert len(rep.checks) == 2941
    assert failed
    assert all(cid.startswith("cohomology-d1d0::d1d0[") for cid in failed)


def test_negative_sizes_are_refused():
    h, phi = nu_w_functional(), galilei_weight()
    with pytest.raises(ConfigError, match="degree must be >= 0"):
        cocycle_check(phi, -1)
    for degree, window in ((-1, 2), (1, -1)):
        with pytest.raises(ConfigError, match="must be >= 0"):
            quasi_invariance_check(h, phi, degree, window)
    # each of these used to pass, or refute, on an empty window
    for size in ("dual_bound", "ell_bound", "f_bound", "x_power_bound",
                 "law_degree"):
        with pytest.raises(ConfigError, match=f"{size} must be >= 0"):
            pairing_report(**{size: -1})
    for call in (lambda: essential_invariance_decide(phi, -1),
                 lambda: essential_invariance_report(phi, -1),
                 lambda: galilei_basis(-1),
                 lambda: recurrence_report(-1),
                 lambda: coboundary_vanishing_report(degree=-1)):
        with pytest.raises(ConfigError, match="must be >= 0"):
            call()
