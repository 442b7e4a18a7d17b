import itertools

from hypothesis import given, settings, strategies as st

from hopfkit.hopf import builtin
from hopfkit.pairing import (PairEngine, act, dual_basis_element, engine, pair,
                             pair_closed, pairing_report)
from hopfkit.scalars import I, ONE, W, ZERO, scalar

UQ = builtin("uq-g1")
FQ = builtin("fq-g1")
ENG = engine()


def fq(name, exp=1):
    return FQ.pres.gen(name, exp)


def uq(name, exp=1):
    return UQ.pres.gen(name, exp)


def test_closed_rows():
    # <K^l, x> = iwl: the scale is pinned by pairing K B K^-1 = B - iw M
    # against mu (and independently by the star law on x)
    for ell in range(-2, 3):
        assert pair_closed((0, ell, 0, 0), (0, 1, 0, 0)) == I * W * ell
    assert pair_closed((0, 0, 0, 1), (0, 0, 0, 1)) == I
    assert pair_closed((1, 0, 0, 0), (0, 1, 0, 0)) == ZERO
    # 0^0 = 1 convention: <K^l, 1> = 1
    for ell in range(-2, 3):
        assert pair_closed((0, ell, 0, 0), (0, 0, 0, 0)) == ONE


def test_closed_factorials():
    # <I^2 T N^3, mu^2 t v^3> = i^6 2! 1! 3! = -12
    assert pair_closed((2, 0, 1, 3), (2, 0, 1, 3)) == scalar(-12)
    # mixed row with the K-exponent: <K^2 T, x t> = i * (2iw) = -2w
    assert pair_closed((0, 2, 1, 0), (0, 1, 1, 0)) == -2 * W


def test_dual_conversion_round_trip():
    for exps in itertools.product(range(2), range(-2, 3), range(2), range(2)):
        e = dual_basis_element(exps)
        back = ENG.to_dual.apply(e)
        assert back == ENG.dual.monomial(exps)


def test_b_in_dual_basis():
    assert ENG.to_dual.apply(uq("B")) == ENG.dual.gen("K", -1) * ENG.dual.gen("N")


def test_pair_b_with_v():
    assert pair(uq("B"), fq("v")) == I


def test_pair_bk_with_v():
    assert pair(uq("B") * uq("K"), fq("v")) == I


def test_pair_units():
    assert pair(UQ.pres.one(), FQ.pres.one()) == ONE


def test_recursive_matches_closed_small_window():
    for dual in itertools.product(range(2), range(-1, 2), range(2), range(2)):
        for fm in itertools.product(range(2), range(3), range(2), range(2)):
            assert ENG.pair_recursive(dual, fm) == pair_closed(dual, fm), (dual, fm)


def test_left_action_of_k_on_x():
    # K.x = x <K,1> + 1 <K,x> + v <K,t> = x + iw
    assert act(uq("K"), fq("x")) == fq("x") + FQ.pres.one() * (I * W)


def test_unit_acts_trivially():
    a = fq("mu") * fq("v") + fq("x") * (3 * I)
    assert act(UQ.pres.one(), a) == a
    assert act(UQ.pres.one(), a, side="right") == a


def test_action_module_law():
    mons = [uq("B"), uq("K"), uq("T"), uq("M"), uq("K", -1)]
    a = fq("mu") + fq("v") * fq("x")
    for X in mons:
        for Y in mons:
            assert act(X * Y, a) == act(X, act(Y, a))
            # right module: a.(XY) = (a.X).Y
            assert act(X * Y, a, side="right") == act(Y, act(X, a, side="right"), side="right")


def test_star_action_identity():
    # (X*.a)* = Sinv(X).a*
    star_u, star_f = UQ.star, FQ.star
    sinv = UQ.antipode_inv
    for Xn in ("M", "K", "T", "B"):
        X = uq(Xn)
        for an in ("mu", "x", "v"):
            a = fq(an)
            lhs = star_f.apply(act(star_u.apply(X), a))
            rhs = act(sinv.apply(X), star_f.apply(a))
            assert lhs == rhs, (Xn, an)


def test_pairing_hopf_laws():
    gens_u = [uq(g) for g in ("M", "K", "T", "B")] + [uq("K", -1)]
    mons_f = [FQ.pres.monomial(m) for m in FQ.pres.monomials_up_to(2)]
    for X in gens_u:
        for Y in gens_u:
            XY = X * Y
            for a in mons_f[:8]:
                total = ZERO
                for (m1, m2), c in FQ.delta._mono_image(next(iter(a.terms))).terms.items():
                    total = total + c * pair(X, FQ.pres.monomial(m1)) * pair(Y, FQ.pres.monomial(m2))
                assert pair(XY, a) == total, (X, Y, a)


def test_pairing_antipode_and_star_laws():
    gens_u = [uq(g) for g in ("M", "K", "T", "B")]
    mons_f = [FQ.pres.monomial(m) for m in FQ.pres.monomials_up_to(2)]
    for X in gens_u:
        for a in mons_f:
            assert pair(UQ.antipode.apply(X), a) == pair(X, FQ.antipode.apply(a))
            assert pair(UQ.star.apply(X), a) == pair(X, FQ.tau.apply(a)).conjugate()


def test_pair_multiplicative_in_second_argument():
    gens_u = [uq(g) for g in ("M", "K", "T", "B")]
    elems = [fq("mu"), fq("x"), fq("v"), fq("t"), fq("v") * fq("x")]
    for X in gens_u:
        dX = UQ.coproduct(X)
        for a in elems:
            for b in elems:
                total = ZERO
                for (m1, m2), c in dX.terms.items():
                    total = total + c * pair(UQ.pres.monomial(m1), a) * pair(UQ.pres.monomial(m2), b)
                assert pair(X, a * b) == total


def test_pairing_laws_up_to_degree_three():
    # <XY, a> = sum <X, a_(1)> <Y, a_(2)> with deg X <= 2, deg Y <= 1,
    # deg a <= 3, so every law instance stays inside total degree 3
    xs = [UQ.pres.monomial(m) for m in UQ.pres.monomials_up_to(2, zrange=1)]
    ys = [uq(g) for g in ("M", "K", "T", "B")] + [uq("K", -1)]
    mons_a = FQ.pres.monomials_up_to(3, zrange=0)
    for X in xs:
        for Y in ys:
            XY = X * Y
            for am in mons_a:
                a = FQ.pres.monomial(am)
                total = ZERO
                for (m1, m2), c in FQ.delta._mono_image(am).terms.items():
                    px = pair(X, FQ.pres.monomial(m1))
                    if not px.is_zero():
                        total = total + c * px * pair(Y, FQ.pres.monomial(m2))
                assert pair(XY, a) == total, (X, Y, a)


def test_act_module_algebra_law_on_products():
    # X.(ab) = sum (X_(1).a)(X_(2).b) on sampled degree <= 3 products
    gens_u = [uq(g) for g in ("M", "K", "T", "B")]
    samples = [fq("mu"), fq("x"), fq("v"), fq("v") * fq("v"), fq("x") * fq("t")]
    for X in gens_u:
        dX = UQ.coproduct(X)
        for a in samples:
            for b in samples:
                if a.degree() + b.degree() > 3:
                    continue
                want = FQ.pres.zero()
                for (m1, m2), c in dX.terms.items():
                    want = want + act(UQ.pres.monomial(m1), a) \
                        * act(UQ.pres.monomial(m2), b) * c
                assert act(X, a * b) == want, (X, a, b)


def test_pair_and_act_never_run_the_recursion(monkeypatch):
    def no_recursion(self, letters, mon):
        raise AssertionError("the letter recursion ran outside the oracle")

    monkeypatch.setattr(PairEngine, "pair_mono", no_recursion)
    eng = PairEngine()
    xs = [UQ.pres.monomial(m) for m in UQ.pres.monomials_up_to(1)]
    fs = [FQ.pres.monomial(m) for m in FQ.pres.monomials_up_to(2)]
    for X in xs:
        for Y in xs:
            for a in fs:
                eng.pair(X * Y, a)
                eng.act(X * Y, a)
                eng.act(X * Y, a, side="right")


def test_closed_form_mutant_fails_the_grid_and_the_laws(monkeypatch):
    # doubling <., v^d> for d >= 2 must be caught by the oracle grid and,
    # since pair() runs the closed form, by the product-coproduct law
    closed = PairEngine.pair_closed

    def doubled(self, dual_mon, f_mon):
        v = closed(self, dual_mon, f_mon)
        return v * 2 if f_mon[3] >= 2 else v

    monkeypatch.setattr(PairEngine, "pair_closed", doubled)
    failed = {c.id.split("[")[0] for c in pairing_report().failures()}
    assert "closed-vs-recursive" in failed
    assert "product-coproduct" in failed


UQ_LETTERS = [("M", 1), ("K", 1), ("K", -1), ("T", 1), ("B", 1)]
FQ_MONS = FQ.pres.monomials_up_to(3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(UQ_LETTERS), max_size=4),
       st.sampled_from(FQ_MONS))
def test_pair_matches_recursion_over_dual_letters(word, fm):
    X = UQ.pres.one()
    for g, e in word:
        X = X * uq(g, e)
    want = ZERO
    for dual, c in ENG.to_dual.apply(X).terms.items():
        want = want + c * ENG.pair_recursive(dual, fm)
    assert pair(X, FQ.pres.monomial(fm)) == want, (word, fm)
