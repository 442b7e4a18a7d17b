import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit import pairing
from hopfkit.errors import PresentationMismatch, RelationNotPreserved
from hopfkit.hopf import builtin
from hopfkit.ncalg import AlgebraElement, Morphism, TensorElement
from hopfkit.pairing import (PairEngine, act, engine, pair, pair_closed,
                             pairing_report)
from hopfkit.quasiinv import galilei_weight
from hopfkit.scalars import I, M, ONE, W, ZERO, scalar

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


def from_dual(eng):
    """The inverse of eng.to_dual, I = K^-1 M and N = K B, as a checked
    Morphism from the dual presentation into uq-g1."""
    u = eng.uq.pres
    return Morphism(eng.dual, {
        "I": u.gen("K", -1) * u.gen("M"),
        "K": u.gen("K"),
        "T": u.gen("T"),
        "N": u.gen("K") * u.gen("B"),
    }, kind="hom", name="dual->uq")


def test_dual_conversion_round_trip():
    back_map = from_dual(ENG)
    for exps in itertools.product(range(2), range(-2, 3), range(2), range(2)):
        e = back_map.apply(ENG.dual.monomial(exps))
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
        dX = UQ.delta.apply(X)
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
        dX = UQ.delta.apply(X)
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
    monkeypatch.setattr(PairEngine, "_word_row", no_recursion)
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
    # since pair() runs the closed form, by the product-coproduct law;
    # a fresh engine, so no basis-pair value paired before the patch is
    # reused from the shared engine's memo
    closed = PairEngine.pair_closed

    def doubled(self, dual_mon, f_mon):
        v = closed(self, dual_mon, f_mon)
        return v * 2 if f_mon[3] >= 2 else v

    monkeypatch.setattr(PairEngine, "pair_closed", doubled)
    pairing.engine.cache_clear()
    galilei_weight.cache_clear()
    try:
        failed = {c.id.split("[")[0] for c in pairing_report().failures()}
    finally:
        # later tests must read neither the mutant's pairing memo nor a
        # Galilei weight built on it
        pairing.engine.cache_clear()
        galilei_weight.cache_clear()
    assert "closed-vs-recursive" in failed
    assert "product-coproduct" in failed


# -- the oracle's truncated coproducts and its grading guard ------------------

GRID_FQ = list(itertools.product(range(3), range(4), range(3), range(3)))
GRID_DUAL = list(itertools.product(range(3), range(-2, 3), range(3), range(3)))
X_MON = (0, 1, 0, 0)


def test_grading_weights_come_from_the_one_letter_rows():
    # I, T and N read mu, t and v; K reads powers of x, which weigh 0
    assert ENG._weights == (1, 0, 1, 1)
    assert all(ENG._degree(m) == 0
               for m in PairEngine._row_support("K", 3))


def test_non_graded_rule_is_refused_when_the_engine_is_built(monkeypatch):
    # x mu -> mu x - 2iw mu^2 raises the (mu, t, v)-degree of one word
    x, mu = FQ.pres.index["x"], FQ.pres.index["mu"]
    rules = dict(FQ.pres.rules)
    rules[(x, 1, mu, 1)] = ((ONE, ((mu, 1), (x, 1))),
                            (-2 * I * W, ((mu, 2),)))
    monkeypatch.setattr(FQ.pres, "rules", rules)
    with pytest.raises(RelationNotPreserved, match="x mu"):
        PairEngine()


def test_truncated_coproduct_is_the_filtered_full_one():
    # on all 108 grid monomials: D0 holds the first-leg degree-0 terms
    # of Delta(mon), D1 the degree-1 terms, and nothing else is kept
    eng = PairEngine()
    for mon in GRID_FQ:
        d0, d1 = eng._truncated_delta(mon)
        full = FQ.delta._mono_image(mon).terms
        for d, part in enumerate((d0, d1)):
            want = {k: c for k, c in full.items() if eng._degree(k[0]) == d}
            assert part.terms == want, (mon, d)
    assert len(GRID_FQ) == 108


def test_recursion_reads_neither_the_full_coproduct_nor_the_closed_form(
        monkeypatch):
    want = {(dual, fm): pair_closed(dual, fm)
            for dual in GRID_DUAL for fm in GRID_FQ}

    def refused(*args):
        raise AssertionError("the oracle left the letter recursion")

    image = Morphism._mono_image

    def generator_images_only(self, mon):
        if self is FQ.delta:
            refused()
        return image(self, mon)

    eng = PairEngine()
    monkeypatch.setattr(Morphism, "_mono_image", generator_images_only)
    monkeypatch.setattr(PairEngine, "pair_closed", refused)
    got = {key: eng.pair_recursive(*key) for key in want}
    monkeypatch.undo()
    assert len(got) == 14580
    assert got == want


def test_oracle_grid_reads_one_letter_rows_from_a_table(monkeypatch):
    # the recursion reads a head letter's nonzero rows from a table keyed
    # by (letter, x-exponent): the 14,580-pair grid evaluates few one-letter
    # rows (16,638 with a _row call per recursion step), and still agrees
    # with the closed form everywhere
    rows = []
    real = PairEngine._row

    def counting(letter, mon):
        rows.append((letter, mon))
        return real(letter, mon)

    monkeypatch.setattr(PairEngine, "_row", staticmethod(counting))
    eng = PairEngine()
    rows.clear()
    mismatches = sum(eng.pair_recursive(dual, fm) != eng.pair_closed(dual, fm)
                     for dual in GRID_DUAL for fm in GRID_FQ)
    assert len(GRID_DUAL) * len(GRID_FQ) == 14580
    assert mismatches == 0
    assert len(rows) < 1000


def test_oracle_stores_only_nonzero_rows(monkeypatch):
    # one row per letter word, holding its nonzero values only: the
    # recursion over the 14,580-pair grid reaches 14,625 (word, monomial)
    # states, and a memo of every state would store them all
    eng = PairEngine()
    monkeypatch.setattr(pairing, "engine", lambda: eng)
    assert pairing_report().passed
    stored = sum(len(row) for _, row in eng._row_cache.values())
    assert all(not v.is_zero() for _, row in eng._row_cache.values()
               for v in row.values())
    assert len(eng._row_cache) < 1000
    assert stored < 1000


def test_oracle_mutant_in_a_letter_coproduct_fails_the_grid(monkeypatch):
    # doubling the 1 (x) x leg of Delta(x) inside the oracle only must be
    # caught by closed-vs-recursive: the truncated oracle still reads it
    eng = PairEngine()
    d0, d1 = eng._delta_parts[X_MON]
    terms = dict(d0.terms)
    key = (FQ.pres.one_mon, X_MON)
    terms[key] = terms[key] * 2
    eng._delta_parts[X_MON] = (TensorElement(d0.spaces, terms), d1)
    monkeypatch.setattr(pairing, "engine", lambda: eng)
    failed = {c.id.split("[")[0] for c in pairing_report().failures()}
    assert failed == {"closed-vs-recursive"}


DUAL_LETTERS = ("I", "K", "Kinv", "T", "N")
MU_MON, T_MON, V_MON = (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def two_letter_mismatches(eng):
    """The ordered two-letter words over I, K, Kinv, T, N on which the
    letter recursion differs from the closed form summed over the word's
    normal-ordered product in the dual basis, on some grid monomial."""
    d = eng.dual
    gens = {"I": d.gen("I"), "K": d.gen("K"), "Kinv": d.gen("K", -1),
            "T": d.gen("T"), "N": d.gen("N")}
    out = set()
    for word in itertools.product(DUAL_LETTERS, repeat=2):
        product = gens[word[0]] * gens[word[1]]
        for fm in GRID_FQ:
            want = ZERO
            for mon, c in product.terms.items():
                want = want + c * eng.pair_closed(mon, fm)
            if eng.pair_mono(word, fm) != want:
                out.add(word)
                break
    return out


def test_two_letter_words_match_the_closed_form():
    # every letter order, where the grid peels I, K, T, N in that order
    assert two_letter_mismatches(PairEngine()) == set()


@pytest.mark.parametrize("mon, leg, word", [
    (MU_MON, (V_MON, X_MON), ("N", "I")),
    (X_MON, (V_MON, T_MON), ("N", "T")),
])
def test_two_letter_words_see_the_v_legs(mon, leg, word):
    # the grid never follows a first leg v by a tail reading x or t, so
    # doubling v (x) x in Delta(mu) or v (x) t in Delta(x) inside the
    # oracle only shows on a word with N before I or T
    eng = PairEngine()
    d0, d1 = eng._delta_parts[mon]
    terms = dict(d1.terms)
    terms[leg] = terms[leg] * 2
    eng._delta_parts[mon] = (d0, TensorElement(d1.spaces, terms))
    assert word in two_letter_mismatches(eng)


def test_law_rows_make_fewer_than_two_pair_calls_per_row(monkeypatch):
    # the law rows read basis values through pair_basis and build each
    # image and product once per report, so pair() runs about once a row
    eng = PairEngine()
    calls = []
    real = PairEngine.pair

    def counting(self, X, a):
        calls.append(1)
        return real(self, X, a)

    monkeypatch.setattr(PairEngine, "pair", counting)
    monkeypatch.setattr(pairing, "engine", lambda: eng)
    rep = pairing_report()
    rows = [c for c in rep.checks if c.id != "closed-vs-recursive"]
    assert rep.passed
    assert len(rows) == 2820
    assert len(calls) < 2 * len(rows)


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


# -- the basis-pair memo of pair() -------------------------------------------

MEMO_COEFFS = [ONE, -ONE, I, ONE / (W + M), I / (2 * W), W * M + I,
               scalar(Fraction(-3, 2))]


def elements(pres, mons, max_terms=3):
    return st.dictionaries(st.sampled_from(mons), st.sampled_from(MEMO_COEFFS),
                           max_size=max_terms).map(
        lambda d: AlgebraElement(pres, d))


@settings(max_examples=60, deadline=None)
@given(elements(UQ.pres, UQ.pres.monomials_up_to(2)),
       elements(FQ.pres, FQ.pres.monomials_up_to(2)))
def test_memoized_pair_matches_direct_closed_form(X, a):
    want = ZERO
    for dual, c in ENG.to_dual.apply(X).terms.items():
        for fm, ca in a.terms.items():
            want = want + c * ca * pair_closed(dual, fm)
    assert pair(X, a) == want, (X, a)


def test_pair_rejects_swapped_or_foreign_presentations():
    # the memo is keyed by exponent tuples alone, and both algebras have
    # four generators, so the presentations are checked before any lookup
    for X, a in ((fq("v"), fq("v")), (uq("B"), uq("B")), (fq("v"), uq("B"))):
        with pytest.raises(PresentationMismatch):
            pair(X, a)


def test_repeated_pair_makes_no_closed_form_sums(monkeypatch):
    # the second pair() on basis pairs already seen reads the memo only,
    # whatever the coefficients on those pairs
    eng = PairEngine()
    X = uq("B") * uq("K") + uq("T").scale(ONE / (W + M)) + uq("M", 2)
    a = fq("v") * fq("v") + fq("x").scale(I) + fq("mu") * fq("t")
    calls = []
    real = PairEngine._pair_dual

    def counting(self, dual, f_mon):
        calls.append(f_mon)
        return real(self, dual, f_mon)

    monkeypatch.setattr(PairEngine, "_pair_dual", counting)
    first = eng.pair(X, a)
    assert calls
    calls.clear()
    assert eng.pair(X, a) == first
    assert eng.pair(X.scale(I), a.scale(W)) == first * I * W
    assert calls == []
