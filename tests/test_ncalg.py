import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfkit import hopf, ncalg, pairing, quasiinv
from hopfkit.errors import (
    NegativePowerOfNonInvertible,
    NotInvertible,
    PresentationMismatch,
    RelationNotPreserved,
    RewriteLimitExceeded,
    UnknownGenerator,
)
from hopfkit.hopf import algebra_presentation, builtin
from hopfkit.ncalg import Morphism, Presentation, linear_solve
from hopfkit.scalars import I, M, ONE, Scalar, W, ZERO, scalar

UQ = algebra_presentation("uq-g1")
FQ = algebra_presentation("fq-g1")
FJ = algebra_presentation("fq-j")
H0 = algebra_presentation("h0-irr")
IW = I * W


def test_defining_relation_fq():
    # x mu = mu x - 2iw mu
    lhs = FQ.element([(ONE, [("x", 1), ("mu", 1)])])
    rhs = FQ.gen("mu") * FQ.gen("x") - FQ.gen("mu") * (2 * IW)
    assert lhs == rhs


def test_defining_relation_uq():
    # oracle: multiply K B K^-1 = B - iw M by K on the right and reorder
    lhs = UQ.element([(ONE, [("B", 1), ("K", 1)])])
    rhs = UQ.gen("K") * UQ.gen("B") + UQ.gen("M") * UQ.gen("K") * IW
    assert lhs == rhs


def test_normal_form_of_unit():
    for pres in (UQ, FQ, FJ, H0):
        assert pres.element([(ONE, [])]) == pres.one()


def test_normal_form_idempotent():
    e = FQ.element([(ONE, [("v", 2), ("mu", 1), ("x", 1)])])
    again = FQ.element([(c, FQ.mon_to_word(m)) for m, c in e.terms.items()])
    assert again == e


def test_chi_times_chi_inverse_is_one():
    wm = W * M
    chi = H0.one() + H0.gen("v1") * wm
    chi_inv = H0.one() - H0.gen("v0") * wm
    assert chi * chi_inv == H0.one()
    assert chi_inv * chi == H0.one()


def test_v_times_x():
    # from [x, v] = -2iw v: expand the commutator
    lhs = FQ.gen("v") * FQ.gen("x")
    rhs = FQ.gen("x") * FQ.gen("v") + FQ.gen("v") * (2 * IW)
    assert lhs == rhs


def test_unit_is_neutral():
    a = UQ.gen("B") * UQ.gen("T") + UQ.gen("K", -2)
    assert a * UQ.one() == a
    assert UQ.one() * a == a


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        FQ.element([(ONE, [("K", 1)])])


def test_negative_power_of_non_invertible():
    with pytest.raises(NegativePowerOfNonInvertible):
        FQ.element([(ONE, [("v", -1)])])


def test_rewrite_limit_is_a_hopfkit_error(monkeypatch):
    # two commuting letters: sorting b a b a takes more than three steps
    p = Presentation("ab", ("a", "b"), (False, False),
                     {(1, 1, 0, 1): [(ONE, ((0, 1), (1, 1)))]})
    monkeypatch.setattr(ncalg, "_MAX_REWRITE_STEPS", 3)
    with pytest.raises(RewriteLimitExceeded, match="ab: rewriting"):
        p.element([(ONE, [("b", 1), ("a", 1), ("b", 1), ("a", 1)])])


def test_presentation_mismatch():
    with pytest.raises(PresentationMismatch):
        FQ.gen("v") * UQ.gen("B")


def test_inverse_of_monomials():
    k = UQ.gen("K", 3) * (2 * I)
    assert k * k.inverse() == UQ.one()
    with pytest.raises(NotInvertible):
        UQ.gen("B").inverse()
    with pytest.raises(NotInvertible):
        (UQ.gen("K") + UQ.one()).inverse()


def test_termination_on_short_words():
    rng = random.Random(7)
    for pres in (UQ, FQ, FJ, H0):
        letters = [(g, e) for g in range(len(pres.generators))
                   for e in ((1, -1) if pres.invertible[g] else (1,))]
        for _ in range(25):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            e = pres.element([(ONE, word)])
            renorm = pres.zero()
            for mon, c in e.terms.items():
                renorm = renorm + pres.element([(c, pres.mon_to_word(mon))])
            assert renorm == e  # already a fixed point


def test_non_confluent_rules_rejected():
    from hopfkit.errors import NonConfluentRules
    from hopfkit.ncalg import Presentation
    # c b -> 1 and b a -> 1 overlap on c b a: the two reductions give c and a
    rules = {
        (2, 1, 1, 1): [(ONE, ())],
        (1, 1, 0, 1): [(ONE, ())],
        (2, 1, 0, 1): [(ONE, ((0, 1), (2, 1)))],
    }
    with pytest.raises(NonConfluentRules):
        Presentation("bad", ("a", "b", "c"), (False, False, False), rules)


def test_associativity_on_monomials():
    rng = random.Random(11)
    for pres in (UQ, FQ, H0):
        window = pres.monomials_up_to(3, zrange=2)
        for _ in range(40):
            a, b, c = (pres.monomial(rng.choice(window)) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_projection_morphism_to_subgroup():
    images = {"mu": FJ.gen("muh"), "x": FJ.gen("xh"),
              "t": FJ.gen("th"), "v": FJ.zero()}
    pi = Morphism(FQ, images, kind="hom", name="pi")
    assert pi.apply(FQ.gen("mu") * FQ.gen("v")).is_zero()
    assert pi.apply(FQ.gen("mu") * FQ.gen("x")) == FJ.gen("muh") * FJ.gen("xh")


def test_identity_morphism():
    ident = Morphism(FQ, {g: FQ.gen(g) for g in FQ.generators}, kind="hom")
    e = FQ.gen("mu") * FQ.gen("v") + FQ.gen("x") * (3 * I)
    assert ident.apply(e) == e


def test_relation_not_preserved():
    # sending x to 0 as well would force xh = 0; the t-mu relation survives
    # but mu x - x mu - 2iw mu maps to -2iw muh != 0
    images = {"mu": FJ.gen("muh"), "x": FJ.zero(),
              "t": FJ.gen("th"), "v": FJ.zero()}
    with pytest.raises(RelationNotPreserved):
        Morphism(FQ, images, kind="hom", name="bad-pi")


def test_antipode_table_on_x():
    S = builtin("fq-g1").antipode
    assert S.apply(FQ.gen("x")) == -FQ.gen("x") + FQ.gen("t") * FQ.gen("v")


def test_linear_solve_forced_zero():
    # each factor (ell - 1/2) is a nonzero rational
    from fractions import Fraction
    unknowns = list(range(-3, 4))
    constraints = [{ell: scalar(Fraction(ell) - Fraction(1, 2))} for ell in unknowns]
    assert linear_solve(constraints, unknowns) == []


def test_linear_solve_empty_system():
    basis = linear_solve([], ["a", "b"])
    assert len(basis) == 2


def test_linear_solve_plane():
    # x + y = 0 over three unknowns: two-dimensional solution space
    basis = linear_solve([{"x": ONE, "y": ONE}], ["x", "y", "z"])
    assert len(basis) == 2
    for vec in basis:
        total = vec.get("x", ZERO) + vec.get("y", ZERO)
        assert total.is_zero()


def test_linear_solve_window_overflow():
    from hopfkit.errors import WindowOverflow
    with pytest.raises(WindowOverflow):
        linear_solve([{"x": ONE, "q": ONE}], ["x", "y"])


def test_scale_by_one_is_identity():
    a = UQ.gen("B") * UQ.gen("T") * IW + UQ.gen("K", -2)
    assert a.scale(ONE) == a
    t = a.tensor(FQ.gen("v") + FQ.one())
    assert t.scale(ONE) == t
    assert a.scale(ZERO).is_zero() and t.scale(ZERO).is_zero()


def test_mixed_kind_sums_raise_mismatch():
    b = UQ.gen("B")
    t = b.tensor(b)
    for combine in (lambda: t + b, lambda: b + t, lambda: t - b, lambda: b - t):
        with pytest.raises(PresentationMismatch):
            combine()


# -- oracles for the letter-at-a-time product and morphism images ---------

# each call builds a new presentation with empty caches
FRESH = {
    "uq-g1": hopf._uq_presentation,
    "fq-g1": hopf._fq_presentation,
    "fq-j": hopf._fqj_presentation,
    "h0-irr": hopf._h0_presentation,  # rules on v1 v0 and on the ordered v0 v1
    "uq-dual": pairing._dual_presentation,
    "chi": lambda: Presentation("chi", ("chi",), (True,), {}),  # as LAURENT
}
WINDOWS = {name: build().monomials_up_to(3, zrange=3)
           for name, build in FRESH.items()}


@st.composite
def monomial_calls(draw, arity):
    """A presentation name and a list of monomial tuples, in call order."""
    name = draw(st.sampled_from(sorted(FRESH)))
    mon = st.sampled_from(WINDOWS[name])
    calls = draw(st.lists(st.tuples(*[mon] * arity), min_size=1, max_size=10))
    return name, calls


@settings(max_examples=100, deadline=None)
@given(monomial_calls(2))
def test_mono_product_is_normal_form_of_concatenated_word(call):
    name, pairs = call
    pres = FRESH[name]()
    for m1, m2 in pairs:
        word = pres.mon_to_word(m1) + pres.mon_to_word(m2)
        assert pres.mono_product(m1, m2).terms == \
            pres._normalize_terms([(ONE, word)])


@settings(max_examples=60, deadline=None)
@given(monomial_calls(3))
def test_mono_product_is_associative(call):
    name, triples = call
    pres = FRESH[name]()
    for mons in triples:
        a, b, c = map(pres.monomial, mons)
        assert (a * b) * c == a * (b * c)


def _fresh_morphism(name):
    source, _, attr = name.partition(".")
    if source == "pairing":
        return getattr(pairing.PairEngine(), attr)
    if source == "chi_from_h0":
        return quasiinv._h0_to_chi.__wrapped__()
    build = {"uq-g1": hopf._build_uq, "fq-g1": hopf._build_fq,
             "fq-j": hopf._build_fqj}[source]
    return getattr(build(), attr)


def _image_oracle(phi, mon):
    """Product of the generator powers' images, reversed for an antihom."""
    factors = []
    for g, e in phi.source.mon_to_word(mon):
        img = phi.images[g]
        if e < 0:
            img = ONE / img if isinstance(img, Scalar) else img.inverse()
        factors += [img] * abs(e)
    if phi.kind == "antihom":
        factors.reverse()
    out = phi._target_one
    for img in factors:
        out = out * img
    return out


@pytest.mark.parametrize("name", [
    f"{h}.{m}" for h in ("uq-g1", "fq-g1", "fq-j")
    for m in ("delta", "epsilon", "antipode", "star", "tau", "antipode_inv")
] + ["pairing.to_dual", "pairing.from_dual", "chi_from_h0"])
def test_mono_image_is_product_of_generator_power_images(name):
    phi = _fresh_morphism(name)
    window = phi.source.monomials_up_to(3, zrange=2)
    random.Random(name).shuffle(window)
    for mon in window:
        assert phi._mono_image(mon) == _image_oracle(phi, mon), mon


def test_deep_exponents_do_not_recurse():
    uq = hopf._build_uq()
    p = uq.pres
    k, b = p.gen("K", 1200), p.gen("B")
    assert k * b == p.monomial((0, 1200, 0, 1))
    # B K^-1 = K^-1 B - iw M K^-1, applied 1200 times
    assert b * p.gen("K", -1200) == \
        p.monomial((0, -1200, 0, 1)) - p.monomial((1, -1200, 0, 0)) * (1200 * IW)
    assert uq.delta.apply(k) == k.tensor(k)


# -- tensor_map and tensor products against slot-by-slot expansion ---------

HOPF = {name: builtin(name) for name in ("uq-g1", "fq-g1")}
SMALL_MONS = {name: h.pres.monomials_up_to(2, zrange=1)
              for name, h in HOPF.items()}
TENSOR_COEFFS = [ONE, -ONE, I, 2 * W, ONE / (W * M), W * M + I]


@st.composite
def rank2_tensors(draw, name):
    """Sum of 1-3 products a (x) b of elements with 1-3 terms, degree <= 2."""
    pres = HOPF[name].pres
    element = st.dictionaries(st.sampled_from(SMALL_MONS[name]),
                              st.sampled_from(TENSOR_COEFFS),
                              min_size=1, max_size=3).map(
        lambda d: ncalg.AlgebraElement(pres, d))
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    out = pairs[0][0].tensor(pairs[0][1])
    for a, b in pairs[1:]:
        out = out + a.tensor(b)
    return out


def _legs_of(x):
    """{key tuple: coeff} of a Scalar, an algebra element or a tensor."""
    if isinstance(x, Scalar):
        return {(): x} if not x.is_zero() else {}
    if isinstance(x, ncalg.TensorElement):
        return dict(x.terms)
    return {(m,): c for m, c in x.terms.items()}


def _slotwise(maps, te):
    """Each term's slots mapped one at a time, then multiplied out."""
    out = {}
    for key, c in te.terms.items():
        if any(mp is not None and mp.conjugate for mp in maps):
            c = c.conjugate()
        expanded = {(): c}
        for mp, pres, mon in zip(maps, te.spaces, key):
            img = pres.monomial(mon)
            if mp is not None:
                img = mp.apply(img)
            expanded = {k1 + k2: c1 * c2
                        for k1, c1 in expanded.items()
                        for k2, c2 in _legs_of(img).items()}
        for k, v in expanded.items():
            out[k] = out.get(k, ZERO) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(HOPF)).flatmap(
    lambda name: st.tuples(st.just(name), rank2_tensors(name))))
def test_tensor_map_matches_slotwise_expansion(case):
    name, te = case
    assume(not te.is_zero())  # zero input has its own test in test_hopf
    h = HOPF[name]
    for maps, kind in (((h.antipode, None), ncalg.TensorElement),
                       ((None, h.epsilon), ncalg.AlgebraElement),
                       ((h.delta, None), ncalg.TensorElement),
                       ((h.star, h.star), ncalg.TensorElement)):
        out = ncalg.tensor_map(list(maps), te)
        assert isinstance(out, kind)
        assert _legs_of(out) == _slotwise(maps, te)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(HOPF)).flatmap(
    lambda name: st.tuples(rank2_tensors(name), rank2_tensors(name))))
def test_tensor_product_matches_slotwise_mono_products(pair):
    t, u = pair
    p0, p1 = t.spaces
    expected = {}
    for k1, c1 in t.terms.items():
        for k2, c2 in u.terms.items():
            left = p0.mono_product(k1[0], k2[0])
            right = p1.mono_product(k1[1], k2[1])
            for m0, a in left.terms.items():
                for m1, b in right.terms.items():
                    k = (m0, m1)
                    expected[k] = expected.get(k, ZERO) + c1 * c2 * a * b
    assert (t * u).terms == {k: v for k, v in expected.items()
                             if not v.is_zero()}
