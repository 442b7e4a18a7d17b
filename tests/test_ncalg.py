import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfkit import hopf, ncalg, pairing, quasiinv, scalars
from hopfkit.errors import (
    IncompleteRewriteSystem,
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


def test_element_drops_zero_exponents():
    # K^0 must not be read as a K^-1 letter by the K^-1 B rule
    cases = [(UQ, [("K", 0), ("B", 1), ("K", 0)], [("B", 1)]),
             (UQ, [("B", 1), ("K", 0), ("T", 1)], [("B", 1), ("T", 1)]),
             (UQ, [("K", 0)], []),
             (FQ, [("x", 0), ("mu", 1), ("v", 0), ("x", 1)],
              [("mu", 1), ("x", 1)])]
    for pres, with_zeros, without in cases:
        assert (pres.element([(ONE, with_zeros)])
                == pres.element([(ONE, without)]))
    assert UQ.element([(ONE, [("K", 0), ("B", 1), ("K", 0)])]) == UQ.gen("B")


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


@pytest.mark.parametrize("pres", [UQ, FQ, FJ, H0, quasiinv.OPS],
                         ids=lambda p: p.name)
def test_gen_is_the_normalized_one_letter_word(pres):
    for name, invertible in zip(pres.generators, pres.invertible):
        for e in range(-3 if invertible else 0, 4):
            assert pres.gen(name, e) == pres.element([(ONE, [(name, e)])])
    with pytest.raises(UnknownGenerator):
        pres.gen("no_such_generator")
    for name, invertible in zip(pres.generators, pres.invertible):
        if not invertible:
            with pytest.raises(NegativePowerOfNonInvertible):
                pres.gen(name, -1)


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


def test_a_missing_rule_is_rejected_at_build():
    # every disordered pair of letters needs a rule, for each sign of an
    # invertible letter; b a and b^-1 a have none here
    with pytest.raises(IncompleteRewriteSystem, match="no rule for b"):
        Presentation("p", ("a", "b"), (False, True), {})


def test_a_rule_with_a_negative_power_of_a_non_invertible_letter_is_rejected():
    # c a -> b^-1 a decreases the word order, but b has no inverse: the
    # rule words are validated like any other word
    rules = {
        (1, 1, 0, 1): [(ONE, ((0, 1), (1, 1)))],
        (2, 1, 1, 1): [(ONE, ((1, 1), (2, 1)))],
        (2, 1, 0, 1): [(ONE, ((1, -1), (0, 1)))],
    }
    with pytest.raises(NegativePowerOfNonInvertible, match=r"b\^-1"):
        Presentation("p", ("a", "b", "c"), (False, False, False), rules)


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


def _rref_oracle(rows, n):
    """Plain-Fraction Gauss-Jordan: the pivot columns and the reduced rows."""
    from fractions import Fraction
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        hit = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    return pivots, rows[:r]


_coeffs = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.dictionaries(st.integers(0, n - 1), _coeffs, max_size=n),
             max_size=6))))
def test_linear_solve_matches_fraction_gauss_jordan(system):
    # int and Fraction coefficients, zeros, repeated and dependent rows:
    # the eliminations' fill-in and cancellation against an exact oracle
    n, constraints = system
    unknowns = list(range(n))
    basis = linear_solve(constraints, unknowns)
    dense = [[row.get(u, 0) for u in unknowns] for row in constraints]
    pivots, reduced = _rref_oracle(dense, n)
    free = [u for u in unknowns if u not in pivots]
    assert len(basis) == n - len(pivots)
    assert [next(iter(vec)) for vec in basis] == free
    for vec, f in zip(basis, free):
        assert vec[f] == ONE
        for raw in constraints:
            total = ZERO
            for u, c in raw.items():
                total = total + scalar(c) * vec.get(u, ZERO)
            assert total.is_zero()
        # the oracle's basis vector at f: 1 at f, -R[p][f] at pivot p
        want = {f: 1}
        want.update({p: -row[f] for p, row in zip(pivots, reduced) if row[f]})
        assert vec == {u: scalar(c) for u, c in want.items()}


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
    # rules on v1 v0 and on the ordered v0 v1; the builder is cached
    "h0-irr": hopf._h0_presentation.__wrapped__,
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


@pytest.mark.parametrize("name", sorted(FRESH))
def test_letter_times_monomial_is_normal_form_of_the_word(name):
    pres = FRESH[name]()
    for g, s in pres._letters():
        letter = pres._gen_mon(g, s)
        for mon in WINDOWS[name]:
            word = ((g, s),) + pres.mon_to_word(mon)
            assert pres.mono_product(letter, mon).terms == \
                pres._normalize_terms([(ONE, word)]), (g, s, mon)


def _count_rewrites(monkeypatch, pres):
    """A list that grows by one per _normalize_terms call of pres."""
    calls = []
    rewrite = pres._normalize_terms
    monkeypatch.setattr(pres, "_normalize_terms",
                        lambda items: calls.append(items) or rewrite(items))
    return calls


def test_in_order_letter_products_are_not_rewritten(monkeypatch):
    uq, h0 = FRESH["uq-g1"](), FRESH["h0-irr"]()
    uq_calls = _count_rewrites(monkeypatch, uq)
    h0_calls = _count_rewrites(monkeypatch, h0)
    # M times M K T B only moves the exponent of M
    assert uq.gen("M") * uq.monomial((1, 1, 1, 1)) == uq.monomial((2, 1, 1, 1))
    assert uq_calls == []
    # v0 v1 is in order, but w m v0 v1 = v1 - v0 is a rule on it
    wm_inv = ONE / (W * M)
    assert h0.gen("v0") * h0.gen("v1") == \
        (h0.gen("v1") - h0.gen("v0")).scale(wm_inv)
    assert len(h0_calls) == 1


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
] + ["pairing.to_dual", "chi_from_h0"])
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


def _multiplied_out(te):
    """The two legs of each term of a rank-2 tensor multiplied, summed."""
    p0, p1 = te.spaces
    out = p0.zero()
    for (m1, m2), c in te.terms.items():
        out = out + (p0.monomial(m1) * p1.monomial(m2)).scale(c)
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(HOPF)).flatmap(
    lambda name: st.tuples(st.just(name), rank2_tensors(name))))
def test_antipode_convolutions_match_mapped_tensor_multiplied_out(case):
    name, te = case
    S = HOPF[name].antipode
    left, right = hopf.antipode_convolutions(S, te)
    assert left == _multiplied_out(ncalg.tensor_map([S, None], te))
    assert right == _multiplied_out(ncalg.tensor_map([None, S], te))


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


# -- Morphism.apply on a long sum against its per-monomial images ---------

APPLY_COEFFS = [ONE, -ONE, I, 2 * W, ONE / (W * M), W * M + I]


@pytest.mark.parametrize("attr", ["delta", "epsilon", "antipode", "star"])
def test_apply_is_the_sum_of_monomial_images(attr):
    h = builtin("uq-g1")
    phi = getattr(h, attr)
    mons = h.pres.monomials_up_to(4, zrange=3)[:200]
    assert len(mons) == 200
    terms = {mon: APPLY_COEFFS[k % len(APPLY_COEFFS)]
             for k, mon in enumerate(mons)}
    expected = phi.apply(h.pres.zero())
    for mon, c in terms.items():
        expected = expected + phi.apply(h.pres.monomial(mon).scale(c))
    assert phi.apply(ncalg.AlgebraElement(h.pres, terms)) == expected


# -- sparse kernels against a naive dict-of-Scalar reference ---------------

# unit and zero coefficients take the kernels' shortcuts; the fractions
# with multi-term denominators take the general Scalar arithmetic
KERNEL_COEFFS = [ONE, ZERO, -ONE, scalar(3), I, ONE / (W + M),
                 (scalars.U - I * W) / (M + 1), W / (W * M + I)]


def _naive_sum(pairs):
    """Sum (key, Scalar) pairs in a plain dict, then drop the zeros."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, ZERO) + c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _naive_product(pres, m1, m2):
    """m1*m2 rewritten from the concatenated word, with no product cache."""
    return pres._normalize_terms(
        [(ONE, pres.mon_to_word(m1) + pres.mon_to_word(m2))])


def _naive_outer(slots):
    """Every key of the outer product of {key tuple: coeff} dicts."""
    out = [((), ONE)]
    for slot in slots:
        out = [(k1 + k2, c1 * c2) for k1, c1 in out for k2, c2 in slot.items()]
    return out


@st.composite
def kernel_elements(draw, name):
    """An element with 0-4 terms, zero coefficients dropped by the reference."""
    mons = st.sampled_from(SMALL_MONS[name])
    pairs = draw(st.lists(st.tuples(mons, st.sampled_from(KERNEL_COEFFS)),
                          max_size=4))
    return ncalg.AlgebraElement(HOPF[name].pres, _naive_sum(pairs))


@st.composite
def kernel_tensors(draw, name):
    """A rank-2 tensor sum of 0-3 products a (x) b, built by the reference."""
    pres = HOPF[name].pres
    pairs = draw(st.lists(st.tuples(kernel_elements(name),
                                    kernel_elements(name)), max_size=3))
    terms = _naive_sum(((m1, m2), c1 * c2) for a, b in pairs
                       for m1, c1 in a.terms.items()
                       for m2, c2 in b.terms.items())
    return ncalg.TensorElement((pres, pres), terms)


def _in_one_algebra(strategy, n):
    return st.sampled_from(sorted(HOPF)).flatmap(
        lambda name: st.tuples(st.just(name), *[strategy(name)] * n))


@settings(max_examples=60, deadline=None)
@given(_in_one_algebra(kernel_elements, 2))
def test_element_product_and_sum_match_naive_reference(case):
    name, a, b = case
    pres = HOPF[name].pres
    assert (a * b).terms == _naive_sum(
        (mon, c1 * c2 * k)
        for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()
        for mon, k in _naive_product(pres, m1, m2).items())
    assert (a + b).terms == _naive_sum([*a.terms.items(), *b.terms.items()])
    assert (a + (-a)).terms == {} and (a - a).terms == {}


@settings(max_examples=40, deadline=None)
@given(_in_one_algebra(kernel_tensors, 2))
def test_tensor_product_and_sum_match_naive_reference(case):
    name, t, u = case
    pres = HOPF[name].pres
    assert (t * u).terms == _naive_sum(
        (key, c1 * c2 * k)
        for (a1, b1), c1 in t.terms.items() for (a2, b2), c2 in u.terms.items()
        for key, k in _naive_outer(
            [{(m,): k for m, k in _naive_product(pres, a1, a2).items()},
             {(m,): k for m, k in _naive_product(pres, b1, b2).items()}]))
    assert (t + u).terms == _naive_sum([*t.terms.items(), *u.terms.items()])


def _naive_tensor_map(maps, te):
    conj = any(mp is not None and mp.conjugate for mp in maps)
    return _naive_sum(
        (key, (c.conjugate() if conj else c) * k)
        for mons, c in te.terms.items()
        for key, k in _naive_outer(
            [{(mon,): ONE} if mp is None else _legs_of(mp._mono_image(mon))
             for mp, mon in zip(maps, mons)]))


@settings(max_examples=40, deadline=None)
@given(_in_one_algebra(kernel_tensors, 1))
def test_tensor_map_matches_naive_reference(case):
    name, te = case
    h = HOPF[name]
    for maps in ((h.delta, None), (None, h.antipode), (h.epsilon, h.antipode),
                 (h.epsilon, h.epsilon), (h.star, h.star)):
        assert _legs_of(ncalg.tensor_map(list(maps), te)) == \
            _naive_tensor_map(maps, te)


def test_tensor_map_scalar_slots_match_naive_reference():
    # the counits only take the values 0 and 1 on monomials; this
    # character of the chi algebra, chi^n -> (w + i)^n, takes others
    chi = quasiinv.LAURENT
    char = Morphism(chi, [W + I])
    terms = {((a,), (b,)): KERNEL_COEFFS[(3 * a + b) % len(KERNEL_COEFFS)]
             for a in range(-2, 3) for b in range(-2, 3)}
    te = ncalg.TensorElement((chi, chi), {k: c for k, c in terms.items()
                                          if not c.is_zero()})
    for maps in ((char, None), (None, char), (char, char)):
        assert _legs_of(ncalg.tensor_map(list(maps), te)) == \
            _naive_tensor_map(maps, te)


def test_unit_monomial_products_make_no_scalar_products(monkeypatch):
    # B*K rewrites to two terms, K B - iw M K; with the products cached,
    # unit coefficients on both factors need no Scalar multiplication
    p = HOPF["uq-g1"].pres
    b, k = p.gen("B"), p.gen("K")
    before = (b * k, k * b, b.tensor(k) * k.tensor(b))
    assert len(before[0].terms) == 2
    calls = []
    real = Scalar.__mul__

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    after = (b * k, k * b, b.tensor(k) * k.tensor(b))
    assert calls == []
    assert after == before
