import gc
import math
import signal
import weakref
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfkit import scalars
from hopfkit.errors import DivisionByZero
from hopfkit.ncalg import format_element
from hopfkit.parser import parse
from hopfkit.scalars import (GaussRat, I, M, ONE, P_ONE, Poly, Scalar, U, W, ZERO, arith, conjugate,
                             poly_gcd, prs_gcd, scalar)


# Generous against the milliseconds the modular gcd takes on the guarded
# inputs, short against the minutes a primitive-PRS gcd can stall there.
HANG_LIMIT = 60


@contextmanager
def time_limit(seconds=HANG_LIMIT):
    """Raise TimeoutError in the block once it has run `seconds` seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_integer_add():
    assert arith(scalar(1), scalar(1), "add") == scalar(2)


def test_i_squared():
    iw = I * W
    assert arith(iw, iw, "mul") == -(W * W)


def test_div_gives_rational_function():
    s = arith(scalar(1), W * M, "div")
    assert s * (W * M) == ONE
    assert str(s) == "(1)/(w*m)"


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        arith(ONE, ZERO, "div")


def test_conjugate_i():
    assert conjugate(I) == -I


def test_conjugate_linear_combination():
    # oracle: conjugate coefficientwise
    for ell in (Fraction(0), Fraction(3), Fraction(-2), Fraction(7, 3)):
        s = I * W * M * scalar(ell + Fraction(1, 2))
        expected = Scalar(Poly({e: c.conjugate() for e, c in s.num.terms.items()}),
                          s.den)
        assert conjugate(s) == expected
        assert conjugate(s) == -s  # purely imaginary coefficient


def test_conjugate_fixes_reals():
    s = scalar(Fraction(3, 8)) * W * W * M * M
    assert conjugate(s) == s


def test_canonical_form_after_reduction():
    # (w^2 - m^2)/(w - m) reduces to w + m
    num = W * W - M * M
    den = W - M
    q = num / den
    assert q == W + M
    assert q.den == scalars.P_ONE


def test_denominator_monic():
    s = ONE / (scalar(2) * W + scalar(2))
    # leading coefficient of the denominator is 1 after normalization
    _, lc = s.den.leading()
    assert lc == GaussRat(1)


def test_gcd_monomial_content():
    a = (W * M * M * U).num
    b = (W * W * M).num
    assert poly_gcd(a, b) == (W * M).num


def test_gcd_multiterm():
    a = ((W + M) * (W - M)).num
    b = ((W + M) * (W + U)).num
    assert poly_gcd(a, b) == (W + M).num


def test_pow():
    assert (W + ONE) ** 2 == W * W + 2 * W + ONE
    assert W ** -1 == ONE / W
    assert (I * W) ** 0 == ONE


def _pow_by_squaring(x, n):
    out, base = ONE, x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


@pytest.mark.parametrize("x", [
    W, I * W * W * M, scalar(Fraction(-2, 3)) * (ONE + I) * M * U ** 3,
    scalar(7), (ONE + I) / 2 * U, (scalar(3) - 4 * I) / 6])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_one_term_power_matches_binary_powering(monkeypatch, x, n):
    reference = _pow_by_squaring(x, n)
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda p, q: products.append(1) or mul(p, q))
    got = x ** n
    assert not products
    assert (got is x) == (n == 1)
    assert got.num.terms == reference.num.terms
    assert got.den is P_ONE
    assert all((c.a, c.b, c.d) == (r.a, r.b, r.d)
               for c, r in zip(got.num.terms.values(),
                               reference.num.terms.values()))


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def small_scalars(draw):
    c = draw(small_rationals)
    d = draw(small_rationals)
    base = scalar(c) + scalar(d) * I
    for sym, power in ((W, draw(st.integers(0, 2))),
                       (M, draw(st.integers(0, 1))),
                       (U, draw(st.integers(0, 1)))):
        base = base * sym ** power
    extra = draw(small_rationals)
    return base + scalar(extra)


@settings(max_examples=60, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@settings(max_examples=60, deadline=None)
@given(small_scalars(), small_scalars())
def test_conjugate_is_field_automorphism(a, b):
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(a + b) == conjugate(a) + conjugate(b)
    assert conjugate(conjugate(a)) == a


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars())
def test_reduction_is_canonical(a, b):
    # equality is structural, so a/b rebuilt from any representative agrees
    if b.is_zero():
        return
    q = a / b
    assert q * b == a
    if not a.is_zero():
        doubled = Scalar(q.num + q.num, q.den + q.den)
        assert doubled == q


# -- GaussRat against a reference pair of Fractions ----------------------

gauss_parts = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def assert_canonical(g):
    assert type(g.a) is int and type(g.b) is int and type(g.d) is int
    assert g.d > 0
    assert math.gcd(g.a, g.b, g.d) == 1
    if not g:
        assert (g.a, g.b, g.d) == (0, 0, 1)


def assert_matches(g, re, im):
    assert_canonical(g)
    assert (g.re, g.im) == (re, im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    fresh = GaussRat(re, im)
    assert g == fresh
    assert hash(g) == hash(fresh)


@settings(max_examples=200, deadline=None)
@given(gauss_parts, gauss_parts, gauss_parts, gauss_parts)
def test_gauss_rat_matches_fraction_pairs(p, q, r, s):
    x, y = GaussRat(p, q), GaussRat(r, s)
    assert_matches(x, p, q)
    assert_matches(x + y, p + r, q + s)
    assert_matches(x - y, p - r, q - s)
    assert_matches(x * y, p * r - q * s, p * s + q * r)
    assert_matches(-x, -p, -q)
    assert_matches(x.conjugate(), p, -q)
    assert (x == y) == ((p, q) == (r, s))
    assert bool(x) == bool(p or q)
    if r or s:
        n = r * r + s * s
        assert_matches(x / y, (p * r + q * s) / n, (q * r - p * s) / n)
    else:
        with pytest.raises(DivisionByZero):
            x / y


def test_gauss_rat_zero_and_integer_forms():
    for zero in (GaussRat(), GaussRat(0, 0), GaussRat(Fraction(0, 5)),
                 GaussRat(Fraction(1, 3)) - GaussRat(Fraction(1, 3)),
                 GaussRat(0, Fraction(2, 7)) * GaussRat(0)):
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
    half_i = GaussRat(Fraction(2, 4), Fraction(-3, 6))
    assert (half_i.a, half_i.b, half_i.d) == (1, -1, 2)
    assert repr(half_i) == "GaussRat(Fraction(1, 2), Fraction(-1, 2))"


def test_gauss_rat_negative_power_is_the_reciprocal_power():
    # k >>= 1 keeps -1 at -1, so a negative exponent used to loop forever
    with time_limit(5):
        assert_matches(GaussRat(2) ** -1, Fraction(1, 2), 0)
        # (1 + i)^2 = 2i
        assert_matches(GaussRat(1, 1) ** -2, 0, Fraction(-1, 2))
        assert_matches(GaussRat(Fraction(2, 3)) ** -3, Fraction(27, 8), 0)
        with pytest.raises(DivisionByZero):
            GaussRat(0) ** -1
    assert_matches(GaussRat(0) ** 0, 1, 0)


@settings(max_examples=100, deadline=None)
@given(gauss_parts, gauss_parts, st.integers(-4, 4))
def test_gauss_rat_power_times_its_opposite_is_one(p, q, n):
    assume(p or q)
    x = GaussRat(p, q)
    with time_limit(5):
        got, opposite = x ** n, x ** -n
    assert_canonical(got)
    assert got * opposite == scalars.GR_ONE


# -- the shared unit denominator -------------------------------------------


def test_unit_denominator_is_shared():
    x = (ONE + I) * W - scalar(Fraction(1, 3)) * M
    assert x.den is P_ONE
    assert conjugate(x).den is P_ONE
    assert (-x).den is P_ONE
    assert ((W * W - M * M) / (W - M)).den is P_ONE
    assert ((ONE / W) * W).den is P_ONE
    assert conjugate(I / (W + M)).den is not P_ONE


# -- the unit is shared: every Scalar equal to 1 is ONE ----------------------


@pytest.mark.parametrize("make", [
    lambda: ONE.conjugate(),
    lambda: conjugate(ONE),
    lambda: scalar(1),
    lambda: scalar(Fraction(3, 3)),
    lambda: scalar(scalars.GR_ONE),
    lambda: Scalar(P_ONE),
    lambda: Scalar((2 * W).num, (2 * W).num),
    lambda: I * (-I),
    lambda: (-ONE) * (-ONE),
    lambda: -(-ONE),
    lambda: scalar(2) + scalar(-1),
    lambda: (W + M) * (ONE / (W + M)),
    lambda: (I / (2 * W)) * (ONE / (I / (2 * W))),
    lambda: (W + I) / (W + I),
    lambda: (ONE / (W - M)) / (ONE / (W - M)),
    lambda: (-I) ** 4,
    lambda: W ** 0,
], ids=["ONE.conjugate()", "conjugate(ONE)", "scalar(1)", "scalar(3/3)",
        "scalar(GR_ONE)", "Scalar(P_ONE)", "Scalar(2w, 2w)", "I*(-I)",
        "(-ONE)*(-ONE)", "-(-ONE)", "2+(-1)", "x*(ONE/x)", "x*(ONE/x) one term",
        "x/x", "x/x fraction", "(-I)**4", "W**0"])
def test_a_unit_is_the_shared_one(make):
    assert make() is ONE


def unit_candidates(x, y, n):
    """Results of +, -, *, /, conjugate and ** on x and y, some of them
    equal to 1 by construction."""
    out = [x + y, x - y, x * y, conjugate(x), x ** n,
           (x + ONE) - x, x - (x - ONE), x * x ** 0, conjugate(x) ** 0]
    if x:
        inv = ONE / x
        out += [x / x, x * inv, inv * x, conjugate(x) / conjugate(x),
                conjugate(x * inv), (x / conjugate(x)) * (conjugate(x) / x),
                x ** n / x ** n, inv ** n * x ** n, x / y if y else x]
    return out


@settings(max_examples=80, deadline=None)
@given(small_scalars(), small_scalars(), st.integers(0, 3))
def test_every_result_equal_to_one_is_one(x, y, n):
    for r in unit_candidates(x, y, n):
        assert (r is ONE) == (r == ONE), r


def test_the_star_of_a_real_monomial_makes_no_scalar_product(monkeypatch):
    from hopfkit.hopf import builtin
    uq = builtin("uq-g1")
    window = [uq.pres.monomial(mon) for mon in uq.pres.monomials_up_to(3)]
    for a in window:
        uq.star.apply(a)  # fill the star's image cache
    calls = []
    real = Scalar.__mul__

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    for a in window:
        assert all(c is ONE for c in a.terms.values())
        uq.star.apply(a)
    assert not calls, f"{len(calls)} Scalar products"


# -- printed form ------------------------------------------------------------

HALF = scalar(Fraction(1, 2))


@pytest.mark.parametrize("value, text", [
    (ONE / (W * M), "(1)/(w*m)"),
    (-I * HALF, "-1/2*i"),
    ((scalar(Fraction(3, 4)) - I * HALF) * W, "(3/4 - 1/2*i)*w"),
    (ONE / (W + M), "(1)/(w + m)"),
    (I / (2 * W), "(1/2*i)/(w)"),
    (scalar(Fraction(-7, 3)) + I * 5, "(-7/3 + 5*i)"),
    ((W * W - 3 * I * M * U + scalar(Fraction(5, 6))) / (2 * W + I * M),
     "(1/2*w^2 - 3/2*i*m*u + 5/12)/(w + 1/2*i*m)"),
    (conjugate((ONE + I) / (W - I * U)), "((1 - 1*i))/(w + i*u)"),
])
def test_scalar_printed_form(value, text):
    assert str(value) == text


@pytest.mark.parametrize("expr, algebra, text", [
    ("i*(K - K^-1)/(2*w)", "uq-g1", "(-1/2*i)/(w)*K^-1 + (1/2*i)/(w)*K"),
    ("mu*x + (1/2 - i/3)*v^2*t/(w+m)", "fq-g1",
     "mu*x + (((1/2 - 1/3*i))/(w + m))*t*v^2"),
    ("v0*v1", "h0-irr", "(1)/(w*m)*v1 + (-1)/(w*m)*v0"),
    ("(3/4)*muh*xh - i*th/(w*m*u)", "fq-j", "(-i)/(w*m*u)*th + 3/4*muh*xh"),
    ("B*B*K^-1 - (2 - 5*i)/7*M*T", "uq-g1",
     "K^-1*B^2 + ((-2/7 + 5/7*i))*M*T - 2*i*w*M*K^-1*B - w^2*M^2*K^-1"),
])
def test_element_printed_form(expr, algebra, text):
    assert format_element(parse(expr, algebra)) == text


# -- Scalar against sympy.cancel ---------------------------------------------


@st.composite
def small_polys(draw, min_terms, max_exp=2):
    """A polynomial in w, m, u with min_terms to 3 terms, as a Scalar.

    Each symbol has exponent at most max_exp.  At 2, a primitive-PRS gcd
    of a sum's whole numerator and denominator can take minutes; the
    modular gcd that poly_gcd runs takes milliseconds on the same pairs.
    """
    out = ZERO
    for _ in range(draw(st.integers(min_terms, 3))):
        c = scalar(draw(small_rationals)) + scalar(draw(small_rationals)) * I
        for sym in (W, M, U):
            c = c * sym ** draw(st.integers(0, max_exp))
        out = out + c
    return out


@st.composite
def multiterm_fractions(draw, max_exp=2):
    num = draw(small_polys(1, max_exp))
    den = draw(small_polys(2, max_exp))
    assume(not den.is_zero())
    return num / den


def _to_sympy(x, sympy):
    w, m, u = sympy.symbols("w m u")

    def poly(p):
        return sum((sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d))
                   * w ** e[0] * m ** e[1] * u ** e[2]
                   for e, c in p.terms.items())

    return poly(x.num) / poly(x.den)


@settings(max_examples=20, deadline=None)
@given(multiterm_fractions(), multiterm_fractions())
def test_field_ops_match_sympy_cancel(a, b):
    sympy = pytest.importorskip("sympy")
    sa, sb = _to_sympy(a, sympy), _to_sympy(b, sympy)
    assert sympy.cancel(_to_sympy(a + b, sympy) - (sa + sb)) == 0
    assert sympy.cancel(_to_sympy(a * b, sympy) - sa * sb) == 0
    if not b.is_zero():
        assert sympy.cancel(_to_sympy(a / b, sympy) - sa / sb) == 0


# -- Henrici's field operations against the general constructor ------------


def assert_same_form(x, general):
    # structural: the same canonical num and den, P_ONE shared as before
    assert x.num.terms == general.num.terms
    assert x.den.terms == general.den.terms
    assert (x.den is P_ONE) == general.den.is_const()


def assert_ops_match_general(a, b):
    assert_same_form(a + b, Scalar(a.num * b.den + b.num * a.den,
                                   a.den * b.den))
    assert_same_form(a * b, Scalar(a.num * b.num, a.den * b.den))
    if not b.is_zero():
        assert_same_form(a / b, Scalar(a.num * b.den, a.den * b.num))


@settings(max_examples=40, deadline=None)
@given(multiterm_fractions(), multiterm_fractions())
def test_field_ops_match_general_constructor(a, b):
    # the constructor takes one gcd of the whole numerator and denominator:
    # fast with the modular gcd, minutes with primitive PRS alone
    with time_limit():
        assert_ops_match_general(a, b)


Q, R = W + M, U + I


@pytest.mark.parametrize("a, b, text", [
    # p/(q*r) + s/(q*t) with t = r + q: the q in the numerator cancels
    (ONE / (Q * R), -ONE / (Q * (R + Q)),
     "(1)/(w*u + m*u + u^2 + i*w + i*m + 2*i*u - 1)"),
    (M / (Q * R), (W - U) / (Q * (R + Q)),
     "(w*m + w*u + m^2 + m*u - u^2 + i*w + i*m - i*u)/(w^2*u + 2*w*m*u"
     " + w*u^2 + m^2*u + m*u^2 + i*w^2 + 2*i*w*m + 2*i*w*u + i*m^2"
     " + 2*i*m*u - w - m)"),
    # p/q^2 + s/q
    ((W + 2 * M) / (Q * Q), -ONE / Q, "(m)/(w^2 + 2*w*m + m^2)"),
])
def test_sum_over_shared_denominator_factor(a, b, text):
    assert str(a + b) == text
    assert_ops_match_general(a, b)


@pytest.mark.parametrize("x", [
    W * W - I * M * U + scalar(Fraction(1, 3)),
    (W + M) / (U + I),
    (2 * W - M) / (W * U * U + M),
])
def test_product_with_reciprocal_is_one(x):
    for one in (x * (ONE / x), (ONE / x) * x, x / x):
        assert one == ONE and one.den is P_ONE


FOUND_X = ("((-29/65 + 37/65*i)*m^2*u^2 + (2/65 + 49/65*i)*m^2"
           " + (292/195 + 4/195*i)*w)/(w*m + (-82/195 + 2/65*i)*m*u)")
FOUND_Y = ("((3/25 + 6/25*i)*w^2*m + (-1/25 - 7/25*i)*w^2*u"
           " + (4/25 + 8/25*i)*w)/(w^2*u^2 + (-2/25 - 4/25*i)*w*m^2*u"
           " + (9/50 - 6/25*i)*m*u)")
FOUND_SUM = (
    "((-29/65 + 37/65*i)*w^2*m^2*u^4 + (206/1625 + 42/1625*i)*w*m^4*u^3"
    " + (2/65 + 49/65*i)*w^2*m^2*u^2 + (192/1625 - 106/1625*i)*w*m^4*u"
    " + (183/3250 + 681/3250*i)*m^3*u^3 + (3/25 + 6/25*i)*w^3*m^2"
    " + (-1/25 - 7/25*i)*w^3*m*u + (292/195 + 4/195*i)*w^3*u^2"
    " + (-34/195 - 22/65*i)*w^2*m^2*u + (124/4875 + 568/4875*i)*w^2*m*u^2"
    " + (303/1625 + 417/3250*i)*m^3*u + (4/25 + 8/25*i)*w^2*m"
    " + (74/375 - 182/375*i)*w*m*u)/(w^3*m*u^2"
    " + (-2/25 - 4/25*i)*w^2*m^3*u + (-82/195 + 2/65*i)*w^2*m*u^3"
    " + (188/4875 + 316/4875*i)*w*m^3*u^2 + (9/50 - 6/25*i)*w*m^2*u"
    " + (-111/1625 + 173/1625*i)*m^2*u^2)")


def _parse_scalar(text):
    e = parse(text, "uq-g1")
    return e.terms[e.pres.one_mon]


def test_sum_that_stalled_the_whole_product_gcd():
    # a primitive-PRS gcd of this sum's full numerator and denominator takes
    # minutes
    x, y = _parse_scalar(FOUND_X), _parse_scalar(FOUND_Y)
    assert (str(x), str(y)) == (FOUND_X, FOUND_Y)
    assert str(x + y) == FOUND_SUM
    sympy = pytest.importorskip("sympy")
    assert sympy.cancel(_to_sympy(x + y, sympy)
                        - (_to_sympy(x, sympy) + _to_sympy(y, sympy))) == 0


def test_general_constructor_on_the_unreduced_found_sum():
    # the gcd of this numerator and denominator is 1: the coprime exit
    x, y = _parse_scalar(FOUND_X), _parse_scalar(FOUND_Y)
    with time_limit():
        s = Scalar(x.num * y.den + y.num * x.den, x.den * y.den)
    assert str(s) == FOUND_SUM
    assert_same_form(x + y, s)


# -- sums over one denominator ---------------------------------------------


@st.composite
def shared_denominator_sums(draw):
    """(p/q, r/q): q a monic monomial or a monic polynomial of two or more
    terms, and r free, -p, or chosen so the sum is a polynomial or cancels
    a factor f of q = f*h."""
    if draw(st.booleans()):
        exps = draw(st.tuples(*[st.integers(0, 2)] * 3))
        assume(any(exps))
        q = Poly({exps: scalars.GR_ONE})
    else:
        q = draw(small_polys(2)).num
        assume(len(q.terms) >= 2)
        q = q.monic()[0]
    p = draw(small_polys(1)).num
    kind = draw(st.sampled_from(["free", "zero", "polynomial", "factor"]))
    if kind == "free":
        r = draw(small_polys(1)).num
    elif kind == "zero":
        r = -p
    elif kind == "polynomial":
        r = draw(small_polys(1)).num * q - p
    else:
        f = draw(small_polys(2, max_exp=1)).num
        assume(len(f.terms) >= 2)
        q = f.monic()[0] * q
        r = draw(small_polys(1, max_exp=1)).num * f - p
    x, y = Scalar(p, q), Scalar(r, q)
    # both reduced over the same q: the common-denominator sum
    assume(x.den.terms == y.den.terms == q.terms)
    return x, y


@settings(max_examples=60, deadline=None)
@given(shared_denominator_sums())
def test_sum_over_one_denominator_matches_general_constructor(pair):
    x, y = pair
    q = x.den
    with time_limit():
        s = x + y
        assert_same_form(s, Scalar(x.num * q + y.num * q, q * q))
    assert (s is ZERO) == (s == ZERO) and (s is ONE) == (s == ONE)


@settings(max_examples=15, deadline=None)
@given(shared_denominator_sums())
def test_sum_over_one_denominator_matches_sympy_cancel(pair):
    sympy = pytest.importorskip("sympy")
    x, y = pair
    assert sympy.cancel(_to_sympy(x + y, sympy)
                        - (_to_sympy(x, sympy) + _to_sympy(y, sympy))) == 0


@pytest.mark.parametrize("x, y, want", [
    (ONE / (M + 1), M / (M + 1), ONE),
    ((W - I * U) / (M + 1), (I * U - W) / (M + 1), ZERO),
    ((W * M + 1) / (W + M), (W * W - 1) / (W + M), W),
    (ONE / W, (W - 1) / W, ONE),
    (M / W, M / W, 2 * M / W),
    ((M + U) / (W * W), (W - U) / (W * W), (W + M) / (W * W)),
    (W / (W + M), M / (W + M), ONE),
    (ONE / ((W + M) * (M + 1)), M / ((W + M) * (M + 1)), ONE / (W + M)),
], ids=["1/(m+1)+m/(m+1)", "p/q+(-p)/q", "to-a-polynomial",
        "monomial-to-one", "monomial-stays", "monomial-to-polynomial-num",
        "multi-term-to-one", "cancels-one-factor"])
def test_sum_over_one_denominator(x, y, want):
    assert x.den.terms == y.den.terms
    s = x + y
    assert_same_form(s, want)
    if want is ONE or want is ZERO:
        assert s is want and s.den is P_ONE


def test_unit_poly_factor_returns_the_other_factor():
    for p in ((W + M).num, (I * W).num, scalars.P_ZERO, P_ONE):
        assert p * P_ONE is p
        assert P_ONE * p is p


@pytest.mark.parametrize("x, y", [
    (ONE / (W + M), U / (W + M)),
    # a shared variable: the univariate images prove the gcd is 1
    (ONE / (W * W + M), W / (W * W + M)),
    # one denominator object
    (I / (W * W + M), None),
], ids=["no-shared-variable", "shared-variable", "one-object"])
def test_a_sum_over_one_multi_term_denominator_takes_one_gcd(monkeypatch,
                                                             x, y):
    y = x if y is None else y
    assert x.den.terms == y.den.terms and len(x.den.terms) >= 2
    want = Scalar(x.num + y.num, x.den)
    gcds = _counting(monkeypatch, "poly_gcd")
    divisions = _counting(monkeypatch, "_exact_div")
    s = x + y
    assert len(gcds) == 1 and not divisions
    assert_same_form(s, want)


# -- the modular gcd against primitive PRS ----------------------------------


@st.composite
def planted_gcd_pairs(draw):
    """(f*g, f*h, f): a planted common factor f, or f = 1 for a pair that
    is most often coprime."""
    f = draw(small_polys(1)).num if draw(st.booleans()) else P_ONE
    g, h = draw(small_polys(1)).num, draw(small_polys(1)).num
    assume(f.terms and g.terms and h.terms)
    return f * g, f * h, f


@settings(max_examples=80, deadline=None)
@given(planted_gcd_pairs())
def test_modular_gcd_matches_prs(pair):
    a, b, f = pair
    with time_limit():
        g = poly_gcd(a, b)
    assert g.terms == prs_gcd(a, b).terms
    assert scalars._divides(f, g)


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(scalars, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(scalars, name, counted)
    return calls


_D, _C, _ = scalars._EMBEDDINGS[0][2]

# (a, b, gcd, whether primitive PRS runs)
GCD_CASES = [
    # coprime, with a shared variable: the univariate images decide
    ((W * W + M * U + I) * W * W, (W + M) * M, ONE, False),
    # one operand divides the other (after its monomial content)
    ((W + M) * (W - U) * U, (W + M) * W * U, (W + M) * U, False),
    # a proper common factor of both: PRS
    ((W + M) * (W - U), (W + M) * (M + U), W + M, True),
    ((W * M + I * U) * (W + 1) * (W + 1), (W * M + I * U) * (W + 1) * (U - 2),
     (W * M + I * U) * (W + 1), True),
    ((W + M) * (W - M) * (M + U) / 7, (W + M) * (M + U) * (U + I) * 3 / 5,
     (W + M) * (M + U), True),
    # the cofactors agree mod the first prime, so a meets its degree bounds
    # there: trial division must reject it before PRS answers
    ((W + M) * (W + 1), (W + M) * (W + 1 + scalars._PRIMES[0]), W + M, True),
    # coprime, but b = w + m - c - d divides both univariate images at the
    # first prime's points (d, c, u0), so b is a candidate that trial
    # division must reject
    ((W - _D) * (M - _C) + (W + M - _C - _D) * (W * U + 1), W + M - _C - _D,
     ONE, True),
]


@pytest.mark.parametrize("a, b, g, prs_runs", GCD_CASES)
def test_modular_gcd_outcomes(monkeypatch, a, b, g, prs_runs):
    prs = _counting(monkeypatch, "prs_gcd")
    with time_limit():
        got = poly_gcd(a.num, b.num)
    assert got.terms == g.num.monic()[0].terms
    assert bool(prs) == prs_runs


def test_coprime_exit_needs_nonzero_leading_coefficients(monkeypatch):
    # g = (m - c)(w - d) + 1, with d = _D and c = _C the first prime's
    # points for w and m.  There each univariate image of g is the constant
    # 1, so the images of a and b look coprime; but the leading
    # coefficients of a vanish there as well, so that prime must not decide.
    # The next prime bounds the degrees by g's, and PRS finds g.
    g = (M - _C) * (W - _D) + 1
    a, b = g * (W + 1), g * (M + 2)
    prs = _counting(monkeypatch, "prs_gcd")
    with time_limit():
        assert poly_gcd(a.num, b.num).terms == g.num.terms
    assert prs[0] == (a.num, b.num)


def test_every_prime_unlucky_falls_back_to_prs(monkeypatch):
    # a coefficient denominator that every listed prime divides
    big = scalar(Fraction(1, math.prod(scalars._PRIMES)))
    cases = [((W + M) * (W - U) * big, (W + M) * (M + U)),
             ((W * W + M * U + I) * big, (W + M - U) * big)]
    cases = [(a.num, b.num, prs_gcd(a.num, b.num)) for a, b in cases]
    prs = _counting(monkeypatch, "prs_gcd")
    for a, b, reference in cases:
        before = len(prs)
        with time_limit():
            assert poly_gcd(a, b).terms == reference.terms
        # the first call is the fallback itself, the rest its recursion
        assert prs[before] == (a, b)


def test_primes_carry_a_square_root_of_minus_one():
    sympy = pytest.importorskip("sympy")
    assert len(set(scalars._PRIMES)) == len(scalars._PRIMES)
    for p, r, _ in scalars._EMBEDDINGS:
        assert p % 4 == 1 and sympy.isprime(p)
        assert r * r % p == p - 1


# -- known-answer short-circuits -------------------------------------------


@pytest.mark.parametrize("value", [0, 3, Fraction(1, 2), scalars.GR_I])
def test_one_times_coerced_operand(value):
    # the operand is coerced before the unit short-circuit returns it
    assert ONE * value == scalar(value)


def test_one_times_zero_and_foreign_types():
    assert ONE * 0 == ZERO and 0 * ONE == ZERO
    with pytest.raises(TypeError):
        ONE * "x"
    with pytest.raises(TypeError):
        "x" * ONE


@pytest.mark.parametrize("x", [W * M + I, ONE / (W + M), I / (2 * W)])
def test_unit_and_zero_products(x):
    assert x * ONE is x
    assert ONE * x is x
    for z in (x * ZERO, ZERO * x, x * scalar(0), x * (W - W)):
        assert z.is_zero() and z == ZERO and z.den is P_ONE


@settings(max_examples=100, deadline=None)
@given(gauss_parts, gauss_parts, gauss_parts, gauss_parts,
       st.tuples(*[st.integers(0, 3)] * 3), st.tuples(*[st.integers(0, 3)] * 3))
def test_single_term_product_matches_general(p, q, r, s, e1, e2):
    assume((p or q) and (r or s))
    x, y = Poly({e1: GaussRat(p, q)}), Poly({e2: GaussRat(r, s)})
    # a second term in y, too high to collide, sends the product through
    # the general double loop
    general = x * Poly({e2: GaussRat(r, s), (4, 4, 4): GaussRat(1)})
    e = tuple(a + b for a, b in zip(e1, e2))
    assert x * y == Poly({e: general.terms[e]})


# -- GaussRat against a Scalar operand --------------------------------------


@pytest.mark.parametrize("s", [ONE, W * M + I, I / (2 * W)])
def test_gauss_rat_defers_to_scalar_operand(s):
    g = scalars.GR_I
    assert g * s == s * g
    assert g + s == s + g
    assert g - s == -(s - g)
    assert (g / s) * (s / g) == ONE
    assert g / ONE == scalar(g)


def test_gauss_rat_foreign_operand_is_a_type_error():
    with pytest.raises(TypeError):
        scalars.GR_I * "x"
    with pytest.raises(TypeError):
        scalars.GR_I + "x"


# -- the one-term kernel ------------------------------------------------------


def fails_if_called(*args):
    raise AssertionError("the one-term product took the general path")


# coefficients (a + b*i)/d with d > 1 after reduction
reduced_fractions = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    st.integers(-30, 30), st.integers(-30, 30),
    st.integers(2, 30)).filter(lambda c: c and c.d > 1)
signed_exponents = st.tuples(*[st.integers(-3, 3)] * 3)


def one_term(c, v):
    """c times w, m, u to the signed exponents v, built by the general
    constructor: the positive part over the negative part."""
    pos = tuple(max(x, 0) for x in v)
    neg = tuple(max(-x, 0) for x in v)
    return Scalar(Poly({pos: c}), Poly({neg: scalars.GR_ONE}))


@st.composite
def one_term_pairs(draw):
    """Two one-term scalars whose exponents are drawn freely, cancel in
    part, or cancel fully."""
    v1 = draw(signed_exponents)
    how = draw(st.sampled_from(["free", "part", "full"]))
    if how == "free":
        v2 = draw(signed_exponents)
    elif how == "part":
        nudge = draw(st.tuples(*[st.integers(-1, 1)] * 3))
        v2 = tuple(-x + n for x, n in zip(v1, nudge))
    else:
        v2 = tuple(-x for x in v1)
    return (one_term(draw(reduced_fractions), v1),
            one_term(draw(reduced_fractions), v2))


@settings(max_examples=200, deadline=None)
@given(one_term_pairs())
def test_one_term_product_matches_the_general_constructor(pair):
    from unittest import mock
    x, y = pair
    for s in (x, y):
        assert len(s.num.terms) == 1 and len(s.den.terms) == 1
    # no gcd, no exact division and no Henrici product on this path
    with mock.patch.object(scalars, "poly_gcd", fails_if_called), \
            mock.patch.object(scalars, "_exact_div", fails_if_called), \
            mock.patch.object(scalars, "_product", fails_if_called):
        got = x * y
    assert got == Scalar(x.num * y.num, x.den * y.den)
    # canonical form: P_ONE itself exactly when the denominator is
    # constant, a monic denominator, and no variable shared by both
    assert (got.den is P_ONE) == got.den.is_const()
    assert got.den.leading()[1] == scalars.GR_ONE
    (ne, _), = got.num.terms.items()
    (de, _), = got.den.terms.items()
    assert all(min(a, b) == 0 for a, b in zip(ne, de))


@settings(max_examples=100, deadline=None)
@given(gauss_parts, gauss_parts, gauss_parts, gauss_parts,
       st.tuples(*[st.integers(0, 2)] * 3))
def test_sum_on_a_shared_exponent_matches_gauss_rat(p, q, r, s, e):
    assume((p or q) and (r or s))
    x, y = GaussRat(p, q), GaussRat(r, s)
    got = Poly({e: x, (3, 3, 3): x}) + Poly({e: y})
    want = x + y
    assert got.terms == ({e: want, (3, 3, 3): x} if want else {(3, 3, 3): x})
    for c in got.terms.values():
        assert_canonical(c)


def test_multi_term_operands_keep_the_henrici_product():
    from unittest import mock
    calls = []
    real = scalars._product

    def counting(*args):
        calls.append(1)
        return real(*args)

    # multi-term numerators, then one-term ones over multi-term denominators
    pairs = [((W + M) / U, U / (W - M)), (W / (W + M), M / (W - U))]
    wants = [Scalar((W + M).num, (W - M).num), (W * M) / ((W + M) * (W - U))]
    with mock.patch.object(scalars, "_product", counting):
        got = [x * y for x, y in pairs]
    assert got == wants
    assert len(calls) == 2


def test_the_constructor_always_reduces():
    with pytest.raises(TypeError):
        Scalar(P_ONE, P_ONE, _reduced=True)
    assert Scalar((W * M).num, (W * U).num) == M / U


# -- the shared zero: every Scalar equal to 0 is ZERO -------------------------


@pytest.mark.parametrize("make", [
    lambda: W + (-W),
    lambda: W - W,
    lambda: (W + M) - (W + M),
    lambda: (ONE / W) - (ONE / W),
    lambda: (ONE / (W + M)) - (ONE / (W + M)),
    lambda: I * W + (-I) * W,
    lambda: -ZERO,
    lambda: ZERO.conjugate(),
    lambda: conjugate(W - W),
    lambda: ZERO * W,
    lambda: ZERO / (W + M),
    lambda: ZERO ** 3,
    lambda: scalar(0),
    lambda: Scalar(scalars.P_ZERO, (W + M).num),
], ids=["x+(-x)", "x-x", "multi-term x-x", "fraction x-x",
        "multi-term fraction x-x", "i*w+(-i)*w", "-ZERO", "ZERO.conjugate()",
        "conjugate(x-x)", "ZERO*x", "ZERO/x", "ZERO**3", "scalar(0)",
        "Scalar(0, den)"])
def test_a_zero_is_the_shared_zero(make):
    assert make() is ZERO


@settings(max_examples=80, deadline=None)
@given(small_scalars(), small_scalars(), st.integers(0, 3))
def test_every_result_equal_to_zero_is_zero(x, y, n):
    results = unit_candidates(x, y, n) + [
        x + (-x), x - x, (x - y) - (x - y), x * (y - y), (x - x) * y,
        conjugate(x - x), (x - x) ** (n + 1), (x - x) / (y + W),
        (ONE / (y + W)) - (ONE / (y + W)), x * (ONE / (y + W)) - x / (y + W)]
    for r in results:
        assert (r is ZERO) == (r == ZERO), r


# -- conjugation fixes a real one-term value ---------------------------------


@pytest.mark.parametrize("x", [
    W, -W, ONE / W, scalar(Fraction(2, 3)) * W * M / U, W ** 3 / (M * U)],
    ids=["w", "-w", "1/w", "2/3*w*m/u", "w^3/(m*u)"])
def test_conjugate_of_a_real_one_term_value_is_itself(x):
    assert x.conjugate() is x
    assert conjugate(x) is x


def test_conjugate_of_a_complex_or_multi_term_value():
    assert (I * W).conjugate() == -I * W
    assert ((ONE + I) / W).conjugate() == (ONE - I) / W
    assert (I / (W + I * M)).conjugate() == -I / (W - I * M)
    # multi-term real values are still rebuilt, equal to their argument
    x = W + M
    assert x.conjugate() == x


# -- the scalar tables, live only inside _shared_values ----------------------


def tables():
    return scalars._values, scalars._products, scalars._sums


def is_one_term(x):
    return len(x.num.terms) == 1 and len(x.den.terms) == 1


@settings(max_examples=60, deadline=None)
@given(small_scalars(), small_scalars(), one_term_pairs())
def test_shared_values_give_the_unscoped_results(x, y, pair):
    operands = [x, y, *pair, (x + y) / (W + M), ONE / pair[0]]
    pairs = [(p, q) for p in operands for q in operands]
    want = [(p + q, p * q) for p, q in pairs]
    with scalars._shared_values():
        got = [(p + q, p * q) for p, q in pairs]
        again = [(p + q, p * q) for p, q in pairs]
    assert not any(tables())
    assert got == want
    for (s, m), (s2, m2), (p, q) in zip(got, again, pairs):
        assert (s2, m2) == (s, m)
        if is_one_term(p) and is_one_term(q):
            assert s2 is s and m2 is m


def test_one_term_values_are_shared_inside_the_scope_only():
    with scalars._shared_values():
        a, b = W * M, M * W
        c, d = ONE / W - (ONE + ONE) / W, -ONE / W
        assert a is b and c is d
        assert (W + M) * U is not (W + M) * U
    assert W * M is not M * W
    assert not any(tables())


def test_the_tables_are_emptied_when_the_scope_raises():
    with pytest.raises(DivisionByZero):
        with scalars._shared_values():
            W * M + M * U
            assert all(tables())
            ONE / (W - W)
    assert not any(tables())
    assert not scalars._live


class Weakrefable(Scalar):
    __slots__ = ("__weakref__",)


def test_a_table_entry_keeps_its_operands_alive():
    with scalars._shared_values():
        x = object.__new__(Weakrefable)
        x.num, x.den = (2 * W).num, M.den
        ref = weakref.ref(x)
        assert x * U == 2 * W * U
        del x
        gc.collect()
        assert ref() is not None
    gc.collect()
    assert ref() is None
