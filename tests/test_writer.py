"""The one term writer (scalars.format_terms) against reference printers.

The references below are the two printers that format_terms replaced:
one for polynomials over Q(i) and one for algebra elements, each with its
own sign joining.  str() must be byte-identical to them on random scalars
and elements, including branches no report reaches: mixed Gaussian
coefficients, negative leading terms and multi-term denominators.  Each
printed form must also parse back to the value it prints.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from hopfkit.hopf import BUILTIN_NAMES, algebra_presentation, builtin
from hopfkit.ncalg import AlgebraElement
from hopfkit.parser import parse, print_element
from hopfkit.scalars import (I, M, P_ONE, U, VAR_NAMES, W, ZERO,
                             format_monomial, format_terms, scalar)

# -- reference printers ------------------------------------------------------


def ref_ratio(n, d):
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def ref_gauss(c, bare=False):
    a, b, d = c.a, c.b, c.d
    if not b:
        return ref_ratio(a, d)
    if not a:
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{ref_ratio(b, d)}*i"
    s = f"{ref_ratio(a, d)} + {ref_ratio(b, d)}*i" if b > 0 \
        else f"{ref_ratio(a, d)} - {ref_ratio(-b, d)}*i"
    return s if bare else f"({s})"


def ref_poly_mono(exp):
    parts = []
    for v, e in zip(VAR_NAMES, exp):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def ref_poly(p):
    if p.is_zero():
        return "0"
    out = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[exp]
        mono = ref_poly_mono(exp)
        if not mono:
            piece = ref_gauss(c)
        elif ref_gauss(c) == "1":
            piece = mono
        elif ref_gauss(c) == "-1":
            piece = f"-{mono}"
        else:
            piece = f"{ref_gauss(c)}*{mono}"
        if out and not piece.startswith("-"):
            out.append(f"+ {piece}")
        elif out:
            out.append(f"- {piece[1:]}")
        else:
            out.append(piece)
    return " ".join(out)


def ref_scalar(x):
    if x.den is P_ONE:
        return ref_poly(x.num)
    return f"({ref_poly(x.num)})/({ref_poly(x.den)})"


def ref_element_mono(pres, mon):
    parts = []
    for g, e in enumerate(mon):
        if e == 1:
            parts.append(pres.generators[g])
        elif e:
            parts.append(f"{pres.generators[g]}^{e}")
    return "*".join(parts) if parts else "1"


def ref_element(e):
    if not e.terms:
        return "0"
    inv = e.pres.invertible

    def key(mon):
        return (sum(abs(x) for g, x in enumerate(mon) if not inv[g]),
                tuple(abs(x) for x in mon), mon)
    bits = []
    for mon in sorted(e.terms, key=key):
        mono = ref_element_mono(e.pres, mon)
        cs = ref_scalar(e.terms[mon])
        multi = (" + " in cs) or (" - " in cs)
        if mono == "1":
            piece = f"({cs})" if multi else cs
        elif cs == "1":
            piece = mono
        elif cs == "-1":
            piece = f"-{mono}"
        elif multi:
            piece = f"({cs})*{mono}"
        else:
            piece = f"{cs}*{mono}"
        if bits and not piece.startswith("-"):
            bits.append(f"+ {piece}")
        elif bits:
            bits.append(f"- {piece[1:]}")
        else:
            bits.append(piece)
    return " ".join(bits)


# -- strategies ----------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
# mixed, real, imaginary, +-1 and +-i coefficients all come up often
gaussians = st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), rationals),
    st.tuples(st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
              st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)])),
).map(lambda ab: scalar(ab[0]) + scalar(ab[1]) * I)


@st.composite
def polys(draw, min_terms):
    out = ZERO
    for _ in range(draw(st.integers(min_terms, 3))):
        c = draw(gaussians)
        for sym in (W, M, U):
            c = c * sym ** draw(st.integers(0, 2))
        out = out + c
    return out


@st.composite
def scalars(draw):
    """Polynomials, and quotients by one- and multi-term denominators."""
    num = draw(polys(0))
    den = draw(st.one_of(st.just(scalar(1)), polys(1), polys(2)))
    assume(not den.is_zero())
    return num / den


@st.composite
def elements(draw):
    name = draw(st.sampled_from(BUILTIN_NAMES))
    pres = algebra_presentation(name)
    mons = draw(st.lists(st.sampled_from(pres.monomials_up_to(2)),
                         max_size=4, unique=True))
    terms = {}
    for mon in mons:
        c = draw(scalars())
        if not c.is_zero():
            terms[mon] = c
    return name, AlgebraElement(pres, terms)


# -- tests ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(scalars())
def test_scalar_str_matches_the_reference_and_parses_back(x):
    text = str(x)
    assert text == ref_scalar(x)
    for c in x.num.terms.values():
        assert str(c) == ref_gauss(c, bare=True)
    pres = algebra_presentation("uq-g1")
    assert parse(text, "uq-g1") == pres.one().scale(x)


@settings(max_examples=100, deadline=None)
@given(elements())
def test_element_str_matches_the_reference_and_parses_back(case):
    name, e = case
    text = str(e)
    assert text == print_element(e) == ref_element(e)
    assert parse(text, name) == e


def test_writer_edge_cases():
    assert format_terms([]) == "0"
    assert format_terms([("1", "")]) == "1"
    assert format_terms([("-1", "x"), ("1", "y"), ("-1", "")]) == "-x + y - 1"
    assert format_terms([("2 - i", ""), ("-3", "x")]) == "(2 - i) - 3*x"
    assert format_terms([("(1)/(w + m)", "x")]) == "((1)/(w + m))*x"
    assert format_monomial(("a", "b", "c"), (0, 0, 0)) == ""
    assert format_monomial(("a", "b", "c"), (1, 0, -2)) == "a*c^-2"


def test_tensors_print_in_the_term_grammar():
    uq, fq = builtin("uq-g1"), builtin("fq-g1")
    assert str(uq.delta.apply(uq.pres.gen("M"))) == "K^-1 (x) M + M (x) K"
    assert str(fq.delta.apply(fq.pres.gen("mu"))) == \
        "1 (x) mu + v (x) x + mu (x) 1 + 1/2*v^2 (x) t"
    assert str(-uq.delta.apply(uq.pres.gen("K"))) == "-K (x) K"
    assert str(uq.delta.apply(uq.pres.zero())) == "0"
