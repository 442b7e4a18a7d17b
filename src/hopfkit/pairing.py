"""Duality pairing between uq-g1 and fq-g1, and the regular actions.

The closed form lives on the dual basis I^a' K^l T^g' N^d' (I = K^-1 M,
N = K B) against normal monomials mu^a x^b t^g v^d:

    <I^a' K^l T^g' N^d', mu^a x^b t^g v^d>
        = i^(a+g+d) a! g! d! (i w l)^b   if (a, g, d) == (a', g', d')
        = 0 otherwise,

with 0^0 = 1, so <K^l, 1> = 1 for every l.  The K-row carries one factor
of the deformation parameter iw per power of x: this scale is forced by
the defining relations (pair K B K^-1 = B - iw M against mu, or
[B, T] = i(K - K^-1)/(2w) against x) and by the star law
<X*, a> = conj(<X, tau(a)>), each of which pins <K, x> = iw.

pair() and act() evaluate this closed form: X is rewritten into the dual
basis by to_dual and each term is paired by pair_closed, which builds
its one-term value from plain ints.

The letter recursion is kept only as the oracle (pair_recursive): split
a dual monomial into single letters and peel them against coproduct
legs, <g1 g2, a> = sum <g1, a_(1)> <g2, a_(2)>.  Only the one-letter
rows enter it, so the factorials and the l-dependence of the closed form
are reproduced rather than assumed.  The closed-vs-recursive row of
pairing_report compares the two on a full window, and every law row of
that report tests the closed form.

Regular actions: X.a = (id x X) Delta a and a.X = (X x id) Delta a.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial

from .errors import UnknownGenerator, check_choice
from .hopf import builtin
from .ncalg import AlgebraElement, Morphism, Presentation, accumulate
from .scalars import I as IMAG, ONE, GaussRat, Poly, Scalar, W, ZERO, scalar

IW = IMAG * W

_MU_MON = (1, 0, 0, 0)
_T_MON = (0, 0, 1, 0)
_V_MON = (0, 0, 0, 1)


def _dual_presentation():
    gens = ("I", "K", "T", "N")
    inv = (False, True, False, False)
    Ii, Ki, Ti, Ni = 0, 1, 2, 3
    half = scalar(Fraction(1, 2))
    rules = {
        (Ki, 1, Ii, 1): [(ONE, ((Ii, 1), (Ki, 1)))],
        (Ki, -1, Ii, 1): [(ONE, ((Ii, 1), (Ki, -1)))],
        (Ti, 1, Ii, 1): [(ONE, ((Ii, 1), (Ti, 1)))],
        (Ti, 1, Ki, 1): [(ONE, ((Ki, 1), (Ti, 1)))],
        (Ti, 1, Ki, -1): [(ONE, ((Ki, -1), (Ti, 1)))],
        (Ni, 1, Ii, 1): [(ONE, ((Ii, 1), (Ni, 1))),
                         (-IW, ((Ii, 2), (Ki, 2)))],
        (Ni, 1, Ki, 1): [(ONE, ((Ki, 1), (Ni, 1))),
                         (IW, ((Ii, 1), (Ki, 3)))],
        (Ni, 1, Ki, -1): [(ONE, ((Ki, -1), (Ni, 1))),
                          (-IW, ((Ii, 1), (Ki, 1)))],
        (Ni, 1, Ti, 1): [(ONE, ((Ti, 1), (Ni, 1))),
                         (IMAG * half / W, ((Ki, 2),)),
                         (-IMAG * half / W, ())],
    }
    return Presentation("uq-dual", gens, inv, rules)


class PairEngine:
    """Shared state: dual presentation, basis converters and caches."""

    def __init__(self):
        self.uq = builtin("uq-g1")
        self.fq = builtin("fq-g1")
        self.dual = _dual_presentation()
        d = self.dual
        self.to_dual = Morphism(self.uq.pres, {
            "M": d.gen("I") * d.gen("K"),
            "K": d.gen("K"),
            "T": d.gen("T"),
            "B": d.gen("K", -1) * d.gen("N"),
        }, kind="hom", name="uq->dual")
        u = self.uq.pres
        self.from_dual = Morphism(d, {
            "I": u.gen("K", -1) * u.gen("M"),
            "K": u.gen("K"),
            "T": u.gen("T"),
            "N": u.gen("K") * u.gen("B"),
        }, kind="hom", name="dual->uq")
        self._row_cache = {}
        self._delta_index = {}

    # -- closed formula: the production evaluation --------------------

    def pair_closed(self, dual_mon, f_mon) -> Scalar:
        ap, ell, gp, dp = dual_mon
        a, b, g, d = f_mon
        if (a, g, d) != (ap, gp, dp) or (b and not ell):
            return ZERO
        # i^(a+g+d+b) l^b a! g! d! in plain ints, on the monomial w^b
        n = factorial(a) * factorial(g) * factorial(d) * ell ** b
        re, im = ((n, 0), (0, n), (-n, 0), (0, -n))[(a + g + d + b) % 4]
        return Scalar(Poly({(b, 0, 0): GaussRat(re, im)}))

    def _pair_dual(self, dual, f_mon) -> Scalar:
        """sum_m c_m <m, f_mon> over the dual-basis terms m -> c_m."""
        out = ZERO
        for mon, c in dual.items():
            v = self.pair_closed(mon, f_mon)
            if v:
                out = out + c * v
        return out

    def pair(self, X: AlgebraElement, a: AlgebraElement) -> Scalar:
        dual = self.to_dual.apply(X).terms
        out = ZERO
        for mon, ca in a.terms.items():
            v = self._pair_dual(dual, mon)
            if v:
                out = out + ca * v
        return out

    def act(self, X: AlgebraElement, a: AlgebraElement, side="left") -> AlgebraElement:
        """Left regular action X.a = (id x X) Delta a; right a.X mirrors it."""
        check_choice("side", side)
        dual = self.to_dual.apply(X).terms
        delta = self.fq.delta
        out = {}
        for mon, ca in a.terms.items():
            for (m1, m2), c in delta._mono_image(mon).terms.items():
                keep, paired = (m1, m2) if side == "left" else (m2, m1)
                v = self._pair_dual(dual, paired)
                if v:
                    accumulate(out, {keep: c * v}, ca)
        return AlgebraElement(a.pres, out)

    def n_degree(self, X: AlgebraElement) -> int:
        """Largest N-exponent of X in the dual basis (pairs with v powers)."""
        e = self.to_dual.apply(X)
        return max((mon[3] for mon in e.terms), default=0)

    # -- letter recursion: the oracle ------------------------------------

    def pair_recursive(self, dual_mon, f_mon) -> Scalar:
        """<I^a' K^l T^g' N^d', f_mon> by peeling single dual letters."""
        return self.pair_mono(_letters(tuple(dual_mon)), tuple(f_mon))

    @staticmethod
    def _row(letter, mon) -> Scalar:
        """<letter, mon> for a single dual letter and normal fq monomial."""
        if letter == "I":
            return IMAG if mon == _MU_MON else ZERO
        if letter == "T":
            return IMAG if mon == _T_MON else ZERO
        if letter == "N":
            return IMAG if mon == _V_MON else ZERO
        # K or Kinv: supported on powers of x only (including 1)
        if mon[0] or mon[2] or mon[3]:
            return ZERO
        b = mon[1]
        if b == 0:
            return ONE
        sw = IW if letter == "K" else -IW
        return sw ** b

    def _delta_terms(self, mon):
        """Coproduct of an fq monomial, indexed by the first slot."""
        hit = self._delta_index.get(mon)
        if hit is None:
            te = self.fq.delta._mono_image(mon)
            hit = {}
            for (m1, m2), c in te.terms.items():
                hit.setdefault(m1, []).append((m2, c))
            self._delta_index[mon] = hit
        return hit

    @staticmethod
    def _row_support(letter, max_x):
        """First-slot monomials a single letter can pair with."""
        if letter == "I":
            return (_MU_MON,)
        if letter == "T":
            return (_T_MON,)
        if letter == "N":
            return (_V_MON,)
        return tuple((0, b, 0, 0) for b in range(max_x + 1))

    def pair_mono(self, letters, mon) -> Scalar:
        key = (letters, mon)
        hit = self._row_cache.get(key)
        if hit is not None:
            return hit
        if not letters:
            out = self.fq.epsilon.apply(self.fq.pres.monomial(mon))
        elif len(letters) == 1:
            out = self._row(letters[0], mon)
        else:
            out = ZERO
            head, rest = letters[0], letters[1:]
            index = self._delta_terms(mon)
            for first in self._row_support(head, mon[1]):
                bucket = index.get(first)
                if bucket is None:
                    continue
                r = self._row(head, first)
                if r.is_zero():
                    continue
                for m2, c in bucket:
                    tail = self.pair_mono(rest, m2)
                    if not tail.is_zero():
                        out = out + c * r * tail
        self._row_cache[key] = out
        return out


@functools.cache
def _letters(dual_mon):
    """The single letters of I^a' K^l T^g' N^d'; one shared tuple per
    dual monomial, since the row cache keeps every key it is given."""
    ap, ell, gp, dp = dual_mon
    return (("I",) * ap
            + (("K",) if ell > 0 else ("Kinv",)) * abs(ell)
            + ("T",) * gp
            + ("N",) * dp)


_ENGINE = None


def engine() -> PairEngine:
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = PairEngine()
    return _ENGINE


def pair_closed(dual_mon, f_mon) -> Scalar:
    return engine().pair_closed(tuple(dual_mon), tuple(f_mon))


def pair(X: AlgebraElement, a: AlgebraElement) -> Scalar:
    return engine().pair(X, a)


def act(X: AlgebraElement, a: AlgebraElement, side: str = "left") -> AlgebraElement:
    return engine().act(X, a, side)


def dual_basis_element(exps) -> AlgebraElement:
    """The uq-g1 element I^a' K^l T^g' N^d' for the exponent tuple."""
    if len(exps) != 4:
        raise UnknownGenerator("dual basis exponents are (a', l, g', d')")
    eng = engine()
    return eng.from_dual.apply(eng.dual.monomial(tuple(exps)))


def pairing_report(dual_bound=2, ell_bound=2, f_bound=2, x_power_bound=3,
                   law_degree=1):
    """Two independent evaluations agree, and the Hopf-pairing laws hold.

    The grid covers dual monomials with a', g', d' <= dual_bound and
    |l| <= ell_bound against fq monomials with a, g, d <= f_bound and
    b <= x_power_bound; the law battery runs over monomial windows of
    degree law_degree.
    """
    import itertools

    from .report import CheckReport

    eng = engine()
    uq, fq = eng.uq, eng.fq
    rep = CheckReport("pairing", params={
        "dual_bound": dual_bound, "ell_bound": ell_bound,
        "f_bound": f_bound, "x_power_bound": x_power_bound,
        "law_degree": law_degree})

    mismatches = 0
    first_witness = None
    total = 0
    fq_monomials = list(itertools.product(range(f_bound + 1),
                                          range(x_power_bound + 1),
                                          range(f_bound + 1),
                                          range(f_bound + 1)))
    for dual in itertools.product(range(dual_bound + 1),
                                  range(-ell_bound, ell_bound + 1),
                                  range(dual_bound + 1),
                                  range(dual_bound + 1)):
        for fm in fq_monomials:
            total += 1
            if eng.pair_recursive(dual, fm) != eng.pair_closed(dual, fm):
                mismatches += 1
                if first_witness is None:
                    first_witness = f"dual={dual}, monomial={fm}"
    rep.record("closed-vs-recursive", mismatches == 0,
               law=f"both evaluations agree on {total} basis pairs",
               witness=first_witness or "")

    # window elements with their labels, each printed once per report
    def window(pres, degree):
        elements = map(pres.monomial, pres.monomials_up_to(degree))
        return [(e, str(e)) for e in elements]

    xs = window(uq.pres, law_degree)
    fs = window(fq.pres, law_degree + 1)
    small_fs = window(fq.pres, law_degree)
    for X, xl in xs:
        dX = uq.delta.apply(X).terms
        for a, al in fs:
            amon = next(iter(a.terms))
            for Y, yl in xs:
                want = ZERO
                for (m1, m2), c in fq.delta._mono_image(amon).terms.items():
                    want = want + c * eng.pair(X, fq.pres.monomial(m1)) \
                        * eng.pair(Y, fq.pres.monomial(m2))
                rep.record(f"product-coproduct[{xl}|{yl}|{al}]",
                           eng.pair(X * Y, a) == want,
                           law="<XY, a> = sum <X, a_(1)> <Y, a_(2)>",
                           witness=lambda: f"{xl}, {yl}, {al}")
            rep.record(f"antipode-transpose[{xl}|{al}]",
                       eng.pair(uq.antipode.apply(X), a)
                       == eng.pair(X, fq.antipode.apply(a)),
                       law="<S X, a> = <X, S a>",
                       witness=lambda: f"{xl}, {al}")
            rep.record(f"star-transpose[{xl}|{al}]",
                       eng.pair(uq.star.apply(X), a)
                       == eng.pair(X, fq.tau.apply(a)).conjugate(),
                       law="<X*, a> = conj(<X, tau(a)>)",
                       witness=lambda: f"{xl}, {al}")
        for a, al in small_fs:
            for b, bl in small_fs:
                want = ZERO
                for (m1, m2), c in dX.items():
                    want = want + c * eng.pair(uq.pres.monomial(m1), a) \
                        * eng.pair(uq.pres.monomial(m2), b)
                rep.record(f"coproduct-product[{xl}|{al}|{bl}]",
                           eng.pair(X, a * b) == want,
                           law="<X, ab> = sum <X_(1), a> <X_(2), b>",
                           witness=lambda: f"{xl}, {al}, {bl}")
    return rep.finalize()
