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

pair() evaluates this closed form: X is rewritten into the dual basis
by to_dual and each term is paired by pair_closed, which builds its
one-term value from plain ints.  The value P(umon, fmon) of one uq-g1
monomial against one fq-g1 monomial is kept in a dict on the engine,
keyed by (umon, fmon), for the engine's lifetime (the engine() singleton
lives as long as the process); pair_basis is the one reader of that
dict, and <X, a> = sum cx ca P(umon, fmon).  act() pairs X with each
coproduct leg through pair().

The law rows of pairing_report read P through pair_basis too.  Each
window element's antipode, star, coproduct and products are built once
per report; in a sum over coproduct legs sum c P(., m1) P(., m2), the
first value of each leg is read once and multiplied by c, and a leg
whose first value is zero is dropped before the second values are read.

The letter recursion is kept only as the oracle (pair_recursive): split
a dual monomial into single letters and peel them against coproduct
legs, <g1 g2, a> = sum <g1, a_(1)> <g2, a_(2)>.  Only the one-letter
rows enter it, so the factorials and the l-dependence of the closed form
are reproduced rather than assumed.  The oracle runs one letter word at
a time: a word's row {fq monomial: value} holds its nonzero values on a
set of target monomials, and _row_cache keeps it by word, with the
targets it covers, growing it when asked for more.  A word of two or
more letters gets its row from its suffix's: each nonzero suffix value
at m2 is pushed through the legs first (x) m2 of the targets' coproducts
and multiplied by the head letter's one-letter value on first, through
an index (second leg -> target, coefficient) built once per head letter
and target set, so the push reads nonzero suffix values only.  The
one-letter rows come from one small table, _PLAIN_ROWS, through
_head_row, which keeps each nonzero row per (letter, largest
x-exponent).  Every reader of the recursion goes through _word_row: the
closed-vs-recursive row of pairing_report reads one row per dual
monomial of its grid, a missing key meaning zero, and compares it with
the closed form on every pair, and pair_recursive reads a single pair,
on or off the grid.  Every law row of that report tests the closed form.

A one-letter row pairs only with mu, t, v or x^b: first legs of degree
<= 1 in (mu, t, v), with x of degree 0.  Every fq-g1 rule keeps that
degree (x mu -> mu x - 2iw mu, v mu -> mu v + iw v^2, ...), so fq-g1 is
graded by it, and the oracle builds each coproduct already truncated to
first-leg degree <= 1, one letter at a time from the generator images of
fq.delta, never forming a product it cannot read: the builder of
morphism images, ncalg.build_by_letters, with the join
(A0 B0, A0 B1 + A1 B0) of the degree 0 and 1 parts.  It builds them only
for the targets of words of two or more letters (on the grid, its 108
monomials), since a one-letter suffix is read off its row.  The weights
are read off the one-letter table when the engine is built, and a rule
that breaks the grading raises RelationNotPreserved there.  pair, act
and the Hopf layer keep the full coproduct.

Regular actions: X.a = (id x X) Delta a and a.X = (X x id) Delta a.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial

from .errors import (PresentationMismatch, RelationNotPreserved,
                     check_choice, check_sizes)
from .hopf import IW, builtin
from .ncalg import (AlgebraElement, Morphism, Presentation, TensorElement,
                    accumulate, build_by_letters)
from .report import CheckReport
from .scalars import I as IMAG, ONE, GaussRat, Poly, Scalar, W, ZERO, scalar

# the one-letter rows: I, T and N pair with mu, t and v alone, with value
# i; K and Kinv pair with the powers x^b, with value (iw)^b and (-iw)^b
_PLAIN_ROWS = {"I": (1, 0, 0, 0), "T": (0, 0, 1, 0), "N": (0, 0, 0, 1)}


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
        self._row_cache = {}
        self._head_rows = {}
        self._pair_memo = {}
        pres = self.fq.pres
        # the (mu, t, v) weights: 1 on each generator that the one-letter
        # rows of I, T and N read, 0 on the rest (x, which K's row reads)
        self._weights = tuple(map(sum, zip(*_PLAIN_ROWS.values())))
        _check_graded(pres, self._weights)
        # the oracle's truncated coproducts: each fq monomial maps to the
        # first-leg degree 0 and degree 1 parts of Delta(mon), seeded
        # with the unit and the generator images of fq.delta
        spaces = (pres, pres)
        self._delta_parts = {pres.one_mon: (
            TensorElement(spaces, {(pres.one_mon, pres.one_mon): ONE}),
            TensorElement(spaces, {}))}
        for g, img in enumerate(self.fq.delta.images):
            self._delta_parts[pres._gen_mon(g, 1)] = tuple(
                TensorElement(spaces, {key: c for key, c in img.terms.items()
                                       if self._degree(key[0]) == d})
                for d in (0, 1))
        self._leg_indexes = {}

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

    def _check_args(self, what, X, a):
        # the memo's keys are exponent tuples, read as uq-g1 and fq-g1
        if X.pres is not self.uq.pres or a.pres is not self.fq.pres:
            raise PresentationMismatch(
                f"{what} takes a uq-g1 and an fq-g1 element, "
                f"got {X.pres.name} and {a.pres.name}")

    def pair_basis(self, umon, fmon) -> Scalar:
        """P(umon, fmon) of one uq-g1 and one fq-g1 monomial, read from
        the basis-pair memo and evaluated on its first request only."""
        key = (umon, fmon)
        v = self._pair_memo.get(key)
        if v is None:
            v = self._pair_dual(self.to_dual._mono_image(umon).terms, fmon)
            self._pair_memo[key] = v
        return v

    def pair(self, X: AlgebraElement, a: AlgebraElement) -> Scalar:
        """sum cx ca P(umon, fmon) over the terms of X and a."""
        self._check_args("pair", X, a)
        basis = self.pair_basis
        out = ZERO
        for umon, cx in X.terms.items():
            for fmon, ca in a.terms.items():
                v = basis(umon, fmon)
                if v:
                    out = out + cx * ca * v
        return out

    def act(self, X: AlgebraElement, a: AlgebraElement, side="left") -> AlgebraElement:
        """Left regular action X.a = (id x X) Delta a; right a.X mirrors it."""
        check_choice("side", side)
        self._check_args("act", X, a)
        delta, monomial = self.fq.delta, self.fq.pres.monomial
        out = {}
        for mon, ca in a.terms.items():
            for (m1, m2), c in delta._mono_image(mon).terms.items():
                keep, paired = (m1, m2) if side == "left" else (m2, m1)
                v = self.pair(X, monomial(paired))
                if v:
                    accumulate(out, {keep: c * v}, ca)
        return AlgebraElement(a.pres, out)

    # -- letter recursion: the oracle ------------------------------------

    def pair_recursive(self, dual_mon, f_mon) -> Scalar:
        """<I^a' K^l T^g' N^d', f_mon> by peeling single dual letters,
        read from the dual monomial's row."""
        f_mon = tuple(f_mon)
        row = self._word_row(_letters(tuple(dual_mon)), frozenset((f_mon,)))
        return row.get(f_mon, ZERO)

    def _degree(self, mon):
        """The (mu, t, v)-degree of a normal fq monomial."""
        return sum(w * e for w, e in zip(self._weights, mon))

    def _truncated_delta(self, mon):
        """The first-leg degree 0 and 1 parts (D0, D1) of Delta(mon),
        built one last letter at a time and cached per prefix."""
        return build_by_letters(self._delta_parts, self.fq.pres, mon,
                                _truncated_product)

    def _head_row(self, letter, max_x):
        """{first: <letter, first>}, nonzero, over first legs of x-exponent
        <= max_x: the one-letter row, kept per (letter, max_x)."""
        key = (letter, max_x)
        hit = self._head_rows.get(key)
        if hit is None:
            if letter in _PLAIN_ROWS:
                hit = {_PLAIN_ROWS[letter]: IMAG}
            else:  # K or Kinv
                sw = IW if letter == "K" else -IW
                hit = {(0, b, 0, 0): sw ** b for b in range(max_x + 1)}
            self._head_rows[key] = hit
        return hit

    def _leg_index(self, head, targets):
        """(second legs, {m2: {target: sum c <head, first>}}) over the legs
        c first (x) m2 of the truncated coproducts of targets, built once
        per head letter and target set."""
        key = (head, targets)
        hit = self._leg_indexes.get(key)
        if hit is None:
            index = {}
            for t in targets:
                head_row = self._head_row(head, t[1])
                for part in self._truncated_delta(t):
                    for (first, m2), c in part.terms.items():
                        r = head_row.get(first)
                        if r is not None:
                            accumulate(index.setdefault(m2, {}), {t: c}, r)
            hit = self._leg_indexes[key] = (frozenset(index), index)
        return hit

    def _word_row(self, word, targets):
        """{mon: <word, mon>} of the nonzero values, complete on targets.

        A word of two or more letters gets its row from its suffix's:
        each nonzero suffix value at m2 is pushed through the legs
        first (x) m2 of the targets' truncated coproducts, times the head
        letter's one-letter value on first.  The row is cached by word
        with the targets it covers, and grows when asked for more.
        """
        if not word:  # the counit
            eps, monomial = self.fq.epsilon, self.fq.pres.monomial
            return {m: e for m in targets
                    if not (e := eps.apply(monomial(m))).is_zero()}
        if len(word) == 1:
            return self._head_row(word[0], max((t[1] for t in targets),
                                               default=0))
        hit = self._row_cache.get(word)
        if hit is None:  # the first targets are the domain: shared, no copy
            domain, row, new = targets, {}, targets
        else:
            domain, row = hit
            new = targets - domain
            domain = domain | new
        if new:
            seconds, index = self._leg_index(word[0], new)
            for m2, v in self._word_row(word[1:], seconds).items():
                bucket = index.get(m2)
                if bucket is not None:
                    accumulate(row, bucket, v)
            self._row_cache[word] = (domain, row)
        return row


def _truncated_product(a, b):
    """The first-leg degree 0 and 1 parts of the product of two graded
    tensors from theirs, (A0 B0, A0 B1 + A1 B0): no product of degree
    >= 2 is ever formed."""
    (a0, a1), (b0, b1) = a, b
    return a0 * b0, a0 * b1 + a1 * b0


def _check_graded(pres, weights):
    """Raise RelationNotPreserved unless every rule of pres keeps the
    weighted degree: each word on a rule's right has its left's degree."""
    def degree(word):
        return sum(weights[g] * e for g, e in word)

    for (gl, sl, gr, sr), rhs in pres.rules.items():
        want = degree(((gl, sl), (gr, sr)))
        for _, word in rhs:
            if degree(word) != want:
                names = pres.generators
                raise RelationNotPreserved(
                    f"{pres.name}: the rule for {names[gl]} {names[gr]} "
                    f"is not graded by weights {weights}")


@functools.cache
def _letters(dual_mon):
    """The single letters of I^a' K^l T^g' N^d'; one shared tuple per
    dual monomial, since the row cache keeps every key it is given."""
    ap, ell, gp, dp = dual_mon
    return (("I",) * ap
            + (("K",) if ell > 0 else ("Kinv",)) * abs(ell)
            + ("T",) * gp
            + ("N",) * dp)


@functools.cache
def engine() -> PairEngine:
    return PairEngine()


def pair_closed(dual_mon, f_mon) -> Scalar:
    return engine().pair_closed(tuple(dual_mon), tuple(f_mon))


def pair(X: AlgebraElement, a: AlgebraElement) -> Scalar:
    return engine().pair(X, a)


def act(X: AlgebraElement, a: AlgebraElement, side: str = "left") -> AlgebraElement:
    return engine().act(X, a, side)


def pairing_report(dual_bound=2, ell_bound=2, f_bound=2, x_power_bound=3,
                   law_degree=1):
    """Two independent evaluations agree, and the Hopf-pairing laws hold.

    The grid covers dual monomials with a', g', d' <= dual_bound and
    |l| <= ell_bound against fq monomials with a, g, d <= f_bound and
    b <= x_power_bound; the law battery runs over monomial windows of
    degree law_degree.
    """
    check_sizes(dual_bound=dual_bound, ell_bound=ell_bound, f_bound=f_bound,
                x_power_bound=x_power_bound, law_degree=law_degree)
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
    targets = frozenset(fq_monomials)
    for dual in itertools.product(range(dual_bound + 1),
                                  range(-ell_bound, ell_bound + 1),
                                  range(dual_bound + 1),
                                  range(dual_bound + 1)):
        row = eng._word_row(_letters(dual), targets)
        for fm in fq_monomials:
            total += 1
            if row.get(fm, ZERO) != eng.pair_closed(dual, fm):
                mismatches += 1
                if first_witness is None:
                    first_witness = f"dual={dual}, monomial={fm}"
    rep.record("closed-vs-recursive", mismatches == 0,
               law=f"both evaluations agree on {total} basis pairs",
               witness=first_witness or "")

    # window elements with their monomials and labels, each printed once
    # per report; the images and products the law rows pair are built
    # once per report too, and seconds holds (m2, c P(., m1)) for each
    # coproduct leg c m1 (x) m2 whose first value is nonzero
    def window(pres, degree):
        out = []
        for mon in pres.monomials_up_to(degree):
            e = pres.monomial(mon)
            out.append((e, mon, str(e)))
        return out

    P = eng.pair_basis
    xs = window(uq.pres, law_degree)
    fs = window(fq.pres, law_degree + 1)
    small_fs = window(fq.pres, law_degree)
    f_images = {am: (fq.delta._mono_image(am).terms, fq.antipode.apply(a),
                     fq.tau.apply(a)) for a, am, _ in fs}
    ab = {(am, bm): a * b for a, am, _ in small_fs for b, bm, _ in small_fs}
    for X, xm, xl in xs:
        SX, X_star = uq.antipode.apply(X), uq.star.apply(X)
        dX = uq.delta._mono_image(xm).terms
        xys = [(X * Y, ym, yl) for Y, ym, yl in xs]
        for a, am, al in fs:
            legs, Sa, tau_a = f_images[am]
            seconds = [(m2, c * v) for (m1, m2), c in legs.items()
                       if (v := P(xm, m1))]
            for XY, ym, yl in xys:
                want = ZERO
                for m2, cv in seconds:
                    want = want + cv * P(ym, m2)
                rep.record(f"product-coproduct[{xl}|{yl}|{al}]",
                           eng.pair(XY, a) == want,
                           law="<XY, a> = sum <X, a_(1)> <Y, a_(2)>",
                           witness=lambda: f"{xl}, {yl}, {al}")
            rep.record(f"antipode-transpose[{xl}|{al}]",
                       eng.pair(SX, a) == eng.pair(X, Sa),
                       law="<S X, a> = <X, S a>",
                       witness=lambda: f"{xl}, {al}")
            rep.record(f"star-transpose[{xl}|{al}]",
                       eng.pair(X_star, a) == eng.pair(X, tau_a).conjugate(),
                       law="<X*, a> = conj(<X, tau(a)>)",
                       witness=lambda: f"{xl}, {al}")
        for a, am, al in small_fs:
            seconds = [(m2, c * v) for (m1, m2), c in dX.items()
                       if (v := P(m1, am))]
            for b, bm, bl in small_fs:
                want = ZERO
                for m2, cv in seconds:
                    want = want + cv * P(m2, bm)
                rep.record(f"coproduct-product[{xl}|{al}|{bl}]",
                           eng.pair(X, ab[am, bm]) == want,
                           law="<X, ab> = sum <X_(1), a> <X_(2), b>",
                           witness=lambda: f"{xl}, {al}, {bl}")
    return rep.finalize()
