"""Normal-form engine for finitely presented noncommutative algebras.

A presentation fixes an ordered generator set and one rewrite rule per
adjacent letter pair that is out of order (plus optional extra rules on
ordered pairs, used by algebras whose defining relation already involves
an ordered product).  Rewriting moves every word onto the PBW-type basis
of normal-ordered monomials; invertible generators carry a single integer
exponent, so no g*g^-1 rule is ever needed.

Termination is enforced at build time: every right-hand side must be
strictly smaller than its left-hand side under the word order
(non-invertible degree, then inversion count, then a lexicographic tail).
Local confluence is checked by reducing every overlap word l1*l2*l3 in
two orders and comparing the results.

Confluence makes the normal form of a word independent of the order of
its reductions (Bergman's diamond lemma), so products and morphism
images are built one letter at a time from cached shorter ones: a cold
monomial product m1*m2 is L*(rest*m2) with L the first letter of m1, and
a cold image phi(prefix*L) is phi(prefix)*phi(L), or phi(L)*phi(prefix)
for an anti-homomorphism, by build_by_letters, the one builder of values
fixed on letters (the pairing oracle shares it).  Only a single letter
times a normal monomial is rewritten as a word, besides element() and
the build-time checks, and only when the letter forms a redex with the
monomial's first generator; otherwise the product just moves the
letter's exponent.  A rule that only swaps its two letters swaps whole
powers in one step.

Tensor products and products of tensors share one outer-product loop.
tensor_map (one map per slot, as many maps as the tensor has slots)
applies each non-identity map as its own pass over the terms, replacing
that slot of every key by its image, so identity slots cost nothing.
The shape of its output comes from the maps, not from the terms, so
zero input has the same type as any other: a Scalar when every slot is
contracted, an AlgebraElement for one leg, a TensorElement for more.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (
    IncompleteRewriteSystem,
    InvalidArgument,
    NegativePowerOfNonInvertible,
    NonConfluentRules,
    NotInvertible,
    PresentationMismatch,
    RelationNotPreserved,
    RewriteLimitExceeded,
    UnknownGenerator,
    WindowOverflow,
    check_element,
)
from .scalars import (ONE, Scalar, ZERO, format_monomial, format_terms,
                      scalar)

_MAX_REWRITE_STEPS = 2_000_000
_MINUS_ONE = -ONE


def _word_key(pres, word):
    deg = 0
    inv = 0
    letters = []
    for idx, (g, e) in enumerate(word):
        a = abs(e)
        if not pres.invertible[g]:
            deg += a
        for g2, e2 in word[idx + 1:]:
            if g2 < g:
                inv += a * abs(e2)
        letters.append((g, a, 0 if e >= 0 else 1))
    return (deg, inv, tuple(letters))


class Presentation:
    """Ordered generators, invertibility flags and a rewrite rule table.

    rules maps (gen_left, sign_left, gen_right, sign_right) to the
    replacement for the single-letter product g_l^sign_l * g_r^sign_r,
    given as a list of (Scalar, word) with word = tuple of (gen, exp).
    """

    def __init__(self, name, generators, invertible, rules):
        self.name = name
        self.generators = tuple(generators)
        self.invertible = tuple(invertible)
        self.index = {g: k for k, g in enumerate(self.generators)}
        self.rules = {k: tuple((scalar(c), self._validate_word(w))
                               for c, w in rhs)
                      for k, rhs in rules.items()}
        self.one_mon = (0,) * len(self.generators)
        # pairs whose rule only swaps the two letters: g^a h^b -> h^b g^a
        # follows from it by a*b steps, so one step swaps whole powers
        self._swaps = {(gl, sl, gr, sr) for (gl, sl, gr, sr), rhs
                       in self.rules.items()
                       if rhs == ((ONE, ((gr, sr), (gl, sl))),)}
        self._prod_cache = {}
        self._check_complete()
        self._check_termination()
        self._check_confluence()

    # -- build-time validation ----------------------------------------

    def _signs(self, g):
        return (1, -1) if self.invertible[g] else (1,)

    def _letters(self):
        return [(g, s) for g in range(len(self.generators))
                for s in self._signs(g)]

    def _check_complete(self):
        n = len(self.generators)
        for i in range(n):
            for j in range(i + 1, n):
                for sj in self._signs(j):
                    for si in self._signs(i):
                        if (j, sj, i, si) not in self.rules:
                            raise IncompleteRewriteSystem(
                                f"{self.name}: no rule for "
                                f"{self.generators[j]}^{sj} "
                                f"{self.generators[i]}^{si}")

    def _check_termination(self):
        for (gl, sl, gr, sr), rhs in self.rules.items():
            lhs_key = _word_key(self, ((gl, sl), (gr, sr)))
            for _, wrd in rhs:
                if not _word_key(self, wrd) < lhs_key:
                    raise NonConfluentRules(
                        f"{self.name}: rule for pair "
                        f"({self.generators[gl]},{self.generators[gr]}) does "
                        f"not decrease the word order")

    def _check_confluence(self):
        letters = self._letters()
        for l1, l2, l3 in itertools.product(letters, repeat=3):
            if (self._find_redex((l1, l2)) is None
                    or self._find_redex((l2, l3)) is None):
                continue
            word = (l1, l2, l3)
            left = self._normalize_terms([(ONE, word)])
            right = self._normalize_terms(self._step_at(ONE, word, 1))
            if left != right:
                names = " ".join(f"{self.generators[g]}^{e}" for g, e in word)
                raise NonConfluentRules(
                    f"{self.name}: ambiguity {names} resolves two ways")

    # -- rewriting ------------------------------------------------------

    def _step_at(self, coeff, word, p):
        """One reduction step at position p; returns list of (coeff, word)."""
        g1, e1 = word[p]
        g2, e2 = word[p + 1]
        if g1 == g2:
            e = e1 + e2
            merged = word[:p] + (((g1, e),) if e else ()) + word[p + 2:]
            return [(coeff, merged)]
        s1 = 1 if e1 > 0 else -1
        s2 = 1 if e2 > 0 else -1
        if (g1, s1, g2, s2) in self._swaps:
            return [(coeff, word[:p] + ((g2, e2), (g1, e1)) + word[p + 2:])]
        rhs = self.rules[g1, s1, g2, s2]
        left = word[:p] + (((g1, e1 - s1),) if e1 != s1 else ())
        right = (((g2, e2 - s2),) if e2 != s2 else ()) + word[p + 2:]
        return [(coeff * c, left + w + right) for c, w in rhs]

    def _find_redex(self, word):
        """The first position p at which word[p] word[p + 1] reduces (a
        merge or a rule), or None for a normal word.  _check_complete gives
        every disordered pair a rule, so a pair with none is in order.
        Words hold no zero exponents: element() strips them."""
        for p in range(len(word) - 1):
            l1, l2 = word[p], word[p + 1]
            if l1[0] == l2[0]:
                return p
            key = (l1[0], 1 if l1[1] > 0 else -1, l2[0], 1 if l2[1] > 0 else -1)
            if key in self.rules:
                return p
        return None

    def _normalize_terms(self, items):
        out = {}
        stack = list(items)
        steps = 0
        while stack:
            steps += 1
            if steps > _MAX_REWRITE_STEPS:
                raise RewriteLimitExceeded(
                    f"{self.name}: rewriting did not terminate")
            coeff, word = stack.pop()
            if coeff.is_zero():
                continue
            p = self._find_redex(word)
            if p is None:
                mon = self._word_to_mon(word)
                s = out.get(mon)
                s = coeff if s is None else s + coeff
                if s.is_zero():
                    out.pop(mon, None)
                else:
                    out[mon] = s
            else:
                stack.extend(self._step_at(coeff, word, p))
        return out

    def _word_to_mon(self, word):
        exps = [0] * len(self.generators)
        for g, e in word:
            exps[g] = e
        return tuple(exps)

    def mon_to_word(self, mon):
        return tuple((g, e) for g, e in enumerate(mon) if e)

    def _validate_word(self, word):
        out = []
        for g, e in word:
            if isinstance(g, str):
                if g not in self.index:
                    raise UnknownGenerator(f"{g!r} is not a generator of {self.name}")
                g = self.index[g]
            elif not 0 <= g < len(self.generators):
                raise UnknownGenerator(f"generator index {g} out of range")
            if e < 0 and not self.invertible[g]:
                raise NegativePowerOfNonInvertible(
                    f"{self.generators[g]}^{e} in {self.name}")
            out.append((g, e))
        return tuple(out)

    # -- public element factory ----------------------------------------

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {self.one_mon: ONE})

    def gen(self, name, exp=1):
        (g, e), = self._validate_word([(name, exp)])
        return AlgebraElement(self, {self._gen_mon(g, e): ONE})

    def element(self, terms):
        """Build from raw (coefficient, word) pairs; words may be disordered
        and may hold zero exponents, which are dropped before rewriting."""
        items = [(scalar(c), tuple(l for l in self._validate_word(w) if l[1]))
                 for c, w in terms]
        return AlgebraElement(self, self._normalize_terms(items))

    def monomial(self, mon):
        if len(mon) != len(self.generators):
            raise UnknownGenerator(f"bad exponent vector for {self.name}")
        return AlgebraElement(self, {tuple(mon): ONE})

    def _gen_mon(self, g, e):
        """The normal monomial g^e of a single generator index g."""
        one = self.one_mon
        return one[:g] + (e,) + one[g + 1:]

    def mono_product(self, m1, m2):
        """Normal form of m1*m2, built one letter of m1 at a time.

        With L the first letter of m1 = L*rest, m1*m2 = L*(rest*m2).  First
        letters are peeled until the product of the suffix left with m2 is
        cached, or the suffix is 1.  The letters are then put back one at a
        time, each as L times the terms built so far (_letter_times), and
        every suffix product is cached on the way.  The rules are
        confluent, so this is the normal form of the word m1 m2.
        """
        cache = self._prod_cache
        hit = cache.get((m1, m2))
        if hit is not None:
            return hit
        if m1 == self.one_mon:
            return AlgebraElement(self, {m2: ONE})
        peeled = []  # (generator, sign, the suffix its letter starts)
        rest = m1
        terms = None
        while terms is None:
            g = next(k for k, e in enumerate(rest) if e)
            s = 1 if rest[g] > 0 else -1
            peeled.append((g, s, rest))
            rest = rest[:g] + (rest[g] - s,) + rest[g + 1:]
            if rest == self.one_mon:
                terms = {m2: ONE}
            else:
                hit = cache.get((rest, m2))
                terms = None if hit is None else hit.terms
        for g, s, suffix in reversed(peeled):
            hit = AlgebraElement(self, self._letter_times(g, s, terms))
            cache[(suffix, m2)] = hit
            terms = hit.terms
        return hit

    def _letter_times(self, g, s, terms):
        """The terms of the letter g^s times the element with these terms.

        g^s times a normal monomial whose first generator h forms no redex
        with it is that monomial with g's exponent moved by s: h == g (a
        merge, whose sign never flips), h > g with no rule on the ordered
        pair, or the monomial 1.  Every other letter product is rewritten
        as a word and cached under (letter, monomial).
        """
        rules = self.rules
        out = {}
        rewrite = []
        for mon, c in terms.items():
            h = g  # the first generator of mon, or g for the monomial 1
            for k, e in enumerate(mon):
                if e:
                    h = k
                    break
            if h == g or h > g and (g, s, h, 1 if e > 0 else -1) not in rules:
                # distinct monomials move to distinct ones
                out[mon[:g] + (mon[g] + s,) + mon[g + 1:]] = c
            else:
                rewrite.append((mon, c))
        if rewrite:
            cache = self._prod_cache
            letter = self._gen_mon(g, s)
            for mon, c in rewrite:
                hit = cache.get((letter, mon))
                if hit is None:
                    word = ((g, s),) + self.mon_to_word(mon)
                    hit = AlgebraElement(
                        self, self._normalize_terms([(ONE, word)]))
                    cache[(letter, mon)] = hit
                accumulate(out, hit.terms, c)
        return out

    def mono_inverse(self, mon):
        for g, e in enumerate(mon):
            if e and not self.invertible[g]:
                raise NotInvertible(
                    f"{self.generators[g]}^{e} has no inverse in {self.name}")
        return tuple(-e for e in mon)

    def monomials_up_to(self, degree, zrange=None):
        """All normal monomials with non-invertible total degree <= degree
        and each invertible exponent in [-zrange, zrange] (default degree).
        Deterministic order: by grlex key."""
        if zrange is None:
            zrange = degree
        ranges = []
        for g in range(len(self.generators)):
            if self.invertible[g]:
                ranges.append(range(-zrange, zrange + 1))
            else:
                ranges.append(range(0, degree + 1))
        out = []
        for exps in itertools.product(*ranges):
            if sum(e for g, e in enumerate(exps)
                   if not self.invertible[g]) <= degree:
                if self._find_redex(self.mon_to_word(exps)) is None:
                    out.append(exps)
        out.sort(key=lambda mon: (sum(abs(e) for e in mon), mon))
        return out

    def __repr__(self):
        return f"Presentation({self.name})"


class _Combination:
    """Finite Scalar-linear combination of basis keys in one space.

    The linear operations and the tensor product live here once.  A
    subclass stores `terms` (key -> nonzero Scalar) beside its space tag,
    and supplies `_like` (an element of the same space with the given
    terms), `_one` (the unit of its space), `_check_same`, its product
    and its printing.
    """

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, _Combination):
            other = self._one().scale(other)
        elif type(other) is not type(self):
            raise PresentationMismatch(
                f"{type(self).__name__} combined with {type(other).__name__}")
        self._check_same(other)
        # elements are never mutated, so an empty summand returns the other
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        accumulate(terms, other.terms, ONE)
        return self._like(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if c is ONE:
            # elements are never mutated, so the unscaled one can be shared
            return self
        c = scalar(c)
        if c.is_zero():
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything; true elements use __mul__
        return self.scale(other)

    def tensor(self, other):
        if not isinstance(other, _Combination):
            raise InvalidArgument(
                f"tensor factor must be an element, got {type(other).__name__}")
        out = {}
        _expand_slots(out, ONE, (self, other))
        return TensorElement(_legs(self) + _legs(other), out)


class AlgebraElement(_Combination):
    """Finite Scalar-linear combination of normal monomials."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    def _like(self, terms):
        return AlgebraElement(self.pres, terms)

    def _one(self):
        return self.pres.one()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms.items())))

    def _check_same(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatch(
                f"{self.pres.name} element combined with {other.pres.name}")

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check_same(other)
        mono_product = self.pres.mono_product
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, mono_product(m1, m2).terms,
                           c2 if c1 is ONE else c1 * c2)
        return AlgebraElement(self.pres, out)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.pres.one()
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        if len(self.terms) != 1:
            raise NotInvertible(
                f"only monomial elements are invertible in {self.pres.name}")
        (mon, c), = self.terms.items()
        if c.is_zero():
            raise NotInvertible("zero element")
        return AlgebraElement(self.pres, {self.pres.mono_inverse(mon): ONE / c})

    def degree(self):
        """Total degree counting non-invertible generators only."""
        inv = self.pres.invertible
        return max((sum(e for g, e in enumerate(m) if not inv[g])
                    for m in self.terms), default=0)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{self.pres.name}: {format_element(self)}>"


class TensorElement(_Combination):
    """Finite linear combination of k-tuples of normal monomials."""

    __slots__ = ("spaces", "terms")

    def __init__(self, spaces, terms):
        self.spaces = tuple(spaces)
        self.terms = terms

    def _like(self, terms):
        return TensorElement(self.spaces, terms)

    def _one(self):
        return self._like({tuple(p.one_mon for p in self.spaces): ONE})

    @property
    def rank(self):
        return len(self.spaces)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.spaces == other.spaces and self.terms == other.terms

    def _check_same(self, other):
        if self.spaces != other.spaces:
            raise PresentationMismatch("tensor slot presentations differ")

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._check_same(other)
        products = [p.mono_product for p in self.spaces]
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _expand_slots(out, c2 if c1 is ONE else c1 * c2, [
                    product(m1, m2)
                    for product, m1, m2 in zip(products, k1, k2)])
        return TensorElement(self.spaces, out)

    def inverse(self):
        if len(self.terms) != 1:
            raise NotInvertible("only monomial tensors are invertible")
        (key, c), = self.terms.items()
        inv = tuple(p.mono_inverse(m) for p, m in zip(self.spaces, key))
        return TensorElement(self.spaces, {inv: ONE / c})

    def to_element(self):
        if len(self.spaces) != 1:
            raise InvalidArgument("rank must be 1")
        return AlgebraElement(self.spaces[0], {k[0]: c for k, c in self.terms.items()})

    def __str__(self):
        return format_terms(
            (str(self.terms[k]), " (x) ".join(
                format_monomial(p.generators, m) or "1"
                for p, m in zip(self.spaces, k)))
            for k in sorted(self.terms, key=lambda k: tuple(
                (sum(abs(e) for e in m), m) for m in k)))

    def __repr__(self):
        return f"<tensor rank {self.rank}: {self}>"


def _expand_slots(out, base, slots):
    """Accumulate base * (slot_0 (x) ... (x) slot_k) into out.

    The outer product of tensor products and of products of tensors: an
    AlgebraElement slot adds one leg, a TensorElement as many as its rank.
    A unit factor is never multiplied.  The keys of one expansion are
    distinct, as each slot's are, so they are added into out in one sum.
    """
    pairs = [((), base)]
    for slot in slots:
        if isinstance(slot, TensorElement):
            pairs = [(key + leg,
                      c if k is ONE else k if c is ONE else k * c)
                     for key, c in pairs for leg, k in slot.terms.items()]
        else:
            pairs = [(key + (mon,),
                      c if k is ONE else k if c is ONE else k * c)
                     for key, c in pairs for mon, k in slot.terms.items()]
    if pairs:  # a zero slot leaves nothing to add
        accumulate(out, dict(pairs), ONE)


def accumulate(out, terms, c):
    """Add c * terms into the dict out, dropping keys whose sum cancels.

    The one sparse sum of the engine: sums, products, tensors, morphism
    images and the eliminations of linear_solve merge through it.  c must
    be nonzero; a unit factor, c or a coefficient of terms, is never
    multiplied.
    """
    for key, k in terms.items():
        k = c if k is ONE else k if c is ONE else k * c
        s = out.get(key)
        if s is None:
            out[key] = k
        else:
            s = s + k
            if s.is_zero():
                del out[key]
            else:
                out[key] = s


def _legs(x):
    """The presentations of the legs that x adds as a slot of a tensor."""
    if isinstance(x, TensorElement):
        return x.spaces
    if isinstance(x, AlgebraElement):
        return (x.pres,)
    return ()


# -- morphisms ---------------------------------------------------------


def build_by_letters(cache, source, mon, join):
    """The value of the normal monomial mon = prefix*L, L its last letter,
    as join(value of prefix, value of L).  Last letters are peeled until a
    prefix's value is in cache, which must hold every letter (generator to
    the power +-1) of mon, then put back, caching every prefix's value."""
    peeled = []  # (value of the last letter, the prefix it ends)
    hit = cache.get(mon)
    while hit is None:
        g = max(k for k, e in enumerate(mon) if e)
        s = 1 if mon[g] > 0 else -1
        peeled.append((cache[source._gen_mon(g, s)], mon))
        mon = mon[:g] + (mon[g] - s,) + mon[g + 1:]
        hit = cache.get(mon)
    for letter, prefix in reversed(peeled):
        hit = cache[prefix] = join(hit, letter)
    return hit


class Morphism:
    """Linear extension of a generator table.

    kind is one of:
      "hom"      algebra homomorphism
      "antihom"  anti-homomorphism (reverses words)
    and conjugate=True makes it conjugate-linear.  Images may live in an
    algebra, a tensor square, or the scalars; invertible generators need
    invertible images, which are inverted on construction.  Construction
    verifies that the images of all defining relations vanish.
    """

    def __init__(self, source, images, kind="hom", conjugate=False,
                 name="morphism"):
        if kind not in ("hom", "antihom"):
            raise InvalidArgument(f"bad morphism kind {kind!r}")
        self.source = source
        self.kind = kind
        self.conjugate = conjugate
        self.name = name
        if isinstance(images, dict):
            images = [images[g] for g in source.generators]
        self.images = list(images)
        # the image of prefix*L from those of prefix and of the letter L
        self._join = operator.mul if kind == "hom" else lambda a, b: b * a
        img = self.images[0] if self.images else ONE
        self._target_one = img._one() if isinstance(img, _Combination) else ONE
        # the unit and every letter (generator to the power +-1) are cached
        # from the start, so a monomial's image is built from a shorter one
        self._mono_cache = {source.one_mon: self._target_one}
        for g, img in enumerate(self.images):
            self._mono_cache[source._gen_mon(g, 1)] = img
            if source.invertible[g]:
                self._mono_cache[source._gen_mon(g, -1)] = \
                    ONE / img if isinstance(img, Scalar) else img.inverse()
        self._check_relations()

    def _mono_image(self, mon):
        """Image of a normal monomial, built one letter at a time by
        build_by_letters with this morphism's _join."""
        hit = self._mono_cache.get(mon)
        if hit is not None:
            return hit
        return build_by_letters(self._mono_cache, self.source, mon, self._join)

    def apply(self, e):
        check_element(self.name, e, self.source)
        if len(e.terms) < 2 or isinstance(self._target_one, Scalar):
            out = None
            for mon, c in e.terms.items():
                if self.conjugate:
                    c = c.conjugate()
                img = self._mono_image(mon) * c
                out = img if out is None else out + img
            return self._target_one * ZERO if out is None else out
        # one dict for the whole sum: adding image by image would copy
        # the sum so far once per monomial
        out = {}
        for mon, c in e.terms.items():
            if self.conjugate:
                c = c.conjugate()
            accumulate(out, self._mono_image(mon).terms, c)
        return self._target_one._like(out)

    def _check_relations(self):
        gen_mon = self.source._gen_mon

        def word_image(word):
            img = self._target_one
            for g, e in word:
                img = self._join(img, self._mono_image(gen_mon(g, e)))
            return img

        for (gl, sl, gr, sr), rhs in self.source.rules.items():
            acc = word_image(((gl, sl), (gr, sr)))
            for c, word in rhs:
                if self.conjugate:
                    c = c.conjugate()
                acc = acc - word_image(word) * c
            if not acc.is_zero():
                gl_n, gr_n = self.source.generators[gl], self.source.generators[gr]
                raise RelationNotPreserved(
                    f"{self.name} breaks the {self.source.name} relation on "
                    f"{gl_n}^{sl} {gr_n}^{sr}: residue {acc}")


def morphism_apply(phi, e):
    """Functional entry point: apply a validated generator-table morphism."""
    return phi.apply(e)


def tensor_map(maps, te):
    """Apply one map per slot of a tensor element.

    Each map is a Morphism (scalar-, algebra- or tensor-valued) or None
    for the identity, one per slot: a list of another length raises
    InvalidArgument.  A scalar-valued slot is contracted away.  All
    conjugate-linear slots must agree, and the term coefficient is
    conjugated once iff the maps are conjugate-linear.

    The output legs come from the maps alone, so the type does not depend
    on the input, zero included: a Scalar when every slot is contracted,
    an AlgebraElement for one leg left, a TensorElement for more.
    """
    if not isinstance(te, TensorElement):
        raise InvalidArgument(f"tensor_map takes a tensor, not {te!r}")
    if len(maps) != te.rank:
        raise InvalidArgument(
            f"{len(maps)} maps given for a rank-{te.rank} tensor")
    conj_flags = {m.conjugate for m in maps if m is not None}
    if len(conj_flags) > 1:
        raise InvalidArgument("mixed linear / conjugate-linear tensor map")
    conj = conj_flags.pop() if conj_flags else False
    spaces = sum(((p,) if mp is None else _legs(mp._target_one)
                  for mp, p in zip(maps, te.spaces)), ())
    terms = te.terms
    # the last slot first, so that the slots before j keep their positions
    for j in reversed(range(len(maps))):
        if maps[j] is not None:
            terms = _map_slot(maps[j], j, terms, conj)
            conj = False  # the coefficients are conjugated once
    if not spaces:
        return terms.get((), ZERO)
    result = TensorElement(spaces, terms)
    return result.to_element() if len(spaces) == 1 else result


def _map_slot(mp, j, terms, conj):
    """The terms with slot j of every key replaced by its image under mp:
    a Scalar image is contracted into the coefficient, an AlgebraElement
    puts one monomial in the slot and a TensorElement its legs."""
    image = mp._mono_image
    kind = type(mp._target_one)
    out = {}
    for key, c in terms.items():
        if conj:
            c = c.conjugate()
        img = image(key[j])
        head, tail = key[:j], key[j + 1:]
        if kind is AlgebraElement:
            accumulate(out, {head + (mon,) + tail: k
                             for mon, k in img.terms.items()}, c)
        elif kind is TensorElement:
            accumulate(out, {head + leg + tail: k
                             for leg, k in img.terms.items()}, c)
        elif not img.is_zero():
            accumulate(out, {head + tail: img}, c)
    return out


# -- exact linear algebra over the scalar field ------------------------


def constraint_rows(unknowns, column):
    """The rows of the linear map sending each unknown u to column(u).

    column(u) is the image of u, a dict key -> Scalar; the result maps
    each key to its row {u: coeff}, in the shape linear_solve reads.
    """
    rows = {}
    for u in unknowns:
        for key, c in column(u).items():
            rows.setdefault(key, {})[u] = c
    return rows


def linear_solve(constraints, unknowns):
    """Basis of the solution space of homogeneous linear constraints.

    constraints: iterable of dicts unknown -> Scalar, each meaning
    "sum coeff * value(unknown) = 0".  unknowns: ordered list naming the
    solution coordinates.  Returns a list of dicts unknown -> Scalar in
    reduced row echelon shape, one per free unknown in order, which is its
    first key and a unit coordinate.  Empty list means only the zero solution.

    A constraint touching a name outside `unknowns` means an element
    escaped the declared window: WindowOverflow, enlarge and retry.
    """
    order = {u: k for k, u in enumerate(unknowns)}
    # pivot column -> its value as a combination of pivot-free columns, so
    # eliminating col from a row adds row[col] times pivots[col]
    pivots = {}
    for raw in constraints:
        try:
            row = {order[u]: c for u, c0 in raw.items()
                   if not (c := scalar(c0)).is_zero()}
        except KeyError as exc:
            raise WindowOverflow(
                f"constraint involves {exc.args[0]!r}, outside the declared "
                f"window; enlarge the window") from exc
        # the fill-in lies in pivot-free columns: no further elimination
        for col in sorted(row):
            if col in row and col in pivots:
                accumulate(row, pivots[col], row.pop(col))
        if not row:
            continue
        lead = min(row)
        inv = _MINUS_ONE / row.pop(lead)
        row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                accumulate(prow, row, prow.pop(lead))
        pivots[lead] = row
    basis = []
    for col, u in enumerate(unknowns):
        if col in pivots:
            continue
        vec = {u: ONE}
        for pcol, prow in pivots.items():
            if col in prow:
                vec[unknowns[pcol]] = prow[col]
        basis.append(vec)
    return basis


# -- printing ----------------------------------------------------------


def format_element(e):
    inv, names = e.pres.invertible, e.pres.generators
    def key(mon):
        return (sum(abs(x) for g, x in enumerate(mon) if not inv[g]),
                tuple(abs(x) for x in mon), mon)
    return format_terms([(str(e.terms[mon]), format_monomial(names, mon))
                         for mon in sorted(e.terms, key=key)])
