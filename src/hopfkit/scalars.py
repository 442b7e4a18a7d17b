"""Exact arithmetic in the coefficient field Q(i)(w, m, u).

A Scalar is a reduced fraction of polynomials in the three real symbols
w, m, u, with Gaussian-rational coefficients.  Everything is exact: no
floats anywhere.  The canonical form (gcd cleared, denominator monic
under graded-lex with w > m > u) makes equality a plain structural check.

Each coefficient is a GaussRat (a + b*i)/d: Gaussian-integer numerator
over one positive integer denominator, all Python ints, reduced so that
gcd(a, b, d) == 1.  Arithmetic on it runs on machine integers with at
most one gcd per result.  Every Scalar whose denominator is the constant
1 holds the module's P_ONE object itself, so the field operations test
for it by identity.  In the same way every Scalar of value 1 is the
module's ONE object, whichever operation made it (a product of units
such as i(-i), the conjugate of a real unit, a quotient x/x, a coerced
int 1 or the public constructor), so each `is ONE` shortcut here and in
the engine above skips every unit factor.

Sums, products and quotients follow Henrici (JACM 3(1), 1956; Knuth,
TAOCP vol. 2, 4.5.1): the gcds run on the operands' factors, never on
the full product.  A sum over one denominator, a/b + c/b (the same
object or equal terms, one term or many), cancels only g = gcd(a + c, b)
and divides by it only when g is not 1; b/g stays monic, as b and g are.
For a/b + c/d with g = gcd(b, d), the result is (a*d + c*b)/(b*d) when
g == 1; otherwise t = a*(d/g) + c*(b/g) can share a factor with g only,
so only gcd(t, g) is cancelled.  A product (a/b)(c/d) cancels
gcd(a, d) and gcd(c, b) first; a quotient is the product with the
divisor's reciprocal.  The operands are reduced with monic denominators,
so each result is already canonical and needs no final gcd of its
numerator and denominator.  The constructor Scalar(num, den) keeps that
general gcd for its callers.

Gcds (poly_gcd) split off the common monomial content first, and a
one-term operand makes that monomial the answer.  Two operands of two or
more terms take a modular gcd: Z[i] maps to Z_p, for fixed primes
p = 1 (mod 4), by sending i to a square root of -1.  Univariate images
(all variables but one at fixed points, leading coefficients nonzero)
bound the gcd's degree in each variable from above, by Gauss's lemma
over the UFD Z[i]; bounds all 0 prove the gcd is 1.  An operand whose
degrees meet the bounds is tried by exact division.  Primitive PRS
(prs_gcd) answers the rest: a gcd that is neither 1 nor an operand, or
operands for which every listed prime is unlucky.  The tests use it as
the reference.

Multiplication skips work whose answer is known: x * ONE and ONE * x
return x itself (after coercing an int, Fraction or GaussRat operand),
and so do p * P_ONE and P_ONE * p for a Poly p (the Henrici kernels
multiply by P_ONE denominators and cofactors often); a product with a
zero numerator returns the shared ZERO, and a product of two
single-term polynomials is one exponent add and one coefficient product
(the GaussRat arithmetic is inlined there and in a sum's loop over
shared exponents).  Two one-term scalars over monic monomial
denominators (P_ONE among them) multiply by adding exponent vectors: the
negative part of the sum is the denominator, so the result is reduced
with no gcd and no division.  Multi-term operands keep the Henrici path.
Values are never mutated after construction, so handing back an operand
is safe.  Every reduced result is built by one private constructor,
_scalar, which hands back ZERO for the value 0 and ONE for the value 1;
the public Scalar(num, den) always reduces and then builds through it.

The scalar tables are live only inside the scope _shared_values, which
the command line opens around each verification suite.  There _scalar
hands back one shared object per one-term value (one term over P_ONE or
a monic monomial), keyed by its numerator and denominator exponents and
the fields a, b, d of its coefficient; and a product or sum of two
one-term operands is looked up by the operands' identities,
(id(x), id(y)).  Each entry holds its operands and its result, so no id
in a key can be reused while the entry names it, and a miss runs the
kernels above, so every result is the one computed outside the scope.
Leaving the scope, by an exception too, empties the tables.  They do not
live as long as the process: parser traffic and direct arithmetic would
fill them with values that are never met again, so outside the scope an
operation costs one flag test and adds no entry.  Equality and hashing
stay structural.

Conjugation sends i to -i and fixes w, m, u; a real one-term value is
its own conjugate and is handed back itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, InvalidArgument, NotAScalar, check_exponent

NVARS = 3
VAR_NAMES = ("w", "m", "u")
_ZERO_EXP = (0, 0, 0)


class GaussRat:
    """Gaussian rational (a + b*i)/d on machine integers.

    a, b, d are Python ints with d > 0 and gcd(a, b, d) == 1, so equal
    values have equal fields; zero is (0, 0, 1).  Construct from real and
    imaginary parts, each an int or a Fraction: GaussRat(re, im).  The
    read-only properties re and im give them back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators, gcd(a, b, d) is 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # A binary operator reads the other operand's fields without a type
    # test; an operand that has none gets NotImplemented, so that its own
    # reflected operator (Scalar.__radd__ and the like) can answer.

    def __add__(self, other):
        d = self.d
        try:
            c, e, f = other.a, other.b, other.d
        except AttributeError:
            return NotImplemented
        if d == f:
            return _reduce(self.a + c, self.b + e, d)
        return _reduce(self.a * f + c * d, self.b * f + e * d, d * f)

    def __sub__(self, other):
        d = self.d
        try:
            c, e, f = other.a, other.b, other.d
        except AttributeError:
            return NotImplemented
        if d == f:
            return _reduce(self.a - c, self.b - e, d)
        return _reduce(self.a * f - c * d, self.b * f - e * d, d * f)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b = self.a, self.b
        try:
            c, e, f = other.a, other.b, other.d
        except AttributeError:
            return NotImplemented
        if not b:
            return _reduce(a * c, a * e, self.d * f)
        if not e:
            return _reduce(a * c, b * c, self.d * f)
        return _reduce(a * c - b * e, a * e + b * c, self.d * f)

    def __truediv__(self, other):
        try:
            c, e, f = other.a, other.b, other.d
        except AttributeError:
            return NotImplemented
        if not (c or e):
            raise DivisionByZero("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b = self.a, self.b
        return _reduce((a * c + b * e) * f, (b * c - a * e) * f,
                       self.d * (c * c + e * e))

    def __pow__(self, n):
        """Power by an int n: one Gaussian-integer power, one gcd.  A
        negative power is the power of the reciprocal."""
        check_exponent(n)
        if n < 0:
            return (GR_ONE / self) ** -n
        a, b, x, y, k = 1, 0, self.a, self.b, n
        while k:
            if k & 1:
                a, b = a * x - b * y, a * y + b * x
            x, y = x * x - y * y, 2 * x * y
            k >>= 1
        return _reduce(a, b, self.d ** n)

    def conjugate(self):
        return _make(self.a, -self.b, self.d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return _format_gauss(self)


_new_gauss = object.__new__


def _make(a, b, d):
    """GaussRat from fields already in canonical form."""
    r = _new_gauss(GaussRat)
    r.a, r.b, r.d = a, b, d
    return r


def _reduce(a, b, d):
    """GaussRat (a + b*i)/d for d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _make(a // g, b // g, d // g)
    return _make(a, b, d)


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def _grlex_key(exp):
    # graded lex, w most significant
    return (exp[0] + exp[1] + exp[2], exp)


class Poly:
    """Sparse polynomial in (w, m, u) over the Gaussian rationals.

    terms maps exponent triples to nonzero GaussRat coefficients.  The
    dict is never mutated after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def zero():
        return Poly({})

    @staticmethod
    def const(c):
        return Poly({_ZERO_EXP: c}) if c else Poly({})

    @staticmethod
    def var(idx):
        exp = [0, 0, 0]
        exp[idx] = 1
        return Poly({tuple(exp): GR_ONE})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def const_value(self):
        return self.terms.get(_ZERO_EXP, GR_ZERO)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
                continue
            # s + c, the GaussRat sum inlined
            d, f = s.d, c.d
            if d == f:
                a, b = s.a + c.a, s.b + c.b
            else:
                a, b, d = s.a * f + c.a * d, s.b * f + c.b * d, d * f
            if a or b:
                terms[e] = _reduce(a, b, d)
            else:
                del terms[e]
        return Poly(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        # polys are never mutated, so a unit factor returns the other
        if other is P_ONE:
            return self
        if self is P_ONE:
            return other
        if not self.terms or not other.terms:
            return Poly({})
        if len(self.terms) == 1 and len(other.terms) == 1:
            # Q(i) is a field, so the one coefficient product is nonzero;
            # the GaussRat product is inlined
            (e1, c1), = self.terms.items()
            (e2, c2), = other.terms.items()
            a, b, c, e = c1.a, c1.b, c2.a, c2.b
            return Poly({(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]):
                         _reduce(a * c - b * e, a * e + b * c, c1.d * c2.d)})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                c = c1 * c2
                s = terms.get(e)
                if s is None:
                    terms[e] = c
                else:
                    s = s + c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return Poly(terms)

    def scale(self, c):
        if not c:
            return Poly({})
        return Poly({e: k * c for e, k in self.terms.items()})

    def conjugate(self):
        return Poly({e: c.conjugate() for e, c in self.terms.items()})

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def monic(self):
        _, lc = self.leading()
        if lc == GR_ONE:
            return self, GR_ONE
        inv = GR_ONE / lc
        return Poly({e: c * inv for e, c in self.terms.items()}), lc

    def degree(self, var):
        return max((e[var] for e in self.terms), default=0)

    def __str__(self):
        return _format_poly(self)

    def __repr__(self):
        return f"Poly({_format_poly(self)!r})"


P_ZERO = Poly.zero()
P_ONE = Poly.const(GR_ONE)


def _mono_content(p, lo=None):
    """Largest monomial dividing every term of p (exponent triple).

    With lo given, the largest one that also divides the monomial lo.
    """
    it = iter(p.terms)
    lo = list(next(it) if lo is None else lo)
    for e in it:
        if lo == [0, 0, 0]:
            break
        if e[0] < lo[0]:
            lo[0] = e[0]
        if e[1] < lo[1]:
            lo[1] = e[1]
        if e[2] < lo[2]:
            lo[2] = e[2]
    return tuple(lo)


def _mono_shift(p, shift):
    """Divide p by the monomial with exponents `shift` (must divide)."""
    if shift == _ZERO_EXP:
        return p
    return Poly({(e[0] - shift[0], e[1] - shift[1], e[2] - shift[2]): c
                 for e, c in p.terms.items()})


def _exact_div(p, q):
    """Exact polynomial division p / q; q must divide p."""
    if len(q.terms) == 1:
        # a monomial (the usual gcd) divides term by term
        (qe, qc), = q.terms.items()
        inv = None if qc == GR_ONE else GR_ONE / qc
        out = {}
        for e, c in p.terms.items():
            e = (e[0] - qe[0], e[1] - qe[1], e[2] - qe[2])
            if min(e) < 0:
                raise ArithmeticError("non-exact polynomial division")
            out[e] = c if inv is None else c * inv
        return Poly(out)
    rem = p
    out = {}
    qe, qc = q.leading()
    while rem.terms:
        re, rc = rem.leading()
        e = (re[0] - qe[0], re[1] - qe[1], re[2] - qe[2])
        if min(e) < 0:
            raise ArithmeticError("non-exact polynomial division")
        c = rc / qc
        out[e] = c
        rem = rem - q * Poly({e: c})
    return Poly(out)


def _divides(q, p):
    """Whether q divides p exactly over Q(i) (trial division)."""
    if any(x > y for x, y in zip(_degrees(q), _degrees(p))):
        return False
    try:
        _exact_div(p, q)
    except ArithmeticError:
        return False
    return True


def _degrees(p):
    """Degree of p in each of w, m, u."""
    d = [0, 0, 0]
    for e in p.terms:
        if e[0] > d[0]:
            d[0] = e[0]
        if e[1] > d[1]:
            d[1] = e[1]
        if e[2] > d[2]:
            d[2] = e[2]
    return d


def poly_gcd(a, b):
    """Monic gcd of two polynomials over Q(i).

    The common monomial content is split off first; when either operand
    is a single term, that monomial is the answer at once.  Two operands
    of two or more terms go to the modular algorithm (_multiterm_gcd).
    Its coprime exit is a proof, not a heuristic: the image of the gcd
    under each ring map Z[i] -> Z_p divides both images and keeps its
    degree wherever the operands' leading coefficients survive, so image
    gcds of degree 0 in every shared variable leave the gcd no variable.
    An operand whose degrees meet the bounds is the answer once it
    divides the other exactly.  Primitive PRS (prs_gcd) runs for every
    other gcd, and when the list of primes runs out: each one divides a
    coefficient denominator or annihilates a leading coefficient.
    """
    if a.is_zero():
        return b.monic()[0] if not b.is_zero() else P_ZERO
    if b.is_zero():
        return a.monic()[0]
    if len(a.terms) == 1:
        return Poly({_mono_content(b, next(iter(a.terms))): GR_ONE})
    if len(b.terms) == 1:
        return Poly({_mono_content(a, next(iter(b.terms))): GR_ONE})
    ca, cb = _mono_content(a), _mono_content(b)
    common = (min(ca[0], cb[0]), min(ca[1], cb[1]), min(ca[2], cb[2]))
    g = _multiterm_gcd(_mono_shift(a, ca), _mono_shift(b, cb))
    if common == _ZERO_EXP:
        return g
    return g * Poly({common: GR_ONE})


# -- the modular gcd ------------------------------------------------------
#
# Z[i] maps onto Z_p by i -> r, a square root of -1 mod a prime
# p = 1 (mod 4); a coefficient (a + b*i)/d maps to (a + b*r)/d when p
# does not divide d.  Write a = A/D with A in Z[i][w, m, u]: a gcd G of
# a and b, made primitive over Z[i], divides A there (Gauss's lemma, Z[i]
# being a UFD), and so the image of G divides the images of A and B.
# Whenever the image of a leading coefficient of A is nonzero, the image
# of G keeps its leading term, so an image gcd never has lower degree
# than G.  That makes the coprime exit exact; an operand that meets the
# bounds is the gcd once trial division shows it divides the other.

# Primes p = 1 (mod 4) just below 2^61.
_PRIMES = (2305843009213693921, 2305843009213693693, 2305843009213693669,
           2305843009213693613, 2305843009213693561, 2305843009213693549,
           2305843009213693421, 2305843009213693373)


def _sqrt_minus_one(p):
    """A square root of -1 modulo a prime p = 1 (mod 4)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1  # the least quadratic non-residue
    return pow(c, (p - 1) // 4, p)


# Evaluation points for w, m and u (hex digits of pi).  The j-th prime
# (from 1) takes j times them mod p, so a leading coefficient must
# vanish at a different point for each prime to defeat them all.
_POINTS = (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0)

_EMBEDDINGS = tuple((p, _sqrt_minus_one(p), tuple(x * j % p for x in _POINTS))
                    for j, p in enumerate(_PRIMES, 1))


def _image(f, p, r):
    """f under i -> r mod p, as {exponent: int}; None if p divides a
    coefficient denominator."""
    out = {}
    inverses = {1: 1}
    for e, c in f.terms.items():
        inv = inverses.get(c.d)
        if inv is None:
            if not c.d % p:
                return None
            inv = inverses[c.d] = pow(c.d, -1, p)
        v = (c.a + c.b * r) * inv % p
        if v:
            out[e] = v
    return out


# Dense univariate polynomials over Z_p are lists of ints, constant term
# first, with no trailing zeros; [] is zero.


def _urem(f, g, p):
    """Remainder of f by g over Z_p."""
    f = list(f)
    n = len(g) - 1
    inv = pow(g[-1], -1, p)
    for k in range(len(f) - 1 - n, -1, -1):
        c = f[k + n] * inv % p
        for j in range(n + 1):
            f[k + j] = (f[k + j] - c * g[j]) % p
    del f[n:]
    while f and not f[-1]:
        f.pop()
    return f


def _ugcd(f, g, p):
    """Monic gcd over Z_p."""
    while g:
        f, g = g, _urem(f, g, p)
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _univariate(f, x, deg, pts, p):
    """Dense image in variable x of f mod p, the other variables set to
    pts; None unless it keeps degree deg (a nonzero leading coefficient)."""
    out = [0] * (deg + 1)
    for e, c in f.items():
        for v in range(NVARS):
            if v != x and e[v]:
                c = c * pow(pts[v], e[v], p)
        out[e[x]] += c
    return [c % p for c in out] if out[deg] % p else None


def _image_degrees(a, b, da, db):
    """Per variable, the degree of a gcd of univariate images of a and b.

    Each entry bounds the degree of gcd(a, b) in that variable from
    above; a variable that one operand lacks gets 0.  None when every
    prime divides a denominator or annihilates a leading coefficient.
    """
    shared = [v for v in range(NVARS) if da[v] and db[v]]
    for p, r, pts in _EMBEDDINGS:
        fa, fb = _image(a, p, r), _image(b, p, r)
        if fa is None or fb is None:
            continue
        degs = [0, 0, 0]
        for x in shared:
            ua = _univariate(fa, x, da[x], pts, p)
            ub = _univariate(fb, x, db[x], pts, p)
            if ua is None or ub is None:
                break
            degs[x] = len(_ugcd(ua, ub, p)) - 1
        else:
            return degs
    return None


def _multiterm_gcd(a, b):
    """Monic gcd of a and b, two or more terms each, no variable dividing
    either.

    Univariate images give per-variable degree bounds.  All zero: the gcd
    is 1.  Equal to one operand's degrees: that operand is the candidate,
    accepted only after exact trial division.  Everything else, and the
    case where the primes run out, goes to primitive PRS.
    """
    da, db = _degrees(a), _degrees(b)
    if not any(x and y for x, y in zip(da, db)):
        return P_ONE  # no shared variable
    degs = _image_degrees(a, b, da, db)
    if degs is not None:
        if not any(degs):
            return P_ONE
        for f, df, other in ((b, db, a), (a, da, b)):
            if degs == df and _divides(f, other):
                return f.monic()[0]
    return prs_gcd(a, b)


# -- primitive PRS: the fallback, and the reference the tests compare to --


def _univar(p, var):
    """View p as a polynomial in one variable with Poly coefficients."""
    coeffs = {}
    for e, c in p.terms.items():
        d = e[var]
        rest = list(e)
        rest[var] = 0
        key = tuple(rest)
        bucket = coeffs.setdefault(d, {})
        bucket[key] = bucket.get(key, GR_ZERO) + c
    return {d: Poly({e: c for e, c in t.items() if c}) for d, t in coeffs.items()}


def _from_univar(coeffs, var):
    terms = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            ee = list(e)
            ee[var] = d
            terms[tuple(ee)] = c
    return Poly(terms)


def _prem(a, b, var):
    """Pseudo-remainder of a by b with respect to `var`."""
    ua, ub = _univar(a, var), _univar(b, var)
    da, db = max(ua), max(ub)
    lcb = ub[db]
    while da >= db and ua:
        lca = ua[da]
        # lcb * a  -  lca * x^(da-db) * b
        shift = {d + da - db: p for d, p in ub.items()}
        newa = {}
        for d in set(ua) | set(shift):
            p = ua.get(d, P_ZERO) * lcb - shift.get(d, P_ZERO) * lca
            if not p.is_zero():
                newa[d] = p
        ua = newa
        if not ua:
            return P_ZERO
        da = max(ua)
    return _from_univar(ua, var)


def _content_and_primitive(p, var):
    u = _univar(p, var)
    coeffs = list(u.values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = prs_gcd(cont, c)
        if cont.is_const():
            break
    if cont.is_const():
        prim, _ = p.monic()
        return P_ONE, prim
    return cont, _exact_div(p, cont)


def prs_gcd(a, b):
    """Monic gcd of two polynomials over Q(i), by primitive PRS.

    Monomial content is split off first; the recursion (contents and
    coefficients) stays in PRS, so this is independent of poly_gcd.
    """
    if a.is_zero():
        return b.monic()[0] if not b.is_zero() else P_ZERO
    if b.is_zero():
        return a.monic()[0]
    ca, cb = _mono_content(a), _mono_content(b)
    common = (min(ca[0], cb[0]), min(ca[1], cb[1]), min(ca[2], cb[2]))
    a = _mono_shift(a, ca)
    b = _mono_shift(b, cb)
    if a.is_const() or b.is_const():
        g = Poly({common: GR_ONE})
    else:
        var = next(v for v in range(NVARS)
                   if a.degree(v) > 0 or b.degree(v) > 0)
        if a.degree(var) == 0 or b.degree(var) == 0:
            # var appears in only one argument: recurse into coefficients
            flat = a if a.degree(var) == 0 else b
            other = b if flat is a else a
            g = flat
            for coeff in _univar(other, var).values():
                g = prs_gcd(g, coeff)
                if g.is_const():
                    break
            g = g * Poly({common: GR_ONE})
            return g.monic()[0]
        conta, prima = _content_and_primitive(a, var)
        contb, primb = _content_and_primitive(b, var)
        contg = prs_gcd(conta, contb)
        x, y = prima, primb
        if x.degree(var) < y.degree(var):
            x, y = y, x
        while not y.is_zero():
            r = _prem(x, y, var)
            if r.is_zero():
                x, y = y, r
            else:
                _, rprim = _content_and_primitive(r, var)
                x, y = y, rprim
        g = (contg * x.monic()[0]) * Poly({common: GR_ONE})
    return g.monic()[0]


class Scalar:
    """Element of Q(i)(w, m, u) in canonical reduced form num/den.

    num and den are Polys with gcd 1 and den monic.  A constant
    denominator is always the shared P_ONE object, never an equal copy:
    `x.den is P_ONE` holds exactly when x is a polynomial.  Likewise
    `x is ONE` holds exactly when x == 1.
    """

    __slots__ = ("num", "den", "_hash")

    def __new__(cls, num, den=P_ONE):
        if den.is_zero():
            raise DivisionByZero("zero polynomial denominator")
        if num.is_zero():
            return ZERO
        if den.is_const():
            c = den.const_value()
            return _scalar(num if c == GR_ONE else num.scale(GR_ONE / c),
                           P_ONE)
        g = poly_gcd(num, den)
        if not (g.is_const() and g.const_value() == GR_ONE):
            num = _exact_div(num, g)
            den = _exact_div(den, g)
        den, lc = den.monic()
        if lc != GR_ONE:
            num = num.scale(GR_ONE / lc)
        return _scalar(num, P_ONE if den.is_const() else den)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    # -- field operations ---------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((frozenset(self.num.terms.items()),
                                   frozenset(self.den.terms.items())))
            return h

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # scalars are never mutated, so a zero summand returns the other
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if _live:
            hit = _sums.get((id(self), id(other)))
            if hit is not None:
                return hit[2]
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is P_ONE and d is P_ONE:
            s = _scalar(a + c, P_ONE)
        elif b is d or b.terms == d.terms:
            # a common denominator: only a factor of b can divide a + c
            t = a + c
            if t.terms:
                g = poly_gcd(t, b)
                if not g.is_const():
                    t, b = _exact_div(t, g), _exact_div(b, g)
            s = _fraction(t, b)
        else:
            g = P_ONE if b is P_ONE or d is P_ONE else poly_gcd(b, d)
            if g.is_const():
                s = _fraction(a * d + c * b, b * d)
            else:
                d = _exact_div(d, g)
                # t is not 0: reduced operands with monic denominators
                # cancel only over one denominator, the branch above
                t = a * d + c * _exact_div(b, g)
                # only a factor of g can divide both t and b*d/g
                g = poly_gcd(t, g)
                if not g.is_const():
                    t, b = _exact_div(t, g), _exact_div(b, g)
                s = _fraction(t, b * d)
        if _live and (len(a.terms) == len(c.terms) == len(self.den.terms)
                      == len(other.den.terms) == 1):
            _sums[id(self), id(other)] = (self, other, s)
        return s

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _scalar(-self.num, self.den)

    def __mul__(self, other):
        if other is ONE:
            return self
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self is ONE:
            return other
        if _live:
            key = (id(self), id(other))
            hit = _products.get(key)
            if hit is not None:
                return hit[2]
            n1, d1 = self.num.terms, self.den.terms
            n2, d2 = other.num.terms, other.den.terms
            if len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1:
                r = _one_term_product(n1, d1, n2, d2)
                _products[key] = (self, other, r)
                return r
        if not self.num.terms or not other.num.terms:
            return ZERO
        if self.den is P_ONE and other.den is P_ONE:
            return _scalar(self.num * other.num, P_ONE)
        n1, d1 = self.num.terms, self.den.terms
        n2, d2 = other.num.terms, other.den.terms
        if len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1:
            return _one_term_product(n1, d1, n2, d2)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        if not self.num.terms:
            return ZERO
        # 1/other = (den/lc) / (num/lc), with num/lc monic
        den, lc = other.num.monic()
        num = other.den if lc == GR_ONE else other.den.scale(GR_ONE / lc)
        return _product(self.num, self.den, num,
                        P_ONE if den.is_const() else den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        check_exponent(n)
        if n < 0:
            return (ONE / self) ** (-n)
        if n == 1:
            return self
        if n > 1 and self.den is P_ONE and len(self.num.terms) == 1:
            # one term: scale its exponents, power its coefficient
            (e, c), = self.num.terms.items()
            return _scalar(Poly({(e[0] * n, e[1] * n, e[2] * n): c ** n}),
                           P_ONE)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        return ONE / self

    def conjugate(self):
        num, den = self.num, self.den
        if len(num.terms) == 1 and len(den.terms) == 1:
            (c,) = num.terms.values()
            if not c.b:
                # a real term over a monic monomial is its own conjugate
                return self
        if den is not P_ONE:
            # den stays monic: its leading coefficient 1 is real
            den = den.conjugate()
        return _scalar(num.conjugate(), den)

    def __str__(self):
        if self.den is P_ONE:
            return _format_poly(self.num)
        return f"({_format_poly(self.num)})/({_format_poly(self.den)})"

    def __repr__(self):
        return f"Scalar({self!s})"


_new_scalar = object.__new__

# The scalar tables (see the module docstring): one-term values by
# (numerator exponent, denominator exponent, a, b, d), and the entries
# (x, y, x op y) of products and sums by (id(x), id(y)).
_live = False
_values = {}
_products = {}
_sums = {}


@contextmanager
def _shared_values():
    """Within this scope every one-term value built is one shared object,
    and products and sums of one-term operands are looked up by operand
    identity; on leaving it, by an exception too, the tables are emptied."""
    global _live
    _live = True
    try:
        yield
    finally:
        _live = False
        _values.clear()
        _products.clear()
        _sums.clear()


def _scalar(num, den):
    """Scalar from num and den already in canonical form: the one
    constructor of every reduced result, with no gcd.  The values 0 and
    1 are the shared ZERO and ONE; inside _shared_values every one-term
    value is one shared object too."""
    terms = num.terms
    if den is P_ONE:
        if len(terms) == 1:
            c = terms.get(_ZERO_EXP)
            if c is not None and c.a == 1 and c.d == 1 and not c.b:
                return ONE
        elif not terms:
            return ZERO
    if _live and len(terms) == 1 and len(den.terms) == 1:
        (e, c), = terms.items()
        f, = den.terms
        key = (e, f, c.a, c.b, c.d)
        s = _values.get(key)
        if s is not None:
            return s
        s = _values[key] = _new_scalar(Scalar)
    else:
        s = _new_scalar(Scalar)
    s.num, s.den = num, den
    return s


def _fraction(num, den):
    """Scalar num/den from coprime num and monic den, with no gcd."""
    if not num.terms:
        return ZERO
    return _scalar(num, P_ONE if den.is_const() else den)


def _one_term_product(n1, d1, n2, d2):
    """(a/b)(c/d) from the term dicts of one-term a, c over monic
    monomials b, d (P_ONE is the monomial 1).

    The product is one term times w, m, u to the exponent sum a + c - b - d.
    Its positive part stays in the numerator and its negative part is the
    monic monomial denominator, so the result is reduced with no gcd.
    """
    (e1, c1), = n1.items()
    (e2, c2), = n2.items()
    f1, = d1
    f2, = d2
    x = e1[0] + e2[0] - f1[0] - f2[0]
    y = e1[1] + e2[1] - f1[1] - f2[1]
    z = e1[2] + e2[2] - f1[2] - f2[2]
    c = c1 * c2
    if x >= 0 and y >= 0 and z >= 0:
        return _scalar(Poly({(x, y, z): c}), P_ONE)
    return _scalar(Poly({(x if x > 0 else 0, y if y > 0 else 0,
                          z if z > 0 else 0): c}),
                   Poly({(0 if x > 0 else -x, 0 if y > 0 else -y,
                          0 if z > 0 else -z): GR_ONE}))


def _product(a, b, c, d):
    """(a/b)(c/d) for reduced a/b, c/d with monic b, d (P_ONE if constant).

    Cancelling gcd(a, d) and gcd(c, b) before multiplying leaves a
    reduced product: gcd(a, b) = gcd(c, d) = 1 already.
    """
    if d is not P_ONE:
        g = poly_gcd(a, d)
        if not g.is_const():
            a, d = _exact_div(a, g), _exact_div(d, g)
    if b is not P_ONE:
        g = poly_gcd(c, b)
        if not g.is_const():
            c, b = _exact_div(c, g), _exact_div(b, g)
    return _fraction(a * c, b * d)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        x = GaussRat(x)
    elif not isinstance(x, GaussRat):
        return None
    return _scalar(Poly({_ZERO_EXP: x}), P_ONE) if x else ZERO


def scalar(x) -> Scalar:
    """Coerce an int, Fraction or GaussRat into a Scalar."""
    s = _coerce(x)
    if s is None:
        raise NotAScalar(f"cannot coerce {x!r} to Scalar")
    return s


# built directly: _scalar hands back these objects for every value 0 and 1
ZERO = _new_scalar(Scalar)
ZERO.num, ZERO.den = P_ZERO, P_ONE
ONE = _new_scalar(Scalar)
ONE.num, ONE.den = P_ONE, P_ONE
I = Scalar(Poly.const(GR_I))
W = Scalar(Poly.var(0))
M = Scalar(Poly.var(1))
U = Scalar(Poly.var(2))


def arith(a: Scalar, b: Scalar, kind: str) -> Scalar:
    """Field operation dispatch: kind in {add, sub, mul, div}."""
    a, b = scalar(a), scalar(b)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    raise InvalidArgument(f"unknown arithmetic kind {kind!r}")


def conjugate(a: Scalar) -> Scalar:
    """Complex conjugation: i -> -i, the real symbols w, m, u fixed."""
    return scalar(a).conjugate()


# -- printing ----------------------------------------------------------


def _format_ratio(n, d):
    """n/d in lowest terms, printed as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _format_gauss(c):
    """Render a Gaussian rational in the expression grammar (a mixed value
    as a bare sum)."""
    a, b, d = c.a, c.b, c.d
    if not b:  # gcd(a, d) == 1 here
        return str(a) if d == 1 else f"{a}/{d}"
    if not a:
        # gcd(b, d) == 1 here, so b/d is +-1 only when b == +-d
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{_format_ratio(b, d)}*i"
    sign, b = ("+", b) if b > 0 else ("-", -b)
    return f"{_format_ratio(a, d)} {sign} {_format_ratio(b, d)}*i"


def format_monomial(names, exps):
    """The product of names[k]^exps[k], with ^1 and zero exponents left
    out; the unit prints as ""."""
    parts = []
    for v, e in zip(names, exps):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_terms(pairs):
    """The signed sum of (coefficient text, monomial text) pairs in the
    grammar parse reads: a coefficient that prints as a sum is
    parenthesized, 1 and -1 before a monomial are left out, "" is the unit
    monomial and no pairs print as "0"."""
    out = []
    for coeff, mono in pairs:
        if " + " in coeff or " - " in coeff:
            coeff = f"({coeff})"
        if not mono:
            piece = coeff
        elif coeff == "1":
            piece = mono
        elif coeff == "-1":
            piece = f"-{mono}"
        else:
            piece = f"{coeff}*{mono}"
        if out:
            piece = f"- {piece[1:]}" if piece[0] == "-" else f"+ {piece}"
        out.append(piece)
    return " ".join(out) if out else "0"


def _format_poly(p):
    return format_terms(
        [(_format_gauss(p.terms[exp]), format_monomial(VAR_NAMES, exp))
         for exp in sorted(p.terms, key=_grlex_key, reverse=True)])
