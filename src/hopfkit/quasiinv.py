"""Quasi-invariant functionals, weight cocycles and the d0/d1 cohomology.

The flagship instance: nu_w on the Laurent algebra LAURENT, spanned by
{chi^l}, quasi-invariant for the weight

    phi[X] = eps(X) + sum_{n>=1} c_n <X, v^n> chi^n,
    c_n = (wm/2)^n (2n-1)!!/n!,

but not essentially invariant: the B-row of the coboundary system forces
a_l (l - 1/2) = 0 for every l, so no invertible xi exists.

LAURENT is one more Presentation (a single invertible generator chi and
no rules), so its elements are AlgebraElements and share the engine's
arithmetic and product cache.  Its operators form the Presentation OPS
in chi and the Euler operator E chi^l = l chi^l, applied by act(op, f),
so an action of uq-g1 on LAURENT is a Morphism uq-g1 -> OPS, with its
relations checked at construction for every l.  Everything is phrased
over a module *-algebra wrapper so the same check code drives three
targets: LAURENT, its fraction field (needed for d1 d0 = 0 at
non-invertible xi), and the v-polynomial homogeneous space inside fq-g1
with the regular action.  The fraction field keeps num/den pairs as
built, with no gcd: LAURENT is an integral domain, and the checks only
ask whether a value is zero or whether two values are equal.

One twisted action, twisted_action(phi, X, a, side), computes the sum
sum X_(1).a phi[X_(2)] (its right mirror sum phi[X_(1)] a.X_(2)) behind
the cocycle law, the coboundary twist, the lemma form of quasi-invariance
and, in induce, the unitarized representations rho_tilde_generic and
rho_from_weight.  A chi module is its action, a Morphism uq-g1 -> OPS:
act_mono and act read the operator off it and apply it by one method,
_apply, which is act on LAURENT and the quotient rule for E on the
fraction field, so the weight's action is written once, in _chi_action.
rho_from_weight passes the Galilei module to the sum as module=.  The
sum is bilinear in X and a, so on an AlgebraElement a it is evaluated
once per basis pair: the value on one uq-g1 monomial and one basis
element is kept in a dict on the Weight, keyed by (module, side, umon,
amon), for as long as the Weight lives.  A ChiFraction a has no basis
terms and is summed directly.

Zero work is skipped, and every skip is exact because each map is
linear: a weight sums only its nonzero monomial values, the leg sum
drops a coproduct leg whose weight value is zero before the module acts,
a chi module gives its zero for a zero operator (the weight's action
sends M and T to zero), and the cocycle rows form no twisted sum of a
zero value.  The vector and the side are checked before any of these
shortcuts, so a guard that raises on a nonzero input raises on a zero
one too.  A chi module reads its hom on the right only when the hom is
also an antihom, that is when its generator images commute pairwise: the
weight's module serves both sides, the Galilei tables the left only.

The check batteries work row by row.  The cocycle battery (both sides)
and the d1 d0 rows weigh each window element once, read XY from the
engine's product cache and compare the law's two sides with ==, where
d1_defect subtracts the same two sides.  The def form of the
quasi-invariance check builds each leg value once per monomial and each
cell value h(p1 a p2) once per distinct (p1, p2, a) in a report.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import (SIDES, InvalidArgument, NotGroupLike, NotInvertible,
                     NotTauReal, PresentationMismatch, StarUndefined,
                     check_choice, check_element, check_sizes)
from .hopf import algebra_presentation, builtin
from .ncalg import (AlgebraElement, Morphism, Presentation, accumulate,
                    constraint_rows, linear_solve)
from .pairing import engine as pairing_engine
from .report import CheckReport
from .scalars import I, M as SM, ONE, Scalar, W, ZERO, scalar

IWM = I * W * SM


# -- the Laurent algebra in chi -------------------------------------------

LAURENT = Presentation("chi", ("chi",), (True,), {})


def chi(l=1, coeff=ONE) -> AlgebraElement:
    """The element coeff * chi^l of LAURENT."""
    return LAURENT.monomial((l,)).scale(coeff)


# operators on LAURENT; chi^a E^b (E chi^l = l chi^l) is the monomial (a, b)
OPS = Presentation("ops", ("chi", "E"), (True, False), {
    (1, 1, 0, 1): [(ONE, ((0, 1), (1, 1))), (ONE, ((0, 1),))],
    (1, 1, 0, -1): [(ONE, ((0, -1), (1, 1))), (-ONE, ((0, -1),))],
})


def act(op: AlgebraElement, f: AlgebraElement) -> AlgebraElement:
    """chi^a E^b in OPS sends chi^l in LAURENT to l^b chi^(a+l)."""
    check_element("act", op, OPS)
    check_element("act", f, LAURENT)
    out = {}
    for (l,), k in f.terms.items():
        row = {}  # op's coefficients at l, summed per chi power, then times k
        for (a, b), c in op.terms.items():
            if l or not b:
                t = c * l ** b if b else c
                s = row.get(a + l)
                row[a + l] = t if s is None else s + t
        for e, c in row.items():
            c = k if c is ONE else c * k
            s = out.get((e,))
            out[(e,)] = c if s is None else s + c
    return AlgebraElement(LAURENT, {e: c for e, c in out.items() if c})


@functools.cache
def _chi_action() -> Morphism:
    return Morphism(builtin("uq-g1").pres, [OPS.zero(), OPS.one(), OPS.zero(),
                    OPS.gen("chi") * OPS.gen("E") * IWM], name="chi_action")


@functools.cache
def _h0_to_chi() -> Morphism:
    # v0 = (1 - chi^-1)/(wm) and v1 = (chi - 1)/(wm); the construction
    # checks the h0-irr relation w m v0 v1 = v1 - v0 on these images
    wm_inv = ONE / (W * SM)
    return Morphism(algebra_presentation("h0-irr"),
                    [(LAURENT.one() - chi(-1)).scale(wm_inv),
                     (chi(1) - LAURENT.one()).scale(wm_inv)],
                    name="chi_from_h0")


def chi_from_h0(e: AlgebraElement) -> AlgebraElement:
    """Convert a v0/v1 polynomial to the chi basis."""
    return _h0_to_chi().apply(e)


# -- fraction field of the chi algebra -----------------------------------


class ChiFraction:
    """Element num/den of the fraction field of the chi-Laurent algebra.

    LAURENT is an integral domain, so the pair is kept as built, with no
    gcd and no normal form: num/den is zero iff num is, a/b == c/d iff
    a d == c b, and a sum is (a d + c b)/(b d), except that a zero
    summand returns the other operand as it stands, with no product.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: AlgebraElement, den: AlgebraElement | None = None):
        if den is None:
            den = LAURENT.one()
        elif den.is_zero():
            raise NotInvertible("zero denominator in the chi fraction field")
        self.num, self.den = num, den

    @staticmethod
    def one():
        return ChiFraction(LAURENT.one())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ChiFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        return ChiFraction(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChiFraction(-self.num, self.den)

    def scale(self, c):
        return ChiFraction(self.num.scale(c), self.den)

    def __mul__(self, other):
        if not isinstance(other, ChiFraction):
            return self.scale(other)
        return ChiFraction(self.num * other.num, self.den * other.den)

    def inverse(self):
        return ChiFraction(self.den, self.num)

    def __str__(self):
        if self.den == LAURENT.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<chi-frac: {self}>"


# -- module *-algebra wrappers -------------------------------------------


class ChiModule:
    """The chi algebra as the module *-algebra target of the checks.

    A chi module is its action, a checked Morphism uq-g1 -> OPS.  The
    default is the weight's: K -> 1, B -> iwm chi E, T -> 0 and M -> 0, so
    B shifts and scales, chi^l |-> iwm l chi^(l+1).  act_mono and act read
    the operator off the action and hand it to _apply, which applies an OPS
    element to a vector: act on LAURENT, the quotient rule on fractions.
    A zero operator gives the module's zero at once, after _check_vector,
    the vector guard that _apply shares.

    The same hom serves the right side only when it is also an antihom,
    that is when the generator images commute pairwise (the weight's do);
    sides holds the sides the module accepts, and any other side raises
    InvalidArgument.  Both Galilei tables act on the left only.
    """

    def __init__(self, action: Morphism | None = None):
        self.action = action or _chi_action()

    @functools.cached_property
    def sides(self):
        """Worked out from the action when a side other than "left" first
        asks, since a module is also built just to star a vector."""
        commute = all(p * q == q * p for p, q in
                      itertools.combinations(self.action.images, 2))
        return SIDES if commute else ("left",)

    def one(self):
        return LAURENT.one()

    def zero(self):
        return LAURENT.zero()

    def star(self, f):
        # chi is real: conjugate coefficients only
        check_element("star", f, LAURENT)
        return AlgebraElement(LAURENT, {k: c.conjugate()
                                        for k, c in f.terms.items()})

    def _check_side(self, side):
        if side != "left" and side not in self.sides:
            check_choice("side", side)
            raise InvalidArgument(f"{self.action.name} is no right action: "
                                  "its generator images do not commute")

    def _check_vector(self, f):
        check_element("act", f, LAURENT)

    def _apply(self, op, f):
        return act(op, f)

    def _act_with(self, op, f, side):
        self._check_side(side)
        if op.terms:
            return self._apply(op, f)
        self._check_vector(f)
        return self.zero()

    def act_mono(self, umon, f, side="left"):
        return self._act_with(self.action._mono_image(umon), f, side)

    def act(self, X: AlgebraElement, f, side="left"):
        return self._act_with(self.action.apply(X), f, side)

    def basis(self, window):
        return [chi(l) for l in range(-window, window + 1)]


class ChiFractionModule(ChiModule):
    """The fraction field of LAURENT as a target of the same action."""

    def one(self):
        return ChiFraction.one()

    def zero(self):
        return ChiFraction(LAURENT.zero())

    def star(self, f):
        raise StarUndefined("no involution on the fraction-field target")

    def _check_vector(self, f):
        if not isinstance(f, ChiFraction):
            raise PresentationMismatch(f"expected a ChiFraction, got {f!r}")

    def _apply(self, op, f):
        """The quotient rule: E^b f = n_b / D^(b+1) for D = f.den, n_0 =
        f.num, n_b = E(n_(b-1)) D - b n_(b-1) E(D), so sum c chi^a E^b f is
        sum_b (sum_a c chi^a) n_b D^(top-b) / D^(top+1), top the largest b;
        a b with no chi part adds nothing."""
        self._check_vector(f)
        top = max((b for _, b in op.terms), default=0)
        n, num, den, out_den = f.num, LAURENT.zero(), f.den, f.den
        for b in range(top + 1):
            if b:
                e = OPS.gen("E")
                n = act(e, n) * den - (n * act(e, den)).scale(b)
                num, out_den = num * den, out_den * den
            chi_part = {(a, 0): c for (a, k), c in op.terms.items() if k == b}
            if chi_part:
                num = num + act(AlgebraElement(OPS, chi_part), n)
        return ChiFraction(num, out_den)


class RegularModule:
    """fq-g1 with the regular actions; homogeneous-space elements live here."""

    def __init__(self):
        self.fq = builtin("fq-g1")
        self.eng = pairing_engine()

    def _check_side(self, side):
        check_choice("side", side)

    def _check_vector(self, f):
        check_element("act", f, self.fq.pres)

    def one(self):
        return self.fq.pres.one()

    def zero(self):
        return self.fq.pres.zero()

    def act_mono(self, umon, f, side="left"):
        return self.eng.act(builtin("uq-g1").pres.monomial(umon), f, side)


# -- functionals and weights ---------------------------------------------


class Functional:
    """Linear functional on a module algebra, with a reality flag."""

    def __init__(self, name, module, fn):
        self.name = name
        self.module = module
        self._fn = fn

    def __call__(self, f) -> Scalar:
        return self._fn(f)

    def conjugated_by(self, xi):
        """a |-> h(xi* a xi), the xi-equivalent functional."""
        m = self.module
        xi_star = m.star(xi)
        return Functional(f"{self.name}[conj {xi}]", m,
                          lambda a: self._fn(xi_star * a * xi))

    def reality_report(self, window, rep=None):
        rep = rep or CheckReport("functional-reality", preset=self.name)
        for a in self.module.basis(window):
            lhs = self._fn(self.module.star(a))
            rhs = self._fn(a).conjugate()
            rep.record(f"real[{a}]", lhs == rhs,
                       law="h(a*) = conj(h(a))", witness=str(a))
        return rep


class Weight:
    """Map from the enveloping algebra into a module algebra.

    The defining function is linear, so evaluation decomposes over
    monomials and per-monomial values are cached by exponent tuple, which
    is why a call checks X through errors.check_element.  A call sums the
    nonzero values only, and builds the module's zero only when every
    value vanishes.  twisted_action keeps its per-basis-pair values in
    _twist_cache, keyed by (module, side, umon, amon).
    """

    def __init__(self, name, module, fn):
        self.name = name
        self.module = module
        self._fn = fn
        self._mono_cache = {}
        self._twist_cache = {}

    def of_mono(self, umon):
        hit = self._mono_cache.get(umon)
        if hit is None:
            hit = self._fn(builtin("uq-g1").pres.monomial(umon))
            self._mono_cache[umon] = hit
        return hit

    def __call__(self, X: AlgebraElement):
        check_element(f"the weight {self.name}", X, builtin("uq-g1").pres)
        out = None
        for umon, c in X.terms.items():
            value = self.of_mono(umon)
            if not value.is_zero():
                value = value.scale(c)
                out = value if out is None else out + value
        return self.module.zero() if out is None else out


def nu_w_functional() -> Functional:
    return Functional("nu_w", ChiModule(), nu_w)


def nu_w(a) -> Scalar:
    """nu_w(chi^l) = delta_{l,0}; v0/v1 polynomials convert first."""
    if getattr(a, "pres", None) is not LAURENT:
        a = chi_from_h0(a)
    return a.terms.get((0,), ZERO)


@functools.cache
def weight_coefficient(n: int) -> Scalar:
    """c_n = (wm/2)^n (2n-1)!!/n!, computed as (wm/4)^n binomial(2n, n)."""
    return (W * SM * scalar(Fraction(1, 4))) ** n * scalar(math.comb(2 * n, n))


def galilei_weight_of(X: AlgebraElement) -> AlgebraElement:
    """phi[X] = eps(X) + sum c_n <X, v^n> chi^n (a finite sum)."""
    eng = pairing_engine()
    fqp = builtin("fq-g1").pres
    out = chi(0, builtin("uq-g1").epsilon.apply(X))
    # <X, v^n> = 0 past the largest B-exponent: to_dual(B) = K^-1 N
    for n in range(1, max((mon[3] for mon in X.terms), default=0) + 1):
        val = eng.pair(X, fqp.monomial((0, 0, 0, n)))
        if not val.is_zero():
            out = out + chi(n, weight_coefficient(n) * val)
    return out


@functools.cache
def galilei_weight() -> Weight:
    """The one Galilei weight of the process, so every suite shares its
    of_mono and twisted-action memos."""
    return Weight("galilei", ChiModule(), galilei_weight_of)


def epsilon_weight(module) -> Weight:
    uq = builtin("uq-g1")
    return Weight("epsilon", module,
                  lambda X: module.one().scale(uq.epsilon.apply(X)))


def twisted_action(phi: Weight, X: AlgebraElement, a, side: str = "left",
                   module=None):
    """sum X_(1).a phi[X_(2)] on the left, sum phi[X_(1)] a.X_(2) on the right.

    X acts through module, phi's own module by default.  The one sum
    behind the cocycle law, the coboundary twist, the quasi-invariance
    lemma and the unitarized induced representation.  The side and the
    vector are checked against the module first, so no zero shortcut
    skips a guard; a zero a gives the module's zero, as the sum is linear
    in a.  An AlgebraElement a is expanded over basis pairs whose values
    phi caches; a ChiFraction a is summed by _leg_sum as it stands.
    """
    m = module or phi.module
    m._check_side(side)
    delta = builtin("uq-g1").delta
    check_element("twisted_action", X, delta.source)
    m._check_vector(a)  # the cache keys hold bare exponent tuples
    if a.is_zero():
        return m.zero()
    if not isinstance(a, AlgebraElement):
        return _leg_sum(phi, m, side, delta.apply(X).terms, a)
    cache = phi._twist_cache
    out = {}
    for umon, cx in X.terms.items():
        for amon, ca in a.terms.items():
            key = (m, side, umon, amon)
            hit = cache.get(key)
            if hit is None:
                hit = _leg_sum(phi, m, side, delta._mono_image(umon).terms,
                               a.pres.monomial(amon))
                cache[key] = hit
            accumulate(out, hit.terms, ca if cx is ONE else cx * ca)
    return AlgebraElement(a.pres, out)


def _leg_sum(phi: Weight, m, side: str, legs, a):
    """The coproduct-leg sum of twisted_action over the terms of Delta X;
    a leg whose weight value is zero adds zero and is skipped before the
    module acts (twisted_action has checked a and side already)."""
    out = None
    for (m1, m2), c in legs.items():
        value = phi.of_mono(m2 if side == "left" else m1)
        if value.is_zero():
            continue
        if side == "left":
            piece = (m.act_mono(m1, a) * value).scale(c)
        else:
            piece = (value * m.act_mono(m2, a, side="right")).scale(c)
        out = piece if out is None else out + piece
    return m.zero() if out is None else out


def transform_weight(phi: Weight, xi) -> Weight:
    """phi1[X] = sum X_(1).xi phi[X_(2)] xi^-1 (the coboundary twist)."""
    xi_inv = xi.inverse()
    return Weight(f"{phi.name}[xi={xi}]", phi.module,
                  lambda X: twisted_action(phi, X, xi) * xi_inv)


def coboundary_weight(xi) -> Weight:
    """d0(xi)[X] = X.xi xi^-1, over the fraction field."""
    module = ChiFractionModule()
    if isinstance(xi, AlgebraElement):
        xi = ChiFraction(xi)
    xi_inv = xi.inverse()

    def fn(X):
        return module.act(X, xi) * xi_inv

    return Weight(f"d0[{xi}]", module, fn)


# -- the checks -----------------------------------------------------------


def _d1_sides(phi: Weight, X, Y, XY, phi_x, phi_y, side: str):
    """The two sides of the cocycle law at X (x) Y, given the product XY
    and the values phi[X], phi[Y]: phi[XY] and sum X_(1).phi[Y] phi[X_(2)]
    on the left, psi[XY] and sum psi[Y_(1)] (psi[X].Y_(2)) on the right.
    The sum is linear in the weight value it acts on, so a zero value
    gives the module's zero with no sum formed."""
    Z, value = (X, phi_y) if side == "left" else (Y, phi_x)
    if value.is_zero():
        return phi(XY), phi.module.zero()
    return phi(XY), twisted_action(phi, Z, value, side)


def d1_defect(phi: Weight, X: AlgebraElement, Y: AlgebraElement,
              side: str = "left"):
    """d1(phi)[X (x) Y] = phi[XY] - sum X_(1).phi[Y] phi[X_(2)]; its right
    mirror is psi[XY] - sum psi[Y_(1)] (psi[X].Y_(2))."""
    phi.module._check_side(side)  # _d1_sides may skip twisted_action
    lhs, rhs = _d1_sides(phi, X, Y, X * Y, phi(X), phi(Y), side)
    return lhs - rhs


def _cocycle_rows(phi: Weight, degree: int, side: str):
    """(str(X), str(Y), whether the cocycle law holds at X (x) Y) for the
    pairs of uq-g1 monomials of degree <= degree, row by row.  Each window
    element is printed and weighed once, not once per pair; XY is the
    engine's cached normal form, and the two sides are compared, not
    subtracted."""
    pres = builtin("uq-g1").pres
    rows = []
    for mon in pres.monomials_up_to(degree):
        X = pres.monomial(mon)
        rows.append((mon, X, str(X), phi(X)))
    for xm, X, xl, phi_x in rows:
        for ym, Y, yl, phi_y in rows:
            lhs, rhs = _d1_sides(phi, X, Y, pres.mono_product(xm, ym),
                                 phi_x, phi_y, side)
            yield xl, yl, lhs == rhs


def cocycle_check(phi: Weight, degree: int, side: str = "left") -> CheckReport:
    """d1(phi) = 0 on all window monomial pairs, plus phi[1] = 1.  A
    negative degree, which would leave only the unit row, raises
    ConfigError."""
    phi.module._check_side(side)
    check_sizes(degree=degree)
    uq = builtin("uq-g1")
    rep = CheckReport("cocycle", preset=phi.name,
                      params={"degree": degree, "side": side})
    rep.record("unit", phi(uq.pres.one()) == phi.module.one(),
               law="phi[1] = 1", witness="1")
    law = ("phi[XY] = sum X_(1).phi[Y] phi[X_(2)]" if side == "left" else
           "psi[XY] = sum psi[Y_(1)] psi[X].Y_(2)")
    for xl, yl, ok in _cocycle_rows(phi, degree, side):
        rep.record(f"cocycle[{xl}|{yl}]", ok, law=law,
                   witness=lambda: f"{xl} | {yl}")
    return rep.finalize()


def recurrence_report(max_n: int, rep=None) -> CheckReport:
    """n c_n = wm (n - 1/2) c_{n-1}, the identity behind the B-cocycle row."""
    check_sizes(max_n=max_n)
    rep = rep or CheckReport("weight-recurrence", preset="galilei")
    for n in range(1, max_n + 1):
        lhs = weight_coefficient(n) * n
        rhs = weight_coefficient(n - 1) * (W * SM) * scalar(Fraction(2 * n - 1, 2))
        rep.record(f"c-recurrence[{n}]", lhs == rhs,
                   law="n c_n = wm (n - 1/2) c_{n-1}", witness=f"n={n}")
    return rep


FORMS = ("def", "lemma")


def quasi_invariance_check(h: Functional, phi: Weight, degree: int,
                           window: int, form: str = "def",
                           side: str = "left") -> CheckReport:
    """Check the quasi-invariance identity on an (X, a) grid.

    form="def":   h(X.a)  = sum h(phi[X_(1)*]* a phi[S(X_(2))])   (left)
                  h(a.X)  = sum h(psi[S(X_(1))] a psi[X_(2)*]*)   (right)
    form="lemma": sum h(X_(1).a phi[X_(2)]) = h(phi[X*]* a)       (left)
                  sum h(psi[X_(1)] a.X_(2)) = h(a psi[X*]*)       (right)

    A negative degree or window, which would leave no cell, raises
    ConfigError.
    """
    check_choice("form", form, FORMS)
    m = phi.module
    m._check_side(side)
    check_sizes(degree=degree, window=window)
    uq = builtin("uq-g1")
    star_u, S = uq.star, uq.antipode
    rep = CheckReport(f"functional-{form}", preset=h.name,
                      params={"degree": degree, "window": window, "side": side})
    h.reality_report(window, rep)
    xs = uq.pres.monomials_up_to(degree)
    basis = [(a, str(a)) for a in m.basis(window)]
    # the def form's legs: phi[Y*]* takes X_(1) and phi[S(Y)] takes X_(2)
    # on the left; the right swaps them.  Each leg value is built once per
    # monomial and numbered once per distinct value, so that each cell
    # value h(p1 a p2) is built once per (p1, p2, a) in this report.
    star_leg = lambda mon: m.star(phi(star_u.apply(uq.pres.monomial(mon))))
    s_leg = lambda mon: phi(S.apply(uq.pres.monomial(mon)))
    distinct = {}  # leg value -> (its number, the value)
    number = lambda value: distinct.setdefault(value, (len(distinct), value))
    leg1, leg2 = (functools.cache(lambda mon, leg=leg: number(leg(mon)))
                  for leg in ((star_leg, s_leg) if side == "left"
                              else (s_leg, star_leg)))
    cells = {}
    for mx in xs:
        X = uq.pres.monomial(mx)
        xl = str(X)
        if form == "def":
            legs = [(c, leg1(m1), leg2(m2))
                    for (m1, m2), c in uq.delta.apply(X).terms.items()]
        else:
            p = m.star(phi(star_u.apply(X)))
        for k, (a, al) in enumerate(basis):
            if form == "def":
                lhs = h(m.act(X, a, side=side))
                rhs = ZERO
                for c, (n1, p1), (n2, p2) in legs:
                    value = cells.get((n1, n2, k))
                    if value is None:
                        value = cells[n1, n2, k] = h(p1 * a * p2)
                    rhs = rhs + c * value
            else:
                lhs = h(twisted_action(phi, X, a, side))
                rhs = h(p * a if side == "left" else a * p)
            rep.record(f"cell[{xl}|{al}]", lhs == rhs,
                       law=f"quasi-invariance ({form}, {side})",
                       witness=lambda: f"X={xl}, a={al}")
    return rep.finalize()


class EssentialInvarianceResult:
    """What essential_invariance_decide found: status "coboundary" with
    the invertible xi, or "refuted" with xi None and the forced-zero rows
    as certificate; solution_dim is the dimension of the solution space."""

    __slots__ = ("status", "xi", "solution_dim", "certificate")

    def __init__(self, status, xi, solution_dim, certificate=None):
        self.status = status
        self.xi = xi
        self.solution_dim = solution_dim
        self.certificate = [] if certificate is None else certificate


def essential_invariance_decide(phi: Weight, window: int) -> EssentialInvarianceResult:
    """Search for an invertible xi with X.xi = phi[X] xi on |l| <= window.

    The linear system runs over the generator set; a solution basis in
    reduced echelon form contains an invertible (single chi-power) element
    iff one of its vectors is a monomial, so the scan is complete.  On
    refutation the forced-zero rows are returned as the certificate.
    """
    check_sizes(window=window)
    uq = builtin("uq-g1")
    m = ChiModule()
    unknowns = list(range(-window, window + 1))
    gens = [uq.pres.gen(g) for g in uq.pres.generators] + [uq.pres.gen("K", -1)]
    gen_weights = [(g, phi(g)) for g in gens]

    def column(l):
        col = {}
        for gi, (g, phig) in enumerate(gen_weights):
            diff = m.act(g, chi(l)) - phig * chi(l)  # X.chi^l - phi[X] chi^l
            for (out_exp,), c in diff.terms.items():
                col[gi, out_exp] = c
        return col

    rows = constraint_rows(unknowns, column)
    basis = linear_solve(rows.values(), unknowns)
    dim = len(basis)
    for vec in basis:
        live = {l: c for l, c in vec.items() if not c.is_zero()}
        if len(live) == 1:
            (l, c), = live.items()
            return EssentialInvarianceResult("coboundary", chi(l, c), dim)
    cert = []
    for _, row in sorted(rows.items()):
        terms = " + ".join(f"({c})*a[{l}]" for l, c in sorted(row.items()))
        cert.append(f"{terms} = 0")
    return EssentialInvarianceResult("refuted", None, dim, cert)


def essential_invariance_report(phi: Weight, window: int) -> CheckReport:
    """The search refutes essential invariance on every window 1..window;
    the last window's certificate is kept in the params."""
    check_sizes(window=window)
    rep = CheckReport("essential-invariance", preset=phi.name,
                      params={"window": window})
    for wl in range(1, window + 1):
        res = essential_invariance_decide(phi, wl)
        rep.record(f"refuted[{wl}]", res.status == "refuted",
                   law="no invertible coboundary xi exists",
                   witness=res.status)
        if res.certificate and wl == window:
            rep.params["certificate"] = res.certificate
    return rep.finalize()


def translate_functional(h: Functional, phi: Weight, k: AlgebraElement):
    """Translated functional h_k(a) = h(k.a) for tau-real group-like k.

    Returns (h_k, phi_k, xi) with xi = phi[k*] and
    phi_k[X] = phi[X S(k)] . (S(k).phi[k]).
    """
    uq = builtin("uq-g1")
    if not uq.is_group_like(k):
        raise NotGroupLike(f"Delta(k) != k (x) k for k = {k}")
    if uq.tau.apply(k) != k:
        raise NotTauReal(f"tau(k) != k for k = {k}")
    m = phi.module
    hk = Functional(f"{h.name}[k={k}]", m, lambda a: h(m.act(k, a)))
    xi = phi(uq.star.apply(k))
    Sk = uq.antipode.apply(k)
    skphik = m.act(Sk, phi(k))
    phik = Weight(f"{phi.name}[k={k}]", m,
                  lambda X: phi(X * Sk) * skphik)
    return hk, phik, xi


def coboundary_vanishing_report(samples=None, degree: int = 1) -> CheckReport:
    """d1(d0 xi) = 0 over the fraction field for sampled xi."""
    check_sizes(degree=degree)
    if samples is None:
        samples = [chi(1), chi(-2), LAURENT.one() + chi(1)]
    rep = CheckReport("cohomology-d1d0", params={"degree": degree})
    for xi in samples:
        xil = str(xi)
        for xl, yl, ok in _cocycle_rows(coboundary_weight(xi), degree, "left"):
            rep.record(f"d1d0[{xil}|{xl}|{yl}]", ok, law="d1 o d0 = 0",
                       witness=lambda: f"xi={xil}, {xl}|{yl}")
    return rep.finalize()
