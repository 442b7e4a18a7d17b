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
rho_from_weight.  A chi module is its action, a Morphism uq-g1 -> OPS, so
rho_from_weight passes the Galilei module action to it as module=.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (NotGroupLike, NotInvertible, NotTauReal,
                     PresentationMismatch, StarUndefined, check_choice)
from .hopf import algebra_presentation, builtin
from .ncalg import AlgebraElement, Morphism, Presentation
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
    if op.pres is not OPS or f.pres is not LAURENT:
        raise PresentationMismatch(f"act takes an ops and a chi element, "
                                   f"got {op.pres.name} and {f.pres.name}")
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


def chi_to_h0(x: AlgebraElement) -> AlgebraElement:
    """Inverse conversion: chi^l = (1 + wm v1)^l, chi^-l = (1 - wm v0)^l."""
    h0 = algebra_presentation("h0-irr")
    wm = W * SM
    chi_pos = h0.one() + h0.gen("v1") * wm
    chi_neg = h0.one() - h0.gen("v0") * wm
    out = h0.zero()
    for (l,), c in x.terms.items():
        out = out + (chi_pos if l >= 0 else chi_neg) ** abs(l) * c
    return out


# -- fraction field of the chi algebra -----------------------------------


class ChiFraction:
    """Element num/den of the fraction field of the chi-Laurent algebra.

    LAURENT is an integral domain, so the pair is kept as built, with no
    gcd and no normal form: num/den is zero iff num is, a/b == c/d iff
    a d == c b, and a sum is (a d + c b)/(b d).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: AlgebraElement, den: AlgebraElement | None = None):
        if den is None:
            den = LAURENT.one()
        elif den.is_zero():
            raise NotInvertible("zero denominator in the chi fraction field")
        self.num, self.den = num, den

    @staticmethod
    def from_chi(e: AlgebraElement):
        return ChiFraction(e)

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

    A chi module is its action, a checked Morphism uq-g1 -> OPS used on
    both sides (the right fixture mirrors the left one).  The default is
    the weight's: K -> 1, B -> iwm chi E, T -> 0 and M -> 0, so B shifts
    and scales, chi^l |-> iwm l chi^(l+1).
    """

    def __init__(self, action: Morphism | None = None):
        self.action = action or _chi_action()

    def one(self):
        return LAURENT.one()

    def zero(self):
        return LAURENT.zero()

    def star(self, f):
        # chi is real: conjugate coefficients only
        return AlgebraElement(LAURENT, {k: c.conjugate()
                                        for k, c in f.terms.items()})

    def act_mono(self, umon, f, side="left"):
        return act(self.action._mono_image(umon), f)

    def act(self, X: AlgebraElement, f, side="left"):
        out = self.zero()
        for mon, c in X.terms.items():
            out = out + self.act_mono(mon, f, side).scale(c)
        return out

    def basis(self, window):
        return [chi(l) for l in range(-window, window + 1)]


class ChiFractionModule(ChiModule):
    """Fraction-field target of the default chi action: B extends as a
    derivation, K as identity, T and M as zero.  That rule holds for no
    other action, so this module takes none."""

    def __init__(self):
        super().__init__()

    def one(self):
        return ChiFraction.one()

    def zero(self):
        return ChiFraction(LAURENT.zero())

    def star(self, f):
        raise StarUndefined("no involution on the fraction-field target")

    def act_mono(self, umon, f, side="left"):
        a, _ell, c, d = umon
        if a or c:
            return self.zero()
        # B is a derivation: with D = f.den fixed, B(n/D^k) is
        # (B(n) D - k n B(D)) / D^(k+1), so B^d f has denominator D^(d+1)
        b_act = functools.partial(super().act_mono, (0, 0, 0, 1))
        num, den, b_den = f.num, f.den, b_act(f.den)
        for k in range(1, d + 1):
            num, den = b_act(num) * f.den - (num * b_den).scale(k), den * f.den
        return ChiFraction(num, den)


class RegularModule:
    """fq-g1 with the regular actions; homogeneous-space elements live here."""

    def __init__(self):
        self.fq = builtin("fq-g1")
        self.eng = pairing_engine()

    def one(self):
        return self.fq.pres.one()

    def zero(self):
        return self.fq.pres.zero()

    def star(self, f):
        return self.fq.star.apply(f)

    def act_mono(self, umon, f, side="left"):
        return self.eng.act(builtin("uq-g1").pres.monomial(umon), f, side)

    def act(self, X, f, side="left"):
        return self.eng.act(X, f, side)

    def basis(self, window):
        p = self.fq.pres
        return [p.monomial((0, 0, 0, k)) for k in range(window + 1)]


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

    def reality_report(self, window, rep=None, prefix="real"):
        rep = rep or CheckReport("functional-reality", preset=self.name)
        for a in self.module.basis(window):
            lhs = self._fn(self.module.star(a))
            rhs = self._fn(a).conjugate()
            rep.record(f"{prefix}[{a}]", lhs == rhs,
                       law="h(a*) = conj(h(a))", witness=str(a))
        return rep


class Weight:
    """Map from the enveloping algebra into a module algebra.

    The defining function is linear, so evaluation decomposes over
    monomials and per-monomial values are cached.
    """

    def __init__(self, name, module, fn):
        self.name = name
        self.module = module
        self._fn = fn
        self._mono_cache = {}

    def of_mono(self, umon):
        hit = self._mono_cache.get(umon)
        if hit is None:
            hit = self._fn(builtin("uq-g1").pres.monomial(umon))
            self._mono_cache[umon] = hit
        return hit

    def __call__(self, X: AlgebraElement):
        out = self.module.zero()
        for umon, c in X.terms.items():
            out = out + self.of_mono(umon).scale(c)
        return out


def nu_w_functional() -> Functional:
    return Functional("nu_w", ChiModule(),
                      lambda a: a.terms.get((0,), ZERO))


def nu_w(a) -> Scalar:
    """nu_w(chi^l) = delta_{l,0}; v0/v1 polynomials convert first."""
    if a.pres is not LAURENT:
        a = chi_from_h0(a)
    return a.terms.get((0,), ZERO)


def weight_coefficient(n: int) -> Scalar:
    """c_n = (wm/2)^n (2n-1)!!/n!."""
    dfac = 1
    for k in range(1, 2 * n, 2):
        dfac *= k
    fac = 1
    for k in range(2, n + 1):
        fac *= k
    return (W * SM * scalar(Fraction(1, 2))) ** n * scalar(Fraction(dfac, fac))


def galilei_weight_of(X: AlgebraElement) -> AlgebraElement:
    """phi[X] = eps(X) + sum c_n <X, v^n> chi^n (a finite sum)."""
    uq = builtin("uq-g1")
    eng = pairing_engine()
    fqp = builtin("fq-g1").pres
    out = chi(0, uq.epsilon.apply(X))
    for n in range(1, eng.n_degree(X) + 1):
        vn = fqp.monomial((0, 0, 0, n))
        val = eng.pair(X, vn)
        if not val.is_zero():
            out = out + chi(n, weight_coefficient(n) * val)
    return out


def galilei_weight() -> Weight:
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
    lemma and the unitarized induced representation.
    """
    check_choice("side", side)
    m = module or phi.module
    out = m.zero()
    for (m1, m2), c in builtin("uq-g1").delta.apply(X).terms.items():
        if side == "left":
            piece = m.act_mono(m1, a) * phi.of_mono(m2)
        else:
            piece = phi.of_mono(m1) * m.act_mono(m2, a, side="right")
        out = out + piece.scale(c)
    return out


def transform_weight(phi: Weight, xi) -> Weight:
    """phi1[X] = sum X_(1).xi phi[X_(2)] xi^-1 (the coboundary twist)."""
    xi_inv = xi.inverse()
    return Weight(f"{phi.name}[xi={xi}]", phi.module,
                  lambda X: twisted_action(phi, X, xi) * xi_inv)


def coboundary_weight(xi, module=None) -> Weight:
    """d0(xi)[X] = X.xi xi^-1, over the fraction field by default."""
    module = module or ChiFractionModule()
    if isinstance(xi, AlgebraElement):
        xi = ChiFraction.from_chi(xi)
    xi_inv = xi.inverse()

    def fn(X):
        return module.act(X, xi) * xi_inv

    return Weight(f"d0[{xi}]", module, fn)


# -- the checks -----------------------------------------------------------


def d1_defect(phi: Weight, X: AlgebraElement, Y: AlgebraElement):
    """d1(phi)[X (x) Y] = phi[XY] - sum X_(1).phi[Y] phi[X_(2)]."""
    return phi(X * Y) - twisted_action(phi, X, phi(Y))


def d1_right_defect(psi: Weight, X, Y):
    """Right mirror: psi[XY] - sum psi[Y_(1)] (psi[X].Y_(2))."""
    return psi(X * Y) - twisted_action(psi, Y, psi(X), side="right")


def cocycle_check(phi: Weight, degree: int, side: str = "left") -> CheckReport:
    """d1(phi) = 0 on all window monomial pairs, plus phi[1] = 1."""
    check_choice("side", side)
    uq = builtin("uq-g1")
    rep = CheckReport("cocycle", preset=phi.name,
                      params={"degree": degree, "side": side})
    rep.record("unit", phi(uq.pres.one()) == phi.module.one(),
               law="phi[1] = 1", witness="1")
    # each window element is printed once, not once per check id
    window = map(uq.pres.monomial, uq.pres.monomials_up_to(degree))
    window = [(X, str(X)) for X in window]
    defect = d1_defect if side == "left" else d1_right_defect
    for X, xl in window:
        for Y, yl in window:
            ok = defect(phi, X, Y).is_zero()
            rep.record(f"cocycle[{xl}|{yl}]", ok,
                       law="phi[XY] = sum X_(1).phi[Y] phi[X_(2)]"
                       if side == "left" else
                       "psi[XY] = sum psi[Y_(1)] psi[X].Y_(2)",
                       witness=lambda: f"{xl} | {yl}")
    return rep.finalize()


def recurrence_report(max_n: int = 8, rep=None) -> CheckReport:
    """n c_n = wm (n - 1/2) c_{n-1}, the identity behind the B-cocycle row."""
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
    """
    check_choice("form", form, FORMS)
    check_choice("side", side)
    uq = builtin("uq-g1")
    m = phi.module
    star_u, S = uq.star, uq.antipode
    rep = CheckReport(f"functional-{form}", preset=h.name,
                      params={"degree": degree, "window": window, "side": side})
    h.reality_report(window, rep)
    xs = uq.pres.monomials_up_to(degree)
    basis = [(a, str(a)) for a in m.basis(window)]
    # the def form's legs: phi[Y*]* takes X_(1) and phi[S(Y)] takes X_(2)
    # on the left; the right swaps them
    star_leg = lambda mon: m.star(phi(star_u.apply(uq.pres.monomial(mon))))
    s_leg = lambda mon: phi(S.apply(uq.pres.monomial(mon)))
    leg1, leg2 = (star_leg, s_leg) if side == "left" else (s_leg, star_leg)
    for mx in xs:
        X = uq.pres.monomial(mx)
        xl = str(X)
        if form == "def":
            legs = [(c, leg1(m1), leg2(m2))
                    for (m1, m2), c in uq.delta.apply(X).terms.items()]
        else:
            p = m.star(phi(star_u.apply(X)))
        for a, al in basis:
            if form == "def":
                lhs = h(m.act(X, a, side=side))
                rhs = ZERO
                for c, p1, p2 in legs:
                    rhs = rhs + c * h(p1 * a * p2)
            else:
                lhs = h(twisted_action(phi, X, a, side))
                rhs = h(p * a if side == "left" else a * p)
            rep.record(f"cell[{xl}|{al}]", lhs == rhs,
                       law=f"quasi-invariance ({form}, {side})",
                       witness=lambda: f"X={xl}, a={al}")
    return rep.finalize()


@dataclass
class EssentialInvarianceResult:
    status: str  # "coboundary" | "refuted"
    xi: AlgebraElement | None
    solution_dim: int
    certificate: list = field(default_factory=list)


def essential_invariance_decide(phi: Weight, window: int) -> EssentialInvarianceResult:
    """Search for an invertible xi with X.xi = phi[X] xi on |l| <= window.

    The linear system runs over the generator set; a solution basis in
    reduced echelon form contains an invertible (single chi-power) element
    iff one of its vectors is a monomial, so the scan is complete.  On
    refutation the forced-zero rows are returned as the certificate.
    """
    from .ncalg import linear_solve
    uq = builtin("uq-g1")
    m = ChiModule()
    unknowns = list(range(-window, window + 1))
    gens = [uq.pres.gen(g) for g in uq.pres.generators] + [uq.pres.gen("K", -1)]
    rows = {}
    for gi, g in enumerate(gens):
        phig = phi(g)
        for l in unknowns:
            lhs = m.act(g, chi(l))  # X.chi^l
            rhs = phig * chi(l)
            diff = lhs - rhs
            for (out_exp,), c in diff.terms.items():
                rows.setdefault((gi, out_exp), {})[l] = c
    basis = linear_solve(rows.values(), unknowns)
    dim = len(basis)
    for vec in basis:
        live = {l: c for l, c in vec.items() if not c.is_zero()}
        if len(live) == 1:
            (l, c), = live.items()
            return EssentialInvarianceResult("coboundary", chi(l, c), dim)
    cert = []
    for (gi, out_exp), row in sorted(rows.items()):
        if row:
            terms = " + ".join(f"({c})*a[{l}]" for l, c in sorted(row.items()))
            cert.append(f"{terms} = 0")
    return EssentialInvarianceResult("refuted", None, dim, cert)


def group_like_monomials(window: int):
    """Scan the PBW window for group-likes; they are exactly the K powers."""
    uq = builtin("uq-g1")
    out = []
    for mon in uq.pres.monomials_up_to(window):
        e = uq.pres.monomial(mon)
        if uq.is_group_like(e):
            out.append(e)
    return out


def tau_real_group_likes(window: int):
    """Group-likes fixed by tau.  Since tau(K^l) = K^-l, only the unit
    qualifies, so translation is only ever exercised trivially."""
    uq = builtin("uq-g1")
    return [k for k in group_like_monomials(window)
            if uq.tau.apply(k) == k]


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
    uq = builtin("uq-g1")
    frac = ChiFractionModule()
    if samples is None:
        samples = [chi(1), chi(-2), LAURENT.one() + chi(1)]
    rep = CheckReport("cohomology-d1d0", params={"degree": degree})
    window = uq.pres.monomials_up_to(degree)
    for xi in samples:
        w = coboundary_weight(xi, frac)
        for mx in window:
            X = uq.pres.monomial(mx)
            for my in window:
                Y = uq.pres.monomial(my)
                ok = d1_defect(w, X, Y).is_zero()
                rep.record(f"d1d0[{xi}|{X}|{Y}]", ok,
                           law="d1 o d0 = 0",
                           witness=lambda: f"xi={xi}, {X}|{Y}")
    return rep.finalize()
