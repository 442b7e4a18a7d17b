"""Quasi-invariant functionals, weight cocycles and the d0/d1 cohomology.

The flagship instance: nu_w on the Laurent algebra spanned by {chi^l},
quasi-invariant for the weight

    phi[X] = eps(X) + sum_{n>=1} c_n <X, v^n> chi^n,
    c_n = (wm/2)^n (2n-1)!!/n!,

but not essentially invariant: the B-row of the coboundary system forces
a_l (l - 1/2) = 0 for every l, so no invertible xi exists.

Everything is phrased over a module *-algebra wrapper so the same check
code drives three targets: the chi-basis algebra, its fraction field
(needed for d1 d0 = 0 at non-invertible xi), and the v-polynomial
homogeneous space inside fq-g1 with the regular action.  Left and right
checks share code paths; the right fixture mirrors the action table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotGroupLike, NotInvertible, NotTauReal, StarUndefined
from .hopf import builtin
from .ncalg import AlgebraElement
from .pairing import engine as pairing_engine
from .report import CheckReport
from .scalars import I, M as SM, ONE, Scalar, W, ZERO, scalar

IWM = I * W * SM


# -- the chi-basis Laurent algebra ---------------------------------------


class ChiElement:
    """Finitely supported map l -> Scalar over the basis {chi^l}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {l: c for l, c in (coeffs or {}).items() if not c.is_zero()}

    @staticmethod
    def chi(l=1, coeff=ONE):
        return ChiElement({l: scalar(coeff)})

    @staticmethod
    def one():
        return ChiElement({0: ONE})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ChiElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            s = out.get(l)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(l, None)
            else:
                out[l] = s
        return ChiElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChiElement({l: -c for l, c in self.coeffs.items()})

    def scale(self, c):
        c = scalar(c)
        if c.is_zero():
            return ChiElement()
        return ChiElement({l: k * c for l, k in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, ChiElement):
            return self.scale(other)
        out = {}
        for l1, c1 in self.coeffs.items():
            for l2, c2 in other.coeffs.items():
                l = l1 + l2
                s = out.get(l)
                s = c1 * c2 if s is None else s + c1 * c2
                out[l] = s
        return ChiElement(out)

    __rmul__ = scale

    def star(self):
        # chi is real: conjugate coefficients only
        return ChiElement({l: c.conjugate() for l, c in self.coeffs.items()})

    def inverse(self):
        if len(self.coeffs) != 1:
            raise NotInvertible(
                "only chi-monomials are invertible in the Laurent algebra")
        (l, c), = self.coeffs.items()
        return ChiElement({-l: ONE / c})

    def support(self):
        return sorted(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for l in sorted(self.coeffs):
            c = str(self.coeffs[l])
            mono = "1" if l == 0 else ("chi" if l == 1 else f"chi^{l}")
            if mono == "1":
                bits.append(f"({c})" if (" " in c) else c)
            elif c == "1":
                bits.append(mono)
            else:
                bits.append(f"({c})*{mono}" if (" " in c) else f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"<chi: {self}>"


def chi_from_h0(e: AlgebraElement) -> ChiElement:
    """Convert a v0/v1 polynomial to the chi basis.

    v1 = (chi - 1)/(wm) and v0 = (1 - chi^-1)/(wm), so
    v1^n -> ((chi - 1)/(wm))^n and v0^n -> ((1 - chi^-1)/(wm))^n.
    """
    wm_inv = ONE / (W * SM)
    v0_chi = (ChiElement.one() - ChiElement.chi(-1)).scale(wm_inv)
    v1_chi = (ChiElement.chi(1) - ChiElement.one()).scale(wm_inv)
    out = ChiElement()
    for (a0, a1), c in e.terms.items():
        term = ChiElement.one()
        for _ in range(a0):
            term = term * v0_chi
        for _ in range(a1):
            term = term * v1_chi
        out = out + term.scale(c)
    return out


def chi_to_h0(x: ChiElement) -> AlgebraElement:
    """Inverse conversion: chi^l = (1 + wm v1)^l, chi^-l = (1 - wm v0)^l."""
    h0 = builtin_h0()
    wm = W * SM
    chi_pos = h0.one() + h0.gen("v1") * wm
    chi_neg = h0.one() - h0.gen("v0") * wm
    out = h0.zero()
    for l, c in x.coeffs.items():
        base = chi_pos if l >= 0 else chi_neg
        term = h0.one()
        for _ in range(abs(l)):
            term = term * base
        out = out + term * c
    return out


def builtin_h0():
    from .hopf import algebra_presentation
    return algebra_presentation("h0-irr")


# -- fraction field of the chi algebra -----------------------------------


def _divmod_poly(a: dict, b: dict):
    """Long division of chi-polynomials (dict exp -> Scalar, exps >= 0)."""
    a = dict(a)
    db = max(b)
    lb = b[db]
    q = {}
    while a:
        da = max(a)
        if da < db:
            break
        f = a[da] / lb
        q[da - db] = f
        for e, c in b.items():
            t = a.get(e + da - db, ZERO) - f * c
            if t.is_zero():
                a.pop(e + da - db, None)
            else:
                a[e + da - db] = t
    return q, a


def _laurent_gcd(x: ChiElement, y: ChiElement) -> ChiElement:
    """Monic gcd, ignoring chi-power units."""
    def to_poly(e):
        lo = min(e.coeffs)
        return {l - lo: c for l, c in e.coeffs.items()}
    a, b = to_poly(x), to_poly(y)
    while b:
        _, r = _divmod_poly(a, b)
        a, b = b, r
    lead = a[max(a)]
    return ChiElement({l: c / lead for l, c in a.items()})


class ChiFraction:
    """Element of the fraction field of the chi-Laurent algebra.

    Canonical form: gcd cleared, denominator with lowest exponent 0 and
    leading coefficient 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ChiElement, den: ChiElement | None = None,
                 _reduced=False):
        if den is None:
            den = ChiElement.one()
        if _reduced:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise NotInvertible("zero denominator in the chi fraction field")
        if num.is_zero():
            self.num, self.den = ChiElement(), ChiElement.one()
            return
        if len(den.coeffs) > 1 and len(num.coeffs) >= 1:
            g = _laurent_gcd(num, den)
            if len(g.coeffs) > 1:
                num = _exact_chi_div(num, g)
                den = _exact_chi_div(den, g)
        # strip the chi-power unit and make the denominator monic
        lo = min(den.coeffs)
        top = den.coeffs[max(den.coeffs)]
        den = ChiElement({l - lo: c / top for l, c in den.coeffs.items()})
        num = ChiElement({l - lo: c / top for l, c in num.coeffs.items()})
        self.num, self.den = num, den

    @staticmethod
    def from_chi(e: ChiElement):
        return ChiFraction(e)

    @staticmethod
    def one():
        return ChiFraction(ChiElement.one())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ChiFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        return ChiFraction(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChiFraction(-self.num, self.den, _reduced=True)

    def scale(self, c):
        return ChiFraction(self.num.scale(c), self.den)

    def __mul__(self, other):
        if not isinstance(other, ChiFraction):
            return self.scale(other)
        return ChiFraction(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.num.is_zero():
            raise NotInvertible("zero fraction")
        return ChiFraction(self.den, self.num)

    def __str__(self):
        if self.den == ChiElement.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<chi-frac: {self}>"


def _exact_chi_div(e: ChiElement, g: ChiElement) -> ChiElement:
    lo_e, lo_g = min(e.coeffs), min(g.coeffs)
    q, r = _divmod_poly({l - lo_e: c for l, c in e.coeffs.items()},
                        {l - lo_g: c for l, c in g.coeffs.items()})
    if r:
        raise ArithmeticError("non-exact chi division")
    return ChiElement({l + lo_e - lo_g: c for l, c in q.items()})


# -- module *-algebra wrappers -------------------------------------------


class ChiModule:
    """The chi algebra as the module *-algebra target of the checks.

    Action table (both sides use the same table; the right fixture
    mirrors the left one): B shifts and scales, chi^l |-> iwm l chi^(l+1);
    K acts as the identity; T and M act as zero.
    """

    name = "h0-irr"

    def one(self):
        return ChiElement.one()

    def zero(self):
        return ChiElement()

    def mul(self, f, g):
        return f * g

    def star(self, f):
        return f.star()

    def invert(self, f):
        return f.inverse()

    def act_mono(self, umon, f, side="left"):
        a, _ell, c, d = umon
        if a or c:
            return ChiElement()
        for _ in range(d):
            f = ChiElement({l + 1: k * (IWM * l)
                            for l, k in f.coeffs.items() if l != 0})
        return f

    def act(self, X: AlgebraElement, f, side="left"):
        out = ChiElement()
        for mon, c in X.terms.items():
            out = out + self.act_mono(mon, f, side).scale(c)
        return out

    def basis(self, window):
        return [ChiElement.chi(l) for l in range(-window, window + 1)]


class ChiFractionModule(ChiModule):
    """Fraction-field target: B extends as a derivation, K as identity."""

    name = "h0-irr-fractions"

    def one(self):
        return ChiFraction.one()

    def zero(self):
        return ChiFraction(ChiElement())

    def star(self, f):
        raise StarUndefined("no involution on the fraction-field target")

    def act_mono(self, umon, f, side="left"):
        a, _ell, c, d = umon
        if a or c:
            return self.zero()
        base = ChiModule()
        for _ in range(d):
            num_d = base.act_mono((0, 0, 0, 1), f.num)
            den_d = base.act_mono((0, 0, 0, 1), f.den)
            f = ChiFraction(num_d * f.den - f.num * den_d, f.den * f.den)
        return f

    def act(self, X, f, side="left"):
        out = self.zero()
        for mon, c in X.terms.items():
            out = out + self.act_mono(mon, f, side).scale(c)
        return out


class RegularModule:
    """fq-g1 with the regular actions; homogeneous-space elements live here."""

    name = "fq-g1"

    def __init__(self):
        self.fq = builtin("fq-g1")
        self.eng = pairing_engine()

    def one(self):
        return self.fq.pres.one()

    def zero(self):
        return self.fq.pres.zero()

    def mul(self, f, g):
        return f * g

    def star(self, f):
        return self.fq.star.apply(f)

    def invert(self, f):
        return f.inverse()

    def act_mono(self, umon, f, side="left"):
        uq = builtin("uq-g1")
        return self.eng.act(uq.pres.monomial(umon), f, side)

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
                          lambda a: self._fn(m.mul(m.mul(xi_star, a), xi)))

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
                      lambda a: a.coeffs.get(0, ZERO))


def nu_w(a) -> Scalar:
    """nu_w(chi^l) = delta_{l,0}; v0/v1 polynomials convert first."""
    if isinstance(a, AlgebraElement):
        a = chi_from_h0(a)
    return a.coeffs.get(0, ZERO)


def weight_coefficient(n: int) -> Scalar:
    """c_n = (wm/2)^n (2n-1)!!/n!."""
    dfac = 1
    for k in range(1, 2 * n, 2):
        dfac *= k
    fac = 1
    for k in range(2, n + 1):
        fac *= k
    return (W * SM * scalar(Fraction(1, 2))) ** n * scalar(Fraction(dfac, fac))


def galilei_weight_of(X: AlgebraElement) -> ChiElement:
    """phi[X] = eps(X) + sum c_n <X, v^n> chi^n (a finite sum)."""
    uq = builtin("uq-g1")
    eng = pairing_engine()
    fqp = builtin("fq-g1").pres
    out = ChiElement({0: uq.epsilon.apply(X)})
    for n in range(1, eng.n_degree(X) + 1):
        vn = fqp.monomial((0, 0, 0, n))
        val = eng.pair(X, vn)
        if not val.is_zero():
            out = out + ChiElement.chi(n, weight_coefficient(n) * val)
    return out


def galilei_weight() -> Weight:
    return Weight("galilei", ChiModule(), galilei_weight_of)


def epsilon_weight(module) -> Weight:
    uq = builtin("uq-g1")
    return Weight("epsilon", module,
                  lambda X: module.one().scale(uq.epsilon.apply(X)))


def transform_weight(phi: Weight, xi) -> Weight:
    """phi1[X] = sum X_(1).xi phi[X_(2)] xi^-1 (the coboundary twist)."""
    m = phi.module
    xi_inv = m.invert(xi)
    uq = builtin("uq-g1")

    def fn(X):
        out = m.zero()
        for (m1, m2), c in uq.delta.apply(X).terms.items():
            piece = m.mul(m.mul(m.act_mono(m1, xi), phi.of_mono(m2)), xi_inv)
            out = out + piece.scale(c)
        return out

    return Weight(f"{phi.name}[xi={xi}]", m, fn)


def coboundary_weight(xi, module=None) -> Weight:
    """d0(xi)[X] = X.xi xi^-1, over the fraction field by default."""
    module = module or ChiFractionModule()
    if isinstance(xi, ChiElement):
        xi = ChiFraction.from_chi(xi)
    xi_inv = xi.inverse()

    def fn(X):
        return module.act(X, xi) * xi_inv

    return Weight(f"d0[{xi}]", module, fn)


# -- the checks -----------------------------------------------------------


def d1_defect(phi: Weight, X: AlgebraElement, Y: AlgebraElement):
    """d1(phi)[X (x) Y] = phi[XY] - sum X_(1).phi[Y] phi[X_(2)]."""
    uq = builtin("uq-g1")
    m = phi.module
    out = phi(X * Y)
    phiY = phi(Y)
    for (m1, m2), c in uq.delta.apply(X).terms.items():
        piece = m.mul(m.act_mono(m1, phiY), phi.of_mono(m2))
        out = out - piece.scale(c)
    return out


def d1_right_defect(psi: Weight, X, Y):
    """Right mirror: psi[XY] - sum psi[Y_(1)] (psi[X].Y_(2))."""
    uq = builtin("uq-g1")
    m = psi.module
    out = psi(X * Y)
    psiX = psi(X)
    for (m1, m2), c in uq.delta.apply(Y).terms.items():
        piece = m.mul(psi.of_mono(m1), m.act_mono(m2, psiX, side="right"))
        out = out - piece.scale(c)
    return out


def cocycle_check(phi: Weight, degree: int, side: str = "left") -> CheckReport:
    """d1(phi) = 0 on all window monomial pairs, plus phi[1] = 1."""
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


def quasi_invariance_check(h: Functional, phi: Weight, degree: int,
                           window: int, form: str = "def",
                           side: str = "left") -> CheckReport:
    """Check the quasi-invariance identity on an (X, a) grid.

    form="def":   h(X.a)  = sum h(phi[X_(1)*]* a phi[S(X_(2))])   (left)
                  h(a.X)  = sum h(psi[S(X_(1))] a psi[X_(2)*]*)   (right)
    form="lemma": sum h(X_(1).a phi[X_(2)]) = h(phi[X*]* a)       (left)
                  sum h(psi[X_(1)] a.X_(2)) = h(a psi[X*]*)       (right)
    """
    uq = builtin("uq-g1")
    m = phi.module
    star_u, S = uq.star, uq.antipode
    rep = CheckReport(f"functional-{form}", preset=h.name,
                      params={"degree": degree, "window": window, "side": side})
    h.reality_report(window, rep)
    xs = uq.pres.monomials_up_to(degree)
    basis = [(a, str(a)) for a in m.basis(window)]
    for mx in xs:
        X = uq.pres.monomial(mx)
        xl = str(X)
        dX = uq.delta.apply(X).terms
        for a, al in basis:
            if form == "def" and side == "left":
                lhs = h(m.act(X, a))
                rhs = ZERO
                for (m1, m2), c in dX.items():
                    p1 = m.star(phi(star_u.apply(uq.pres.monomial(m1))))
                    p2 = phi(S.apply(uq.pres.monomial(m2)))
                    rhs = rhs + c * h(m.mul(m.mul(p1, a), p2))
            elif form == "def":
                lhs = h(m.act(X, a, side="right"))
                rhs = ZERO
                for (m1, m2), c in dX.items():
                    p1 = phi(S.apply(uq.pres.monomial(m1)))
                    p2 = m.star(phi(star_u.apply(uq.pres.monomial(m2))))
                    rhs = rhs + c * h(m.mul(m.mul(p1, a), p2))
            elif side == "left":
                lhs = ZERO
                for (m1, m2), c in dX.items():
                    lhs = lhs + c * h(m.mul(m.act_mono(m1, a), phi.of_mono(m2)))
                rhs = h(m.mul(m.star(phi(star_u.apply(X))), a))
            else:
                lhs = ZERO
                for (m1, m2), c in dX.items():
                    lhs = lhs + c * h(m.mul(phi.of_mono(m1),
                                            m.act_mono(m2, a, side="right")))
                rhs = h(m.mul(a, m.star(phi(star_u.apply(X)))))
            rep.record(f"cell[{xl}|{al}]", lhs == rhs,
                       law=f"quasi-invariance ({form}, {side})",
                       witness=lambda: f"X={xl}, a={al}")
    return rep.finalize()


@dataclass
class EssentialInvarianceResult:
    status: str  # "coboundary" | "refuted"
    xi: ChiElement | None
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
            lhs = m.act(g, ChiElement.chi(l))  # X.chi^l
            rhs = phig * ChiElement.chi(l)
            diff = lhs - rhs
            for out_exp, c in diff.coeffs.items():
                rows.setdefault((gi, out_exp), {})[l] = c
    basis = linear_solve(rows.values(), unknowns)
    dim = len(basis)
    for vec in basis:
        live = {l: c for l, c in vec.items() if not c.is_zero()}
        if len(live) == 1:
            (l, c), = live.items()
            return EssentialInvarianceResult("coboundary", ChiElement({l: c}), dim)
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
                  lambda X: m.mul(phi(X * Sk), skphik))
    return hk, phik, xi


def coboundary_vanishing_report(samples=None, degree: int = 1) -> CheckReport:
    """d1(d0 xi) = 0 over the fraction field for sampled xi."""
    uq = builtin("uq-g1")
    frac = ChiFractionModule()
    if samples is None:
        samples = [ChiElement.chi(1), ChiElement.chi(-2),
                   ChiElement.one() + ChiElement.chi(1)]
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
