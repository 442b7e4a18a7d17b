"""Hopf *-algebra layer and the built-in quantum Galilei structures.

A HopfStructure attaches generator tables for the coproduct, counit,
antipode and involution to a Presentation and extends them to the whole
algebra through validated morphisms.  tau = * o S.  Structures without an
involution (coalgebra quotients carrying only tau) refuse star/antipode
access with StarUndefined.

Built-ins, keyed by their CLI names:

  uq-g1   enveloping algebra, generators M, K (invertible), T, B
  fq-g1   function algebra, generators mu, x, t, v
  fq-j    the subgroup with three primitive real generators muh, xh, th
  h0-irr  commuting v0, v1 with w*m*v0*v1 = v1 - v0 (module *-algebra,
          no coalgebra structure)
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (AntipodeNotInvertible, CounitLawViolated, InvalidArgument,
                     StarUndefined, UnknownStructure)
from .ncalg import (AlgebraElement, Morphism, Presentation, accumulate,
                    tensor_map)
from .report import CheckReport
from .scalars import I, M as SM, ONE, W, ZERO, scalar

IW = I * W  # the deformation parameter


class HopfStructure:
    """Presentation plus coalgebra/antipode/star generator tables."""

    def __init__(self, name, pres, delta_table, epsilon_table,
                 antipode_table=None, star_table=None, tau_table=None):
        self.name = name
        self.pres = pres
        self.has_star = star_table is not None
        self.is_star_hopf = self.has_star and antipode_table is not None

        self.delta = Morphism(pres, delta_table, kind="hom", name=f"Delta[{name}]")
        self.epsilon = Morphism(pres, epsilon_table, kind="hom", name=f"eps[{name}]")
        self.antipode = None
        self.star = None
        self.tau = None
        self.antipode_inv = None

        if antipode_table is not None:
            self.antipode = Morphism(pres, antipode_table, kind="antihom",
                                     name=f"S[{name}]")
        if star_table is not None:
            self.star = Morphism(pres, star_table, kind="antihom",
                                 conjugate=True, name=f"star[{name}]")
        if self.is_star_hopf:
            tau_table = [self.star.apply(self.antipode.apply(pres.gen(g)))
                         for g in pres.generators]
        if tau_table is not None:
            self.tau = Morphism(pres, tau_table, kind="hom", conjugate=True,
                                name=f"tau[{name}]")
        if self.is_star_hopf:
            sinv_table = [self.star.apply(self.antipode.apply(
                self.star.apply(pres.gen(g)))) for g in pres.generators]
            self.antipode_inv = Morphism(pres, sinv_table, kind="antihom",
                                         name=f"Sinv[{name}]")
            for g in pres.generators:
                e = pres.gen(g)
                if self.antipode.apply(self.antipode_inv.apply(e)) != e:
                    raise AntipodeNotInvertible(
                        f"{name}: S(S^-1 {g}) != {g}")

        # counit law on generators, both sides
        for g in pres.generators:
            e = pres.gen(g)
            d = self.delta.apply(e)
            left = tensor_map([self.epsilon, None], d)
            right = tensor_map([None, self.epsilon], d)
            if left != e or right != e:
                raise CounitLawViolated(f"{name}: counit law fails on {g}")

    # -- coalgebra operations ------------------------------------------

    def coproduct(self, e):
        return self.delta.apply(e)

    def coproduct_iter(self, e, k):
        """Iterated coproduct: rank k+1 tensor, coassociative."""
        if k < 1:
            raise InvalidArgument("k must be >= 1")
        out = self.delta.apply(e)
        for _ in range(k - 1):
            out = tensor_map([None] * (out.rank - 1) + [self.delta], out)
        return out

    def apply_antipode(self, e):
        if self.antipode is None:
            raise StarUndefined(f"{self.name} carries no antipode")
        return self.antipode.apply(e)

    def apply_star(self, e):
        if self.star is None:
            raise StarUndefined(f"{self.name} carries no involution, only tau")
        return self.star.apply(e)

    def apply_tau(self, e):
        if self.tau is None:
            raise StarUndefined(f"{self.name} carries no tau")
        return self.tau.apply(e)

    def is_group_like(self, e):
        return self.delta.apply(e) == e.tensor(e) and not e.is_zero()

    def __repr__(self):
        return f"HopfStructure({self.name})"


def tau(structure: HopfStructure, e: AlgebraElement) -> AlgebraElement:
    return structure.apply_tau(e)


def _mul_slots(te):
    """Multiply the two legs of a rank-2 tensor inside one algebra."""
    pres = te.spaces[0]
    out = {}
    for (m1, m2), c in te.terms.items():
        accumulate(out, pres.mono_product(m1, m2).terms, c)
    return AlgebraElement(pres, out)


def verify_hopf(structure: HopfStructure, degree: int) -> CheckReport:
    """Check the Hopf *-algebra axioms on the monomial window.

    All normal monomials of non-invertible degree <= degree (invertible
    exponents bounded by the same number) are tested; the
    multiplicativity of Delta is checked on all pairs whose degrees fit
    inside the window.  Failures become report entries, never raises.
    """
    rep = CheckReport("hopf-axioms", preset=structure.name,
                      params={"degree": degree})
    pres = structure.pres
    window = pres.monomials_up_to(degree)
    eps, delta = structure.epsilon, structure.delta
    S, star, tau_m = structure.antipode, structure.star, structure.tau

    for mon in window:
        a = pres.monomial(mon)
        label = str(a)
        d = delta.apply(a)
        lhs = tensor_map([delta, None], d)
        rhs = tensor_map([None, delta], d)
        rep.record(f"coassoc[{label}]", lhs == rhs,
                   law="(Delta x id) Delta = (id x Delta) Delta", witness=label)
        cl = tensor_map([eps, None], d)
        cr = tensor_map([None, eps], d)
        rep.record(f"counit[{label}]", cl == a and cr == a,
                   law="(eps x id) Delta = id = (id x eps) Delta", witness=label)
        if S is not None:
            conv_l = _mul_slots(tensor_map([S, None], d))
            conv_r = _mul_slots(tensor_map([None, S], d))
            unit_eps = pres.one() * eps.apply(a)
            rep.record(f"antipode[{label}]",
                       conv_l == unit_eps and conv_r == unit_eps,
                       law="m(S x id)Delta = eta eps = m(id x S)Delta",
                       witness=label)
        if star is not None:
            astar = star.apply(a)
            rep.record(f"star-coproduct[{label}]",
                       delta.apply(astar) == tensor_map([star, star], d),
                       law="Delta(a*) = (* x *) Delta(a)", witness=label)
            rep.record(f"star-counit[{label}]",
                       eps.apply(astar) == eps.apply(a).conjugate(),
                       law="eps(a*) = conj(eps(a))", witness=label)
            rep.record(f"star-involution[{label}]",
                       star.apply(astar) == a,
                       law="(a*)* = a", witness=label)
        if tau_m is not None:
            rep.record(f"tau-squared[{label}]",
                       tau_m.apply(tau_m.apply(a)) == a,
                       law="tau o tau = id", witness=label)

    half = pres.monomials_up_to(max(degree // 2, 1), zrange=max(degree // 2, 1))
    half = [(a, str(a)) for a in map(pres.monomial, half)]
    for a, al in half:
        for b, bl in half:
            ok = delta.apply(a * b) == delta.apply(a) * delta.apply(b)
            rep.record(f"coproduct-product[{al}|{bl}]", ok,
                       law="Delta(ab) = Delta(a) Delta(b)",
                       witness=lambda: f"{al} | {bl}")
    return rep.finalize()


# -- built-in presentations and structures -------------------------------


def _uq_presentation():
    gens = ("M", "K", "T", "B")
    inv = (False, True, False, False)
    Mi, Ki, Ti, Bi = 0, 1, 2, 3
    half = scalar(Fraction(1, 2))
    rules = {
        (Ki, 1, Mi, 1): [(ONE, ((Mi, 1), (Ki, 1)))],
        (Ki, -1, Mi, 1): [(ONE, ((Mi, 1), (Ki, -1)))],
        (Ti, 1, Mi, 1): [(ONE, ((Mi, 1), (Ti, 1)))],
        (Ti, 1, Ki, 1): [(ONE, ((Ki, 1), (Ti, 1)))],
        (Ti, 1, Ki, -1): [(ONE, ((Ki, -1), (Ti, 1)))],
        (Bi, 1, Mi, 1): [(ONE, ((Mi, 1), (Bi, 1)))],
        # K B K^-1 = B - iw M, so B K = K B + iw M K
        (Bi, 1, Ki, 1): [(ONE, ((Ki, 1), (Bi, 1))),
                         (IW, ((Mi, 1), (Ki, 1)))],
        (Bi, 1, Ki, -1): [(ONE, ((Ki, -1), (Bi, 1))),
                          (-IW, ((Mi, 1), (Ki, -1)))],
        # [B, T] = i (K - K^-1) / (2w)
        (Bi, 1, Ti, 1): [(ONE, ((Ti, 1), (Bi, 1))),
                         (I * half / W, ((Ki, 1),)),
                         (-I * half / W, ((Ki, -1),))],
    }
    return Presentation("uq-g1", gens, inv, rules)


def _fq_presentation():
    gens = ("mu", "x", "t", "v")
    inv = (False, False, False, False)
    mu, x, t, v = 0, 1, 2, 3
    rules = {
        (x, 1, mu, 1): [(ONE, ((mu, 1), (x, 1))), (-2 * IW, ((mu, 1),))],
        (t, 1, mu, 1): [(ONE, ((mu, 1), (t, 1)))],
        (t, 1, x, 1): [(ONE, ((x, 1), (t, 1)))],
        # [mu, v] = -iw v^2
        (v, 1, mu, 1): [(ONE, ((mu, 1), (v, 1))), (IW, ((v, 2),))],
        # [x, v] = -2iw v
        (v, 1, x, 1): [(ONE, ((x, 1), (v, 1))), (2 * IW, ((v, 1),))],
        (v, 1, t, 1): [(ONE, ((t, 1), (v, 1)))],
    }
    return Presentation("fq-g1", gens, inv, rules)


def _fqj_presentation():
    gens = ("muh", "xh", "th")
    inv = (False, False, False)
    mu, x, t = 0, 1, 2
    rules = {
        (x, 1, mu, 1): [(ONE, ((mu, 1), (x, 1))), (-2 * IW, ((mu, 1),))],
        (t, 1, mu, 1): [(ONE, ((mu, 1), (t, 1)))],
        (t, 1, x, 1): [(ONE, ((x, 1), (t, 1)))],
    }
    return Presentation("fq-j", gens, inv, rules)


def _h0_presentation():
    gens = ("v0", "v1")
    inv = (False, False)
    v0, v1 = 0, 1
    wm_inv = ONE / (W * SM)
    reduce_pair = [(wm_inv, ((v1, 1),)), (-wm_inv, ((v0, 1),))]
    rules = {
        (v1, 1, v0, 1): reduce_pair,
        (v0, 1, v1, 1): reduce_pair,  # w m v0 v1 = v1 - v0 on the ordered pair too
    }
    return Presentation("h0-irr", gens, inv, rules)


def _build_uq():
    p = _uq_presentation()
    Mg, Kg, Kinv, Tg, Bg = p.gen("M"), p.gen("K"), p.gen("K", -1), p.gen("T"), p.gen("B")
    one = p.one()
    delta = [
        Mg.tensor(Kg) + Kinv.tensor(Mg),
        Kg.tensor(Kg),
        Tg.tensor(one) + one.tensor(Tg),
        Bg.tensor(Kg) + Kinv.tensor(Bg),
    ]
    eps = [ZERO, ONE, ZERO, ZERO]
    antipode = [-Mg, Kinv, -Tg, -Bg + Mg * IW]
    star = [Mg, Kg, Tg, Bg]  # all generators real
    return HopfStructure("uq-g1", p, delta, eps, antipode, star)


def _build_fq():
    p = _fq_presentation()
    mu, x, t, v = (p.gen(g) for g in ("mu", "x", "t", "v"))
    one = p.one()
    half = scalar(Fraction(1, 2))
    delta = [
        mu.tensor(one) + one.tensor(mu) + v.tensor(x) + (v * v).tensor(t) * half,
        x.tensor(one) + one.tensor(x) + v.tensor(t),
        t.tensor(one) + one.tensor(t),
        v.tensor(one) + one.tensor(v),
    ]
    eps = [ZERO, ZERO, ZERO, ZERO]
    antipode = [-mu + v * x - (v * v * t) * half, -x + t * v, -t, -v]
    star = [mu - v * IW, x, t, v]  # mu* = mu - iw v, the rest real
    return HopfStructure("fq-g1", p, delta, eps, antipode, star)


def _build_fqj():
    p = _fqj_presentation()
    gens = [p.gen(g) for g in p.generators]
    one = p.one()
    delta = [g.tensor(one) + one.tensor(g) for g in gens]  # all primitive
    eps = [ZERO, ZERO, ZERO]
    antipode = [-g for g in gens]
    star = list(gens)  # all real
    return HopfStructure("fq-j", p, delta, eps, antipode, star)


_CACHE = {}


def _h0():
    if "h0-irr" not in _CACHE:
        _CACHE["h0-irr"] = _h0_presentation()
    return _CACHE["h0-irr"]


def builtin(name: str) -> HopfStructure:
    """The built-in Hopf structures by CLI name."""
    if name not in _CACHE:
        if name == "uq-g1":
            _CACHE[name] = _build_uq()
        elif name == "fq-g1":
            _CACHE[name] = _build_fq()
        elif name == "fq-j":
            _CACHE[name] = _build_fqj()
        else:
            raise UnknownStructure(f"no built-in Hopf structure named {name!r}")
    return _CACHE[name]


BUILTIN_NAMES = ("uq-g1", "fq-g1", "fq-j", "h0-irr")


def algebra_presentation(name: str) -> Presentation:
    if name == "h0-irr":
        return _h0()
    return builtin(name).pres
