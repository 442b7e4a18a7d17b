"""Coisotropic quantum subgroups and embeddable homogeneous spaces.

A subgroup is a coalgebra quotient pi: ambient -> quotient that is also a
one-sided module morphism and intertwines tau with tau_K.  The left
homogeneous space is cut out by the membership equation

    (pi x id) Delta a = pi(1) (x) a            (left)
    (id x pi) Delta a = a (x) pi(1)            (right)

solved exactly over a finite monomial window.  All ideal/coideal/module
properties are bounded-degree verifications and are reported as such.
"""

from __future__ import annotations

import functools

from .errors import (
    NotCoalgebraMorphism,
    NotModuleMorphism,
    RelationNotPreserved,
    TauIncompatible,
    check_choice,
)
from .hopf import HopfStructure, antipode_convolutions, builtin
from .ncalg import (AlgebraElement, Morphism, TensorElement, constraint_rows,
                    linear_solve, tensor_map)
from .report import CheckReport

SUBGROUP_SIDES = ("left", "right", "two-sided")


class CoisotropicSubgroup:
    """Validated quotient data: ambient, quotient, pi and side."""

    def __init__(self, ambient, quotient, pi, side):
        self.ambient = ambient
        self.quotient = quotient
        self.pi = pi
        self.side = side

    def __repr__(self):
        return (f"CoisotropicSubgroup({self.ambient.name} -> "
                f"{self.quotient.name}, side={self.side})")


def build_subgroup(ambient: HopfStructure, quotient: HopfStructure, pi_table,
                   side: str = "left", kernel_generators=(),
                   check_degree: int = 3) -> CoisotropicSubgroup:
    """Construct and validate a coisotropic subgroup from a pi table.

    Raises NotModuleMorphism / NotCoalgebraMorphism / TauIncompatible with
    the witness; deeper window checks live in subgroup_report.
    """
    check_choice("side", side, SUBGROUP_SIDES)
    try:
        pi = Morphism(ambient.pres, pi_table, kind="hom",
                      name=f"pi[{ambient.name}->{quotient.name}]")
    except RelationNotPreserved as exc:
        # pi must intertwine multiplication with the quotient module action
        raise NotModuleMorphism(str(exc)) from exc

    for g in ambient.pres.generators:
        e = ambient.pres.gen(g)
        lhs = tensor_map([pi, pi], ambient.delta.apply(e))
        rhs = quotient.delta.apply(pi.apply(e))
        if lhs != rhs:
            raise NotCoalgebraMorphism(f"(pi x pi) Delta != Delta_K pi on {g}")
        if quotient.epsilon.apply(pi.apply(e)) != ambient.epsilon.apply(e):
            raise NotCoalgebraMorphism(f"eps_K pi != eps on {g}")
        if ambient.tau is not None and quotient.tau is not None:
            if pi.apply(ambient.tau.apply(e)) != quotient.tau.apply(pi.apply(e)):
                raise TauIncompatible(f"pi tau != tau_K pi on {g}")

    for k in kernel_generators:
        if not pi.apply(k).is_zero():
            raise NotModuleMorphism(f"declared kernel element {k} survives pi")

    sub = CoisotropicSubgroup(ambient, quotient, pi, side)
    _check_surjective(sub, check_degree)
    return sub


def _check_surjective(sub, degree):
    """pi hits every quotient monomial of the window: the pivot-free columns
    of the images, the first keys of linear_solve's basis, are its misses."""
    target = sub.quotient.pres.monomials_up_to(degree)
    keep = set(target)
    rows = []
    for mon in sub.ambient.pres.monomials_up_to(degree):
        img = sub.pi.apply(sub.ambient.pres.monomial(mon))
        rows.append({qm: c for qm, c in img.terms.items() if qm in keep})
    missing = [next(iter(vec)) for vec in linear_solve(rows, target)]
    if missing:
        raise NotModuleMorphism(
            f"pi is not surjective on the degree-{degree} window; "
            f"missing {missing[:3]}")


def membership_defect(sub, a, side="left"):
    """(pi x id) Delta a - pi(1) (x) a (left), or the right mirror."""
    check_choice("side", side)
    amb, pi = sub.ambient, sub.pi
    d = amb.delta.apply(a)
    pi1 = pi.apply(amb.pres.one())
    if side == "left":
        lhs = tensor_map([pi, None], d)
        rhs = pi1.tensor(a)
    else:
        lhs = tensor_map([None, pi], d)
        rhs = a.tensor(pi1)
    return lhs - rhs


def is_member(sub, a, side="left"):
    return membership_defect(sub, a, side).is_zero()


def homogeneous_space(sub: CoisotropicSubgroup, degree: int,
                      side: str = "left"):
    """Exact basis of the membership-equation solutions in the window.

    Returns AlgebraElements; the span is *-closed (verified separately in
    homogeneous_space_report).
    """
    pres = sub.ambient.pres
    window = pres.monomials_up_to(degree)
    rows = constraint_rows(window, lambda mon: membership_defect(
        sub, pres.monomial(mon), side).terms)
    return [AlgebraElement(pres, vec)
            for vec in linear_solve(rows.values(), window)]


def epsilon_side(a, sub: CoisotropicSubgroup, side: str = "left"):
    """eps_L(a) = sum pi(Sinv(a_(2)) a_(1)); right mirror swaps the legs.

    pi of one antipode convolution of Sinv over the flipped Delta a.  As
    sum Sinv(a_(2)) a_(1) = eps(a) 1 = sum a_(2) Sinv(a_(1)), it equals
    eps(a) pi(1) for every a, so a swap of the legs does not show.
    """
    check_choice("side", side)
    amb = sub.ambient
    d = amb.delta.apply(a)
    flipped = TensorElement(d.spaces, {(m2, m1): c
                                       for (m1, m2), c in d.terms.items()})
    left, right = antipode_convolutions(amb.antipode_inv, flipped)
    return sub.pi.apply(left if side == "left" else right)


def subgroup_report(sub: CoisotropicSubgroup, degree: int) -> CheckReport:
    """Window verification of the subgroup axioms (ideal, coideal, tau)."""
    rep = CheckReport("coisotropic", preset=sub.quotient.name,
                      params={"degree": degree, "side": sub.side})
    amb, quo, pi = sub.ambient, sub.quotient, sub.pi

    window = amb.pres.monomials_up_to(degree)
    for mon in window:
        a = amb.pres.monomial(mon)
        ok = tensor_map([pi, pi], amb.delta.apply(a)) == quo.delta.apply(pi.apply(a))
        rep.record(f"coalgebra-morphism[{a}]", ok,
                   law="(pi x pi) Delta = Delta_K pi", witness=str(a))

    # kernel window: solutions of pi(a) = 0, a in window
    rows = constraint_rows(
        window, lambda mon: pi.apply(amb.pres.monomial(mon)).terms)
    kernel = [AlgebraElement(amb.pres, v)
              for v in linear_solve(rows.values(), window)]
    rep.record("kernel-dimension", len(kernel) > 0 or degree == 0,
               law="proper quotient has a kernel", witness=f"degree {degree}")

    gens = [amb.pres.gen(g) for g in amb.pres.generators]
    for idx, k in enumerate(kernel):
        if sub.side in ("right", "two-sided"):
            ok = all(pi.apply(k * g).is_zero() for g in gens)
            rep.record(f"kernel-right-ideal[{idx}]", ok,
                       law="kernel * F_q(G) stays in kernel", witness=str(k))
        if sub.side in ("left", "two-sided"):
            ok = all(pi.apply(g * k).is_zero() for g in gens)
            rep.record(f"kernel-left-ideal[{idx}]", ok,
                       law="F_q(G) * kernel stays in kernel", witness=str(k))
        ok = tensor_map([pi, pi], amb.delta.apply(k)).is_zero()
        rep.record(f"kernel-coideal[{idx}]", ok,
                   law="Delta(kernel) in kernel (x) A + A (x) kernel",
                   witness=str(k))
        ok = pi.apply(amb.tau.apply(k)).is_zero()
        rep.record(f"kernel-tau-invariant[{idx}]", ok,
                   law="tau preserves the kernel", witness=str(k))

    for g in amb.pres.generators:
        e = amb.pres.gen(g)
        ok = pi.apply(amb.tau.apply(e)) == quo.tau.apply(pi.apply(e))
        rep.record(f"tau-intertwined[{g}]", ok,
                   law="pi tau = tau_K pi", witness=g)

    return rep.finalize()


def homogeneous_space_report(sub: CoisotropicSubgroup, degree: int,
                             side: str = "left") -> CheckReport:
    """Verify the homogeneous-space window: star closure, subalgebra,
    coideal, and the eps_side / pi(a*) identities."""
    check_choice("side", side)
    rep = CheckReport("homogeneous-space", preset=sub.quotient.name,
                      params={"degree": degree, "side": side})
    amb, pi = sub.ambient, sub.pi
    basis = homogeneous_space(sub, degree, side)
    rep.record("basis-size", len(basis) == degree + 1,
               law="one basis element per degree",
               witness="; ".join(str(b) for b in basis))

    pi1 = pi.apply(amb.pres.one())
    for b in basis:
        bstar = amb.apply_star(b)
        rep.record(f"star-closed[{b}]", is_member(sub, bstar, side),
                   law="the homogeneous space is *-closed", witness=str(b))
        ok = pi.apply(bstar) == pi1 * amb.epsilon.apply(bstar)
        rep.record(f"pi-star-counit[{b}]", ok,
                   law="pi(a*) = eps(a*) pi(1)", witness=str(b))
        es = epsilon_side(b, sub, side)
        ok = es == pi1 * amb.epsilon.apply(b)
        rep.record(f"eps-side[{b}]", ok,
                   law="eps_side(a) = eps(a) pi(1)", witness=str(b))

    for b1 in basis:
        for b2 in basis:
            if b1.degree() + b2.degree() > degree:
                continue
            rep.record(f"subalgebra[{b1}|{b2}]", is_member(sub, b1 * b2, side),
                       law="products of members are members",
                       witness=f"{b1} | {b2}")

    for b in basis:
        d = amb.delta.apply(b)
        legs = {}
        for (m1, m2), c in d.terms.items():
            first, second = (m1, m2) if side == "left" else (m2, m1)
            legs.setdefault(second, {})[first] = c
        ok = all(is_member(sub, AlgebraElement(amb.pres, leg), side)
                 for leg in legs.values())
        rep.record(f"coideal[{b}]", ok,
                   law="Delta a lands in B (x) F_q(G)", witness=str(b))
    return rep.finalize()


@functools.cache
def galilei_subgroup() -> CoisotropicSubgroup:
    """The built-in projection onto the three-generator subgroup, built
    once per process like the Hopf built-ins."""
    fq = builtin("fq-g1")
    fj = builtin("fq-j")
    p, q = fq.pres, fj.pres
    table = {"mu": q.gen("muh"), "x": q.gen("xh"),
             "t": q.gen("th"), "v": q.zero()}
    return build_subgroup(fq, fj, table, side="two-sided",
                          kernel_generators=[p.gen("v")])
