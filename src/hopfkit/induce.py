"""Induced corepresentations, sesquilinear forms and the unitarized
representations, with the concrete Galilei realization.

The generic layer solves the membership equation

    (id x L) F = (rho_R x id) F,     L = (pi x id) Delta      (left case)

exactly over a monomial window, and carries the unitarized representation
rho~(X) A = sum X_(1).A_i phi[X_(2)] together with the left sesquilinear
form <A, B>_L = sum A_i* B_i, which always lands in the homogeneous
space.  The right case mirrors everything.

The Galilei layer works on vectors sum a_l phi chi^l with the opaque
prefix phi obeying a single contraction used by forms, phi* phi = chi,
so (phi chi^l)*(phi chi^n) = chi^(l+n+1).  Such a vector is stored as
the Laurent element x = sum a_l chi^l of LAURENT and read as phi * x;
galilei_label prints it on the phi chi^l basis.  The closed operator
table is a checked Morphism uq-g1 -> OPS, the operators on LAURENT
generated by chi and the Euler operator E chi^l = l chi^l:

    K -> chi
    B -> iwm (E + 1/2)
    T -> u - (2 - chi - chi^-1)/(2 w^2 m)
    M -> m

Its construction proves the defining relations for every l.  It is
cross-checked against the weight-driven construction: the module action,
the same table with B -> iwm E, reproduces the closed table through
rho~(X) A = sum X_(1).A phi[X_(2)].
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .coiso import CoisotropicSubgroup, homogeneous_space, is_member
from .errors import NotCorepresentation, SideMismatch, check_sizes
from .hopf import builtin
from .ncalg import (AlgebraElement, Morphism, accumulate, constraint_rows,
                    linear_solve, tensor_map)
from .pairing import act as regular_act
from .quasiinv import (IWM, LAURENT, OPS, ChiModule, RegularModule, Weight,
                       act, chi, epsilon_weight, galilei_weight,
                       nu_w_functional, transform_weight, twisted_action)
from .report import CheckReport
from .scalars import (I, M as SM, ONE, Scalar, U as SU, W, ZERO,
                      format_terms)

CHI = chi(1)


@functools.cache
def _galilei_table(half: bool) -> Morphism:
    """uq-g1 -> OPS with B -> iwm (E + 1/2), the closed table, or with
    B -> iwm E, the module action."""
    c, one = OPS.gen("chi"), OPS.one()
    t = one.scale(SU) - (one.scale(2) - c - c.inverse()).scale(
        ONE / (2 * W * W * SM))
    b = OPS.gen("E") + one.scale(Fraction(1, 2) if half else 0)
    return Morphism(builtin("uq-g1").pres, [one.scale(SM), c, t, b.scale(IWM)],
                    name="galilei_rep" if half else "galilei_module")


# -- corepresentations of the quotient ------------------------------------


class Corepresentation:
    """Matrix corepresentation of the quotient coalgebra.

    side="right": rho(e_i) = sum_j e_j (x) m[j][i]
    side="left":  rho(e_i) = sum_j m[i][j] (x) e_j
    """

    def __init__(self, sub: CoisotropicSubgroup, matrix, side="right"):
        self.sub = sub
        self.matrix = [list(row) for row in matrix]
        self.side = side
        self.n = len(self.matrix)
        quo = sub.quotient
        # coaction axioms on the matrix: Delta_K m_ij = sum_k m_ik (x) m_kj
        for i in range(self.n):
            for j in range(self.n):
                d = quo.delta.apply(self.matrix[i][j])
                total = None
                for k in range(self.n):
                    piece = self.matrix[i][k].tensor(self.matrix[k][j])
                    total = piece if total is None else total + piece
                if d != total:
                    raise NotCorepresentation(
                        f"matrix entry ({i},{j}) breaks the coaction")
                eps = quo.epsilon.apply(self.matrix[i][j])
                want = ONE if i == j else ZERO
                if eps != want:
                    raise NotCorepresentation(
                        f"counit of entry ({i},{j}) is {eps}")

    def is_unitary(self):
        quo = self.sub.quotient
        for i in range(self.n):
            for j in range(self.n):
                if quo.tau.apply(self.matrix[i][j]) != self.matrix[j][i]:
                    return False
        return True


def trivial_corep(sub: CoisotropicSubgroup, side="right") -> Corepresentation:
    return Corepresentation(sub, [[sub.pi.apply(sub.ambient.pres.one())]], side)


class IndElement:
    """Vector of function-algebra components, tagged by side."""

    __slots__ = ("components", "side")

    def __init__(self, components, side="left"):
        self.components = tuple(components)
        self.side = side

    def __eq__(self, other):
        return (isinstance(other, IndElement) and self.side == other.side
                and self.components == other.components)

    def times(self, a):
        """Right multiplication by a homogeneous-space element."""
        return IndElement([comp * a for comp in self.components], self.side)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"<ind {self.side}: {self}>"


def ind_space(sub: CoisotropicSubgroup, rho: Corepresentation, degree: int):
    """Exact basis of the induced space inside the monomial window.

    The unknown (i, mon) puts the monomial mon in component i.  Its column
    is L(mon) (right corep) or R(mon) (left corep) in row block i, minus
    m[j][i] (x) mon, or mon (x) m[i][j], in row block j for each j.
    """
    amb, pi = sub.ambient, sub.pi
    pres = amb.pres
    window = pres.monomials_up_to(degree)
    n = rho.n
    right = rho.side == "right"

    def column(unknown):
        i, mon = unknown
        image = tensor_map([pi, None] if right else [None, pi],
                           amb.delta.apply(pres.monomial(mon)))
        col = {(i,) + key: c for key, c in image.terms.items()}
        for j in range(n):
            entry = rho.matrix[j][i] if right else rho.matrix[i][j]
            accumulate(col, {(j, qm, mon) if right else (j, mon, qm): -cq
                             for qm, cq in entry.terms.items()}, ONE)
        return col

    unknowns = [(i, mon) for i in range(n) for mon in window]
    rows = constraint_rows(unknowns, column)
    out = []
    for vec in linear_solve(rows.values(), unknowns):
        comps = [{} for _ in range(n)]
        for (i, mon), c in vec.items():
            comps[i][mon] = c
        out.append(IndElement([AlgebraElement(pres, t) for t in comps],
                              "left" if right else "right"))
    return out


def sesq_form(A: IndElement, B: IndElement) -> AlgebraElement:
    """<A, B>_L = sum_i A_i* B_i; on the right, sum_j B_j A_j*.  The form
    takes its side from A, and B must share it."""
    if A.side != B.side:
        raise SideMismatch(f"form on elements {A.side}/{B.side}")
    fq = builtin("fq-g1")
    out = fq.pres.zero()
    for a, b in zip(A.components, B.components):
        if A.side == "left":
            out = out + fq.star.apply(a) * b
        else:
            out = out + b * fq.star.apply(a)
    return out


def eq_sesq_defect(A: IndElement, rho: Corepresentation, i: int):
    """The leg identity behind the sesquilinear-form lemma.

    Left case (right corep):
      sum_j sum_(A_j) pi(Sinv(A_j(1))) a_ij (x) A_j(2)  =  pi(1) (x) A_i
    Right case (left corep):
      sum_j sum_(A_j) A_j(1) (x) b_ji pi(Sinv(A_j(2)))  =  A_i (x) pi(1)
    Returns lhs - rhs.
    """
    sub = rho.sub
    amb, pi, sinv = sub.ambient, sub.pi, sub.ambient.antipode_inv
    one, pi1 = amb.pres.one(), pi.apply(amb.pres.one())
    if A.side == "left":
        total = -pi1.tensor(A.components[i])
    else:
        total = -A.components[i].tensor(pi1)
    for j in range(rho.n):
        d = amb.delta.apply(A.components[j])
        if A.side == "left":
            legs = tensor_map([pi, None], tensor_map([sinv, None], d))
            total = total + legs * rho.matrix[i][j].tensor(one)
        else:
            legs = tensor_map([None, pi], tensor_map([None, sinv], d))
            total = total + one.tensor(rho.matrix[j][i]) * legs
    return total


def rho_tilde_generic(X: AlgebraElement, A: IndElement, phi: Weight) -> IndElement:
    """rho~(X) A = sum_i e_i (x) X_(1).A_i phi[X_(2)] on a left element;
    its right mirror lambda~(X) A = sum_i phi[X_(1)] A_i.X_(2) (x) e_i."""
    return IndElement([twisted_action(phi, X, a, A.side)
                       for a in A.components], A.side)


# -- the Galilei representation space --------------------------------------


def galilei_label(A: AlgebraElement) -> str:
    """The Galilei vector phi * A printed on the basis {phi chi^l}."""
    return format_terms((str(c), f"phi*chi^{l}")
                        for (l,), c in sorted(A.terms.items()))


def star_pairing(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """(phi A)* (phi B) = chi conj(A) B."""
    return CHI * ChiModule().star(A) * B


def galilei_rep(name: str, A: AlgebraElement) -> AlgebraElement:
    """The closed table on a uq-g1 generator name (Kinv or K^-1 for K^-1)."""
    g, exp = ("K", -1) if name in ("Kinv", "K^-1") else (name, 1)
    return galilei_rep_element(builtin("uq-g1").pres.gen(g, exp), A)


def galilei_rep_element(X: AlgebraElement, A: AlgebraElement) -> AlgebraElement:
    """Linear extension of the closed table to uq-g1 elements."""
    return act(_galilei_table(True).apply(X), A)


@functools.cache
def _galilei_module() -> ChiModule:
    return ChiModule(_galilei_table(False))


def rho_from_weight(X: AlgebraElement, A: AlgebraElement, phi: Weight) -> AlgebraElement:
    """rho~(X) A = sum X_(1).A . phi[X_(2)] on the Galilei space."""
    return twisted_action(phi, X, A, module=_galilei_module())


def minkowski_form(A: AlgebraElement, B: AlgebraElement) -> Scalar:
    """<A, B> = nu_w(A* B) = sum conj(a_l) b_{-l-1}."""
    out = ZERO
    for (l,), a in A.terms.items():
        b = B.terms.get((-l - 1,))
        if b is not None:
            out = out + a.conjugate() * b
    return out


def j_structure(A: AlgebraElement) -> AlgebraElement:
    """j(phi chi^l) = phi chi^(-l-1); linear and involutive."""
    return AlgebraElement(LAURENT, {(-l - 1,): c for (l,), c in A.terms.items()})


def scalar_product(A: AlgebraElement, B: AlgebraElement) -> Scalar:
    """(phi chi^l, phi chi^n) = delta_{l,n}, extended sesquilinearly."""
    out = ZERO
    for k, a in A.terms.items():
        b = B.terms.get(k)
        if b is not None:
            out = out + a.conjugate() * b
    return out


def equivalence_intertwiner(xi, A):
    """F(A) = A xi, the unitary equivalence between weight-twisted reps."""
    xi.inverse()  # raises NotInvertible unless xi is a unit
    return A * xi


# -- verification suites ----------------------------------------------------


def galilei_basis(window):
    """(vector, label) pairs for phi chi^l, |l| <= window."""
    check_sizes(window=window)
    return [(A, galilei_label(A))
            for A in map(chi, range(-window, window + 1))]


def relations_report(window: int) -> CheckReport:
    """The defining relations as operator identities on the window, plus
    agreement of the closed table with the weight-driven construction."""
    rep = CheckReport("relations", preset="galilei", params={"window": window})
    uq = builtin("uq-g1")
    phi = galilei_weight()
    K = lambda A: galilei_rep("K", A)
    Kinv = lambda A: galilei_rep("Kinv", A)
    B = lambda A: galilei_rep("B", A)
    T = lambda A: galilei_rep("T", A)
    Mop = lambda A: galilei_rep("M", A)
    for A, label in galilei_basis(window):
        rep.record(f"KKinv[{label}]", K(Kinv(A)) == A and Kinv(K(A)) == A,
                   law="K K^-1 = 1 = K^-1 K", witness=label)
        lhs = K(B(Kinv(A)))
        rhs = B(A) - Mop(A).scale(I * W)
        rep.record(f"KBKinv[{label}]", lhs == rhs,
                   law="K B K^-1 = B - iw M", witness=label)
        lhs = B(T(A)) - T(B(A))
        rhs = (K(A) - Kinv(A)).scale(I / (2 * W))
        rep.record(f"BT-commutator[{label}]", lhs == rhs,
                   law="[B, T] = i (K - K^-1) / (2w)", witness=label)
        rep.record(f"KT-commute[{label}]", K(T(A)) == T(K(A)),
                   law="[K, T] = 0", witness=label)
        ok = all(galilei_rep(g, Mop(A)) == Mop(galilei_rep(g, A))
                 for g in ("K", "Kinv", "B", "T"))
        rep.record(f"M-central[{label}]", ok and Mop(A) == A.scale(SM),
                   law="M = m id is central", witness=label)
        for g in ("M", "K", "T", "B"):
            X = uq.pres.gen(g)
            rep.record(f"weight-consistency[{g}|{label}]",
                       rho_from_weight(X, A, phi) == galilei_rep_element(X, A),
                       law="closed table = sum X_(1).A phi[X_(2)]",
                       witness=lambda: f"{g} on {label}")
    return rep.finalize()


def unitarity_report(window: int) -> CheckReport:
    """<A, rho~(X) B> = <rho~(X*) A, B> for the generator set; all real
    generators are self-adjoint here, K and K^-1 swap nothing."""
    rep = CheckReport("unitarity", preset="galilei", params={"window": window})
    basis = galilei_basis(window)
    ops = ("K", "Kinv", "B", "T", "M")  # all star-fixed
    for g in ops:
        for A, al in basis:
            for Bv, bl in basis:
                lhs = minkowski_form(A, galilei_rep(g, Bv))
                rhs = minkowski_form(galilei_rep(g, A), Bv)
                rep.record(f"unitary[{g}|{al}|{bl}]", lhs == rhs,
                           law="<A, rho(X) B> = <rho(X*) A, B>",
                           witness=lambda: f"{g}: {al} | {bl}")
    for A, al in basis:
        for Bv, bl in basis:
            rep.record(f"hermitian[{al}|{bl}]",
                       minkowski_form(A, Bv) ==
                       minkowski_form(Bv, A).conjugate(),
                       law="<A, B> = conj(<B, A>)",
                       witness=lambda: f"{al} | {bl}")
    return rep.finalize()


def jform_report(window: int) -> CheckReport:
    rep = CheckReport("jform", preset="galilei", params={"window": window})
    basis = galilei_basis(window)
    for A, al in basis:
        rep.record(f"j-involutive[{al}]", j_structure(j_structure(A)) == A,
                   law="j o j = id", witness=al)
        rep.record(f"scalar-diagonal[{al}]", scalar_product(A, A) == ONE,
                   law="(a, a) = 1 on basis vectors", witness=al)
        for Bv, bl in basis:
            rep.record(f"jform[{al}|{bl}]",
                       minkowski_form(A, Bv) == scalar_product(j_structure(A), Bv),
                       law="<a, b> = (j(a), b)", witness=lambda: f"{al} | {bl}")
    return rep.finalize()


def intertwiner_report(window: int) -> CheckReport:
    """Equivalence transport for xi = chi: F(A) = A chi intertwines the
    transformed-weight representation into the reference one, and carries
    the twisted form back to the Minkowski form."""
    rep = CheckReport("intertwiner", preset="galilei", params={"window": window})
    uq = builtin("uq-g1")
    xi = CHI
    phi2 = galilei_weight()
    phi1 = transform_weight(phi2, xi)
    nu = nu_w_functional()
    xi_inv = xi.inverse()
    basis = galilei_basis(window)

    def F(A):
        return equivalence_intertwiner(xi, A)

    for g in ("M", "K", "T", "B"):
        X = uq.pres.gen(g)
        for A, al in basis:
            lhs = F(rho_from_weight(X, A, phi1))
            rhs = rho_from_weight(X, F(A), phi2)
            rep.record(f"intertwine[{g}|{al}]", lhs == rhs,
                       law="F rho_1(X) = rho_2(X) F",
                       witness=lambda: f"{g} on {al}")
    # h2(a) = h1((xi^-1)* a xi^-1) pulls the twisted form back to Minkowski
    h2 = nu.conjugated_by(xi_inv)
    for A, al in basis:
        for Bv, bl in basis:
            lhs = h2(star_pairing(F(A), F(Bv)))
            rep.record(f"form-transport[{al}|{bl}]",
                       lhs == minkowski_form(A, Bv),
                       law="<FA, FB>_2 = <A, B>",
                       witness=lambda: f"{al} | {bl}")
    return rep.finalize()


# per side, the id and law of each shared generic check; on the right
# the representation law composes in the opposite order
_GENERIC_CHECKS = {
    "left": {
        "space": ("ind-equals-homspace", "ind of the trivial corep = homogeneous space"),
        "sesq": ("sesq-membership", "<A, B>_L lies in the homogeneous space"),
        "legs": ("eq-legs-left", "sum pi(Sinv(A_(1))) a (x) A_(2) = pi(1) (x) A"),
        "unit": ("rho-unit", "rho~(1) = id"),
        "action": ("rho-epsilon-weight-is-action",
                   "with the counit weight rho~ is the regular action"),
        "rep-law": ("rho-rep-law", "rho~(XY) = rho~(X) rho~(Y)"),
    },
    "right": {
        "space": ("ind-right-equals-homspace",
                  "right ind of the trivial corep = right homogeneous space"),
        "sesq": ("sesq-right-membership", "<A, B>_R lies in the right homogeneous space"),
        "legs": ("eq-legs-right", "sum A_(1) (x) b S^-1(A_(2)) = A (x) pi(1)"),
        "unit": ("lambda-unit", "lambda~(1) = id"),
        "action": ("lambda-epsilon-weight-is-right-action",
                   "with the counit weight lambda~ is the right regular action"),
        "rep-law": ("lambda-rep-law", "lambda~(XY) = lambda~(Y) lambda~(X)"),
    },
}


def _generic_checks(rep: CheckReport, sub: CoisotropicSubgroup, degree: int,
                    side: str):
    """The trivial-corepresentation checks of one side: the induced space
    is the homogeneous space, forms land where the lemma says, the leg
    identity holds, and the generic representation is a representation.
    Returns the corepresentation and the induced basis at degree."""

    def record(key, suffix, ok, witness):
        check, law = _GENERIC_CHECKS[side][key]
        rep.record(check + suffix, ok, law=law, witness=witness)

    check_sizes(degree=degree)
    uq = builtin("uq-g1")
    rho = trivial_corep(sub, side="right" if side == "left" else "left")
    for d in range(degree + 1):
        ind = ind_space(sub, rho, d)
        hom = homogeneous_space(sub, d, side=side)
        ok = (len(ind) == len(hom)
              and sorted(str(a.components[0]) for a in ind)
              == sorted(str(b) for b in hom))
        record("space", f"[{d}]", ok, f"degree {d}")

    # the loop's last ind is the basis at degree
    for A in ind:
        for Bv in ind:
            record("sesq", f"[{A}|{Bv}]",
                   is_member(sub, sesq_form(A, Bv), side=side),
                   f"{A} | {Bv}")
        record("legs", f"[{A}]", eq_sesq_defect(A, rho, 0).is_zero(), str(A))

    phi = epsilon_weight(RegularModule())
    one_ind = IndElement([sub.ambient.pres.one()], side)
    record("unit", "", rho_tilde_generic(uq.pres.one(), one_ind, phi) == one_ind,
           "1")
    K, v = uq.pres.gen("K"), sub.ambient.pres.gen("v")
    acted = rho_tilde_generic(K, IndElement([v * v], side), phi)
    record("action", "", acted.components[0] == regular_act(K, v * v, side=side),
           "K on (v^2)")
    gens = [uq.pres.gen(g) for g in ("M", "K", "T", "B")]
    for X in gens:
        for Y in gens:
            first, then = (Y, X) if side == "left" else (X, Y)
            for A in ind[:2]:
                lhs = rho_tilde_generic(X * Y, A, phi)
                rhs = rho_tilde_generic(then, rho_tilde_generic(first, A, phi), phi)
                record("rep-law", f"[{X}|{Y}|{A}]", lhs == rhs,
                       f"{X}, {Y} on {A}")
    return rho, ind


def ind_generic_report(sub: CoisotropicSubgroup, degree: int) -> CheckReport:
    """The left generic checks, plus two that only the left case makes:
    the trivial corepresentation is unitary and the induced space is a
    module over the homogeneous space."""
    rep = CheckReport("ind-generic", preset="galilei", params={"degree": degree})
    rho, ind = _generic_checks(rep, sub, degree, "left")
    rep.record("trivial-corep-unitary", rho.is_unitary(),
               law="tau_K(a_ij) = a_ji", witness="trivial corep")
    v = sub.ambient.pres.gen("v")
    for A in ind:
        if A.components[0].degree() + 1 <= degree:
            # closure: A v solves the membership equation again
            rep.record(f"module-closure[{A}]",
                       all(is_member(sub, c, side="left")
                           for c in A.times(v).components),
                       law="ind is a module over the homogeneous space",
                       witness=str(A))
    return rep.finalize()


def mirror_right_report(sub: CoisotropicSubgroup, degree: int) -> CheckReport:
    """The right-sided mirror of the generic checks."""
    rep = CheckReport("mirror-right", preset="galilei", params={"degree": degree})
    _generic_checks(rep, sub, degree, "right")
    return rep.finalize()
