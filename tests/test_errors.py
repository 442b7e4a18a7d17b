"""Every intended error is a HopfkitError.  Where an error used to be a
builtin KeyError or ValueError, its class still derives from that type,
so callers that catch the builtin keep working."""

from fractions import Fraction

import pytest

from hopfkit.coiso import (
    build_subgroup,
    epsilon_side,
    galilei_subgroup,
    homogeneous_space,
    homogeneous_space_report,
    is_member,
    membership_defect,
)
from hopfkit.errors import (
    HopfkitError,
    InvalidArgument,
    NotAScalar,
    NotCoalgebraMorphism,
    NotCorepresentation,
    NotModuleMorphism,
    PresentationMismatch,
    UnknownGenerator,
    UnknownStructure,
)
from hopfkit.hopf import builtin
from hopfkit.induce import (
    Corepresentation,
    _galilei_module,
    galilei_label,
    galilei_rep,
    j_structure,
    minkowski_form,
    scalar_product,
    star_pairing,
)
from hopfkit.ncalg import Morphism, Presentation, linear_solve, tensor_map
from hopfkit.pairing import act as pairing_act, engine, pair
from hopfkit.parser import parse
from hopfkit.quasiinv import (
    OPS,
    ChiFraction,
    ChiFractionModule,
    ChiModule,
    Weight,
    act,
    chi,
    coboundary_weight,
    cocycle_check,
    d1_defect,
    galilei_weight,
    galilei_weight_of,
    nu_w,
    nu_w_functional,
    quasi_invariance_check,
    twisted_action,
)
from hopfkit.scalars import GaussRat, ONE, W, arith, conjugate, scalar

UQ = builtin("uq-g1")
FQ = builtin("fq-g1")
FJ = builtin("fq-j")
SUB = galilei_subgroup()
B = UQ.pres.gen("B")
M, T, K = UQ.pres.gen("M"), UQ.pres.gen("T"), UQ.pres.gen("K")
(T_MON,) = T.terms
PI_TABLE = {"mu": FJ.pres.gen("muh"), "x": FJ.pres.gen("xh"),
            "t": FJ.pres.gen("th"), "v": FJ.pres.zero()}
# t -> th + th^2 keeps the defining relations but not Delta(t)
NONCOALGEBRA_TABLE = dict(PI_TABLE, t=FJ.pres.gen("th") + FJ.pres.gen("th", 2))
QUOTIENT_ONE = SUB.pi.apply(FQ.pres.one())
V = FQ.pres.gen("v")

CASES = {
    "builtin-unknown-name": (
        lambda: builtin("uq-g2"), UnknownStructure, KeyError),
    "parse-unknown-algebra": (
        lambda: parse("x", "nope"), UnknownStructure, KeyError),
    "galilei_rep-unknown-operator": (
        lambda: galilei_rep("N", chi(0)), UnknownGenerator, None),
    "corep-breaks-coaction": (
        lambda: Corepresentation(SUB, [[QUOTIENT_ONE.scale(2)]]),
        NotCorepresentation, ValueError),
    "corep-breaks-counit": (
        lambda: Corepresentation(SUB, [[SUB.quotient.pres.zero()]]),
        NotCorepresentation, ValueError),
    "build_subgroup-bad-side": (
        lambda: build_subgroup(FQ, FJ, PI_TABLE, side="up"),
        InvalidArgument, ValueError),
    "build_subgroup-breaks-coproduct": (
        lambda: build_subgroup(FQ, FJ, NONCOALGEBRA_TABLE, check_degree=1),
        NotCoalgebraMorphism, None),
    "build_subgroup-kernel-generator-survives": (
        lambda: build_subgroup(FQ, FJ, PI_TABLE,
                               kernel_generators=[FQ.pres.gen("t")],
                               check_degree=1),
        NotModuleMorphism, None),
    "pair_engine_act-bad-side": (
        lambda: engine().act(B, FQ.pres.gen("v"), side="up"),
        InvalidArgument, ValueError),
    # B in uq-g1 has the exponent tuple of v in fq-g1, so a uq-g1 a would
    # be read as v
    "pairing_act-foreign-a-left": (
        lambda: pairing_act(B, B), PresentationMismatch, None),
    "pairing_act-foreign-a-right": (
        lambda: pairing_act(B, B, side="right"), PresentationMismatch, None),
    # a vector of the wrong kind for a chi module, never an AttributeError
    "chi_act-fraction-vector": (
        lambda: act(OPS.gen("E"), ChiFraction(chi(1))),
        PresentationMismatch, None),
    "chi_act-int-vector": (
        lambda: act(OPS.gen("E"), 3), PresentationMismatch, None),
    "chi_module_act-fraction-vector": (
        lambda: ChiModule().act(B, ChiFraction(chi(1))),
        PresentationMismatch, None),
    "twisted_action-fraction-on-chi-module": (
        lambda: twisted_action(galilei_weight(), B, ChiFraction(chi(1))),
        PresentationMismatch, None),
    "fraction_module_act-laurent-vector": (
        lambda: ChiFractionModule().act(B, chi(1)),
        PresentationMismatch, None),
    "fraction_module_act_mono-laurent-vector": (
        lambda: ChiFractionModule().act_mono((0, 0, 0, 1), chi(1)),
        PresentationMismatch, None),
    # the same with a zero operator (M and T act as zero in the weight's
    # module), or with every leg's weight value zero (phi[M] = phi[T] = 0):
    # the vector is checked before any zero shortcut
    "fraction_module_act-zero-operator-laurent-vector": (
        lambda: ChiFractionModule().act(M, chi(1)),
        PresentationMismatch, None),
    "fraction_module_act_mono-zero-operator-laurent-vector": (
        lambda: ChiFractionModule().act_mono(T_MON, chi(1)),
        PresentationMismatch, None),
    "chi_module_act_mono-zero-operator-fraction-vector": (
        lambda: ChiModule().act_mono(T_MON, ChiFraction(chi(1))),
        PresentationMismatch, None),
    "twisted_action-fraction-on-chi-module-zero-weight-t": (
        lambda: twisted_action(galilei_weight(), T, ChiFraction(chi(1))),
        PresentationMismatch, None),
    "twisted_action-fraction-on-chi-module-zero-weight-m": (
        lambda: twisted_action(galilei_weight(), M, ChiFraction(chi(1))),
        PresentationMismatch, None),
    "twisted_action-zero-fraction-on-chi-module": (
        lambda: twisted_action(galilei_weight(), B,
                               ChiFraction(chi(0).scale(0))),
        PresentationMismatch, None),
    # a zero Laurent element on the fraction field raised a bare
    # AttributeError
    "twisted_action-zero-laurent-on-fraction-module": (
        lambda: twisted_action(coboundary_weight(chi(1)), B, chi(0).scale(0)),
        PresentationMismatch, None),
    # a non-element where a map reads exponent tuples, never an
    # AttributeError: errors.check_element guards every such map
    "chi_module_act-int-operator": (
        lambda: ChiModule().act(3, chi(1)), PresentationMismatch, None),
    "weight-of-an-int": (
        lambda: galilei_weight()(3), PresentationMismatch, None),
    "pair-int-x": (lambda: pair(3, V), PresentationMismatch, None),
    "pairing_act-int-a": (
        lambda: pairing_act(B, 3), PresentationMismatch, None),
    "twisted_action-int-x": (
        lambda: twisted_action(galilei_weight(), 3, chi(1)),
        PresentationMismatch, None),
    "morphism_apply-int": (
        lambda: UQ.delta.apply(3), PresentationMismatch, None),
    "nu_w-of-an-int": (lambda: nu_w(3), PresentationMismatch, None),
    # a uq-g1 element is no Galilei vector: the first two returned 0, the
    # next three raised a bare ValueError, the last StopIteration
    "minkowski_form-foreign-b": (
        lambda: minkowski_form(chi(1), B), PresentationMismatch, None),
    "scalar_product-foreign-b": (
        lambda: scalar_product(chi(-1), B), PresentationMismatch, None),
    "minkowski_form-foreign-a": (
        lambda: minkowski_form(B, chi(1)), PresentationMismatch, None),
    "j_structure-foreign": (
        lambda: j_structure(B), PresentationMismatch, None),
    "galilei_label-foreign": (
        lambda: galilei_label(B), PresentationMismatch, None),
    "star_pairing-foreign-a": (
        lambda: star_pairing(B, chi(1)), PresentationMismatch, None),
    "chi_module_star-foreign": (
        lambda: ChiModule().star(B), PresentationMismatch, None),
    # a side or form that is not spelled exactly never runs another branch
    "twisted_action-bad-side": (
        lambda: twisted_action(galilei_weight(), B, chi(0), side="Left"),
        InvalidArgument, ValueError),
    # the Galilei tables are homs whose images do not commute, so no
    # right action; refused before any zero shortcut
    "galilei_module_act-right": (
        lambda: _galilei_module(False).act(B, chi(1), side="right"),
        InvalidArgument, ValueError),
    "twisted_action-right-on-galilei-module-zero-vector": (
        lambda: twisted_action(galilei_weight(), B, chi(0).scale(0),
                               side="right", module=_galilei_module(False)),
        InvalidArgument, ValueError),
    # phi[M] = 0, so the cocycle defect forms no twisted sum at (B, M) on
    # the left or at (M, B) on the right; its side is still checked
    "d1_defect-bad-side-zero-weight-value": (
        lambda: d1_defect(galilei_weight(), B, M, side="Left"),
        InvalidArgument, ValueError),
    "d1_defect-right-on-galilei-module-zero-weight-value": (
        lambda: d1_defect(Weight("galilei", _galilei_module(False),
                                 galilei_weight_of), M, B, side="right"),
        InvalidArgument, ValueError),
    "cocycle_check-right-on-galilei-module": (
        lambda: cocycle_check(Weight("galilei", _galilei_module(False),
                                     galilei_weight_of), 0, side="right"),
        InvalidArgument, ValueError),
    "cocycle_check-bad-side": (
        lambda: cocycle_check(galilei_weight(), 1, side="Left"),
        InvalidArgument, ValueError),
    "quasi_invariance_check-bad-form": (
        lambda: quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                       1, 1, form="Def"),
        InvalidArgument, ValueError),
    "quasi_invariance_check-bad-side": (
        lambda: quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                       1, 1, side="rgt"),
        InvalidArgument, ValueError),
    "membership_defect-bad-side": (
        lambda: membership_defect(SUB, V, side="up"),
        InvalidArgument, ValueError),
    "is_member-bad-side": (
        lambda: is_member(SUB, V, side="Right"), InvalidArgument, ValueError),
    "homogeneous_space-bad-side": (
        lambda: homogeneous_space(SUB, 2, side="lft"),
        InvalidArgument, ValueError),
    "epsilon_side-bad-side": (
        lambda: epsilon_side(V, SUB, side="two-sided"),
        InvalidArgument, ValueError),
    "homogeneous_space_report-bad-side": (
        lambda: homogeneous_space_report(SUB, 1, side=None),
        InvalidArgument, ValueError),
    "morphism-bad-kind": (
        lambda: Morphism(UQ.pres, [UQ.pres.gen(g) for g in UQ.pres.generators],
                         kind="iso"),
        InvalidArgument, ValueError),
    "morphism_apply-foreign-element": (
        lambda: UQ.antipode.apply(V), PresentationMismatch, None),
    "tensor_map-mixed-conjugation": (
        lambda: tensor_map([UQ.star, UQ.antipode], UQ.delta.apply(B)),
        InvalidArgument, ValueError),
    "tensor_map-wrong-number-of-maps": (
        lambda: tensor_map([UQ.epsilon], UQ.delta.apply(B)),
        InvalidArgument, ValueError),
    "tensor_map-int": (
        lambda: tensor_map([None], 3), InvalidArgument, ValueError),
    "tensor_map-element": (
        lambda: tensor_map([UQ.delta], B), InvalidArgument, ValueError),
    "tensor-with-a-scalar": (
        lambda: B.tensor(ONE), InvalidArgument, ValueError),
    "to_element-rank-2": (
        lambda: UQ.delta.apply(B).to_element(), InvalidArgument, ValueError),
    "arith-unknown-kind": (
        lambda: arith(ONE, ONE, "pow"), InvalidArgument, ValueError),
    # every path into scalars.scalar() with a value that is not a scalar
    "scalar-of-a-float": (lambda: scalar(1.5), NotAScalar, TypeError),
    "scale-by-a-float": (lambda: B.scale(1.5), NotAScalar, TypeError),
    "element-times-a-string": (lambda: B * "x", NotAScalar, TypeError),
    "float-times-element": (lambda: 1.5 * B, NotAScalar, TypeError),
    "element-plus-a-float": (lambda: B + 1.5, NotAScalar, TypeError),
    "tensor-times-a-float": (
        lambda: UQ.delta.apply(B) * 1.5, NotAScalar, TypeError),
    "element-with-a-float-coefficient": (
        lambda: UQ.pres.element([(1.5, [("B", 1)])]), NotAScalar, TypeError),
    "presentation-rule-with-a-float-coefficient": (
        lambda: Presentation("p", ["a", "b"], [False, False],
                             {(1, 1, 0, 1): [(1.5, [(0, 1), (1, 1)])]}),
        NotAScalar, TypeError),
    "linear_solve-float-coefficient": (
        lambda: linear_solve([{"a": 1.5}], ["a"]), NotAScalar, TypeError),
    "arith-float-operand": (
        lambda: arith(1.5, ONE, "add"), NotAScalar, TypeError),
    "conjugate-of-a-float": (lambda: conjugate(1.5), NotAScalar, TypeError),
    # errors.check_exponent guards every power: these raised a bare
    # TypeError, returned w or 1/w, or raised NotInvertible
    "scalar-to-a-float": (lambda: W ** 2.0, InvalidArgument, ValueError),
    "scalar-to-a-fraction": (
        lambda: W ** Fraction(3, 2), InvalidArgument, ValueError),
    "scalar-to-the-float-one": (lambda: W ** 1.0, InvalidArgument, ValueError),
    "scalar-to-a-negative-float": (
        lambda: W ** -1.0, InvalidArgument, ValueError),
    "element-to-a-negative-float": (
        lambda: M ** -1.0, InvalidArgument, ValueError),
    "invertible-element-to-a-float": (
        lambda: K ** 1.0, InvalidArgument, ValueError),
    "gauss_rat-to-a-float": (
        lambda: GaussRat(2) ** 0.5, InvalidArgument, ValueError),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_intended_error_is_a_hopfkit_error(name):
    call, err, builtin_type = CASES[name]
    with pytest.raises(err) as exc:
        call()
    assert isinstance(exc.value, HopfkitError)
    if builtin_type is not None:
        assert isinstance(exc.value, builtin_type)


def test_an_int_or_bool_exponent_is_a_power():
    assert W ** True is W and W ** False is ONE
    assert W ** -1 == ONE / W
    assert K ** True == K and K ** -1 == K.inverse()
    assert M ** 2 == M * M
    assert GaussRat(2) ** True == GaussRat(2)


@pytest.mark.parametrize("call", [lambda: ONE * "x", lambda: "x" * ONE,
                                  lambda: ONE + 1.5, lambda: 1.5 - ONE])
def test_scalar_operator_with_a_foreign_operand_is_a_plain_type_error(call):
    # the operator returns NotImplemented and Python raises the TypeError
    with pytest.raises(TypeError) as exc:
        call()
    assert not isinstance(exc.value, HopfkitError)
