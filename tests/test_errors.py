"""Every intended error is a HopfkitError.  Where an error used to be a
builtin KeyError or ValueError, its class still derives from that type,
so callers that catch the builtin keep working."""

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
    NotCorepresentation,
    UnknownGenerator,
    UnknownStructure,
)
from hopfkit.hopf import builtin
from hopfkit.induce import Corepresentation, galilei_rep
from hopfkit.ncalg import Morphism, Presentation, linear_solve, tensor_map
from hopfkit.pairing import engine
from hopfkit.parser import parse
from hopfkit.quasiinv import (
    chi,
    cocycle_check,
    galilei_weight,
    nu_w_functional,
    quasi_invariance_check,
    twisted_action,
)
from hopfkit.scalars import ONE, arith, conjugate, scalar

UQ = builtin("uq-g1")
FQ = builtin("fq-g1")
FJ = builtin("fq-j")
SUB = galilei_subgroup()
B = UQ.pres.gen("B")
PI_TABLE = {"mu": FJ.pres.gen("muh"), "x": FJ.pres.gen("xh"),
            "t": FJ.pres.gen("th"), "v": FJ.pres.zero()}
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
    "pair_engine_act-bad-side": (
        lambda: engine().act(B, FQ.pres.gen("v"), side="up"),
        InvalidArgument, ValueError),
    # a side or form that is not spelled exactly never runs another branch
    "twisted_action-bad-side": (
        lambda: twisted_action(galilei_weight(), B, chi(0), side="Left"),
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
    "tensor_map-mixed-conjugation": (
        lambda: tensor_map([UQ.star, UQ.antipode], UQ.delta.apply(B)),
        InvalidArgument, ValueError),
    "tensor_map-wrong-number-of-maps": (
        lambda: tensor_map([UQ.epsilon], UQ.delta.apply(B)),
        InvalidArgument, ValueError),
    "coproduct_iter-k-below-1": (
        lambda: UQ.coproduct_iter(B, 0), InvalidArgument, ValueError),
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_intended_error_is_a_hopfkit_error(name):
    call, err, builtin_type = CASES[name]
    with pytest.raises(err) as exc:
        call()
    assert isinstance(exc.value, HopfkitError)
    if builtin_type is not None:
        assert isinstance(exc.value, builtin_type)


@pytest.mark.parametrize("call", [lambda: ONE * "x", lambda: "x" * ONE,
                                  lambda: ONE + 1.5, lambda: 1.5 - ONE])
def test_scalar_operator_with_a_foreign_operand_is_a_plain_type_error(call):
    # the operator returns NotImplemented and Python raises the TypeError
    with pytest.raises(TypeError) as exc:
        call()
    assert not isinstance(exc.value, HopfkitError)
