"""Every intended error is a HopfkitError.  Where an error used to be a
builtin KeyError or ValueError, its class still derives from that type,
so callers that catch the builtin keep working."""

import pytest

from hopfkit.coiso import build_subgroup, galilei_subgroup
from hopfkit.errors import (
    HopfkitError,
    InvalidArgument,
    NotCorepresentation,
    UnknownGenerator,
    UnknownStructure,
)
from hopfkit.hopf import builtin
from hopfkit.induce import Corepresentation, galilei_rep
from hopfkit.ncalg import Morphism, tensor_map
from hopfkit.pairing import engine
from hopfkit.parser import parse
from hopfkit.quasiinv import chi
from hopfkit.scalars import ONE, arith

UQ = builtin("uq-g1")
FQ = builtin("fq-g1")
FJ = builtin("fq-j")
SUB = galilei_subgroup()
B = UQ.pres.gen("B")
PI_TABLE = {"mu": FJ.pres.gen("muh"), "x": FJ.pres.gen("xh"),
            "t": FJ.pres.gen("th"), "v": FJ.pres.zero()}
QUOTIENT_ONE = SUB.pi.apply(FQ.pres.one())

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_intended_error_is_a_hopfkit_error(name):
    call, err, builtin_type = CASES[name]
    with pytest.raises(err) as exc:
        call()
    assert isinstance(exc.value, HopfkitError)
    if builtin_type is not None:
        assert isinstance(exc.value, builtin_type)
