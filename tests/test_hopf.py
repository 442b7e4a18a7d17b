import pytest

from hopfkit.errors import AntipodeNotInvertible, CounitLawViolated, StarUndefined
from hopfkit.hopf import HopfStructure, builtin, verify_hopf
from hopfkit.ncalg import Presentation, as_tensor, tensor_map
from hopfkit.scalars import I, ONE, W, ZERO

UQ = builtin("uq-g1")
FQ = builtin("fq-g1")
FJ = builtin("fq-j")
IW = I * W


def t2(a, b):
    return as_tensor(a).tensor(as_tensor(b))


def test_coproduct_of_v_is_primitive():
    p = FQ.pres
    v, one = p.gen("v"), p.one()
    assert FQ.coproduct_iter(v, 1) == t2(v, one) + t2(one, v)


def test_iterated_coproduct_of_unit():
    p = UQ.pres
    out = UQ.coproduct_iter(p.one(), 3)
    assert out.rank == 4
    assert out == tensor_map([None] * 4, as_tensor(p.one()).tensor(
        as_tensor(p.one())).tensor(as_tensor(p.one())).tensor(as_tensor(p.one())))


def test_iterated_coproduct_of_x():
    p = FQ.pres
    x, v, t, one = p.gen("x"), p.gen("v"), p.gen("t"), p.one()
    expected = (t2(x, one).tensor(as_tensor(one))
                + t2(one, x).tensor(as_tensor(one))
                + t2(one, one).tensor(as_tensor(x))
                + t2(v, t).tensor(as_tensor(one))
                + t2(v, one).tensor(as_tensor(t))
                + t2(one, v).tensor(as_tensor(t)))
    assert FQ.coproduct_iter(x, 2) == expected
    # oracle: expanding the first slot instead of the last gives the same
    d = FQ.coproduct(x)
    other_order = tensor_map([FQ.delta, None], d)
    assert other_order == expected


def test_tensor_map_shape_of_zero_input():
    # the output type comes from the maps, not from the (absent) terms
    zero = UQ.delta.apply(UQ.pres.gen("B")).scale(0)
    assert tensor_map([UQ.epsilon, None], zero) == UQ.pres.zero()
    assert tensor_map([UQ.epsilon, UQ.epsilon], zero) == ZERO
    out = tensor_map([UQ.delta, None], zero)
    assert out.rank == 3 and out.is_zero()
    assert out.spaces == (UQ.pres,) * 3


def test_tau_on_generators():
    p = UQ.pres
    assert UQ.apply_tau(p.gen("K")) == p.gen("K", -1)
    assert UQ.apply_tau(p.gen("B")) == -p.gen("B") - p.gen("M") * IW
    assert UQ.apply_tau(p.one()) == p.one()


def test_tau_is_conjugate_linear_multiplicative():
    p = FQ.pres
    a = p.gen("mu")
    b = p.gen("x") * p.gen("v")
    assert FQ.apply_tau(a * b) == FQ.apply_tau(a) * FQ.apply_tau(b)
    assert FQ.apply_tau(a * (2 * IW)) == FQ.apply_tau(a) * (-2 * IW)


def test_star_of_mu():
    p = FQ.pres
    mu_star = FQ.apply_star(p.gen("mu"))
    assert mu_star == p.gen("mu") - p.gen("v") * IW
    d = FQ.coproduct(mu_star)
    assert d == tensor_map([FQ.star, FQ.star], FQ.coproduct(p.gen("mu")))


def test_primitive_generators_of_subgroup():
    p = FJ.pres
    one = p.one()
    for g in p.generators:
        e = p.gen(g)
        assert FJ.coproduct(e) == t2(e, one) + t2(one, e)
        assert FJ.apply_star(e) == e


def test_antipode_convolution_on_unit():
    p = UQ.pres
    d = UQ.coproduct(p.one())
    from hopfkit.hopf import _mul_slots
    assert _mul_slots(tensor_map([UQ.antipode, None], d)) == p.one()


@pytest.mark.parametrize("name", ["uq-g1", "fq-g1", "fq-j"])
def test_hopf_axioms_low_degree(name):
    rep = verify_hopf(builtin(name), 2)
    assert rep.passed, [c.id for c in rep.failures()]


def test_structure_without_star_rejects_star():
    base = builtin("fq-j")
    p = base.pres
    tau_table = [base.apply_tau(p.gen(g)) for g in p.generators]
    coalg = HopfStructure("fq-j-coalg", p,
                          [base.delta.apply(p.gen(g)) for g in p.generators],
                          [base.epsilon.apply(p.gen(g)) for g in p.generators],
                          antipode_table=None, star_table=None,
                          tau_table=tau_table)
    assert not coalg.has_star
    with pytest.raises(StarUndefined):
        coalg.apply_star(p.gen("muh"))
    with pytest.raises(StarUndefined):
        coalg.apply_antipode(p.gen("muh"))
    # tau alone is still available
    assert coalg.apply_tau(p.gen("muh")) == base.apply_tau(p.gen("muh"))


def test_group_likes():
    p = UQ.pres
    assert UQ.is_group_like(p.gen("K"))
    assert UQ.is_group_like(p.gen("K", -2))
    assert not UQ.is_group_like(p.gen("B"))
    assert not UQ.is_group_like(p.gen("K") + p.one())


def _line_structure(eps_z=ZERO, star_scale=1):
    """C[z] with z primitive, S z = -z and z* = star_scale * z."""
    p = Presentation("line", ("z",), (False,), {})
    z, one = p.gen("z"), p.one()
    return HopfStructure("line", p, [t2(z, one) + t2(one, z)], [eps_z],
                         antipode_table=[-z], star_table=[z * star_scale])


def test_line_structure_builds():
    line = _line_structure()
    z = line.pres.gen("z")
    assert line.apply_antipode(z) == -z


def test_counit_law_violation_is_a_hopfkit_error():
    # eps z = 1 gives (eps x id) Delta z = 1 + z
    with pytest.raises(CounitLawViolated, match="counit law fails on z"):
        _line_structure(eps_z=ONE)


def test_antipode_without_inverse_is_a_hopfkit_error():
    # z* = 2z makes * S * send z to -4z, which S does not undo
    with pytest.raises(AntipodeNotInvertible):
        _line_structure(star_scale=2)
