"""hopfkit: exact computation in finitely presented Hopf *-algebras.

Ships the one-dimensional quantum Galilei structures (enveloping algebra,
function algebra, its distinguished subgroup and the Laurent module
algebra of the homogeneous space) together with bounded-degree, exact
verification suites for their coalgebra axioms, the duality pairing,
quasi-invariant functionals and the unitarized induced representation.
"""

from .errors import HopfkitError
from .hopf import algebra_presentation, builtin, tau, verify_hopf
from .ncalg import AlgebraElement, Morphism, Presentation, TensorElement, linear_solve, morphism_apply
from .pairing import act, pair, pair_closed
from .coiso import build_subgroup, epsilon_side, galilei_subgroup, homogeneous_space
from .quasiinv import (
    cocycle_check,
    d1_defect,
    essential_invariance_decide,
    galilei_weight,
    galilei_weight_of,
    nu_w,
    nu_w_functional,
    quasi_invariance_check,
    transform_weight,
    translate_functional,
)
from .induce import (
    galilei_rep,
    ind_space,
    j_structure,
    minkowski_form,
    rho_tilde_generic,
    scalar_product,
    sesq_form,
)
from .parser import parse, print_element
from .scalars import Scalar, arith, conjugate, scalar
from .cli import run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "HopfkitError", "Morphism", "Presentation", "Scalar",
    "TensorElement", "act", "algebra_presentation", "arith", "build_subgroup",
    "builtin", "cocycle_check", "conjugate", "d1_defect", "epsilon_side",
    "essential_invariance_decide", "galilei_rep", "galilei_subgroup",
    "galilei_weight", "galilei_weight_of", "homogeneous_space", "ind_space",
    "j_structure", "linear_solve", "minkowski_form", "morphism_apply", "nu_w",
    "nu_w_functional", "pair", "pair_closed", "parse", "print_element",
    "quasi_invariance_check", "rho_tilde_generic", "run_suite", "scalar",
    "scalar_product", "sesq_form", "tau", "transform_weight",
    "translate_functional", "verify_hopf",
]
