"""jetcalc: exact jet/germ calculus over the Gaussian rationals.

The package computes with polynomial and exponential-polynomial germs, their
truncated Taylor data (jets) valued in finite-dimensional modules over the
local ring of germs, and the linear-algebra machinery built on top of that:
annihilator pairings, kernels of iterated coaddition, double commutants of
approximately unital matrix algebras, and the membership tests tying those
together for matrix families.  All arithmetic is exact; there is no floating
point anywhere.
"""

from .scalars import Scalar, ExpScalar, sc
from .poly import (Polynomial, ExpPoly, Covector, Vector, DiffOp,
                   diff, pairing, translate, coproduct,
                   parse_poly, parse_exppoly, parse_scalar)
from .linalg import CrossCheckError
from .localmod import (CofiniteIdeal, FinMod, ModuleMap, power_ideal,
                       maximal_ideal, dual_number_ideal, cyclic_quotient,
                       dual_number_module, annihilator_dual, direct_sum,
                       tensor, submodule_generated, quotient_module,
                       annihilator)
from .jetfun import (MatPolyFamily, jet, jet_ideal, jet_family,
                     block_derivative, iterated_block_derivative,
                     functional_to_diffop, diffop_to_module,
                     kernel_alpha_bar, subquotient_lambdas)
from .approxalg import (ApproxAlgebra, ApproxModule, block_module,
                        end_zero_basis, end_sharp_membership,
                        double_commutant_check, corner_identity_check,
                        submodule_grid_check)
from .family import (RepFamily, PWCandidate, RelationTerm,
                     family_to_json, family_from_json,
                     assemble_pi, assemble_phi, spanned_algebra,
                     relation_to_functional, functional_to_relation,
                     relation_check, membership_triple, invariance_check,
                     intertwiner_graph_check)

__all__ = [
    "Scalar", "ExpScalar", "sc",
    "Polynomial", "ExpPoly", "Covector", "Vector", "DiffOp",
    "diff", "pairing", "translate", "coproduct",
    "parse_poly", "parse_exppoly", "parse_scalar",
    "CrossCheckError",
    "CofiniteIdeal", "FinMod", "ModuleMap", "power_ideal",
    "maximal_ideal", "dual_number_ideal", "cyclic_quotient",
    "dual_number_module", "annihilator_dual", "direct_sum", "tensor",
    "submodule_generated", "quotient_module", "annihilator",
    "MatPolyFamily", "jet", "jet_ideal", "jet_family",
    "block_derivative", "iterated_block_derivative",
    "functional_to_diffop", "diffop_to_module",
    "kernel_alpha_bar", "subquotient_lambdas",
    "ApproxAlgebra", "ApproxModule", "block_module",
    "end_zero_basis", "end_sharp_membership",
    "double_commutant_check", "corner_identity_check",
    "submodule_grid_check",
    "RepFamily", "PWCandidate", "RelationTerm",
    "family_to_json", "family_from_json",
    "assemble_pi", "assemble_phi", "spanned_algebra",
    "relation_to_functional", "functional_to_relation",
    "relation_check", "membership_triple", "invariance_check",
    "intertwiner_graph_check",
]
