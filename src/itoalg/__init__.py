"""Workbench for finite-dimensional Ito *-algebras.

Verify the defining axioms, build the canonical triangular representation on
a complex Minkowski space, split an algebra into its quantum-Brownian and
quantum-Levy components, and cross-validate the multiplication tables against
a discrete Fock model and classical Monte Carlo sampling.
"""

from .adsl import ParseDiagnostic, ParseResult, parse, parse_strict, serialize
from .builtins import (
    FiniteGroup,
    cyclic_group,
    group_levy,
    hp,
    newton,
    orthogonal_sum,
    periodic_wiener,
    poisson,
    symmetric_group,
    thermal_brownian,
    thermal_matrix,
    wiener,
    zero_intensity_poisson,
)
from .core import (
    AlgebraError,
    Check,
    Element,
    ItoAlgebra,
    Report,
    commutant_check,
    gram_matrix,
    multiply,
    star,
    state_of,
    subalgebra,
    verify_axioms,
)
from .decomp import Decomposition, DecompositionError, decompose, support_projector
from .focksim import (
    Estimate,
    SimReport,
    UnsupportedModelError,
    classical_paths,
    ito_product_check,
    slot_increment,
    vacuum_moments,
)
from .gns import (
    FundamentalRep,
    NonFaithfulError,
    RepresentationError,
    Seminorms,
    build_representation,
    minkowski_adjoint,
    minkowski_metric,
    seminorms,
    triangular,
    verify_bstar,
)
from .ideal import IdealBasis, Quotient, faithfulness_ideal, quotient

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "Check",
    "Decomposition",
    "DecompositionError",
    "Element",
    "Estimate",
    "FiniteGroup",
    "FundamentalRep",
    "IdealBasis",
    "ItoAlgebra",
    "NonFaithfulError",
    "ParseDiagnostic",
    "ParseResult",
    "Quotient",
    "Report",
    "RepresentationError",
    "Seminorms",
    "SimReport",
    "UnsupportedModelError",
    "build_representation",
    "classical_paths",
    "commutant_check",
    "cyclic_group",
    "decompose",
    "faithfulness_ideal",
    "gram_matrix",
    "group_levy",
    "hp",
    "ito_product_check",
    "minkowski_adjoint",
    "minkowski_metric",
    "multiply",
    "newton",
    "orthogonal_sum",
    "parse",
    "parse_strict",
    "periodic_wiener",
    "poisson",
    "quotient",
    "seminorms",
    "serialize",
    "slot_increment",
    "star",
    "state_of",
    "subalgebra",
    "support_projector",
    "symmetric_group",
    "thermal_brownian",
    "thermal_matrix",
    "triangular",
    "vacuum_moments",
    "verify_axioms",
    "verify_bstar",
    "wiener",
    "zero_intensity_poisson",
]
