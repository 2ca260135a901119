"""Hidden quantum Markov models with projective rotational symmetry.

Operator-algebra primitives, rotation representations with their sign
cocycle, finite-volume state evaluation under two causal structures, and
numerical symmetry verification for a concrete spin-1 chain model.
"""

from .aklt import (
    AkltTensors,
    build_model,
    build_tensors,
    dense_word_value,
    emission_map,
    projector_word,
    verify_intertwining,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    SubgroupStructureError,
)
from .grouprep import (
    NontrivialClassReport,
    ProjectiveRep,
    RotationElement,
    canonical_quaternions,
    cocycle_defects,
    cocycle_eval,
    detect_nontrivial_class,
    haar_quaternions,
    rotation_matrices,
    spin_half_rep,
    spin_one_rep,
    su2_matrices,
)
from .hqmm import (
    CausalStructure,
    GenerativeTriple,
    Model,
    ObservableWord,
    classical_diagonal_triple,
    composite_map,
    finite_volume_state,
    kolmogorov_check,
    load_model_config,
    load_word,
    unit_sites,
)
from .opalg import (
    ComplexOperator,
    OperatorMap,
    certify_cpu,
    operator_norm,
    operator_norms,
    worst_deviation,
)
from .symmetry import (
    CheckResult,
    SymmetryAction,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_transition_equivariance,
)

__version__ = "0.1.0"

# A name is in __all__, as a module's function or method is public, while
# the library, the CLI or the bench reads it.
__all__ = [
    "AkltTensors",
    "CausalStructure",
    "CheckResult",
    "ComplexOperator",
    "ConfigError",
    "DimensionMismatchError",
    "GenerativeTriple",
    "Model",
    "NontrivialClassReport",
    "ObservableWord",
    "OperatorMap",
    "ProjectiveRep",
    "RotationElement",
    "SubgroupStructureError",
    "SymmetryAction",
    "build_model",
    "build_tensors",
    "canonical_quaternions",
    "certify_cpu",
    "check_emission_covariance",
    "check_global_invariance",
    "check_initial_invariance",
    "check_sliced_covariance",
    "check_transition_equivariance",
    "classical_diagonal_triple",
    "cocycle_defects",
    "cocycle_eval",
    "composite_map",
    "dense_word_value",
    "detect_nontrivial_class",
    "emission_map",
    "finite_volume_state",
    "haar_quaternions",
    "kolmogorov_check",
    "load_model_config",
    "load_word",
    "operator_norm",
    "operator_norms",
    "projector_word",
    "rotation_matrices",
    "spin_half_rep",
    "spin_one_rep",
    "su2_matrices",
    "unit_sites",
    "verify_intertwining",
    "worst_deviation",
]
