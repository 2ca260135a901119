"""Hidden quantum Markov models with projective rotational symmetry.

Operator-algebra primitives, rotation representations with their sign
cocycle, finite-volume state evaluation under two causal structures, and
numerical symmetry verification for a concrete spin-1 chain model.
"""

from .aklt import (
    AkltModel,
    AkltTensors,
    build_model,
    build_tensors,
    dense_word_value,
    emission_map,
    projector_word,
    transition_map,
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
    haar_rotations,
    rotation_matrices,
    spin_half_rep,
    spin_one_rep,
    su2_matrices,
)
from .hqmm import (
    CausalStructure,
    GenerativeTriple,
    ObservableWord,
    classical_diagonal_triple,
    composite_map,
    finite_volume_state,
    finite_volume_states,  # noqa: F401
    kolmogorov_check,
    load_model_config,
    load_word,
    random_word,
    random_words,
)
from .opalg import (
    BipartiteMap,
    ComplexOperator,
    OperatorMap,
    certify_cpu,
    operator_norm,
    operator_norms,
    worst_deviation,
)
from .symmetry import (
    CheckResult,
    RotationBatch,
    SymmetryAction,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_transition_equivariance,
)

__version__ = "0.1.0"

# A name is in __all__ while the library, the CLI or the bench reads it.
# No verify row calls finite_volume_states (oracle folds its ragged words
# in one hqmm.fold_words call, global and kolmogorov every length in one
# hqmm.fold_suffixes call), so it is not in __all__; it stays importable
# from here for the README's batch example.

__all__ = [
    "AkltModel",
    "AkltTensors",
    "BipartiteMap",
    "CausalStructure",
    "CheckResult",
    "ComplexOperator",
    "ConfigError",
    "DimensionMismatchError",
    "GenerativeTriple",
    "NontrivialClassReport",
    "ObservableWord",
    "OperatorMap",
    "ProjectiveRep",
    "RotationBatch",
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
    "haar_rotations",
    "kolmogorov_check",
    "load_model_config",
    "load_word",
    "operator_norm",
    "operator_norms",
    "projector_word",
    "random_word",
    "random_words",
    "rotation_matrices",
    "spin_half_rep",
    "spin_one_rep",
    "su2_matrices",
    "transition_map",
    "verify_intertwining",
    "worst_deviation",
]
