"""Positive maps on matrix algebras built from permutation cycle data.

The package constructs the two-parameter family of linear maps
Theta(X) = diag(a*x_ii + c_i*x_{sigma(i),sigma(i)}) - X on n x n complex
matrices, classifies each member (positivity, 2-positivity, complete
positivity, atomicity, decomposability) with machine-checkable certificates,
and produces the two derived quantum-information artifacts: the separable
structural physical approximation and the optimal entanglement witness.
"""

__version__ = "0.1.0"

from .classify import (
    ClassificationReport,
    DecomposabilityCertificate,
    PositivityEvidence,
    Verdict,
    atomic_verdict,
    classify_map,
    cp_verdict,
    decompose_involution,
    geometric_mean_c,
    positivity_verdict,
    two_positive_verdict,
    verify_positivity_numeric,
)
from .dmap import (
    ChoiStructure,
    MapParams,
    choi,
    choi_structure,
    d_matrix,
    delta_apply,
    delta_n,
    theta_apply,
)
from .errors import ContractError, ParameterError, PreconditionError
from .matlin import (
    SpectrumResult,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
)
from .perm import (
    CycleDecomposition,
    Permutation,
    cycle_decompose,
    fixed_points,
    format_permutation,
    from_cycles,
    identity,
    is_involution,
    is_single_cycle,
    parse_permutation,
    tau,
)
from .spa import (
    SeparableDecomposition,
    SpaState,
    separable_decomposition,
    spa_state,
)
from .witness import (
    OptimalityCertificate,
    certify_optimality,
    expectation_value,
    maximally_entangled_state,
    spanning_generators,
    witness,
)

__all__ = [
    "__version__",
    "ChoiStructure",
    "ClassificationReport",
    "ContractError",
    "CycleDecomposition",
    "DecomposabilityCertificate",
    "MapParams",
    "OptimalityCertificate",
    "ParameterError",
    "Permutation",
    "PositivityEvidence",
    "PreconditionError",
    "SeparableDecomposition",
    "SpaState",
    "SpectrumResult",
    "Verdict",
    "atomic_verdict",
    "certify_optimality",
    "choi",
    "choi_structure",
    "classify_map",
    "cp_verdict",
    "cycle_decompose",
    "d_matrix",
    "decompose_involution",
    "delta_apply",
    "delta_n",
    "expectation_value",
    "fixed_points",
    "format_permutation",
    "from_cycles",
    "geometric_mean_c",
    "identity",
    "is_involution",
    "is_single_cycle",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_entangled_state",
    "min_eigenvalue",
    "parse_permutation",
    "partial_transpose",
    "positivity_verdict",
    "require_hermitian",
    "separable_decomposition",
    "spa_state",
    "spanning_generators",
    "tau",
    "theta_apply",
    "two_positive_verdict",
    "verify_positivity_numeric",
    "witness",
]
