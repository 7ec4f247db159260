"""qmix: unitary mixing of quantum states through finite group algebras.

Linear combinations of permutation unitaries — elements of a group
algebra acting on tensor factors — induce channels that mix two or three
density matrices with complex weights.  The package covers the whole
pipeline: finite groups and their regular representations (``groups``),
irreps / Fourier block analysis / coefficient synthesis (``irreps``),
density-matrix utilities and entropy functionals (``states``), the
binary and ternary combination maps with their parametrizations
(``combine``), the four-bar-linkage picture of the fixed-weight
parameter orbits (``linkage``), and a CLI for batch experiments
(``cli``).
"""

from .groups import (
    CoeffVector,
    FiniteGroup,
    Perm,
    cyclic_group,
    left_regular,
    regular_lincomb,
    right_regular,
    symmetric_group,
)
from .irreps import (
    BlockUnitaries,
    Irrep,
    IrrepSet,
    NonUnitaryBlock,
    NotBlockDiagonal,
    block_decompose,
    extract_blocks,
    flat_unitary_search,
    fourier_matrix,
    haar_unitary,
    irreps_cyclic,
    irreps_s3,
    random_block_unitaries,
    s3_two_dim_alt,
    synthesize_coeffs,
    tensor_rep,
)
from .states import (
    ENTROPY_FUNCTIONALS,
    DensityMatrix,
    EntropyFunctional,
    bloch_vector,
    commutator,
    double_commutator,
    entropy,
    get_functional,
    partial_trace,
    random_density,
    tensor,
)
from .combine import (
    CoefficientSumNonzero,
    DegenerateOuterWeight,
    DegenerateWeight,
    GaugeViolation,
    NestedSpec,
    NonUnitaryCoefficients,
    NotNested,
    PDelta,
    QTriple,
    S3Coeffs,
    combine2,
    combine2_bruteforce,
    combine3_bruteforce,
    combine3_closed,
    combine3_magic,
    combine3_pdelta,
    covariance_check,
    delta_from_nested,
    nested_expand,
    nested_from_delta,
    nested_params_for_weights,
    partial_swap_params,
    partial_swap_unitary,
    pdelta_from_q,
    q_from_pdelta,
    q_from_z,
    random_qtriple,
    random_s3_phases,
    s3_coeffs_from_phases,
    third_order_reduce,
    verify_real_imag_param,
    z_from_q,
)
from .linkage import (
    LinkageSpec,
    b0,
    config_deltas,
    grashof,
    orbit_count,
    orbit_count_bruteforce,
    orbit_trace,
    solve_configs,
    write_orbit_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffVector", "FiniteGroup", "Perm", "cyclic_group", "left_regular",
    "regular_lincomb", "right_regular", "symmetric_group",
    "BlockUnitaries", "Irrep", "IrrepSet", "NonUnitaryBlock", "NotBlockDiagonal",
    "block_decompose", "extract_blocks", "flat_unitary_search", "fourier_matrix",
    "haar_unitary", "irreps_cyclic", "irreps_s3", "random_block_unitaries",
    "s3_two_dim_alt", "synthesize_coeffs", "tensor_rep",
    "ENTROPY_FUNCTIONALS", "DensityMatrix", "EntropyFunctional", "bloch_vector",
    "commutator", "double_commutator", "entropy", "get_functional",
    "partial_trace", "random_density", "tensor",
    "CoefficientSumNonzero", "DegenerateOuterWeight", "DegenerateWeight",
    "GaugeViolation", "NestedSpec", "NonUnitaryCoefficients", "NotNested",
    "PDelta", "QTriple", "S3Coeffs", "combine2", "combine2_bruteforce",
    "combine3_bruteforce", "combine3_closed", "combine3_magic", "combine3_pdelta",
    "covariance_check", "delta_from_nested", "nested_expand", "nested_from_delta",
    "nested_params_for_weights", "partial_swap_params", "partial_swap_unitary",
    "pdelta_from_q", "q_from_pdelta", "q_from_z", "random_qtriple",
    "random_s3_phases", "s3_coeffs_from_phases", "third_order_reduce",
    "verify_real_imag_param", "z_from_q",
    "LinkageSpec", "b0", "config_deltas", "grashof",
    "orbit_count", "orbit_count_bruteforce", "orbit_trace", "solve_configs",
    "write_orbit_csv",
    "__version__",
]
