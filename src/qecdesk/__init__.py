"""Desk-scale workbench for classical and quantum error correction.

Small, dense, and exact where it can be: Pauli algebra over GF(2) with exact
phases, explicit Kraus channels, code constructions with subsystem
identifications, detectability/correctability analysis with decoder
synthesis, fidelity metrics, and end-to-end pipelines.
"""

from .gf2_symplectic import (
    PauliProduct,
    SearchCapExceeded,
    StabilizerGeneratorSet,
)
from .hilbert import (
    ATOL_ALGEBRA,
    ATOL_EIG,
    ATOL_REPORTED,
    DensityOperator,
    LinearOperator,
    StateVector,
    basis_state,
)
from .channels import (
    KrausChannel,
    PauliChannel,
    bit_flip,
    channel_from_unitary,
    collective_rotation,
    depolarizing,
    gaussian_shift,
    parse_channel_spec,
    tensor_independent,
    twirl,
)
from .codes import (
    ClassicalCode,
    CodeSubspace,
    SubsystemIdentification,
    builtin_code,
    cyclic7,
    five_qubit,
    repetition_classical,
    repetition_quantum,
    stabilizer_codespace,
    three_spin_noiseless,
    trivial_two_qubit,
)
from .analysis import (
    build_noiseless_qubit,
    correctable_quantum,
    decoder_identification,
    detectable_classical,
    detectable_quantum,
    min_distance_quantum,
    symmetric_projector,
    synthesize_decoder,
)
from .fidelity import (
    average_error_from_entanglement,
    average_error_monte_carlo,
    bad_branch_error_bound,
    entanglement_fidelity,
)
from .pipelines import (
    PipelineReport,
    concat_recursion,
    run_corrected,
    run_cyclic,
    run_exact,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
