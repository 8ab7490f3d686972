"""Remote creation of quantum coherence.

Numerics for the question: given a bipartite state and a quantum operation
on subsystem B (plus one-way classical communication of the outcome), how
much coherence does subsystem A gain, which states and operations can create
any at all, and how does the average relate to entanglement?
"""

from .channels import (
    ChannelEnsemble,
    KrausOperation,
    bit_flip,
    bit_phase_flip,
    channel_from_json,
    creates_coherence,
    depolarizing,
    ensemble_from_json,
    ensemble_to_json,
    inert_operation,
    is_trace_preserving,
    kraus_operation_from_json,
    kraus_operation_to_json,
    phase_damping,
    phase_flip,
    projective_measurement,
)
from .coherence import is_incoherent, is_incoherent_quantum, l1_coherence
from .errors import (
    BadTrace,
    NotHermitian,
    NotPositive,
    NotTracePreserving,
    PremiseViolated,
    RccLabError,
    SearchExhausted,
    WrongDimension,
    ZeroProbability,
)
from .linalg import (
    SeededRng,
    complete_orthonormal_basis,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_pure_state,
)
from .rcc import (
    OutcomeRecord,
    RccReport,
    average_coherence,
    average_coherence_bound,
    average_coherences,
    average_rcc,
    factorization_check,
    find_creating_operation,
    maximally_entangled_partner,
    outcome_coherence_bound,
    post_operation_state_a,
    report_to_json,
    tight_average_bound,
)
from .states import (
    BipartitePureState,
    DensityMatrix,
    concurrence,
    reduced_a,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"
