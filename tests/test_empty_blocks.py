"""Every public stacked routine takes an empty block (n = 0) and returns empty results of the right shape."""

import numpy as np
import pytest

from rcc_lab import coherence, linalg, rcc, sampling, states
from rcc_lab.channels import (
    KrausOperation,
    branch_stacks,
    branch_sums,
    check_summaries,
    creation_witnesses,
    identity_deviation,
)

DIM_A, DIM_B = 2, 3
W = np.zeros((0, DIM_A, DIM_B), dtype=complex)
STACKS = np.zeros((0, 2, DIM_B, DIM_B), dtype=complex)
RHO = np.zeros((0, DIM_A * DIM_B, DIM_A * DIM_B), dtype=complex)
MATRICES = np.zeros((0, 2, 2), dtype=complex)


def generator():
    return linalg.SeededRng(47).generator


ROUTINES = {
    "check_densities": (lambda: states.check_densities(MATRICES), (0,)),
    "check_traces_and_positivity": (lambda: states.check_traces_and_positivity(MATRICES), (0,)),
    "unit_amplitudes": (lambda: states.unit_amplitudes(np.zeros((0, 4), dtype=complex)), (0, 4)),
    "schmidt_coefficients": (
        lambda: states.schmidt_coefficients(np.zeros((0, DIM_A)), np.zeros((0, DIM_B, DIM_B), dtype=complex)),
        (0, DIM_A, DIM_B),
    ),
    "require_premises": (lambda: states.require_premises(W), (0, DIM_A, DIM_A)),
    "schmidt_rows": (lambda: states.schmidt_rows(W), [(0, DIM_A, DIM_B), (0, DIM_A)]),
    "batch_concurrence": (lambda: states.batch_concurrence(W), (0,)),
    "branch_sums": (lambda: branch_sums(STACKS), (0, DIM_B, DIM_B)),
    "identity_deviation": (lambda: np.array(identity_deviation(STACKS)), ()),
    "branch_stacks": (lambda: branch_stacks(STACKS), [(0, 2, DIM_B, DIM_B), (0, DIM_B, DIM_B)]),
    "check_summaries": (lambda: check_summaries(STACKS[:, 0]), (0, DIM_B, DIM_B)),
    "creation_witnesses": (lambda: creation_witnesses(W, STACKS[:, 0]), (0,)),
    "branch_averages": (lambda: rcc.branch_averages(W, STACKS), (0,)),
    "average_coherences": (lambda: rcc.average_coherences(W, [KrausOperation([np.eye(DIM_B)])]), (0, 1)),
    "maximally_entangled_partners": (lambda: rcc.maximally_entangled_partners(W), (0, DIM_A, DIM_B)),
    "outcome_coherence_bounds": (lambda: rcc.outcome_coherence_bounds(W, np.zeros((0, DIM_A, DIM_A))), (0,)),
    "tight_average_bounds": (lambda: rcc.tight_average_bounds(W, STACKS), (0,)),
    "average_coherence_bounds": (lambda: rcc.average_coherence_bounds(W, STACKS), (0,)),
    "_average_bounds": (lambda: rcc._average_bounds(W, STACKS), [(0,), (0, 2, DIM_A, DIM_A), (0,), (0,)]),
    "converse_witnesses": (lambda: rcc.converse_witnesses(RHO, DIM_A, DIM_B), [(0, DIM_B, DIM_B), (0,), (0,)]),
    "scaled_kraus": (lambda: sampling.scaled_kraus(STACKS), (0, 2, DIM_B, DIM_B)),
    "isometry_kraus": (lambda: sampling.isometry_kraus(np.zeros((0, 2 * DIM_B, DIM_B))), (0, 2, DIM_B, DIM_B)),
    "densities_from_parts": (lambda: sampling.densities_from_parts(MATRICES), (0, 2, 2)),
    "incoherent_quantum_states_from_parts": (
        lambda: sampling.incoherent_quantum_states_from_parts(
            *sampling.draw_incoherent_quantum_block(DIM_A, DIM_B, 0, generator())
        ),
        (0, DIM_A * DIM_B, DIM_A * DIM_B),
    ),
    "coefficient_matrices_from_parts": (
        lambda: sampling.coefficient_matrices_from_parts(*sampling.draw_schmidt_block(DIM_A, DIM_B, 0, generator())),
        (0, DIM_A, DIM_B),
    ),
    "summary_operators_from_parts": (
        lambda: sampling.summary_operators_from_parts(sampling.draw_kraus_block(DIM_B, 0, generator())[1]),
        (0, DIM_B, DIM_B),
    ),
    "branch_stacks_from_parts": (
        lambda: sampling.branch_stacks_from_parts(
            sampling.draw_tp_block(DIM_B, 0, generator())[1], sampling.draw_ensemble_block(DIM_B, 0, generator())[1:]
        ),
        (0, 2, DIM_B, DIM_B),
    ),
    "draw_noncq_states": (lambda: sampling.draw_noncq_states(0, DIM_A, DIM_B, generator()), (0, DIM_A * DIM_B, DIM_A * DIM_B)),
    "l1_coherences": (lambda: coherence.l1_coherences(MATRICES), (0,)),
    "block_diagonal_mask": (lambda: coherence.block_diagonal_mask(RHO, DIM_A, DIM_B), (0,)),
    "stack_sum": (lambda: linalg.stack_sum(MATRICES), (0, 2)),
    "unitary_from_ginibre": (lambda: linalg.unitary_from_ginibre(MATRICES), (0, 2, 2)),
}


@pytest.mark.parametrize("name", ROUTINES)
def test_empty_block(name):
    routine, shapes = ROUTINES[name]
    result = routine()
    if isinstance(shapes, list):
        assert [np.shape(part) for part in result] == shapes
    else:
        assert np.shape(result) == shapes
