"""Rare branches: outcomes whose probability lies just above ZERO_PROBABILITY_CUTOFF.

A B-vector b_0 within eps of the null space of W, a state of Schmidt rank
dim_a < dim_b with diagonal A-marginal, gives each operation that keeps only
b_0 a probability p of order eps^2, here from 2e-14 to 1e-8. Every pure
route must accept these valid inputs: a conditional state whose rounding
error were absolute, about 1e-16, would reach -1e-16 / p after the division
by p, far below -VALIDITY_ATOL. The probabilities and states are compared
with a brute-force oracle, independent of the engine. Each route's Lemma 1
bound must still dominate the coherence: read off the operator N instead of
the branch, its rounding would also grow as 1e-16 / p.
"""

import numpy as np
import pytest

from rcc_lab import experiments, rcc
from rcc_lab.channels import ChannelEnsemble, KrausOperation, channel_branches
from rcc_lab.coherence import l1_coherence
from rcc_lab.experiments import BOUND_ATOL
from rcc_lab.linalg import SeededRng, complete_orthonormal_basis, complex_ginibre, unitary_from_ginibre
from rcc_lab.states import BipartitePureState

PROBABILITIES = (2e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
DRAWS = 3
PROBABILITY_RTOL = 1e-9
STATE_ATOL = 1e-8


def oracle_branch(amp, dim_a, dim_b, kraus):
    # Unnormalized tr_B of sum_F (I (x) F) |psi><psi| (I (x) F)^dagger. Formed
    # from phi = (I (x) F) psi, whose rounding is relative to sqrt(p), in
    # extended precision: the sandwich of |psi><psi| itself would cancel
    # down to p with an absolute error of about 1e-16.
    out = 0
    for f in kraus:
        phi = (np.kron(np.eye(dim_a), f).astype(np.clongdouble) @ amp.astype(np.clongdouble)).reshape(dim_a, dim_b)
        out = out + phi @ phi.conj().T
    return out


def rare_cases(dim_a, dim_b, weights, seed):
    # (Schmidt weights, Ginibre matrix, target p, Kraus operators of the rare
    # post-selected operation, the rest of the measurement basis), DRAWS per p.
    g = SeededRng(seed, dim_a * 10 + dim_b).generator
    for p in PROBABILITIES:
        for _ in range(DRAWS):
            ginibre = complex_ginibre(g, (dim_b, dim_b), 1)[0]
            u = unitary_from_ginibre(ginibre)
            w = np.full(dim_a, 1.0 / dim_a) if weights == "equal" else g.dirichlet(np.ones(dim_a))
            # A random direction c in B's support, so that A's conditional state is coherent.
            c = complex_ginibre(g, (dim_a,), 1)[0]
            c /= np.linalg.norm(c)
            v = u[:, dim_a] + np.sqrt(p / np.sum(w * np.abs(c) ** 2)) * (u[:, :dim_a] @ c)
            basis = complete_orthonormal_basis((v / np.linalg.norm(v))[:, None], dim_b)
            projectors = [np.outer(b, b.conj()) for b in basis.T]
            # Two Kraus operators with the one summary operator |b_0><b_0|.
            rare = [np.sqrt(0.5) * projectors[0], np.sqrt(0.5) * np.outer(basis[:, 1], basis[:, 0].conj())]
            yield w, ginibre, p, rare, projectors[1:]


def assert_matches_oracle(prob, state, psi, kraus):
    branch = oracle_branch(psi.amplitudes, psi.dim_a, psi.dim_b, kraus)
    expected = float(np.trace(branch).real)
    assert abs(prob - expected) <= PROBABILITY_RTOL * expected
    assert np.max(np.abs(state - (branch / expected).astype(np.complex128))) <= STATE_ATOL


@pytest.mark.parametrize("weights", ["equal", "random"])
@pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (2, 4), (3, 4)])
def test_rare_branches_on_every_pure_route(dim_a, dim_b, weights):
    cases = list(rare_cases(dim_a, dim_b, weights, 20261019))
    for w, ginibre, p, rare, rest in cases:
        psi = BipartitePureState.from_schmidt(w, unitary_from_ginibre(ginibre))
        # A trace-preserving channel (one outcome per projector), an ensemble
        # whose rare member is zero-padded at dim_b = 4, and the rare
        # operation post-selected on its own.
        channel = KrausOperation([rare[0] * np.sqrt(2.0)] + rest)
        ensemble = ChannelEnsemble([KrausOperation(rare), KrausOperation(rest)])
        for route, kraus in ((channel, [rare[0] * np.sqrt(2.0)]), (ensemble, rare)):
            report = rcc.average_rcc(psi, route)
            first = report.outcomes[0]
            assert not first.zero_probability and 0.1 * p < first.probability < 10 * p
            assert_matches_oracle(first.probability, first.state_a.matrix, psi, kraus)
            assert first.coherence <= report.lemma1_bounds[0] + BOUND_ATOL
        op = KrausOperation(rare)
        state, prob = rcc.post_operation_state_a(psi, op)
        assert_matches_oracle(prob, state.matrix, psi, rare)
        # The bound reads the same branch, whose trace is the checked probability.
        bound = rcc.outcome_coherence_bound(psi, op)
        w = psi.coefficient_matrix[None]
        gram = rcc._pure_branches(w, channel_branches(op, psi.dim_b, post_selected=True)[1][None])[:, 0]
        assert gram[0].trace().real == prob
        assert bound == rcc.outcome_coherence_bounds(w, gram)[0]
        assert l1_coherence(state.matrix) <= bound + BOUND_ATOL

    # The lemma1 and theorem2 block route, all cases in one block.
    parts = (np.array([case[0] for case in cases]), np.array([case[1] for case in cases])), (None, np.array([case[3] for case in cases]))
    w, _, grams, kept, achieved = experiments._paired_branches(parts)
    assert kept.tolist() == list(range(len(cases)))
    assert np.all(achieved <= rcc.outcome_coherence_bounds(w, grams) + BOUND_ATOL)
    probs = grams.trace(axis1=-2, axis2=-1).real
    for k, (_, _, _, rare, _) in enumerate(cases):
        branch = oracle_branch(w[k].reshape(-1), dim_a, dim_b, rare)
        expected = float(np.trace(branch).real)
        assert abs(probs[k] - expected) <= PROBABILITY_RTOL * expected
        assert abs(achieved[k] - l1_coherence((branch / expected).astype(np.complex128))) <= dim_a**2 * STATE_ATOL
