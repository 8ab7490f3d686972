"""Acceptance suite: every headline property at full scale.

Each test prints one PASS line with the measured extreme once its assertions
hold (run pytest with -s to see them). Scales and tolerances are pinned here
and nowhere else; the random instances are all seeded.
"""

import time

import numpy as np

from rcc_lab.channels import creation_witnesses, phase_damping
from rcc_lab.coherence import l1_coherence, l1_coherences
from rcc_lab.experiments import VERIFY_BLOCK, ExperimentConfig, run_fig1
from rcc_lab.linalg import SeededRng
from rcc_lab.rcc import (
    CONVERSE_COHERENCE_TARGET,
    _conditional_states,
    _mixed_branches,
    _unnormalized_branches,
    average_coherence,
    average_rcc,
    converse_witnesses,
    maximally_entangled_partner,
)
from rcc_lab.sampling import (
    coefficient_matrices_from_parts,
    draw_incoherent_quantum_parts,
    draw_kraus_parts,
    draw_noncq_states,
    draw_schmidt_parts,
    incoherent_quantum_states_from_parts,
    random_density_matrix,
    random_schmidt_state,
    random_tp_channel,
    summary_operators_from_parts,
)
from rcc_lab.states import BipartitePureState, concurrence

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def brute_branch_marginal(rho, dim_a, dim_b, f):
    # Independent oracle route: explicit (I (x) F) sandwich plus loop trace.
    big = np.kron(np.eye(dim_a, dtype=complex), f)
    after = big @ rho @ big.conj().T
    marg = np.zeros((dim_a, dim_a), dtype=complex)
    for i in range(dim_a):
        for k in range(dim_a):
            for j in range(dim_b):
                marg[i, k] += after[i * dim_b + j, k * dim_b + j]
    return marg


def test_factorization_law_full_sweep():
    """Average coherence equals entanglement times partner average, 2x2."""
    rng = SeededRng(20260810, 0)
    channels = [random_tp_channel(2, rng) for _ in range(100)]
    started = time.time()
    worst = 0.0
    for _ in range(10_000):
        psi = random_schmidt_state(2, 2, rng)
        ent = concurrence(psi)
        partner = maximally_entangled_partner(psi)
        for channel in channels:
            average = average_coherence(psi, channel)
            maxent = average_coherence(partner, channel)
            dev = abs(average - ent * maxent)
            if dev > worst:
                worst = dev
    elapsed = time.time() - started
    assert worst < 1e-9
    print(
        f"\n[acceptance] factorization law (theorem4): PASS "
        f"max dev {worst:.3e} over 1e6 pairs in {elapsed:.1f}s"
    )


def test_scatter_experiment_reproduction(tmp_path):
    """Desk-scale scatter: ratio always equals entanglement, means grow with r."""
    rates = (0.1, 0.3, 0.5, 0.7, 0.9)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    config = ExperimentConfig(
        samples=20_000, damping_rates=rates, seed=318, output_path=str(first)
    )
    summary = run_fig1(config)
    config.output_path = str(second)
    run_fig1(config)
    assert first.read_bytes() == second.read_bytes()
    assert summary.rows == 20_000 * len(rates)
    assert summary.max_ratio_deviation < 1e-9
    means = [summary.mean_average_by_rate[r] for r in rates]
    assert all(b > a for a, b in zip(means, means[1:]))
    print(
        f"\n[acceptance] scatter reproduction (fig1): PASS "
        f"max |ratio - E| {summary.max_ratio_deviation:.3e}, "
        f"means {['%.4f' % m for m in means]}, byte-identical reruns"
    )


def test_block_diagonal_states_are_useless_and_others_are_not():
    """Forward and converse of the state classification.

    The draws come from one stream in the order of 100 random_kraus_operation,
    1000 random_incoherent_quantum_state and 1000 random_noncq_state calls,
    and are evaluated per block on the stacked routes: the forward states
    against the whole N stack, the converse states through converse_witnesses,
    whose witnesses an explicit (I (x) P) rho (I (x) P) sandwich re-measures.
    """
    g = SeededRng(20260811, 0).generator
    operations = summary_operators_from_parts([draw_kraus_parts(2, g) for _ in range(100)])
    worst = 0.0
    skipped = 0
    for start in range(0, 1_000, VERIFY_BLOCK):
        parts = [draw_incoherent_quantum_parts(2, 2, g) for _ in range(start, min(start + VERIFY_BLOCK, 1_000))]
        states = incoherent_quantum_states_from_parts(parts).reshape(-1, 2, 2, 2, 2)
        _, zero, states_a = _conditional_states(_mixed_branches(states, operations))
        skipped += int(zero.sum())
        worst = max(worst, float(l1_coherences(states_a).max(initial=0.0)))
    assert worst < 1e-8

    successes = 0
    exhaustions = 0
    for start in range(0, 1_000, VERIFY_BLOCK):
        states = draw_noncq_states(min(VERIFY_BLOCK, 1_000 - start), 2, 2, g)
        witnesses, reached, block_diagonal = converse_witnesses(states, 2, 2)
        assert not block_diagonal.any()
        found = reached > CONVERSE_COHERENCE_TARGET
        exhaustions += int(np.sum(~found))
        big = np.kron(np.eye(2), witnesses[found])
        after = (big @ states[found] @ big.conj().swapaxes(-1, -2)).reshape(-1, 2, 2, 2, 2)
        marginals = np.einsum("nijkj->nik", after)
        created = l1_coherences(marginals) / np.trace(marginals, axis1=1, axis2=2).real
        successes += int(np.sum(created > 1e-6))
    assert exhaustions == 0
    assert successes == 1_000
    print(
        f"\n[acceptance] state classification (theorem1): PASS "
        f"forward max coherence {worst:.3e} ({skipped} vanishing branches skipped), "
        f"converse {successes}/1000 with 0 exhaustions"
    )


def test_commutator_criterion_agrees_with_direct_computation():
    """Creation predicate versus directly computed post-coherence.

    Pairs are drawn one at a time from one stream, in the order of
    random_schmidt_state then random_kraus_operation, and evaluated per block
    on the stacked routes: the paired contraction and creation_witnesses.
    """
    g = SeededRng(20260812, 0).generator
    checked = 0
    excluded = 0
    disagreements = 0
    for dim in (2, 3):
        for start in range(0, 10_000, VERIFY_BLOCK):
            draws = [
                (draw_schmidt_parts(dim, dim, g), draw_kraus_parts(dim, g))
                for _ in range(start, min(start + VERIFY_BLOCK, 10_000))
            ]
            w = coefficient_matrices_from_parts([state for state, _ in draws])
            n_ops = summary_operators_from_parts([mats for _, mats in draws])
            _, zero, states = _conditional_states(_unnormalized_branches(w, n_ops[:, None])[:, 0])
            achieved = l1_coherences(states)
            clear = (achieved < 1e-9) | (achieved > 1e-6)
            kept = np.flatnonzero(~zero)[clear]
            predicted = creation_witnesses(w[kept], n_ops[kept]) >= 0
            checked += len(draws)
            excluded += len(draws) - len(kept)
            disagreements += int(np.sum(predicted != (achieved[clear] > 1e-6)))
    fraction = excluded / checked
    assert disagreements == 0
    assert fraction < 0.01
    print(
        f"\n[acceptance] creation criterion (theorem2): PASS "
        f"0 disagreements over {checked} pairs, excluded fraction {fraction:.4%}"
    )


def test_bound_ordering_full_sweep():
    """Per-outcome bound holds and averages respect the bound chain."""
    rng = SeededRng(20260813, 0)
    worst_outcome = -np.inf
    worst_chain = -np.inf
    for dim in (2, 3, 4):
        for _ in range(10_000):
            psi = random_schmidt_state(dim, dim, rng)
            channel = random_tp_channel(dim, rng)
            report = average_rcc(psi, channel)
            for record, bound in zip(report.outcomes, report.lemma1_bounds):
                if not record.zero_probability:
                    worst_outcome = max(worst_outcome, record.coherence - bound)
            worst_chain = max(
                worst_chain,
                report.average_rcc - report.tighter_bound,
                report.tighter_bound - report.theorem3_bound,
            )
    assert worst_outcome < 1e-10
    assert worst_chain < 1e-10
    print(
        f"\n[acceptance] bound ordering (lemma1/theorem3/tighter): PASS "
        f"worst outcome excess {worst_outcome:.3e}, worst chain excess {worst_chain:.3e}"
    )


def test_closed_form_oracles():
    """Hand-derived averages, re-derived through the generic contraction."""
    equal = BipartitePureState.from_schmidt([0.5, 0.5], HADAMARD)
    worst = 0.0
    for r in (0.25, 0.5, 0.75):
        channel = phase_damping(r)
        worst = max(worst, abs(average_coherence(equal, channel) - r))
        # independent oracle: per-branch post-selection from the raw sandwich
        rho = np.outer(equal.amplitudes, equal.amplitudes.conj())
        oracle = 0.0
        for f in channel.kraus:
            unnorm = brute_branch_marginal(rho, 2, 2, f)
            prob = float(np.trace(unnorm).real)
            if prob >= 1e-14:
                oracle += prob * l1_coherence(unnorm / prob)
        worst = max(worst, abs(oracle - r))

    tilted = BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)
    report = average_rcc(tilted, phase_damping(0.5))
    worst = max(worst, abs(report.average_rcc - 0.3))
    worst = max(worst, abs(report.entanglement - 0.6))
    assert worst < 1e-12
    print(f"\n[acceptance] closed-form oracles: PASS max deviation {worst:.3e}")


def test_no_signaling_identity():
    """Unconditioned trace-preserving channels leave A's marginal unchanged."""
    rng = SeededRng(20260814, 0)
    worst = 0.0
    for k in range(1_000):
        dim = 2 if k % 2 == 0 else 3
        rho = random_density_matrix(dim * dim, rng).matrix
        channel = random_tp_channel(dim, rng)
        before = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for m in range(dim):
                for j in range(dim):
                    before[i, m] += rho[i * dim + j, m * dim + j]
        after = np.zeros((dim, dim), dtype=complex)
        for f in channel.kraus:
            after += brute_branch_marginal(rho, dim, dim, f)
        worst = max(worst, float(np.max(np.abs(after - before))))
    assert worst < 1e-10
    print(f"\n[acceptance] no-signaling identity: PASS max marginal deviation {worst:.3e}")
