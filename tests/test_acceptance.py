"""Acceptance suite: every headline property at full scale.

Each test prints one PASS line with the measured extreme once its assertions
hold (run pytest with -s to see them). Scales and tolerances are pinned here
and nowhere else; the random instances are all seeded.
"""

import time

import numpy as np

from rcc_lab.channels import branch_stacks, creation_witnesses, phase_damping
from rcc_lab.coherence import l1_coherences
from rcc_lab.experiments import VERIFY_BLOCK, ExperimentConfig, run_fig1
from rcc_lab.linalg import SeededRng
from rcc_lab.rcc import (
    CONVERSE_COHERENCE_TARGET,
    _conditional_states,
    _mixed_branches,
    _pure_branches,
    average_coherence,
    average_coherence_bounds,
    average_coherences,
    average_rcc,
    branch_averages,
    converse_witnesses,
    maximally_entangled_partners,
    outcome_coherence_bounds,
    tight_average_bounds,
)
from rcc_lab.sampling import (
    branch_stacks_from_parts,
    coefficient_matrices_from_parts,
    draw_incoherent_quantum_block,
    draw_kraus_block,
    draw_noncq_states,
    draw_schmidt_block,
    draw_tp_block,
    incoherent_quantum_states_from_parts,
    isometry_kraus,
    random_density_matrix,
    random_tp_channel,
    scaled_kraus,
    summary_operators_from_parts,
)
from rcc_lab.states import BipartitePureState, batch_concurrence, unit_amplitudes
from reference import mixed_branch, post_coherence

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_factorization_law_full_sweep():
    """Average coherence equals entanglement times partner average, 2x2.

    The draws come from one stream: 100 random_tp_channel calls, then one
    draw_schmidt_block per block of VERIFY_BLOCK states. Per block, every
    state and its maximally entangled partner (maximally_entangled_partners)
    meet every channel through average_coherences, one call per Kraus count;
    the channels' branches are shared by the whole block, so the 1e6 pairs
    cost two matrix products per call instead of a few small ones per pair.
    """
    rng = SeededRng(20260810, 0)
    channels = [random_tp_channel(2, rng) for _ in range(100)]
    groups = [
        [channel for channel in channels if len(channel.kraus) == count]
        for count in sorted({len(channel.kraus) for channel in channels})
    ]
    started = time.time()
    worst = 0.0
    for start in range(0, 10_000, VERIFY_BLOCK):
        w = coefficient_matrices_from_parts(*draw_schmidt_block(2, 2, min(VERIFY_BLOCK, 10_000 - start), rng.generator))
        ent = batch_concurrence(w)
        partners = unit_amplitudes(maximally_entangled_partners(w).reshape(len(w), -1)).reshape(w.shape)
        for group in groups:
            dev = np.abs(average_coherences(w, group) - ent[:, None] * average_coherences(partners, group))
            worst = max(worst, float(dev.max()))
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

    The draws come from one stream: a block of 100 operations, then one block
    per VERIFY_BLOCK block-diagonal states, then the non-block-diagonal states
    per VERIFY_BLOCK, evaluated on the stacked routes: the forward states
    against the whole N stack, the converse states through converse_witnesses,
    whose witnesses the reference's (I (x) P) rho (I (x) P) sandwich re-measures.
    """
    g = SeededRng(20260811, 0).generator
    operations = summary_operators_from_parts(draw_kraus_block(2, 100, g)[1])
    worst = 0.0
    skipped = 0
    for start in range(0, 1_000, VERIFY_BLOCK):
        parts = draw_incoherent_quantum_block(2, 2, min(VERIFY_BLOCK, 1_000 - start), g)
        states = incoherent_quantum_states_from_parts(*parts).reshape(-1, 2, 2, 2, 2)
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
        marginals = mixed_branch(states[found], 2, 2, [witnesses[found]])
        successes += sum(post_coherence(marginal) > 1e-6 for marginal in marginals)
    assert exhaustions == 0
    assert successes == 1_000
    print(
        f"\n[acceptance] state classification (theorem1): PASS "
        f"forward max coherence {worst:.3e} ({skipped} vanishing branches skipped), "
        f"converse {successes}/1000 with 0 exhaustions"
    )


def test_commutator_criterion_agrees_with_direct_computation():
    """Creation predicate versus directly computed post-coherence.

    Pairs are drawn per block of VERIFY_BLOCK from one stream, the states'
    block then the operations' block, and evaluated on the stacked routes:
    the outcome routine, each operation's Kraus set kept whole, and
    creation_witnesses.
    """
    g = SeededRng(20260812, 0).generator
    checked = 0
    excluded = 0
    disagreements = 0
    for dim in (2, 3):
        for start in range(0, 10_000, VERIFY_BLOCK):
            n = min(VERIFY_BLOCK, 10_000 - start)
            w = coefficient_matrices_from_parts(*draw_schmidt_block(dim, dim, n, g))
            kraus = scaled_kraus(draw_kraus_block(dim, n, g)[1])
            n_ops = branch_stacks(kraus)[1]
            _, zero, states = _conditional_states(_pure_branches(w, kraus[:, None]))
            achieved = l1_coherences(states)
            clear = (achieved < 1e-9) | (achieved > 1e-6)
            kept = np.flatnonzero(~zero[:, 0])[clear]
            predicted = creation_witnesses(w[kept], n_ops[kept]) >= 0
            checked += n
            excluded += n - len(kept)
            disagreements += int(np.sum(predicted != (achieved[clear] > 1e-6)))
    fraction = excluded / checked
    assert disagreements == 0
    assert fraction < 0.01
    print(
        f"\n[acceptance] creation criterion (theorem2): PASS "
        f"0 disagreements over {checked} pairs, excluded fraction {fraction:.4%}"
    )


def test_bound_ordering_full_sweep():
    """Per-outcome bound holds and averages respect the bound chain.

    Pairs are drawn per block of VERIFY_BLOCK from one stream, the states'
    block then the channels' block, and evaluated on the stacked routes with
    the channels' zero-padded Kraus blocks: each block F as its own outcome
    against outcome_coherence_bounds with its branch W F^T (W F^T)^dagger
    (padding blocks have probability 0 and are skipped), and
    branch_averages <= tight_average_bounds <= average_coherence_bounds.
    """
    g = SeededRng(20260813, 0).generator
    worst_outcome = -np.inf
    worst_chain = -np.inf
    for dim in (2, 3, 4):
        for start in range(0, 10_000, VERIFY_BLOCK):
            n = min(VERIFY_BLOCK, 10_000 - start)
            w = coefficient_matrices_from_parts(*draw_schmidt_block(dim, dim, n, g))
            z = draw_tp_block(dim, n, g)[1]
            stacks = branch_stacks_from_parts(z)
            pairs = np.repeat(w, stacks.shape[1], axis=0)
            grams = _pure_branches(w, isometry_kraus(z)[:, :, None])
            _, zero, branches = _conditional_states(grams)
            zero = zero.reshape(-1)
            bounds = outcome_coherence_bounds(pairs[~zero], grams.reshape(-1, dim, dim)[~zero])
            worst_outcome = max(worst_outcome, float(np.max(l1_coherences(branches) - bounds, initial=-np.inf)))
            tight = tight_average_bounds(w, stacks)
            worst_chain = max(
                worst_chain,
                float(np.max(branch_averages(w, stacks) - tight)),
                float(np.max(tight - average_coherence_bounds(w, stacks))),
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
            unnorm = mixed_branch(rho, 2, 2, [f])
            prob = float(np.trace(unnorm).real)
            if prob >= 1e-14:
                oracle += prob * post_coherence(unnorm)
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
        before = mixed_branch(rho, dim, dim, [np.eye(dim)])
        after = mixed_branch(rho, dim, dim, channel.kraus)
        worst = max(worst, float(np.max(np.abs(after - before))))
    assert worst < 1e-10
    print(f"\n[acceptance] no-signaling identity: PASS max marginal deviation {worst:.3e}")
