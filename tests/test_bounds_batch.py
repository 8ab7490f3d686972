"""The stacked lemma1, theorem3 and theorem4 sweeps against per-sample references.

The reference loops below take the sweep's block draws and evaluate them one
sample at a time: one state and one channel object per row, built as the
random_* samplers build them, through the scalar API. theorem3 and theorem4
pad each channel's branch stack with zero branches to the block's width, as
the sweep does: the padding changes how numpy groups the terms of a sum, and
at d = 2 the bounds hold with equality, so the last bits of the excess are
the padding's; there the reference evaluates the padded stack and checks that
the scalar API agrees to 1e-12. The scalar views at the end are held to the
brute-force reference of tests/reference.py.
"""

import json
import re

import numpy as np
import pytest

from rcc_lab import channels, experiments, rcc, sampling, states
from rcc_lab.channels import (
    ChannelEnsemble,
    KrausOperation,
    ensemble_to_json,
    is_trace_preserving,
    kraus_operation_to_json,
    phase_damping,
    projective_measurement,
    check_summaries,
)
from rcc_lab.coherence import l1_coherence
from rcc_lab.errors import NotTracePreserving, PremiseViolated, WrongDimension, ZeroProbability
from rcc_lab.experiments import VERIFY_BLOCK, SuiteReport, run_verify
from rcc_lab.linalg import (
    VALIDITY_ATOL,
    SeededRng,
    complex_ginibre,
    haar_random_unitary,
    unitary_from_ginibre,
)
from rcc_lab.sampling import (
    draw_ensemble_block,
    draw_kraus_block,
    draw_schmidt_block,
    draw_tp_block,
    ensemble_from_parts,
    kraus_operation_from_parts,
    random_channel_ensemble,
    random_kraus_operation,
    random_schmidt_state,
    random_tp_channel,
    tp_channel_from_parts,
)
from rcc_lab.states import BipartitePureState, concurrence, state_to_json
from oracle import concurrence as float64_concurrence
from reference import amplitudes, average_coherence, l1, offdiag_norm, pure_branch, summary_operator
from reference import concurrence as reference_concurrence

SEEDS = (0, 5, 13)
SIZES = (1, 2, 33, VERIFY_BLOCK + 5)


def sample_blocks(samples, seed, dims, draw):
    # The sweep's draws: per dim, one draw(dim, n, g) per block of at most
    # VERIFY_BLOCK samples, all from one stream; yields (dim, n, parts).
    g = SeededRng(seed, 0).generator
    for dim in dims:
        for start in range(0, samples, VERIFY_BLOCK):
            n = min(VERIFY_BLOCK, samples - start)
            yield dim, n, draw(dim, n, g)


def schmidt_state(schmidt, k):
    # Row k of a draw_schmidt_block, built as random_schmidt_state builds it.
    weights, ginibre = schmidt
    return BipartitePureState.from_schmidt(weights[k], unitary_from_ginibre(ginibre[k]))


def padded_evaluation(psi, channel, width):
    # w and the channel's branch stack zero-padded to width, as one-element stacks.
    stack = channel.branch_n_stack()
    out = np.zeros((1, width) + stack.shape[1:], dtype=stack.dtype)
    out[0, : len(stack)] = stack
    return psi.coefficient_matrix[None], out


def scalar_lemma1(samples, seed):
    checked = violations = excluded = 0
    max_violation = 0.0
    worst = None

    def draw(dim, n, g):
        return draw_schmidt_block(dim, dim, n, g), draw_kraus_block(dim, n, g)

    for _, n, (schmidt, ops) in sample_blocks(samples, seed, (2, 3, 4), draw):
        for k in range(n):
            psi = schmidt_state(schmidt, k)
            op = kraus_operation_from_parts(*ops, k)
            checked += 1
            try:
                state_a, _ = rcc.post_operation_state_a(psi, op)
                bound = rcc.outcome_coherence_bound(psi, op)
            except ZeroProbability:
                excluded += 1
                continue
            gap = l1_coherence(state_a) - bound
            if gap > experiments.BOUND_ATOL:
                violations += 1
                if worst is None or gap > max_violation:
                    max_violation = gap
                    worst = {"state": state_to_json(psi), "channel": kraus_operation_to_json(op), "excess": gap}
    return SuiteReport("lemma1", checked, violations, excluded, max_violation, worst)


def scalar_theorem3(samples, seed):
    checked = violations = 0
    max_violation = 0.0
    worst = None

    def draw(dim, n, g):
        # Even samples take trace-preserving channels, odd ones ensembles.
        return draw_schmidt_block(dim, dim, n, g), draw_tp_block(dim, (n + 1) // 2, g), draw_ensemble_block(dim, n // 2, g)

    for _, n, (schmidt, channels, ensembles) in sample_blocks(samples, seed, (2, 3, 4), draw):
        width = max(int(channels[0].max()), 2)
        for k in range(n):
            psi = schmidt_state(schmidt, k)
            if k % 2 == 0:
                channel = tp_channel_from_parts(*channels, k // 2)
                channel_json = kraus_operation_to_json(channel)
            else:
                channel = ensemble_from_parts(*ensembles, k // 2)
                channel_json = ensemble_to_json(channel)
            checked += 1
            w, stack = padded_evaluation(psi, channel, width)
            average = rcc.branch_averages(w, stack)[0]
            tight = rcc.tight_average_bounds(w, stack)[0]
            partner_bound = rcc.average_coherence_bounds(w, stack)[0]
            assert abs(average - rcc.average_coherence(psi, channel)) <= 1e-12
            assert tight == rcc.tight_average_bound(psi, channel)
            assert abs(partner_bound - rcc.average_coherence_bound(psi, channel)) <= 1e-12
            gap = max(average - tight, tight - partner_bound)
            if gap > experiments.BOUND_ATOL:
                violations += 1
                if worst is None or gap > max_violation:
                    max_violation = gap
                    worst = {"state": state_to_json(psi), "channel": channel_json, "excess": gap}
    return SuiteReport("theorem3", checked, violations, 0, max_violation, worst)


def scalar_theorem4(samples, seed):
    checked = violations = 0
    max_violation = 0.0
    worst = None

    def draw(dim, n, g):
        return draw_schmidt_block(dim, dim, n, g), draw_tp_block(dim, n, g)

    for _, n, (schmidt, channels) in sample_blocks(samples, seed, (2,), draw):
        width = int(channels[0].max())
        for k in range(n):
            psi = schmidt_state(schmidt, k)
            channel = tp_channel_from_parts(*channels, k)
            checked += 1
            w, stack = padded_evaluation(psi, channel, width)
            average = rcc.branch_averages(w, stack)[0]
            dev = abs(average - rcc.average_coherence_bounds(w, stack)[0])
            ent = concurrence(psi)
            maxent = rcc.average_coherence(rcc.maximally_entangled_partner(psi), channel)
            assert abs(dev - abs(rcc.average_coherence(psi, channel) - ent * maxent)) <= 1e-12
            if dev >= rcc.FACTORIZATION_ATOL:
                violations += 1
                if worst is None or dev > max_violation:
                    max_violation = dev
                    worst = {"state": state_to_json(psi), "channel": kraus_operation_to_json(channel), "deviation": dev}
    return SuiteReport("theorem4", checked, violations, 0, max_violation, worst)


REFERENCES = {"lemma1": scalar_lemma1, "theorem3": scalar_theorem3, "theorem4": scalar_theorem4}


def assert_same_report(batched, reference):
    assert (batched.suite, batched.checked, batched.violations, batched.excluded, batched.notes) == (
        reference.suite,
        reference.checked,
        reference.violations,
        reference.excluded,
        reference.notes,
    )
    assert abs(batched.max_violation - reference.max_violation) <= 1e-12
    if reference.worst_case is None:
        assert batched.worst_case is None
        return
    assert batched.worst_case.keys() == reference.worst_case.keys()
    for key in ("state", "channel"):
        assert json.dumps(batched.worst_case[key]) == json.dumps(reference.worst_case[key])
    key = "deviation" if reference.suite == "theorem4" else "excess"
    assert abs(batched.worst_case[key] - reference.worst_case[key]) <= 1e-12


@pytest.mark.parametrize("suite", sorted(REFERENCES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", SIZES)
def test_batched_sweep_equals_the_per_sample_loop(suite, seed, samples):
    assert_same_report(run_verify(suite, samples, seed), REFERENCES[suite](samples, seed))


@pytest.mark.parametrize("suite", sorted(REFERENCES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", SIZES)
def test_forced_violations_pick_the_same_worst_case(monkeypatch, suite, seed, samples):
    # Every check now violates, so the worst case is the largest excess of
    # the whole sweep; at d = 2 the bounds hold with equality and that excess
    # is rounding, which the stacked sweep must reproduce sample by sample
    # (for theorem3 and theorem4, that of the padded stacks).
    monkeypatch.setattr(experiments, "BOUND_ATOL", -1.0)
    monkeypatch.setattr(rcc, "FACTORIZATION_ATOL", -1.0)
    batched = run_verify(suite, samples, seed)
    assert batched.violations > 0
    assert_same_report(batched, REFERENCES[suite](samples, seed))


def test_lemma1_contracts_each_pair_once(monkeypatch):
    contracted = []
    routine = rcc._pure_branches

    def counting(w, factors):
        out = routine(w, factors)
        contracted.append(out.shape[0] * out.shape[1])
        return out

    monkeypatch.setattr(rcc, "_pure_branches", counting)
    report = run_verify("lemma1", VERIFY_BLOCK + 5, 3)
    assert sum(contracted) == report.checked == 3 * (VERIFY_BLOCK + 5)
    # One call per block: two blocks for each of d = 2, 3, 4.
    assert len(contracted) == 6


# -- errors on the stacked routes ----------------------------------------


def coherent_state():
    # |+>|0>: A's marginal has off-diagonal weight 1/2.
    return BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))


def raised(fn, *args):
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def test_coherent_marginal_raises_as_on_the_scalar_routes():
    psi = coherent_state()
    channel = phase_damping(0.3)
    w, stacks = psi.coefficient_matrix[None], channel.branch_n_stack()[None]
    op = KrausOperation([np.diag([1.0, 0.5])])
    expected = raised(rcc.tight_average_bound, psi, channel)
    assert expected[0] is PremiseViolated
    assert raised(rcc.average_coherence, psi, channel) == expected
    assert raised(rcc.average_coherence_bound, psi, channel) == expected
    assert raised(rcc.outcome_coherence_bound, psi, op) == expected
    assert raised(rcc.maximally_entangled_partner, psi) == expected
    assert raised(rcc.tight_average_bounds, w, stacks) == expected
    assert raised(rcc.average_coherence_bounds, w, stacks) == expected
    assert raised(rcc.branch_averages, w, stacks) == expected
    assert raised(rcc.maximally_entangled_partners, w) == expected
    gram = w[0] @ op.n_operator().T @ w[0].conj().T
    assert raised(rcc.outcome_coherence_bounds, w, gram[None]) == expected


def test_non_trace_preserving_channel_raises_as_on_the_scalar_routes():
    psi = random_schmidt_state(2, 2, SeededRng(4))
    half = KrausOperation([np.sqrt(0.5) * np.eye(2)])
    w, stacks = psi.coefficient_matrix[None], half.branch_n_stack()[None]
    expected = raised(rcc.average_coherence, psi, half)
    assert expected[0] is NotTracePreserving
    assert raised(rcc.tight_average_bound, psi, half) == expected
    assert raised(rcc.average_coherence_bound, psi, half) == expected
    assert raised(rcc.branch_averages, w, stacks) == expected
    assert raised(rcc.tight_average_bounds, w, stacks) == expected
    assert raised(rcc.average_coherence_bounds, w, stacks) == expected


# One state given as a (dim_a, dim_b) matrix, not as a stack of one: each public stacked routine's other arguments.
DAMPING = phase_damping(0.3)
ONE_STATE = {
    "branch_averages": (DAMPING.branch_n_stack(),),
    "average_coherences": ([DAMPING],),
    "maximally_entangled_partners": (),
    "tight_average_bounds": (DAMPING.branch_n_stack(),),
    "average_coherence_bounds": (DAMPING.branch_n_stack(),),
    "outcome_coherence_bounds": (np.eye(2) / 2,),
}


@pytest.mark.parametrize("name", sorted(ONE_STATE))
def test_a_single_coefficient_matrix_is_a_value_error(name):
    with pytest.raises(ValueError, match=re.escape("w must have shape (n, dim_a, dim_b), got (2, 2)")):
        getattr(rcc, name)(np.eye(2) / np.sqrt(2), *ONE_STATE[name])


def test_average_rcc_checks_kind_and_dimension_premise_trace_then_partner():
    # A 3x2 state has no maximally entangled partner; every other check comes first.
    diagonal = BipartitePureState(3, 2, np.sqrt([0.6, 0, 0, 0.4, 0, 0]))
    coherent = BipartitePureState(3, 2, np.array([1, 0, 1, 0, 0, 0]) / np.sqrt(2))
    half, whole = KrausOperation([np.sqrt(0.5) * np.eye(2)]), phase_damping(0.3)
    assert raised(rcc.average_rcc, coherent, "channel")[0] is TypeError
    assert raised(rcc.average_rcc, coherent, KrausOperation([np.eye(3)]))[0] is ValueError
    assert raised(rcc.average_rcc, coherent, half)[0] is PremiseViolated
    assert raised(rcc.average_rcc, diagonal, half)[0] is NotTracePreserving
    assert raised(rcc.average_rcc, diagonal, whole) == (WrongDimension, "partner needs dim_b >= dim_a, got 2 < 3")


# -- average_rcc as a view of the stacked routines ------------------------


def report_pairs():
    rng = SeededRng(20261019, 21)
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        yield random_schmidt_state(dim_a, dim_b, rng), random_tp_channel(dim_b, rng)
        yield random_schmidt_state(dim_a, dim_b, rng), random_channel_ensemble(dim_b, rng)
    # One zero-probability branch: the projector onto |2> misses B's support.
    basis = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    yield BipartitePureState.from_schmidt([0.7, 0.3], np.eye(3)), projective_measurement(basis)


@pytest.mark.parametrize("psi, channel", list(report_pairs()))
def test_average_rcc_is_a_view_of_the_stacked_routines(psi, channel):
    report = rcc.average_rcc(psi, channel)
    assert report.average_rcc == rcc.average_coherence(psi, channel)
    assert report.tighter_bound == rcc.tight_average_bound(psi, channel)
    assert report.theorem3_bound == rcc.average_coherence_bound(psi, channel)
    if isinstance(channel, ChannelEnsemble):
        operations = channel.operations
    else:
        operations = [KrausOperation([f]) for f in channel.kraus]
    assert len(report.outcomes) == len(operations)
    for outcome, op, bound in zip(report.outcomes, operations, report.lemma1_bounds):
        if outcome.zero_probability:
            with pytest.raises(ZeroProbability):
                rcc.post_operation_state_a(psi, op)
            continue
        state, prob = rcc.post_operation_state_a(psi, op)
        assert outcome.probability == prob
        assert np.array_equal(outcome.state_a.matrix, state.matrix)
        assert bound == rcc.outcome_coherence_bound(psi, op)


def count_calls(monkeypatch, names):
    # Wrap each named rcc_lab function in every module that holds it; returns the list of names called.
    calls = []
    for name in names:
        original = getattr(rcc, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (rcc, states, channels, sampling, experiments):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


PRECONDITIONS = ("_marginal_concurrence", "identity_deviation", "require_premises", "schmidt_rows")


@pytest.mark.parametrize("route", [rcc.average_rcc, rcc.factorization_check])
def test_each_precondition_runs_once(monkeypatch, route):
    psi = random_schmidt_state(2, 2, SeededRng(20261019, 22))
    channel = random_channel_ensemble(2, SeededRng(20261019, 23))
    calls = count_calls(monkeypatch, PRECONDITIONS)
    route(psi, channel)
    assert sorted(calls) == list(PRECONDITIONS)


@pytest.mark.parametrize("suite, blocks", [("theorem3", 3), ("theorem4", 1)])
def test_each_precondition_runs_once_per_sweep_block(monkeypatch, suite, blocks):
    # 40 samples make one block per dimension: three for theorem3 (d = 2, 3, 4), one for theorem4.
    calls = count_calls(monkeypatch, PRECONDITIONS + ("check_summaries",))
    shapes = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    run_verify(suite, 40, 5)
    for name in PRECONDITIONS:
        assert calls.count(name) == blocks
    # One QR for the states' Haar bases (square Ginibre matrices), one for every channel's isometry
    # (tall parts); theorem3 checks its whole sets once and its ensemble members once.
    tall = [shape[-2] > shape[-1] for shape in shapes]
    assert tall.count(False) == tall.count(True) == blocks
    assert calls.count("check_summaries") == (2 if suite == "theorem3" else 1) * blocks


@pytest.mark.parametrize("suite", ["theorem3", "theorem4"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_gaps_equal_the_public_stacked_routines(monkeypatch, suite, seed):
    # Every block's gaps, bit for bit, from branch_averages, tight_average_bounds and
    # average_coherence_bounds on the same states and padded branch stacks.
    passes, recorded = [], []
    shared = rcc._average_bounds
    record = experiments._record

    def keeping(w, stacks):
        passes.append((w, stacks))
        return shared(w, stacks)

    def recording(report, checked, kept, values, flagged, replay):
        recorded.append(values)
        return record(report, checked, kept, values, flagged, replay)

    monkeypatch.setattr(rcc, "_average_bounds", keeping)
    monkeypatch.setattr(experiments, "_record", recording)
    run_verify(suite, VERIFY_BLOCK + 5, seed)
    assert len(passes) == len(recorded) == (6 if suite == "theorem3" else 2)
    padded = 0
    for (w, stacks), values in zip(passes, recorded):
        average, partner_bound = rcc.branch_averages(w, stacks), rcc.average_coherence_bounds(w, stacks)
        if suite == "theorem3":
            tight = rcc.tight_average_bounds(w, stacks)
            expected = np.maximum(average - tight, tight - partner_bound)
        else:
            expected = np.abs(average - partner_bound)
        assert np.array_equal(values, expected)
        padded += int((~stacks.any(axis=(-2, -1))).any())
    assert padded > 0


@pytest.mark.parametrize("scale, accepted", [(0.999, True), (1.001, False)])
def test_every_averaging_route_draws_the_line_at_validity_atol(scale, accepted):
    # A qubit channel whose N = (1 - scale * VALIDITY_ATOL) I misses the
    # identity by scale * VALIDITY_ATOL, far from rounding at either scale.
    shrink = np.sqrt(1.0 - scale * VALIDITY_ATOL)
    channel = KrausOperation([shrink * f for f in phase_damping(0.3).kraus])
    psi = random_schmidt_state(2, 2, SeededRng(4))
    w, stacks = psi.coefficient_matrix[None], channel.branch_n_stack()[None]
    routes = [
        (rcc.average_coherence, psi, channel),
        (rcc.average_rcc, psi, channel),
        (rcc.average_coherence_bound, psi, channel),
        (rcc.tight_average_bound, psi, channel),
        (rcc.branch_averages, w, stacks),
        (rcc.tight_average_bounds, w, stacks),
        (rcc.average_coherence_bounds, w, stacks),
        (rcc.average_coherences, w, [channel]),
    ]
    assert is_trace_preserving(channel) is accepted
    for route, *args in routes:
        if accepted:
            route(*args)
        else:
            with pytest.raises(NotTracePreserving):
                route(*args)


def test_summary_check_raises_as_kraus_operation_does():
    big = np.sqrt(1.5) * np.eye(2)
    expected = raised(KrausOperation, [big])
    assert expected[0] is ValueError
    assert raised(check_summaries, (big.conj().T @ big)[None]) == expected
    # One bad operator anywhere in a stack fails the whole stack.
    with pytest.raises(ValueError, match="0 <= N <= I"):
        check_summaries(np.stack([np.eye(2) / 2, big.conj().T @ big]))
    # eigvalsh gives a NaN summary the spectrum [0.0, -0.0] (numpy 2.4.6), inside [0, 1]: the finiteness scan must stay.
    with pytest.raises(ValueError, match="^summary operator holds a non-finite entry$"):
        check_summaries(np.array([[[np.nan, 0.0], [0.0, 0.5]]]))


@pytest.mark.parametrize("suite", ["lemma1", "theorem3", "theorem4"])
def test_sweeps_check_the_premise_on_the_block(monkeypatch, suite):
    def coherent_block(weights, ginibre):
        return np.repeat(coherent_state().coefficient_matrix[None], len(weights), axis=0)

    monkeypatch.setattr(experiments, "coefficient_matrices_from_parts", coherent_block)
    with pytest.raises(PremiseViolated):
        run_verify(suite, 4, 0)


@pytest.mark.parametrize("suite", ["theorem3", "theorem4"])
def test_sweeps_check_that_channels_are_whole(monkeypatch, suite):
    # theorem3 builds its channels and ensembles in one call, theorem4 its channels.
    stacks_of = experiments.branch_stacks_from_parts

    def halved(*parts):
        return stacks_of(*parts) / 2

    monkeypatch.setattr(experiments, "branch_stacks_from_parts", halved)
    with pytest.raises(NotTracePreserving):
        run_verify(suite, 4, 0)


# -- scalar views against the brute-force reference -----------------------


def hard_inputs():
    rng = SeededRng(20161008)
    for d in (2, 3, 4):
        # Haar-rotated equal weights, dim_b = d.
        yield np.full(d, 1.0 / d), haar_random_unitary(d, rng)[:, :d]
        # dim_b = d + 1.
        yield rng.generator.dirichlet(np.ones(d)), haar_random_unitary(d + 1, rng)[:, :d]
        if d > 2:
            # Rank-deficient: weight 0 on row 1, so the partner is completed.
            # (At d = 2 that is a product state, where E = 0 is ill-conditioned.)
            weights = rng.generator.dirichlet(np.ones(d))
            weights[1] = 0.0
            yield weights / weights.sum(), haar_random_unitary(d + 1, rng)[:, :d]


@pytest.mark.parametrize("weights, basis", list(hard_inputs()))
def test_the_reference_concurrence_agrees_with_float64(weights, basis):
    # Away from product states, bench/oracle.py's float64 purity route is accurate.
    d, dim_b = len(weights), basis.shape[0]
    amp = amplitudes(weights, basis)
    assert abs(reference_concurrence(amp, d, dim_b) - float64_concurrence(amp, d, dim_b)) <= 1e-12


@pytest.mark.parametrize("weights, basis", list(hard_inputs()))
def test_scalar_views_match_the_oracle(weights, basis):
    d, dim_b = len(weights), basis.shape[0]
    rng = SeededRng(d * 10 + dim_b)
    psi = BipartitePureState.from_schmidt(weights, basis)
    amp = amplitudes(weights, basis)
    kept = weights > 0
    betas = basis[:, kept]
    ent = reference_concurrence(amp, d, dim_b)

    op = random_kraus_operation(dim_b, rng)
    branch = pure_branch(amp, d, dim_b, op.kraus)
    prob = np.trace(branch).real
    expected = ent / prob * offdiag_norm(summary_operator(op.kraus), betas, kept.sum())
    assert abs(rcc.outcome_coherence_bound(psi, op) - expected) <= 1e-12
    assert l1(branch) / prob <= expected + 1e-10

    partner = rcc.maximally_entangled_partner(psi).coefficient_matrix
    assert np.max(np.abs(partner[kept] - betas.T / np.sqrt(d))) <= 1e-12
    assert np.max(np.abs(partner @ partner.conj().T - np.eye(d) / d)) <= 1e-12

    for channel in (random_tp_channel(dim_b, rng), random_channel_ensemble(dim_b, rng)):
        if isinstance(channel, KrausOperation):
            branches = [[f] for f in channel.kraus]
        else:
            branches = [member.kraus for member in channel.operations]
        summaries = [summary_operator(kraus) for kraus in branches]
        tight = ent * sum(offdiag_norm(n, betas, kept.sum()) for n in summaries)
        assert abs(rcc.tight_average_bound(psi, channel) - tight) <= 1e-12
        partner_bound = d / 2 * ent * average_coherence(partner.reshape(-1), d, dim_b, branches)
        assert abs(rcc.average_coherence_bound(psi, channel) - partner_bound) <= 1e-12
        average = average_coherence(amp, d, dim_b, branches)
        assert average <= tight + 1e-10 and tight <= partner_bound + 1e-10


def test_scalar_views_are_one_element_stacks():
    # A state's numbers do not depend on how many states share the call.
    rng = SeededRng(9)
    psis = [random_schmidt_state(3, 4, rng) for _ in range(5)]
    # Two Kraus operators each, so that the branch stacks stack.
    channels = [tp_channel_from_parts(np.array([2]), complex_ginibre(rng.generator, (8, 4), 1)) for _ in psis]
    w = np.array([psi.coefficient_matrix for psi in psis])
    stacks = np.array([channel.branch_n_stack() for channel in channels])
    tight = rcc.tight_average_bounds(w, stacks)
    bound = rcc.average_coherence_bounds(w, stacks)
    partners = rcc.maximally_entangled_partners(w)
    for i, (psi, channel) in enumerate(zip(psis, channels)):
        assert tight[i] == rcc.tight_average_bound(psi, channel)
        assert bound[i] == rcc.average_coherence_bound(psi, channel)
        assert rcc.branch_averages(w, stacks)[i] == rcc.average_coherence(psi, channel)
        assert np.array_equal(
            BipartitePureState(3, 4, partners[i].reshape(-1)).amplitudes,
            rcc.maximally_entangled_partner(psi).amplitudes,
        )


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("dim_b_extra", [0, 1])
def test_per_state_branches_ignore_padding_and_block_size(d, dim_b_extra):
    # Each state's W N_k^T W^dagger and tight bound, bit for bit, whether its stack is padded with 1 to 3
    # zero branches or not, and whether it is one row of a 32-state block or a one-element call.
    db = d + dim_b_extra
    rng = SeededRng(21, 10 * d + dim_b_extra)
    w = np.array([random_schmidt_state(d, db, rng).coefficient_matrix for _ in range(32)])
    channels = [tp_channel_from_parts(np.array([2]), complex_ginibre(rng.generator, (2 * db, db), 1)) for _ in w]
    stacks = np.array([channel.branch_n_stack() for channel in channels])
    branches, tight = rcc._unnormalized_branches(w, stacks), rcc.tight_average_bounds(w, stacks)
    for pad in (0, 1, 2, 3):
        padded = np.concatenate([stacks, np.zeros((32, pad, db, db), dtype=stacks.dtype)], axis=1)
        block = rcc._unnormalized_branches(w, padded)
        assert np.array_equal(block[:, :2], branches) and not block[:, 2:].any()
        assert np.array_equal(rcc.tight_average_bounds(w, padded), tight)
        for i in range(len(w)):
            assert np.array_equal(rcc._unnormalized_branches(w[i : i + 1], padded[i : i + 1])[0, :2], branches[i])
            assert rcc.tight_average_bounds(w[i : i + 1], padded[i : i + 1])[0] == tight[i]


def test_a_sweep_records_a_worst_case_below_zero(monkeypatch):
    # BOUND_ATOL = -1 flags every check; without d = 2 every Lemma 1 gap is strict, so every flagged value is negative.
    sweep = experiments._sweep
    monkeypatch.setattr(experiments, "BOUND_ATOL", -1.0)
    monkeypatch.setattr(experiments, "_sweep", lambda suite, samples, seed, dims, *rest: sweep(suite, samples, seed, (3, 4), *rest))
    report = experiments.run_verify("lemma1", 40, 5)
    assert report.violations == report.checked == 80
    assert report.worst_case is not None and report.worst_case["excess"] == report.max_violation < 0
