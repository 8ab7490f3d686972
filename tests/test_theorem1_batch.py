import numpy as np
import pytest

from rcc_lab import experiments, rcc
from rcc_lab.channels import ChannelEnsemble, KrausOperation, kraus_operation_to_json
from rcc_lab.coherence import is_incoherent_quantum, l1_coherence
from rcc_lab.errors import BadTrace, NotHermitian, NotPositive, SearchExhausted, ZeroProbability
from rcc_lab.experiments import FORWARD_COHERENCE_ATOL, VERIFY_BLOCK, SuiteReport, verify_theorem1
from rcc_lab.linalg import SeededRng, complex_ginibre, matrix_to_json, partial_trace
from rcc_lab.rcc import average_rcc, find_creating_operation, post_operation_state_a
from rcc_lab.sampling import (
    densities_from_parts,
    random_density_matrix,
    random_incoherent_quantum_state,
    random_kraus_operation,
    random_noncq_state,
    summary_operators_from_parts,
)
from rcc_lab.states import BipartitePureState, DensityMatrix, check_densities


def scalar_theorem1(samples, seed, operations_per_state, draw_state, draw_op):
    # Reference: one post_operation_state_a per (state, operation), drawing
    # the operations, the forward states and the converse states in order.
    rng = SeededRng(seed, 0)
    checked = violations = excluded = 0
    max_violation = 0.0
    worst = None
    forward_worst = 0.0
    ops = [draw_op(2, rng) for _ in range(operations_per_state)]
    for _ in range(samples):
        state = draw_state(2, 2, rng)
        for op in ops:
            checked += 1
            try:
                state_a, _ = post_operation_state_a(state, op, 2, 2)
            except ZeroProbability:
                excluded += 1
                continue
            achieved = l1_coherence(state_a)
            forward_worst = max(forward_worst, achieved)
            if achieved >= FORWARD_COHERENCE_ATOL:
                violations += 1
                if achieved > max_violation:
                    max_violation = achieved
                    worst = {
                        "direction": "forward",
                        "state": matrix_to_json(state.matrix),
                        "channel": kraus_operation_to_json(op),
                        "post_coherence": achieved,
                    }
    exhausted = converse_ok = 0
    for _ in range(samples):
        state = random_noncq_state(2, 2, rng)
        checked += 1
        try:
            op = find_creating_operation(state, 2, 2)
        except SearchExhausted as exc:
            exhausted += 1
            violations += 1
            if exc.best_value > max_violation:
                max_violation = exc.best_value
                worst = {"direction": "converse", "state": matrix_to_json(state.matrix), "best_coherence": exc.best_value}
            continue
        if op is None:
            violations += 1
            worst = {"direction": "converse-misclassified", "state": matrix_to_json(state.matrix)}
            continue
        converse_ok += 1
    notes = (
        f"forward: max post-coherence {forward_worst:.3e} over {samples * operations_per_state} checks",
        f"converse: {converse_ok}/{samples} witnesses reached the target, {exhausted} below it",
    )
    return SuiteReport("theorem1", checked, violations, excluded, max_violation, worst, notes)


def dense_state(dim_a, dim_b, rng):
    # Not block-diagonal, so the forward half sees real coherence.
    return random_density_matrix(dim_a * dim_b, rng)


def inject_dense_states(monkeypatch):
    # The sweep draws and builds its forward states as dense_state does.
    monkeypatch.setattr(
        experiments, "draw_incoherent_quantum_parts", lambda dim_a, dim_b, g: complex_ginibre(g, (dim_a * dim_b,) * 2)
    )
    monkeypatch.setattr(experiments, "incoherent_quantum_states_from_parts", lambda parts: densities_from_parts(np.array(parts)))


def every_third_summary_vanishes(parts):
    # The N stack of every_third_op_vanishes. scaled_kraus divides by
    # sqrt(max eig N), so N = 0 is injected into the stack, after the draws.
    stack = summary_operators_from_parts(parts)
    stack[2::3] = 0
    return stack


def every_third_op_vanishes():
    # Draws as random_kraus_operation; every third operation is N = 0, so
    # every branch through it is excluded.
    drawn = []

    def draw(dim_b, rng):
        drawn.append(random_kraus_operation(dim_b, rng))
        return KrausOperation([np.zeros((dim_b, dim_b))]) if len(drawn) % 3 == 0 else drawn[-1]

    return draw


class TestSweepMatchesScalarLoop:
    @pytest.mark.parametrize("seed", [0, 5, 13])
    @pytest.mark.parametrize("operations_per_state", [0, 1, 100])
    def test_block_diagonal_states(self, seed, operations_per_state):
        expected = scalar_theorem1(4, seed, operations_per_state, random_incoherent_quantum_state, random_kraus_operation)
        assert verify_theorem1(4, seed, operations_per_state) == expected

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_violations_and_worst_case(self, seed, monkeypatch):
        # Dense states violate the forward claim on purpose: the counts, the
        # maximum and the first-occurrence worst case must match the loop.
        expected = scalar_theorem1(3, seed, 20, dense_state, random_kraus_operation)
        inject_dense_states(monkeypatch)
        report = verify_theorem1(3, seed, 20)
        assert report == expected
        assert report.violations > 0 and report.worst_case["direction"] == "forward"

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_excluded_branches(self, seed, monkeypatch):
        expected = scalar_theorem1(3, seed, 12, dense_state, every_third_op_vanishes())
        inject_dense_states(monkeypatch)
        monkeypatch.setattr(experiments, "summary_operators_from_parts", every_third_summary_vanishes)
        report = verify_theorem1(3, seed, 12)
        assert report == expected
        assert report.excluded == 3 * 4

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_states_cross_a_block_boundary(self, seed, monkeypatch):
        samples = VERIFY_BLOCK + 5
        expected = scalar_theorem1(samples, seed, 3, dense_state, random_kraus_operation)
        inject_dense_states(monkeypatch)
        report = verify_theorem1(samples, seed, 3)
        assert report == expected
        assert report.violations > 0


def block_state(q, blocks):
    dim_b = blocks[0].shape[0]
    rho = np.zeros((len(q) * dim_b,) * 2, dtype=complex)
    for i, (weight, block) in enumerate(zip(q, blocks)):
        rho[i * dim_b : (i + 1) * dim_b, i * dim_b : (i + 1) * dim_b] = weight * block
    return rho


class TestHardInputs:
    def test_n_zero_excludes_every_branch(self):
        rng = SeededRng(61)
        rho = random_density_matrix(4, rng)
        kill = KrausOperation([np.zeros((2, 2))])
        with pytest.raises(ZeroProbability):
            post_operation_state_a(rho, kill, 2, 2)
        with pytest.raises(ZeroProbability):
            post_operation_state_a(BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2)), kill)
        middle = random_kraus_operation(2, rng)
        stack = np.stack([kill.n_operator(), middle.n_operator(), kill.n_operator()])
        probs, zero, states = rcc._conditional_states(rcc._mixed_branches(rho.matrix.reshape(2, 2, 2, 2), stack))
        assert zero.tolist() == [True, False, True]
        assert probs[0] == probs[2] == 0.0
        # Only the kept branch has a state, equal to the scalar route's.
        state_a, prob = post_operation_state_a(rho, middle, 2, 2)
        assert states.shape == (1, 2, 2) and prob == probs[1]
        np.testing.assert_array_equal(states[0], state_a.matrix)

    def test_n_zero_member_is_flagged_in_average(self):
        psi = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        ensemble = ChannelEnsemble([KrausOperation([np.eye(2)]), KrausOperation([np.zeros((2, 2))])])
        report = average_rcc(psi, ensemble)
        assert [o.zero_probability for o in report.outcomes] == [False, True]
        assert report.outcomes[1].state_a is None and report.lemma1_bounds[1] == 0.0

    def test_n_identity_leaves_the_marginal(self):
        rng = SeededRng(62)
        rho = random_density_matrix(6, rng).matrix
        state_a, prob = post_operation_state_a(rho, KrausOperation([np.eye(3)]), 2, 3)
        marginal = partial_trace(rho, 2, 3, "A")
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(state_a.matrix, marginal, atol=1e-12)
        block = block_state([0.3, 0.7], [random_density_matrix(3, rng).matrix for _ in range(2)])
        state_a, _ = post_operation_state_a(block, KrausOperation([np.eye(3)]), 2, 3)
        assert l1_coherence(state_a) == 0.0

    def test_rank_deficient_block_state_with_empty_block(self):
        # q = (1, 0) with a pure first block: rank one, block-diagonal.
        rng = SeededRng(63)
        rho = block_state([1.0, 0.0], [np.diag([1.0, 0.0]), random_density_matrix(2, rng).matrix])
        assert is_incoherent_quantum(rho, 2, 2)
        assert find_creating_operation(rho, 2, 2) is None
        ops = [random_kraus_operation(2, rng) for _ in range(20)]
        ops.append(KrausOperation([np.diag([0.0, 1.0])]))  # misses the support
        stack = np.stack([op.n_operator() for op in ops])
        probs, zero, states = rcc._conditional_states(rcc._mixed_branches(rho.reshape(2, 2, 2, 2), stack))
        assert zero.tolist() == [False] * 20 + [True]
        for k, op in enumerate(ops[:-1]):
            state_a, prob = post_operation_state_a(rho, op, 2, 2)
            assert prob == probs[k]
            np.testing.assert_array_equal(state_a.matrix, states[k])
            np.testing.assert_array_equal(states[k], np.diag([1.0, 0.0]))
        with pytest.raises(ZeroProbability):
            post_operation_state_a(rho, ops[-1], 2, 2)


GOOD = [np.eye(2) / 2, np.diag([0.9, 0.1]), np.array([[0.5, 0.5], [0.5, 0.5]])]
BAD = {
    NotHermitian: np.array([[0.5, 0.5], [0.0, 0.5]]),
    BadTrace: np.diag([0.6, 0.3]),
    NotPositive: np.array([[0.5, 0.6], [0.6, 0.5]]),
}


class TestStackedDensityCheck:
    def test_valid_and_empty_stacks_pass(self):
        check_densities(np.array(GOOD, dtype=complex))
        check_densities(np.zeros((0, 2, 2), dtype=complex))
        check_densities(np.array(GOOD, dtype=complex).reshape(3, 1, 2, 2))

    @pytest.mark.parametrize("error", list(BAD))
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_one_bad_matrix_raises_like_density_matrix(self, error, position):
        with pytest.raises(error) as single:
            DensityMatrix(BAD[error])
        stack = GOOD[:position] + [BAD[error]] + GOOD[position:]
        with pytest.raises(error) as stacked:
            check_densities(np.array(stack, dtype=complex))
        assert str(stacked.value) == str(single.value)
