import re

import numpy as np
import pytest

from rcc_lab import coherence, experiments, rcc
from rcc_lab.channels import ChannelEnsemble, KrausOperation, kraus_operation_to_json
from rcc_lab.coherence import is_incoherent_quantum, l1_coherence
from rcc_lab.errors import BadTrace, NotHermitian, NotPositive, SearchExhausted, ZeroProbability
from rcc_lab.experiments import FORWARD_COHERENCE_ATOL, THEOREM1_FORWARD_BLOCK, VERIFY_BLOCK, SuiteReport, verify_theorem1
from rcc_lab.linalg import (
    VALIDITY_ATOL,
    SeededRng,
    complex_ginibre,
    haar_random_unitary,
    matrix_to_json,
    unitary_from_ginibre,
)
from rcc_lab.rcc import average_rcc, converse_witnesses, find_creating_operation, post_operation_state_a
from rcc_lab.sampling import (
    densities_from_parts,
    draw_incoherent_quantum_block,
    draw_kraus_block,
    draw_noncq_states,
    incoherent_quantum_states_from_parts,
    kraus_operation_from_parts,
    random_density_matrix,
    random_incoherent_quantum_state,
    random_kraus_operation,
    random_noncq_state,
    summary_operators_from_parts,
)
from rcc_lab.states import GERSHGORIN_MIN_STACK, BipartitePureState, DensityMatrix, check_densities
from reference import mixed_branch, post_coherence, square_root


def block_diagonal_states(n, g):
    # The sweep's forward draw: one draw_incoherent_quantum_block of n states.
    return incoherent_quantum_states_from_parts(*draw_incoherent_quantum_block(2, 2, n, g))


def scalar_theorem1(samples, seed, operations_per_state, draw_states=block_diagonal_states, op_at=kraus_operation_from_parts):
    # Reference: the sweep's block draws (the operations, then the forward
    # states per THEOREM1_FORWARD_BLOCK, then the converse states per
    # VERIFY_BLOCK), evaluated with one
    # post_operation_state_a per (state, operation) and one
    # find_creating_operation per converse state. op_at(counts, mats, j)
    # builds operation j of the operations' block.
    g = SeededRng(seed, 0).generator
    checked = violations = excluded = 0
    max_violation = 0.0
    worst = None
    forward_worst = 0.0
    drawn = draw_kraus_block(2, operations_per_state, g)
    ops = [op_at(*drawn, j) for j in range(operations_per_state)]
    block = THEOREM1_FORWARD_BLOCK
    for start in range(0, samples, block):
        for rho in draw_states(min(block, samples - start), g):
            state = DensityMatrix(rho, validate=False)
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
    for start in range(0, samples, VERIFY_BLOCK):
        for rho in draw_noncq_states(min(VERIFY_BLOCK, samples - start), 2, 2, g):
            state = DensityMatrix(rho, validate=False)
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


def dense_states(n, g):
    # Not block-diagonal, so the forward half sees real coherence.
    return densities_from_parts(complex_ginibre(g, (4, 4), n))


def inject_dense_states(monkeypatch):
    # The sweep draws and builds its forward states as dense_states does.
    monkeypatch.setattr(experiments, "draw_incoherent_quantum_block", lambda dim_a, dim_b, n, g: (complex_ginibre(g, (4, 4), n),))
    monkeypatch.setattr(experiments, "incoherent_quantum_states_from_parts", densities_from_parts)


def every_third_summary_vanishes(mats):
    # The N stack of every_third_op_vanishes. scaled_kraus divides by
    # sqrt(max eig N), so N = 0 is injected into the stack, after the draws.
    stack = summary_operators_from_parts(mats)
    stack[2::3] = 0
    return stack


def every_third_op_vanishes(counts, mats, j):
    # Operation j of the block; every third one is N = 0, so every branch
    # through it is excluded.
    return KrausOperation([np.zeros((2, 2))]) if j % 3 == 2 else kraus_operation_from_parts(counts, mats, j)


class TestSweepMatchesScalarLoop:
    @pytest.mark.parametrize("seed", [0, 5, 13])
    @pytest.mark.parametrize("operations_per_state", [0, 1, 100])
    def test_block_diagonal_states(self, seed, operations_per_state, monkeypatch):
        expected = scalar_theorem1(4, seed, operations_per_state)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", operations_per_state)
        assert verify_theorem1(4, seed) == expected

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_violations_and_worst_case(self, seed, monkeypatch):
        # Dense states violate the forward claim on purpose: the counts, the
        # maximum and the first-occurrence worst case must match the loop.
        expected = scalar_theorem1(3, seed, 20, dense_states)
        inject_dense_states(monkeypatch)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 20)
        report = verify_theorem1(3, seed)
        assert report == expected
        assert report.violations > 0 and report.worst_case["direction"] == "forward"

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_excluded_branches(self, seed, monkeypatch):
        expected = scalar_theorem1(3, seed, 12, dense_states, every_third_op_vanishes)
        inject_dense_states(monkeypatch)
        monkeypatch.setattr(experiments, "summary_operators_from_parts", every_third_summary_vanishes)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 12)
        report = verify_theorem1(3, seed)
        assert report == expected
        assert report.excluded == 3 * 4

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_states_cross_a_block_boundary(self, seed, monkeypatch):
        samples = VERIFY_BLOCK + 5
        expected = scalar_theorem1(samples, seed, 3, dense_states)
        inject_dense_states(monkeypatch)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 3)
        report = verify_theorem1(samples, seed)
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
        marginal = mixed_branch(rho, 2, 3, [np.eye(3)])
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


def kernel_inputs(dim_a, dim_b, n, p):
    # n dense joint states (n, da, db, da, db), p shared summaries (p, db, db)
    # and n x p per-state summaries (n, p, db, db).
    rng = SeededRng(20261019, 10 * dim_a + dim_b)
    rho = densities_from_parts(complex_ginibre(rng.generator, (dim_a * dim_b,) * 2, n))
    shared = summary_operators_from_parts(draw_kraus_block(dim_b, p, rng.generator)[1])
    per_state = summary_operators_from_parts(draw_kraus_block(dim_b, n * p, rng.generator)[1]).reshape(n, p, dim_b, dim_b)
    return rho, rho.reshape(n, dim_a, dim_b, dim_a, dim_b), shared, per_state


class TestMixedBranchKernel:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_stacked_rows_equal_one_state_one_branch_calls(self, dims):
        dim_a, dim_b = dims
        _, r4, shared, per_state = kernel_inputs(dim_a, dim_b, 6, 7)
        for stack in (shared, per_state):
            out = rcc._mixed_branches(r4, stack)
            assert out.shape == (6, 7, dim_a, dim_a)
            for k in range(6):
                for q in range(7):
                    branch = stack[q] if stack.ndim == 3 else stack[k, q]
                    np.testing.assert_array_equal(out[k, q], rcc._mixed_branches(r4[k], branch[None])[0])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_agrees_with_the_partial_trace_oracle(self, dims):
        dim_a, dim_b = dims
        rho, r4, shared, per_state = kernel_inputs(dim_a, dim_b, 6, 7)
        shared_out, per_state_out = rcc._mixed_branches(r4, shared), rcc._mixed_branches(r4, per_state)
        # An einsum oracle for the whole stack, and the reference's sandwich with the Kraus operator sqrt(N)
        # for every (state, branch).
        np.testing.assert_allclose(shared_out, np.einsum("nijkl,plj->npik", r4, shared), rtol=0, atol=1e-13)
        oracle = mixed_branch(rho[:, None], dim_a, dim_b, [square_root(shared)])
        np.testing.assert_allclose(shared_out, oracle, rtol=0, atol=1e-13)
        oracle = mixed_branch(rho[:, None], dim_a, dim_b, [square_root(per_state)])
        np.testing.assert_allclose(per_state_out, oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_empty_stacks_give_empty_results(self, dims):
        dim_a, dim_b = dims
        _, r4, shared, per_state = kernel_inputs(dim_a, dim_b, 3, 2)
        assert rcc._mixed_branches(r4, shared[:0]).shape == (3, 0, dim_a, dim_a)
        assert rcc._mixed_branches(r4, per_state[:, :0]).shape == (3, 0, dim_a, dim_a)
        assert rcc._mixed_branches(r4[:0], shared).shape == (0, 2, dim_a, dim_a)
        assert rcc._mixed_branches(r4[:0], per_state[:0]).shape == (0, 2, dim_a, dim_a)
        assert rcc._mixed_branches(r4[0], shared[:0]).shape == (0, dim_a, dim_a)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_entries_near_the_float_limit_are_not_positive(self, big):
        # Finite and Hermitian, with eigenvalues 0.5 +- big: no overflow on the way to NotPositive.
        # DensityMatrix rejects the entry first: it lies above linalg.ENTRY_BOUND.
        m = np.array([[0.5, big], [big, 0.5]], dtype=complex)
        with pytest.raises(NotPositive, match=re.escape(f"minimum eigenvalue {-big:.3e} is below")):
            check_densities(m)
        with pytest.raises(ValueError, match=f"^matrix holds an entry of modulus {re.escape(f'{big:.3e}')}, above 2.0$"):
            DensityMatrix(m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[[np.nan, 0], [0, 1]], [[0.5, np.nan], [np.nan, 0.5]], [[np.inf, 0], [0, 1]]])
    def test_non_finite_stacks_fail_the_first_check(self, bad):
        # Every comparison with NaN is False, so each test is written to fail on it. check_densities takes
        # entries that DensityMatrix has bounded: an infinite one warns on the way, and only the error is tested.
        with np.errstate(invalid="ignore"), pytest.raises(NotHermitian, match="= nan exceeds"):
            check_densities(np.array(GOOD + [bad], dtype=complex))


def spectral_stack(lowest, n, d, g, rotate=True):
    # n Hermitian unit-trace d x d matrices U diag(lowest, rest) U^dagger, the
    # rest positive and adding to 1 - lowest; U Haar, or I without rotate.
    rest = (1 - lowest) * g.dirichlet(np.ones(d - 1), n)
    spectra = np.concatenate([np.full((n, 1), lowest), rest], axis=1).astype(complex)
    if not rotate:
        return spectra[:, :, None] * np.eye(d)
    u = unitary_from_ginibre(complex_ginibre(g, (d, d), n))
    return (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)


def rare_branch_states(n, g):
    # Conditional states of a projector onto v within 1e-5 of the null space
    # of W, a 2x3 state of Schmidt rank 2 with diagonal A-marginal, so that
    # p is about 1e-10, taken through N as W N^T W^dagger, divided by p and
    # symmetrized. The absolute rounding of that product puts their lowest
    # eigenvalues well below -VALIDITY_ATOL: hard input for check_densities.
    # The engine takes pure conditional states from Kraus factors instead
    # (rcc._pure_branches, tests/test_rare_branches.py), which keeps them valid.
    states = []
    for u in unitary_from_ginibre(complex_ginibre(g, (3, 3), n)):
        w = np.sqrt(0.5) * u[:, :2].T
        v = u[:, 2] + 1e-5 * u[:, 0]
        v /= np.linalg.norm(v)
        unnorm = rcc._unnormalized_branches(w[None], np.outer(v, v.conj())[None])[0, 0]
        state = unnorm / np.trace(unnorm).real
        states.append((state + state.conj().T) / 2)
    return np.array(states)


def eigvalsh_verdict(m):
    # The positivity check as eigvalsh alone decides it, with its message.
    low = float(np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2).min(initial=np.inf))
    return None if low >= -VALIDITY_ATOL else f"minimum eigenvalue {low:.3e} is below -{VALIDITY_ATOL}"


def density_verdict(m):
    try:
        check_densities(m)
    except NotPositive as exc:
        return str(exc)
    return None


def among_certified(m):
    # m last in a stack of GERSHGORIN_MIN_STACK matrices, the others I / d, which
    # the bound certifies: the stack's verdict is m's, reached through the bound.
    d = m.shape[-1]
    return np.concatenate([np.broadcast_to(np.eye(d) / d, (GERSHGORIN_MIN_STACK - 1, d, d)), m[None]])


class TestGershgorinCertificate:
    def stacks(self):
        g, n = SeededRng(20261019, 7).generator, GERSHGORIN_MIN_STACK
        for d in (2, 3, 4):
            yield densities_from_parts(complex_ginibre(g, (d, d), n))
            yield spectral_stack(0.0, n, d, g, rotate=False)
            for lowest in (-VALIDITY_ATOL * (1 - 1e-3), -VALIDITY_ATOL * (1 + 1e-3)):
                yield spectral_stack(lowest, n, d, g, rotate=False)
                yield spectral_stack(lowest, n, d, g)
        yield rare_branch_states(300, g)

    def test_the_bound_never_passes_what_eigvalsh_rejects(self):
        for stack in self.stacks():
            assert density_verdict(stack) == eigvalsh_verdict(stack)
            for m in stack:
                assert density_verdict(among_certified(m)) == eigvalsh_verdict(m)
        # The rare branches of ROADMAP item 3 are still rejected, not certified.
        rare = rare_branch_states(100, SeededRng(20261019, 11).generator)
        assert sum(density_verdict(among_certified(m)) is not None for m in rare) > 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_never_pass(self, bad):
        for stack in self.stacks():
            stack[len(stack) // 2, -1, -1] = bad
            with np.errstate(invalid="ignore"), pytest.raises(NotHermitian):
                check_densities(stack)

    def test_only_large_stacks_try_the_bound(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        # theorem1's forward half: block-diagonal states against the
        # operations' N stack give diagonal conditional states.
        g = SeededRng(20261019, 8).generator
        stack = summary_operators_from_parts(draw_kraus_block(2, 100, g)[1])
        states = block_diagonal_states(THEOREM1_FORWARD_BLOCK, g).reshape(-1, 2, 2, 2, 2)
        calls.clear()
        _, zero, states_a = rcc._conditional_states(rcc._mixed_branches(states, stack))
        assert len(states_a) == zero.size >= GERSHGORIN_MIN_STACK and calls == []
        # A smaller stack, such as compute's, goes straight to eigvalsh.
        check_densities(states_a[: GERSHGORIN_MIN_STACK - 1])
        assert calls == [(GERSHGORIN_MIN_STACK - 1, 2, 2)]
        # Dense states leave the bound undecided: one eigvalsh for the stack.
        check_densities(densities_from_parts(complex_ginibre(g, (3, 3), GERSHGORIN_MIN_STACK)))
        assert calls[1:] == [(GERSHGORIN_MIN_STACK, 3, 3)]


# -- the stacked converse ---------------------------------------------------

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
# About the median largest off-block entry of a Ginibre state: half the
# candidates fail the block test at this tolerance.
REJECTING_TOL = {(2, 2): 0.17, (2, 3): 0.11, (3, 2): 0.12, (3, 3): 0.072}


def largest_off_block(rho, dim_a, dim_b):
    off_block = ~np.eye(dim_a, dtype=bool)[:, None, :, None]
    return float(np.max(np.abs(rho.reshape(dim_a, dim_b, dim_a, dim_b)), where=off_block, initial=0.0))


def nearly_block_diagonal(dim_a, dim_b, largest, rng):
    # A block-diagonal state mixed with a dense one, so that the largest
    # entry of an off-diagonal block is `largest`.
    cq = random_incoherent_quantum_state(dim_a, dim_b, rng).matrix
    dense = random_density_matrix(dim_a * dim_b, rng).matrix
    t = largest / largest_off_block(dense, dim_a, dim_b)
    return (1 - t) * cq + t * dense


def rank_deficient(dim_a, dim_b, rng):
    # A state on C^dim_a (x) C^(dim_b - 1) embedded into B = C^dim_b: B's
    # marginal has rank dim_b - 1 at most, so S drops a column.
    inner = random_noncq_state(dim_a, dim_b - 1, rng).matrix
    embed = np.kron(np.eye(dim_a), haar_random_unitary(dim_b, rng)[:, : dim_b - 1])
    return embed @ inner @ embed.conj().T


def scalar_view(rho, dim_a, dim_b, monkeypatch):
    # find_creating_operation's witness and the coherence it reports, or None:
    # every witness is returned at target 0 and raises at target infinity.
    state = DensityMatrix(rho, validate=False)
    with monkeypatch.context() as patch:
        patch.setattr(rcc, "CONVERSE_COHERENCE_TARGET", 0.0)
        op = find_creating_operation(state, dim_a, dim_b)
        if op is None:
            return None
        patch.setattr(rcc, "CONVERSE_COHERENCE_TARGET", np.inf)
        with pytest.raises(SearchExhausted) as info:
            find_creating_operation(state, dim_a, dim_b)
    return op.kraus[0], info.value.best_value


class TestStackedWitness:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dims", DIMS)
    def test_stack_matches_the_scalar_view(self, dims, monkeypatch):
        dim_a, dim_b = dims
        rng = SeededRng(20261018, 10 * dim_a + dim_b)
        full = [random_noncq_state(dim_a, dim_b, rng).matrix for _ in range(20)]
        full += [nearly_block_diagonal(dim_a, dim_b, largest, rng) for largest in (1e-8, 1e-7, 1e-6, 1e-5) for _ in range(5)]
        cq = [random_incoherent_quantum_state(dim_a, dim_b, rng).matrix for _ in range(4)]
        # Rank one, with an empty block: the whitened parts all vanish.
        pure = np.zeros((dim_b, dim_b))
        pure[0, 0] = 1.0
        cq.append(block_state([1.0] + [0.0] * (dim_a - 1), [pure] * dim_a))
        deficient = [rank_deficient(dim_a, dim_b, rng) for _ in range(10)]
        # Interleaved, so the kinds share every part of the stacked call.
        order = rng.generator.permutation(len(full) + len(cq) + len(deficient))
        kinds = np.array(["full"] * len(full) + ["cq"] * len(cq) + ["deficient"] * len(deficient))[order]
        stack = np.array(full + cq + deficient)[order]
        witnesses, coherence, block_diagonal = converse_witnesses(stack, dim_a, dim_b)
        assert block_diagonal.tolist() == (kinds == "cq").tolist()
        for rho, kind, witness, reached in zip(stack, kinds, witnesses, coherence):
            view = scalar_view(rho, dim_a, dim_b, monkeypatch)
            if kind == "cq":
                assert view is None
                continue
            if kind == "full":
                np.testing.assert_array_equal(view[0], witness)
                assert view[1] == reached
            else:
                np.testing.assert_allclose(view[0], witness, rtol=0, atol=1e-12)
                assert view[1] == pytest.approx(reached, rel=0, abs=1e-12)
            assert post_coherence(mixed_branch(rho, dim_a, dim_b, [witness])) == pytest.approx(reached, rel=1e-9, abs=1e-15)
            # The witness beats the largest off-block entry (test_rcc).
            assert reached >= largest_off_block(rho, dim_a, dim_b) * (1 - 1e-9)

    def test_rank_deficient_witness_stays_on_the_support(self):
        rng = SeededRng(20261019)
        rho = np.array([rank_deficient(2, 3, rng) for _ in range(20)])
        witnesses, coherence, _ = converse_witnesses(rho, 2, 3)
        support = np.einsum("nijil->njl", rho.reshape(-1, 2, 3, 2, 3))
        # P rho_B P = <beta| rho_B |beta> P: beta carries the branch probability.
        probs = np.einsum("nij,nji->n", witnesses, support).real
        assert probs.min() > 1e-3 and coherence.min() > 1e-6

    def test_empty_stack_gives_three_empty_arrays(self):
        witnesses, coherence, block_diagonal = converse_witnesses(np.zeros((0, 6, 6), dtype=complex), 2, 3)
        assert witnesses.shape == (0, 3, 3) and coherence.shape == (0,) and block_diagonal.shape == (0,)

    def test_one_level_a_has_no_creating_operation(self):
        # A one-level A has no off-diagonal block, so every state is block-diagonal.
        rho = random_density_matrix(3, SeededRng(20261020))
        assert find_creating_operation(rho, 1, 3) is None
        witnesses, coherence, block_diagonal = converse_witnesses(rho.matrix[None], 1, 3)
        assert not witnesses.any() and coherence.tolist() == [0.0] and block_diagonal.tolist() == [True]


class TestStackedDraws:
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("rejecting", [False, True])
    def test_noncq_draw_equals_the_per_state_loop(self, dims, rejecting, monkeypatch):
        dim_a, dim_b = dims
        if rejecting:
            monkeypatch.setattr(coherence, "CLASSIFICATION_ATOL", REJECTING_TOL[dims])
        loop_rng, block_rng = SeededRng(31, 10 * dim_a + dim_b), SeededRng(31, 10 * dim_a + dim_b)
        expected = np.array([random_noncq_state(dim_a, dim_b, loop_rng).matrix for _ in range(300)])
        states = draw_noncq_states(300, dim_a, dim_b, block_rng.generator)
        np.testing.assert_array_equal(states, expected)
        # Both routes leave the stream at the same place.
        assert loop_rng.generator.random() == block_rng.generator.random()

    @pytest.mark.parametrize("count", [1, 5])
    def test_64_rejections_in_a_row_raise(self, count, monkeypatch):
        monkeypatch.setattr(coherence, "CLASSIFICATION_ATOL", 10.0)
        with pytest.raises(RuntimeError, match="could not draw a non-block-diagonal state"):
            random_noncq_state(2, 2, SeededRng(33))
        with pytest.raises(RuntimeError, match="could not draw a non-block-diagonal state"):
            draw_noncq_states(count, 2, 2, SeededRng(33).generator)

    def test_empty_noncq_draw_draws_nothing(self):
        g, twin = SeededRng(35).generator, SeededRng(35).generator
        assert draw_noncq_states(0, 2, 3, g).shape == (0, 6, 6)
        assert g.random() == twin.random()

    def test_one_level_a_raises_before_drawing(self):
        rng, twin = SeededRng(36), SeededRng(36)
        with pytest.raises(ValueError, match="one-level A"):
            draw_noncq_states(3, 1, 2, rng.generator)
        with pytest.raises(ValueError, match="one-level A"):
            random_noncq_state(1, 2, rng)
        assert rng.generator.random() == twin.generator.random()

    def test_one_call_ginibre_sets_equal_per_matrix_draws(self):
        # Reference: two standard_normal calls per Ginibre matrix, real parts first.
        def ginibre(g, shape):
            return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)

        new, old = SeededRng(34).generator, SeededRng(34).generator
        for _ in range(20):
            _, kraus = draw_kraus_block(3, 1, new)
            count = int(old.integers(1, 4))
            np.testing.assert_array_equal(kraus[0], [ginibre(old, (3, 3)) for _ in range(count)])
            q, blocks = draw_incoherent_quantum_block(3, 2, 1, new)
            np.testing.assert_array_equal(q[0], old.dirichlet(np.ones(3)))
            np.testing.assert_array_equal(blocks[0], [ginibre(old, (2, 2)) for _ in range(3)])
            np.testing.assert_array_equal(complex_ginibre(new, (6, 2), 1)[0], ginibre(old, (6, 2)))
        assert new.random() == old.random()


class TestConverseBlocks:
    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_converse_crosses_block_boundaries(self, seed, monkeypatch):
        samples = 2 * VERIFY_BLOCK + 10
        expected = scalar_theorem1(samples, seed, 0)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 0)
        assert verify_theorem1(samples, seed) == expected

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_witnesses_below_the_target_pick_the_same_worst_case(self, seed, monkeypatch):
        # At target 0.5 about one witness in twenty falls below it, in every block.
        monkeypatch.setattr(rcc, "CONVERSE_COHERENCE_TARGET", 0.5)
        samples = 2 * VERIFY_BLOCK + 10
        expected = scalar_theorem1(samples, seed, 0)
        monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 0)
        report = verify_theorem1(samples, seed)
        assert report == expected
        assert report.violations > 0 and report.worst_case["direction"] == "converse"
