import numpy as np
import pytest

from rcc_lab.channels import (
    KrausOperation,
    bit_flip,
    bit_phase_flip,
    creates_coherence,
    depolarizing,
    phase_damping,
    phase_flip,
    projective_measurement,
)
from rcc_lab.coherence import is_incoherent_quantum, l1_coherence
from rcc_lab import rcc
from rcc_lab.errors import (
    NotTracePreserving,
    PremiseViolated,
    SearchExhausted,
    WrongDimension,
    ZeroProbability,
)
from rcc_lab.linalg import SeededRng, haar_random_unitary, random_pure_state
from rcc_lab.rcc import (
    average_coherence,
    average_coherence_bound,
    average_rcc,
    factorization_check,
    find_creating_operation,
    maximally_entangled_partner,
    outcome_coherence_bound,
    post_operation_state_a,
    report_to_json,
    tight_average_bound,
)
from rcc_lab.sampling import (
    random_channel_ensemble,
    random_density_matrix,
    random_incoherent_quantum_state,
    random_kraus_operation,
    random_noncq_state,
    random_schmidt_state,
    random_tp_channel,
)
from rcc_lab.states import (
    BipartitePureState,
    DensityMatrix,
    concurrence,
    reduced_a,
    require_premises,
    schmidt_decompose,
)
from reference import average_coherence as reference_average
from reference import mixed_branch, post_coherence, pure_branch

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def bell():
    return BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def hadamard_correlated():
    return BipartitePureState.from_schmidt([0.5, 0.5], HADAMARD)


def tilted():
    return BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)


def plus_projector():
    return KrausOperation([np.outer(HADAMARD[:, 0], HADAMARD[:, 0].conj())], label="project[+]")


class TestPostOperationState:
    def test_bell_with_plus_projector(self):
        state_a, prob = post_operation_state_a(bell(), plus_projector())
        assert abs(prob - 0.5) < 1e-12
        expect = np.outer(HADAMARD[:, 0], HADAMARD[:, 0].conj())
        np.testing.assert_allclose(state_a.matrix, expect, atol=1e-12)
        assert abs(l1_coherence(state_a) - 1.0) < 1e-12

    def test_identity_operation_is_noop(self):
        psi = tilted()
        state_a, prob = post_operation_state_a(psi, KrausOperation([np.eye(2)]))
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(state_a.matrix, np.diag([0.9, 0.1]), atol=1e-12)

    def test_block_diagonal_states_stay_diagonal(self):
        rng = SeededRng(71)
        for _ in range(50):
            rho = random_incoherent_quantum_state(2, 2, rng)
            op = random_kraus_operation(2, rng)
            state_a, _ = post_operation_state_a(rho, op, 2, 2)
            assert l1_coherence(state_a) < 1e-12

    def test_pure_and_mixed_paths_agree(self):
        rng = SeededRng(72)
        for _ in range(200):
            psi = BipartitePureState(2, 3, random_pure_state(6, rng))
            op = random_kraus_operation(3, rng)
            try:
                fast, p_fast = post_operation_state_a(psi, op)
            except ZeroProbability:
                continue
            generic, p_generic = post_operation_state_a(psi.density(), op, 2, 3)
            assert abs(p_fast - p_generic) < 1e-12
            np.testing.assert_allclose(fast.matrix, generic.matrix, atol=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = SeededRng(73)
        for _ in range(100):
            psi = BipartitePureState(2, 2, random_pure_state(4, rng))
            op = random_kraus_operation(2, rng)
            unnorm = pure_branch(psi.amplitudes, 2, 2, op.kraus)
            prob_oracle = float(np.trace(unnorm).real)
            if prob_oracle < 1e-12:
                continue
            state_a, prob = post_operation_state_a(psi, op)
            assert abs(prob - prob_oracle) < 1e-12
            np.testing.assert_allclose(state_a.matrix, unnorm / prob_oracle, atol=1e-10)

    def test_zero_probability_branch(self):
        psi = BipartitePureState(2, 2, [1, 0, 0, 0])
        kill = KrausOperation([np.diag([0.0, 1.0])])
        with pytest.raises(ZeroProbability):
            post_operation_state_a(psi, kill)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_rare_complex_outcome_is_a_valid_state(self, eps):
        # |0> (x) beta measured in a complex basis whose first vector is almost orthogonal
        # to beta: p ~ eps^2, while W N^T W^dagger keeps a rounding error of ~1e-16 on its
        # own, so the unsymmetrized conditional state misses Hermiticity by ~1e-16 / p.
        beta = np.array([0.6, 0.8j * np.exp(0.3j)])
        u = np.array([-beta[1].conj(), beta[0].conj()]) + eps * np.exp(1.1j) * beta.conj()
        u /= np.linalg.norm(u)
        basis = np.stack([u, [-u[1].conj(), u[0].conj()]], axis=1) * np.exp([0.7j, -2.1j])
        psi = BipartitePureState(2, 2, np.kron([1, 0], beta))
        measure = projective_measurement(basis)
        state_a, prob = post_operation_state_a(psi, measure.operations[0])
        assert 0.1 * eps**2 < prob < 10 * eps**2
        np.testing.assert_allclose(state_a.matrix, np.diag([1, 0]), atol=1e-12)
        report = average_rcc(psi, measure)
        assert [o.zero_probability for o in report.outcomes] == [False, False]
        assert report.average_rcc == pytest.approx(0.0, abs=1e-12)

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="dim_a and dim_b"):
            post_operation_state_a(bell().density(), plus_projector())
        with pytest.raises(ValueError, match="does not match"):
            post_operation_state_a(bell(), KrausOperation([np.eye(3)]))


class TestAverageCoherence:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 1.0])
    def test_closed_form_equal_weights(self, r):
        # branch F1 contributes sqrt(w0 w1) r and branch F2 the same; with
        # w = (1/2, 1/2) and the Hadamard B-basis the total is exactly r
        psi = hadamard_correlated()
        assert abs(average_coherence(psi, phase_damping(r)) - r) < 1e-12

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_closed_form_matches_brute_force(self, r):
        psi = hadamard_correlated()
        branches = [(f,) for f in phase_damping(r).kraus]
        assert abs(reference_average(psi.amplitudes, psi.dim_a, psi.dim_b, branches) - r) < 1e-12

    def test_closed_form_tilted(self):
        psi = tilted()
        got = average_coherence(psi, phase_damping(0.5))
        assert abs(got - 0.3) < 1e-12
        branches = [(f,) for f in phase_damping(0.5).kraus]
        assert abs(reference_average(psi.amplitudes, psi.dim_a, psi.dim_b, branches) - 0.3) < 1e-12

    def test_bell_under_phase_damping_gains_nothing(self):
        for r in (0.1, 0.5, 0.9):
            assert average_coherence(bell(), phase_damping(r)) < 1e-12

    def test_flip_channels_create_nothing(self):
        rng = SeededRng(74)
        for _ in range(20):
            psi = random_schmidt_state(2, 2, rng)
            for channel in (bit_flip(0.3), phase_flip(0.6), bit_phase_flip(0.2), depolarizing(0.8)):
                assert average_coherence(psi, channel) < 1e-12

    def test_hadamard_measurement_of_bell(self):
        ensemble = projective_measurement(HADAMARD)
        assert abs(average_coherence(bell(), ensemble) - 1.0) < 1e-12
        # each outcome leaves A in the matching superposition state
        report = average_rcc(bell(), ensemble)
        for k, record in enumerate(report.outcomes):
            assert abs(record.probability - 0.5) < 1e-12
            expect = np.outer(HADAMARD[:, k], HADAMARD[:, k].conj())
            np.testing.assert_allclose(record.state_a.matrix, expect, atol=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = SeededRng(75)
        for _ in range(100):
            psi = random_schmidt_state(2, 2, rng)
            channel = random_tp_channel(2, rng)
            branches = [(f,) for f in channel.kraus]
            expected = reference_average(psi.amplitudes, psi.dim_a, psi.dim_b, branches)
            assert abs(average_coherence(psi, channel) - expected) < 1e-10

    def test_ensemble_branches_are_member_operations(self):
        rng = SeededRng(76)
        psi = random_schmidt_state(2, 2, rng)
        ensemble = random_channel_ensemble(2, rng)
        branches = [tuple(op.kraus) for op in ensemble.operations]
        assert abs(average_coherence(psi, ensemble) - reference_average(psi.amplitudes, psi.dim_a, psi.dim_b, branches)) < 1e-10

    def test_premise_enforced(self):
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        with pytest.raises(PremiseViolated):
            average_coherence(coherent, phase_damping(0.5))

    def test_requires_trace_preserving_whole(self):
        with pytest.raises(NotTracePreserving):
            average_coherence(bell(), plus_projector())


class TestMaximallyEntangledPartner:
    def test_bell_is_its_own_partner(self):
        partner = maximally_entangled_partner(bell())
        np.testing.assert_allclose(partner.amplitudes, bell().amplitudes, atol=1e-12)

    def test_weights_equalized_in_same_basis(self):
        partner = maximally_entangled_partner(tilted())
        np.testing.assert_allclose(partner.amplitudes, hadamard_correlated().amplitudes, atol=1e-12)

    def test_three_dimensional_partner(self):
        psi = random_schmidt_state(3, 3, SeededRng(77))
        partner = maximally_entangled_partner(psi)
        form = schmidt_decompose(partner)
        np.testing.assert_allclose(form.weights, np.ones(3) / 3, atol=1e-9)
        assert abs(concurrence(partner) - np.sqrt(4.0 / 3.0)) < 1e-9

    def test_partner_marginal_is_maximally_mixed(self):
        rng = SeededRng(78)
        for _ in range(20):
            psi = random_schmidt_state(2, 3, rng)
            partner = maximally_entangled_partner(psi)
            rho_a = require_premises(partner.coefficient_matrix[None])[0]
            assert np.abs(rho_a - np.diag(rho_a.diagonal())).max() < 1e-12

    def test_low_rank_state_completed(self):
        product = BipartitePureState(2, 2, [1, 0, 0, 0])
        partner = maximally_entangled_partner(product)
        assert abs(concurrence(partner) - 1.0) < 1e-9

    def test_requires_wide_enough_b(self):
        skinny = BipartitePureState(2, 1, [1, 0])
        with pytest.raises(WrongDimension):
            maximally_entangled_partner(skinny)


class TestBounds:
    def test_equality_case(self):
        # E = 1, p' = 1/2, |N_01| = 1/2 gives bound 1, achieved 1
        bound = outcome_coherence_bound(bell(), plus_projector())
        state_a, _ = post_operation_state_a(bell(), plus_projector())
        assert abs(bound - 1.0) < 1e-12
        assert abs(l1_coherence(state_a) - bound) < 1e-12

    def test_inert_operation_bound(self):
        branch = KrausOperation([phase_damping(0.5).kraus[0]])
        bound = outcome_coherence_bound(bell(), branch)
        state_a, _ = post_operation_state_a(bell(), branch)
        assert bound >= 0.0
        assert l1_coherence(state_a) <= bound + 1e-12

    def test_zero_probability_raises(self):
        psi = BipartitePureState(2, 2, [1, 0, 0, 0])
        with pytest.raises(ZeroProbability):
            outcome_coherence_bound(psi, KrausOperation([np.diag([0.0, 1.0])]))

    def test_per_outcome_bound_sweep(self):
        rng = SeededRng(79)
        for dim in (2, 3):
            for _ in range(300):
                psi = random_schmidt_state(dim, dim, rng)
                op = random_kraus_operation(dim, rng)
                try:
                    state_a, _ = post_operation_state_a(psi, op)
                    bound = outcome_coherence_bound(psi, op)
                except ZeroProbability:
                    continue
                assert l1_coherence(state_a) <= bound + 1e-10

    def test_average_ordering_sweep(self):
        rng = SeededRng(80)
        for dim in (2, 3, 4):
            for k in range(200):
                psi = random_schmidt_state(dim, dim, rng)
                channel = (
                    random_tp_channel(dim, rng) if k % 2 == 0 else random_channel_ensemble(dim, rng)
                )
                average = average_coherence(psi, channel)
                tight = tight_average_bound(psi, channel)
                partner_bound = average_coherence_bound(psi, channel)
                assert average <= tight + 1e-10
                assert tight <= partner_bound + 1e-10

    @pytest.mark.parametrize("dim_b", [3, 4])
    def test_haar_rotated_maximally_entangled_state(self, dim_b):
        # At equal weights an SVD may return any rotation of the Schmidt
        # pairs; Lemma 1 and the Theorem 3 ordering need the B-vectors paired
        # with A's computational basis.
        rng = SeededRng(82)
        for _ in range(40):
            psi = BipartitePureState.from_schmidt(np.ones(3), haar_random_unitary(dim_b, rng))
            op = random_kraus_operation(dim_b, rng)
            state_a, _ = post_operation_state_a(psi, op)
            assert l1_coherence(state_a) <= outcome_coherence_bound(psi, op) + 1e-10
            channel = random_tp_channel(dim_b, rng)
            tight = tight_average_bound(psi, channel)
            assert average_coherence(psi, channel) <= tight + 1e-10
            assert tight <= average_coherence_bound(psi, channel) + 1e-10

    def test_bound_and_partner_need_diagonal_marginal(self):
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        with pytest.raises(PremiseViolated):
            outcome_coherence_bound(coherent, plus_projector())
        with pytest.raises(PremiseViolated):
            maximally_entangled_partner(coherent)

    def test_product_state_bounds_vanish(self):
        product = BipartitePureState(2, 2, [1, 0, 0, 0])
        channel = phase_damping(0.4)
        assert average_coherence(product, channel) < 1e-12
        assert average_coherence_bound(product, channel) < 1e-12
        assert tight_average_bound(product, channel) < 1e-12


class TestFactorization:
    def test_closed_form_instance(self):
        ratio, holds = factorization_check(tilted(), phase_damping(0.5))
        assert holds
        assert abs(ratio - 0.6) < 1e-12

    def test_product_state_holds_without_ratio(self):
        product = BipartitePureState(2, 2, [1, 0, 0, 0])
        ratio, holds = factorization_check(product, bit_flip(0.3))
        # flip channels have proportional-to-identity branches, so even the
        # partner average vanishes and the ratio is undefined
        assert ratio is None and holds

    def test_random_sweep(self):
        rng = SeededRng(81)
        for _ in range(300):
            psi = random_schmidt_state(2, 2, rng)
            channel = random_tp_channel(2, rng)
            _, holds = factorization_check(psi, channel)
            assert holds

    def test_rejects_other_dimensions(self):
        psi = random_schmidt_state(3, 3, SeededRng(82))
        with pytest.raises(WrongDimension):
            factorization_check(psi, random_tp_channel(3, SeededRng(83)))


class TestFindCreatingOperation:
    def test_bell_succeeds(self):
        op = find_creating_operation(bell().density(), 2, 2)
        state_a, _ = post_operation_state_a(bell(), op)
        assert l1_coherence(state_a) > 1e-6

    def test_block_diagonal_returns_none(self):
        rho = random_incoherent_quantum_state(2, 2, SeededRng(84))
        assert find_creating_operation(rho, 2, 2) is None

    def test_separable_coherent_correlated_state(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        rho = 0.5 * (
            np.kron(np.outer(plus, plus.conj()), np.outer(e0, e0.conj()))
            + np.kron(np.outer(minus, minus.conj()), np.outer(e1, e1.conj()))
        )
        op = find_creating_operation(rho, 2, 2)
        assert op is not None
        state_a, _ = post_operation_state_a(rho, op, 2, 2)
        assert l1_coherence(state_a) > 1e-6

    def test_search_is_deterministic(self):
        rho = random_noncq_state(2, 2, SeededRng(85))
        first = find_creating_operation(rho, 2, 2)
        second = find_creating_operation(rho, 2, 2)
        np.testing.assert_array_equal(first.kraus[0], second.kraus[0])

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_witness_beats_largest_off_block_entry(self, dims, eps, monkeypatch):
        # Nearly block-diagonal states. With the target at 0 every witness is
        # returned, and the reference measures what it creates: provably at
        # least the largest entry of an off-diagonal block.
        monkeypatch.setattr(rcc, "CONVERSE_COHERENCE_TARGET", 0.0)
        dim_a, dim_b = dims
        rng = SeededRng(round(-np.log10(eps)), 10 * dim_a + dim_b)
        off_block = ~np.eye(dim_a, dtype=bool)[:, None, :, None]
        for _ in range(25):
            cq = random_incoherent_quantum_state(dim_a, dim_b, rng).matrix
            rho = (1 - eps) * cq + eps * random_density_matrix(dim_a * dim_b, rng).matrix
            r4 = np.abs(rho.reshape(dim_a, dim_b, dim_a, dim_b))
            largest = float(np.max(r4, where=off_block, initial=0.0))
            op = find_creating_operation(rho, dim_a, dim_b)
            if op is None:
                assert largest < 1e-9
                continue
            assert post_coherence(mixed_branch(rho, dim_a, dim_b, op.kraus)) >= largest

    def test_anti_hermitian_block(self):
        # X_01 = i a Z, with Z the Pauli Z in the Hadamard basis of B, has no
        # Hermitian part; the anti-Hermitian part a Z gives the projector
        # onto |+> or |->, and A the coherence 4a.
        a = 0.2
        z = HADAMARD @ np.diag([1.0, -1.0]) @ HADAMARD
        rho = np.eye(4, dtype=complex) / 4 + np.kron(E01, 1j * a * z) + np.kron(E01.T, -1j * a * z)
        op = find_creating_operation(rho, 2, 2)
        assert post_coherence(mixed_branch(rho, 2, 2, op.kraus)) == pytest.approx(4 * a, abs=1e-12)

    def test_whitening_maximizes_coherence_per_probability(self):
        # X_01 = diag(c0, c1) with c0 > c1, but B's |1> carries far less
        # probability: per unit probability |1> creates more, 2 c1 / w1.
        weights, c = np.array([0.98, 0.02]), np.array([0.02, 0.009])
        rho = np.kron(np.eye(2), np.diag(weights) / 2) + np.kron(E01 + E01.T, np.diag(c))
        op = find_creating_operation(rho, 2, 2)
        assert post_coherence(mixed_branch(rho, 2, 2, op.kraus)) == pytest.approx(2 * c[1] / weights[1], rel=1e-12)

    def test_rank_deficient_b_marginal(self):
        # B confined to a 2-dimensional subspace of C^3: whitening on the
        # support finds the same coherence as on the 2x2 state itself.
        rng = SeededRng(86, 1)
        for _ in range(20):
            rho = random_noncq_state(2, 2, rng).matrix
            v = haar_random_unitary(3, rng)[:, :2]
            embed = np.kron(np.eye(2), v)
            rho3 = DensityMatrix(embed @ rho @ embed.conj().T)
            op = find_creating_operation(rho3, 2, 3)
            beta = op.kraus[0][:, 0] / np.linalg.norm(op.kraus[0][:, 0])
            assert np.linalg.norm(v.conj().T @ beta) == pytest.approx(1.0, abs=1e-9)
            state3, _ = post_operation_state_a(rho3, op, 2, 3)
            state2, _ = post_operation_state_a(rho, find_creating_operation(rho, 2, 2), 2, 2)
            assert l1_coherence(state3) == pytest.approx(l1_coherence(state2), rel=1e-9)

    def test_nearly_block_diagonal_state_raises_with_exact_value(self):
        # rho_B = I/2; the witness is |0><0| on B and gives A exactly 4 delta.
        delta = 1e-8
        e00 = np.diag([1.0, 0.0]).astype(complex)
        rho = np.eye(4, dtype=complex) / 4 + delta * (np.kron(E01, e00) + np.kron(E01.T, e00))
        with pytest.raises(SearchExhausted) as info:
            find_creating_operation(rho, 2, 2)
        assert info.value.attempts == 1
        assert info.value.best_value == pytest.approx(4 * delta, rel=1e-6)


class TestNoSignaling:
    def test_marginal_untouched_without_postselection(self):
        rng = SeededRng(86)
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            channel = random_tp_channel(2, rng)
            before = mixed_branch(rho.matrix, 2, 2, [np.eye(2)])
            after = mixed_branch(rho.matrix, 2, 2, channel.kraus)
            assert np.max(np.abs(after - before)) < 1e-10


class TestReports:
    def test_outcome_bookkeeping(self):
        report = average_rcc(tilted(), phase_damping(0.5))
        assert len(report.outcomes) == 2
        total = sum(o.probability for o in report.outcomes)
        assert abs(total - 1.0) < 1e-9
        recomputed = sum(o.probability * o.coherence for o in report.outcomes)
        assert abs(report.average_rcc - recomputed) < 1e-12
        for record in report.outcomes:
            if record.state_a is not None:
                assert abs(record.coherence - l1_coherence(record.state_a)) < 1e-12

    def test_outcome_coherence_below_bound(self):
        report = average_rcc(tilted(), phase_damping(0.5))
        for record, bound in zip(report.outcomes, report.lemma1_bounds):
            assert record.coherence <= bound + 1e-10

    def test_zero_probability_branch_flagged(self):
        report = average_rcc(bell(), phase_damping(0.0))
        flags = [o.zero_probability for o in report.outcomes]
        assert flags == [False, True]
        assert report.outcomes[1].state_a is None
        assert report.outcomes[1].coherence == 0.0

    def test_ensemble_probabilities_sum_to_one(self):
        rng = SeededRng(87)
        psi = random_schmidt_state(2, 2, rng)
        ensemble = random_channel_ensemble(2, rng)
        report = average_rcc(psi, ensemble)
        assert abs(sum(o.probability for o in report.outcomes) - 1.0) < 1e-9

    def test_closed_form_report_fields(self):
        report = average_rcc(tilted(), phase_damping(0.5))
        assert abs(report.average_rcc - 0.3) < 1e-12
        assert abs(report.entanglement - 0.6) < 1e-12
        assert abs(report.maxent_average_rcc - 0.5) < 1e-12
        assert abs(report.factorization_ratio - 0.6) < 1e-12
        assert abs(report.theorem3_bound - 0.3) < 1e-12
        assert report.average_rcc <= report.tighter_bound + 1e-10
        assert report.tighter_bound <= report.theorem3_bound + 1e-10

    def test_ratio_absent_outside_two_qubits(self):
        rng = SeededRng(88)
        psi = random_schmidt_state(3, 3, rng)
        report = average_rcc(psi, random_tp_channel(3, rng))
        assert report.factorization_ratio is None

    def test_json_shape(self):
        report = average_rcc(tilted(), phase_damping(0.5))
        doc = report_to_json(report)
        assert set(doc) == {
            "outcomes",
            "average_rcc",
            "entanglement",
            "lemma1_bounds",
            "theorem3_bound",
            "tighter_bound",
            "maxent_average_rcc",
            "factorization_ratio",
        }
        assert doc["outcomes"][0]["state_a"]["rows"] == 2
        assert doc["average_rcc"] == report.average_rcc


# Entry points that take a whole channel get a non-channel; those that take
# one post-selected operation get an ensemble. Neither is a channel of the
# right kind, so each must raise TypeError rather than fail on a missing
# attribute.
WRONG_KIND_CALLS = {
    "average_coherence": lambda: average_coherence(tilted(), object()),
    "average_rcc": lambda: average_rcc(tilted(), object()),
    "tight_average_bound": lambda: tight_average_bound(tilted(), object()),
    "average_coherence_bound": lambda: average_coherence_bound(tilted(), object()),
    "average_coherences": lambda: rcc.average_coherences(tilted().coefficient_matrix[None], [object()]),
    "factorization_check": lambda: factorization_check(tilted(), object()),
    "post_operation_state_a": lambda: post_operation_state_a(tilted(), projective_measurement(HADAMARD)),
    "post_operation_state_a_density": lambda: post_operation_state_a(
        tilted().density(), projective_measurement(HADAMARD), 2, 2
    ),
    "outcome_coherence_bound": lambda: outcome_coherence_bound(tilted(), projective_measurement(HADAMARD)),
    "creates_coherence": lambda: creates_coherence(tilted(), projective_measurement(HADAMARD)),
}


@pytest.mark.parametrize("call", list(WRONG_KIND_CALLS))
def test_wrong_channel_kind_is_a_type_error(call):
    with pytest.raises(TypeError, match="expected KrausOperation"):
        WRONG_KIND_CALLS[call]()


# A qutrit channel on a two-qubit state, at every entry point that checks it.
QUTRIT_TP = KrausOperation([np.eye(3)])
WRONG_DIM_CALLS = {
    "average_coherence": lambda: average_coherence(tilted(), QUTRIT_TP),
    "average_rcc": lambda: average_rcc(tilted(), QUTRIT_TP),
    "tight_average_bound": lambda: tight_average_bound(tilted(), QUTRIT_TP),
    "average_coherence_bound": lambda: average_coherence_bound(tilted(), QUTRIT_TP),
    "average_coherences": lambda: rcc.average_coherences(tilted().coefficient_matrix[None], [QUTRIT_TP]),
    "post_operation_state_a": lambda: post_operation_state_a(tilted(), QUTRIT_TP),
    "post_operation_state_a_density": lambda: post_operation_state_a(tilted().density(), QUTRIT_TP, 2, 2),
    "outcome_coherence_bound": lambda: outcome_coherence_bound(tilted(), QUTRIT_TP),
    "creates_coherence": lambda: creates_coherence(tilted(), QUTRIT_TP),
}


@pytest.mark.parametrize("call", list(WRONG_DIM_CALLS))
def test_wrong_channel_dimension_has_one_message(call):
    with pytest.raises(ValueError, match="^channel dimension 3 does not match dim_b=2$"):
        WRONG_DIM_CALLS[call]()


# A two-qubit joint state offered as a qubit-qutrit one.
WRONG_SIDE_CALLS = {
    "reduced_a": lambda: reduced_a(bell().density(), 2, 3),
    "post_operation_state_a": lambda: post_operation_state_a(bell().density().matrix, QUTRIT_TP, 2, 3),
    "find_creating_operation": lambda: find_creating_operation(bell().density().matrix, 2, 3),
    "is_incoherent_quantum": lambda: is_incoherent_quantum(bell().density(), 2, 3),
}


@pytest.mark.parametrize("call", list(WRONG_SIDE_CALLS))
def test_wrong_joint_side_has_one_message(call):
    with pytest.raises(ValueError, match=r"^operator side \(4, 4\) does not match dim_a\*dim_b = 6$"):
        WRONG_SIDE_CALLS[call]()
