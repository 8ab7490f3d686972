import numpy as np
import pytest

from rcc_lab import channels
from rcc_lab.channels import (
    CREATION_ATOL,
    ChannelEnsemble,
    KrausOperation,
    bit_flip,
    bit_phase_flip,
    branch_stacks,
    channel_branches,
    channel_from_json,
    creates_coherence,
    creation_witnesses,
    depolarizing,
    ensemble_from_json,
    ensemble_to_json,
    identity_deviation,
    inert_operation,
    is_trace_preserving,
    kraus_operation_from_json,
    kraus_operation_to_json,
    phase_damping,
    phase_flip,
    projective_measurement,
)
from rcc_lab.coherence import l1_coherence
from rcc_lab.errors import NotTracePreserving, PremiseViolated
from rcc_lab.linalg import SeededRng, haar_random_unitary
from rcc_lab.rcc import post_operation_state_a
from rcc_lab.sampling import (
    kraus_operation_from_parts,
    random_channel_ensemble,
    random_kraus_operation,
    random_schmidt_state,
    random_tp_channel,
    summary_operators_from_parts,
)
from rcc_lab.states import BipartitePureState

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def bell():
    return BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def hadamard_correlated():
    # (|0>|+> + |1>|->)/sqrt(2)
    return BipartitePureState.from_schmidt([0.5, 0.5], HADAMARD)


class TestKrausOperation:
    def test_unitary_summary_is_identity(self):
        u = haar_random_unitary(3, SeededRng(61))
        np.testing.assert_allclose(KrausOperation([u]).n_operator(), np.eye(3), atol=1e-12)

    def test_phase_damping_summary(self):
        np.testing.assert_allclose(phase_damping(0.3).n_operator(), np.eye(2), atol=1e-12)

    def test_single_branch_summary(self):
        # F1^dagger F1 = diag(1, 1-r) by hand
        r = 0.3
        branch = KrausOperation([phase_damping(r).kraus[0]])
        np.testing.assert_allclose(branch.n_operator(), np.diag([1.0, 1.0 - r]), atol=1e-12)

    def test_rejects_oversized_summary(self):
        with pytest.raises(ValueError, match="N <= I"):
            KrausOperation([np.sqrt(2.0) * np.eye(2)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kraus", [[np.diag([1e160, 0.0])], [np.diag([1e160, 0.0]), np.array([[0.0, -1e160], [1e160, 0.0]])]])
    def test_rejects_an_overflowing_summary(self, kraus):
        # Finite entries whose F^dagger F overflows give a NaN or infinite N,
        # which an eigenvalue comparison alone lets through; no warning escapes.
        with pytest.raises(ValueError, match="summary operator holds a non-finite entry"):
            KrausOperation(kraus)
        with pytest.raises(ValueError, match="summary operator holds a non-finite entry"):
            branch_stacks(np.array([kraus, kraus], dtype=complex))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            KrausOperation([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausOperation([])

    def test_branch_stack(self):
        op = phase_damping(0.5)
        stack = op.branch_n_stack()
        assert stack.shape == (2, 2, 2)
        np.testing.assert_allclose(stack.sum(axis=0), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("dim, count", [(3, 1), (3, 2), (3, 3), (3, 9), (1, 9), (1, 17)])
    def test_summary_adds_the_branches_in_order(self, dim, count):
        # N comes from the stack built once at construction, and equals, bit
        # for bit, the branches F^dagger F added one after another (a numpy
        # sum over the stack adds 1x1 branches pairwise, in another order).
        # So does channels.branch_stacks on stacked, zero-padded sets, and
        # with it the stacked builder's row.
        g = np.random.default_rng(count)
        mats = g.standard_normal((count, dim, dim)) + 1j * g.standard_normal((count, dim, dim))
        mats /= np.sqrt(np.linalg.eigvalsh(sum(f.conj().T @ f for f in mats)).max() * (1 + 1e-12))
        op = KrausOperation(list(mats))
        total = np.zeros((dim, dim), dtype=complex)
        for f in mats:
            total += f.conj().T @ f
        assert np.array_equal(op.branch_n_stack(), np.stack([f.conj().T @ f for f in mats]))
        assert np.array_equal(op.n_operator(), (total + total.conj().T) / 2)
        assert identity_deviation(op.branch_n_stack()[None]) == float(np.max(np.abs(total - np.eye(dim))))
        trailing = np.concatenate([mats, np.zeros_like(mats[1:])])
        interleaved = np.stack([mats, np.zeros_like(mats)], axis=1).reshape(-1, dim, dim)[:-1]
        stack, n = branch_stacks(np.stack([trailing, interleaved]))
        assert np.array_equal(stack[0, :count], op.branch_n_stack()) and np.array_equal(n, [op.n_operator()] * 2)
        rows = np.stack([mats, mats])
        summaries = summary_operators_from_parts(rows)
        assert np.array_equal(summaries, [kraus_operation_from_parts([count] * 2, rows, 1).n_operator()] * 2)

    def test_stacks_are_read_only(self):
        op = phase_damping(0.5)
        ensemble = projective_measurement(HADAMARD)
        for arr in (op.branch_n_stack(), op.n_operator(), ensemble.branch_n_stack(), *op.kraus):
            assert not arr.flags.writeable


class TestChannelBranches:
    def test_whole_channels(self):
        op = phase_damping(0.5)
        ensemble = projective_measurement(HADAMARD)
        assert channel_branches(op, 2)[0] is op.branch_n_stack()
        assert channel_branches(ensemble, 2)[0] is ensemble.branch_n_stack()

    def test_post_selected_operation_is_one_branch(self):
        op = KrausOperation([np.diag([1.0, 0.5])])
        stack, factors = channel_branches(op, 2, post_selected=True)
        assert stack.shape == (1, 2, 2)
        assert np.array_equal(stack[0], op.n_operator())
        assert np.array_equal(factors, [op.kraus])

    @pytest.mark.parametrize("post_selected", [False, True])
    def test_wrong_kind_then_wrong_dimension(self, post_selected):
        with pytest.raises(TypeError, match="expected KrausOperation"):
            channel_branches(np.eye(2), 3, post_selected=post_selected)
        with pytest.raises(ValueError, match="channel dimension 2 does not match dim_b=3"):
            channel_branches(phase_damping(0.5), 3, post_selected=post_selected)

    def test_ensemble_is_not_one_outcome(self):
        with pytest.raises(TypeError, match="expected KrausOperation, got ChannelEnsemble"):
            channel_branches(projective_measurement(HADAMARD), 2, post_selected=True)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_factors_rebuild_the_stack(self, dim):
        # branch_stacks of the factors gives back the stack bit for bit: the per-Kraus
        # branches of a whole operation, N of a post-selected one and of each member.
        rng = SeededRng(20261019, dim)
        unequal = 0
        for _ in range(50):
            op = random_tp_channel(dim, rng)
            stack, factors = channel_branches(op, dim)
            assert factors.shape == (len(op.kraus), 1, dim, dim)
            assert np.array_equal(factors[:, 0], op.kraus)
            assert np.array_equal(branch_stacks(factors)[0][:, 0], stack)
            op = random_kraus_operation(dim, rng)
            stack, factors = channel_branches(op, dim, post_selected=True)
            assert factors.shape == (1, len(op.kraus), dim, dim)
            assert np.array_equal(factors[0], op.kraus)
            assert np.array_equal(branch_stacks(factors)[1], stack)
            ensemble = random_channel_ensemble(dim, rng)
            counts = [len(member.kraus) for member in ensemble.operations]
            stack, factors = channel_branches(ensemble, dim)
            assert factors.shape == (len(counts), max(counts), dim, dim)
            for member, count, padded in zip(ensemble.operations, counts, factors):
                assert np.array_equal(padded[:count], member.kraus) and not padded[count:].any()
            assert np.array_equal(branch_stacks(factors)[1], stack)
            unequal += len(set(counts)) > 1
        assert unequal > 0


class TestIdentityDeviation:
    def test_stacked_wholes(self):
        stacks = np.stack([phase_damping(0.5).branch_n_stack(), 0.5 * phase_damping(0.2).branch_n_stack()])
        assert identity_deviation(stacks[:1]) < 1e-15
        assert abs(identity_deviation(stacks) - 0.5) < 1e-15

    def test_empty_stack_of_wholes(self):
        assert identity_deviation(np.zeros((0, 2, 2, 2))) == 0.0

    def test_deviations_of_channel_stacks(self):
        assert identity_deviation(phase_damping(0.3).branch_n_stack()) < 1e-15
        assert abs(identity_deviation(KrausOperation([np.sqrt(0.3) * np.eye(2)]).branch_n_stack()) - 0.7) < 1e-15
        assert identity_deviation(projective_measurement(HADAMARD).branch_n_stack()) < 1e-15


class TestTracePreservation:
    def test_phase_damping_is_tp(self):
        assert is_trace_preserving(phase_damping(0.7))

    def test_lone_projector_is_not(self):
        proj = KrausOperation([np.outer(HADAMARD[:, 0], HADAMARD[:, 0].conj())])
        assert not is_trace_preserving(proj)

    def test_scaled_identity_is_not(self):
        assert not is_trace_preserving(KrausOperation([np.sqrt(0.3) * np.eye(2)]))

    def test_ensembles_are(self):
        assert is_trace_preserving(projective_measurement(HADAMARD))


class TestStandardConstructors:
    @pytest.mark.parametrize(
        "factory", [phase_damping, depolarizing, bit_flip, phase_flip, bit_phase_flip]
    )
    def test_rejects_out_of_range(self, factory):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            factory(1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            factory(-0.1)

    @pytest.mark.parametrize(
        "factory", [phase_damping, depolarizing, bit_flip, phase_flip, bit_phase_flip]
    )
    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_full_sets_are_trace_preserving(self, factory, p):
        assert is_trace_preserving(factory(p))

    def test_phase_damping_zero(self):
        op = phase_damping(0.0)
        np.testing.assert_allclose(op.kraus[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(op.kraus[1], np.zeros((2, 2)), atol=1e-15)

    def test_flip_branches_proportional_to_identity(self):
        # X^dagger X = I by hand; same for Y, Z and the depolarizing set
        for op, p in ((bit_flip(0.3), 0.3), (phase_flip(0.4), 0.4), (bit_phase_flip(0.2), 0.2)):
            stack = op.branch_n_stack()
            np.testing.assert_allclose(stack[0], (1 - p) * np.eye(2), atol=1e-12)
            np.testing.assert_allclose(stack[1], p * np.eye(2), atol=1e-12)
        for branch in depolarizing(0.6).branch_n_stack():
            off = branch - branch[0, 0] * np.eye(2)
            assert np.max(np.abs(off)) < 1e-12

    def test_projective_measurement_members(self):
        ensemble = projective_measurement(HADAMARD)
        assert len(ensemble.operations) == 2
        total = sum(op.n_operator() for op in ensemble.operations)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_projective_measurement_rejects_a_non_square_basis(self):
        with pytest.raises(ValueError, match=r"^basis must be square, got shape \(2, 1\)$"):
            projective_measurement(HADAMARD[:, :1])

    def test_projective_measurement_rejects_skewed_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            projective_measurement(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_projective_measurement_rejects_an_overflowing_basis(self):
        # Its Gram matrix is NaN, which a plain `dev > atol` lets through.
        basis = HADAMARD.copy()
        basis[1, 1] = 1e160 + 1e160j
        with pytest.raises(ValueError, match="^basis columns deviate from orthonormal by nan$"):
            projective_measurement(basis)


class TestChannelEnsemble:
    def test_sum_to_identity_enforced(self):
        half = KrausOperation([np.sqrt(0.5) * np.eye(2)])
        with pytest.raises(NotTracePreserving, match="identity"):
            ChannelEnsemble([half])
        ChannelEnsemble([half, half])  # together they are a channel

    def test_rejects_no_members(self):
        with pytest.raises(ValueError, match="^ensemble needs at least one operation$"):
            ChannelEnsemble([])

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_a_member_that_is_not_an_operation(self, first):
        members = [np.eye(2), KrausOperation([np.eye(2)])]
        with pytest.raises(TypeError, match="^ensemble members must be KrausOperation values$"):
            ChannelEnsemble(members if first else members[::-1])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ChannelEnsemble([KrausOperation([np.eye(2)]), KrausOperation([np.eye(3)])])

    def test_rejects_a_deviation_equal_to_the_tolerance(self, monkeypatch):
        # Averaging rejects identity_deviation >= VALIDITY_ATOL; an ensemble
        # it would reject must not be built.
        members = projective_measurement(haar_random_unitary(2, SeededRng(67))).operations
        dev = identity_deviation(np.array([op.n_operator() for op in members]))
        assert dev > 0.0
        monkeypatch.setattr(channels, "VALIDITY_ATOL", dev)
        with pytest.raises(NotTracePreserving):
            ChannelEnsemble(members)
        monkeypatch.setattr(channels, "VALIDITY_ATOL", np.nextafter(dev, np.inf))
        ChannelEnsemble(members)


class TestCreatesCoherence:
    def test_identity_summary_never_creates(self):
        created, witness = creates_coherence(bell(), phase_damping(0.5))
        assert created is False and witness is None

    def test_diagonal_summary_on_bell_is_inert(self):
        # Bell's Schmidt B-basis is computational, and diagonal operators
        # commute with diagonal blocks.
        branch = KrausOperation([phase_damping(0.5).kraus[0]])
        created, witness = creates_coherence(bell(), branch)
        assert created is False and witness is None

    def test_hand_computed_witness(self):
        # [diag(1, 1-r), |+><+|/2] has off-diagonal entry r/4
        branch = KrausOperation([phase_damping(0.5).kraus[0]])
        created, witness = creates_coherence(hadamard_correlated(), branch)
        assert created is True and witness == 0

    @pytest.mark.parametrize("scale, created", [(1 - 1e-3, False), (1 + 1e-3, True)])
    def test_bracket_norm_threshold_is_creation_atol(self, scale, created):
        # On Bell, N = [[1/2, c], [c, 1/2]] and the row-0 block diag(1/2, 0)
        # have a bracket of Frobenius norm |c|/sqrt(2): just under
        # CREATION_ATOL the operation is inert, just over it row 0 creates.
        c = np.sqrt(2) * CREATION_ATOL * scale
        n = np.array([[0.5, c], [c, 0.5]], dtype=complex)
        witness = 0 if created else -1
        assert creation_witnesses(bell().coefficient_matrix[None], n[None]).tolist() == [witness]
        values, vectors = np.linalg.eigh(n)
        op = KrausOperation([(vectors * np.sqrt(values)) @ vectors.conj().T])
        assert creates_coherence(bell(), op) == ((True, 0) if created else (False, None))

    def test_premise_enforced(self):
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        with pytest.raises(PremiseViolated, match="marginal"):
            creates_coherence(coherent, phase_damping(0.5))

    def test_agrees_with_direct_computation(self):
        rng = SeededRng(62)
        for dim_b in (2, 3):
            for _ in range(300):
                psi = random_schmidt_state(2, dim_b, rng)
                op = random_kraus_operation(dim_b, rng)
                state_a, _ = post_operation_state_a(psi, op)
                achieved = l1_coherence(state_a)
                if 1e-9 <= achieved <= 1e-6:
                    continue
                predicted, _ = creates_coherence(psi, op)
                assert predicted == (achieved > 1e-6)

    def test_n_outside_the_support_of_b_is_ignored(self):
        # With beta = e0, e1 in C^3, N = |v><v| for v = (e0 + e2)/sqrt(2)
        # fails to commute with |e0><e0| through the e2 direction only, which
        # psi never populates: <beta_1| N |beta_0> = 0, so nothing is created.
        psi = BipartitePureState.from_schmidt([0.7, 0.3], np.eye(3)[:, :2])
        v = np.array([1, 0, 1]) / np.sqrt(2)
        op = KrausOperation([np.outer(v, v)])
        state_a, _ = post_operation_state_a(psi, op)
        assert l1_coherence(state_a) == 0.0
        assert creates_coherence(psi, op) == (False, None)


class TestInertOperation:
    def test_all_ones_is_identity(self):
        op = inert_operation(bell(), [1.0, 1.0])
        np.testing.assert_allclose(op.kraus[0], np.eye(2), atol=1e-12)

    def test_bell_diagonal_summary(self):
        op = inert_operation(bell(), [1.0, 0.3])
        np.testing.assert_allclose(op.n_operator(), np.diag([1.0, 0.3]), atol=1e-12)
        state_a, _ = post_operation_state_a(bell(), op)
        assert l1_coherence(state_a) < 1e-9

    def test_uniform_values_give_scaled_identity(self):
        psi = random_schmidt_state(2, 2, SeededRng(63))
        op = inert_operation(psi, [0.4, 0.4])
        np.testing.assert_allclose(op.n_operator(), 0.4 * np.eye(2), atol=1e-12)

    def test_never_creates(self):
        rng = SeededRng(64)
        for _ in range(100):
            psi = random_schmidt_state(2, 3, rng)
            values = rng.generator.random(3)
            op = inert_operation(psi, values)
            created, _ = creates_coherence(psi, op)
            assert created is False
            state_a, _ = post_operation_state_a(psi, op)
            assert l1_coherence(state_a) < 1e-9

    def test_equal_and_near_equal_weights_never_create(self):
        # At (near-)equal weights an SVD may rotate the Schmidt pairs; the
        # basis must stay paired with A's computational basis.
        rng = SeededRng(66)
        for d in (2, 3, 4):
            for dim_b in (d, d + 1):
                for gap in (0.0, 1e-14, 1e-12):
                    for _ in range(10):
                        weights = np.full(d, 1.0 / d)
                        weights[0] += gap
                        weights[1] -= gap
                        basis = haar_random_unitary(dim_b, rng)[:, :d]
                        psi = BipartitePureState.from_schmidt(weights, basis)
                        op = inert_operation(psi, rng.generator.random(dim_b))
                        created, _ = creates_coherence(psi, op)
                        assert created is False
                        state_a, _ = post_operation_state_a(psi, op)
                        assert l1_coherence(state_a) < 1e-9

    def test_values_follow_descending_weight(self):
        psi = BipartitePureState.from_schmidt([0.3, 0.7], np.eye(2))
        op = inert_operation(psi, [1.0, 0.2])
        np.testing.assert_allclose(op.n_operator(), np.diag([0.2, 1.0]), atol=1e-12)

    def test_premise_enforced(self):
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        with pytest.raises(PremiseViolated, match="marginal"):
            inert_operation(coherent, [1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            inert_operation(bell(), [1.0, 1.2])

    def test_requires_rank_many_values(self):
        with pytest.raises(ValueError, match="rank"):
            inert_operation(bell(), [1.0])

    def test_rejects_too_many_values(self):
        with pytest.raises(ValueError, match="dim_b"):
            inert_operation(bell(), [1.0, 1.0, 1.0])


class TestRandomKrausSampling:
    def test_summary_spectrum(self):
        rng = SeededRng(65)
        for _ in range(100):
            op = random_kraus_operation(3, rng)
            evals = np.linalg.eigvalsh(op.n_operator())
            assert evals.min() > -1e-9
            assert abs(evals.max() - 1.0) < 1e-9


class TestChannelJson:
    def test_operation_roundtrip(self):
        op = phase_damping(0.35)
        back = kraus_operation_from_json(kraus_operation_to_json(op))
        assert back.label == op.label
        for f, g in zip(back.kraus, op.kraus):
            np.testing.assert_array_equal(f, g)

    def test_ensemble_roundtrip(self):
        ensemble = projective_measurement(HADAMARD)
        back = ensemble_from_json(ensemble_to_json(ensemble))
        assert len(back.operations) == 2
        np.testing.assert_array_equal(back.operations[0].kraus[0], ensemble.operations[0].kraus[0])

    def test_channel_from_json_dispatch(self):
        assert isinstance(channel_from_json(kraus_operation_to_json(bit_flip(0.2))), KrausOperation)
        assert isinstance(
            channel_from_json(ensemble_to_json(projective_measurement(HADAMARD))), ChannelEnsemble
        )

    def test_shape_mismatch_named(self):
        obj = kraus_operation_to_json(phase_damping(0.5))
        obj["dim_b"] = 3
        with pytest.raises(ValueError, match="kraus\\[0\\]"):
            kraus_operation_from_json(obj)
