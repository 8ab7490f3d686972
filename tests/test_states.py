import numpy as np
import pytest

from rcc_lab import linalg, states
from rcc_lab.errors import BadTrace, NotHermitian, NotPositive
from rcc_lab.linalg import (
    SeededRng,
    as_complex_matrix,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    random_pure_state,
)
from rcc_lab.states import (
    BipartitePureState,
    DensityMatrix,
    concurrence,
    joint_matrix,
    reduced_a,
    schmidt_coefficients,
    schmidt_decompose,
    state_from_json,
    state_to_json,
    unit_amplitudes,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def bell():
    return BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def zero_plus():
    return BipartitePureState(2, 2, np.array([1, 1, 0, 0]) / np.sqrt(2))


def tilted():
    # sqrt(0.9)|0>|+> + sqrt(0.1)|1>|->
    return BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)


class TestConstruction:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            BipartitePureState(2, 2, [1, 0, 0])

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            BipartitePureState(2, 2, [1, 0, 0, 1])

    def test_renormalizes_tiny_drift(self):
        amp = np.array([1, 0, 0, 1]) / np.sqrt(2) * (1 + 4e-10)
        psi = BipartitePureState(2, 2, amp)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_amplitudes_read_only(self):
        psi = bell()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_from_schmidt_rejects_skewed_basis(self):
        skew = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            BipartitePureState.from_schmidt([0.5, 0.5], skew)

    def test_from_schmidt_normalizes_weights(self):
        psi = BipartitePureState.from_schmidt([9.0, 1.0], HADAMARD)
        np.testing.assert_allclose(schmidt_decompose(psi).weights, [0.9, 0.1], atol=1e-12)


class TestSchmidt:
    def test_bell(self):
        form = schmidt_decompose(bell())
        np.testing.assert_allclose(form.weights, [0.5, 0.5], atol=1e-12)
        assert form.rank == 2
        np.testing.assert_allclose(form.basis_a, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(form.basis_b, np.eye(2), atol=1e-12)

    def test_product_state(self):
        form = schmidt_decompose(zero_plus())
        assert form.rank == 1
        np.testing.assert_allclose(form.weights, [1.0], atol=1e-12)

    def test_hand_solved_orthogonal_rows(self):
        form = schmidt_decompose(tilted())
        np.testing.assert_allclose(form.weights, [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(form.basis_b[:, 0], HADAMARD[:, 0], atol=1e-12)
        np.testing.assert_allclose(form.basis_b[:, 1], HADAMARD[:, 1], atol=1e-12)

    def test_descending_weights(self):
        psi = BipartitePureState.from_schmidt([0.1, 0.3, 0.6], np.eye(3))
        np.testing.assert_allclose(schmidt_decompose(psi).weights, [0.6, 0.3, 0.1], atol=1e-12)
        rng = SeededRng(45)
        for _ in range(100):
            weights = schmidt_decompose(BipartitePureState(3, 4, random_pure_state(12, rng))).weights
            assert np.all(np.diff(weights) <= 0)

    def test_phase_gauge(self):
        # Each A-side column's largest-modulus entry is real positive.
        rng = SeededRng(15)
        for dim_a, dim_b in ((4, 4), (2, 4), (4, 2)):
            form = schmidt_decompose(BipartitePureState(dim_a, dim_b, random_pure_state(dim_a * dim_b, rng)))
            for k in range(form.rank):
                top = form.basis_a[np.argmax(np.abs(form.basis_a[:, k])), k]
                assert abs(top.imag) < 1e-12 and top.real > 0

    def test_deterministic(self):
        psi = BipartitePureState(3, 3, random_pure_state(9, SeededRng(16)))
        first, second = schmidt_decompose(psi), schmidt_decompose(psi)
        assert first.rank == second.rank
        for name in ("weights", "basis_a", "basis_b"):
            a, b = getattr(first, name), getattr(second, name)
            np.testing.assert_array_equal(a, b)
            assert not a.flags.writeable

    def test_reconstruction_sweep(self):
        rng = SeededRng(41)
        for dim_a, dim_b in ((2, 2), (2, 4), (4, 4)):
            for _ in range(10_000):
                psi = BipartitePureState(dim_a, dim_b, random_pure_state(dim_a * dim_b, rng))
                form = schmidt_decompose(psi)
                assert abs(form.weights.sum() - 1.0) < 1e-9
                rebuilt = np.zeros(dim_a * dim_b, dtype=complex)
                for k in range(form.rank):
                    rebuilt += np.sqrt(form.weights[k]) * np.kron(
                        form.basis_a[:, k], form.basis_b[:, k]
                    )
                assert np.linalg.norm(rebuilt - psi.amplitudes) < 1e-9

    def test_basis_b_orthonormal(self):
        rng = SeededRng(42)
        psi = BipartitePureState(3, 3, random_pure_state(9, rng))
        form = schmidt_decompose(psi)
        gram = form.basis_b.conj().T @ form.basis_b
        np.testing.assert_allclose(gram, np.eye(form.rank), atol=1e-10)

    def test_basis_a_orthonormal(self):
        rng = SeededRng(17)
        for dim_a, dim_b in ((2, 2), (3, 5), (5, 5), (8, 8), (16, 16)):
            form = schmidt_decompose(BipartitePureState(dim_a, dim_b, random_pure_state(dim_a * dim_b, rng)))
            np.testing.assert_allclose(form.basis_a.conj().T @ form.basis_a, np.eye(form.rank), atol=1e-10)


class TestConcurrence:
    def test_bell_is_maximal(self):
        assert abs(concurrence(bell()) - 1.0) < 1e-9

    def test_product_is_zero(self):
        assert concurrence(zero_plus()) < 1e-9

    def test_hand_value(self):
        # 2 sqrt(w0 w1) = 2 sqrt(0.09) = 0.6
        assert abs(concurrence(tilted()) - 0.6) < 1e-12

    def test_matches_schmidt_weight_route(self):
        rng = SeededRng(43)
        for _ in range(200):
            psi = BipartitePureState(2, 4, random_pure_state(8, rng))
            w = schmidt_decompose(psi).weights
            via_weights = np.sqrt(max(0.0, 2.0 * (1.0 - np.sum(w**2))))
            assert abs(concurrence(psi) - via_weights) < 1e-10

    def test_local_unitary_invariance(self):
        rng = SeededRng(44)
        for _ in range(100):
            psi = BipartitePureState(2, 2, random_pure_state(4, rng))
            u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            rotated = BipartitePureState(2, 2, u @ psi.amplitudes)
            assert abs(concurrence(psi) - concurrence(rotated)) < 1e-9

    def test_range_bound(self):
        rng = SeededRng(45)
        for dim in (2, 3, 4):
            cap = np.sqrt(2.0 * (dim - 1) / dim)
            for _ in range(100):
                psi = BipartitePureState(dim, dim, random_pure_state(dim * dim, rng))
                assert 0.0 <= concurrence(psi) <= cap + 1e-12


class TestReducedA:
    def test_bell(self):
        np.testing.assert_allclose(reduced_a(bell()).matrix, np.eye(2) / 2, atol=1e-12)

    def test_product(self):
        expect = np.array([[1, 0], [0, 0]], dtype=complex)
        np.testing.assert_allclose(reduced_a(zero_plus()).matrix, expect, atol=1e-12)

    def test_orthogonal_b_components_kill_offdiagonals(self):
        np.testing.assert_allclose(reduced_a(tilted()).matrix, np.diag([0.9, 0.1]), atol=1e-12)

    def test_density_input_needs_dims(self):
        rho = bell().density()
        with pytest.raises(ValueError, match="dim_a and dim_b"):
            reduced_a(rho)
        np.testing.assert_allclose(reduced_a(rho, 2, 2).matrix, np.eye(2) / 2, atol=1e-12)

    def test_raw_input_validates_only_the_marginal(self):
        rho = bell().density().matrix
        np.testing.assert_allclose(reduced_a(rho.tolist(), 2, 2).matrix, np.eye(2) / 2, atol=1e-12)
        with pytest.raises(BadTrace):
            reduced_a(2 * rho, 2, 2)

    def test_marginal_offdiag(self):
        assert states.marginal_offdiag(tilted().coefficient_matrix) < 1e-12
        coherent = zero_plus()
        rotated = BipartitePureState(
            2, 2, np.kron(HADAMARD, np.eye(2)) @ coherent.amplitudes
        )
        assert states.marginal_offdiag(rotated.coefficient_matrix) > 0.1


class TestJointMatrix:
    def test_density_and_raw_inputs(self):
        rho = bell().density()
        assert joint_matrix(rho, 2, 2) is rho.matrix
        np.testing.assert_array_equal(joint_matrix(rho.matrix.tolist(), 2, 2), rho.matrix)

    def test_raw_input_is_not_validated(self):
        np.testing.assert_array_equal(joint_matrix(-np.eye(4), 2, 2), -np.eye(4))

    @pytest.mark.parametrize("dims", [(None, 2), (2, None)])
    def test_missing_dimension(self, dims):
        with pytest.raises(ValueError, match="dim_a and dim_b are required"):
            joint_matrix(bell().density(), *dims)

    def test_side_mismatch_names_the_shape(self):
        with pytest.raises(ValueError, match=r"operator side \(4, 4\) does not match dim_a\*dim_b = 6"):
            joint_matrix(np.eye(4), 2, 3)

    def test_non_square_input_gets_the_density_matrix_message(self):
        with pytest.raises(ValueError, match=r"density matrix must be square, got shape \(6, 4\)"):
            joint_matrix(np.ones((6, 4)), 2, 3)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.dim == 2

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_hand_computed_indefinite(self):
        # eigenvalues 1.1 and -0.1
        with pytest.raises(NotPositive, match="-1.000e-01"):
            DensityMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(BadTrace):
            DensityMatrix(np.diag([0.6, 0.3]))

    def test_renormalizes_tiny_trace_drift(self):
        dm = DensityMatrix(np.diag([0.5 + 4e-10, 0.5]))
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-15

    def test_matrix_read_only(self):
        dm = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0


class TestStateJson:
    def test_roundtrip_bit_exact(self):
        psi = tilted()
        back = state_from_json(state_to_json(psi))
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
        assert (back.dim_a, back.dim_b) == (2, 2)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="'amplitudes'"):
            state_from_json({"dim_a": 2, "dim_b": 2})

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="amplitudes"):
            state_from_json({"dim_a": 2, "dim_b": 2, "amplitudes": [[1.0, 0.0]]})


NON_FINITE = [np.nan, np.inf, -np.inf]


def with_entry(m, bad):
    out = np.array(m, dtype=complex)
    out.flat[-1] = bad
    return out


class TestNonFiniteEntries:
    # One rule, linalg.require_finite, behind every entry point; the message
    # names the field.
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_as_complex_matrix(self, bad):
        with pytest.raises(ValueError, match="^matrix holds a non-finite entry$"):
            as_complex_matrix(with_entry(np.eye(2), bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_matrix_from_json(self, bad):
        obj = matrix_to_json(np.eye(2))
        obj["entries"][3] = [0.0, bad]
        with pytest.raises(ValueError, match="^field 'entries' holds a non-finite entry$"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_schmidt_coefficients(self, bad):
        # Also in a column beyond the weights, which the result ignores.
        basis = with_entry(np.eye(3), bad)
        with pytest.raises(ValueError, match="^basis_b holds a non-finite entry$"):
            schmidt_coefficients(np.array([0.5, 0.5]), basis)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_unit_amplitudes(self, bad):
        with pytest.raises(ValueError, match="^amplitudes holds a non-finite entry$"):
            unit_amplitudes(with_entry(np.eye(2)[:1] * np.ones((2, 1)), bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_from_schmidt(self, bad):
        with pytest.raises(ValueError, match="^basis_b holds a non-finite entry$"):
            BipartitePureState.from_schmidt([0.5, 0.5], with_entry(HADAMARD, bad))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_entries_are_rejected_without_a_warning(self):
        # Finite entries whose squares overflow: the norm is infinite and the
        # Gram matrix NaN, and both fail their check.
        with pytest.raises(ValueError, match="^amplitude norm inf deviates from 1"):
            BipartitePureState(2, 2, [1e160, 0, 0, 0])
        basis = HADAMARD.copy()
        basis[1, 1] = 1e160 + 1e160j
        with pytest.raises(ValueError, match="^basis columns deviate from orthonormal by nan$"):
            BipartitePureState.from_schmidt([0.5, 0.5], basis)

    def test_from_schmidt_checks_each_input_once(self, monkeypatch):
        checked, require_finite = [], linalg.require_finite

        def recording(arr, what):
            checked.append(what)
            return require_finite(arr, what)

        monkeypatch.setattr(states, "require_finite", recording)
        monkeypatch.setattr(linalg, "require_finite", recording)
        BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)
        assert checked == ["basis_b", "amplitudes"]
        with pytest.raises(ValueError, match="basis_b: expected a 2-D matrix"):
            BipartitePureState.from_schmidt([0.5, 0.5], HADAMARD[0])
