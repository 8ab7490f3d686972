import inspect
import json
import re

import numpy as np
import pytest

from rcc_lab import linalg, sampling, states
from rcc_lab.channels import KrausOperation
from rcc_lab.coherence import is_incoherent_quantum
from rcc_lab.errors import BadTrace, NotHermitian, NotPositive, PremiseViolated
from rcc_lab.linalg import (
    SeededRng,
    as_complex_matrix,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    random_pure_state,
)
from rcc_lab.rcc import post_operation_state_a
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
                # sum_k sqrt(w_k) a_k b_k^T is the coefficient matrix, whose rows flatten to sum_k sqrt(w_k) a_k (x) b_k.
                rebuilt = (form.basis_a * np.sqrt(form.weights)) @ form.basis_b.T
                assert np.linalg.norm(rebuilt.reshape(-1) - psi.amplitudes) < 1e-9

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
        # The premise pass checks, and returns, A's marginal W W^dagger.
        rho_a = states.require_premises(tilted().coefficient_matrix[None])[0]
        assert np.abs(rho_a - np.diag(rho_a.diagonal())).max() < 1e-12
        coherent = zero_plus()
        rotated = BipartitePureState(
            2, 2, np.kron(HADAMARD, np.eye(2)) @ coherent.amplitudes
        )
        with pytest.raises(PremiseViolated, match="off-diagonal weight 5.000e-01;"):
            states.require_premises(rotated.coefficient_matrix[None])


class TestPremisePass:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 5)])
    def test_returns_the_marginals_it_checked(self, dims):
        # Diagonal marginals: coefficient matrices with one nonzero entry per column, stacked on two leading axes.
        dim_a, dim_b = dims
        g = SeededRng(46, dim_a).generator
        w = g.standard_normal((3, 5, dim_a, dim_b)) + 1j * g.standard_normal((3, 5, dim_a, dim_b))
        w *= np.arange(dim_b) % dim_a == np.arange(dim_a)[:, None]
        rho_a = states.require_premises(w)
        assert rho_a.tobytes() == (w @ w.conj().swapaxes(-1, -2)).tobytes()

    def test_violation_message(self):
        rotated = np.kron(HADAMARD, np.eye(2)) @ zero_plus().amplitudes
        message = (
            "^subsystem A starts with off-diagonal weight 5.000e-01; "
            "claims 2-5 are stated for a diagonal A-marginal only$"
        )
        with pytest.raises(PremiseViolated, match=message):
            states.require_premises(rotated.reshape(1, 2, 2))

    @pytest.mark.parametrize(
        "w, expected",
        [
            # An infinite diagonal entry is dropped, not multiplied by zero into NaN: the finite
            # off-diagonal weight still fails the check.
            ([[1e200, 0], [1, 1]], "1.000e+200"),
            ([[1e200, 1e200], [1e200, 1e200]], "inf"),
            ([[1e200, 0], [0, 1]], None),
        ],
    )
    def test_infinite_diagonal(self, w, expected):
        w = np.array([w], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            if expected is None:
                rho_a = states.require_premises(w)
                assert rho_a[0, 0, 1] == rho_a[0, 1, 0] == 0.0
            else:
                with pytest.raises(PremiseViolated, match=re.escape(f"off-diagonal weight {expected};")):
                    states.require_premises(w)


class TestUnitAmplitudes:
    @pytest.mark.parametrize(
        "amp, message",
        [
            ([1.1, 0], "amplitude norm 1.1 deviates from 1 beyond 1e-09"),
            ([[1.02, 0], [0, 0.95], [1, 0]], "amplitude norm 0.95 deviates from 1 beyond 1e-09"),
            ([[1, 0], [0, 1.1]], "amplitude norm 1.1 deviates from 1 beyond 1e-09"),
            # A finite entry whose square would overflow lies above linalg.ENTRY_BOUND, and no warning escapes.
            ([1e160, 0], "amplitudes holds an entry of modulus 1.000e+160, above 2.0"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_reports_the_worst_norm(self, amp, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unit_amplitudes(np.array(amp, dtype=complex))

    def test_pure_state_keeps_no_view_of_its_input(self):
        amp = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        psi, twin = BipartitePureState(2, 2, amp), BipartitePureState(2, 2, amp.copy())
        amp[0] = 1.0
        np.testing.assert_array_equal(psi.amplitudes, twin.amplitudes)
        assert not psi.amplitudes.flags.writeable


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


# Public routes that check a dimension, each called with its dimensions by their argument names; the joint
# operators are a Bell state's, the random samplers draw from one fixed stream.
DIMENSION_ROUTES = {
    "BipartitePureState": lambda dim_a, dim_b: BipartitePureState(dim_a, dim_b, np.array([1, 0, 0, 1]) / np.sqrt(2)),
    "post_operation_state_a": lambda dim_a, dim_b: post_operation_state_a(
        bell().density(), KrausOperation([np.diag([1.0, 0.0])]), dim_a, dim_b
    ),
    "reduced_a": lambda dim_a, dim_b: reduced_a(bell().density(), dim_a, dim_b),
    "is_incoherent_quantum": lambda dim_a, dim_b: is_incoherent_quantum(bell().density().matrix, dim_a, dim_b),
    "partial_trace": lambda dim_a, dim_b: linalg.partial_trace(bell().density().matrix, dim_a, dim_b),
    "haar_random_unitary": lambda d: haar_random_unitary(d, SeededRng(3)),
    "random_pure_state": lambda d: random_pure_state(d, SeededRng(3)),
    "random_schmidt_parts": lambda dim_a, dim_b: sampling.random_schmidt_parts(dim_a, dim_b, SeededRng(3)),
    "random_schmidt_state": lambda dim_a, dim_b: sampling.random_schmidt_state(dim_a, dim_b, SeededRng(3)),
    "random_density_matrix": lambda dim: sampling.random_density_matrix(dim, SeededRng(3)),
    "random_incoherent_quantum_state": lambda dim_a, dim_b: sampling.random_incoherent_quantum_state(dim_a, dim_b, SeededRng(3)),
    "random_noncq_state": lambda dim_a, dim_b: sampling.random_noncq_state(dim_a, dim_b, SeededRng(3)),
    "random_kraus_operation": lambda dim_b: sampling.random_kraus_operation(dim_b, SeededRng(3)),
    "random_tp_channel": lambda dim_b: sampling.random_tp_channel(dim_b, SeededRng(3)),
    "random_channel_ensemble": lambda dim_b: sampling.random_channel_ensemble(dim_b, SeededRng(3)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [True, 2.0, "2", 0, -1, np.int64(2)], ids=repr)
@pytest.mark.parametrize(
    "route, name", [(route, name) for route, call in DIMENSION_ROUTES.items() for name in inspect.signature(call).parameters]
)
def test_a_dimension_is_a_positive_integer_that_is_not_a_bool(route, name, value):
    # One rule, linalg.positive_int: a float, a string or a bool is rejected by name, a numpy integer is accepted.
    dims = dict.fromkeys(inspect.signature(DIMENSION_ROUTES[route]).parameters, 2) | {name: value}
    if isinstance(value, np.integer):
        DIMENSION_ROUTES[route](**dims)
        return
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
        DIMENSION_ROUTES[route](**dims)


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

    def test_amplitudes_share_the_matrix_encoding(self):
        # A signed zero and a subnormal part survive, and the text equals a per-entry float encoding.
        psi = BipartitePureState(2, 2, [1.0, complex(5e-324, -0.0), complex(-0.0, -0.0), 0.0])
        text = json.dumps(state_to_json(psi)["amplitudes"])
        assert text == json.dumps(matrix_to_json(psi.coefficient_matrix)["entries"])
        assert text == json.dumps([[float(z.real), float(z.imag)] for z in psi.amplitudes])
        assert text == "[[1.0, 0.0], [5e-324, -0.0], [-0.0, 0.0], [0.0, 0.0]]"


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
    @pytest.mark.parametrize("weights", [[-0.5, 1.5], [0.5, -1e-300, 0.5], []])
    def test_negative_or_no_weights(self, weights):
        # A negative weight with a positive sum would reach the square root: it must be rejected first, by name.
        message = "^weights must be non-negative and non-empty$"
        with pytest.raises(ValueError, match=message):
            schmidt_coefficients(np.array(weights, dtype=float), np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match=message):
            BipartitePureState.from_schmidt(weights, np.eye(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [[np.inf, 1.0], [1e308, 1e308], [np.nan, 1.0]])
    def test_from_schmidt_weights(self, weights):
        # A non-finite weight, or weights whose sum overflows, name the weights, with no warning on the way.
        with pytest.raises(ValueError, match="^weights must be finite, with a finite sum$"):
            BipartitePureState.from_schmidt(weights, HADAMARD)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_entries_are_rejected_without_a_warning(self):
        # Finite entries whose squares would overflow lie above linalg.ENTRY_BOUND,
        # and each is rejected before any arithmetic.
        with pytest.raises(ValueError, match=r"^amplitudes holds an entry of modulus 1\.000e\+160, above 2\.0$"):
            BipartitePureState(2, 2, [1e160, 0, 0, 0])
        basis = HADAMARD.copy()
        basis[1, 1] = 1e160 + 1e160j
        with pytest.raises(ValueError, match=r"^basis_b holds an entry of modulus 1\.414e\+160, above 2\.0$"):
            BipartitePureState.from_schmidt([0.5, 0.5], basis)

    def test_from_schmidt_checks_each_input_once(self, monkeypatch):
        checked, require_bounded = [], linalg.require_bounded

        def recording(arr, what):
            checked.append(what)
            return require_bounded(arr, what)

        monkeypatch.setattr(states, "require_bounded", recording)
        monkeypatch.setattr(linalg, "require_bounded", recording)
        BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)
        assert checked == ["basis_b", "amplitudes"]
        with pytest.raises(ValueError, match="^expected a 2-D basis_b, got ndim=1$"):
            BipartitePureState.from_schmidt([0.5, 0.5], HADAMARD[0])
