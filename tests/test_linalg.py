import numpy as np
import pytest

from rcc_lab.linalg import (
    SeededRng,
    commutator,
    complete_orthonormal_basis,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_pure_state,
    require_orthonormal_columns,
    stream_generators,
    stream_seed_words,
    svd,
    tensor_product,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, rows, cols):
    g = rng.generator
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / np.sqrt(2)


def random_hermitian(rng, dim):
    m = random_matrix(rng, dim, dim)
    return (m + m.conj().T) / 2


class TestTensorProduct:
    def test_identity(self):
        out = tensor_product(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, np.eye(4))

    def test_basis_block_structure(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        out = tensor_product(proj, X)
        np.testing.assert_array_equal(out[:2, :2], X)
        np.testing.assert_array_equal(out[2:, :], np.zeros((2, 4)))
        np.testing.assert_array_equal(out[:2, 2:], np.zeros((2, 2)))

    def test_diagonal_expansion(self):
        # entrywise Kronecker of diag(1,2) and diag(3,4) done by hand
        out = tensor_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_array_equal(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_overflow_guard(self):
        big = np.eye(1024)
        with pytest.raises(ValueError, match="overflow"):
            tensor_product(big, big)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            tensor_product(np.array([[np.nan, 0], [0, 1]]), np.eye(2))


class TestPartialTrace:
    def test_product_marginal(self):
        rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, 2, 2, "A"), rho_a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(joint, 2, 2, "B"), rho_b, atol=1e-14)

    def test_bell_marginals(self):
        amp = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(amp, amp.conj())
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "B"), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_on_random_input(self):
        rng = SeededRng(11)
        for dim_a, dim_b in ((2, 2), (2, 4), (3, 3)):
            m = random_matrix(rng, dim_a * dim_b, dim_a * dim_b)
            for keep in ("A", "B"):
                out = partial_trace(m, dim_a, dim_b, keep)
                assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_tensor_then_trace_recovers_scaled_factor(self):
        rng = SeededRng(12)
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 2, 2)
        out = partial_trace(tensor_product(a, b), 3, 2, "A")
        np.testing.assert_allclose(out, a * np.trace(b), atol=1e-12)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            partial_trace(np.eye(5), 2, 2, "A")

    def test_bad_keep_tag(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), 2, 2, "C")


class TestSvd:
    def test_identity_singular_values(self):
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, np.ones(3))

    def test_descending_order(self):
        _, s, _ = svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(s, [4.0, 3.0])

    def test_reconstruction_fixed_hadamard_like(self):
        w = np.array([[1, 1], [1, -1]], dtype=complex) / 2.0
        u, s, v = svd(w)
        assert np.linalg.norm(w - u @ np.diag(s) @ v.conj().T) < 1e-12

    def test_reconstruction_random(self):
        rng = SeededRng(13)
        for dim in (2, 3, 5, 8, 16):
            m = random_matrix(rng, dim, dim)
            u, s, v = svd(m)
            assert np.linalg.norm(m - u @ np.diag(s) @ v.conj().T) < 1e-10
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)

    def test_rectangular(self):
        rng = SeededRng(14)
        m = random_matrix(rng, 2, 4)
        u, s, v = svd(m)
        assert u.shape == (2, 2) and v.shape == (4, 2)
        assert np.linalg.norm(m - u @ np.diag(s) @ v.conj().T) < 1e-12

    def test_phase_gauge(self):
        rng = SeededRng(15)
        u, _, _ = svd(random_matrix(rng, 4, 4))
        for k in range(4):
            top = u[np.argmax(np.abs(u[:, k])), k]
            assert abs(top.imag) < 1e-12 and top.real > 0

    def test_deterministic(self):
        rng = SeededRng(16)
        m = random_matrix(rng, 5, 5)
        first = svd(m)
        second = svd(m)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestCommutator:
    def test_identity_commutes(self):
        rng = SeededRng(18)
        m = random_matrix(rng, 3, 3)
        assert np.linalg.norm(commutator(np.eye(3), m)) < 1e-13

    def test_diag_with_x(self):
        # diag(1,2) X = [[0,1],[2,0]], X diag(1,2) = [[0,2],[1,0]]
        out = commutator(np.diag([1.0, 2.0]), X)
        np.testing.assert_array_equal(out, np.array([[0, -1], [1, 0]], dtype=complex))
        assert abs(np.linalg.norm(out) - np.sqrt(2)) < 1e-15

    def test_self_commutator_exactly_zero(self):
        rng = SeededRng(19)
        m = random_matrix(rng, 4, 4)
        assert np.linalg.norm(commutator(m, m)) < 1e-13

    def test_eigenvector_projector_commutes(self):
        rng = SeededRng(20)
        n = random_hermitian(rng, 3)
        _, vectors = np.linalg.eigh(n)
        proj = np.outer(vectors[:, 0], vectors[:, 0].conj())
        assert np.linalg.norm(commutator(n, proj)) < 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            commutator(np.eye(2), np.eye(3))


class TestHaarSampling:
    def test_scalar_case(self):
        u = haar_random_unitary(1, SeededRng(21))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        u = haar_random_unitary(4, SeededRng(22))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_first_entry_moment(self):
        # Haar moment E|U_ij|^2 = 1/d, checked by Monte Carlo at d = 2
        rng = SeededRng(23)
        total = 0.0
        n = 100_000
        for _ in range(n):
            u = haar_random_unitary(2, rng)
            total += abs(u[0, 0]) ** 2
        assert abs(total / n - 0.5) < 0.01

    def test_deterministic_streams(self):
        a = haar_random_unitary(3, SeededRng(24, 5))
        b = haar_random_unitary(3, SeededRng(24, 5))
        c = haar_random_unitary(3, SeededRng(24, 6))
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-3


class TestRandomPureState:
    def test_unit_norm(self):
        v = random_pure_state(4, SeededRng(25))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_one_dimensional(self):
        v = random_pure_state(1, SeededRng(26))
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_overlap_moment(self):
        rng = SeededRng(27)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += abs(random_pure_state(2, rng)[0]) ** 2
        assert abs(total / n - 0.5) < 0.01

    def test_replays_identically(self):
        a = random_pure_state(3, SeededRng(28, 2))
        b = random_pure_state(3, SeededRng(28, 2))
        np.testing.assert_array_equal(a, b)


class TestSeededRng:
    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(0, -3)

    def test_stream_helper(self):
        base = SeededRng(30)
        sibling = base.stream(7)
        assert sibling.seed == 30 and sibling.stream_id == 7


# Run entropy of one word (seeds below 2**32) and of two; the ids past 299
# take one, two and three spawn-key words.
STREAM_SEEDS = (0, 1, 5, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 20161008)
STREAM_IDS = [*range(300), 2**32 - 1, 2**32, 2**40, 2**64 + 5]


def first_draws(g):
    # Opens and closes with a 32-bit draw: each leaves half of a 64-bit output
    # buffered, which the next stream must not pick up.
    return (
        g.integers(0, 2**31 - 1, dtype=np.int32),
        g.random(),
        g.standard_normal((2, 2, 2)),
        g.integers(-5, 1000, size=3, dtype=np.int32),
        g.dirichlet([0.5, 1.0, 2.0]),
        g.random(dtype=np.float32),
    )


class TestStreamSeeding:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_words_equal_seed_sequence(self, seed):
        words = stream_seed_words(seed, STREAM_IDS)
        assert words.shape == (len(STREAM_IDS), 4) and words.dtype == np.uint64
        for row, i in zip(words, STREAM_IDS):
            np.testing.assert_array_equal(
                row, np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            )

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_generators_replay_seeded_rng(self, seed):
        seen = set()
        for i, g in zip(STREAM_IDS, stream_generators(seed, STREAM_IDS)):
            seen.add(id(g))
            for got, want in zip(first_draws(g), first_draws(SeededRng(seed, i).generator)):
                np.testing.assert_array_equal(got, want)
        assert len(seen) == 1  # one reused generator

    def test_ids_in_any_order_and_type(self):
        # Ids of different lengths interleaved, repeated, and given as an array.
        ids = np.array([2**32, 7, 2**40 + 1, 0, 7, 2**32 - 1], dtype=np.uint64)
        words = stream_seed_words(3, ids)
        for row, i in zip(words, ids.tolist()):
            np.testing.assert_array_equal(row, np.random.SeedSequence(3, spawn_key=(i,)).generate_state(4, np.uint64))
        assert stream_seed_words(3, []).shape == (0, 4)
        assert list(stream_generators(3, range(0))) == []

    def test_rejects_what_seeded_rng_rejects(self):
        for seed, ids in ((-1, [0]), (2**64, [0]), (0, [3, -1])):
            with pytest.raises(ValueError) as want:
                for i in ids:
                    SeededRng(seed, i)
            with pytest.raises(ValueError) as got:
                stream_generators(seed, ids)
            assert str(got.value) == str(want.value)


class TestMatrixJson:
    def test_roundtrip_bit_exact(self):
        rng = SeededRng(29)
        m = random_matrix(rng, 3, 2)
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="'entries'"):
            matrix_from_json({"rows": 1, "cols": 1})

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[0.0, 0.0]]})

    def test_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[1.0]]})


class TestOrthonormalColumns:
    def test_accepts_stacked_isometries(self):
        u = np.stack([haar_random_unitary(3, SeededRng(s)) for s in range(4)])
        require_orthonormal_columns(u)
        require_orthonormal_columns(u[..., :2])

    def test_rejects_the_worst_matrix_of_a_stack(self):
        stack = np.stack([np.eye(2, dtype=complex), np.array([[1, 1], [0, 1]], dtype=complex)])
        with pytest.raises(ValueError, match="basis columns deviate from orthonormal by 1.000e"):
            require_orthonormal_columns(stack)


class TestCompleteBasis:
    def test_completes_partial_basis(self):
        cols = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        full = complete_orthonormal_basis(cols, 2)
        np.testing.assert_allclose(full.conj().T @ full, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(full[:, 0], cols[:, 0])

    def test_from_nothing(self):
        full = complete_orthonormal_basis(None, 3)
        np.testing.assert_array_equal(full, np.eye(3))

    def test_deterministic(self):
        rng = SeededRng(31)
        u = haar_random_unitary(4, rng)
        first = complete_orthonormal_basis(u[:, :2], 4)
        second = complete_orthonormal_basis(u[:, :2], 4)
        np.testing.assert_array_equal(first, second)
