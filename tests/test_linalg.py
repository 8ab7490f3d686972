import math

import numpy as np
import pytest

from rcc_lab.channels import bit_flip, bit_phase_flip, depolarizing, inert_operation, phase_damping, phase_flip
from rcc_lab.linalg import (
    SeededRng,
    complete_orthonormal_basis,
    complex_from_json_pairs,
    complex_ginibre,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_pure_state,
    require_orthonormal_columns,
    stream_generators,
    stream_seed_words,
    unitary_from_ginibre,
)
from rcc_lab.states import BipartitePureState, DensityMatrix


def random_matrix(rng, rows, cols):
    g = rng.generator
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / np.sqrt(2)


class TestPartialTrace:
    def test_product_marginal(self):
        rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, 2, 2), rho_a, atol=1e-14)

    def test_bell_marginals(self):
        amp = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(amp, amp.conj())
        np.testing.assert_allclose(partial_trace(rho, 2, 2), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_on_random_input(self):
        rng = SeededRng(11)
        for dim_a, dim_b in ((2, 2), (2, 4), (3, 3)):
            m = random_matrix(rng, dim_a * dim_b, dim_a * dim_b)
            assert abs(np.trace(partial_trace(m, dim_a, dim_b)) - np.trace(m)) < 1e-12

    def test_tensor_then_trace_recovers_scaled_factor(self):
        rng = SeededRng(12)
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 2, 2)
        out = partial_trace(np.kron(a, b), 3, 2)
        np.testing.assert_allclose(out, a * np.trace(b), atol=1e-12)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            partial_trace(np.eye(5), 2, 2)


class TestHaarSampling:
    def test_scalar_case(self):
        u = haar_random_unitary(1, SeededRng(21))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        u = haar_random_unitary(4, SeededRng(22))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_first_entry_moment(self):
        # Haar moment E|U_ij|^2 = 1/d, checked by Monte Carlo at d = 2 on one
        # block of 100 000 unitaries, drawn as the engine draws its bases.
        u = unitary_from_ginibre(complex_ginibre(SeededRng(23).generator, (2, 2), 100_000))
        assert abs(float(np.mean(np.abs(u[:, 0, 0]) ** 2)) - 0.5) < 0.01

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_scalar_draw_is_the_one_element_block(self, d):
        for stream in (0, 1, 7):
            block = unitary_from_ginibre(complex_ginibre(SeededRng(23, stream).generator, (d, d), 1))
            assert haar_random_unitary(d, SeededRng(23, stream)).tobytes() == block[0].tobytes()

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
        # The stream of 100 000 random_pure_state(2, .) calls in one draw: each call takes two real parts,
        # then two imaginary ones.
        n = 100_000
        parts = SeededRng(27).generator.standard_normal((n, 2, 2))
        z = parts[:, 0] + 1j * parts[:, 1]
        rng = SeededRng(27)
        for row in z[:50]:
            assert (row / np.linalg.norm(row)).tobytes() == random_pure_state(2, rng).tobytes()
        moment = np.mean(np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1))
        assert abs(moment - 0.5) < 0.01

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


BELL = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
# Public arguments read as numbers: (call, arguments, the argument's name).
NOT_NUMERIC = {
    "phase_damping-str": (phase_damping, ("x",), "r"),
    "phase_damping-none": (phase_damping, (None,), "r"),
    "depolarizing-str": (depolarizing, ("x",), "p"),
    "bit_flip-none": (bit_flip, (None,), "p"),
    "phase_flip-str": (phase_flip, ("x",), "p"),
    "bit_phase_flip-str": (bit_phase_flip, ("x",), "p"),
    "from_schmidt-str": (BipartitePureState.from_schmidt, ("ab", np.eye(2)), "weights"),
    "inert_operation-str": (inert_operation, (BELL, "x"), "n_values"),
    "inert_operation-none": (inert_operation, (BELL, None), "n_values"),
    "seeded_rng-str": (SeededRng, ("x",), "seed"),
    "seeded_rng-none": (SeededRng, (None,), "seed"),
    "seeded_rng-stream-str": (SeededRng, (0, "x"), "stream_id"),
    "pure_state-str": (BipartitePureState, (2, 2, "abcd"), "amplitudes"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(NOT_NUMERIC))
def test_a_value_that_is_not_a_number_is_named(case):
    call, args, name = NOT_NUMERIC[case]
    with pytest.raises(ValueError, match=f"^{name} must be numeric: "):
        call(*args)


def test_numeric_strings_stay_accepted():
    assert phase_damping("0.25").label == phase_damping(0.25).label
    assert SeededRng("5", "2").generator.random() == SeededRng(5, 2).generator.random()
    assert np.array_equal(
        BipartitePureState.from_schmidt(["0.5", "0.5"], np.eye(2)).amplitudes,
        BipartitePureState.from_schmidt([0.5, 0.5], np.eye(2)).amplitudes,
    )
    assert np.array_equal(BipartitePureState(2, 2, ["1", "0", "0", "0"]).amplitudes, [1, 0, 0, 0])
    assert np.array_equal(inert_operation(BELL, ["1", "0.5"]).kraus, inert_operation(BELL, [1, 0.5]).kraus)


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
        for i, g in zip(STREAM_IDS, stream_generators(seed, STREAM_IDS)):
            for got, want in zip(first_draws(g), first_draws(SeededRng(seed, i).generator)):
                np.testing.assert_array_equal(got, want)

    def test_generators_stay_valid_after_the_next_step(self):
        # Two generators of one call, held together and drawn in turn: each keeps its own stream.
        ids = [4, 2**40]
        held = list(stream_generators(7, ids))
        wants = [SeededRng(7, i).generator for i in ids]
        for _ in range(2):
            for g, want in zip(held, wants):
                for got, expected in zip(first_draws(g), first_draws(want)):
                    np.testing.assert_array_equal(got, expected)

    def test_ids_in_any_order_and_type(self):
        # Ids of different lengths interleaved, repeated, and given as an array.
        ids = np.array([2**32, 7, 2**40 + 1, 0, 7, 2**32 - 1], dtype=np.uint64)
        words = stream_seed_words(3, ids)
        for row, i in zip(words, ids.tolist()):
            np.testing.assert_array_equal(row, np.random.SeedSequence(3, spawn_key=(i,)).generate_state(4, np.uint64))
        assert stream_seed_words(3, []).shape == (0, 4)
        assert list(stream_generators(3, range(0))) == []

    @pytest.mark.filterwarnings("error")
    def test_rejects_what_seeded_rng_rejects(self):
        # A bool or a float would silently select another stream: SeededRng(0.9) that of seed 0, SeededRng(True) that of seed 1.
        cases = (
            (-1, [0], "seed"),
            (2**64, [0], "seed"),
            ("x", [0], "seed"),
            (0.9, [0], "seed"),
            (True, [0], "seed"),
            (np.float64(5.0), [0], "seed"),
            (np.True_, [0], "seed"),
            (0, [3, -1], "stream_id"),
            (0, [2, 1.0], "stream_id"),
            (0, [False], "stream_id"),
        )
        for seed, ids, name in cases:
            with pytest.raises(ValueError, match=f"^{name} ") as want:
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


def scalar_complex_from_json_pairs(pairs, what):
    # complex_from_json_pairs writing each pair into a preallocated array, its entries tested by a generator.
    data = np.empty(len(pairs), dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what} {k} must be a [re, im] pair")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
            raise ValueError(f"{what} {k} must hold two numbers")
        try:
            data[k] = complex(*pair)
        except OverflowError:
            raise ValueError(f"{what} {k} holds a number too large for a float") from None
    return data


def outcome_or_error(route, *args):
    # (result, None) or (None, (type, message)) of route(*args).
    try:
        return route(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


JSON_PAIRS = {
    "numbers": [[1, 0], [0.5, -0.25], [-0.0, 0.0], [3, -2.0], [1e308, -1e-308]],
    "empty": [],
    "bool_re": [[1, 0], [True, 0]],
    "bool_im": [[0, False]],
    "string": [[1, 0], [0, 0], ["1", 0]],
    "null": [[None, 0]],
    "one_entry": [[1, 0], [1]],
    "three_entries": [[1, 2, 3]],
    "not_a_pair": [[1, 0], {"re": 1, "im": 0}],
    "too_large": [[0, 0], [0, -(10**400)]],
    "first_error_wins": [[10**400, 0], ["a", 0], [1]],
    "tuple_pairs": [(1, 2), (3.5, -0.0)],
}


class TestJsonBoundary:
    @pytest.mark.parametrize("case", list(JSON_PAIRS))
    def test_complex_from_json_pairs_keeps_every_message(self, case):
        # The same array, bit for bit, or the same error type and per-index message as the scalar form.
        got, got_error = outcome_or_error(complex_from_json_pairs, JSON_PAIRS[case], "amplitude")
        want, want_error = outcome_or_error(scalar_complex_from_json_pairs, JSON_PAIRS[case], "amplitude")
        assert got_error == want_error
        if want_error is None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[0.5, -0.0 + 0.25j], [-0.0 - 0.25j, -0.0]]),
            complex_ginibre(SeededRng(13).generator, (3, 4), 1)[0].T,
            DensityMatrix(np.eye(3) / 3).matrix,
            [[1, 2], [3, 4]],
        ],
        ids=["signed_zeros", "transposed_view", "read_only", "nested_list"],
    )
    def test_matrix_to_json_lists_plain_floats(self, m):
        doc = matrix_to_json(m)
        arr = np.asarray(m, dtype=complex)
        assert (doc["rows"], doc["cols"]) == arr.shape
        want = [[float(z.real), float(z.imag)] for z in arr.ravel()]
        assert all(type(x) is float for pair in doc["entries"] for x in pair)
        # Equal with the signs of zeros, which == alone does not compare.
        signs = [[math.copysign(1, x) for x in pair] for pair in doc["entries"]]
        assert doc["entries"] == want and signs == [[math.copysign(1, x) for x in pair] for pair in want]
