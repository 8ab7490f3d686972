import numpy as np
import pytest

from rcc_lab.coherence import CLASSIFICATION_ATOL, is_incoherent, is_incoherent_quantum, l1_coherence
from rcc_lab.linalg import SeededRng
from rcc_lab.sampling import random_density_matrix, random_incoherent_quantum_state

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestL1Coherence:
    def test_diagonal_states_have_none(self):
        assert l1_coherence(np.diag([0.3, 0.7])) == 0.0

    def test_plus_state_is_maximal(self):
        assert abs(l1_coherence(PLUS) - 1.0) < 1e-15

    def test_hand_computed_modulus_sum(self):
        rho = np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]])
        assert abs(l1_coherence(rho) - np.sqrt(2) / 2) < 1e-12

    def test_zero_iff_incoherent_on_random_states(self):
        rng = SeededRng(51)
        for _ in range(200):
            dense = random_density_matrix(3, rng)
            diag = np.diag(np.diag(dense.matrix))
            assert (l1_coherence(dense) == 0.0) == is_incoherent(dense)
            assert l1_coherence(diag) == 0.0 and is_incoherent(diag)

    def test_invariant_under_phase_conjugation(self):
        rng = SeededRng(52)
        for _ in range(100):
            rho = random_density_matrix(4, rng).matrix
            phases = np.exp(1j * rng.generator.random(4) * 2 * np.pi)
            d = np.diag(phases)
            assert abs(l1_coherence(d @ rho @ d.conj().T) - l1_coherence(rho)) < 1e-10


class TestIsIncoherent:
    def test_maximally_mixed(self):
        assert is_incoherent(np.eye(2) / 2)

    def test_plus_state(self):
        assert not is_incoherent(PLUS)

    def test_tolerance_semantics(self):
        # Moduli below CLASSIFICATION_ATOL count as zero; at it they do not.
        noisy = np.diag([0.4, 0.6]).astype(complex)
        for value, incoherent in ((1e-12, True), (np.nextafter(CLASSIFICATION_ATOL, 0.0), True), (CLASSIFICATION_ATOL, False)):
            noisy[0, 1] = noisy[1, 0] = value
            assert is_incoherent(noisy) == incoherent

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4)])
    def test_rejects_non_square(self, shape):
        for classify in (is_incoherent, l1_coherence):
            with pytest.raises(ValueError, match="must be square"):
                classify(np.ones(shape))


class TestIsIncoherentQuantum:
    def test_definition_instance(self):
        rng = SeededRng(53)
        q = np.array([0.2, 0.8])
        rho = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            rho[i * 2 : (i + 1) * 2, i * 2 : (i + 1) * 2] = (
                q[i] * random_density_matrix(2, rng).matrix
            )
        assert is_incoherent_quantum(rho, 2, 2)

    def test_entangled_state_fails(self):
        amp = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert not is_incoherent_quantum(np.outer(amp, amp.conj()), 2, 2)

    def test_separable_but_coherent_correlated_fails(self):
        # 1/2 (|+><+| (x) |0><0| + |-><-| (x) |1><1|): the <0|rho|1> block is
        # (|0><0| - |1><1|)/4, expanded by hand, so the state is not
        # block-diagonal despite A's marginal being I/2.
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        rho = 0.5 * (
            np.kron(np.outer(plus, plus.conj()), np.outer(e0, e0.conj()))
            + np.kron(np.outer(minus, minus.conj()), np.outer(e1, e1.conj()))
        )
        block = rho.reshape(2, 2, 2, 2)[0, :, 1, :]
        np.testing.assert_allclose(block, np.diag([0.25, -0.25]), atol=1e-14)
        assert not is_incoherent_quantum(rho, 2, 2)
        assert is_incoherent(np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3))

    def test_product_state_reduces_to_marginal_test(self):
        rng = SeededRng(54)
        for _ in range(100):
            rho_a = random_density_matrix(2, rng)
            rho_b = random_density_matrix(3, rng)
            joint = np.kron(rho_a.matrix, rho_b.matrix)
            assert is_incoherent_quantum(joint, 2, 3) == is_incoherent(rho_a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="side"):
            is_incoherent_quantum(np.eye(4) / 4, 2, 3)
        with pytest.raises(ValueError, match="must be square"):
            is_incoherent_quantum(np.ones((4, 6)), 2, 3)

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_block_loop(self, dim_a, dim_b):
        # Entries placed exactly at CLASSIFICATION_ATOL, just below it and far
        # above it, in every off-diagonal block position, agree with the
        # block-by-block loop.
        rng = SeededRng(55)
        tol = CLASSIFICATION_ATOL
        side = dim_a * dim_b
        base = random_incoherent_quantum_state(dim_a, dim_b, rng).matrix
        for value in (tol, np.nextafter(tol, 0.0), 1e-3):
            for row in range(side):
                for col in range(side):
                    rho = base.copy()
                    rho[row, col] = value
                    expected = block_loop_incoherent_quantum(rho, dim_a, dim_b, tol)
                    assert is_incoherent_quantum(rho, dim_a, dim_b) == expected
                    if row // dim_b != col // dim_b:
                        assert expected == (value < tol)
        dense = random_density_matrix(side, rng).matrix
        assert is_incoherent_quantum(dense, dim_a, dim_b) == block_loop_incoherent_quantum(dense, dim_a, dim_b, tol)


def block_loop_incoherent_quantum(m, dim_a, dim_b, tol):
    # The block-by-block loop the vectorised test replaced.
    r4 = m.reshape(dim_a, dim_b, dim_a, dim_b)
    worst = 0.0
    for i in range(dim_a):
        for k in range(dim_a):
            if i != k:
                worst = max(worst, float(np.abs(r4[i, :, k, :]).max(initial=0.0)))
    return worst < tol
