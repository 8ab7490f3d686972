"""Coherence quantification in the fixed computational basis.

The l1 measure sums the moduli of all off-diagonal density matrix entries.
The classifiers below are tolerance-based so they stay robust as test
oracles under floating-point rounding; the measure itself is exact
arithmetic on the entries.
"""

from __future__ import annotations

import numpy as np

from .linalg import stack_sum
from .states import joint_matrix, operator_matrix

CLASSIFICATION_ATOL = 1e-9


def l1_coherence(rho) -> float:
    """Sum of off-diagonal entry moduli; zero exactly for diagonal states."""
    return float(l1_coherences(operator_matrix(rho)))


def l1_coherences(m: np.ndarray) -> np.ndarray:
    """l1_coherence of matrices stacked on leading axes."""
    a = np.abs(m)
    return stack_sum(a, axes=2) - stack_sum(a.diagonal(0, -2, -1))


def is_incoherent(rho) -> bool:
    """True when every off-diagonal modulus stays below CLASSIFICATION_ATOL: block_diagonal_mask with a one-level B."""
    m = operator_matrix(rho)
    return bool(block_diagonal_mask(m, len(m), 1))


def is_incoherent_quantum(rho_ab, dim_a: int, dim_b: int) -> bool:
    """True when the joint state is block-diagonal in A's computational basis.

    Checks every off-diagonal A-block <i| rho |k> against CLASSIFICATION_ATOL;
    these are exactly the states sum_i q_i |i><i| (x) rho_i, which can never
    hand coherence to A through an operation on B.
    """
    return bool(block_diagonal_mask(joint_matrix(rho_ab, dim_a, dim_b), dim_a, dim_b))


def block_diagonal_mask(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """is_incoherent_quantum of joint operators m stacked on leading axes, without the checks."""
    # Entry (i, j, k, l) lies in block <i| rho |k>; mask the diagonal blocks.
    off_block = ~np.eye(dim_a, dtype=bool)[:, None, :, None]
    r4 = np.abs(m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b)))
    return np.max(r4, axis=(-4, -3, -2, -1), where=off_block, initial=0.0) < CLASSIFICATION_ATOL
