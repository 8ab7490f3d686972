"""Coherence quantification in the fixed computational basis.

The l1 measure sums the moduli of all off-diagonal density matrix entries.
The classifiers below are tolerance-based so they stay robust as test
oracles under floating-point rounding; the measure itself is exact
arithmetic on the entries.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_complex_matrix
from .states import DensityMatrix, joint_matrix

DEFAULT_CLASSIFICATION_ATOL = 1e-9


def _matrix_of(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else as_complex_matrix(rho)


def l1_coherence(rho) -> float:
    """Sum of off-diagonal entry moduli; zero exactly for diagonal states."""
    return float(l1_coherences(_matrix_of(rho)))


def l1_coherences(m: np.ndarray) -> np.ndarray:
    """l1_coherence of matrices stacked on leading axes."""
    a = np.abs(m)
    return a.sum(axis=(-2, -1)) - np.trace(a, axis1=-2, axis2=-1)


def is_incoherent(rho, tol: float = DEFAULT_CLASSIFICATION_ATOL) -> bool:
    """True when every off-diagonal modulus stays below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _matrix_of(rho)
    off = np.abs(m - np.diag(np.diag(m)))
    return float(off.max(initial=0.0)) < tol


def is_incoherent_quantum(
    rho_ab, dim_a: int, dim_b: int, tol: float = DEFAULT_CLASSIFICATION_ATOL
) -> bool:
    """True when the joint state is block-diagonal in A's computational basis.

    Checks every off-diagonal A-block <i| rho |k> (i != k) against tol; these
    are exactly the states of the form sum_i q_i |i><i| (x) rho_i, which can
    never hand coherence to A through an operation on B.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return bool(block_diagonal_mask(joint_matrix(rho_ab, dim_a, dim_b), dim_a, dim_b, tol))


def block_diagonal_mask(m: np.ndarray, dim_a: int, dim_b: int, tol: float = DEFAULT_CLASSIFICATION_ATOL) -> np.ndarray:
    """is_incoherent_quantum of joint operators m stacked on leading axes, without the checks."""
    # Entry (i, j, k, l) lies in block <i| rho |k>; mask the diagonal blocks.
    off_block = ~np.eye(dim_a, dtype=bool)[:, None, :, None]
    r4 = np.abs(m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b)))
    return np.max(r4, axis=(-4, -3, -2, -1), where=off_block, initial=0.0) < tol
