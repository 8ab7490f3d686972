"""The brute-force reference that the tests hold the engine to.

Two rules keep it a reference:
- it imports nothing from rcc_lab, so a fault in the engine cannot reach the values it is compared against;
- it works in extended precision (np.clongdouble), so its own rounding stays far below the float64 rounding it
  judges, down to branches whose probability is near rcc.ZERO_PROBABILITY_CUTOFF.
Each Kraus operator F acts as I (x) F, formed with np.kron, and B is traced out explicitly. What bench/oracle.py
already has is imported from it read-only (tests/conftest.py puts bench/ on sys.path).
"""

import numpy as np
from oracle import amplitudes, concurrence, l1, offdiag_norm, partner_amplitudes, summary_operator  # noqa: F401


def _lifted(kraus, dim_a, dtype):
    # I (x) F for each F (..., dim_b, dim_b) of kraus.
    return [np.kron(np.eye(dim_a, dtype=dtype), np.asarray(f, dtype=dtype)) for f in kraus]


def pure_branch(amp, dim_a, dim_b, kraus):
    """Unnormalized A-state sum_F tr_B |phi><phi|, phi = (I (x) F) psi, of amplitudes amp (..., dim_a * dim_b).

    tr_B |phi><phi| is Phi Phi^dagger with phi as a (dim_a, dim_b) matrix Phi, whose rounding is relative to
    sqrt(p): the sandwich of |psi><psi| itself would cancel down to p with an absolute error of about 1e-16.
    Each F of the list kraus may stack on leading axes; the result is (..., dim_a, dim_a).
    """
    psi = np.asarray(amp, dtype=np.clongdouble)[..., None]
    out = 0
    for big in _lifted(kraus, dim_a, np.clongdouble):
        phi = (big @ psi)[..., 0]
        phi = phi.reshape(phi.shape[:-1] + (dim_a, dim_b))
        out = out + phi @ phi.conj().swapaxes(-1, -2)
    return out


def mixed_branch(rho, dim_a, dim_b, kraus, dtype=np.clongdouble):
    """Unnormalized A-state sum_F tr_B[(I (x) F) rho (I (x) F)^dagger] of joint states rho (..., D, D).

    B is traced out as sum_j (I (x) <j|) . (I (x) |j>), one F of the list kraus at a time; each F may stack
    on leading axes. dtype=np.complex128 reproduces the float64 rounding of a program that forms the same
    sums, for checks of such a program's own output; every comparison with the engine keeps the default.
    """
    rho = np.asarray(rho, dtype=dtype)
    out = 0
    for big in _lifted(kraus, dim_a, dtype):
        after = big @ rho @ big.conj().swapaxes(-1, -2)
        out = out + sum(after[..., j::dim_b, j::dim_b] for j in range(dim_b))
    return out


def post_coherence(branch) -> float:
    """A's l1 coherence after post-selection: that of the branch (d, d) divided by its trace, the probability."""
    return l1(branch / np.trace(branch).real)


def average_coherence(amp, dim_a, dim_b, outcomes) -> float:
    """sum_k p_k C(rho_k) of amplitudes amp, each outcome a Kraus list: the l1 mass of its unnormalized branch."""
    return sum(l1(pure_branch(amp, dim_a, dim_b, kraus)) for kraus in outcomes)


def square_root(n):
    """Hermitian square root of positive semidefinite n (..., d, d): one Kraus operator whose summary is n."""
    values, vectors = np.linalg.eigh(n)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
