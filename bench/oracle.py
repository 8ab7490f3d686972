"""Reference computations that share no code with rcc_lab.

Everything here is written from the definitions: the joint state
rho = |psi><psi|, each Kraus operator applied as (I (x) F) rho (I (x) F)^dagger
with an explicit Kronecker product, and an explicit partial trace over B.
The benchmark also draws its own inputs here, so rcc_lab only ever sees the
generated states and channels.
"""

from __future__ import annotations

import numpy as np

# A disagreement with the engine above this counts as a violation.
ORACLE_ATOL = 1e-9
# Slack allowed when checking that a claimed upper bound holds.
BOUND_ATOL = 1e-10


def generator(seed: int, stream: int) -> np.random.Generator:
    """The PCG64 stream rcc_lab's SeededRng(seed, stream) draws from."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(seq))


def haar_unitary(d: int, g: np.random.Generator) -> np.ndarray:
    """Haar unitary by complex Ginibre + QR with the diagonal phases fixed."""
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def fig1_draw(seed: int, sample: int) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights and B-basis of fig1's sample `sample` (2x2, one stream per sample)."""
    g = generator(seed, sample)
    first = float(g.random())
    return np.array([first, 1.0 - first]), haar_unitary(2, g)


def amplitudes(weights, basis_b) -> np.ndarray:
    """Amplitudes of sum_i sqrt(w_i) |i>|beta_i>, index i * dim_b + j."""
    w = np.asarray(weights, dtype=float)
    cols = np.asarray(basis_b)[:, : w.size]
    return (np.sqrt(w / w.sum())[:, None] * cols.T).reshape(-1)


def partner_amplitudes(basis_b, dim_a: int) -> np.ndarray:
    """Equal-weight partner sum_i |i>|beta_i> / sqrt(dim_a) over the same B-basis."""
    return amplitudes(np.ones(dim_a), basis_b)


def trace_out_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Explicit partial trace: sum_j (I (x) <j|) m (I (x) |j>)."""
    out = np.zeros((dim_a, dim_a), dtype=np.complex128)
    for j in range(dim_b):
        out += m[j::dim_b, j::dim_b]
    return out


def branch_state_a(amp: np.ndarray, dim_a: int, dim_b: int, kraus) -> np.ndarray:
    """Unnormalized A state of one outcome: Tr_B sum_F (I (x) F) rho (I (x) F)^dagger."""
    rho = np.outer(amp, amp.conj())
    eye = np.eye(dim_a)
    total = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    for f in kraus:
        big = np.kron(eye, f)
        total += big @ rho @ big.conj().T
    return trace_out_b(total, dim_a, dim_b)


def l1(m: np.ndarray) -> float:
    """Sum of off-diagonal moduli."""
    a = np.abs(m)
    return float(a.sum() - np.trace(a))


def concurrence(amp: np.ndarray, dim_a: int, dim_b: int) -> float:
    rho_a = trace_out_b(np.outer(amp, amp.conj()), dim_a, dim_b)
    purity = float(np.trace(rho_a @ rho_a).real)
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


def average_coherence(amp: np.ndarray, dim_a: int, dim_b: int, outcomes) -> float:
    """sum_k p_k C(rho_k), each outcome a list of Kraus operators."""
    return sum(l1(branch_state_a(amp, dim_a, dim_b, kraus)) for kraus in outcomes)


def offdiag_norm(n: np.ndarray, basis_b: np.ndarray, dim_a: int) -> float:
    """sqrt(sum_{j<i} |<beta_j| N |beta_i>|^2) over the first dim_a basis vectors."""
    cols = basis_b[:, :dim_a]
    g = cols.conj().T @ n @ cols
    return float(np.sqrt(sum(abs(g[j, i]) ** 2 for i in range(dim_a) for j in range(i))))


def summary_operator(kraus) -> np.ndarray:
    return sum(f.conj().T @ f for f in kraus)


# -- input generators -------------------------------------------------------


def distinct_weights(d: int, g: np.random.Generator, min_gap: float = 0.02) -> np.ndarray:
    """Descending Dirichlet weights whose neighbours differ by at least min_gap."""
    while True:
        w = np.sort(g.dirichlet(np.ones(d)))[::-1]
        if d == 1 or float(np.min(-np.diff(w))) >= min_gap:
            return w


def isometry_kraus(dim: int, count: int, g: np.random.Generator) -> list[np.ndarray]:
    """Trace-preserving Kraus set: the blocks of a random (count*dim) x dim isometry."""
    z = (g.standard_normal((count * dim, dim)) + 1j * g.standard_normal((count * dim, dim))) / np.sqrt(2.0)
    q, _ = np.linalg.qr(z)
    return [q[k * dim : (k + 1) * dim, :].copy() for k in range(count)]


def subnormalized_kraus(dim: int, count: int, g: np.random.Generator) -> list[np.ndarray]:
    """Ginibre Kraus set scaled so the largest eigenvalue of N is 0.999."""
    mats = [(g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0) for _ in range(count)]
    top = float(np.max(np.linalg.eigvalsh(summary_operator(mats))))
    return [f * np.sqrt(0.999 / top) for f in mats]


# -- JSON in the rcc_lab file formats ---------------------------------------


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def state_json(amp: np.ndarray, dim_a: int, dim_b: int) -> dict:
    return {"dim_a": dim_a, "dim_b": dim_b, "amplitudes": _pairs(amp)}


def matrix_json(m: np.ndarray) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": _pairs(m)}


def operation_json(kraus, label: str = "") -> dict:
    return {"dim_b": kraus[0].shape[0], "label": label, "kraus": [matrix_json(f) for f in kraus]}


def ensemble_json(members) -> dict:
    return {"operations": [operation_json(kraus, f"member[{k}]") for k, kraus in enumerate(members)]}
