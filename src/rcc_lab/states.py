"""Bipartite pure and mixed quantum states.

Subsystem A's reference basis is the computational basis everywhere in this
package. Schmidt machinery inherits the deterministic ordering and phase
gauge of :mod:`rcc_lab.linalg`, so repeated decompositions of the same state
agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadTrace, NotHermitian, NotPositive, PremiseViolated
from .linalg import (
    VALIDITY_ATOL,
    as_complex_matrix,
    complex_from_json_pairs,
    json_positive_int,
    partial_trace,
    require_finite,
    require_orthonormal_columns,
    svd,
)

# Schmidt weights below this are treated as exact zeros and dropped, so the
# normalized B-side vectors never divide by a vanishing weight.
SCHMIDT_WEIGHT_CUTOFF = 1e-12


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator.

    validate runs check_densities, then rescales the trace to exactly one.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, *, validate: bool = True):
        m = as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if validate:
            m = m / check_densities(m).real
        else:
            m = m.copy()
        m.setflags(write=False)
        self.dim = int(m.shape[0])
        self.matrix = m

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def check_densities(m: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of matrices stacked on leading axes.

    Raises NotHermitian, BadTrace or NotPositive, in that order of checks,
    with the worst deviation over the stack; each tolerance is VALIDITY_ATOL.
    Returns the traces.
    """
    # (m + m^dagger) / 2 is built in place in m^dagger, so at most m - m^dagger joins them.
    mh = np.conjugate(m.swapaxes(-1, -2), order="C")
    herm = float(np.abs(m - mh).max(initial=0.0))
    if herm > VALIDITY_ATOL:
        raise NotHermitian(f"max |m - m^dagger| = {herm:.3e} exceeds tolerance {VALIDITY_ATOL}")
    traces = m.trace(axis1=-2, axis2=-1)
    trace_dev = float(np.abs(traces - 1.0).max(initial=0.0))
    if trace_dev > VALIDITY_ATOL:
        raise BadTrace(f"trace deviates from 1 by {trace_dev:.3e}")
    mh += m
    mh /= 2
    low = float(np.linalg.eigvalsh(mh).min(initial=np.inf))
    if low < -VALIDITY_ATOL:
        raise NotPositive(f"minimum eigenvalue {low:.3e} is below -{VALIDITY_ATOL}")
    return traces


class BipartitePureState:
    """Pure state on H_A (x) H_B stored over the computational product basis.

    Amplitude index i * dim_b + j holds the coefficient of |i>|j>. Vectors
    within 1e-9 of unit norm are renormalized exactly; anything worse is
    rejected. The Schmidt form is computed lazily and cached.
    """

    __slots__ = ("dim_a", "dim_b", "amplitudes", "_schmidt", "_marginal_offdiag")

    def __init__(self, dim_a: int, dim_b: int, amplitudes):
        if dim_a < 1 or dim_b < 1:
            raise ValueError(f"dimensions must be positive, got ({dim_a}, {dim_b})")
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amp.size != dim_a * dim_b:
            raise ValueError(
                f"amplitudes must have dim_a*dim_b = {dim_a * dim_b} entries, got {amp.size}"
            )
        amp = unit_amplitudes(amp)
        amp.setflags(write=False)
        self.dim_a = int(dim_a)
        self.dim_b = int(dim_b)
        self.amplitudes = amp
        self._schmidt = None
        self._marginal_offdiag = None

    def marginal_offdiag(self) -> float:
        """Largest off-diagonal modulus of A's marginal (cached)."""
        if self._marginal_offdiag is None:
            self._marginal_offdiag = float(marginal_offdiag(self.coefficient_matrix))
        return self._marginal_offdiag

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the dim_a x dim_b coefficient matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def density(self) -> DensityMatrix:
        """Rank-1 density matrix |psi><psi| on the joint system."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), validate=False)

    @classmethod
    def from_schmidt(cls, weights, basis_b) -> "BipartitePureState":
        """Build sum_i sqrt(w_i) |i>|beta_i> with the computational A-basis.

        weights are normalized to unit sum; basis_b supplies one orthonormal
        column per weight (extra columns are ignored).
        """
        if (basis := np.asarray(basis_b, dtype=np.complex128)).ndim != 2:
            raise ValueError(f"basis_b: expected a 2-D matrix, got ndim={basis.ndim}")
        coeff = schmidt_coefficients(np.asarray(weights, dtype=float).reshape(-1), basis)
        return cls(*coeff.shape, coeff.reshape(-1))


def unit_amplitudes(amp: np.ndarray) -> np.ndarray:
    """Amplitude vectors (last axis) divided by their norms.

    Rejects non-finite entries and any vector whose norm is off 1 by more
    than VALIDITY_ATOL.
    """
    norm = np.linalg.norm(require_finite(amp, "amplitudes"), axis=-1, keepdims=True)
    worst = float(norm.flat[np.argmax(np.abs(norm - 1.0))])
    if abs(worst - 1.0) > VALIDITY_ATOL:
        raise ValueError(f"amplitude norm {worst:.12g} deviates from 1 beyond {VALIDITY_ATOL}")
    return amp / norm


def schmidt_coefficients(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficient matrices sqrt(w_i) beta_i^T of sum_i sqrt(w_i) |i>|beta_i>.

    weights (..., k) are normalized to unit sum; basis (..., dim_b, m) holds
    one orthonormal column per weight (extra columns are ignored). Leading
    axes are batch axes. The result is not normalized as a vector.
    """
    if weights.shape[-1] < 1 or np.any(weights < 0):
        raise ValueError("weights must be non-negative and non-empty")
    total = weights.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("weights must have positive sum")
    k = weights.shape[-1]
    if basis.shape[-1] < k:
        raise ValueError(f"need {k} basis columns, got {basis.shape[-1]}")
    cols = require_finite(basis, "basis_b")[..., :k]
    require_orthonormal_columns(cols)
    return np.sqrt(weights / total)[..., None] * cols.swapaxes(-1, -2)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a bipartite pure state.

    weights sum to one and come sorted descending; basis_a / basis_b hold the
    paired local vectors as columns, one per retained weight.
    """

    weights: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    rank: int


def schmidt_decompose(psi: BipartitePureState) -> SchmidtForm:
    """Schmidt decomposition with zero weights dropped.

    Weights are the squared singular values of the coefficient matrix;
    values below SCHMIDT_WEIGHT_CUTOFF are discarded. The A-side vectors are
    whatever the SVD returns, which at equal weights may be any rotation of
    the computational pairs; under the diagonal-marginal premise use
    schmidt_rows, which keeps every beta_i paired with |i>. The result is
    cached on the state.
    """
    if psi._schmidt is None:
        u, s, v = svd(psi.coefficient_matrix)
        weights = s.astype(float) ** 2
        keep = weights > SCHMIDT_WEIGHT_CUTOFF
        w = weights[keep]
        basis_a = u[:, keep].copy()
        basis_b = v.conj()[:, keep].copy()
        for arr in (w, basis_a, basis_b):
            arr.setflags(write=False)
        psi._schmidt = SchmidtForm(w, basis_a, basis_b, int(keep.sum()))
    return psi._schmidt


def require_premise(offdiag: float, tol: float = VALIDITY_ATOL) -> None:
    """Raise PremiseViolated unless A's marginal has off-diagonal weight below tol."""
    if offdiag >= tol:
        raise PremiseViolated(
            f"subsystem A starts with off-diagonal weight {offdiag:.3e}; "
            "claims 2-5 are stated for a diagonal A-marginal only"
        )


def require_premises(w: np.ndarray, tol: float = VALIDITY_ATOL) -> None:
    """require_premise for every coefficient matrix of w (..., dim_a, dim_b) at once."""
    require_premise(float(marginal_offdiag(w).max(initial=0.0)), tol)


def schmidt_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt B-vectors beta_i^T = W[i] / sqrt(w_i) of coefficient matrices w (..., dim_a, dim_b).

    Under the diagonal-marginal premise (check it with require_premise) row i
    of W is sqrt(w_i) beta_i, so beta_i is paired with |i> even at equal
    weights, where an SVD may return any rotation of the pairs. Rows with
    w_i at or below SCHMIDT_WEIGHT_CUTOFF come back as zeros; the second
    result, shape (..., dim_a), marks the rows kept.
    """
    weights = np.sum(np.abs(w) ** 2, axis=-1)
    keep = weights > SCHMIDT_WEIGHT_CUTOFF
    rows = np.divide(w, np.sqrt(weights)[..., None], out=np.zeros_like(w), where=keep[..., None])
    return rows, keep


def concurrence(psi: BipartitePureState) -> float:
    """Pure-state concurrence sqrt(2 (1 - tr(rho_A^2)))."""
    return float(batch_concurrence(psi.coefficient_matrix))


def batch_concurrence(w: np.ndarray) -> np.ndarray:
    """concurrence of normalized coefficient matrices stacked on leading axes."""
    rho_a = w @ w.conj().swapaxes(-1, -2)
    purity = np.einsum("...ii->...", rho_a @ rho_a).real
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))


def marginal_offdiag(w: np.ndarray) -> np.ndarray:
    """Largest off-diagonal modulus of W W^dagger, A's marginal, per leading index."""
    marginal = np.abs(w @ w.conj().swapaxes(-1, -2))
    diag = np.arange(marginal.shape[-1])
    marginal[..., diag, diag] = 0.0
    return marginal.max(axis=(-2, -1), initial=0.0)


def operator_matrix(state) -> np.ndarray:
    """Matrix of a DensityMatrix, or of a raw matrix through as_complex_matrix (not validated)."""
    return state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state)


def joint_matrix(state, dim_a: int | None, dim_b: int | None) -> np.ndarray:
    """Matrix of a joint operator on A (x) B, a DensityMatrix or a raw matrix (not validated).

    Raises ValueError when a dimension is missing or the matrix is not
    (dim_a * dim_b) square.
    """
    m = operator_matrix(state)
    if dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for density-matrix input")
    side = dim_a * dim_b
    if m.shape != (side, side):
        raise ValueError(f"operator side {m.shape} does not match dim_a*dim_b = {side}")
    return m


def reduced_a(state, dim_a: int | None = None, dim_b: int | None = None) -> DensityMatrix:
    """Marginal state of subsystem A.

    Pure states carry their own dimensions; density-matrix input needs
    explicit (dim_a, dim_b).
    """
    if isinstance(state, BipartitePureState):
        w = state.coefficient_matrix
        return DensityMatrix(w @ w.conj().T, validate=False)
    marg = partial_trace(joint_matrix(state, dim_a, dim_b), dim_a, dim_b, "A")
    return DensityMatrix(marg, validate=not isinstance(state, DensityMatrix))


def state_to_json(psi: BipartitePureState) -> dict:
    """JSON-ready dict {"dim_a", "dim_b", "amplitudes"} with [re, im] pairs."""
    return {
        "dim_a": psi.dim_a,
        "dim_b": psi.dim_b,
        "amplitudes": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
    }


def state_from_json(obj) -> BipartitePureState:
    """Inverse of state_to_json; ValueError messages name the offending field."""
    if not isinstance(obj, dict):
        raise ValueError("state value must be a JSON object")
    for key in ("dim_a", "dim_b", "amplitudes"):
        if key not in obj:
            raise ValueError(f"state object is missing field '{key}'")
    dim_a = json_positive_int(obj, "dim_a")
    dim_b = json_positive_int(obj, "dim_b")
    pairs = obj["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != dim_a * dim_b:
        raise ValueError(f"field 'amplitudes' must list dim_a*dim_b = {dim_a * dim_b} pairs")
    amp = complex_from_json_pairs(pairs, "amplitude")
    return BipartitePureState(dim_a, dim_b, amp)
