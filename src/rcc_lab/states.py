"""Bipartite pure and mixed quantum states.

Subsystem A's reference basis is the computational basis everywhere in this
package. The claims read a state's Schmidt vectors off the rows of its
coefficient matrix (schmidt_rows), which keeps each beta_i paired with |i>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadTrace, NotHermitian, NotPositive, PremiseViolated
from .linalg import (
    VALIDITY_ATOL,
    as_complex_matrix,
    converted,
    frozen_eye,
    joint_dims,
    json_fields,
    json_pairs,
    matrix_to_json,
    partial_trace,
    positive_int,
    require_finite,
    require_orthonormal_columns,
    stack_sum,
)

# Schmidt weights below this are treated as exact zeros and dropped, so the
# normalized B-side vectors never divide by a vanishing weight.
SCHMIDT_WEIGHT_CUTOFF = 1e-12

# Smallest stack on which check_densities tries the Gershgorin bound before eigvalsh.
GERSHGORIN_MIN_STACK = 64


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator.

    validate runs check_densities, then rescales the trace to exactly one.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, *, validate: bool = True):
        m = operator_matrix(matrix)
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
    A non-finite entry fails the first check. Returns the traces.
    """
    # (m + m^dagger) / 2 is built in place as m + (m^dagger - m) / 2, finite once the Hermiticity check passes.
    mh = np.conjugate(m.swapaxes(-1, -2), order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        mh -= m
        herm = float(np.abs(mh).max(initial=0.0))
    if not herm <= VALIDITY_ATOL:
        raise NotHermitian(f"max |m - m^dagger| = {herm:.3e} exceeds tolerance {VALIDITY_ATOL}")
    mh /= 2
    mh += m
    return check_traces_and_positivity(m, mh)


def check_traces_and_positivity(m: np.ndarray, mh: np.ndarray | None = None) -> np.ndarray:
    """The traces of m, after check_densities' trace and positivity checks on m and mh = (m + m^dagger) / 2.

    Without mh, m must be exactly Hermitian, as (u + u^dagger) / 2 is; a failing check then reruns as
    check_densities(m), so a non-finite entry still raises NotHermitian. Positivity of a stack of GERSHGORIN_MIN_STACK
    matrices or more is certified by the Gershgorin bound min_i (2 m_ii - sum_j |m_ij|) where it can, else by eigvalsh.
    """
    h = m if mh is None else mh
    traces = stack_sum(m.diagonal(0, -2, -1))
    trace_dev = float(np.abs(traces - 1.0).max(initial=0.0))
    try:
        if not trace_dev <= VALIDITY_ATOL:
            raise BadTrace(f"trace deviates from 1 by {trace_dev:.3e}")
        # The bound costs a few microseconds per call, which only a large stack repays.
        if h.size < GERSHGORIN_MIN_STACK * h.shape[-1] ** 2 or not (
            (2 * h.real.diagonal(0, -2, -1) - stack_sum(np.abs(h))).min(initial=np.inf) >= -VALIDITY_ATOL
        ):
            low = float(np.linalg.eigvalsh(h).min(initial=np.inf))
            if not low >= -VALIDITY_ATOL:
                raise NotPositive(f"minimum eigenvalue {low:.3e} is below -{VALIDITY_ATOL}")
    except (BadTrace, NotPositive, np.linalg.LinAlgError):
        if mh is None:
            check_densities(m)
        raise
    return traces


class BipartitePureState:
    """Pure state on H_A (x) H_B stored over the computational product basis.

    Amplitude index i * dim_b + j holds the coefficient of |i>|j>. Vectors
    within 1e-9 of unit norm are renormalized exactly; anything worse is
    rejected.
    """

    __slots__ = ("dim_a", "dim_b", "amplitudes")

    def __init__(self, dim_a: int, dim_b: int, amplitudes):
        dim_a, dim_b = positive_int("dim_a", dim_a), positive_int("dim_b", dim_b)
        amp = converted("amplitudes", np.asarray, amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size != dim_a * dim_b:
            raise ValueError(f"amplitudes must have dim_a*dim_b = {dim_a * dim_b} entries, got {amp.size}")
        amp = unit_amplitudes(amp)
        amp.setflags(write=False)
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.amplitudes = amp

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
        coeff = schmidt_coefficients(converted("weights", np.asarray, weights, dtype=float).reshape(-1), basis)
        return cls(*coeff.shape, coeff.reshape(-1))


@np.errstate(over="ignore")
def unit_amplitudes(amp: np.ndarray) -> np.ndarray:
    """Amplitude vectors (last axis) divided by their norms, by np.linalg.norm's formula for one axis.

    Rejects non-finite entries and any vector whose norm is off 1 by more
    than VALIDITY_ATOL; finite entries whose squares overflow give an infinite norm.
    """
    norm = np.sqrt(np.add.reduce((require_finite(amp, "amplitudes").conj() * amp).real, axis=-1, keepdims=True))
    if not np.abs(norm - 1.0).max(initial=0.0) <= VALIDITY_ATOL:
        worst = float(norm.flat[np.argmax(np.abs(norm - 1.0))])
        raise ValueError(f"amplitude norm {worst:.12g} deviates from 1 beyond {VALIDITY_ATOL}")
    return amp / norm


def schmidt_coefficients(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficient matrices sqrt(w_i) beta_i^T of sum_i sqrt(w_i) |i>|beta_i>.

    weights (..., k) are normalized to unit sum; basis (..., dim_b, m) holds
    one orthonormal column per weight (extra columns are ignored). Leading
    axes are batch axes. The result is not normalized as a vector.
    """
    if weights.shape[-1] < 1 or (weights < 0).any():
        raise ValueError("weights must be non-negative and non-empty")
    with np.errstate(over="ignore"):
        total = weights.sum(axis=-1, keepdims=True)
    if not np.isfinite(total).all():  # non-negative weights: an infinite or NaN weight, or an overflowing sum
        raise ValueError("weights must be finite, with a finite sum")
    if (total <= 0).any():
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
    """Schmidt decomposition by an SVD of the coefficient matrix, weights at or below SCHMIDT_WEIGHT_CUTOFF dropped.

    Weights come sorted descending. Each A-side vector's largest-modulus entry (the
    first on ties) is made real positive, its B-side partner taking the conjugate
    phase. At equal weights the A-side vectors may be any rotation of the
    computational pairs; under the diagonal-marginal premise use schmidt_rows.
    """
    u, s, vh = np.linalg.svd(psi.coefficient_matrix, full_matrices=False)
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    # hypot, as abs() of one complex scalar computes it; np.abs of an array can differ in the last bit.
    mod = np.hypot(top.real, top.imag)
    phase = np.conj(np.divide(top, mod, out=np.ones_like(top), where=mod >= 1e-300))
    u *= phase
    v = vh.conj().T * phase
    weights = s**2
    keep = weights > SCHMIDT_WEIGHT_CUTOFF
    form = SchmidtForm(weights[keep], u[:, keep], v.conj()[:, keep], int(keep.sum()))
    for arr in (form.weights, form.basis_a, form.basis_b):
        arr.setflags(write=False)
    return form


def require_premises(w: np.ndarray) -> np.ndarray:
    """A-marginals W W^dagger of w (..., dim_a, dim_b); PremiseViolated unless each is diagonal within VALIDITY_ATOL."""
    rho_a = w @ w.conj().swapaxes(-1, -2)
    # The diagonal is left out by selection: a product would turn an infinite diagonal entry into NaN, which passes.
    offdiag = float(np.abs(rho_a).max(initial=0.0, where=~frozen_eye(w.shape[-2], bool)))
    if offdiag >= VALIDITY_ATOL:
        raise PremiseViolated(
            f"subsystem A starts with off-diagonal weight {offdiag:.3e}; "
            "claims 2-5 are stated for a diagonal A-marginal only"
        )
    return rho_a


def schmidt_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt B-vectors beta_i^T = W[i] / sqrt(w_i) of coefficient matrices w (..., dim_a, dim_b).

    Under the diagonal-marginal premise (check it with require_premises) row i
    of W is sqrt(w_i) beta_i, so beta_i is paired with |i> even at equal
    weights, where an SVD may return any rotation of the pairs. Rows with
    w_i at or below SCHMIDT_WEIGHT_CUTOFF come back as zeros; the second
    result, shape (..., dim_a), marks the rows kept.
    """
    weights = (np.abs(w) ** 2).sum(axis=-1)
    keep = weights > SCHMIDT_WEIGHT_CUTOFF
    rows = np.divide(w, np.sqrt(weights)[..., None], out=np.zeros(w.shape, w.dtype), where=keep[..., None])
    return rows, keep


def concurrence(psi: BipartitePureState) -> float:
    """Pure-state concurrence sqrt(2 (1 - tr(rho_A^2)))."""
    return float(batch_concurrence(psi.coefficient_matrix))


def batch_concurrence(w: np.ndarray) -> np.ndarray:
    """concurrence of normalized coefficient matrices stacked on leading axes."""
    return _marginal_concurrence(w @ w.conj().swapaxes(-1, -2))


def _marginal_concurrence(rho_a: np.ndarray) -> np.ndarray:
    # sqrt(2 (1 - tr(rho_A^2))) of A-marginals rho_a (..., d, d), as require_premises returns them.
    purity = np.einsum("...ii->...", rho_a @ rho_a).real
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))


def operator_matrix(state) -> np.ndarray:
    """Matrix of a DensityMatrix, or of a raw square matrix through as_complex_matrix (not validated)."""
    m = state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    return m


def joint_matrix(state, dim_a: int | None, dim_b: int | None) -> np.ndarray:
    """Matrix of a joint operator on A (x) B, a DensityMatrix or a raw matrix (not validated).

    Raises ValueError when a dimension is missing or the matrix is not
    (dim_a * dim_b) square.
    """
    m = operator_matrix(state)
    if dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for density-matrix input")
    joint_dims(m, dim_a, dim_b)
    return m


def reduced_a(state, dim_a: int | None = None, dim_b: int | None = None) -> DensityMatrix:
    """Marginal state of subsystem A.

    Pure states carry their own dimensions; density-matrix input needs
    explicit (dim_a, dim_b).
    """
    if isinstance(state, BipartitePureState):
        w = state.coefficient_matrix
        return DensityMatrix(w @ w.conj().T, validate=False)
    marg = partial_trace(joint_matrix(state, dim_a, dim_b), dim_a, dim_b)
    return DensityMatrix(marg, validate=not isinstance(state, DensityMatrix))


def state_to_json(psi: BipartitePureState) -> dict:
    """JSON-ready dict {"dim_a", "dim_b", "amplitudes"} with [re, im] pairs, in matrix_to_json's encoding."""
    return {"dim_a": psi.dim_a, "dim_b": psi.dim_b, "amplitudes": matrix_to_json(psi.coefficient_matrix)["entries"]}


def state_from_json(obj) -> BipartitePureState:
    """Inverse of state_to_json; ValueError messages name the offending field."""
    dim_a, dim_b, _ = json_fields(obj, "state", ("dim_a", "dim_b", "amplitudes"))
    dim_a, dim_b = positive_int("field 'dim_a'", dim_a), positive_int("field 'dim_b'", dim_b)
    return BipartitePureState(dim_a, dim_b, json_pairs(obj, "amplitudes", dim_a * dim_b, "dim_a*dim_b", "amplitude"))
