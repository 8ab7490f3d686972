"""Kraus operations on subsystem B and the coherence-creation criterion.

An operation $(rho) = sum_n F_n rho F_n^dagger is summarized, for everything
this package computes about subsystem A, by the single Hermitian operator
N = sum_n F_n^dagger F_n. Operations may be sub-normalized (post-selected
branches); a ChannelEnsemble groups such branches into a whole that is trace
preserving.
"""

from __future__ import annotations

import numpy as np

from .errors import NotTracePreserving
from .linalg import (
    VALIDITY_ATOL,
    as_complex_matrix,
    complete_orthonormal_basis,
    converted,
    frozen_eye,
    json_fields,
    matrix_from_json,
    matrix_to_json,
    positive_int,
    require_finite,
    require_orthonormal_columns,
)
from .states import BipartitePureState, require_premises, schmidt_rows

CREATION_ATOL = 1e-9

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class KrausOperation:
    """Quantum operation on B given by a list of Kraus operators.

    Validity only requires 0 <= N <= I for the summary operator
    N = sum_n F_n^dagger F_n, so trace-decreasing (post-selected) operations
    are first-class values here.
    """

    __slots__ = ("dim_b", "kraus", "label", "_factors", "_n", "_stack")

    def __init__(self, kraus, label: str = ""):
        mats = [as_complex_matrix(f) for f in kraus]
        if not mats:
            raise ValueError("at least one Kraus operator is required")
        d = mats[0].shape[0]
        for f in mats:
            if f.shape != (d, d):
                raise ValueError(f"Kraus operators must all be {d}x{d}, got shape {f.shape}")
        mats = np.array(mats)
        stack, n = branch_stacks(mats)
        for arr in (mats, stack, n):
            arr.setflags(write=False)
        self.dim_b = int(d)
        self.kraus = tuple(mats)
        self.label = label
        self._factors = mats
        self._n = n
        self._stack = stack

    def n_operator(self) -> np.ndarray:
        """Summary operator N = sum_n F_n^dagger F_n (read-only)."""
        return self._n

    def branch_n_stack(self) -> np.ndarray:
        """Stack of per-Kraus summaries F_n^dagger F_n, shape (n, d, d) (read-only)."""
        return self._stack

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"KrausOperation(dim_b={self.dim_b}, n_kraus={len(self.kraus)}{tag})"


class ChannelEnsemble:
    """Sub-normalized operations that together form a trace-preserving whole.

    Each member fires with its own probability on a given state; the members'
    summary operators must add to the identity within VALIDITY_ATOL, the
    test that averaging applies (identity_deviation).
    """

    __slots__ = ("dim_b", "operations", "_factors", "_stack")

    def __init__(self, operations):
        ops = tuple(operations)
        if not ops:
            raise ValueError("ensemble needs at least one operation")
        for op in ops:
            if not isinstance(op, KrausOperation):
                raise TypeError("ensemble members must be KrausOperation values")
            if op.dim_b != ops[0].dim_b:
                raise ValueError("ensemble members must share one B dimension")
        stack = np.array([op.n_operator() for op in ops])
        dev = identity_deviation(stack)
        if dev >= VALIDITY_ATOL:
            raise NotTracePreserving(
                f"member summary operators deviate from the identity by {dev:.3e}"
            )
        factors = np.zeros((len(ops), max(len(op.kraus) for op in ops)) + stack.shape[1:], dtype=np.complex128)
        for member, op in zip(factors, ops):
            member[: len(op.kraus)] = op._factors
        for arr in (factors, stack):
            arr.setflags(write=False)
        self.dim_b = int(ops[0].dim_b)
        self.operations = ops
        self._factors = factors
        self._stack = stack

    def branch_n_stack(self) -> np.ndarray:
        """Stack of member summary operators, shape (k, d, d) (read-only)."""
        return self._stack

    def __repr__(self) -> str:
        return f"ChannelEnsemble(dim_b={self.dim_b}, members={len(self.operations)})"


def channel_branches(channel, dim_b: int, *, post_selected: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Branch stack (K, d, d) and Kraus factors F (K, J, d, d) of channel, checked to act on a B of dimension dim_b.

    Branch k is sum_j F_kj^dagger F_kj. A KrausOperation has one branch F_n^dagger F_n per Kraus
    operator, factors (K, 1, d, d); a ChannelEnsemble one member N per member, its members' Kraus sets
    zero-padded to one width, stored when it is built. With post_selected, channel must be a single
    KrausOperation kept whole as one outcome: stack (1, d, d) holding N, factors (1, K, d, d). Raises
    TypeError for any other kind, then ValueError when channel.dim_b differs from dim_b.
    """
    kinds = KrausOperation if post_selected else (KrausOperation, ChannelEnsemble)
    if not isinstance(channel, kinds):
        expected = "KrausOperation" if post_selected else "KrausOperation or ChannelEnsemble"
        raise TypeError(f"expected {expected}, got {type(channel).__name__}")
    if channel.dim_b != dim_b:
        raise ValueError(f"channel dimension {channel.dim_b} does not match dim_b={dim_b}")
    if isinstance(channel, ChannelEnsemble):
        return channel.branch_n_stack(), channel._factors
    kraus = channel._factors
    return (channel.n_operator()[None], kraus[None]) if post_selected else (channel.branch_n_stack(), kraus[:, None])


def branch_sums(stacks: np.ndarray) -> np.ndarray:
    """sum_k N_k of branch stacks (..., K, d, d) in index order; zero padding adds exact zeros."""
    # 1x1 branches are never added pairwise (numpy's sum does so from K = 9 on).
    total = np.zeros(stacks.shape[:-3] + stacks.shape[-2:], dtype=stacks.dtype)
    for k in range(stacks.shape[-3]):
        total += stacks[..., k, :, :]
    return total


def identity_deviation(stacks: np.ndarray) -> float:
    """Largest entry of |sum_k N_k - I| over branch stacks (..., K, d, d); near 0 for trace-preserving wholes."""
    total = branch_sums(stacks)
    return float(np.abs(total - frozen_eye(total.shape[-1])).max(initial=0.0))


@np.errstate(over="ignore", invalid="ignore")  # as a decorator it costs about 1 us less per call than a with block
def branch_stacks(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branches F^dagger F (..., K, d, d) of Kraus sets kraus (..., K, d, d), and their sums N (..., d, d).

    N is summed in index order (branch_sums), symmetrized and checked by
    check_summaries; a product that overflows gives a non-finite N, not a warning.
    """
    stack = kraus.conj().swapaxes(-1, -2) @ kraus
    return stack, check_summaries(branch_sums(stack))


def check_summaries(n: np.ndarray) -> np.ndarray:
    """Symmetrize summary operators N stacked on leading axes and check 0 <= N <= I.

    Raises ValueError when an N holds a non-finite entry or an eigenvalue that
    leaves [0, 1] by more than VALIDITY_ATOL. Returns the symmetrized stack.
    """
    n = n + n.conj().swapaxes(-1, -2)
    n *= 0.5  # exact, as / 2 is
    require_finite(n, "summary operator")
    evals = np.linalg.eigvalsh(n)
    low, high = evals.min(initial=np.inf), evals.max(initial=-np.inf)
    if low < -VALIDITY_ATOL or high > 1.0 + VALIDITY_ATOL:
        raise ValueError(f"summary operator must satisfy 0 <= N <= I; spectrum spans [{low:.3e}, {high:.6f}]")
    return n


def is_trace_preserving(channel) -> bool:
    """True when the identity_deviation of the channel's branch stack is below VALIDITY_ATOL."""
    return identity_deviation(channel.branch_n_stack()) < VALIDITY_ATOL


def _check_unit_interval(name: str, value: float) -> float:
    v = converted(name, float, value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


def phase_damping(r) -> KrausOperation:
    """Qubit phase damping {diag(1, sqrt(1-r)), diag(0, sqrt(r))}."""
    r = _check_unit_interval("r", r)
    f1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]], dtype=np.complex128)
    f2 = np.array([[0.0, 0.0], [0.0, np.sqrt(r)]], dtype=np.complex128)
    return KrausOperation([f1, f2], label=f"phase_damping({r})")


def depolarizing(p) -> KrausOperation:
    """Qubit depolarizing channel, rho -> (1-p) rho + p I/2."""
    p = _check_unit_interval("p", p)
    k0 = np.sqrt(max(0.0, 1.0 - 3.0 * p / 4.0)) * np.eye(2, dtype=np.complex128)
    kp = np.sqrt(p / 4.0)
    return KrausOperation([k0, kp * _X, kp * _Y, kp * _Z], label=f"depolarizing({p})")


def _pauli_flip(name: str, p, pauli: np.ndarray) -> KrausOperation:
    p = _check_unit_interval("p", p)
    return KrausOperation([np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128), np.sqrt(p) * pauli], label=f"{name}({p})")


def bit_flip(p) -> KrausOperation:
    """Qubit bit flip {sqrt(1-p) I, sqrt(p) X}."""
    return _pauli_flip("bit_flip", p, _X)


def phase_flip(p) -> KrausOperation:
    """Qubit phase flip {sqrt(1-p) I, sqrt(p) Z}."""
    return _pauli_flip("phase_flip", p, _Z)


def bit_phase_flip(p) -> KrausOperation:
    """Qubit bit-phase flip {sqrt(1-p) I, sqrt(p) Y}."""
    return _pauli_flip("bit_phase_flip", p, _Y)


def projective_measurement(basis) -> ChannelEnsemble:
    """Ensemble of rank-1 projectors onto the given orthonormal basis columns."""
    b = as_complex_matrix(basis)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"basis must be square, got shape {b.shape}")
    require_orthonormal_columns(b)
    ops = [
        KrausOperation([np.outer(b[:, k], b[:, k].conj())], label=f"project[{k}]")
        for k in range(b.shape[1])
    ]
    return ChannelEnsemble(ops)


def creation_witnesses(w: np.ndarray, n_ops: np.ndarray) -> np.ndarray:
    """creates_coherence of states w (n, dim_a, dim_b) under summary operators n_ops (n, dim_b, dim_b).

    P = rows^T rows^* projects onto the support of B's marginal (the rows of
    states.schmidt_rows). Entry n is the smallest row i whose outer product
    W[i]^T W[i]^* fails to commute with P N P (bracket norm above
    CREATION_ATOL), or -1 when the operation is inert. Raises
    PremiseViolated unless every A-marginal is diagonal (require_premises).
    """
    require_premises(w)
    rows, _ = schmidt_rows(w)
    proj = rows.swapaxes(-1, -2) @ rows.conj()
    n = (proj @ n_ops @ proj)[:, None]
    blocks = w[..., None] * w.conj()[..., None, :]
    failing = np.linalg.norm(n @ blocks - blocks @ n, axis=(-2, -1)) > CREATION_ATOL
    return np.where(failing.any(axis=-1), failing.argmax(axis=-1), -1)


def creates_coherence(psi: BipartitePureState, op: KrausOperation) -> tuple[bool, int | None]:
    """Decide whether op can hand subsystem A nonzero coherence: creation_witnesses for one pair.

    Returns (True, witness), witness the smallest failing row, or (False, None) when op is inert.
    """
    n, _ = channel_branches(op, psi.dim_b, post_selected=True)
    witness = int(creation_witnesses(psi.coefficient_matrix[None], n)[0])
    return (True, witness) if witness >= 0 else (False, None)


def inert_operation(psi: BipartitePureState, n_values) -> KrausOperation:
    """Single-Kraus operation diagonal in psi's Schmidt B-basis.

    Builds N = sum_i n_i |b_i><b_i| with the b_i running over the Schmidt
    vectors (descending weight, stable among equal weights) and then a
    deterministic completion of the basis; n_values must cover at least the
    Schmidt rank and any directions beyond the provided values get
    coefficient 0. The Kraus operator is the PSD square root of N, so the
    operation never creates coherence on A for this state. Like
    creates_coherence it requires a diagonal A-marginal (PremiseViolated
    otherwise).
    """
    vals = converted("n_values", np.asarray, n_values, dtype=float).reshape(-1)
    if np.isnan(vals).any():  # None converts to NaN
        raise ValueError(f"n_values must be numeric: got {n_values!r}")
    if vals.size == 0:
        raise ValueError("n_values must not be empty")
    if float(vals.min()) < 0.0 or float(vals.max()) > 1.0:
        raise ValueError(f"all values must lie in [0, 1], got range [{vals.min()}, {vals.max()}]")
    require_premises(psi.coefficient_matrix)
    rows, keep = schmidt_rows(psi.coefficient_matrix)
    pairs = rows[keep].T
    weights = np.sum(np.abs(psi.coefficient_matrix[keep]) ** 2, axis=1)
    if vals.size < pairs.shape[1]:
        raise ValueError(f"need at least {pairs.shape[1]} values (the Schmidt rank), got {vals.size}")
    if vals.size > psi.dim_b:
        raise ValueError(f"at most dim_b = {psi.dim_b} values are meaningful, got {vals.size}")
    basis = complete_orthonormal_basis(pairs[:, np.argsort(-weights, kind="stable")], psi.dim_b)
    coeffs = np.zeros(psi.dim_b)
    coeffs[: vals.size] = vals
    root = (basis * np.sqrt(coeffs)) @ basis.conj().T
    return KrausOperation([root], label="inert")


def kraus_operation_to_json(op: KrausOperation) -> dict:
    """JSON-ready dict {"dim_b", "label", "kraus"} in the matrix format."""
    return {
        "dim_b": op.dim_b,
        "label": op.label,
        "kraus": [matrix_to_json(f) for f in op.kraus],
    }


def ensemble_to_json(ensemble: ChannelEnsemble) -> dict:
    """JSON-ready dict {"operations": [...]} of member operations."""
    return {"operations": [kraus_operation_to_json(op) for op in ensemble.operations]}


def kraus_operation_from_json(obj) -> KrausOperation:
    """Inverse of kraus_operation_to_json with field-named errors."""
    dim_b, mats = json_fields(obj, "channel", ("dim_b", "kraus"))
    dim_b = positive_int("field 'dim_b'", dim_b)
    if not isinstance(mats, list) or not mats:
        raise ValueError("field 'kraus' must be a non-empty list of matrices")
    kraus = [matrix_from_json(m) for m in mats]
    for k, f in enumerate(kraus):
        if f.shape != (dim_b, dim_b):
            raise ValueError(f"kraus[{k}] has shape {f.shape}, expected ({dim_b}, {dim_b})")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError("field 'label' must be a string")
    return KrausOperation(kraus, label=label)


def ensemble_from_json(obj) -> ChannelEnsemble:
    """Inverse of ensemble_to_json with field-named errors."""
    if not isinstance(obj, dict) or "operations" not in obj:
        raise ValueError("ensemble object must carry an 'operations' list")
    ops = obj["operations"]
    if not isinstance(ops, list) or not ops:
        raise ValueError("field 'operations' must be a non-empty list")
    return ChannelEnsemble([kraus_operation_from_json(o) for o in ops])


def channel_from_json(obj):
    """Load either a single operation or an ensemble, keyed by its fields."""
    if isinstance(obj, dict) and "operations" in obj:
        return ensemble_from_json(obj)
    return kraus_operation_from_json(obj)
