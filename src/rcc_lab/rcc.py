"""Remote-coherence engine.

Everything subsystem A can gain from an operation on B is driven by the
operation's summary operator N: the unnormalized conditional state of A is
W N^T W^dagger for a pure state with coefficient matrix W, and the matching
contraction of the joint density matrix in the mixed case. On top of that
single contraction this module builds per-outcome records, channel averages,
the upper bounds relating averages to entanglement, and the two-qubit
factorization law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelEnsemble, KrausOperation, is_trace_preserving
from .coherence import is_incoherent_quantum, l1_coherence
from .errors import (
    NotTracePreserving,
    SearchExhausted,
    WrongDimension,
    ZeroProbability,
)
from .linalg import (
    VALIDITY_ATOL,
    as_complex_matrix,
    complete_orthonormal_basis,
    matrix_to_json,
)
from .states import (
    BipartitePureState,
    DensityMatrix,
    batch_concurrence,
    check_densities,
    concurrence,
    require_premise,
    require_premises,
    schmidt_rows,
    unit_amplitudes,
)

# Branches with probability below this cutoff have no conditional state; in
# averages they contribute exactly zero and are flagged instead of raising.
ZERO_PROBABILITY_CUTOFF = 1e-14

# Denominator cutoff for the factorization ratio.
RATIO_DENOMINATOR_CUTOFF = 1e-12

FACTORIZATION_ATOL = 1e-9

# A's coherence the converse witness (find_creating_operation) must exceed.
CONVERSE_COHERENCE_TARGET = 1e-6

_NOT_WHOLE = (
    "averaging needs a trace-preserving channel; wrap post-selected "
    "operations into a ChannelEnsemble instead"
)


@dataclass(frozen=True)
class OutcomeRecord:
    """One post-selected branch: probability, A's state, its coherence."""

    probability: float
    state_a: DensityMatrix | None
    coherence: float
    zero_probability: bool = False


@dataclass(frozen=True)
class RccReport:
    """Per-outcome and aggregate results for one (state, channel) pair.

    lemma1_bounds aligns with outcomes (0.0 for flagged zero-probability
    branches). factorization_ratio is populated only for 2x2 systems with a
    nonvanishing maximally-entangled average.
    """

    outcomes: tuple[OutcomeRecord, ...]
    average_rcc: float
    entanglement: float
    lemma1_bounds: tuple[float, ...]
    theorem3_bound: float
    tighter_bound: float
    maxent_average_rcc: float
    factorization_ratio: float | None


def _branch_stack(channel) -> np.ndarray:
    if isinstance(channel, (KrausOperation, ChannelEnsemble)):
        return channel.branch_n_stack()
    raise TypeError(f"expected KrausOperation or ChannelEnsemble, got {type(channel).__name__}")


def _require_whole_channel(dim_b: int, channel) -> None:
    if channel.dim_b != dim_b:
        raise ValueError(f"channel dimension {channel.dim_b} does not match dim_b={dim_b}")
    if isinstance(channel, KrausOperation) and not is_trace_preserving(channel):
        raise NotTracePreserving(_NOT_WHOLE)


def _one_pair(psi: BipartitePureState, channel) -> tuple[np.ndarray, np.ndarray]:
    # psi's coefficient matrix and the channel's branch stack as one-element
    # stacks, the input of the stacked routines.
    if channel.dim_b != psi.dim_b:
        raise ValueError(f"channel dimension {channel.dim_b} does not match dim_b={psi.dim_b}")
    return psi.coefficient_matrix[None], _branch_stack(channel)[None]


def _require_trace_preserving(stacks: np.ndarray) -> None:
    # The branches of each whole channel, stacks (..., K, db, db), add up to I.
    total = stacks.sum(axis=-3)
    if float(np.abs(total - np.eye(total.shape[-1])).max(initial=0.0)) >= VALIDITY_ATOL:
        raise NotTracePreserving(_NOT_WHOLE)


def _unnormalized_branches(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # W N_k^T W^dagger for every state W in w (..., da, db) and every branch
    # N_k of stack. A stack (p, db, db) is shared by all states; a stack
    # (n, p, db, db) gives each state of w (n, da, db) its own branches. The
    # result has w's leading axes, then p, then (da, da). [W N_1^T | W N_2^T
    # | ...] is one matrix product (for all states at once when shared),
    # then one batched product per state; each state's numbers do not depend
    # on how many states share the call.
    da, db = w.shape[-2:]
    n = w.size // (da * db)
    p = stack.shape[-3]
    states = w.reshape(n, da, db)
    if stack.ndim == 3:
        wn = states.reshape(n * da, db) @ stack.reshape(p * db, db).T
    else:
        wn = states @ stack.reshape(n, p * db, db).swapaxes(1, 2)
    out = wn.reshape(n, da * p, db) @ states.conj().swapaxes(1, 2)
    return out.reshape(n, da, p, da).swapaxes(1, 2).reshape(w.shape[:-2] + (p, da, da))


def _mixed_branches(r4: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # tr_B[(I (x) N_p) rho] for joint states r4 (..., da, db, da, db) and
    # branches N_p in stack (p, db, db); the result has shape (..., p, da, da).
    return np.einsum("...ijkl,plj->...pik", r4, stack)


def _conditional_states(unnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities and zero-probability mask, shape (...), of branches unnorm (..., d, d).

    Also returns the conditional states (kept, d, d) of the branches at or above
    ZERO_PROBABILITY_CUTOFF, in order: divided by their probability, symmetrized,
    validated (check_densities) and renormalized to unit trace, as DensityMatrix does.
    """
    probs = unnorm.trace(axis1=-2, axis2=-1).real
    zero = probs < ZERO_PROBABILITY_CUTOFF
    kept = ~zero
    states = unnorm[kept] / probs[kept][:, None, None]
    states = (states + states.conj().swapaxes(-1, -2)) / 2
    return probs, zero, states / check_densities(states).real[:, None, None]


def _offdiag_mass(unnorm: np.ndarray) -> np.ndarray:
    # sum_k p_k C(rho_k) is the off-diagonal modulus sum of the unnormalized
    # branch states (..., K, d, d), so vanishing branches contribute zero by
    # themselves.
    mods = np.abs(unnorm)
    return mods.sum(axis=(-3, -2, -1)) - np.einsum("...kii->...", mods)


def _lemma1_norms(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    # sqrt(sum_{j<i} |G[j, i]|^2) per state of w (n, da, db) and branch N_k
    # of its stack (n, K, db, db), with G[j, i] = <beta_j| N_k |beta_i> over
    # the Schmidt B-vectors from the rows of W (states.schmidt_rows), which
    # need the diagonal-marginal premise. Rows at or below
    # SCHMIDT_WEIGHT_CUTOFF are zero and add nothing.
    rows, _ = schmidt_rows(w)
    g = rows.conj()[:, None] @ stacks @ rows.swapaxes(-1, -2)[:, None]
    return np.sqrt(np.sum(np.abs(np.triu(g, 1)) ** 2, axis=(-2, -1)))


def branch_averages(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """average_coherence of each state of w (n, da, db) under its own channel, shape (n,).

    Each channel is given by its branch stack (n, K, db, db): the per-Kraus
    F^dagger F of a trace-preserving operation or the member summary
    operators of an ensemble. Zero branches padding a stack add 0. Raises
    PremiseViolated and NotTracePreserving as average_coherence does.
    """
    require_premises(w)
    _require_trace_preserving(stacks)
    return _offdiag_mass(_unnormalized_branches(w, stacks))


def average_coherences(w: np.ndarray, channels) -> np.ndarray:
    """average_coherence for many states against many channels at once.

    w stacks normalized coefficient matrices, shape (n, dim_a, dim_b); the
    channels must all have the same number of outcomes. Returns shape
    (n, len(channels)). The checks and errors are those of average_coherence.
    """
    da, db = w.shape[-2:]
    require_premises(w)
    for channel in channels:
        _require_whole_channel(db, channel)
    stacks = np.stack([_branch_stack(channel) for channel in channels])
    unnorm = _unnormalized_branches(w, stacks.reshape(-1, db, db))
    return _offdiag_mass(unnorm.reshape(w.shape[:-2] + stacks.shape[:2] + (da, da)))


def maximally_entangled_partners(w: np.ndarray) -> np.ndarray:
    """Coefficient matrices of maximally_entangled_partner for states w (n, da, db).

    Row i is beta_i^T / sqrt(da), before the renormalization that
    BipartitePureState (or states.unit_amplitudes) applies.
    """
    n, d, db = w.shape
    if db < d:
        raise WrongDimension(f"partner needs dim_b >= dim_a, got {db} < {d}")
    require_premises(w)
    rows, keep = schmidt_rows(w)
    for i in np.flatnonzero(~keep.all(axis=1)):
        basis = rows[i, keep[i]].T
        rows[i, ~keep[i]] = complete_orthonormal_basis(basis, db)[:, basis.shape[1] : d].T
    return rows / np.sqrt(d)


def outcome_coherence_bounds(w: np.ndarray, n_ops: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """outcome_coherence_bound of paired states and operations, shape (n,).

    w (n, da, db) holds the states, n_ops (n, db, db) the summary operators
    N and probs (n,) the branch probabilities, all at or above
    ZERO_PROBABILITY_CUTOFF. Raises PremiseViolated as the scalar route does.
    """
    require_premises(w)
    return _outcome_bounds(w, n_ops, probs)


def _outcome_bounds(w: np.ndarray, n_ops: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return batch_concurrence(w) / probs * _lemma1_norms(w, n_ops[:, None])[:, 0]


def tight_average_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """tight_average_bound of each state of w (n, da, db) and its branch stack (n, K, db, db)."""
    require_premises(w)
    return _tight_bounds(w, stacks)


def _tight_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    _require_trace_preserving(stacks)
    return batch_concurrence(w) * _lemma1_norms(w, stacks).sum(axis=-1)


def average_coherence_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """average_coherence_bound of each state of w (n, da, db) and its branch stack (n, K, db, db).

    For two qubits this is E times the partner average, the right-hand side
    of the factorization law.
    """
    partners = maximally_entangled_partners(w)
    _require_trace_preserving(stacks)
    partners = unit_amplitudes(partners.reshape(len(w), -1)).reshape(w.shape)
    return w.shape[-2] / 2 * batch_concurrence(w) * _offdiag_mass(_unnormalized_branches(partners, stacks))


def post_operation_state_a(state, op: KrausOperation, dim_a=None, dim_b=None):
    """Conditional state of A after op post-selects on B, with its probability.

    Pure inputs contract the coefficient matrix, rho' = W N^T W^dagger / p;
    density-matrix inputs (which need explicit dims) contract the joint state
    with N directly. Raises ZeroProbability when the branch has essentially
    no support on the state.
    """
    n = op.n_operator()[None]
    if isinstance(state, BipartitePureState):
        if op.dim_b != state.dim_b:
            raise ValueError(f"operation dimension {op.dim_b} does not match dim_b={state.dim_b}")
        unnorm = _unnormalized_branches(state.coefficient_matrix, n)
    else:
        raw = state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state)
        if dim_a is None or dim_b is None:
            raise ValueError("dim_a and dim_b are required for density-matrix input")
        if raw.shape[0] != dim_a * dim_b:
            raise ValueError(
                f"operator side {raw.shape[0]} does not match dim_a*dim_b = {dim_a * dim_b}"
            )
        if op.dim_b != dim_b:
            raise ValueError(f"operation dimension {op.dim_b} does not match dim_b={dim_b}")
        unnorm = _mixed_branches(raw.reshape(dim_a, dim_b, dim_a, dim_b), n)
    probs, zero, states = _conditional_states(unnorm)
    prob = float(probs[0])
    if zero[0]:
        raise ZeroProbability(f"branch probability {prob:.3e} is below {ZERO_PROBABILITY_CUTOFF}")
    return DensityMatrix(states[0], validate=False), prob


def average_coherence(psi: BipartitePureState, channel) -> float:
    """Average coherence gained by A, sum_n p_n C(rho_n).

    Outcomes are single Kraus operators for a trace-preserving operation and
    whole member operations for an ensemble. Since p_n C(rho_n) is just the
    off-diagonal modulus sum of the unnormalized branch state, vanishing
    branches contribute zero without any special casing.
    """
    require_premise(psi.marginal_offdiag())
    _require_whole_channel(psi.dim_b, channel)
    return float(_offdiag_mass(_unnormalized_branches(psi.coefficient_matrix, _branch_stack(channel))))


def maximally_entangled_partner(psi: BipartitePureState) -> BipartitePureState:
    """Equal-weight state sum_i |i>|beta_i> / sqrt(dim_a) over psi's Schmidt pairs.

    beta_i = W[i] / sqrt(w_i) needs the diagonal-marginal premise
    (PremiseViolated otherwise). Rows with a weight at or below
    SCHMIDT_WEIGHT_CUTOFF take the next vectors of a deterministic completion
    of the B-basis, so the partner is always full rank. Its A-marginal is
    I/d, hence always incoherent.
    """
    rows = maximally_entangled_partners(psi.coefficient_matrix[None])
    return BipartitePureState(psi.dim_a, psi.dim_b, rows.reshape(-1))


def outcome_coherence_bound(psi: BipartitePureState, op: KrausOperation) -> float:
    """Upper bound (E / p') sqrt(sum_{j<i} |N_ji|^2) on one branch's coherence.

    N_ji is evaluated in psi's Schmidt B-basis, which needs A's marginal to
    start diagonal (PremiseViolated otherwise).
    """
    if op.dim_b != psi.dim_b:
        raise ValueError(f"operation dimension {op.dim_b} does not match dim_b={psi.dim_b}")
    w = psi.coefficient_matrix[None]
    n = op.n_operator()[None]
    probs = _unnormalized_branches(w, n[:, None])[:, 0].trace(axis1=-2, axis2=-1).real
    if probs[0] < ZERO_PROBABILITY_CUTOFF:
        raise ZeroProbability(f"branch probability {probs[0]:.3e} is below {ZERO_PROBABILITY_CUTOFF}")
    require_premise(psi.marginal_offdiag())
    return float(_outcome_bounds(w, n, probs)[0])


def average_coherence_bound(psi: BipartitePureState, channel) -> float:
    """Average bound (dim_a / 2) * E * average_coherence of the partner."""
    return float(average_coherence_bounds(*_one_pair(psi, channel))[0])


def tight_average_bound(psi: BipartitePureState, channel) -> float:
    """Branch-resolved average bound E * sum_k sqrt(sum_{j<i} |N^k_ji|^2).

    Never exceeds average_coherence_bound (up to rounding) and both dominate
    the achieved average.
    """
    w, stacks = _one_pair(psi, channel)
    require_premise(psi.marginal_offdiag())
    return float(_tight_bounds(w, stacks)[0])


def average_rcc(psi: BipartitePureState, channel) -> RccReport:
    """Full per-outcome report for a trace-preserving channel or ensemble.

    Zero-probability branches are kept in the outcome list, flagged, and
    contribute zero to the average and to the bound list.
    """
    require_premise(psi.marginal_offdiag())
    _require_whole_channel(psi.dim_b, channel)
    stack = _branch_stack(channel)
    probs, zero, states = _conditional_states(_unnormalized_branches(psi.coefficient_matrix, stack))
    ent = concurrence(psi)
    offdiag = _lemma1_norms(psi.coefficient_matrix[None], stack[None])[0]

    outcomes: list[OutcomeRecord] = []
    bounds: list[float] = []
    kept_states = iter(states)
    for prob, flagged, branch_offdiag in zip(probs.tolist(), zero.tolist(), offdiag):
        if flagged:
            outcomes.append(OutcomeRecord(prob, None, 0.0, zero_probability=True))
            bounds.append(0.0)
            continue
        state_a = DensityMatrix(next(kept_states), validate=False)
        outcomes.append(OutcomeRecord(prob, state_a, l1_coherence(state_a)))
        bounds.append(float(ent / prob * branch_offdiag))

    average = float(sum(o.probability * o.coherence for o in outcomes))
    partner = maximally_entangled_partner(psi)
    maxent_average = average_coherence(partner, channel)
    bound_via_partner = float(psi.dim_a / 2 * ent * maxent_average)
    tight = float(ent * offdiag.sum())
    ratio = None
    if psi.dim_a == 2 and psi.dim_b == 2 and maxent_average > RATIO_DENOMINATOR_CUTOFF:
        ratio = float(average / maxent_average)
    return RccReport(
        outcomes=tuple(outcomes),
        average_rcc=average,
        entanglement=ent,
        lemma1_bounds=tuple(bounds),
        theorem3_bound=bound_via_partner,
        tighter_bound=tight,
        maxent_average_rcc=maxent_average,
        factorization_ratio=ratio,
    )


def factorization_check(psi: BipartitePureState, channel) -> tuple[float | None, bool]:
    """Two-qubit factorization law: average equals E times the partner average.

    Returns (ratio, holds); the ratio is None when the partner average
    vanishes, in which case the law holds exactly when the average itself
    vanishes.
    """
    if psi.dim_a != 2 or psi.dim_b != 2:
        raise WrongDimension(
            f"factorization law is a 2x2 statement, got {psi.dim_a}x{psi.dim_b}"
        )
    average = average_coherence(psi, channel)
    ent = concurrence(psi)
    maxent_average = average_coherence(maximally_entangled_partner(psi), channel)
    if maxent_average > RATIO_DENOMINATOR_CUTOFF:
        ratio = average / maxent_average
        return float(ratio), bool(abs(average - ent * maxent_average) < FACTORIZATION_ATOL)
    return None, bool(average < FACTORIZATION_ATOL)


def find_creating_operation(rho_ab, dim_a: int, dim_b: int) -> KrausOperation | None:
    """B-side projector that creates coherence on A: the converse of Theorem 1.

    Returns None exactly when the state is block-diagonal in A's basis (then
    no operation can succeed). Otherwise S = V L^(-1/2) whitens B's marginal
    on its support, and beta = S v / |S v| for v the eigenvector of largest
    |eigenvalue| over the Hermitian and anti-Hermitian parts of every
    S^dagger X_ik S, X_ik = (<i| (x) I) rho (|k> (x) I), i < k: the most
    coherence per unit branch probability that any one part allows. Raises
    SearchExhausted (attempts=1) when it stays below CONVERSE_COHERENCE_TARGET.
    """
    dm = rho_ab if isinstance(rho_ab, DensityMatrix) else DensityMatrix(rho_ab)
    if dm.dim != dim_a * dim_b:
        raise ValueError(f"operator side {dm.dim} does not match dim_a*dim_b = {dim_a * dim_b}")
    if is_incoherent_quantum(dm, dim_a, dim_b):
        return None
    blocks = dm.matrix.reshape(dim_a, dim_b, dim_a, dim_b).swapaxes(1, 2)
    weights, basis = np.linalg.eigh(blocks.trace())
    # Kept weights bound beta's branch probability from below, far above
    # ZERO_PROBABILITY_CUTOFF; dropped ones are rounding off the support.
    support = weights > VALIDITY_ATOL * weights[-1]
    s = basis[:, support] / np.sqrt(weights[support])
    y = s.conj().T @ blocks[~np.tri(dim_a, dtype=bool)] @ s
    y_dag = y.conj().swapaxes(-1, -2)
    # Twice the two parts: same eigenvectors, same order of |eigenvalues|.
    values, vectors = np.linalg.eigh(np.concatenate([y + y_dag, (y_dag - y) * 1j]))
    part, j = divmod(int(np.abs(values).argmax()), values.shape[-1])
    beta = s @ vectors[part, :, j]
    beta /= np.linalg.norm(beta)
    op = KrausOperation([np.outer(beta, beta.conj())], label="projector-search[0]")
    state_a, _ = post_operation_state_a(dm, op, dim_a, dim_b)
    achieved = l1_coherence(state_a)
    if achieved > CONVERSE_COHERENCE_TARGET:
        return op
    raise SearchExhausted(
        f"the converse witness reaches coherence {achieved:.3e}, "
        f"below {CONVERSE_COHERENCE_TARGET:g}",
        best_value=achieved,
        attempts=1,
    )


def report_to_json(report: RccReport) -> dict:
    """JSON-ready dict mirroring the RccReport fields."""
    outcomes = []
    for rec in report.outcomes:
        outcomes.append(
            {
                "probability": rec.probability,
                "coherence": rec.coherence,
                "zero_probability": rec.zero_probability,
                "state_a": None if rec.state_a is None else matrix_to_json(rec.state_a.matrix),
            }
        )
    return {
        "outcomes": outcomes,
        "average_rcc": report.average_rcc,
        "entanglement": report.entanglement,
        "lemma1_bounds": list(report.lemma1_bounds),
        "theorem3_bound": report.theorem3_bound,
        "tighter_bound": report.tighter_bound,
        "maxent_average_rcc": report.maxent_average_rcc,
        "factorization_ratio": report.factorization_ratio,
    }
