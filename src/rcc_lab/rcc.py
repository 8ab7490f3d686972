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

from .channels import KrausOperation, branch_stack, check_summaries, identity_deviation
from .coherence import block_diagonal_mask, l1_coherence, l1_coherences
from .errors import NotTracePreserving, SearchExhausted, WrongDimension, ZeroProbability
from .linalg import VALIDITY_ATOL, complete_orthonormal_basis, matrix_to_json
from .states import (
    BipartitePureState,
    DensityMatrix,
    batch_concurrence,
    check_densities,
    concurrence,
    joint_matrix,
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


def _require_trace_preserving(deviation: float) -> None:
    # deviation is channels.identity_deviation of the branch stacks of whole
    # channels; a channel stores its own as trace_deviation.
    if deviation >= VALIDITY_ATOL:
        raise NotTracePreserving(_NOT_WHOLE)


def _require_probability(prob: float) -> None:
    if prob < ZERO_PROBABILITY_CUTOFF:
        raise ZeroProbability(f"branch probability {prob:.3e} is below {ZERO_PROBABILITY_CUTOFF}")


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
    # tr_B[(I (x) N_p) rho] (..., p, da, da) of joint states r4 (..., da, db, da, db) and branches
    # N_p, (p, db, db) shared or (..., p, db, db) per state: one fixed-shape product per (state,
    # branch), r4 as (i k) x (j l) times N_p^T flattened, the same however many share the call.
    da, db = r4.shape[-4:-2]
    a = r4.swapaxes(-3, -2).reshape(r4.shape[:-4] + (1, da * da, db * db))
    out = a @ stack.swapaxes(-1, -2).reshape(stack.shape[:-2] + (db * db, 1))
    return out.reshape(out.shape[:-2] + (da, da))


def _conditional_states(unnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities and zero-probability mask, shape (...), of branches unnorm (..., d, d).

    Also returns the conditional states (kept, d, d) of the branches at or above
    ZERO_PROBABILITY_CUTOFF, in order: divided by their probability, symmetrized,
    validated (check_densities) and renormalized to unit trace, as DensityMatrix does.
    """
    probs = unnorm.trace(axis1=-2, axis2=-1).real
    zero = probs < ZERO_PROBABILITY_CUTOFF
    kept = ~zero
    states = unnorm[kept]
    states /= probs[kept][:, None, None]
    states += states.conj().swapaxes(-1, -2)
    states /= 2
    states /= check_densities(states).real[:, None, None]
    return probs, zero, states


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
    _require_trace_preserving(identity_deviation(stacks))
    return _offdiag_mass(_unnormalized_branches(w, stacks))


def average_coherences(w: np.ndarray, channels) -> np.ndarray:
    """average_coherence for many states against many channels at once.

    w stacks normalized coefficient matrices, shape (n, dim_a, dim_b); the
    channels must all have the same number of outcomes. Returns shape
    (n, len(channels)). The checks and errors are those of average_coherence.
    """
    da, db = w.shape[-2:]
    require_premises(w)
    stacks = []
    for channel in channels:
        stacks.append(branch_stack(channel, db))
        _require_trace_preserving(channel.trace_deviation)
    stacks = np.stack(stacks)
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
    _require_trace_preserving(identity_deviation(stacks))
    return _tight_bounds(w, stacks)


def _tight_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    return batch_concurrence(w) * _lemma1_norms(w, stacks).sum(axis=-1)


def average_coherence_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """average_coherence_bound of each state of w (n, da, db) and its branch stack (n, K, db, db).

    For two qubits this is E times the partner average, the right-hand side
    of the factorization law.
    """
    partners = maximally_entangled_partners(w)
    _require_trace_preserving(identity_deviation(stacks))
    return _partner_bounds(w, partners, stacks)


def _partner_bounds(w: np.ndarray, partners: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    partners = unit_amplitudes(partners.reshape(len(w), -1)).reshape(w.shape)
    return w.shape[-2] / 2 * batch_concurrence(w) * _offdiag_mass(_unnormalized_branches(partners, stacks))


def post_operation_state_a(state, op: KrausOperation, dim_a=None, dim_b=None):
    """Conditional state of A after op post-selects on B, with its probability.

    Pure inputs contract the coefficient matrix, rho' = W N^T W^dagger / p;
    density-matrix inputs (which need explicit dims) contract the joint state
    with N directly. Raises ZeroProbability when the branch has essentially
    no support on the state.
    """
    if isinstance(state, BipartitePureState):
        n = branch_stack(op, state.dim_b, post_selected=True)
        unnorm = _unnormalized_branches(state.coefficient_matrix, n)
    else:
        raw = joint_matrix(state, dim_a, dim_b)
        n = branch_stack(op, dim_b, post_selected=True)
        unnorm = _mixed_branches(raw.reshape(dim_a, dim_b, dim_a, dim_b), n)
    probs, _, states = _conditional_states(unnorm)
    _require_probability(float(probs[0]))
    return DensityMatrix(states[0], validate=False), float(probs[0])


def average_coherence(psi: BipartitePureState, channel) -> float:
    """Average coherence gained by A, sum_n p_n C(rho_n).

    Outcomes are single Kraus operators for a trace-preserving operation and
    whole member operations for an ensemble. Since p_n C(rho_n) is just the
    off-diagonal modulus sum of the unnormalized branch state, vanishing
    branches contribute zero without any special casing.
    """
    require_premise(psi.marginal_offdiag())
    stack = branch_stack(channel, psi.dim_b)
    _require_trace_preserving(channel.trace_deviation)
    return float(_offdiag_mass(_unnormalized_branches(psi.coefficient_matrix, stack)))


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
    n = branch_stack(op, psi.dim_b, post_selected=True)
    w = psi.coefficient_matrix[None]
    probs = _unnormalized_branches(w, n[:, None])[:, 0].trace(axis1=-2, axis2=-1).real
    _require_probability(float(probs[0]))
    require_premise(psi.marginal_offdiag())
    return float(_outcome_bounds(w, n, probs)[0])


def average_coherence_bound(psi: BipartitePureState, channel) -> float:
    """Average bound (dim_a / 2) * E * average_coherence of the partner."""
    stacks = branch_stack(channel, psi.dim_b)[None]
    w = psi.coefficient_matrix[None]
    partners = maximally_entangled_partners(w)
    _require_trace_preserving(channel.trace_deviation)
    return float(_partner_bounds(w, partners, stacks)[0])


def tight_average_bound(psi: BipartitePureState, channel) -> float:
    """Branch-resolved average bound E * sum_k sqrt(sum_{j<i} |N^k_ji|^2).

    Never exceeds average_coherence_bound (up to rounding) and both dominate
    the achieved average.
    """
    stacks = branch_stack(channel, psi.dim_b)[None]
    require_premise(psi.marginal_offdiag())
    _require_trace_preserving(channel.trace_deviation)
    return float(_tight_bounds(psi.coefficient_matrix[None], stacks)[0])


def average_rcc(psi: BipartitePureState, channel) -> RccReport:
    """Full per-outcome report for a trace-preserving channel or ensemble.

    Zero-probability branches are kept in the outcome list, flagged, and
    contribute zero to the average and to the bound list.
    """
    require_premise(psi.marginal_offdiag())
    stack = branch_stack(channel, psi.dim_b)
    _require_trace_preserving(channel.trace_deviation)
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
    # The partner's A-marginal is I / dim_a, and the channel is checked above.
    partner = maximally_entangled_partner(psi)
    maxent_average = float(_offdiag_mass(_unnormalized_branches(partner.coefficient_matrix, stack)))
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


def converse_witnesses(rho: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness projectors (n, db, db) of find_creating_operation for joint states rho (n, da * db, da * db).

    Also returns the coherence each creates on A (n,) and the block-diagonal
    mask (n,); a masked state's witness means nothing. rho is not validated.
    S = V L^(-1/2) whitens B's marginal on its support (zero columns off it);
    beta = S v / |S v| for v the eigenvector of largest |eigenvalue| over the
    Hermitian and anti-Hermitian parts of every S^dagger X_ik S, i < k, with
    X_ik = (<i| (x) I) rho (|k> (x) I): the most coherence per unit branch
    probability that any one part allows.
    """
    block_diagonal = block_diagonal_mask(rho, dim_a, dim_b)
    if dim_a == 1 or len(rho) == 0:
        # No state, or no off-diagonal block to take a part of: every witness is N = 0.
        return np.zeros((len(rho), dim_b, dim_b), dtype=np.complex128), np.zeros(len(rho)), block_diagonal
    r4 = rho.reshape(-1, dim_a, dim_b, dim_a, dim_b)
    blocks = r4.swapaxes(2, 3)
    weights, basis = np.linalg.eigh(np.trace(blocks, axis1=1, axis2=2))
    # Kept weights bound beta's branch probability from below, far above
    # ZERO_PROBABILITY_CUTOFF; dropped ones are rounding off the support.
    support = weights > VALIDITY_ATOL * weights[:, -1:]
    s = np.where(support[:, None], basis / np.sqrt(np.where(support, weights, 1.0))[:, None], 0)
    y = s.conj().swapaxes(-1, -2)[:, None] @ blocks[:, ~np.tri(dim_a, dtype=bool)] @ s[:, None]
    y_dag = y.conj().swapaxes(-1, -2)
    # Twice the two parts: same eigenvectors, same order of |eigenvalues|.
    values, vectors = np.linalg.eigh(np.concatenate([y + y_dag, (y_dag - y) * 1j], axis=1))
    part, j = np.divmod(np.abs(values).reshape(len(y), -1).argmax(axis=1), dim_b)
    beta = (s @ vectors[np.arange(len(y)), part, :, j][..., None])[..., 0]
    # A zero beta, from parts that all vanish on the support, stays zero: N = 0.
    beta /= np.maximum(np.linalg.norm(beta, axis=-1, keepdims=True), np.finfo(float).tiny)
    projectors = check_summaries(beta[:, :, None] * beta[:, None, :].conj())
    _, zero, states = _conditional_states(_mixed_branches(r4, projectors[:, None]))
    coherence = np.zeros(len(y))
    coherence[~zero[:, 0]] = l1_coherences(states)
    return projectors, coherence, block_diagonal


def find_creating_operation(rho_ab, dim_a: int, dim_b: int) -> KrausOperation | None:
    """B-side projector that creates coherence on A: the converse of Theorem 1.

    One-state view of converse_witnesses. Returns None exactly when the state
    is block-diagonal in A's basis (then no operation can succeed); raises
    SearchExhausted (attempts=1) when the witness stays below CONVERSE_COHERENCE_TARGET.
    """
    rho = joint_matrix(rho_ab if isinstance(rho_ab, DensityMatrix) else DensityMatrix(rho_ab), dim_a, dim_b)
    witnesses, coherence, block_diagonal = converse_witnesses(rho[None], dim_a, dim_b)
    if block_diagonal[0]:
        return None
    achieved = float(coherence[0])
    if achieved > CONVERSE_COHERENCE_TARGET:
        return KrausOperation([witnesses[0]], label="projector-search[0]")
    message = f"the converse witness reaches coherence {achieved:.3e}, below {CONVERSE_COHERENCE_TARGET:g}"
    raise SearchExhausted(message, best_value=achieved, attempts=1)


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
