"""Remote-coherence engine.

Channel averages, the average bounds and the two-qubit factorization law are
driven by each branch's summary operator N, through W N^T W^dagger for a pure
state with coefficient matrix W. Conditional states contract the joint density
matrix with N in the mixed case; in the pure case they, and the per-outcome
bounds, are read off the Gram matrices X X^dagger of X = W [F_1^T | F_2^T | ...]
over the Kraus factors F, whose rounding error stays relative to the branch probability.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .channels import KrausOperation, channel_branches, check_summaries, identity_deviation
from .coherence import block_diagonal_mask, l1_coherences
from .errors import NotTracePreserving, SearchExhausted, WrongDimension, ZeroProbability
from .linalg import VALIDITY_ATOL, complete_orthonormal_basis, converted, matrix_to_json, require_bounded, stack_sum
from .states import (
    SCHMIDT_WEIGHT_CUTOFF,
    BipartitePureState,
    DensityMatrix,
    _marginal_concurrence,
    check_traces_and_positivity,
    joint_matrix,
    require_premises,
    schmidt_rows,
    unit_amplitudes,
)

# Branches with probability below this cutoff have no conditional state: average_rcc
# flags them, post_operation_state_a and outcome_coherence_bound raise ZeroProbability.
ZERO_PROBABILITY_CUTOFF = 1e-14

# Denominator cutoff for the factorization ratio.
RATIO_DENOMINATOR_CUTOFF = 1e-12

FACTORIZATION_ATOL = 1e-9

# A's coherence the converse witness (find_creating_operation) must exceed.
CONVERSE_COHERENCE_TARGET = 1e-6


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


def _require_probability(prob: float) -> None:
    if prob < ZERO_PROBABILITY_CUTOFF:
        raise ZeroProbability(f"branch probability {prob:.3e} is below {ZERO_PROBABILITY_CUTOFF}")


def _require_trace_preserving(stacks: np.ndarray) -> None:
    # stacks (..., K, d, d) are the branch stacks of whole channels, the ones being averaged.
    if identity_deviation(stacks) >= VALIDITY_ATOL:
        raise NotTracePreserving("averaging needs a trace-preserving channel; wrap post-selected operations into a ChannelEnsemble instead")


def _stacked(arr, name: str = "w", shape: str = "(n, dim_a, dim_b)") -> np.ndarray:
    # Argument name of a public stacked routine as a complex array through require_bounded, once it has the axes of shape.
    # The routine then runs its core, _<routine>; a scalar view calls the core, as its objects were checked when built.
    if (arr := require_bounded(converted(name, np.asarray, arr, dtype=np.complex128), name)).ndim != shape.count(",") + 1:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _unnormalized_branches(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # W N_k^T W^dagger (for the averages and bounds) of every state W in w (n, da, db) and branch N_k of
    # stack, (p, db, db) shared or (n, p, db, db) per state; the result is (n, p, da, da). Shared,
    # [W N_1^T | W N_2^T | ...] is one product for all states at once. Per state, the branches run down the rows
    # of both products, V = [N_1; N_2; ...] W^T and then [V_1^T; V_2^T; ...] W^dagger, so each state's numbers
    # depend neither on how many states nor on how many zero branches share the call.
    n, da, db = w.shape
    p = stack.shape[-3]
    if stack.ndim == 3:
        wn = w.reshape(n * da, db) @ stack.reshape(p * db, db).T
        return (wn.reshape(n, da * p, db) @ w.conj().swapaxes(1, 2)).reshape(n, da, p, da).swapaxes(1, 2)
    v = stack.reshape(n, p * db, db) @ w.swapaxes(1, 2)
    vt = v.reshape(n, p, db, da).swapaxes(2, 3).reshape(n, p * da, db)
    return (vt @ w.conj().swapaxes(1, 2)).reshape(n, p, da, da)


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
    ZERO_PROBABILITY_CUTOFF, in order: divided by their probability, symmetrized (exactly Hermitian,
    so only traces and positivity are checked) and renormalized to unit trace, as DensityMatrix does.
    """
    probs = stack_sum(unnorm.diagonal(0, -2, -1)).real
    zero = probs < ZERO_PROBABILITY_CUTOFF
    kept = ~zero
    states = unnorm[kept]
    states /= probs[kept][:, None, None]
    states += states.conj().swapaxes(-1, -2)
    states /= 2
    states /= check_traces_and_positivity(states).real[:, None, None]
    return probs, zero, states


def _pure_branches(w: np.ndarray, factors: np.ndarray) -> np.ndarray:
    # Branches X X^dagger (n, K, da, da), X = W [F_k1^T | ... | F_kJ^T], of states w (n, da, db) under Kraus
    # factors (n, K, J, db, db). Padding factors add exact zeros; no state's numbers depend on the others.
    n, k, j, db, _ = factors.shape
    xt = factors.reshape(n, k, j * db, db) @ w.swapaxes(-1, -2)[:, None]
    return xt.swapaxes(-1, -2) @ xt.conj()


def _offdiag_mass(unnorm: np.ndarray) -> np.ndarray:
    # sum_k p_k C(rho_k) is the off-diagonal modulus sum of the unnormalized branch states
    # (..., K, d, d), so vanishing branches contribute zero by themselves.
    mods = np.abs(unnorm)
    return mods.sum(axis=(-3, -2, -1)) - np.einsum("...kii->...", mods)


@cache
def _strict_upper(d: int) -> np.ndarray:
    # 1 above the diagonal of a d x d matrix, 0 elsewhere: multiplied in, it zeroes what np.triu(., 1) zeroes.
    return np.triu(np.ones((d, d)), 1)


def _gram_norms(w: np.ndarray, branches: np.ndarray) -> np.ndarray:
    # Lemma 1's sqrt(sum_{j<i} |<beta_j| N_k |beta_i>|^2) per state W of w (n, da, db) and its branch
    # U = W N_k^T W^dagger in branches (n, K, da, da): the W N^T W^dagger of _unnormalized_branches or the
    # Grams X X^dagger of _pure_branches. Under the diagonal-marginal premise
    # U_ij = sqrt(w_i w_j) <beta_j| N_k |beta_i>, so the sum is of |U_ij|^2 / (w_i w_j) over one strict triangle
    # of the rows above SCHMIDT_WEIGHT_CUTOFF. A Gram's rounding stays relative to the branch probability, as the
    # per-outcome bound's division by it needs; the average bounds do not divide.
    weights = (np.abs(w) ** 2).sum(axis=-1)
    inv = np.divide(1.0, weights, out=np.zeros(weights.shape), where=weights > SCHMIDT_WEIGHT_CUTOFF)
    scale = inv[:, :, None] * inv[:, None, :] * _strict_upper(w.shape[-2])
    return np.sqrt((np.abs(branches) ** 2 * scale[:, None]).sum(axis=(-2, -1)))


def branch_averages(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """average_coherence of each state of w (n, da, db) under its own channel, shape (n,).

    Each channel is given by its branch stack (n, K, db, db): the per-Kraus
    F^dagger F of a trace-preserving operation or the member summary
    operators of an ensemble. Zero branches padding a stack add 0. Raises
    PremiseViolated and NotTracePreserving as average_coherence does.
    """
    return _branch_averages(_stacked(w), _stacked(stacks, "stacks", "(n, K, dim_b, dim_b)"))


def _branch_averages(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    require_premises(w)
    _require_trace_preserving(stacks)
    return _offdiag_mass(_unnormalized_branches(w, stacks))


def average_coherences(w: np.ndarray, channels) -> np.ndarray:
    """average_coherence for many states against many channels at once.

    w stacks normalized coefficient matrices, shape (n, dim_a, dim_b); the
    channels must all have the same number of outcomes. Returns shape
    (n, len(channels)). The checks and errors are those of average_coherence.
    """
    da, db = (w := _stacked(w)).shape[-2:]
    require_premises(w)
    stacks = np.stack([channel_branches(channel, db)[0] for channel in channels])
    _require_trace_preserving(stacks)
    unnorm = _unnormalized_branches(w, stacks.reshape(-1, db, db))
    return _offdiag_mass(unnorm.reshape(w.shape[:-2] + stacks.shape[:2] + (da, da)))


def maximally_entangled_partners(w: np.ndarray) -> np.ndarray:
    """Coefficient matrices of maximally_entangled_partner for states w (n, da, db).

    Row i is beta_i^T / sqrt(da), before the renormalization that
    BipartitePureState (or states.unit_amplitudes) applies.
    """
    _require_partner_dims(w := _stacked(w))
    require_premises(w)
    return _partners(*schmidt_rows(w))


def _require_partner_dims(w: np.ndarray) -> None:
    if w.shape[-1] < w.shape[-2]:
        raise WrongDimension(f"partner needs dim_b >= dim_a, got {w.shape[-1]} < {w.shape[-2]}")


def _partners(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    # maximally_entangled_partners from the schmidt_rows (n, da, db) of checked states.
    n, d, db = rows.shape
    partners = rows / np.sqrt(d)
    for i in (~keep.all(axis=1)).nonzero()[0]:
        basis = rows[i, keep[i]].T
        partners[i, ~keep[i]] = complete_orthonormal_basis(basis, db)[:, basis.shape[1] : d].T / np.sqrt(d)
    return partners


def _partner_averages(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    # average_coherence of each checked state's renormalized maximally_entangled_partner under its branch stack.
    partners = unit_amplitudes(_partners(*schmidt_rows(w)).reshape(len(w), w.shape[-2] * w.shape[-1])).reshape(w.shape)
    return _offdiag_mass(_unnormalized_branches(partners, stacks))


def outcome_coherence_bounds(w: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """outcome_coherence_bound of paired states and post-selected branches, shape (n,).

    w (n, da, db) holds the states and grams (n, da, da) their unnormalized
    branches X X^dagger, X = W [F_1^T | F_2^T | ...] over each operation's
    Kraus operators F; their traces, the branch probabilities, must be at or
    above ZERO_PROBABILITY_CUTOFF. Raises PremiseViolated as the scalar route does.
    """
    return _outcome_coherence_bounds(_stacked(w), _stacked(grams, "grams", "(n, dim_a, dim_a)"))


def _outcome_coherence_bounds(w: np.ndarray, grams: np.ndarray) -> np.ndarray:
    rho_a = require_premises(w)
    probs = stack_sum(grams.diagonal(0, -2, -1)).real
    return _marginal_concurrence(rho_a) / probs * _gram_norms(w, grams[:, None])[:, 0]


def tight_average_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """tight_average_bound of each state of w (n, da, db) and its branch stack (n, K, db, db)."""
    return _tight_average_bounds(_stacked(w), _stacked(stacks, "stacks", "(n, K, dim_b, dim_b)"))


def _tight_average_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    rho_a = require_premises(w)
    _require_trace_preserving(stacks)
    return _marginal_concurrence(rho_a) * _gram_norms(w, _unnormalized_branches(w, stacks)).sum(axis=-1)


def average_coherence_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """average_coherence_bound of each state of w (n, da, db) and its branch stack (n, K, db, db).

    For two qubits this is E times the partner average, the right-hand side
    of the factorization law.
    """
    return _average_coherence_bounds(_stacked(w), _stacked(stacks, "stacks", "(n, K, dim_b, dim_b)"))


def _average_coherence_bounds(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    _require_partner_dims(w)
    rho_a = require_premises(w)
    _require_trace_preserving(stacks)
    return w.shape[-2] / 2 * _marginal_concurrence(rho_a) * _partner_averages(w, stacks)


def _average_bounds(w: np.ndarray, stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # branch_averages (n,), branches W N_k^T W^dagger (n, K, da, da), concurrence E (n,) and partner average (n,)
    # of w and stacks as branch_averages takes them; premise, trace preservation and dim_b >= dim_a are checked once
    # each, in that order. tight_average_bounds is E * _gram_norms(w, branches).sum(-1), average_coherence_bounds
    # da / 2 * E * partner average, bit for bit. The norms are left to the callers that read them (theorem4 does not).
    rho_a = require_premises(w)
    _require_trace_preserving(stacks)
    _require_partner_dims(w)
    branches = _unnormalized_branches(w, stacks)
    return _offdiag_mass(branches), branches, _marginal_concurrence(rho_a), _partner_averages(w, stacks)


def post_operation_state_a(state, op: KrausOperation, dim_a=None, dim_b=None):
    """Conditional state of A after op post-selects on B, with its probability.

    Pure inputs take op's Kraus factors, rho' = sum_j W F_j^T (W F_j^T)^dagger / p;
    density-matrix inputs (which need explicit dims) contract the joint state
    with N directly. Raises ZeroProbability when the branch has essentially
    no support on the state.
    """
    if isinstance(state, BipartitePureState):
        _, factors = channel_branches(op, state.dim_b, post_selected=True)
        probs, _, states = _conditional_states(_pure_branches(state.coefficient_matrix[None], factors[None]))
    else:
        r4 = joint_matrix(state, dim_a, dim_b).reshape(dim_a, dim_b, dim_a, dim_b)
        probs, _, states = _conditional_states(_mixed_branches(r4, channel_branches(op, dim_b, post_selected=True)[0]))
    _require_probability(float(probs.flat[0]))
    return DensityMatrix(states[0], validate=False), float(probs.flat[0])


def average_coherence(psi: BipartitePureState, channel) -> float:
    """Average coherence gained by A, sum_n p_n C(rho_n).

    Outcomes are single Kraus operators for a trace-preserving operation and
    whole member operations for an ensemble. Since p_n C(rho_n) is just the
    off-diagonal modulus sum of the unnormalized branch state, vanishing
    branches contribute zero without any special casing.
    """
    return float(_branch_averages(psi.coefficient_matrix[None], channel_branches(channel, psi.dim_b)[0][None])[0])


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
    start diagonal (PremiseViolated otherwise); it is read off the branch
    W N^T W^dagger whose trace is p', post_operation_state_a's probability.
    """
    w = psi.coefficient_matrix[None]
    grams = _pure_branches(w, channel_branches(op, psi.dim_b, post_selected=True)[1][None])[:, 0]
    _require_probability(float(grams[0].trace().real))
    return float(_outcome_coherence_bounds(w, grams)[0])


def average_coherence_bound(psi: BipartitePureState, channel) -> float:
    """Average bound (dim_a / 2) * E * average_coherence of the partner."""
    return float(_average_coherence_bounds(psi.coefficient_matrix[None], channel_branches(channel, psi.dim_b)[0][None])[0])


def tight_average_bound(psi: BipartitePureState, channel) -> float:
    """Branch-resolved average bound E * sum_k sqrt(sum_{j<i} |N^k_ji|^2).

    Never exceeds average_coherence_bound (up to rounding) and both dominate
    the achieved average.
    """
    return float(_tight_average_bounds(psi.coefficient_matrix[None], channel_branches(channel, psi.dim_b)[0][None])[0])


def average_rcc(psi: BipartitePureState, channel) -> RccReport:
    """Full per-outcome report for a trace-preserving channel or ensemble.

    Zero-probability branches are kept in the outcome list, flagged, with bound 0.0; the others'
    bounds are outcome_coherence_bound's. The average and the average bounds are
    average_coherence's, tight_average_bound's and average_coherence_bound's.
    """
    w = psi.coefficient_matrix[None]
    stack, factors = (v[None] for v in channel_branches(channel, psi.dim_b))
    averages, branches, ents, maxent_averages = _average_bounds(w, stack)
    grams = _pure_branches(w, factors)
    probs, zero, states = _conditional_states(grams)
    norms = _gram_norms(w, grams)
    average, ent, maxent_average = float(averages[0]), float(ents[0]), float(maxent_averages[0])

    outcomes, bounds = [], []
    kept = zip(states, l1_coherences(states).tolist())
    for prob, flagged, norm in zip(probs[0].tolist(), zero[0].tolist(), norms[0]):
        if flagged:
            outcomes.append(OutcomeRecord(prob, None, 0.0, zero_probability=True))
            bounds.append(0.0)
        else:
            state_a, coherence = next(kept)
            outcomes.append(OutcomeRecord(prob, DensityMatrix(state_a, validate=False), coherence))
            bounds.append(float(ent / prob * norm))

    ratio_defined = psi.dim_a == psi.dim_b == 2 and maxent_average > RATIO_DENOMINATOR_CUTOFF
    return RccReport(
        outcomes=tuple(outcomes),
        average_rcc=average,
        entanglement=ent,
        lemma1_bounds=tuple(bounds),
        theorem3_bound=float(psi.dim_a / 2 * ent * maxent_average),
        tighter_bound=float(ent * _gram_norms(w, branches).sum(axis=-1)[0]),
        maxent_average_rcc=maxent_average,
        factorization_ratio=average / maxent_average if ratio_defined else None,
    )


def factorization_check(psi: BipartitePureState, channel) -> tuple[float | None, bool]:
    """Two-qubit factorization law: average equals E times the partner average.

    Returns (ratio, holds); the ratio is None when the partner average
    vanishes, in which case the law holds exactly when the average itself
    vanishes. The numbers are average_rcc's.
    """
    if psi.dim_a != 2 or psi.dim_b != 2:
        raise WrongDimension(f"factorization law is a 2x2 statement, got {psi.dim_a}x{psi.dim_b}")
    report = average_rcc(psi, channel)
    if report.factorization_ratio is None:
        return None, bool(report.average_rcc < FACTORIZATION_ATOL)
    return report.factorization_ratio, bool(abs(report.average_rcc - report.entanglement * report.maxent_average_rcc) < FACTORIZATION_ATOL)


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
    weights, basis = np.linalg.eigh(stack_sum(blocks.diagonal(0, 1, 2)))
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
    """JSON-ready dict mirroring the RccReport fields, in their order."""
    doc = {field.name: getattr(report, field.name) for field in fields(report)}
    doc["outcomes"] = [
        {"probability": rec.probability, "coherence": rec.coherence, "zero_probability": rec.zero_probability,
         "state_a": None if rec.state_a is None else matrix_to_json(rec.state_a.matrix)}
        for rec in report.outcomes
    ]
    doc["lemma1_bounds"] = list(report.lemma1_bounds)
    return doc
