"""Seeded random generators for states, channels, and sweep instances.

A draw_*_block routine takes the raw numbers of n samples from a generator,
one generator call per quantity, in the order one sample draws them; Kraus
and isometry sets are zero-padded to the largest count in the block. The
*_from_parts builders turn a block into stacks, or its row k into an object.
The random_* samplers are one-element views, a block of one built at row 0,
so a stream yields the same instance on the per-object and the stacked route
(draw_noncq_states, which tests built candidates, returns a block's states).
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelEnsemble, KrausOperation, branch_stacks, branch_sums, check_summaries
from .coherence import block_diagonal_mask
from .linalg import SeededRng, complex_ginibre, stack_sum, unitary_from_ginibre
from .states import BipartitePureState, DensityMatrix, schmidt_coefficients, unit_amplitudes


def _ginibre_sets(g: np.random.Generator, counts: np.ndarray, d: int, stacked: bool) -> np.ndarray:
    # Ginibre sets, set k holding counts[k] matrices then zeros, from one call:
    # stacked, complex_ginibre(g, (d, d), counts[k])'s numbers, shape (n, max count, d, d);
    # else complex_ginibre(g, (counts[k] * d, d), 1)[0]'s, shape (n, max count * d, d).
    # Kept rows of parts take the draw in index order: stacked, a matrix's (re, im) pair; else a real or imaginary block.
    keep = np.arange(counts.max(initial=0)) < counts[:, None]
    n, top = keep.shape
    rows = keep if stacked else keep[:, None].repeat(2, axis=1)
    parts = np.zeros(rows.shape + (d * d * (2 if stacked else 1),))
    parts[rows] = g.standard_normal(2 * d * d * int(counts.sum())).reshape(-1, parts.shape[-1])
    re, im = np.moveaxis(parts.reshape((n, top, 2, d, d) if stacked else (n, 2, top * d, d)), 2 if stacked else 1, 0)
    return (re + 1j * im) / np.sqrt(2.0)


def draw_schmidt_block(dim_a: int, dim_b: int, n: int, g: np.random.Generator):
    """Schmidt weights (n, dim_a), then the Ginibre matrices (n, dim_b, dim_b) of Haar B-bases.

    Two-dimensional A takes one uniform draw for the first weight; larger A
    draws weights uniformly on the probability simplex.
    """
    if dim_b < dim_a:
        raise ValueError(f"need dim_b >= dim_a, got {dim_b} < {dim_a}")
    if dim_a == 2:
        first = g.random(n)
        weights = np.stack([first, 1.0 - first], axis=-1)
    else:
        weights = g.dirichlet(np.ones(dim_a), n)
    return weights, complex_ginibre(g, (dim_b, dim_b), n)


def draw_kraus_block(dim_b: int, n: int, g: np.random.Generator):
    """Kraus counts (n,) uniform in 1..3, then unscaled Ginibre Kraus sets (n, max count, dim_b, dim_b)."""
    counts = g.integers(1, 4, n)
    return counts, _ginibre_sets(g, counts, dim_b, stacked=True)


def draw_incoherent_quantum_block(dim_a: int, dim_b: int, n: int, g: np.random.Generator):
    """Weights q (n, dim_a), then one Ginibre matrix per A-block, shape (n, dim_a, dim_b, dim_b)."""
    q = g.dirichlet(np.ones(dim_a), n)
    return q, complex_ginibre(g, (dim_b, dim_b), n * dim_a).reshape(n, dim_a, dim_b, dim_b)


def draw_tp_block(dim_b: int, n: int, g: np.random.Generator):
    """Kraus counts (n,) uniform in 2..3, then Ginibre matrices (n, max count * dim_b, dim_b).

    The QR isometry of row k's first counts[k] * dim_b rows splits into one channel's Kraus blocks.
    """
    counts = g.integers(2, 4, n)
    return counts, _ginibre_sets(g, counts, dim_b, stacked=False)


def draw_ensemble_block(dim_b: int, n: int, g: np.random.Generator):
    """Kraus counts (n,) uniform in 3..4, isometry parts as draw_tp_block's, then the splits (n,) into two members."""
    counts = g.integers(3, 5, n)
    return counts, _ginibre_sets(g, counts, dim_b, stacked=False), g.integers(1, counts)


def scaled_kraus(mats: np.ndarray) -> np.ndarray:
    """Kraus sets stacked as (..., count, d, d), each scaled so that max eig(N) = 1.

    Zero matrices padding a set change neither its scale nor the rest of it.
    """
    n = (mats.conj().swapaxes(-1, -2) @ mats).sum(axis=-3)
    top = np.linalg.eigvalsh((n + n.conj().swapaxes(-1, -2)) / 2).max(axis=-1)
    return (1.0 / np.sqrt(top))[..., None, None, None] * mats


def isometry_kraus(z: np.ndarray) -> np.ndarray:
    """Kraus blocks (..., count, d, d) of the QR isometries of z (..., count * d, d).

    Zero rows padding z give zero blocks. They change the QR call, so the other blocks match those of the
    unpadded z up to rounding: about one Q in 10^4 moves in its last bits.
    """
    q, _ = np.linalg.qr(z)
    d = z.shape[-1]
    return q.reshape(z.shape[:-2] + (z.shape[-2] // d, d, d))


def kraus_operation_from_parts(counts: np.ndarray, mats: np.ndarray, k: int = 0) -> KrausOperation:
    """The operation random_kraus_operation builds from row k of a draw_kraus_block."""
    count = int(counts[k])
    return KrausOperation(list(scaled_kraus(mats[k, :count])), label=f"random-kraus[{count}]")


def tp_channel_from_parts(counts: np.ndarray, z: np.ndarray, k: int = 0) -> KrausOperation:
    """The channel random_tp_channel builds from row k of a draw_tp_block."""
    blocks = isometry_kraus(z[k, : int(counts[k]) * z.shape[-1]])
    return KrausOperation(list(blocks), label=f"random-tp[{len(blocks)}]")


def ensemble_from_parts(counts: np.ndarray, z: np.ndarray, splits: np.ndarray, k: int = 0) -> ChannelEnsemble:
    """The ensemble random_channel_ensemble builds from row k of a draw_ensemble_block."""
    whole, split = tp_channel_from_parts(counts, z, k), int(splits[k])
    first = KrausOperation(whole.kraus[:split], label="ensemble-member[0]")
    second = KrausOperation(whole.kraus[split:], label="ensemble-member[1]")
    return ChannelEnsemble([first, second])


def densities_from_parts(z: np.ndarray) -> np.ndarray:
    """Ginibre-induced density matrices z z^dagger / tr(z z^dagger) of z (..., d, d)."""
    m = z @ z.conj().swapaxes(-1, -2)
    return m / stack_sum(m.diagonal(0, -2, -1)).real[..., None, None]


def incoherent_quantum_states_from_parts(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Block-diagonal states (n, dim_a * dim_b, dim_a * dim_b) of a draw_incoherent_quantum_block."""
    blocks = q[..., None, None] * densities_from_parts(z)
    n, dim_a, dim_b = blocks.shape[:3]
    out = np.zeros((n, dim_a, dim_b, dim_a, dim_b), dtype=np.complex128)
    out[:, np.arange(dim_a), :, np.arange(dim_a)] = blocks.swapaxes(0, 1)
    return out.reshape(n, dim_a * dim_b, dim_a * dim_b)


def coefficient_matrices_from_parts(weights: np.ndarray, ginibre: np.ndarray) -> np.ndarray:
    """Normalized coefficient matrices (n, dim_a, dim_b) of a draw_schmidt_block.

    Row k holds the state random_schmidt_state builds from row k. One batched
    QR, then from_schmidt's and BipartitePureState's checks over the stack.
    """
    w = schmidt_coefficients(weights, unitary_from_ginibre(ginibre))
    return unit_amplitudes(w.reshape(len(w), w.shape[1] * w.shape[2])).reshape(w.shape)


def summary_operators_from_parts(mats: np.ndarray) -> np.ndarray:
    """Summary operators (n, d, d) of the Kraus sets mats (n, count, d, d) of a draw_kraus_block.

    Entry k is the N of kraus_operation_from_parts at row k (channels.branch_stacks).
    """
    return branch_stacks(scaled_kraus(mats))[1]


def branch_stacks_from_parts(z: np.ndarray, ensembles: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Branch stacks (n, K, dim_b, dim_b) of the channels of a draw_tp_block's isometry parts z (n, K * dim_b, dim_b).

    Channel k has one branch F^dagger F per Kraus block, padded with zeros; channels.branch_stacks checks each.
    With a draw_ensemble_block's (ensemble_z, splits) of len(z) or len(z) - 1 rows, channel k takes row 2k, at
    least two branches wide, and ensemble k row 2k + 1: its member sums, of its first splits[k] branches and of
    the rest, checked by check_summaries. One QR takes both parts, zero-padded to one height (see isometry_kraus).
    """
    if ensembles is None:
        return branch_stacks(isometry_kraus(z))[0]
    (ensemble_z, splits), (height, d) = ensembles, z.shape[1:]
    n = len(z) + len(ensemble_z)
    parts = np.zeros((n, max(height, ensemble_z.shape[1]), d), dtype=np.complex128)
    parts[0::2, :height] = z
    parts[1::2, : ensemble_z.shape[1]] = ensemble_z
    stack = branch_stacks(isometry_kraus(parts))[0]
    first = np.arange(stack.shape[1]) < splits[:, None]
    keep = np.stack([first, ~first], axis=1)[..., None, None]
    stacks = np.zeros((n, max(height // d, 2), d, d), dtype=np.complex128)
    stacks[0::2, : height // d] = stack[0::2, : height // d]
    stacks[1::2, :2] = check_summaries(branch_sums(np.where(keep, stack[1::2, None], 0)))
    return stacks


def random_schmidt_parts(dim_a: int, dim_b: int, rng: SeededRng):
    """Draw Schmidt weights and a Haar B-basis for a diagonal-A-marginal state.

    The basis columns are the first dim_a columns of a Haar unitary on B.
    """
    weights, ginibre = draw_schmidt_block(dim_a, dim_b, 1, rng.generator)
    return weights[0], unitary_from_ginibre(ginibre[0])[:, :dim_a]


def random_schmidt_state(dim_a: int, dim_b: int, rng: SeededRng) -> BipartitePureState:
    """Random pure state with a diagonal A-marginal (Schmidt form by build)."""
    weights, basis = random_schmidt_parts(dim_a, dim_b, rng)
    return BipartitePureState.from_schmidt(weights, basis)


def random_density_matrix(dim: int, rng: SeededRng) -> DensityMatrix:
    """Ginibre-induced random density matrix."""
    return DensityMatrix(densities_from_parts(complex_ginibre(rng.generator, (dim, dim), 1)[0]), validate=False)


def random_incoherent_quantum_state(dim_a: int, dim_b: int, rng: SeededRng) -> DensityMatrix:
    """Random block-diagonal state sum_i q_i |i><i| (x) rho_i."""
    parts = draw_incoherent_quantum_block(dim_a, dim_b, 1, rng.generator)
    return DensityMatrix(incoherent_quantum_states_from_parts(*parts)[0], validate=False)


def draw_noncq_states(count: int, dim_a: int, dim_b: int, g: np.random.Generator) -> np.ndarray:
    """The states (count, side, side) of count random_noncq_state calls on g.

    Each round takes one Ginibre candidate per missing state in one generator
    call and drops the block-diagonal ones; 64 rejections in a row raise. A
    one-level A, where every state is block-diagonal, raises ValueError first.
    """
    if dim_a == 1:
        raise ValueError("a one-level A has no off-diagonal block, so every state is block-diagonal")
    side, run = dim_a * dim_b, 0
    kept = [np.zeros((0, side, side), dtype=np.complex128)]
    while (missing := count - sum(map(len, kept))) > 0:
        rho = densities_from_parts(complex_ginibre(g, (side, side), missing))
        mask = block_diagonal_mask(rho, dim_a, dim_b)
        for rejected in mask.tolist():
            if (run := run + 1 if rejected else 0) == 64:
                raise RuntimeError("could not draw a non-block-diagonal state; tolerance too loose?")
        kept.append(rho[~mask])
    return np.concatenate(kept)


def random_noncq_state(dim_a: int, dim_b: int, rng: SeededRng) -> DensityMatrix:
    """Random density matrix conditioned on failing the block-diagonal test."""
    return DensityMatrix(draw_noncq_states(1, dim_a, dim_b, rng.generator)[0], validate=False)


def random_kraus_operation(dim_b: int, rng: SeededRng) -> KrausOperation:
    """Random sub-normalized operation: Ginibre Kraus set scaled to max eig(N) = 1.

    Covers trace-decreasing and nearly trace-preserving cases alike.
    """
    return kraus_operation_from_parts(*draw_kraus_block(dim_b, 1, rng.generator))


def random_tp_channel(dim_b: int, rng: SeededRng) -> KrausOperation:
    """Random trace-preserving channel from an isometry split into blocks."""
    return tp_channel_from_parts(*draw_tp_block(dim_b, 1, rng.generator))


def random_channel_ensemble(dim_b: int, rng: SeededRng) -> ChannelEnsemble:
    """Random ensemble: a trace-preserving Kraus set split into two members."""
    return ensemble_from_parts(*draw_ensemble_block(dim_b, 1, rng.generator))
