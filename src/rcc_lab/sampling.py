"""Seeded random generators for states, channels, and sweep instances.

The draw_* helpers take one sample's raw numbers from a generator, in the
order the random_* samplers draw them (draw_noncq_states, which tests built
candidates, returns a block's states); the *_from_parts builders turn parts
into objects, or into stacks for many samples at once. The random_* samplers
are draw then build, so a stream yields the same instances on the
per-object and the stacked route.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelEnsemble, KrausOperation, check_summaries
from .coherence import block_diagonal_mask
from .linalg import SeededRng, complex_ginibre, unitary_from_ginibre
from .states import BipartitePureState, DensityMatrix, schmidt_coefficients, unit_amplitudes


def draw_schmidt_parts(dim_a: int, dim_b: int, g: np.random.Generator):
    """Schmidt weights and the complex Ginibre matrix of a Haar B-basis.

    Two-dimensional A uses a single uniform draw for the first weight; larger
    A draws weights uniformly on the probability simplex.
    """
    if dim_b < dim_a:
        raise ValueError(f"need dim_b >= dim_a, got {dim_b} < {dim_a}")
    if dim_a == 2:
        first = float(g.random())
        weights = np.array([first, 1.0 - first])
    else:
        weights = g.dirichlet(np.ones(dim_a))
    return weights, complex_ginibre(g, (dim_b, dim_b))


def draw_kraus_parts(dim_b: int, g: np.random.Generator, max_kraus: int = 3) -> np.ndarray:
    """Unscaled Ginibre Kraus set, shape (count, dim_b, dim_b), count uniform in 1..max_kraus."""
    return complex_ginibre(g, (dim_b, dim_b), int(g.integers(1, max_kraus + 1)))


def draw_incoherent_quantum_parts(dim_a: int, dim_b: int, g: np.random.Generator):
    """Weights q (dim_a,), then one Ginibre matrix per A-block, shape (dim_a, dim_b, dim_b)."""
    return g.dirichlet(np.ones(dim_a)), complex_ginibre(g, (dim_b, dim_b), dim_a)


def draw_tp_parts(dim_b: int, g: np.random.Generator, kraus_count: int | None = None) -> np.ndarray:
    """Ginibre matrix (count * dim_b, dim_b) whose QR isometry splits into count Kraus blocks."""
    count = int(kraus_count) if kraus_count else int(g.integers(2, 4))
    return complex_ginibre(g, (count * dim_b, dim_b))


def draw_ensemble_parts(dim_b: int, g: np.random.Generator) -> tuple[np.ndarray, int]:
    """Isometry parts of 3 or 4 Kraus blocks and the index splitting them into two members."""
    count = int(g.integers(3, 5))
    z = draw_tp_parts(dim_b, g, kraus_count=count)
    return z, int(g.integers(1, count))


def scaled_kraus(mats: np.ndarray) -> np.ndarray:
    """Kraus sets stacked as (..., count, d, d), each scaled so that max eig(N) = 1.

    Zero matrices padding a set change neither its scale nor the rest of it.
    """
    n = (mats.conj().swapaxes(-1, -2) @ mats).sum(axis=-3)
    top = np.linalg.eigvalsh((n + n.conj().swapaxes(-1, -2)) / 2).max(axis=-1)
    return (1.0 / np.sqrt(top))[..., None, None, None] * mats


def isometry_kraus(z: np.ndarray) -> np.ndarray:
    """Kraus blocks (..., count, d, d) of the QR isometries of z (..., count * d, d)."""
    q, _ = np.linalg.qr(z)
    d = z.shape[-1]
    return q.reshape(z.shape[:-2] + (-1, d, d))


def kraus_operation_from_parts(mats: np.ndarray) -> KrausOperation:
    """The operation random_kraus_operation builds from draw_kraus_parts output."""
    return KrausOperation(list(scaled_kraus(mats)), label=f"random-kraus[{len(mats)}]")


def tp_channel_from_parts(z: np.ndarray) -> KrausOperation:
    """The channel random_tp_channel builds from draw_tp_parts output."""
    blocks = isometry_kraus(z)
    return KrausOperation(list(blocks), label=f"random-tp[{len(blocks)}]")


def ensemble_from_parts(z: np.ndarray, split: int) -> ChannelEnsemble:
    """The ensemble random_channel_ensemble builds from draw_ensemble_parts output."""
    whole = tp_channel_from_parts(z)
    first = KrausOperation(whole.kraus[:split], label="ensemble-member[0]")
    second = KrausOperation(whole.kraus[split:], label="ensemble-member[1]")
    return ChannelEnsemble([first, second])


def densities_from_parts(z: np.ndarray) -> np.ndarray:
    """Ginibre-induced density matrices z z^dagger / tr(z z^dagger) of z (..., d, d)."""
    m = z @ z.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def incoherent_quantum_states_from_parts(parts) -> np.ndarray:
    """Block-diagonal states (n, dim_a * dim_b, dim_a * dim_b) of drawn draw_incoherent_quantum_parts outputs."""
    q = np.array([weights for weights, _ in parts])
    blocks = q[..., None, None] * densities_from_parts(np.array([z for _, z in parts]))
    n, dim_a, dim_b = blocks.shape[:3]
    out = np.zeros((n, dim_a, dim_b, dim_a, dim_b), dtype=np.complex128)
    for i in range(dim_a):
        out[:, i, :, i] = blocks[:, i]
    return out.reshape(n, dim_a * dim_b, dim_a * dim_b)


def coefficient_matrices_from_parts(parts) -> np.ndarray:
    """Normalized coefficient matrices (n, dim_a, dim_b) of drawn Schmidt states.

    parts lists draw_schmidt_parts outputs (weights, ginibre); row n holds
    the state random_schmidt_state builds from parts[n]. One batched QR,
    then from_schmidt's and BipartitePureState's checks over the stack.
    """
    basis = unitary_from_ginibre(np.array([ginibre for _, ginibre in parts]))
    w = schmidt_coefficients(np.array([weights for weights, _ in parts]), basis)
    return unit_amplitudes(w.reshape(len(w), -1)).reshape(w.shape)


def summary_operators_from_parts(kraus_parts) -> np.ndarray:
    """Summary operators (n, d, d) of drawn sub-normalized operations.

    kraus_parts lists draw_kraus_parts outputs; entry n is the N of the
    operation random_kraus_operation builds from kraus_parts[n], checked as
    KrausOperation checks it.
    """
    d = kraus_parts[0].shape[-1]
    mats = np.zeros((len(kraus_parts), max(len(m) for m in kraus_parts), d, d), dtype=np.complex128)
    for i, m in enumerate(kraus_parts):
        mats[i, : len(m)] = m
    kraus = scaled_kraus(mats)
    return check_summaries((kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3, initial=0))


def branch_stacks_from_parts(channel_parts, dim_b: int) -> list[np.ndarray]:
    """Branch stacks (K_i, dim_b, dim_b) of drawn channels, one per sample.

    channel_parts holds (draw_tp_parts output, None) for a trace-preserving
    channel, with one branch F^dagger F per Kraus block, and
    draw_ensemble_parts output for an ensemble, with its two member summary
    operators. One batched QR per Kraus count; 0 <= N <= I is checked for
    every whole channel and every member, as KrausOperation checks it.
    """
    zs = [z for z, _ in channel_parts]
    counts = [len(z) // dim_b for z in zs]
    kraus = np.zeros((len(zs), max(counts), dim_b, dim_b), dtype=np.complex128)
    for count in set(counts):
        idx = [i for i, c in enumerate(counts) if c == count]
        kraus[idx, :count] = isometry_kraus(np.array([zs[i] for i in idx]))
    ff = kraus.conj().swapaxes(-1, -2) @ kraus
    check_summaries(ff.sum(axis=-3, initial=0))
    stacks = [ff[i, :count] for i, count in enumerate(counts)]
    members = [i for i, (_, split) in enumerate(channel_parts) if split is not None]
    if members:
        second = np.arange(kraus.shape[1]) >= np.array([channel_parts[i][1] for i in members])[:, None]
        masks = np.stack([~second, second], axis=1)[..., None, None]
        member_ns = check_summaries(np.where(masks, ff[members][:, None], 0).sum(axis=-3, initial=0))
        for i, stack in zip(members, member_ns):
            stacks[i] = stack
    return stacks


def random_schmidt_parts(dim_a: int, dim_b: int, rng: SeededRng):
    """Draw Schmidt weights and a Haar B-basis for a diagonal-A-marginal state.

    The basis columns are the first dim_a columns of a Haar unitary on B.
    """
    weights, ginibre = draw_schmidt_parts(dim_a, dim_b, rng.generator)
    return weights, unitary_from_ginibre(ginibre)[:, :dim_a]


def random_schmidt_state(dim_a: int, dim_b: int, rng: SeededRng) -> BipartitePureState:
    """Random pure state with a diagonal A-marginal (Schmidt form by build)."""
    weights, basis = random_schmidt_parts(dim_a, dim_b, rng)
    return BipartitePureState.from_schmidt(weights, basis)


def random_density_matrix(dim: int, rng: SeededRng) -> DensityMatrix:
    """Ginibre-induced random density matrix."""
    return DensityMatrix(densities_from_parts(complex_ginibre(rng.generator, (dim, dim))), validate=False)


def random_incoherent_quantum_state(dim_a: int, dim_b: int, rng: SeededRng) -> DensityMatrix:
    """Random block-diagonal state sum_i q_i |i><i| (x) rho_i."""
    parts = draw_incoherent_quantum_parts(dim_a, dim_b, rng.generator)
    return DensityMatrix(incoherent_quantum_states_from_parts([parts])[0], validate=False)


def draw_noncq_states(count: int, dim_a: int, dim_b: int, g: np.random.Generator, tol: float = 1e-9) -> np.ndarray:
    """The states (count, side, side) of count random_noncq_state calls on g.

    Each round takes one Ginibre candidate per missing state in one generator
    call and drops the block-diagonal ones; 64 rejections in a row raise.
    """
    side, kept, run = dim_a * dim_b, [], 0
    while (missing := count - sum(map(len, kept))) > 0:
        rho = densities_from_parts(complex_ginibre(g, (side, side), missing))
        mask = block_diagonal_mask(rho, dim_a, dim_b, tol)
        for rejected in mask.tolist():
            if (run := run + 1 if rejected else 0) == 64:
                raise RuntimeError("could not draw a non-block-diagonal state; tolerance too loose?")
        kept.append(rho[~mask])
    return np.concatenate(kept)


def random_noncq_state(dim_a: int, dim_b: int, rng: SeededRng, tol: float = 1e-9) -> DensityMatrix:
    """Random density matrix conditioned on failing the block-diagonal test."""
    return DensityMatrix(draw_noncq_states(1, dim_a, dim_b, rng.generator, tol)[0], validate=False)


def random_kraus_operation(dim_b: int, rng: SeededRng, max_kraus: int = 3) -> KrausOperation:
    """Random sub-normalized operation: Ginibre Kraus set scaled to max eig(N) = 1.

    Covers trace-decreasing and nearly trace-preserving cases alike.
    """
    return kraus_operation_from_parts(draw_kraus_parts(dim_b, rng.generator, max_kraus))


def random_tp_channel(dim_b: int, rng: SeededRng, kraus_count: int | None = None) -> KrausOperation:
    """Random trace-preserving channel from an isometry split into blocks."""
    return tp_channel_from_parts(draw_tp_parts(dim_b, rng.generator, kraus_count))


def random_channel_ensemble(dim_b: int, rng: SeededRng) -> ChannelEnsemble:
    """Random ensemble: a trace-preserving Kraus set split into two members."""
    return ensemble_from_parts(*draw_ensemble_parts(dim_b, rng.generator))
