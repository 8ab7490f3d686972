"""The block draws of rcc_lab.sampling and the random_* samplers that view them.

A block draws each quantity for all its samples in one generator call, in
the order one sample draws them. The tests below pin the samplers' numbers,
rebuild each block from a twin generator quantity by quantity, check that
row k of every stacked builder equals the object built from row k, and check
the moments and frequencies of the draws at fixed seeds.
"""

import hashlib

import numpy as np
import pytest

from rcc_lab.channels import branch_stacks
from rcc_lab.linalg import SeededRng, complex_ginibre, unitary_from_ginibre
from rcc_lab.sampling import (
    _ginibre_sets,
    branch_stacks_from_parts,
    coefficient_matrices_from_parts,
    draw_ensemble_block,
    draw_incoherent_quantum_block,
    draw_kraus_block,
    draw_schmidt_block,
    draw_tp_block,
    ensemble_from_parts,
    incoherent_quantum_states_from_parts,
    isometry_kraus,
    kraus_operation_from_parts,
    random_channel_ensemble,
    random_density_matrix,
    random_incoherent_quantum_state,
    random_kraus_operation,
    random_noncq_state,
    random_schmidt_parts,
    random_schmidt_state,
    random_tp_channel,
    summary_operators_from_parts,
    tp_channel_from_parts,
)
from rcc_lab.states import BipartitePureState

# sha256 over the bytes of every sampler output of sampler_outputs, taken
# before the samplers became one-element views of the block draws.
SAMPLER_DIGESTS = {
    2: "47b6a356ea32ede7f6e0edd2103f148514424e40d0614af06f852c762059b15d",
    3: "724e6e47db8ec94d1f77e6051d8f3d3745c75bec689224efcf7693ea549772f7",
    4: "7f20d3f1c35cf25c07f56aa0b2cd36873392af472c1e6f3269eba23ef0505b88",
}


def fixed_count_parts(d, count, n, g):
    # draw_tp_block's counts and numbers for n sets of count operators each.
    return np.full(n, count), complex_ginibre(g, (count * d, d), n)


def sampler_outputs(d):
    rng = SeededRng(77, d)
    for _ in range(20):
        yield from random_schmidt_parts(d, d + 1, rng)
        yield random_schmidt_state(d, d, rng).amplitudes
        yield from random_kraus_operation(d, rng).kraus
        yield from random_tp_channel(d, rng).kraus
        yield from tp_channel_from_parts(*fixed_count_parts(d, 4, 1, rng.generator)).kraus
        yield from (f for op in random_channel_ensemble(d, rng).operations for f in op.kraus)
        yield random_incoherent_quantum_state(d, 2, rng).matrix
        yield random_noncq_state(2, d, rng).matrix
        yield random_density_matrix(d, rng).matrix
    yield rng.generator.random(3)


@pytest.mark.parametrize("d", sorted(SAMPLER_DIGESTS))
def test_sampler_numbers_are_pinned(d):
    h = hashlib.sha256()
    for arr in sampler_outputs(d):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == SAMPLER_DIGESTS[d]


def test_sampler_labels():
    # Taken with the digests above.
    rng = SeededRng(78)
    assert [random_kraus_operation(2, rng).label for _ in range(6)] == ["random-kraus[1]", "random-kraus[2]"] + ["random-kraus[3]"] * 4
    assert tp_channel_from_parts(*fixed_count_parts(3, 4, 1, rng.generator)).label == "random-tp[4]"
    assert [random_tp_channel(2, rng).label for _ in range(4)] == ["random-tp[2]"] * 3 + ["random-tp[3]"]
    labels = [op.label for op in random_channel_ensemble(2, rng).operations]
    assert labels == ["ensemble-member[0]", "ensemble-member[1]"]


# -- the block layout: one call per quantity, samples in order --------------


def ginibre(g, shape):
    # Two standard_normal calls per matrix: all real parts, then all imaginary parts.
    return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)


N = 40


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 5)])
def test_schmidt_block_layout(dims):
    dim_a, dim_b = dims
    block, twin = SeededRng(40, dim_a).generator, SeededRng(40, dim_a).generator
    weights, z = draw_schmidt_block(dim_a, dim_b, N, block)
    if dim_a == 2:
        first = twin.random(N)
        np.testing.assert_array_equal(weights, np.stack([first, 1.0 - first], axis=1))
    else:
        np.testing.assert_array_equal(weights, twin.dirichlet(np.ones(dim_a), N))
    np.testing.assert_array_equal(z, [ginibre(twin, (dim_b, dim_b)) for _ in range(N)])
    assert block.random() == twin.random()


@pytest.mark.parametrize("d", [2, 3])
def test_channel_block_layouts(d):
    block, twin = SeededRng(41, d).generator, SeededRng(41, d).generator
    counts, mats = draw_kraus_block(d, N, block)
    np.testing.assert_array_equal(counts, twin.integers(1, 4, N))
    assert mats.shape == (N, counts.max(), d, d)
    for k, count in enumerate(counts):
        np.testing.assert_array_equal(mats[k, :count], [ginibre(twin, (d, d)) for _ in range(count)])
        assert not mats[k, count:].any()

    counts, z = draw_tp_block(d, N, block)
    np.testing.assert_array_equal(counts, twin.integers(2, 4, N))
    assert z.shape == (N, counts.max() * d, d)
    for k, count in enumerate(counts):
        np.testing.assert_array_equal(z[k, : count * d], ginibre(twin, (count * d, d)))
        assert not z[k, count * d :].any()

    counts, z, splits = draw_ensemble_block(d, N, block)
    np.testing.assert_array_equal(counts, twin.integers(3, 5, N))
    for k, count in enumerate(counts):
        np.testing.assert_array_equal(z[k, : count * d], ginibre(twin, (count * d, d)))
    np.testing.assert_array_equal(splits, twin.integers(1, counts))

    q, blocks = draw_incoherent_quantum_block(d, 2, N, block)
    np.testing.assert_array_equal(q, twin.dirichlet(np.ones(d), N))
    np.testing.assert_array_equal(blocks, [[ginibre(twin, (2, 2)) for _ in range(d)] for _ in range(N)])
    assert block.random() == twin.random()


def test_empty_blocks_draw_nothing():
    g, twin = SeededRng(43).generator, SeededRng(43).generator
    weights, z = draw_schmidt_block(3, 3, 0, g)
    assert weights.shape == (0, 3) and z.shape == (0, 3, 3)
    counts, mats = draw_kraus_block(2, 0, g)
    assert summary_operators_from_parts(mats).shape == (0, 2, 2)
    counts, z = draw_tp_block(3, 0, g)
    assert branch_stacks_from_parts(z).shape[0] == 0
    counts, ensemble_z, splits = draw_ensemble_block(3, 0, g)
    assert branch_stacks_from_parts(z, (ensemble_z, splits)).shape == (0, 2, 3, 3)
    assert incoherent_quantum_states_from_parts(*draw_incoherent_quantum_block(2, 2, 0, g)).shape == (0, 4, 4)
    assert g.random() == twin.random()


def element_mask_ginibre_sets(g, counts, d, stacked):
    # _ginibre_sets as first written: the draw scattered through a broadcast mask of every element kept.
    keep = np.arange(counts.max(initial=0)) < counts[:, None]
    n, top = keep.shape
    if stacked:
        shape, mask = (n, top, 2, d, d), keep[:, :, None, None, None]
    else:
        shape, mask = (n, 2, top * d, d), np.repeat(keep, d, axis=1)[:, None, :, None]
    parts = np.zeros(shape)
    parts[np.broadcast_to(mask, shape)] = g.standard_normal(2 * d * d * int(counts.sum()))
    re, im = np.moveaxis(parts, 2 if stacked else 1, 0)
    return (re + 1j * im) / np.sqrt(2.0)


@pytest.mark.parametrize("counts", [[1, 3, 2, 3, 1, 2], [3, 0, 1], [2, 2, 2, 2], [4], []])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("stacked", [True, False])
def test_ginibre_sets_equal_the_element_mask_scatter(stacked, d, counts):
    counts = np.array(counts, dtype=np.int64)
    g, twin = SeededRng(45, d).generator, SeededRng(45, d).generator
    sets, expected = _ginibre_sets(g, counts, d, stacked), element_mask_ginibre_sets(twin, counts, d, stacked)
    assert sets.shape == expected.shape and sets.dtype == expected.dtype
    assert sets.tobytes() == expected.tobytes()
    assert g.random() == twin.random()


def test_schmidt_block_needs_a_wide_b():
    with pytest.raises(ValueError, match="need dim_b >= dim_a"):
        draw_schmidt_block(3, 2, 4, SeededRng(44).generator)


# -- block row k equals the one-element view at k ----------------------------


def fixed_count_blocks(d, count, g):
    # Kraus, channel and ensemble blocks whose sets all hold count operators.
    counts, z = fixed_count_parts(d, count, N, g)
    channels = fixed_count_parts(d, count, N, g)
    ensembles = (*fixed_count_parts(d, count, N, g), g.integers(1, count, N))
    return (counts, z.reshape(N, count, d, d)), channels, ensembles


# At d = 1 with 9 or more Kraus operators a numpy sum over a stack adds the
# 1x1 branches pairwise, not in index order.
@pytest.mark.parametrize("d, kraus_count", [(2, None), (3, None), (4, None), (1, 9), (1, 17)], ids=["2", "3", "4", "1-9", "1-17"])
def test_block_rows_equal_the_one_element_views(d, kraus_count):
    g = SeededRng(45, d).generator
    weights, z = draw_schmidt_block(d, d + 1, N, g)
    w = coefficient_matrices_from_parts(weights, z)
    if kraus_count is None:
        kraus, channels, ensembles = draw_kraus_block(d, N, g), draw_tp_block(d, N, g), draw_ensemble_block(d, N, g)
    else:
        kraus, channels, ensembles = fixed_count_blocks(d, kraus_count, g)
    n_ops = summary_operators_from_parts(kraus[1])
    stacks = branch_stacks_from_parts(channels[1])
    # Even rows the channels, padded to the ensembles' height for the shared QR; odd rows the ensembles.
    both = branch_stacks_from_parts(channels[1], ensembles[1:])
    q, blocks = draw_incoherent_quantum_block(d, 2, N, g)
    states = incoherent_quantum_states_from_parts(q, blocks)
    for k in range(N):
        psi = BipartitePureState.from_schmidt(weights[k], unitary_from_ginibre(z[k])[:, :d])
        assert np.array_equal(w[k], psi.coefficient_matrix)
        assert np.array_equal(n_ops[k], kraus_operation_from_parts(*kraus, k).n_operator())
        count = channels[0][k]
        assert np.array_equal(stacks[k, :count], tp_channel_from_parts(*channels, k).branch_n_stack())
        assert not stacks[k, count:].any()
        np.testing.assert_allclose(both[2 * k, :count], stacks[k, :count], rtol=0, atol=1e-15)
        assert not both[2 * k, count:].any()
        assert np.array_equal(both[2 * k + 1, :2], ensemble_from_parts(*ensembles, k).branch_n_stack())
        assert not both[2 * k + 1, 2:].any()
        assert np.array_equal(states[k], incoherent_quantum_states_from_parts(q[k : k + 1], blocks[k : k + 1])[0])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_padded_qr_gives_the_separate_qrs(d):
    # branch_stacks_from_parts(z, ensembles) takes one QR over the channels' and the ensembles' isometry parts,
    # zero-padded to the taller height. The taller set's matrices keep their LAPACK call, so their Kraus
    # blocks are the separate QR's bit for bit; padding rows give exact zeros. A padded matrix takes a
    # taller call, and its blocks agree with its separate QR to rounding: about one Q in 10^4 moves in its
    # last bits, as padding a set of two Kraus blocks to three already does.
    g = SeededRng(46, d).generator
    _, z = draw_tp_block(d, 2000, g)
    _, ensemble_z, splits = draw_ensemble_block(d, 2000, g)
    height = ensemble_z.shape[1]
    assert z.shape[1] < height
    parts = np.zeros((len(z) + len(ensemble_z), height, d), dtype=np.complex128)
    parts[: len(z), : z.shape[1]] = z
    parts[len(z) :] = ensemble_z
    blocks = isometry_kraus(parts)
    assert np.array_equal(blocks[len(z) :], isometry_kraus(ensemble_z))
    channel_blocks = blocks[: len(z), : z.shape[1] // d]
    assert not blocks[: len(z), z.shape[1] // d :].any()
    np.testing.assert_allclose(channel_blocks, isometry_kraus(z), rtol=0, atol=1e-15)
    stacks = branch_stacks_from_parts(z, (ensemble_z, splits))
    assert np.array_equal(stacks[: 2 * len(z) : 2, : z.shape[1] // d], branch_stacks(channel_blocks)[0])


@pytest.mark.parametrize("d", [2, 3])
def test_samplers_are_blocks_of_one(d):
    # random_* on a stream equals row 0 of a one-sample block on a twin stream.
    rng, g = SeededRng(46, d), SeededRng(46, d).generator
    weights, basis = random_schmidt_parts(d, d, rng)
    drawn_weights, z = draw_schmidt_block(d, d, 1, g)
    assert np.array_equal(weights, drawn_weights[0]) and np.array_equal(basis, unitary_from_ginibre(z[0])[:, :d])
    assert np.array_equal(random_kraus_operation(d, rng).kraus, kraus_operation_from_parts(*draw_kraus_block(d, 1, g)).kraus)
    assert np.array_equal(random_tp_channel(d, rng).kraus, tp_channel_from_parts(*draw_tp_block(d, 1, g)).kraus)
    ensemble = ensemble_from_parts(*draw_ensemble_block(d, 1, g))
    assert np.array_equal(random_channel_ensemble(d, rng).branch_n_stack(), ensemble.branch_n_stack())
    states = incoherent_quantum_states_from_parts(*draw_incoherent_quantum_block(d, 2, 1, g))
    assert np.array_equal(random_incoherent_quantum_state(d, 2, rng).matrix, states[0])


# -- moments and frequencies at fixed seeds ------------------------------------

DRAWS = 40_000


@pytest.mark.parametrize("d", [2, 3, 4])
def test_schmidt_weights_are_uniform_on_the_simplex(d):
    weights, _ = draw_schmidt_block(d, d, DRAWS, SeededRng(47, d).generator)
    assert np.all(weights >= 0) and np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # Dirichlet(1, ..., 1): mean 1/d, variance (d - 1) / (d^2 (d + 1)), per weight.
    mean, var = 1 / d, (d - 1) / (d * d * (d + 1))
    np.testing.assert_allclose(weights.mean(axis=0), mean, rtol=0, atol=5 * np.sqrt(var / DRAWS))
    np.testing.assert_allclose(weights.var(axis=0), var, rtol=0.03)


def test_ginibre_entries_have_unit_variance():
    _, z = draw_schmidt_block(2, 3, DRAWS, SeededRng(48).generator)
    _, mats = draw_kraus_block(3, DRAWS // 4, SeededRng(49).generator)
    _, iso = draw_tp_block(2, DRAWS // 4, SeededRng(50).generator)
    for entries in (z.ravel(), mats[mats != 0], iso[iso != 0]):
        tol = 5 / np.sqrt(len(entries))
        # E z = 0, E |z|^2 = 1, E z^2 = 0: real and imaginary parts of variance 1/2, uncorrelated.
        assert abs(entries.mean()) < tol
        assert abs(np.mean(np.abs(entries) ** 2) - 1) < 2 * tol
        assert abs(np.mean(entries**2)) < 2 * tol


def frequencies(values, support):
    return np.array([np.mean(values == v) for v in support])


@pytest.mark.parametrize(
    "draw, support",
    [
        (lambda g: draw_kraus_block(2, DRAWS, g)[0], (1, 2, 3)),
        (lambda g: draw_tp_block(2, DRAWS, g)[0], (2, 3)),
        (lambda g: draw_ensemble_block(2, DRAWS, g)[0], (3, 4)),
    ],
    ids=["kraus", "tp", "ensemble"],
)
def test_kraus_counts_are_uniform(draw, support):
    counts = draw(SeededRng(51).generator)
    assert set(np.unique(counts)) == set(support)
    p = 1 / len(support)
    np.testing.assert_allclose(frequencies(counts, support), p, rtol=0, atol=5 * np.sqrt(p * (1 - p) / DRAWS))


def test_ensemble_splits_are_uniform_given_the_count():
    counts, _, splits = draw_ensemble_block(2, DRAWS, SeededRng(52).generator)
    for count in (3, 4):
        given = splits[counts == count]
        p = 1 / (count - 1)
        freq = frequencies(given, range(1, count))
        np.testing.assert_allclose(freq, p, rtol=0, atol=5 * np.sqrt(p * (1 - p) / len(given)))
