"""Stack-major sums (linalg.stack_sum) and the checks of the conditional-state route.

The engine's traces and short row sums are taken term by term over the
whole stack; they must equal numpy's reductions bit for bit, which the
reports do not show: a 40-sample verify report prints `.3e` values.
"""

import hashlib
import re

import numpy as np
import pytest

from rcc_lab import experiments, rcc
from rcc_lab.coherence import l1_coherences
from rcc_lab.errors import BadTrace, NotHermitian, NotPositive
from rcc_lab.experiments import THEOREM1_FORWARD_BLOCK, THEOREM1_OPERATIONS
from rcc_lab.linalg import SeededRng, complex_ginibre, stack_sum
from rcc_lab.sampling import (
    branch_stacks_from_parts,
    coefficient_matrices_from_parts,
    densities_from_parts,
    draw_ensemble_block,
    draw_incoherent_quantum_block,
    draw_kraus_block,
    draw_noncq_states,
    draw_schmidt_block,
    draw_tp_block,
    incoherent_quantum_states_from_parts,
    summary_operators_from_parts,
)
from rcc_lab.states import GERSHGORIN_MIN_STACK, DensityMatrix, check_densities, schmidt_rows

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1e16, 1.0])


def entries(g, shape, complex_):
    # Gaussian numbers over 20 decades, about a third swapped for SPECIAL values.
    def part():
        v = g.standard_normal(shape) * 10.0 ** g.integers(-3, 17, shape)
        swap = g.random(shape) < 1 / 3
        v[swap] = g.choice(SPECIAL, int(swap.sum()))
        return v

    if not complex_:
        return part()
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = part(), part()
    return z


# Arrays whose last axis holds n terms over a stack of the given shape, laid out in several ways.
ONE_AXIS = {
    "contiguous": lambda g, s, n, c: entries(g, s + (n,), c),
    "diagonal": lambda g, s, n, c: entries(g, s + (n, n), c).diagonal(0, -2, -1),
    "transposed": lambda g, s, n, c: np.moveaxis(entries(g, (n,) + s, c), 0, -1),
    "reversed": lambda g, s, n, c: entries(g, s + (n,), c)[..., ::-1],
    "strided": lambda g, s, n, c: entries(g, s + (2 * n,), c)[..., ::2],
}
# Arrays whose last two axes hold an r x c matrix of terms.
TWO_AXES = {
    "contiguous": lambda g, s, r, c, z: entries(g, s + (r, c), z),
    "transposed": lambda g, s, r, c, z: entries(g, s + (c, r), z).swapaxes(-1, -2),
    "stack_inner": lambda g, s, r, c, z: np.moveaxis(entries(g, (r, c) + s, z), (0, 1), (-2, -1)),
    "reversed": lambda g, s, r, c, z: entries(g, s + (r, c), z)[..., ::-1, ::-1],
    "strided": lambda g, s, r, c, z: entries(g, s + (r, 2 * c), z)[..., ::2],
}
STACKS = [(), (0,), (5,), (3, 2)]


def assert_bits_equal(got, want):
    # Which NaN a sum of NaNs keeps (payload and sign) follows the operand order of numpy's
    # kernels, which differ between in-place, out-of-place and reduction loops; only that
    # entry is NaN is compared. Everything else, signed zeros included, must match bit for bit.
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    got, want = np.array(got), np.array(want)
    for v in (got, want):
        parts = v.reshape(-1).view(np.float64)
        parts[np.isnan(parts)] = np.nan
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("layout", list(ONE_AXIS))
def test_stack_sum_is_numpys_reduction_bit_for_bit(layout, complex_):
    g = SeededRng(20261020, len(layout)).generator
    for stack in STACKS:
        for n in range(71):
            x = ONE_AXIS[layout](g, stack, n, complex_)
            with np.errstate(all="ignore"):
                assert_bits_equal(stack_sum(x), np.add.reduce(x, axis=-1))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("layout", list(TWO_AXES))
def test_stack_sum_over_matrices_is_numpys_reduction_bit_for_bit(layout, complex_):
    g = SeededRng(20261020, 100 + len(layout)).generator
    for stack in STACKS:
        for rows in range(9):
            for cols in range(9):
                x = TWO_AXES[layout](g, stack, rows, cols, complex_)
                with np.errstate(all="ignore"):
                    assert_bits_equal(stack_sum(x, axes=2), np.add.reduce(x, axis=(-2, -1)))


def test_short_sums_start_from_positive_zero():
    # numpy adds from +0, so a sum of negative zeros is +0, as 0.0 + (-0.0) is.
    for x in (np.full((4, 3), -0.0), np.full((4, 2), -0.0 - 0.0j)):
        assert_bits_equal(stack_sum(x), np.zeros(4, dtype=x.dtype))


def engine_outputs():
    # The stacked outputs of the routes that sum over the stack, on fixed blocks of the sweeps' draws.
    g = SeededRng(20261020, 0).generator
    # theorem1: a forward block, the operations' N stack against block-diagonal states, then a converse block.
    stack = summary_operators_from_parts(draw_kraus_block(2, THEOREM1_OPERATIONS, g)[1])
    for dim_a in (2, 3):
        states = incoherent_quantum_states_from_parts(*draw_incoherent_quantum_block(dim_a, 2, THEOREM1_FORWARD_BLOCK, g))
        probs, zero, states_a = rcc._conditional_states(rcc._mixed_branches(states.reshape(-1, dim_a, 2, dim_a, 2), stack))
        yield from (probs, zero, states_a, l1_coherences(states_a))
    yield from rcc.converse_witnesses(draw_noncq_states(64, 2, 2, g), 2, 2)
    for d in (2, 3, 4):
        # lemma1 and theorem2: one pure branch per pair, then lemma 1's per-outcome bound.
        w, _, grams, kept, achieved = experiments._paired_branches(experiments._draw_pair(d, 64, g))
        yield from (w, grams, kept, achieved, rcc.outcome_coherence_bounds(w[kept], grams[kept]))
        yield from schmidt_rows(w)
        # theorem3: averages, branches, concurrences, partner averages and the branch norms.
        w = coefficient_matrices_from_parts(*draw_schmidt_block(d, d, 32, g))
        stacks = branch_stacks_from_parts(draw_tp_block(d, 16, g)[1], draw_ensemble_block(d, 16, g)[1:])
        average, branches, ent, partner_average = rcc._average_bounds(w, stacks)
        yield from (average, branches, ent, partner_average, rcc._gram_norms(w, branches))
        # check_densities on the eigvalsh route and on the Gershgorin route.
        for n in (GERSHGORIN_MIN_STACK - 1, GERSHGORIN_MIN_STACK):
            m = densities_from_parts(complex_ginibre(g, (d, d), n))
            yield from (m, check_densities(m), l1_coherences(m))


# sha256 over the raw bytes (shape, dtype and data) of every array of
# engine_outputs, taken before the engine summed over the stack.
ENGINE_DIGEST = "7895bb68ecf36f5148380789b77db7131a9071f1135b1813dae7a2f70153def5"


def test_engine_outputs_are_pinned_bit_for_bit():
    h = hashlib.sha256()
    for arr in engine_outputs():
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == ENGINE_DIGEST


def unnormalized_stack(n, bad):
    # n branches tr_B[(I (x) N) rho] of probability 1, one of them (the last) holding bad.
    branches = np.broadcast_to(np.diag([0.5, 0.5]).astype(complex), (n, 2, 2)).copy()
    branches[-1] = bad
    return branches


@pytest.mark.parametrize("n", [1, GERSHGORIN_MIN_STACK - 1, GERSHGORIN_MIN_STACK])
@pytest.mark.parametrize(
    "bad",
    [
        [[0.5, np.nan], [0.2, 0.5]],
        [[np.nan, 0.0], [0.0, 0.5]],
        [[0.5, np.inf], [0.0, 0.5]],
        [[0.5, complex(0.1, np.inf)], [0.1, 0.5]],
    ],
)
def test_conditional_states_with_a_non_finite_entry_are_not_hermitian(n, bad):
    # Dividing such a branch by its probability can already warn; only the error is tested here.
    with np.errstate(invalid="ignore"), pytest.raises(NotHermitian, match=re.escape("max |m - m^dagger| = nan exceeds tolerance 1e-09")):
        rcc._conditional_states(unnormalized_stack(n, bad))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_not_hermitian_where_eigvalsh_raises(d, bad):
    # From d = 3, eigvalsh raises LinAlgError on such a matrix; the state is still NotHermitian.
    branches = np.broadcast_to(np.eye(d, dtype=complex) / d, (GERSHGORIN_MIN_STACK, d, d)).copy()
    branches[-1, 0, d - 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NotHermitian, match=re.escape("= nan exceeds")):
        rcc._conditional_states(branches)


@pytest.mark.parametrize("n", [1, GERSHGORIN_MIN_STACK - 1, GERSHGORIN_MIN_STACK])
def test_conditional_states_that_are_not_positive(n):
    with pytest.raises(NotPositive, match=re.escape("minimum eigenvalue -2.000e-01 is below -1e-09")):
        rcc._conditional_states(unnormalized_stack(n, [[1.2, 0.0], [0.0, -0.2]]))


# Matrices failing the checks from the first on, each with the message it raises.
FAILING = [
    (np.array([[0.9, 2.0], [0.0, 0.9]]), NotHermitian, "max |m - m^dagger| = 2.000e+00 exceeds tolerance 1e-09"),
    (np.array([[0.7, 0.9], [0.9, 0.7]]), BadTrace, "trace deviates from 1 by 4.000e-01"),
    (np.array([[0.5, 0.6], [0.6, 0.5]]), NotPositive, "minimum eigenvalue -1.000e-01 is below -1e-09"),
]


@pytest.mark.parametrize("matrix, error, message", FAILING)
def test_density_checks_keep_their_order_and_messages(matrix, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DensityMatrix(matrix)
    for n in (1, GERSHGORIN_MIN_STACK - 1, GERSHGORIN_MIN_STACK):
        stack = np.broadcast_to(np.eye(2, dtype=complex) / 2, (n, 2, 2)).copy()
        stack[n // 2] = matrix
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check_densities(stack)
