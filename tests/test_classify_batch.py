"""The stacked theorem2 and nosignal sweeps and the stacked creation criterion.

The reference loops below take the sweep's block draws and evaluate them one
sample at a time: one state and one channel object per row, built as the
random_* samplers build them, through the scalar API, with the nosignal
oracle as the reference's (I (x) F) sandwich and explicit trace over B.
The stacked sweeps must give equal reports (==), worst case included.
"""

import numpy as np
import pytest

from rcc_lab import channels, experiments, rcc
from rcc_lab.channels import KrausOperation, creates_coherence, creation_witnesses, kraus_operation_to_json
from rcc_lab.coherence import l1_coherence
from rcc_lab.errors import PremiseViolated, ZeroProbability
from rcc_lab.experiments import VERIFY_BLOCK, SuiteReport, run_verify
from rcc_lab.linalg import (
    SeededRng,
    complex_ginibre,
    haar_random_unitary,
    matrix_to_json,
    unitary_from_ginibre,
)
from rcc_lab.sampling import (
    densities_from_parts,
    draw_kraus_block,
    draw_schmidt_block,
    draw_tp_block,
    kraus_operation_from_parts,
    random_kraus_operation,
    tp_channel_from_parts,
)
from rcc_lab.states import BipartitePureState, state_to_json
from reference import mixed_branch, post_coherence, pure_branch, square_root

SEEDS = (0, 5, 13)
# theorem2 sweeps samples // 2 per dimension, so the last size crosses a
# block boundary in both suites.
SIZES = (1, 2, 33, 2 * VERIFY_BLOCK + 10)


def sample_blocks(samples, seed, dims, draw):
    # The sweep's draws: per dim, one draw(dim, n, g) per block of at most
    # VERIFY_BLOCK samples, all from one stream; yields (n, parts).
    g = SeededRng(seed, 0).generator
    for dim in dims:
        for start in range(0, samples, VERIFY_BLOCK):
            n = min(VERIFY_BLOCK, samples - start)
            yield n, draw(dim, n, g)


def band_note(excluded, checked):
    low, high = (np.format_float_scientific(x, trim="-", exp_digits=1) for x in experiments.AMBIGUITY_BAND)
    return (f"excluded fraction {excluded / checked:.4%} (ambiguity band [{low}, {high}])",)


def scalar_theorem2(samples, seed):
    low, high = experiments.AMBIGUITY_BAND
    checked = violations = excluded = 0
    max_violation = 0.0
    worst = None

    def draw(dim, n, g):
        return draw_schmidt_block(dim, dim, n, g), draw_kraus_block(dim, n, g)

    for n, ((weights, ginibre), ops) in sample_blocks(max(1, samples // 2), seed, (2, 3), draw):
        for k in range(n):
            psi = BipartitePureState.from_schmidt(weights[k], unitary_from_ginibre(ginibre[k]))
            op = kraus_operation_from_parts(*ops, k)
            checked += 1
            try:
                state_a, _ = rcc.post_operation_state_a(psi, op)
            except ZeroProbability:
                excluded += 1
                continue
            achieved = l1_coherence(state_a)
            if low <= achieved <= high:
                excluded += 1
                continue
            predicted, _ = creates_coherence(psi, op)
            if predicted != (achieved > high):
                violations += 1
                if achieved > max_violation:
                    max_violation = achieved
                    worst = {
                        "state": state_to_json(psi),
                        "channel": kraus_operation_to_json(op),
                        "post_coherence": achieved,
                        "predicted": predicted,
                    }
    return SuiteReport("theorem2", checked, violations, excluded, max_violation, worst, band_note(excluded, checked))


def scalar_nosignal(samples, seed):
    checked = violations = 0
    max_violation = 0.0
    worst = None

    def draw(_, n, g):
        # The qubit samples' states and channels, then the qutrit samples'.
        return [(complex_ginibre(g, (d * d, d * d), m), draw_tp_block(d, m, g)) for d, m in ((2, (n + 1) // 2), (3, n // 2))]

    for n, stacks in sample_blocks(samples, seed, (None,), draw):
        for k in range(n):
            dim = 2 if k % 2 == 0 else 3
            states, tp = stacks[k % 2]
            rho = densities_from_parts(states[k // 2])
            channel = tp_channel_from_parts(*tp, k // 2)
            checked += 1
            # The sweep's oracle is program output: the reference forms the same sums in float64.
            before = mixed_branch(rho, dim, dim, [np.eye(dim)], np.complex128)
            dev = float(np.max(np.abs(mixed_branch(rho, dim, dim, channel.kraus, np.complex128) - before)))
            if dev >= experiments.NOSIGNAL_ATOL:
                violations += 1
                if dev > max_violation:
                    max_violation = dev
                    worst = {"state": matrix_to_json(rho), "channel": kraus_operation_to_json(channel), "deviation": dev}
    return SuiteReport("nosignal", checked, violations, 0, max_violation, worst)


REFERENCES = {"theorem2": scalar_theorem2, "nosignal": scalar_nosignal}


@pytest.mark.parametrize("suite", sorted(REFERENCES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", SIZES)
def test_stacked_sweep_equals_the_per_sample_loop(suite, seed, samples):
    assert run_verify(suite, samples, seed) == REFERENCES[suite](samples, seed)


def always_inert(w, n_ops):
    return np.full(len(w), -1)


# Each setting makes most checks violate: the counts, the largest value and
# the first sample that reaches it must match the loop.
FORCED = {
    # Every instance is clear of the band and none reaches it: all operations
    # predicted to create coherence violate.
    "theorem2-predicted-creates": ("theorem2", {(experiments, "AMBIGUITY_BAND"): (10.0, 20.0)}),
    # Both routes predict nothing, so every created coherence violates.
    "theorem2-predicted-inert": (
        "theorem2",
        {(experiments, "creation_witnesses"): always_inert, (channels, "creation_witnesses"): always_inert},
    ),
    "nosignal": ("nosignal", {(experiments, "NOSIGNAL_ATOL"): -1.0}),
    # A band that excludes about half the instances and flags those below it: the note's fraction is not 0.
    "theorem2-wide-band": ("theorem2", {(experiments, "AMBIGUITY_BAND"): (0.4, 10.0)}),
}


@pytest.mark.parametrize("case", sorted(FORCED))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", SIZES)
def test_forced_violations_pick_the_same_worst_case(monkeypatch, case, seed, samples):
    suite, patches = FORCED[case]
    for (module, name), value in patches.items():
        monkeypatch.setattr(module, name, value)
    report = run_verify(suite, samples, seed)
    assert report.violations > 0 and (report.excluded > 0 or case != "theorem2-wide-band")
    assert report == REFERENCES[suite](samples, seed)


def test_nosignal_rejects_an_invalid_channel(monkeypatch):
    # The oracle checks 0 <= N <= I on the drawn channels, as KrausOperation does.
    isometry = experiments.isometry_kraus
    monkeypatch.setattr(experiments, "isometry_kraus", lambda z: 2 * isometry(z))
    with pytest.raises(ValueError, match="0 <= N <= I"):
        run_verify("nosignal", 4, 0)


@pytest.mark.parametrize("d", [2, 3])
def test_nosignal_lift_equals_the_kronecker_product(d):
    # The oracle's I (x) F on a block's Kraus sets, zero-padded to the block's largest count; np.kron is the reference.
    kraus = experiments.isometry_kraus(draw_tp_block(d, 64, SeededRng(20261022, d).generator)[1])
    assert (np.abs(kraus).max(axis=(-2, -1)) == 0).any()
    lifted = experiments._lift_b(kraus, d)
    assert lifted.shape == kraus.shape[:-2] + (d * d, d * d)
    assert np.array_equal(lifted, np.kron(np.eye(d), kraus))


def test_theorem2_note_follows_the_ambiguity_band(monkeypatch):
    assert run_verify("theorem2", 4, 0).notes == ("excluded fraction 0.0000% (ambiguity band [1e-9, 1e-6])",)
    monkeypatch.setattr(experiments, "AMBIGUITY_BAND", (2.5e-8, 1e-5))
    assert run_verify("theorem2", 4, 0).notes == ("excluded fraction 0.0000% (ambiguity band [2.5e-8, 1e-5])",)


def test_theorem2_checks_the_premise_on_the_block(monkeypatch):
    coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2)).coefficient_matrix
    monkeypatch.setattr(experiments, "coefficient_matrices_from_parts", lambda weights, _: np.repeat(coherent[None], len(weights), 0))
    with pytest.raises(PremiseViolated):
        run_verify("theorem2", 4, 0)


def recording(monkeypatch, module, name, sizes, size_of):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        sizes.append(size_of(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_memory_grows_with_the_block_not_with_samples(monkeypatch):
    samples = 2 * VERIFY_BLOCK + 10
    contracted, mixed, criteria, oracle = [], [], [], []
    recording(monkeypatch, rcc, "_pure_branches", contracted, lambda w, factors: len(w))
    # The forward half meets one shared N stack (p, db, db), the converse
    # witness one projector per state (n, 1, db, db).
    recording(monkeypatch, rcc, "_mixed_branches", mixed, lambda r4, stack: (stack.ndim, len(r4)))
    recording(monkeypatch, experiments, "creation_witnesses", criteria, lambda w, n_ops: len(w))
    recording(monkeypatch, experiments, "densities_from_parts", oracle, lambda z: len(z))
    run_verify("theorem2", samples, 0)
    run_verify("nosignal", samples, 0)
    monkeypatch.setattr(experiments, "THEOREM1_OPERATIONS", 3)
    experiments.verify_theorem1(samples, 0)
    # Two blocks for each of d = 2, 3; theorem1's forward half contracts
    # VERIFY_BLOCK states per block, each against 3 operations.
    assert contracted == [VERIFY_BLOCK, 5] * 2
    forward = [size for ndim, size in mixed if ndim == 3]
    converse = [size for ndim, size in mixed if ndim == 4]
    assert max(forward) <= VERIFY_BLOCK and sum(forward) == samples
    assert max(converse) <= VERIFY_BLOCK and sum(converse) == samples
    assert max(criteria) <= VERIFY_BLOCK and max(oracle) <= VERIFY_BLOCK
    assert sum(oracle) == samples


# -- the stacked criterion on hard inputs ---------------------------------


def hard_cases():
    # (psi, N, expected) with expected True (creates), False (inert) or None
    # (decided by the oracle only).
    rng = SeededRng(20260901)
    for d in (2, 3):
        for dim_b in (d, d + 2):
            for gap in (0.0, 1e-14, 1e-12):
                weights = np.full(d, 1.0 / d)
                weights[0] += gap
                weights[1] -= gap
                basis = haar_random_unitary(dim_b, rng)
                psi = BipartitePureState.from_schmidt(weights, basis[:, :d])
                support = basis[:, :d] @ basis[:, :d].conj().T
                outside = np.eye(dim_b) - support
                yield psi, np.zeros((dim_b, dim_b)), False
                yield psi, np.eye(dim_b), False
                yield psi, 0.5 * support + 0.3 * outside, False
                # <beta_1| N |beta_0> = 1/2: coherence between the first two rows.
                v = (basis[:, 0] + basis[:, 1]) / np.sqrt(2)
                yield psi, np.outer(v, v.conj()), True
                if dim_b > d:
                    # N acts only outside B's support: inert although it is not
                    # a multiple of the identity there (the claim-2 case P != I).
                    v = basis[:, d:] @ (rng.generator.standard_normal(dim_b - d) + 0j)
                    yield psi, np.outer(v, v.conj()) / np.vdot(v, v).real, False
                    # A projector mixing a support direction with an outside one.
                    v = (basis[:, 0] + basis[:, d]) / np.sqrt(2)
                    yield psi, np.outer(v, v.conj()), None
                for _ in range(3):
                    yield psi, random_kraus_operation(dim_b, rng).n_operator(), None


CASES = list(hard_cases())


def test_stack_elements_equal_the_scalar_criterion():
    # One stack per (dim_a, dim_b); each element must equal the scalar view,
    # both the boolean and the witness.
    for shape in sorted({(psi.dim_a, psi.dim_b) for psi, _, _ in CASES}):
        cases = [(psi, KrausOperation([square_root(n)])) for psi, n, _ in CASES if (psi.dim_a, psi.dim_b) == shape]
        w = np.array([psi.coefficient_matrix for psi, _ in cases])
        witnesses = creation_witnesses(w, np.array([op.n_operator() for _, op in cases]))
        for (psi, op), witness in zip(cases, witnesses.tolist()):
            assert creates_coherence(psi, op) == ((True, witness) if witness >= 0 else (False, None))


def test_hard_inputs_agree_with_the_oracle():
    decided = 0
    for psi, n, expected in CASES:
        op = KrausOperation([square_root(n)])
        created = creation_witnesses(psi.coefficient_matrix[None], op.n_operator()[None])[0] >= 0
        if expected is not None:
            assert created == expected
        branch = pure_branch(psi.amplitudes, psi.dim_a, psi.dim_b, op.kraus)
        achieved = post_coherence(branch) if np.trace(branch).real >= 1e-14 else None
        if achieved is None:
            assert not created
        elif not 1e-9 <= achieved <= 1e-6:
            assert created == (achieved > 1e-6)
            decided += 1
    assert decided > len(CASES) // 2


def test_empty_stack_premise_and_tolerance():
    assert creation_witnesses(np.zeros((0, 2, 3), dtype=complex), np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    bell = np.eye(2, dtype=complex) / np.sqrt(2)
    coherent = np.array([[1, 0], [1, 0]], dtype=complex) / np.sqrt(2)
    # One coherent A-marginal anywhere in the stack fails the whole stack.
    with pytest.raises(PremiseViolated, match="marginal"):
        creation_witnesses(np.stack([bell, coherent]), np.stack([np.eye(2)] * 2))
