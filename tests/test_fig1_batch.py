"""The block-evaluated scatter against the per-sample scalar route."""

import csv
import hashlib

import numpy as np
import pytest

from rcc_lab import experiments
from rcc_lab.channels import KrausOperation, phase_damping
from rcc_lab.errors import NotTracePreserving, PremiseViolated
from rcc_lab.experiments import FIG1_BLOCK, ExperimentConfig, run_fig1
from rcc_lab.linalg import SeededRng, complex_ginibre
from rcc_lab.rcc import (
    RATIO_DENOMINATOR_CUTOFF,
    average_coherence,
    average_coherences,
    maximally_entangled_partner,
)
from rcc_lab.sampling import random_schmidt_parts, random_schmidt_state, tp_channel_from_parts
from rcc_lab.states import BipartitePureState, concurrence

# Fixed before the batched engine was written: the batch sums in another
# order than the scalar route, so the last digits of computed columns move.
COMPUTED_ATOL = 1e-12

RATES = (0.0, 0.25, 0.5, 1.0)


def fmt(x):
    return repr(float(x))


def scalar_rows(samples, seed, rates):
    """One (sample, seed, r, omega0, entanglement, avg, maxent, ratio) per row."""
    channels = [phase_damping(r) for r in rates]
    rows = []
    for sample in range(samples):
        weights, basis = random_schmidt_parts(2, 2, SeededRng(seed, stream_id=sample))
        psi = BipartitePureState.from_schmidt(weights, basis)
        partner = maximally_entangled_partner(psi)
        ent = concurrence(psi)
        for rate, channel in zip(rates, channels):
            avg = average_coherence(psi, channel)
            maxent = average_coherence(partner, channel)
            ratio = avg / maxent if maxent > RATIO_DENOMINATOR_CUTOFF else None
            rows.append((sample, seed, rate, weights[0], ent, avg, maxent, ratio))
    return rows


def test_batch_matches_scalar_route(tmp_path):
    samples, seed = FIG1_BLOCK + 44, 20161008
    assert samples >= 300
    out = tmp_path / "rows.csv"
    summary = run_fig1(
        ExperimentConfig(samples=samples, damping_rates=RATES, seed=seed, output_path=str(out))
    )
    with open(out) as fh:
        batch = list(csv.DictReader(fh))
    reference = scalar_rows(samples, seed, RATES)
    assert len(batch) == len(reference)
    for row, (sample, seed_ref, rate, omega0, ent, avg, maxent, ratio) in zip(batch, reference):
        assert (row["sample"], row["seed"], row["r"], row["omega0"]) == (
            str(sample),
            str(seed_ref),
            fmt(rate),
            fmt(omega0),
        )
        assert abs(float(row["entanglement"]) - ent) <= COMPUTED_ATOL
        assert abs(float(row["avg_rcc"]) - avg) <= COMPUTED_ATOL
        assert abs(float(row["avg_rcc_maxent"]) - maxent) <= COMPUTED_ATOL
        assert (row["ratio"] == "") == (ratio is None)
        if ratio is not None:
            assert abs(float(row["ratio"]) - ratio) <= COMPUTED_ATOL
    assert summary.rows_with_ratio == sum(1 for r in reference if r[7] is not None)
    assert summary.rows_with_ratio < len(reference)  # r = 0.0 rows have no ratio


def test_golden_csv_digest(tmp_path):
    # 64 samples, seed 20161008, default rates. Every change to the fig1 bytes
    # must be deliberate: record the new digest together with its cause.
    out = tmp_path / "golden.csv"
    run_fig1(ExperimentConfig(samples=64, seed=20161008, output_path=str(out)))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "11e8b631a20b5bc78c5b3a8ecbcbf7ee0c890923ef4954341c8e159f9473b42c"


# Pinned before the stream seeds moved to one pass per block: several blocks,
# with run entropy of one word (seed 0) and of two (2**32, 2**64 - 1).
BLOCK_CSV_DIGESTS = {
    0: "30d4088fe80297081488e1cb0236cb176e004e0a2daddf486070ce9f67c45f39",
    2**32: "dd48d3f1efde2d684587e42a4b0d8fe0b4dba5cb1812ee0db20ddbbc1fc1f2a3",
    2**64 - 1: "c54b47aea8c7763ef9eaecd5f3b05c5a2034c40cb1c241c2ab5a4bae68fe1bd8",
}


@pytest.mark.parametrize("seed", sorted(BLOCK_CSV_DIGESTS))
def test_csv_digest_across_blocks(tmp_path, seed):
    out = tmp_path / "rows.csv"
    run_fig1(ExperimentConfig(samples=2 * FIG1_BLOCK + 3, seed=seed, output_path=str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOCK_CSV_DIGESTS[seed]


def test_svg_digest(tmp_path):
    # 300 samples plot every sample (stride 1); pinned with the CSV digests.
    svg = tmp_path / "plot.svg"
    run_fig1(
        ExperimentConfig(
            samples=300, damping_rates=RATES, seed=3, output_path=str(tmp_path / "rows.csv"), plot_path=str(svg)
        )
    )
    digest = hashlib.sha256(svg.read_bytes()).hexdigest()
    assert digest == "e6558a6da4b211fb561d3cf65deffbe5fa6f416ab92a29fb5faa69ccac9508c8"


def test_no_seeded_rng_per_sample(tmp_path, monkeypatch):
    calls = []
    real = SeededRng.__post_init__

    def spy(self):
        calls.append(self.stream_id)
        real(self)

    monkeypatch.setattr(SeededRng, "__post_init__", spy)
    run_fig1(ExperimentConfig(samples=FIG1_BLOCK + 5, damping_rates=(0.5,), output_path=str(tmp_path / "x.csv")))
    assert len(calls) <= 1


def test_blocks_bound_the_work_per_step(tmp_path, monkeypatch):
    seen = []
    real = experiments._fig1_block

    def spy(first, ginibre, channels):
        seen.append(len(first))
        return real(first, ginibre, channels)

    monkeypatch.setattr(experiments, "_fig1_block", spy)
    samples = 2 * FIG1_BLOCK + 3
    run_fig1(ExperimentConfig(samples=samples, damping_rates=(0.5,), output_path=str(tmp_path / "x.csv")))
    assert seen == [FIG1_BLOCK, FIG1_BLOCK, 3]


class TestAverageCoherences:
    def test_matches_scalar_average(self):
        rng = SeededRng(91)
        for dim_a, dim_b in ((2, 2), (3, 3), (2, 3)):
            states = [random_schmidt_state(dim_a, dim_b, rng) for _ in range(6)]
            channels = [tp_channel_from_parts(np.array([3]), complex_ginibre(rng.generator, (3 * dim_b, dim_b), 1)) for _ in range(4)]
            stacked = np.stack([psi.coefficient_matrix for psi in states])
            batch = average_coherences(stacked, channels)
            assert batch.shape == (len(states), len(channels))
            for i, psi in enumerate(states):
                for c, channel in enumerate(channels):
                    assert abs(batch[i, c] - average_coherence(psi, channel)) <= 1e-13

    def test_premise_enforced_over_the_batch(self):
        good = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        stacked = np.stack([good.coefficient_matrix, coherent.coefficient_matrix])
        with pytest.raises(PremiseViolated):
            average_coherences(stacked, [phase_damping(0.5)])

    def test_every_channel_must_be_trace_preserving(self):
        bell = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        lossy = KrausOperation([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])
        with pytest.raises(NotTracePreserving):
            average_coherences(bell.coefficient_matrix[None], [phase_damping(0.5), lossy])
