"""Monte Carlo experiment drivers and property-verification sweeps.

run_fig1 produces the entanglement-versus-average-coherence scatter for the
phase damping channel as a CSV (optionally an SVG); the verify_* sweeps
exercise the package's structural claims on seeded random instances and
report violations instead of raising.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import rcc
from .channels import (
    branch_stacks,
    creation_witnesses,
    ensemble_to_json,
    kraus_operation_to_json,
    phase_damping,
)
from .coherence import l1_coherences
from .linalg import SeededRng, complex_ginibre, matrix_to_json, stream_generators, unitary_from_ginibre
from .sampling import (
    branch_stacks_from_parts,
    coefficient_matrices_from_parts,
    densities_from_parts,
    draw_ensemble_block,
    draw_incoherent_quantum_block,
    draw_kraus_block,
    draw_noncq_states,
    draw_schmidt_block,
    draw_tp_block,
    ensemble_from_parts,
    incoherent_quantum_states_from_parts,
    isometry_kraus,
    kraus_operation_from_parts,
    scaled_kraus,
    summary_operators_from_parts,
    tp_channel_from_parts,
)
from .states import BipartitePureState, batch_concurrence, schmidt_coefficients, state_to_json, unit_amplitudes

CSV_HEADER = "sample,seed,r,omega0,entanglement,avg_rcc,avg_rcc_maxent,ratio"

# Verify thresholds; the README "Tolerances" table lists them with the others.
FORWARD_COHERENCE_ATOL = 1e-8  # theorem1: forward coherence at or above it violates
AMBIGUITY_BAND = (1e-9, 1e-6)  # theorem2: excluded inside, created above
BOUND_ATOL = 1e-10  # lemma1, theorem3: allowed excess over a bound
NOSIGNAL_ATOL = 1e-10  # nosignal: allowed entry change of A's marginal

# Checks drawn and evaluated together by every verify sweep (theorem1's forward half: states, each against all
# its operations); memory grows with it, never with --samples. Even: a sample's parity in its block is that in the sweep.
VERIFY_BLOCK = 256

# Samples drawn and evaluated together by run_fig1. Memory per block grows
# with FIG1_BLOCK x rates, never with --samples; 256 already amortizes the
# per-block numpy call overhead to about a microsecond per sample.
FIG1_BLOCK = 256

# Random operations theorem1's forward half checks every block-diagonal state against.
THEOREM1_OPERATIONS = 100


@dataclass
class ExperimentConfig:
    """Settings for the scatter experiment.

    damping_rates must lie in [0, 1]; a plot_path turns on SVG emission next
    to the CSV. The states and the channel are two-qubit by definition.
    """

    samples: int = 200_000
    damping_rates: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    seed: int = 0
    output_path: str = "fig1.csv"
    plot_path: str | None = None

    def validate(self) -> None:
        _require_int("field 'samples'", self.samples)
        if self.samples < 1:
            raise ValueError(f"field 'samples': must be at least 1, got {self.samples}")
        if not self.damping_rates:
            raise ValueError("field 'damping_rates': must not be empty")
        for i, r in enumerate(self.damping_rates):
            if isinstance(r, bool) or not isinstance(r, numbers.Real):
                raise ValueError(f"field 'damping_rates': rate {r!r} is not a real number")
            try:
                rate = float(r)
            except OverflowError:
                raise ValueError(f"field 'damping_rates': rate {i} is too large for a float") from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"field 'damping_rates': rate {r} lies outside [0, 1]")
        _require_int("field 'seed'", self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"field 'seed': must fit in unsigned 64 bits, got {self.seed}")
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ValueError(f"field 'output_path': must be a non-empty path string, got {self.output_path!r}")
        if self.plot_path is not None and (not isinstance(self.plot_path, str) or not self.plot_path):
            raise ValueError(f"field 'plot_path': must be a non-empty path string or null, got {self.plot_path!r}")
        if self.plot_path is not None and os.path.realpath(self.plot_path) == os.path.realpath(self.output_path):
            raise ValueError(f"field 'plot_path': names the same file as output_path {self.output_path!r}")

    @classmethod
    def from_mapping(cls, obj: dict) -> "ExperimentConfig":
        """Build a config from a JSON mapping, rejecting unknown fields."""
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(obj) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(obj)
        if "damping_rates" in kwargs:
            if not isinstance(kwargs["damping_rates"], list):
                raise ValueError("field 'damping_rates': must be a list of numbers")
            kwargs["damping_rates"] = tuple(kwargs["damping_rates"])
        return cls(**kwargs)


def _require_int(name: str, value) -> None:
    # JSON true/false are ints to Python; neither they nor floats count here.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class Fig1Summary:
    """Aggregates from one scatter run, for the CLI summary lines."""

    rows: int
    rows_with_ratio: int
    max_ratio_deviation: float
    mean_average_by_rate: dict
    monotone: bool
    csv_path: str
    plot_path: str | None


def _fig1_draw(seed: int, samples: range) -> tuple[np.ndarray, np.ndarray]:
    # One stream per sample, SeededRng(seed, sample)'s, all seeded in one pass
    # and drawn as random_schmidt_parts(2, 2, .) draws: the first weight, then
    # the real and imaginary Ginibre parts of haar_random_unitary (one
    # (2, 2, 2) draw yields the same numbers).
    first = np.empty(len(samples))
    gauss = np.empty((len(samples), 2, 2, 2))
    for j, g in enumerate(stream_generators(seed, samples)):
        first[j] = g.random()
        gauss[j] = g.standard_normal((2, 2, 2))
    return first, (gauss[:, 0] + 1j * gauss[:, 1]) / np.sqrt(2.0)


def _fig1_block(first: np.ndarray, ginibre: np.ndarray, channels):
    """Entanglement, state average and partner average of one block of samples.

    Row i of the coefficient matrix W is sqrt(w_i) beta_i, so the partner's
    rows are the beta_i / sqrt(2), the transposed Haar basis over sqrt(2).
    The averages have shape (samples, channels).
    """
    basis = unitary_from_ginibre(ginibre)
    w = schmidt_coefficients(np.stack([first, 1.0 - first], axis=1), basis)
    partner = basis.swapaxes(1, 2) / np.sqrt(2.0)
    both = unit_amplitudes(np.concatenate([w, partner]).reshape(-1, 4)).reshape(-1, 2, 2)
    averages = rcc.average_coherences(both, channels)
    n = len(first)
    return batch_concurrence(both[:n]), averages[:n], averages[n:]


def run_fig1(config: ExperimentConfig) -> Fig1Summary:
    """Run the phase-damping scatter and write one CSV row per (sample, rate).

    Output bytes depend only on the config and seed: sample k draws from the
    stream of SeededRng(seed, k), and samples are evaluated in blocks of
    FIG1_BLOCK in index order.
    """
    config.validate()
    rates = [float(r) for r in config.damping_rates]
    channels = [phase_damping(r) for r in rates]
    rate_txts = [repr(r) for r in rates]
    seed = int(config.seed)
    samples = int(config.samples)

    # Plot points are gathered only for a plot, every plot_stride-th sample.
    plot = config.plot_path is not None
    plot_stride = max(1, samples // 4000)
    blue_points = []
    red_points = []
    rate_sums = np.zeros(len(rates))
    max_dev = 0.0
    rows_with_ratio = 0

    with open(config.output_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, samples, FIG1_BLOCK):
            block = range(start, min(start + FIG1_BLOCK, samples))
            first, ginibre = _fig1_draw(seed, block)
            ent, avg, maxent = _fig1_block(first, ginibre, channels)
            has_ratio = maxent > rcc.RATIO_DENOMINATOR_CUTOFF
            ratio = np.divide(avg, maxent, out=np.zeros_like(avg), where=has_ratio)
            rate_sums += avg.sum(axis=0)
            rows_with_ratio += int(has_ratio.sum())
            if has_ratio.any():
                max_dev = max(max_dev, float(np.abs(ratio - ent[:, None])[has_ratio].max()))
            # repr of a Python float is the shortest decimal that round-trips exactly.
            lines = []
            for sample, w0, e, avgs, maxents, ratios, defined in zip(
                block, first.tolist(), ent.tolist(), avg.tolist(), maxent.tolist(), ratio.tolist(), has_ratio.tolist()
            ):
                head = f"{sample},{seed},"
                tail = f",{w0!r},{e!r},"
                for rate_txt, a, m, q, ok in zip(rate_txts, avgs, maxents, ratios, defined):
                    lines.append(f"{head}{rate_txt}{tail}{a!r},{m!r},{repr(q) if ok else ''}\n")
                if plot and sample % plot_stride == 0:
                    for rate, a, q, ok in zip(rates, avgs, ratios, defined):
                        blue_points.append((e, a, rate))
                        if ok:
                            red_points.append((e, q))
            fh.write("".join(lines))

    means = {r: float(total) / samples for r, total in zip(rates, rate_sums)}
    ordered = [means[r] for r in sorted(means)]
    monotone = all(b > a - 1e-12 for a, b in zip(ordered, ordered[1:]))

    if plot:
        svg = scatter_svg(blue_points, red_points, sorted(set(rates)))
        with open(config.plot_path, "w", newline="\n") as fh:
            fh.write(svg)

    return Fig1Summary(
        rows=samples * len(rates),
        rows_with_ratio=rows_with_ratio,
        max_ratio_deviation=max_dev,
        mean_average_by_rate=means,
        monotone=monotone,
        csv_path=config.output_path,
        plot_path=config.plot_path,
    )


def scatter_svg(blue_points, red_points, rate_levels) -> str:
    """Minimal self-contained scatter: average coherence and ratio versus entanglement.

    Blue dots darken with the damping rate; red dots are the ratio series.
    """
    width, height = 640, 480
    left, right, top, bottom = 60, 20, 20, 50
    span_x = width - left - right
    span_y = height - top - bottom
    ys = [p[1] for p in blue_points] + [p[1] for p in red_points]
    y_max = max(1.0, max(ys) if ys else 1.0) * 1.05
    x_max = 1.05
    red = "rgb(200,30,30)"

    def px(x: float) -> float:
        return left + span_x * min(max(x / x_max, 0.0), 1.0)

    def py(y: float) -> float:
        return height - bottom - span_y * min(max(y / y_max, 0.0), 1.0)

    def blue_shade(rate: float) -> str:
        # light to dark blue as the rate grows
        level = 210 - int(160 * min(max(rate, 0.0), 1.0))
        return f"rgb({level // 2},{level},230)"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val = frac * x_max
        y_val = frac * y_max
        parts.append(f'<text x="{px(x_val):.1f}" y="{height - bottom + 18}" font-size="11" text-anchor="middle">{x_val:.2f}</text>')
        parts.append(f'<text x="{left - 8}" y="{py(y_val):.1f}" font-size="11" text-anchor="end" dominant-baseline="middle">{y_val:.2f}</text>')
    parts.append(
        f'<text x="{left + span_x / 2:.1f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle">entanglement (concurrence)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + span_y / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + span_y / 2:.1f})">average coherence / ratio</text>'
    )
    dots = [(ent, avg, blue_shade(rate)) for ent, avg, rate in blue_points] + [(ent, q, red) for ent, q in red_points]
    for x, y, fill in dots:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2" fill="{fill}" fill-opacity="0.6"/>')
    legend = [(blue_shade(rate), f"average, r={rate:g}") for rate in rate_levels] + [(red, "ratio")]
    for k, (fill, label) in enumerate(legend):
        legend_y = top + 10 + 16 * k
        parts.append(f'<circle cx="{width - right - 130}" cy="{legend_y}" r="4" fill="{fill}"/>')
        parts.append(f'<text x="{width - right - 120}" y="{legend_y + 4}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@dataclass
class SuiteReport:
    """Outcome of one verification sweep."""

    suite: str
    checked: int
    violations: int
    excluded: int
    max_violation: float
    worst_case: dict | None
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_theorem1(samples: int, seed: int) -> SuiteReport:
    """Block-diagonal states never hand A coherence; all others can.

    Forward: random block-diagonal states against THEOREM1_OPERATIONS random operations must keep A's
    post-operation coherence below FORWARD_COHERENCE_ATOL; blocks of VERIFY_BLOCK states, one
    draw_incoherent_quantum_block each, meet the stack of all operations in one contraction, which holds
    VERIFY_BLOCK x THEOREM1_OPERATIONS conditional states. Converse: for random states failing the block
    test, the converse witness must create coherence above rcc.CONVERSE_COHERENCE_TARGET; one
    rcc.converse_witnesses per VERIFY_BLOCK states.
    """
    g = SeededRng(seed, 0).generator
    dim_a = dim_b = 2
    report = SuiteReport("theorem1", 0, 0, 0, 0.0, None)
    forward_worst = 0.0
    ops = draw_kraus_block(dim_b, THEOREM1_OPERATIONS, g)
    stack = summary_operators_from_parts(ops[1])
    for start in range(0, samples, VERIFY_BLOCK):
        states = incoherent_quantum_states_from_parts(*draw_incoherent_quantum_block(dim_a, dim_b, min(VERIFY_BLOCK, samples - start), g))
        _, zero, states_a = rcc._conditional_states(rcc._mixed_branches(states.reshape(-1, dim_a, dim_b, dim_a, dim_b), stack))
        achieved = l1_coherences(states_a)
        forward_worst = max(forward_worst, float(achieved.max(initial=0.0)))
        _record(report, zero.size, np.flatnonzero(~zero), achieved, achieved >= FORWARD_COHERENCE_ATOL,
                lambda k, value: {"direction": "forward", "state": matrix_to_json(states[k // THEOREM1_OPERATIONS]),
                                  "channel": _operation_json(ops, k % THEOREM1_OPERATIONS), "post_coherence": value})
    exhausted = 0
    for start in range(0, samples, VERIFY_BLOCK):
        # The draw keeps only states that fail the block test, so no witness is masked.
        states = draw_noncq_states(min(VERIFY_BLOCK, samples - start), dim_a, dim_b, g)
        _, reached, _ = rcc.converse_witnesses(states, dim_a, dim_b)
        below = reached <= rcc.CONVERSE_COHERENCE_TARGET
        exhausted += int(below.sum())
        _record(report, len(states), np.arange(len(states)), reached, below,
                lambda k, value: {"direction": "converse", "state": matrix_to_json(states[k]), "best_coherence": value})
    report.notes = (
        f"forward: max post-coherence {forward_worst:.3e} over {samples * THEOREM1_OPERATIONS} checks",
        f"converse: {samples - exhausted}/{samples} witnesses reached the target, {exhausted} below it",
    )
    return report


def _record(report, checked, kept, values, flagged, replay) -> None:
    """Add a block of checked checks to report: those at indices kept have values, flagged marks violations.

    The rest are excluded. replay(k, value) builds the replay dict of check k,
    only for a new worst case: the first violation with the largest value, as
    a sequential sweep records it.
    """
    report.checked += checked
    report.excluded += checked - len(kept)
    report.violations += int(flagged.sum())
    if flagged.any():
        j = np.flatnonzero(flagged)[np.argmax(values[flagged])]
        if report.worst_case is None or values[j] > report.max_violation:
            report.max_violation = float(values[j])
            report.worst_case = replay(int(kept[j]), report.max_violation)


def _sweep(suite, samples, seed, dims, draw, evaluate, worst_case) -> SuiteReport:
    """Shared loop of the theorem2, lemma1, theorem3, theorem4 and nosignal sweeps.

    For each dim in dims in turn (None: draw picks it), blocks of
    VERIFY_BLOCK of the samples are drawn, parts = draw(dim, n, g), from the
    suite's one stream. evaluate(dim, parts) returns the indices of the
    samples it could evaluate, their values and which of them violate (see
    _record); worst_case(parts, k, value) builds the replay dict of sample k.
    """
    g = SeededRng(seed, 0).generator
    report = SuiteReport(suite, 0, 0, 0, 0.0, None)
    for dim in dims:
        for start in range(0, samples, VERIFY_BLOCK):
            n = min(VERIFY_BLOCK, samples - start)
            parts = draw(dim, n, g)
            _record(report, n, *evaluate(dim, parts), lambda k, value: worst_case(parts, k, value))
    return report


def _replay(channel_json, key="excess"):
    # worst_case(parts, k, value) of _sweep for (Schmidt block, channel block) draws.
    def worst_case(parts, k, value):
        (weights, ginibre), channels = parts
        state = BipartitePureState.from_schmidt(weights[k], unitary_from_ginibre(ginibre[k]))
        return {"state": state_to_json(state), "channel": channel_json(channels, k), key: value}

    return worst_case


def _draw_pair(dim, n, g):
    return draw_schmidt_block(dim, dim, n, g), draw_kraus_block(dim, n, g)


def _paired_branches(parts):
    # w, N, branches W N^T W^dagger, kept indices and their coherence of a _draw_pair block, each operation one outcome.
    schmidt, (_, mats) = parts
    w = coefficient_matrices_from_parts(*schmidt)
    kraus = scaled_kraus(mats)
    grams = rcc._pure_branches(w, kraus[:, None])
    _, zero, states = rcc._conditional_states(grams)
    return w, branch_stacks(kraus)[1], grams[:, 0], np.flatnonzero(~zero[:, 0]), l1_coherences(states)


def _operation_json(ops, k) -> dict:
    return kraus_operation_to_json(kraus_operation_from_parts(*ops, k))


def verify_theorem2(samples: int, seed: int) -> SuiteReport:
    """Commutator criterion agrees with directly computed post-coherence.

    Instances whose achieved coherence falls inside AMBIGUITY_BAND, or whose
    branch has zero probability, are excluded and counted; on all others
    channels.creation_witnesses must agree with the stacked contraction.
    """
    low, high = AMBIGUITY_BAND

    def evaluate(dim, parts):
        w, n_ops, _, kept, achieved = _paired_branches(parts)
        clear = (achieved < low) | (achieved > high)
        kept, achieved = kept[clear], achieved[clear]
        predicted = creation_witnesses(w[kept], n_ops[kept]) >= 0
        return kept, achieved, predicted != (achieved > high)

    def worst_case(parts, k, achieved):
        # A violation's prediction is the opposite of achieved > high.
        return {**_replay(_operation_json, "post_coherence")(parts, k, achieved), "predicted": not achieved > high}

    report = _sweep("theorem2", max(1, samples // 2), seed, (2, 3), _draw_pair, evaluate, worst_case)
    # 1e-9 prints as 1e-9, as the band is written above.
    band = ", ".join(np.format_float_scientific(x, trim="-", exp_digits=1) for x in AMBIGUITY_BAND)
    report.notes = (f"excluded fraction {report.excluded / report.checked:.4%} (ambiguity band [{band}])",)
    return report


def verify_lemma1(samples: int, seed: int) -> SuiteReport:
    """Per-outcome coherence never exceeds its Cauchy bound (tolerance BOUND_ATOL).

    One contraction per (state, operation) pair gives the conditional state,
    and the bound's probability and norm are read off the same branch.
    """

    def evaluate(dim, parts):
        w, _, grams, kept, achieved = _paired_branches(parts)
        gaps = achieved - rcc.outcome_coherence_bounds(w[kept], grams[kept])
        return kept, gaps, gaps > BOUND_ATOL

    return _sweep("lemma1", samples, seed, (2, 3, 4), _draw_pair, evaluate, _replay(_operation_json))


def verify_theorem3(samples: int, seed: int) -> SuiteReport:
    """Average ordering: achieved <= branch-resolved bound <= partner bound.

    Even samples draw a trace-preserving channel, odd ones an ensemble: a
    block draws its states, then its channels, then its ensembles. Both meet
    in one QR, one stack of branch stacks, padded with zero branches, which
    add 0, and one rcc._average_bounds pass.
    """

    def draw(dim, n, g):
        return draw_schmidt_block(dim, dim, n, g), (draw_tp_block(dim, (n + 1) // 2, g), draw_ensemble_block(dim, n // 2, g))

    def evaluate(dim, parts):
        schmidt, ((_, z), ensembles) = parts
        w = coefficient_matrices_from_parts(*schmidt)
        stacks = branch_stacks_from_parts(z, ensembles[1:])
        average, branches, ent, partner_average = rcc._average_bounds(w, stacks)
        tight = ent * rcc._gram_norms(w, branches).sum(axis=-1)
        gaps = np.maximum(average - tight, tight - dim / 2 * ent * partner_average)
        return np.arange(len(w)), gaps, gaps > BOUND_ATOL

    def channel_json(blocks, k):
        if k % 2 == 0:
            return kraus_operation_to_json(tp_channel_from_parts(*blocks[0], k // 2))
        return ensemble_to_json(ensemble_from_parts(*blocks[1], k // 2))

    return _sweep("theorem3", samples, seed, (2, 3, 4), draw, evaluate, _replay(channel_json))


def verify_theorem4(samples: int, seed: int) -> SuiteReport:
    """Two-qubit factorization: average equals entanglement times partner average."""

    def draw(dim, n, g):
        return draw_schmidt_block(dim, dim, n, g), draw_tp_block(dim, n, g)

    def evaluate(dim, parts):
        schmidt, (_, z) = parts
        w, stacks = coefficient_matrices_from_parts(*schmidt), branch_stacks_from_parts(z)
        average, _, ent, partner_average = rcc._average_bounds(w, stacks)
        # For two qubits the Theorem 3 bound (d / 2) E <C>_maxent is exactly
        # E <C>_maxent, the law's right-hand side.
        devs = np.abs(average - dim / 2 * ent * partner_average)
        return np.arange(len(w)), devs, devs >= rcc.FACTORIZATION_ATOL

    replay = _replay(lambda channels, k: kraus_operation_to_json(tp_channel_from_parts(*channels, k)), "deviation")
    return _sweep("theorem4", samples, seed, (2,), draw, evaluate, replay)


def verify_nosignal(samples: int, seed: int) -> SuiteReport:
    """Without post-selection a trace-preserving channel leaves A's marginal alone.

    Even samples are two-qubit, odd ones two-qutrit: a block draws the states and then the channels of its
    qubit samples, then those of its qutrit samples. The oracle, independent of rcc on purpose, traces B out of
    (I (x) F) rho (I (x) F)^dagger for each Kraus operator F, one stack per dimension, with I (x) F built by
    writing F into the diagonal blocks of a zero matrix (_lift_b).
    """

    def draw(_, n, g):
        return [(complex_ginibre(g, (d * d, d * d), m), draw_tp_block(d, m, g)) for d, m in ((2, (n + 1) // 2), (3, n // 2))]

    def evaluate(_, parts):
        devs = np.empty(sum(len(z) for z, _ in parts))
        for parity, (z, (_, iso)) in enumerate(parts):
            d, rho = iso.shape[-1], densities_from_parts(z)
            branch_stacks(kraus := isometry_kraus(iso))  # checks 0 <= N <= I
            big = _lift_b(kraus, d)
            after = _trace_b(big @ rho[:, None] @ big.conj().swapaxes(-1, -2), d).sum(axis=1)
            devs[parity::2] = np.abs(after - _trace_b(rho, d)).max(axis=(-2, -1))
        return np.arange(len(devs)), devs, devs >= NOSIGNAL_ATOL

    def worst_case(parts, k, dev):
        z, channels = parts[k % 2]
        channel = kraus_operation_to_json(tp_channel_from_parts(*channels, k // 2))
        return {"state": matrix_to_json(densities_from_parts(z[k // 2])), "channel": channel, "deviation": dev}

    return _sweep("nosignal", samples, seed, (None,), draw, evaluate, worst_case)


def _lift_b(kraus: np.ndarray, d: int) -> np.ndarray:
    # I (x) F of operators kraus (..., d, d) on B, as np.kron(np.eye(d), kraus) gives it, without its generic product.
    big = np.zeros(kraus.shape[:-2] + (d, d, d, d), dtype=kraus.dtype)
    for i in range(d):
        big[..., i, :, i, :] = kraus
    return big.reshape(kraus.shape[:-2] + (d * d, d * d))


def _trace_b(m: np.ndarray, d: int) -> np.ndarray:
    # tr_B of operators m (..., d * d, d * d) on two d-level systems.
    return np.einsum("...ijkj->...ik", m.reshape(m.shape[:-2] + (d, d, d, d)))


_SUITE_RUNNERS = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "lemma1": verify_lemma1,
    "theorem3": verify_theorem3,
    "theorem4": verify_theorem4,
    "nosignal": verify_nosignal,
}

VERIFY_SUITES = tuple(_SUITE_RUNNERS)


def run_verify(suite: str, samples: int, seed: int) -> SuiteReport:
    """Run one named verification sweep."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)}")
    _require_int("samples", samples)
    _require_int("seed", seed)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return _SUITE_RUNNERS[suite](samples, seed)
