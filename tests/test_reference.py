"""The brute-force reference keeps its two rules, and re-derives every suite's printed worst case.

A worst case is printed for replay: the state and channel of the largest violation and the value that made
it one. Rebuilt from the printed JSON alone, the reference must find the same value.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from rcc_lab import cli, experiments, rcc
from rcc_lab.linalg import complex_ginibre
from rcc_lab.sampling import densities_from_parts
from rcc_lab.states import DensityMatrix
from reference import (
    average_coherence,
    concurrence,
    mixed_branch,
    offdiag_norm,
    partner_amplitudes,
    post_coherence,
    pure_branch,
    summary_operator,
)

ROOT = Path(__file__).resolve().parents[1]


def test_the_reference_is_independent_and_extended():
    for path in ("tests/reference.py", "bench/oracle.py"):
        tree = ast.parse((ROOT / path).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert [name for name in names if name.split(".")[0] == "rcc_lab"] == [], path
    # Where clongdouble is plain complex128, the reference would compare float64 with float64.
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    assert pure_branch(np.ones(1), 1, 1, [np.eye(1)]).dtype == np.clongdouble
    assert mixed_branch(np.eye(1), 1, 1, [np.eye(1)]).dtype == np.clongdouble


def test_the_concurrence_keeps_its_digits_near_a_product_state():
    # The float64 purity route, sqrt(2 (1 - tr rho_A^2)), returns 0 here.
    assert abs(concurrence(np.array([1, 0, 0, 1e-9]), 2, 2) / 2e-9 - 1) <= 1e-12


def matrix(entry):
    # An array from the JSON of one matrix.
    return np.array([complex(*pair) for pair in entry["entries"]]).reshape(entry["rows"], entry["cols"])


def pure_state(entry):
    # Amplitudes, dims and the Schmidt B-vectors beta_i = W[i] / |W[i]| as columns, from the JSON of a state
    # whose A-marginal is diagonal.
    da, db = entry["dim_a"], entry["dim_b"]
    amp = np.array([complex(*pair) for pair in entry["amplitudes"]])
    w = amp.reshape(da, db)
    return amp, da, db, (w / np.linalg.norm(w, axis=1)[:, None]).T


def outcomes(channel):
    # Kraus lists of a channel's outcomes: one per Kraus operator of an operation, one per ensemble member.
    if "operations" in channel:
        return [[matrix(f) for f in op["kraus"]] for op in channel["operations"]]
    return [[matrix(f)] for f in channel["kraus"]]


def lemma1_excess(worst):
    amp, da, db, betas = pure_state(worst["state"])
    kraus = [matrix(f) for f in worst["channel"]["kraus"]]
    branch = pure_branch(amp, da, db, kraus)
    bound = concurrence(amp, da, db) / np.trace(branch).real * offdiag_norm(summary_operator(kraus), betas, da)
    return post_coherence(branch) - bound


def average_and_bounds(worst):
    # The average, the tight bound E sum_k norm_k and the partner bound (d / 2) E <C>_maxent.
    amp, da, db, betas = pure_state(worst["state"])
    branches, ent = outcomes(worst["channel"]), concurrence(amp, da, db)
    tight = ent * sum(offdiag_norm(summary_operator(kraus), betas, da) for kraus in branches)
    partner = da / 2 * ent * average_coherence(partner_amplitudes(betas, da), da, db, branches)
    return average_coherence(amp, da, db, branches), tight, partner


def theorem3_excess(worst):
    average, tight, partner = average_and_bounds(worst)
    return max(average - tight, tight - partner)


def theorem4_deviation(worst):
    average, _, partner = average_and_bounds(worst)
    return abs(average - partner)


def theorem2_post_coherence(worst):
    amp, da, db, _ = pure_state(worst["state"])
    return post_coherence(pure_branch(amp, da, db, [matrix(f) for f in worst["channel"]["kraus"]]))


def nosignal_deviation(worst):
    rho, kraus = matrix(worst["state"]), [matrix(f) for f in worst["channel"]["kraus"]]
    d = round(np.sqrt(len(rho)))
    return float(np.max(np.abs(mixed_branch(rho, d, d, kraus) - mixed_branch(rho, d, d, [np.eye(d)]))))


def theorem1_forward_coherence(worst):
    return post_coherence(mixed_branch(matrix(worst["state"]), 2, 2, [matrix(f) for f in worst["channel"]["kraus"]]))


def theorem1_converse_coherence(worst):
    # The witness is not printed: the search, back at its own target, returns it for the rebuilt state.
    rho = matrix(worst["state"])
    op = rcc.find_creating_operation(DensityMatrix(rho, validate=False), 2, 2)
    return post_coherence(mixed_branch(rho, 2, 2, op.kraus))


SWEEP = experiments._sweep


def strict_sweep(suite, samples, seed, dims, draw, evaluate, worst_case):
    # experiments._sweep without d = 2, where the Lemma 1 and Theorem 3 bounds hold with equality: at d >= 3 every
    # gap is strict and negative, and the sweep prints the gap nearest the bound.
    return SWEEP(suite, samples, seed, tuple(dim for dim in dims if dim != 2), draw, evaluate, worst_case)


# suite, the settings that make every check (or, for theorem2, most) violate, the printed key and its re-derivation.
# theorem1's forward half violates once its states are not block-diagonal; its converse half, below a high target.
FORCED = {
    "lemma1": ("lemma1", {(experiments, "BOUND_ATOL"): -1.0}, "excess", lemma1_excess),
    "theorem3": ("theorem3", {(experiments, "BOUND_ATOL"): -1.0}, "excess", theorem3_excess),
    "lemma1-strict": ("lemma1", {(experiments, "BOUND_ATOL"): -1.0, (experiments, "_sweep"): strict_sweep}, "excess", lemma1_excess),
    "theorem3-strict": ("theorem3", {(experiments, "BOUND_ATOL"): -1.0, (experiments, "_sweep"): strict_sweep}, "excess", theorem3_excess),
    "theorem4": ("theorem4", {(rcc, "FACTORIZATION_ATOL"): -1.0}, "deviation", theorem4_deviation),
    "theorem2": ("theorem2", {(experiments, "AMBIGUITY_BAND"): (10.0, 20.0)}, "post_coherence", theorem2_post_coherence),
    "nosignal": ("nosignal", {(experiments, "NOSIGNAL_ATOL"): -1.0}, "deviation", nosignal_deviation),
    "theorem1-forward": (
        "theorem1",
        {
            (experiments, "THEOREM1_OPERATIONS"): 20,
            (experiments, "draw_incoherent_quantum_block"): lambda da, db, n, g: (complex_ginibre(g, (4, 4), n),),
            (experiments, "incoherent_quantum_states_from_parts"): densities_from_parts,
        },
        "post_coherence",
        theorem1_forward_coherence,
    ),
    "theorem1-converse": (
        "theorem1",
        {(experiments, "THEOREM1_OPERATIONS"): 0, (rcc, "CONVERSE_COHERENCE_TARGET"): 0.5},
        "best_coherence",
        theorem1_converse_coherence,
    ),
}
# Cases whose printed value is rounding: lemma1 and theorem3 at d = 2 and theorem4, whose bounds and law hold with
# equality there, and nosignal, whose deviation is pure rounding. A printed 0 or the value of another sample would
# pass their re-derivation too; every other case prints a value far from 0.
ROUNDING_LEVEL = {"lemma1", "theorem3", "theorem4", "nosignal"}


@pytest.mark.parametrize("case", sorted(FORCED))
def test_the_printed_worst_case_is_rederived_by_the_reference(case, monkeypatch, capsys):
    suite, patches, key, rederive = FORCED[case]
    for (module, name), value in patches.items():
        monkeypatch.setattr(module, name, value)
    assert cli.main(["verify", suite, "--samples", "40", "--seed", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    worst = json.loads(lines[lines.index("worst case (replay):") + 1])
    assert worst.get("direction", "") in case
    monkeypatch.undo()
    assert abs(rederive(worst) - worst[key]) <= 1e-9
    assert case in ROUNDING_LEVEL or abs(worst[key]) > 1e-6
