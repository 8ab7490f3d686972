"""Every public boundary gives a typed error on malformed input, and no warning.

A seeded catalogue of malformed values, built with numpy only, stands in for
each data argument (a number, a string, an array, a list or a JSON mapping) of
every name the rcc_lab root exports, of rcc's public stacked routines and of
the three CLI commands. Each call must return or raise an RccLabError, a
ValueError or a TypeError; a CLI call must exit 2, the bad-input code. Warnings
are errors here, so an overflow inside the engine fails the test.
"""

import inspect
import json

import numpy as np
import pytest

import rcc_lab
from rcc_lab import rcc
from rcc_lab.cli import main
from rcc_lab.errors import RccLabError

pytestmark = pytest.mark.filterwarnings("error")

SEED = 31
SPECIAL = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "1e308": 1e308, "1e160": 1e160}
SCALARS = {**SPECIAL, "bool": True, "string": "x", "empty list": [], "empty string": "", "None": None}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
BELL_AMPLITUDES = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL = rcc_lab.BipartitePureState(2, 2, BELL_AMPLITUDES)
RHO = BELL.density().matrix
DAMPING = rcc_lab.phase_damping(0.3)
PROJECTOR = rcc_lab.KrausOperation([np.diag([1.0, 0.0])])
W = BELL.coefficient_matrix[None]
STACKS = DAMPING.branch_n_stack()[None]
GRAMS = W @ PROJECTOR.n_operator().T @ W.conj().swapaxes(-1, -2)
REPORT = rcc_lab.average_rcc(BELL, DAMPING)


def array_cases(valid: np.ndarray, g: np.random.Generator) -> dict:
    """Malformed stand-ins for the array valid: one seeded entry, or every entry, special; wrong dtype, ndim or size."""
    cases = {}
    for name, bad in SPECIAL.items():
        one = valid.copy()
        one.flat[g.integers(valid.size)] = bad
        cases[f"one {name} entry"] = one
        cases[f"all {name}"] = np.full(valid.shape, bad, dtype=valid.dtype)
    cases["bool array"] = valid != 0
    cases["string array"] = np.full(valid.shape, "x")
    cases["one axis fewer"] = valid[..., 0]
    cases["one axis more"] = valid[None]
    cases["empty"] = valid[:0]
    return cases


def mapping_cases(valid: dict, g: np.random.Generator) -> dict:
    """Malformed stand-ins for a JSON mapping: each field's value replaced, in a list of [re, im] pairs one pair,
    and in a list of mappings (Kraus matrices, ensemble members) the first one's cases."""
    cases = {}
    for key, value in valid.items():
        for name, bad in SCALARS.items():
            cases[f"{key}={name}"] = {**valid, key: bad}
        if isinstance(value, list) and value and isinstance(value[0], list) and len(value[0]) == 2:
            k = int(g.integers(len(value)))
            for name, bad in SPECIAL.items():
                cases[f"{key}[{k}]={name}"] = {**valid, key: value[:k] + [[bad, 0.0]] + value[k + 1 :]}
            cases[f"{key} all 1e308"] = {**valid, key: [[1e308, 1e308]] * len(value)}
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for name, first in mapping_cases(value[0], g).items():
                cases[f"{key}[0].{name}"] = {**valid, key: [first, *value[1:]]}
    return cases


def catalogue(valid, g: np.random.Generator) -> dict:
    cases = dict(SCALARS)
    if isinstance(valid, np.ndarray):
        cases.update(array_cases(valid, g))
    elif isinstance(valid, dict):
        cases.update(mapping_cases(valid, g))
    return cases


def is_data(value) -> bool:
    # Package objects (states, operations, generators, reports) stay valid; everything else is fuzzed.
    return isinstance(value, (int, float, str, list, dict, np.ndarray))


# Valid positional arguments of each callable the rcc_lab root exports.
ROOT_CALLS = {
    "BadTrace": ("message",),
    "BipartitePureState": (2, 2, BELL_AMPLITUDES),
    "ChannelEnsemble": (list(rcc_lab.projective_measurement(HADAMARD).operations),),
    "DensityMatrix": (RHO,),
    "KrausOperation": (np.array(DAMPING.kraus), "label"),
    "NotHermitian": ("message",),
    "NotPositive": ("message",),
    "NotTracePreserving": ("message",),
    "OutcomeRecord": (0.5, None, 0.0),
    "PremiseViolated": ("message",),
    "RccLabError": ("message",),
    "RccReport": ((), 0.0, 0.0, (), 0.0, 0.0, 0.0, None),
    "SearchExhausted": ("message", 0.0, 1),
    "SeededRng": (7, 3),
    "WrongDimension": ("message",),
    "ZeroProbability": ("message",),
    "average_coherence": (BELL, DAMPING),
    "average_coherence_bound": (BELL, DAMPING),
    "average_coherences": (W, [DAMPING]),
    "average_rcc": (BELL, DAMPING),
    "bit_flip": (0.2,),
    "bit_phase_flip": (0.2,),
    "channel_from_json": (rcc_lab.kraus_operation_to_json(DAMPING),),
    "complete_orthonormal_basis": (HADAMARD[:, :1], 2),
    "concurrence": (BELL,),
    "creates_coherence": (BELL, PROJECTOR),
    "depolarizing": (0.2,),
    "ensemble_from_json": (rcc_lab.ensemble_to_json(rcc_lab.projective_measurement(HADAMARD)),),
    "ensemble_to_json": (rcc_lab.projective_measurement(HADAMARD),),
    "factorization_check": (BELL, DAMPING),
    "find_creating_operation": (RHO, 2, 2),
    "haar_random_unitary": (2, rcc_lab.SeededRng(1)),
    "inert_operation": (BELL, np.array([0.5, 0.25])),
    "is_incoherent": (RHO,),
    "is_incoherent_quantum": (RHO, 2, 2),
    "is_trace_preserving": (DAMPING,),
    "kraus_operation_from_json": (rcc_lab.kraus_operation_to_json(DAMPING),),
    "kraus_operation_to_json": (DAMPING,),
    "l1_coherence": (RHO,),
    "matrix_from_json": (rcc_lab.matrix_to_json(HADAMARD),),
    "matrix_to_json": (HADAMARD,),
    "maximally_entangled_partner": (BELL,),
    "outcome_coherence_bound": (BELL, PROJECTOR),
    "partial_trace": (RHO, 2, 2),
    "phase_damping": (0.2,),
    "phase_flip": (0.2,),
    "post_operation_state_a": (RHO, PROJECTOR, 2, 2),
    "projective_measurement": (HADAMARD,),
    "random_pure_state": (2, rcc_lab.SeededRng(1)),
    "reduced_a": (RHO, 2, 2),
    "report_to_json": (REPORT,),
    "state_from_json": (rcc_lab.state_to_json(BELL),),
    "state_to_json": (BELL,),
    "tight_average_bound": (BELL, DAMPING),
}

STACKED_CALLS = {
    "branch_averages": (W, STACKS),
    "maximally_entangled_partners": (W,),
    "outcome_coherence_bounds": (W, GRAMS),
    "tight_average_bounds": (W, STACKS),
    "average_coherence_bounds": (W, STACKS),
}


def positions(calls):
    return [(name, i) for name, args in sorted(calls.items()) for i, arg in enumerate(args) if is_data(arg)]


def exported():
    values = {name: getattr(rcc_lab, name) for name in dir(rcc_lab) if not name.startswith("_")}
    return {name for name, value in values.items() if callable(value) and not inspect.ismodule(value)}


def test_every_export_is_covered():
    assert set(ROOT_CALLS) == exported()


@pytest.mark.parametrize("calls", [ROOT_CALLS, STACKED_CALLS], ids=["root", "stacked"])
def test_valid_arguments_return(calls):
    for name, args in calls.items():
        getattr(rcc_lab if calls is ROOT_CALLS else rcc, name)(*args)


def untyped_failures(fn, args, position) -> list:
    # The cases of the catalogue at args[position] for which fn neither returns nor raises a typed error.
    failures = []
    g = np.random.default_rng([SEED, position])
    for case, bad in catalogue(args[position], g).items():
        try:
            fn(*args[:position], bad, *args[position + 1 :])
        except (RccLabError, ValueError, TypeError):
            pass
        except Exception as exc:
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
    return failures


@pytest.mark.parametrize("name, position", positions(ROOT_CALLS))
def test_root_export(name, position):
    assert untyped_failures(getattr(rcc_lab, name), ROOT_CALLS[name], position) == []


@pytest.mark.parametrize("name, position", positions(STACKED_CALLS))
def test_stacked_routine(name, position):
    assert untyped_failures(getattr(rcc, name), STACKED_CALLS[name], position) == []


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value this way
        return exc.code


def json_values(valid, g) -> dict:
    # The catalogue as it can reach a JSON file: arrays become nested lists, complex ones [re, im] pairs.
    values = {}
    for case, value in catalogue(valid, g).items():
        if isinstance(value, np.ndarray):
            value = np.stack([value.real, value.imag], -1).tolist() if value.dtype.kind == "c" else value.tolist()
        values[case] = value
    return values


@pytest.mark.parametrize("target", ["state", "channel", "ensemble"])
def test_compute_command(target, tmp_path, capsys):
    docs = {
        "state": rcc_lab.state_to_json(BELL),
        "channel": rcc_lab.kraus_operation_to_json(DAMPING),
        "ensemble": rcc_lab.ensemble_to_json(rcc_lab.projective_measurement(HADAMARD)),
    }
    fuzzed = "state" if target == "state" else "channel"
    g = np.random.default_rng([SEED, len(target)])
    codes = {}
    for case, doc in json_values(docs[target], g).items():
        if case.rsplit(".", 1)[-1].startswith("label="):
            continue  # any string is a label
        for kind in ("state", "channel"):
            (tmp_path / f"{kind}.json").write_text(json.dumps(doc if kind == fuzzed else docs[kind]))
        codes[case] = exit_code(["compute", "--state", str(tmp_path / "state.json"), "--channel", str(tmp_path / "channel.json")])
    capsys.readouterr()
    assert {case: code for case, code in codes.items() if code != 2} == {}


def test_fig1_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = {"samples": 2, "damping_rates": [0.5], "seed": 0, "output_path": "rows.csv"}
    g = np.random.default_rng([SEED, 1])
    codes = {}
    for case, doc in catalogue(config, g).items():
        (tmp_path / "config.json").write_text(json.dumps(doc))
        # A non-empty string is a valid output path.
        codes[case] = (exit_code(["fig1", "--config", "config.json"]), 0 if case == "output_path=string" else 2)
    for flag in ("--samples", "--rates", "--seed"):
        for case, value in SCALARS.items():
            args = {"--samples": "2", "--rates": "0.5", "--seed": "0", flag: str(value)}
            codes[f"{flag} {case}"] = (exit_code(["fig1", "--out", "rows.csv", *sum(args.items(), ())]), 2)
    capsys.readouterr()
    assert {case: pair for case, pair in codes.items() if pair[0] != pair[1]} == {}


def test_verify_command(capsys):
    codes = {}
    for case, value in SCALARS.items():
        for slot in ("suite", "--samples", "--seed"):
            args = {"suite": "theorem4", "--samples": "2", "--seed": "0", slot: str(value)}
            codes[f"{slot} {case}"] = exit_code(["verify", args.pop("suite"), *sum(args.items(), ())])
    capsys.readouterr()
    assert {case: code for case, code in codes.items() if code != 2} == {}


# Valid inputs at the edge of VALIDITY_ATOL: a d-level density matrix may hold an entry of 1 + d * VALIDITY_ATOL.
EDGE_DENSITIES = [np.diag([1 + 1.8e-9, -0.9e-9, -0.9e-9]), np.diag([1 + 7.2e-9] + [-0.9e-9] * 8)]


@pytest.mark.parametrize("matrix", EDGE_DENSITIES, ids=["3x3", "9x9"])
def test_edge_densities_are_accepted(matrix):
    rho = rcc_lab.DensityMatrix(matrix)
    assert rho.matrix.real.max() > 1
    assert rcc_lab.l1_coherence(matrix) == 0.0 and rcc_lab.is_incoherent(matrix)


def test_edge_operations_amplitudes_and_bases_are_accepted():
    stretch = np.sqrt(1 + 0.9e-9)
    op = rcc_lab.KrausOperation([stretch * np.eye(2)])
    assert op.n_operator().real.max() > 1
    psi = rcc_lab.BipartitePureState(2, 2, [stretch, 0, 0, 0])
    skew = np.array([[1, 0.9e-9], [0, 1]], dtype=complex)
    skew /= np.linalg.norm(skew, axis=0)
    rcc_lab.projective_measurement(skew)
    rcc_lab.BipartitePureState.from_schmidt([0.5, 0.5], np.diag([stretch, 1.0]))
    assert rcc_lab.average_coherence(psi, rcc_lab.phase_damping(0.5)) == 0.0
    assert rcc.branch_averages(psi.coefficient_matrix[None], op.branch_n_stack()[None]).shape == (1,)
