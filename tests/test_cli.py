import codecs
import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rcc_lab
from rcc_lab import experiments, rcc
from rcc_lab.channels import (
    ChannelEnsemble,
    KrausOperation,
    ensemble_to_json,
    kraus_operation_to_json,
    phase_damping,
    projective_measurement,
)
from rcc_lab.cli import main
from rcc_lab.experiments import AMBIGUITY_BAND, CSV_HEADER, FIG1_BLOCK, ExperimentConfig, run_fig1, run_verify
from rcc_lab.linalg import SeededRng
from rcc_lab.sampling import random_channel_ensemble, random_schmidt_state, random_tp_channel
from rcc_lab.states import BipartitePureState, state_to_json

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
DATA = os.path.join(os.path.dirname(__file__), "data")


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def bell_file(tmp_path):
    psi = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    return write_json(tmp_path / "bell.json", state_to_json(psi))


def hadamard_measurement_file(tmp_path):
    ensemble = projective_measurement(HADAMARD)
    return write_json(tmp_path / "measure.json", ensemble_to_json(ensemble))


class TestFig1Command:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["fig1", "--samples", "4", "--rates", "0.0,0.5", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 2
        printed = capsys.readouterr().out
        assert "max |ratio - entanglement|" in printed

    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig1", "--samples", "6", "--rates", "0.1,0.9", "--seed", "77"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_block_boundary_keeps_bytes(self, tmp_path):
        # Each sample draws from its own stream, so where the blocks split a
        # run cannot change the rows: a longer run extends a shorter one.
        args = ["fig1", "--rates", "0.3,0.7", "--seed", "5"]
        outputs = {}
        for samples in (5, FIG1_BLOCK - 1, FIG1_BLOCK + 7):
            path = tmp_path / f"{samples}.csv"
            assert main(args + ["--samples", str(samples), "--out", str(path)]) == 0
            outputs[samples] = path.read_bytes()
        longest = outputs[FIG1_BLOCK + 7]
        assert longest.startswith(outputs[5])
        assert longest.startswith(outputs[FIG1_BLOCK - 1])
        assert len(longest.splitlines()) == 1 + 2 * (FIG1_BLOCK + 7)

    def test_ratio_column_tracks_entanglement(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["fig1", "--samples", "5", "--rates", "0.5", "--seed", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            for row in csv.DictReader(fh):
                if row["ratio"]:
                    assert abs(float(row["ratio"]) - float(row["entanglement"])) < 1e-9

    def test_zero_rate_creates_nothing(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["fig1", "--samples", "5", "--rates", "0.0", "--seed", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            for row in csv.DictReader(fh):
                assert float(row["avg_rcc"]) < 1e-12
                assert row["ratio"] == ""

    def test_plot_emission(self, tmp_path):
        out = tmp_path / "rows.csv"
        svg = tmp_path / "plot.svg"
        code = main(
            ["fig1", "--samples", "3", "--rates", "0.5", "--seed", "3", "--out", str(out), "--plot", str(svg)]
        )
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and content.rstrip().endswith("</svg>")

    def test_config_file_with_flag_override(self, tmp_path):
        config = write_json(
            tmp_path / "config.json",
            {"samples": 2, "damping_rates": [0.5], "seed": 11, "output_path": str(tmp_path / "c.csv")},
        )
        override = tmp_path / "d.csv"
        assert main(["fig1", "--config", config, "--out", str(override)]) == 0
        assert override.exists()
        assert len(override.read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize(
        "flag, field, text, value",
        [
            ("--samples", "samples", "3", 3),
            ("--rates", "damping_rates", "0.1,0.9", [0.1, 0.9]),
            ("--seed", "seed", "12", 12),
            ("--out", "output_path", "flag.csv", "flag.csv"),
            ("--plot", "plot_path", "flag.svg", "flag.svg"),
        ],
    )
    def test_each_flag_overrides_only_its_config_field(self, tmp_path, monkeypatch, flag, field, text, value):
        monkeypatch.chdir(tmp_path)
        file_fields = {"samples": 2, "damping_rates": [0.5], "seed": 11, "output_path": "file.csv", "plot_path": "file.svg"}
        configs = []
        real_run = experiments.run_fig1

        def recording_run(config):
            configs.append(config)
            return real_run(config)

        monkeypatch.setattr(experiments, "run_fig1", recording_run)
        assert main(["fig1", "--config", write_json(tmp_path / "config.json", file_fields), flag, text]) == 0
        assert configs == [ExperimentConfig.from_mapping({**file_fields, field: value})]

    def test_config_file_with_a_bom(self, tmp_path, capsys):
        config = {"samples": 2, "damping_rates": [0.5], "seed": 11, "output_path": str(tmp_path / "c.csv")}
        bom = tmp_path / "bom.json"
        bom.write_bytes(codecs.BOM_UTF8 + json.dumps(config).encode())
        runs = []
        for path in (write_json(tmp_path / "config.json", config), str(bom)):
            assert main(["fig1", "--config", path]) == 0
            runs.append((capsys.readouterr().out, (tmp_path / "c.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_invalid_rate_is_usage_error(self, tmp_path, capsys):
        code = main(["fig1", "--samples", "1", "--rates", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "damping_rates" in capsys.readouterr().err

    def test_dims_flag_is_rejected(self, tmp_path, capsys):
        # The experiment is two-qubit by definition; there is no --dims.
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--samples", "1", "--dims", "3,3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--dims" in capsys.readouterr().err

    def test_dims_config_field_is_unknown(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "config.json", {"samples": 1, "dims": [2, 2], "output_path": str(tmp_path / "x.csv")}
        )
        assert main(["fig1", "--config", config]) == 2
        assert "unknown config fields: ['dims']" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        code = main(["fig1", "--samples", "1", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"samples": 2.7}, "samples"),
            ({"samples": True}, "samples"),
            ({"seed": 1.9}, "seed"),
            ({"seed": True}, "seed"),
            ({"damping_rates": [True]}, "damping_rates"),
            ({"damping_rates": ["0.5"]}, "damping_rates"),
            ({"damping_rates": 0.5}, "damping_rates"),
            ({"plot_path": ["plot.svg"]}, "plot_path"),
            ({"output_path": ["x.csv"]}, "output_path"),
            ({"plot_path": ""}, "plot_path"),
        ],
    )
    def test_config_values_of_the_wrong_type_are_usage_errors(self, tmp_path, capsys, fields, name):
        out = tmp_path / "x.csv"
        config = write_json(tmp_path / "config.json", {"samples": 1, "output_path": str(out), **fields})
        assert main(["fig1", "--config", config]) == 2
        assert f"field '{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_plot_flag_is_a_usage_error_before_sampling(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["fig1", "--samples", "3", "--out", str(out), "--plot", ""]) == 2
        assert "field 'plot_path'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_plot_path_naming_the_csv_is_a_usage_error_before_any_write(self, tmp_path, capsys, monkeypatch, from_config):
        # The SVG would overwrite the CSV; ./rows.csv and rows.csv are one file.
        monkeypatch.chdir(tmp_path)
        if from_config:
            config = {"samples": 2, "output_path": "rows.csv", "plot_path": "./rows.csv"}
            args = ["--config", write_json(tmp_path / "config.json", config)]
        else:
            args = ["--samples", "2", "--out", "rows.csv", "--plot", str(tmp_path / "rows.csv")]
        assert main(["fig1", *args]) == 2
        assert "field 'plot_path': names the same file as output_path 'rows.csv'" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == (["config.json"] if from_config else [])

    def test_config_output_path_is_not_a_file_descriptor(self, tmp_path, capsys):
        # open() takes an int as a descriptor: it would write the CSV into it and close it.
        target = tmp_path / "descriptor.txt"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            config = write_json(tmp_path / "config.json", {"samples": 1, "output_path": fd})
            assert main(["fig1", "--config", config]) == 2
            os.fstat(fd)
        finally:
            os.close(fd)
        assert target.read_bytes() == b""
        assert "field 'output_path'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ([1], "config must be a JSON object"),
            ({"samples": 1, "seed": 2**64}, "field 'seed': must fit in unsigned 64 bits, got 18446744073709551616"),
            ({"samples": 1, "damping_rates": []}, "field 'damping_rates': must not be empty"),
            # A 401-digit JSON integer is a Python int that no float holds.
            ({"samples": 1, "damping_rates": [0.5, 10**400]}, "field 'damping_rates': rate 1 is too large for a float"),
        ],
        ids=["not_an_object", "seed_too_large", "no_rates", "rate_too_large"],
    )
    def test_config_errors_are_usage_errors(self, tmp_path, capsys, config, message):
        out = tmp_path / "x.csv"
        assert main(["fig1", "--config", write_json(tmp_path / "config.json", config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_rates_flag_must_list_floats(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["fig1", "--samples", "1", "--rates", "0.1,x", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --rates must be a comma-separated float list, got '0.1,x'\n"
        assert not out.exists()

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"sample_count": 3})
        assert main(["fig1", "--config", config]) == 2
        assert "unknown config fields" in capsys.readouterr().err


class TestUnexpectedErrors:
    def test_crash_exits_3_with_traceback(self, monkeypatch, capsys):
        def crash(*args):
            raise RuntimeError("could not draw a non-block-diagonal state")

        monkeypatch.setattr(experiments, "run_verify", crash)
        assert main(["verify", "theorem1", "--samples", "1"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError" in err

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "run_verify", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "theorem1", "--samples", "1"])

    def test_closed_stdout_pipe_exits_4_quietly(self):
        # The read end closes before the child starts, so its first write fails, every time.
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rcc_lab.__file__))}
        try:
            run = subprocess.run(
                [sys.executable, "-W", "error", "-m", "rcc_lab.cli", "verify", "theorem4", "--samples", "4"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert run.returncode == 4
        assert b"Traceback" not in run.stderr and b"Exception ignored" not in run.stderr
        assert run.stderr == b""

    def test_no_stdout_at_all_is_not_a_crash(self):
        # Started with stdout closed, Python sets sys.stdout to None and print drops the output: exit 0, as before.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rcc_lab.__file__))}
        command = 'exec "$0" -W error -m rcc_lab.cli verify theorem4 --samples 4 >&-'
        run = subprocess.run(["sh", "-c", command, sys.executable], stderr=subprocess.PIPE, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")


# sha256 of the stdout of `rcc-lab verify <suite> --samples 40 --seed S`.
# With no violation the report does not depend on the seed, so one digest
# serves seeds 0, 5 and 13. Every change to these bytes must be deliberate:
# record the new digest together with its cause.
VERIFY_DIGESTS = {
    "theorem1": "0c0492b7786c8af984b5b8b892990b37e40728d93f42ebd4b56782dbf9dec89f",
    "theorem2": "fd5d3f12023f0a955b9e1ef07ec08841cb77200ae8af86876d0ff448294cf8c3",
    "lemma1": "e5c22213aa11ef8709199ec0af0c4a098ccb78c3162bb06bb3257b598f270243",
    "theorem3": "180dc6406a0102579d9bdc6d22878dc93c601b572fd987f0ee456712196c5375",
    "theorem4": "518786f50f12dec5615ad834000e7808fde440816f55fae77a09bcafec475017",
    "nosignal": "6e248057e11c27a313cc08168e989fc45c71c54728e39d53363af116428fa79b",
}


@pytest.mark.parametrize("seed", [0, 5, 13])
@pytest.mark.parametrize("suite", list(VERIFY_DIGESTS))
def test_verify_stdout_digest(suite, seed, capsys):
    assert main(["verify", suite, "--samples", "40", "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


# (state, channel) of each pinned `rcc-lab compute` input pair.
COMPUTE_CASES = {
    "bell_hadamard": lambda: (
        BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2)),
        projective_measurement(HADAMARD),
    ),
    "tilted_phase_damping": lambda: (BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD), phase_damping(0.5)),
    "tp_channel_d3": lambda: (random_schmidt_state(3, 3, SeededRng(1008, 0)), random_tp_channel(3, SeededRng(1008, 1))),
    "ensemble_d3": lambda: (
        random_schmidt_state(3, 3, SeededRng(1009, 0)),
        random_channel_ensemble(3, SeededRng(1009, 1)),
    ),
    # At d = 4 the last digits depend on how traces are summed: both pairs
    # move if np.einsum("...ii->...") replaces ndarray.trace.
    "tp_channel_d4": lambda: (random_schmidt_state(4, 4, SeededRng(1020, 0)), random_tp_channel(4, SeededRng(1020, 1))),
    "ensemble_d4": lambda: (
        random_schmidt_state(4, 4, SeededRng(1021, 0)),
        random_channel_ensemble(4, SeededRng(1021, 1)),
    ),
    # dim_b = 3 > dim_a = 2: the projector onto |2> misses B's support, so its
    # branch has probability exactly 0 and is flagged.
    "wide_b_zero_branch": lambda: (
        BipartitePureState.from_schmidt([0.7, 0.3], np.eye(3)),
        projective_measurement(np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)),
    ),
}

# sha256 of the stdout of `rcc-lab compute` on each COMPUTE_CASES pair. As
# with VERIFY_DIGESTS, record every change together with its cause.
COMPUTE_DIGESTS = {
    "bell_hadamard": "eecd714c308209a0444d27d92269b343ec8b4cfc195338b7c6031d5779a69a78",
    "tilted_phase_damping": "5f0cefcfab0dffc21da75aa9e7696d7596f783822295e5d9fa9aad0978196e73",
    "tp_channel_d3": "d1418d5f2a8d70d16e3e65a2c749861b70e0a6c86d2dabf326a2918b5cf701b9",
    "ensemble_d3": "87d064271b6c46181a6f4754245e5dfda0b02bd64e60793692981a1e7cb29ce3",
    "tp_channel_d4": "1455b86427f16a9d357e025c61d5b0293f9991e6e51e3deeadf42f04b775f812",
    "ensemble_d4": "1ed401b0b58590f0b7bc9c2ce3d08a14683e1180be37d09b69ab2f0d360a2098",
    "wide_b_zero_branch": "5c3822b0fd807539dcc840e3bbd91e6a83411fc7099912485609d4d461b45a61",
}


@pytest.mark.parametrize("case", list(COMPUTE_DIGESTS))
def test_compute_stdout_digest(case, tmp_path, capsys):
    psi, channel = COMPUTE_CASES[case]()
    to_json = ensemble_to_json if isinstance(channel, ChannelEnsemble) else kraus_operation_to_json
    state = write_json(tmp_path / "state.json", state_to_json(psi))
    channel = write_json(tmp_path / "channel.json", to_json(channel))
    assert main(["compute", "--state", state, "--channel", channel]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == COMPUTE_DIGESTS[case]


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["theorem2", "lemma1", "theorem3", "theorem4", "nosignal"])
    def test_suites_pass_at_small_scale(self, suite, capsys):
        code = main(["verify", suite, "--samples", "25", "--seed", "13"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"suite={suite}" in out
        assert "PASS" in out

    def test_theorem1_smoke(self, capsys):
        code = main(["verify", "theorem1", "--samples", "10", "--seed", "13"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converse: 10/10 witnesses reached the target, 0 below it" in out

    def test_theorem2_note_quotes_the_ambiguity_band(self):
        note = run_verify("theorem2", 2, 0).notes[0]
        band = re.search(r"ambiguity band \[([^,\]]+), ([^\]]+)\]", note)
        assert (float(band.group(1)), float(band.group(2))) == AMBIGUITY_BAND

    def test_failing_suite_prints_a_replayable_worst_case(self, tmp_path, monkeypatch, capsys):
        # With a zero tolerance every theorem4 sample's rounding is a violation: exit 1. The
        # worst case, written back to files, replays through compute with the printed deviation.
        monkeypatch.setattr(rcc, "FACTORIZATION_ATOL", 0.0)
        assert main(["verify", "theorem4", "--samples", "4", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("suite=theorem4 checked=4 violations=4 ")
        assert lines[-3] == "worst case (replay):" and lines[-1] == "FAIL"
        worst = json.loads(lines[-2])
        assert worst["deviation"] > 0.0
        state = write_json(tmp_path / "state.json", worst["state"])
        channel = write_json(tmp_path / "channel.json", worst["channel"])
        assert main(["compute", "--state", state, "--channel", channel]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["average_rcc"] - doc["entanglement"] * doc["maxent_average_rcc"]) == worst["deviation"]

    def test_unknown_suite_rejected_by_parser(self, capsys):
        # run_verify, not argparse, checks the name: the parser loads no experiment driver.
        assert main(["verify", "theorem9"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite 'theorem9'" in err and all(suite in err for suite in experiments.VERIFY_SUITES)

    def test_run_verify_validates_samples(self):
        with pytest.raises(ValueError, match="samples"):
            run_verify("theorem4", 0, 1)

    @pytest.mark.parametrize(
        "samples, seed, field",
        [(True, 0, "samples"), (2.0, 0, "samples"), ("2", 0, "samples"), (2, False, "seed"), (2, 1.5, "seed")],
    )
    def test_run_verify_rejects_non_integers(self, samples, seed, field):
        # True would otherwise run one sample, and a float seed would truncate.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            run_verify("theorem4", samples, seed)


class TestComputeCommand:
    def test_bell_with_hadamard_measurement(self, tmp_path, capsys):
        code = main(
            ["compute", "--state", bell_file(tmp_path), "--channel", hadamard_measurement_file(tmp_path)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["average_rcc"] - 1.0) < 1e-9
        assert len(doc["outcomes"]) == 2
        assert abs(doc["factorization_ratio"] - 1.0) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_rare_branch_is_valid_input(self, capsys):
        # A 2x3 state at weights (0.5, 0.5) (SeededRng(20261019, 17), the
        # Schmidt vectors u_0, u_1 of a Haar basis u), measured in the QR basis
        # of [u_2 + 1e-5 u_0, u_0, u_1]: the first outcome has p = 5e-11. Its
        # conditional state, divided by p, must still pass the positivity check.
        state, channel = (os.path.join(DATA, f"rare_branch.{kind}.json") for kind in ("state", "channel"))
        assert main(["compute", "--state", state, "--channel", channel]) == 0
        first = json.loads(capsys.readouterr().out)["outcomes"][0]
        assert not first["zero_probability"] and 4e-11 < first["probability"] < 6e-11

    def test_a_fresh_interpreter_loads_no_experiment_driver(self):
        script = (
            "import json, sys; from rcc_lab.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)"
        )
        state, channel = (os.path.join(DATA, f"rare_branch.{kind}.json") for kind in ("state", "channel"))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rcc_lab.__file__))}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, "compute", "--state", state, "--channel", channel],
            env=env, capture_output=True, timeout=60,
        )
        assert run.returncode == 0 and json.loads(run.stdout)["outcomes"]
        loaded = set(json.loads(run.stderr))
        assert "rcc_lab.rcc" in loaded and not loaded & {"rcc_lab.experiments", "rcc_lab.sampling"}
        # Only the seeding of random streams loads numpy.random, which costs milliseconds at start-up.
        assert "numpy.random" not in loaded

    def test_block_diagonal_pure_state_yields_zero(self, tmp_path, capsys):
        # |0>|+> is pure and block-diagonal on A, so nothing can be created
        psi = BipartitePureState(2, 2, np.array([1, 1, 0, 0]) / np.sqrt(2))
        state = write_json(tmp_path / "state.json", state_to_json(psi))
        code = main(["compute", "--state", state, "--channel", hadamard_measurement_file(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["average_rcc"] < 1e-12

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["compute", "--state", str(bad), "--channel", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "line 1" in err

    @pytest.mark.parametrize(
        "target, edit, message",
        [
            ("channel", lambda doc: [1, 2], "channel value must be a JSON object"),
            ("channel", lambda doc: {**doc, "kraus": []}, "field 'kraus' must be a non-empty list of matrices"),
            ("channel", lambda doc: {**doc, "label": 5}, "field 'label' must be a string"),
            ("channel", lambda doc: {"operations": []}, "field 'operations' must be a non-empty list"),
            ("state", lambda doc: [1, 2], "state value must be a JSON object"),
            ("state", lambda doc: {**doc, "amplitudes": doc["amplitudes"][:3]}, "field 'amplitudes' must list dim_a*dim_b = 4 pairs, got 3"),
            ("channel", lambda doc: {**doc, "kraus": [[1, 0]]}, "matrix value must be a JSON object"),
            # 401-digit JSON integers are Python ints that no float holds.
            (
                "state",
                lambda doc: {**doc, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, -(10**400)]]},
                "amplitude 3 holds a number too large for a float",
            ),
            (
                "channel",
                lambda doc: {**doc, "kraus": [{**doc["kraus"][0], "entries": [[1, 0], [10**400, 0], [0, 0], [1, 0]]}]},
                "entry 1 holds a number too large for a float",
            ),
        ],
        ids=[
            "channel_not_an_object",
            "no_kraus",
            "label_not_a_string",
            "no_operations",
            "state_not_an_object",
            "amplitude_count",
            "kraus_not_a_matrix",
            "amplitude_too_large",
            "kraus_entry_too_large",
        ],
    )
    def test_malformed_documents_are_usage_errors(self, tmp_path, capsys, target, edit, message):
        docs = {
            "state": state_to_json(BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))),
            "channel": kraus_operation_to_json(KrausOperation([np.eye(2)])),
        }
        docs[target] = edit(docs[target])
        paths = [write_json(tmp_path / f"{kind}.json", doc) for kind, doc in docs.items()]
        assert main(["compute", "--state", paths[0], "--channel", paths[1]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # JSON input as RFC 8259 reads it, whatever the locale: the state and a channel whose label is
    # not ASCII, in UTF-8 with and without a BOM, UTF-16 (with a BOM, and little-endian without) and UTF-32.
    ENCODED_PAIR = (
        state_to_json(BipartitePureState.from_schmidt([0.9, 0.1], HADAMARD)),
        {**kraus_operation_to_json(phase_damping(0.5)), "label": "déphasage"},
    )

    def ascii_report(self, tmp_path, capsys):
        paths = [write_json(tmp_path / f"{kind}.json", doc) for kind, doc in zip(("state", "channel"), self.ENCODED_PAIR)]
        assert main(["compute", "--state", paths[0], "--channel", paths[1]]) == 0
        return capsys.readouterr().out

    def encoded_pair(self, tmp_path, encoding):
        paths = []
        for kind, doc in zip(("state", "channel"), self.ENCODED_PAIR):
            path = tmp_path / f"{kind}.{encoding}.json"
            path.write_bytes(json.dumps(doc, ensure_ascii=False).encode(encoding))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32"])
    def test_input_encodings_give_the_same_report(self, tmp_path, capsys, encoding):
        want = self.ascii_report(tmp_path, capsys)
        state, channel = self.encoded_pair(tmp_path, encoding)
        assert main(["compute", "--state", state, "--channel", channel]) == 0
        assert capsys.readouterr().out == want

    def test_input_encoding_ignores_the_c_locale(self, tmp_path, capsys):
        # Under LC_ALL=C without UTF-8 mode, Python opens text files as ASCII.
        want = self.ascii_report(tmp_path, capsys)
        src = os.path.dirname(os.path.dirname(rcc_lab.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
        state, channel = self.encoded_pair(tmp_path, "utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "rcc_lab.cli", "compute", "--state", state, "--channel", channel],
            env=env, capture_output=True, timeout=60,
        )
        assert (run.returncode, run.stderr, run.stdout.decode()) == (0, b"", want)

    def test_invalid_byte_names_the_file(self, tmp_path, capsys):
        channel = tmp_path / "channel.json"
        channel.write_bytes(json.dumps(self.ENCODED_PAIR[1]).encode()[:-1] + b"\xff}")
        assert main(["compute", "--state", bell_file(tmp_path), "--channel", str(channel)]) == 2
        prefix = f"error: parse error in channel file {str(channel)!r}: 'utf-8' codec can't decode byte 0xff"
        assert capsys.readouterr().err.startswith(prefix)

    def test_missing_file(self, tmp_path, capsys):
        code = main(
            ["compute", "--state", str(tmp_path / "nope.json"), "--channel", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, field, value",
        [
            ("state", "dim_a", True),
            ("state", "dim_b", True),
            ("state", "amplitudes", [[True, 0.0], [0, 0], [0, 0], [1, 0]]),
            ("channel", "dim_b", True),
            ("channel", "rows", True),
            ("channel", "cols", True),
            ("channel", "entries", [[1, False], [0, 0], [0, 0], [0, 0]]),
        ],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, target, field, value):
        state = state_to_json(BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2)))
        channel = kraus_operation_to_json(KrausOperation([np.eye(2)]))
        if target == "state":
            state[field] = value
        elif field == "dim_b":
            channel[field] = value
        else:
            channel["kraus"][0][field] = value
        code = main(
            [
                "compute",
                "--state",
                write_json(tmp_path / "state.json", state),
                "--channel",
                write_json(tmp_path / "channel.json", channel),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        named = {"amplitudes": "amplitude 0", "entries": "entry 0"}.get(field, f"'{field}'")
        assert named in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("as_ensemble", [False, True])
    def test_overflowing_summary_is_a_usage_error(self, tmp_path, capsys, as_ensemble):
        # F = diag(1e160, 0) is finite, but its entry lies above linalg.ENTRY_BOUND: exit 2, no warning.
        channel = kraus_operation_to_json(KrausOperation([np.eye(2)]))
        channel["kraus"][0]["entries"][0] = [1e160, 0.0]
        if as_ensemble:
            channel = {"operations": [channel, kraus_operation_to_json(KrausOperation([np.diag([0.0, 1.0])]))]}
        path = write_json(tmp_path / "channel.json", channel)
        code = main(["compute", "--state", bell_file(tmp_path), "--channel", path])
        assert code == 2
        assert "matrix holds an entry of modulus 1.000e+160, above 2.0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_is_a_usage_error(self, tmp_path, capsys):
        # The amplitude 1e160 is finite, but it lies above linalg.ENTRY_BOUND: exit 2, no warning.
        state = state_to_json(BipartitePureState(2, 2, [1, 0, 0, 0]))
        state["amplitudes"][0] = [1e160, 0.0]
        path = write_json(tmp_path / "state.json", state)
        code = main(["compute", "--state", path, "--channel", hadamard_measurement_file(tmp_path)])
        assert code == 2
        assert "amplitudes holds an entry of modulus 1.000e+160, above 2.0" in capsys.readouterr().err

    def test_premise_violation_surfaces(self, tmp_path, capsys):
        coherent = BipartitePureState(2, 2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        state = write_json(tmp_path / "coherent.json", state_to_json(coherent))
        code = main(["compute", "--state", state, "--channel", hadamard_measurement_file(tmp_path)])
        assert code == 2
        assert "diagonal A-marginal" in capsys.readouterr().err

    def test_non_trace_preserving_channel_rejected(self, tmp_path, capsys):
        proj = KrausOperation([np.outer(HADAMARD[:, 0], HADAMARD[:, 0].conj())])
        channel = write_json(tmp_path / "proj.json", kraus_operation_to_json(proj))
        code = main(["compute", "--state", bell_file(tmp_path), "--channel", channel])
        assert code == 2
        assert "trace-preserving" in capsys.readouterr().err


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_named_field_errors(self):
        with pytest.raises(ValueError, match="samples"):
            ExperimentConfig(samples=0).validate()
        with pytest.raises(ValueError, match="damping_rates"):
            ExperimentConfig(damping_rates=(2.0,)).validate()
        with pytest.raises(ValueError, match="output_path"):
            ExperimentConfig(output_path="").validate()
        with pytest.raises(ValueError, match="field 'plot_path'"):
            ExperimentConfig(plot_path="").validate()

    def test_run_fig1_summary_fields(self, tmp_path):
        config = ExperimentConfig(
            samples=10,
            damping_rates=(0.2, 0.8),
            seed=21,
            output_path=str(tmp_path / "rows.csv"),
        )
        summary = run_fig1(config)
        assert summary.rows == 20
        assert summary.max_ratio_deviation < 1e-9
        assert summary.monotone
        assert set(summary.mean_average_by_rate) == {0.2, 0.8}
