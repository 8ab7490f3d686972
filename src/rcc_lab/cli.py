"""Command-line interface.

Subcommands: ``fig1`` (the phase-damping scatter experiment), ``verify``
(property sweeps), and ``compute`` (one report for a state/channel pair).
Exit codes: 0 success or all-pass, 1 property violation, 2 usage or parse
error, 3 unexpected error (a crash; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .channels import channel_from_json
from .errors import RccLabError
from .experiments import VERIFY_SUITES, ExperimentConfig, run_fig1, run_verify
from .rcc import average_rcc, report_to_json
from .states import state_from_json


def _parse_rates(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"--rates must be a comma-separated float list, got {text!r}") from exc


def _load_json_file(path: str, kind: str):
    # json.loads takes the bytes and detects UTF-8, -16 or -32 (RFC 8259), a BOM included, whatever the locale.
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"parse error in {kind} file {path!r} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"parse error in {kind} file {path!r}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcc-lab",
        description="Remote creation of quantum coherence: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="entanglement vs average coherence scatter (CSV, optional SVG)")
    fig1.add_argument("--samples", type=int, default=None, help="number of random states")
    fig1.add_argument("--rates", type=str, default=None, help="comma-separated damping rates in [0, 1]")
    fig1.add_argument("--seed", type=int, default=None, help="base seed; sample k uses stream k")
    fig1.add_argument("--out", type=str, default=None, help="CSV output path")
    fig1.add_argument("--plot", type=str, default=None, help="optional SVG output path")
    fig1.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")

    verify = sub.add_parser("verify", help="run a property sweep and report violations")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--samples", type=int, default=1000, help="sweep size (per dimension where applicable)")
    verify.add_argument("--seed", type=int, default=0)

    compute = sub.add_parser("compute", help="full report for one state/channel pair (JSON on stdout)")
    compute.add_argument("--state", type=str, required=True, help="pure-state JSON file")
    compute.add_argument("--channel", type=str, required=True, help="channel or ensemble JSON file")

    return parser


def _cmd_fig1(args) -> int:
    if args.config is not None:
        config = ExperimentConfig.from_mapping(_load_json_file(args.config, "config"))
    else:
        config = ExperimentConfig()
    if args.samples is not None:
        config.samples = args.samples
    if args.rates is not None:
        config.damping_rates = _parse_rates(args.rates)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.output_path = args.out
    if args.plot is not None:
        config.plot_path = args.plot

    summary = run_fig1(config)
    print(f"wrote {summary.rows} rows to {summary.csv_path}")
    if summary.plot_path:
        print(f"wrote scatter to {summary.plot_path}")
    for rate in sorted(summary.mean_average_by_rate):
        print(f"mean average coherence at r={rate:g}: {summary.mean_average_by_rate[rate]:.6f}")
    print(
        f"max |ratio - entanglement| = {summary.max_ratio_deviation:.3e} "
        f"over {summary.rows_with_ratio} rows with a defined ratio"
    )
    if not summary.monotone:
        print("WARNING: mean average coherence is not monotone in the damping rate", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.suite, args.samples, args.seed)
    print(
        f"suite={report.suite} checked={report.checked} violations={report.violations} "
        f"excluded={report.excluded} max_violation={report.max_violation:.3e}"
    )
    for note in report.notes:
        print(note)
    if report.worst_case is not None:
        print("worst case (replay):")
        print(json.dumps(report.worst_case))
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_compute(args) -> int:
    psi = state_from_json(_load_json_file(args.state, "state"))
    channel = channel_from_json(_load_json_file(args.channel, "channel"))
    report = average_rcc(psi, channel)
    print(json.dumps(report_to_json(report), indent=2, check_circular=False))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fig1":
            return _cmd_fig1(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compute":
            return _cmd_compute(args)
    except (ValueError, RccLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # A crash must not read as a violation (1) or a bad input (2).
        traceback.print_exc()
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
