"""Command-line interface.

Subcommands: ``fig1`` (the phase-damping scatter experiment), ``verify``
(property sweeps), and ``compute`` (one report for a state/channel pair).
Exit codes: 0 success or all-pass, 1 property violation, 2 usage or parse
error, 3 unexpected error (a crash; the traceback goes to stderr), 4 stdout
closed early (a reader that quit, as ``head`` does; the rest is dropped).
``fig1`` and ``verify`` import the experiment drivers when they run, so
``compute`` loads only the engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .channels import channel_from_json
from .errors import RccLabError
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
    fig1.set_defaults(run=_cmd_fig1)

    verify = sub.add_parser("verify", help="run a property sweep and report violations")
    # run_verify checks the name, so that the parser needs no experiment driver.
    verify.add_argument("suite", help="suite to run; an unknown name lists them")
    verify.add_argument("--samples", type=int, default=1000, help="sweep size (per dimension where applicable)")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(run=_cmd_verify)

    compute = sub.add_parser("compute", help="full report for one state/channel pair (JSON on stdout)")
    compute.add_argument("--state", type=str, required=True, help="pure-state JSON file")
    compute.add_argument("--channel", type=str, required=True, help="channel or ensemble JSON file")
    compute.set_defaults(run=_cmd_compute)

    return parser


def _cmd_fig1(args) -> int:
    from .experiments import ExperimentConfig, run_fig1

    config = ExperimentConfig.from_mapping({} if args.config is None else _load_json_file(args.config, "config"))
    rates = None if args.rates is None else _parse_rates(args.rates)
    flags = {"samples": args.samples, "damping_rates": rates, "seed": args.seed, "output_path": args.out, "plot_path": args.plot}
    config = dataclasses.replace(config, **{name: value for name, value in flags.items() if value is not None})

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
    from .experiments import run_verify

    report = run_verify(args.suite, args.samples, args.seed)
    print(f"suite={report.suite} checked={report.checked} violations={report.violations} "
          f"excluded={report.excluded} max_violation={report.max_violation:.3e}")
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
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        print(end="", flush=True)  # a closed pipe fails here, not at exit; without a stdout (None) print does nothing
        return code
    except BrokenPipeError:  # Python's documented recipe: stdout goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    except (ValueError, RccLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # A crash must not read as a violation (1) or a bad input (2).
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
