"""rcc-lab benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0

Workloads: fig1, bounds, classify, compute (see workloads.py and
BENCHMARK.json). The workload runs in a fresh worker process with
RCC_LAB_THREADS unset and the OpenMP, OpenBLAS and MKL thread counts pinned
to 1. Set-up (interpreter start, imports, inputs, warm-up) is timed in
several processes and reported as the median.

Time figures are normalised to a nominal machine speed (see worker.py): the
timed loop interleaves a fixed reference kernel with the operations, and
`throughput` and `setup_s` are rescaled by its measured speed, which cancels
machine-wide drift on a shared host. The record line also carries the raw
`throughput_raw` and `setup_raw_s`.

The second-to-last stdout line is a JSON record with machine facts, every
end-to-end metric (fail_frac included) and the check counts. The last line
is the summary {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics from a traced replay with
--trace 1. Exit code 0 on success; non-zero, without the summary, when the
checkout has no rcc_lab sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("fig1", "bounds", "classify", "compute")
ITEMS = {"fig1": "samples", "bounds": "checked instances", "classify": "checked instances", "compute": "calls"}
SETUP_PROCESSES = 7
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "throughput": "1/s",
    "throughput_raw": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
# The subset printed in the summary line and bounded in BENCHMARK.json.
# Latency percentiles are raw times of single operations, which the
# normalisation does not cover, so they are only in the record line, with the
# raw figures. fail_frac is 0 on three workloads, so it is there (and in the
# traced per-layer metrics) too.
GATED = ("throughput", "setup_s", "peak_rss_mb")

# Layers whose call count is reported next to their self time.
COUNTED_LAYERS = (
    "linalg.rng_setup",
    "sampling.draw",
    "states.schmidt",
    "states.density_validate",
    "channels.kraus_build",
    "rcc.contract",
    "rcc.partner",
    "rcc.bounds",
    "rcc.search",
)
COUNTERS = (
    "rcc.search.attempts",
    "rcc.zero_prob.count",
    "experiments.fig1.csv_bytes",
    "experiments.fig1.rows_without_ratio",
    "experiments.verify.excluded",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for layer in LAYERS:
        if layer in COUNTED_LAYERS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update(
        {
            "rcc.search.success_ratio": "ratio",
            "experiments.fig1.csv_digest_match": "count",
            "errors.unexpected.count": "count",
            "errors.violation.count": "count",
            "fail_frac": "ratio",
            "bench.trace_overhead_frac": "ratio",
            "bench.uncovered_frac": "ratio",
        }
    )
    return units


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RCC_LAB_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, extra, timeout):
    """Run one worker; return (set-up seconds, speed scale, result dict or None)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", WORKDIR,
    ] + (["--tiny"] if args.tiny else []) + extra
    start = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    speed = [line for line in lines if line.startswith("SPEED ")]
    if not ready or not speed:
        raise RuntimeError("worker never reported READY and SPEED")
    setup = float(ready[0].split()[1]) - start
    result = json.loads(lines[-1]) if lines[-1] != speed[0] else None
    return setup, float(speed[0].split()[1]), result


def _per_layer(traced: dict) -> dict[str, float]:
    layers, counters, verdict = traced["layers"], traced["counters"], traced["verdict"]
    values = {}
    for layer in LAYERS:
        if layer in COUNTED_LAYERS:
            values[f"{layer}.calls"] = layers[layer]["calls"]
        values[f"{layer}.self_s"] = layers[layer]["self_s"]
    values.update({name: counters.get(name, 0) for name in COUNTERS})
    attempts = counters.get("rcc.search.attempts", 0)
    values["rcc.search.success_ratio"] = counters.get("rcc.search.success", 0) / attempts if attempts else 0.0
    values["experiments.fig1.csv_digest_match"] = verdict["facts"].get("experiments.fig1.csv_digest_match", 0)
    values["errors.unexpected.count"] = verdict["unexpected"]
    values["errors.violation.count"] = verdict["violations"]
    values["fail_frac"] = verdict["fail_frac"]
    values["bench.trace_overhead_frac"] = traced["trace_overhead_frac"]
    values["bench.uncovered_frac"] = traced["uncovered_frac"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rcc-lab benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes and one set-up process (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rcc_lab", "__init__.py")):
        print(f"no rcc_lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [
            _spawn(args, ["--setup-only"], deadline - time.monotonic())[:2]
            for _ in range(1 if args.tiny else SETUP_PROCESSES - 1)
        ]
        setup, scale, result = _spawn(args, [], deadline - time.monotonic())
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append((setup, scale))

    untraced = result["untraced"]
    e2e = {
        "throughput": result["throughput"],
        "throughput_raw": result["throughput_raw"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p99_ms": result["latency_p99_ms"],
        "setup_s": statistics.median(raw * scale for raw, scale in setups),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_frac": untraced["fail_frac"],
    }
    verdicts = [untraced] + ([result["traced"]["verdict"]] if args.trace else [])
    failed = sum(v["unexpected"] + v["violations"] - v["known_defect"] for v in verdicts)
    attempted = result["ops"] + sum(v["checks"] for v in verdicts)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "items": ITEMS[args.workload],
        "ops": result["ops"],
        "items_done": result["items"],
        "elapsed_s": result["elapsed_s"],
        "op_seconds": result["op_seconds"],
        "speed_scale": result["speed_scale"],
        "setup_samples": [{"raw_s": raw, "speed_scale": scale} for raw, scale in setups],
        "metrics": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()},
        "checks": untraced,
        "machine": result["facts"],
    }
    facts = untraced["facts"]
    if "hard_slice_baseline" in facts:
        # Violations up to the baseline are the known defect; a count that
        # differs from it is reported here (and above it, counts as failed).
        hard = {"violations": facts["hard_slice_violations"], "baseline": facts["hard_slice_baseline"]}
        hard["matches_baseline"] = hard["violations"] == hard["baseline"]
        record["hard_slice"] = hard
        if not hard["matches_baseline"]:
            print(f"hard slice: {hard['violations']} violations, baseline {hard['baseline']}", file=sys.stderr)
    if args.trace:
        traced = result["traced"]
        record["trace"] = {
            "overhead_frac": traced["trace_overhead_frac"],
            "uncovered_frac": traced["uncovered_frac"],
            "wrappers_restored": traced["restored"],
            "checks": traced["verdict"],
        }
        values = _per_layer(traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        metrics = {name: record["metrics"][name] for name in GATED}
    print(json.dumps(record))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
