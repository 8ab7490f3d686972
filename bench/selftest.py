"""Self-test of the benchmark harness at tiny size.

Run from the repository root:

    python3 bench/selftest.py

For each workload it runs run.py untraced and traced with the same seed and
checks that every metric named in BENCHMARK.json is printed with its unit,
that both runs give the same fail_frac (and, on fig1, the golden CSV
digest), that the layer counts match the layer map, and that every wrapped
rcc_lab attribute is restored. It also checks the wrappers in-process and
that run.py fails cleanly in a directory holding only the benchmark.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# Every end-to-end metric the record line carries, gated or not.
RECORD_METRICS = {
    "throughput": "1/s",
    "throughput_raw": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}

failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(name: str, spec: dict, golden: dict) -> None:
    outputs = {}
    for trace in (0, 1):
        proc = run_bench(name, trace)
        expect(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        if proc.returncode != 0:
            return
        lines = proc.stdout.splitlines()
        outputs[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for trace, (record, summary) in outputs.items():
        expect(set(summary) == {"correct", "attempted", "failed", "metrics"}, f"{name}: summary keys {sorted(summary)}")
        expect(summary["correct"] and summary["failed"] == 0, f"{name} trace={trace}: correct={summary['correct']} failed={summary['failed']}")
        got = {k: v["unit"] for k, v in summary["metrics"].items()}
        expect(got == {m["name"]: m["unit"] for m in wanted[trace]}, f"{name} trace={trace}: metric names or units differ from BENCHMARK.json")
        for metric, unit in RECORD_METRICS.items():
            entry = record["metrics"].get(metric)
            expect(entry is not None and entry["unit"] == unit, f"{name}: record lacks {metric} in {unit}")
        for key in ("nproc", "python", "numpy", "blas"):
            expect(key in record["machine"], f"{name}: machine facts lack {key}")
        expect(record["machine"]["thread_env"]["RCC_LAB_THREADS"] is None, f"{name}: RCC_LAB_THREADS leaked into the worker")

    untraced, traced_record = outputs[0][0], outputs[1][0]
    traced_checks = traced_record["trace"]["checks"]
    expect(traced_record["trace"]["wrappers_restored"], f"{name}: wrapped attributes not restored")
    expect(untraced["metrics"]["fail_frac"]["value"] == traced_checks["fail_frac"] == traced_record["metrics"]["fail_frac"]["value"],
           f"{name}: fail_frac differs between untraced and traced runs")
    if name == "fig1":
        digests = {untraced["checks"]["facts"]["fig1_csv_sha256"], traced_checks["facts"]["fig1_csv_sha256"]}
        expect(len(digests) == 1, f"fig1: CSV digest differs between traced and untraced runs: {digests}")
        expect(traced_checks["facts"]["experiments.fig1.csv_digest_match"] == 1, "fig1: golden CSV digest does not match")

    layer = {k: v["value"] for k, v in outputs[1][1]["metrics"].items()}
    expect((layer["rcc.search.calls"] > 0) == (name == "classify"), f"{name}: rcc.search.calls={layer['rcc.search.calls']}")
    cli_total = layer["cli.main.self_s"] + layer["cli.json_in.self_s"] + layer["cli.json_out.self_s"]
    expect((cli_total > 0) == (name == "compute"), f"{name}: cli self time {cli_total}")
    fig1_total = sum(v for k, v in layer.items() if k.startswith("experiments.fig1."))
    expect((fig1_total > 0) == (name == "fig1"), f"{name}: experiments.fig1.* = {fig1_total}")
    if name == "fig1":
        expect(layer["rcc.bounds.calls"] == 0, "fig1: rcc.bounds.calls is not 0")
    if name == "bounds":
        # At tiny size the hard slice has 8 inputs per (d, dim_b) pair.
        baseline = golden["bounds_hard_slice"]["violations_by_per_dim"]["8"]
        for trace, (record, _) in outputs.items():
            expect(record["hard_slice"] == {"violations": baseline, "baseline": baseline, "matches_baseline": True},
                   f"bounds trace={trace}: hard slice {record['hard_slice']}, expected {baseline} violations")
        expect(layer["errors.violation.count"] == baseline, f"bounds: errors.violation.count {layer['errors.violation.count']}, expected {baseline}")


def check_wrappers_in_process() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans

    before = spans.namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        modules = spans._rcc_modules()
        for layer, targets in spans.LAYERS.items():
            for module_name, path in targets:
                obj = modules[module_name]
                for part in path.split("."):
                    obj = getattr(obj, part)
                expect(hasattr(obj, "__bench_wrapped__"), f"{module_name}.{path} is not wrapped")
                if "." not in path:
                    original = obj.__bench_wrapped__
                    for mod in modules.values():
                        stale = [k for k, v in vars(mod).items() if v is original]
                        expect(not stale, f"{mod.__name__}.{stale} still holds unwrapped {path}")
    finally:
        tracer.uninstall()
    expect(spans.namespace_snapshot() == before, "in-process: attributes differ after uninstall")


def check_bare_directory() -> None:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("fig1", 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: run.py exited 0")
        expect('"correct"' not in proc.stdout, "bare directory: run.py printed a summary")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    expect(golden["fig1"]["sha256"] in whys.get("fig1", ""), "BENCHMARK.json fig1 entry does not quote the golden digest")
    for name in whys:
        check_workload(name, spec, golden)
    check_wrappers_in_process()
    check_bare_directory()
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
