"""One workload process: set up, run the timed closed loop, check, optionally trace.

Started by run.py with thread variables pinned to 1. Prints `READY` once set
up (run.py times set-up up to that line), then `SPEED` with the yardstick's
scale measured right after set-up, then, unless `--setup-only`, one JSON line
with the raw results. Exits non-zero if rcc_lab cannot be imported from the
checkout's `src/`.

Speed normalisation: on a shared machine the same work can run up to ~2x
faster or slower for minutes at a time. The timed loop therefore interleaves
a fixed reference kernel (`Yardstick`, built from the benchmark's own oracle
code on fixed inputs, a mix of small numpy calls and Python like the
workloads') with the operations, and rescales the operations' time to a
machine on which one reference unit takes REF_NOMINAL_S. Set-up is rescaled
by the yardstick measured just after it. Both sides of a comparison use the
same yardstick, so the constant cancels; raw figures stay in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_rcc_lab():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rcc_lab

    if not os.path.abspath(rcc_lab.__file__).startswith(src + os.sep):
        raise ImportError(f"rcc_lab was imported from {rcc_lab.__file__}, not from {src}")
    return rcc_lab


# Time of one reference unit on one core of an idle Intel Xeon VM.
REF_NOMINAL_S = 150e-6
# Reference-kernel time as a share of operation time in the timed loop.
REF_SHARE = 0.15
# Reference-kernel time measured right after set-up.
SETUP_REF_S = 0.1
# The timed loop runs the yardstick in chunks of at least this many seconds:
# its first unit after an operation runs with cold caches, and in chunks that
# share stays small whatever the operation's length.
REF_CHUNK_S = 0.003


class Yardstick:
    """A fixed unit of reference work, timed unit by unit."""

    def __init__(self):
        g = oracle.generator(1, 0)
        self._amp = oracle.amplitudes(oracle.distinct_weights(3, g), oracle.haar_unitary(3, g))
        self._outcomes = [[f] for f in oracle.isometry_kraus(3, 2, g)]
        for _ in range(3):
            self._unit()
        self.seconds = 0.0
        self.units = 0

    def _unit(self):
        oracle.average_coherence(self._amp, 3, 3, self._outcomes)
        oracle.concurrence(self._amp, 3, 3)
        oracle.haar_unitary(3, oracle.generator(2, 0))

    def run_until(self, seconds: float) -> None:
        """Run units until their total time reaches `seconds`."""
        clock = time.perf_counter
        while self.seconds < seconds:
            start = clock()
            self._unit()
            self.seconds += clock() - start
            self.units += 1

    def scale(self) -> float:
        """Nominal seconds per measured second."""
        return REF_NOMINAL_S * self.units / self.seconds


def _percentile(sorted_values, q):
    # Linear interpolation between closest ranks.
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _run_ops(workload, indices, records, latencies=None):
    """Run ops in order; return (items, unexpected errors)."""
    items = unexpected = 0
    clock = time.perf_counter
    for i in indices:
        start = clock()
        try:
            done, record = workload.op(i)
        except Exception as exc:
            unexpected += 1
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            if latencies is not None:
                latencies.append(clock() - start)
        items += done
        if i < workload.check_ops:
            records.append((i, record))
    return items, unexpected


def _timed_ops(workload, seconds):
    """Closed loop for `seconds`, and for at least check_ops operations.

    Once the yardstick lags REF_SHARE of the operations' total time by
    REF_CHUNK_S, it runs until it catches up.
    """
    records, latencies = [], []
    yardstick = Yardstick()
    items = unexpected = i = 0
    op_seconds = 0.0
    start = time.perf_counter()
    while i < workload.check_ops or time.perf_counter() - start < seconds:
        done, errors = _run_ops(workload, (i,), records, latencies)
        items += done
        unexpected += errors
        op_seconds += latencies[-1]
        if REF_SHARE * op_seconds - yardstick.seconds >= REF_CHUNK_S:
            yardstick.run_until(REF_SHARE * op_seconds)
        i += 1
    yardstick.run_until(REF_SHARE * op_seconds)
    return time.perf_counter() - start, op_seconds, yardstick.scale(), items, unexpected, records, latencies


def _probe(workload):
    """Program calls whose results are checked; (result, unexpected errors)."""
    try:
        return workload.probe(), 0
    except Exception as exc:
        print(f"probe raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, 1


def _verdict(workload, records, probe, unexpected):
    """Check records and probe against the oracle; counts as a JSON dict."""
    try:
        tally = workload.check(records, probe)
    except Exception as exc:
        print(f"check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        tally = workloads.Tally(unexpected=1)
    unexpected += tally.unexpected
    return {
        "checks": tally.checks,
        "violations": tally.violations,
        "unexpected": unexpected,
        "known_defect": tally.known_defect,
        "fail_frac": (tally.violations + unexpected) / max(1, tally.checks + unexpected),
        "facts": tally.facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    try:
        rcc_lab = _import_rcc_lab()
    except ImportError as exc:
        print(f"cannot import rcc_lab: {exc}", file=sys.stderr)
        return 3
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        _run_ops(workload, range(-workload.warmup_ops, 0), [])
        print(f"READY {time.time()!r}", flush=True)
        yardstick = Yardstick()
        yardstick.run_until(SETUP_REF_S)
        print(f"SPEED {yardstick.scale()!r}", flush=True)
        if args.setup_only:
            return 0

        elapsed, op_seconds, scale, items, unexpected, records, latencies = _timed_ops(workload, args.seconds)
        probe, probe_errors = _probe(workload)
        untraced = _verdict(workload, records, probe, unexpected + probe_errors)
        lat = sorted(latencies)
        result = {
            "elapsed_s": elapsed,
            "op_seconds": op_seconds,
            "speed_scale": scale,
            "ops": len(latencies),
            "items": items,
            "throughput": items / (op_seconds * scale),
            "throughput_raw": items / op_seconds,
            "latency_p50_ms": _percentile(lat, 0.50) * 1e3,
            "latency_p99_ms": _percentile(lat, 0.99) * 1e3,
            "untraced": untraced,
            "facts": {
                "nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": _blas(),
                "rcc_lab": rcc_lab.__version__,
                "thread_env": {k: os.environ.get(k) for k in ("RCC_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            },
        }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            result["traced"] = _traced_pass(workload)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_pass(workload, blocks=4):
    """Replay ops 0..check_ops-1 and the probe under the span wrappers.

    The ops run in blocks, each first untraced and then traced, so the
    tracing overhead compares the same work at nearly the same time.
    """
    before = spans.namespace_snapshot()
    tracer = spans.Tracer()
    records = []
    untraced_wall = traced_wall = 0.0
    unexpected = 0
    n = workload.check_ops
    for block in range(blocks):
        indices = range(block * n // blocks, (block + 1) * n // blocks)
        start = time.perf_counter()
        _run_ops(workload, indices, [])
        untraced_wall += time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            unexpected += _run_ops(workload, indices, records)[1]
            traced_wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
    covered = tracer.covered_seconds()
    tracer.install()
    try:
        probe, probe_errors = _probe(workload)
    finally:
        tracer.uninstall()
    return {
        "layers": tracer.layer_totals(),
        "counters": tracer.counters,
        "verdict": _verdict(workload, records, probe, unexpected + probe_errors),
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "uncovered_frac": 1.0 - covered / traced_wall,
        "restored": spans.namespace_snapshot() == before,
    }


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
