"""In-memory span tracing of rcc_lab's layers, installed from outside the package.

`Tracer.install` replaces the public functions and methods named in `LAYERS`
with wrappers that record one span per call (layer, start, end, parent), and
`Tracer.uninstall` puts every original object back. A function imported with
`from ... import` lives in several module namespaces, so each namespace that
holds the original object gets the wrapper. A call into a layer from inside
the same layer is absorbed by the outer span, so `calls` counts entries into
a layer and self time is never split across recursion of one layer.

A layer's self time is the duration of its spans minus the part of those
intervals covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import time
import types

# Layer name -> (module, attribute path) pairs. "Class.method" wraps a method
# on the class; a plain name wraps a module-level function.
LAYERS = {
    "linalg.rng_setup": [("linalg", "SeededRng.__post_init__")],
    "linalg.haar": [("linalg", "haar_random_unitary"), ("linalg", "random_pure_state")],
    "sampling.draw": [
        ("sampling", name)
        for name in (
            "random_schmidt_parts",
            "random_schmidt_state",
            "random_density_matrix",
            "random_incoherent_quantum_state",
            "random_noncq_state",
            "random_kraus_operation",
            "random_tp_channel",
            "random_channel_ensemble",
        )
    ],
    "states.schmidt": [("states", "schmidt_decompose")],
    "states.concurrence": [("states", "concurrence")],
    "states.pure_build": [
        ("states", "BipartitePureState.__init__"),
        ("states", "BipartitePureState.from_schmidt"),
    ],
    "states.density_validate": [("states", "DensityMatrix.__init__")],
    "channels.kraus_build": [
        ("channels", "KrausOperation.__init__"),
        ("channels", "ChannelEnsemble.__init__"),
        ("channels", "phase_damping"),
        ("channels", "projective_measurement"),
        ("channels", "inert_operation"),
    ],
    "channels.criterion": [("channels", "creates_coherence")],
    "coherence.l1": [("coherence", "l1_coherence")],
    "coherence.block_test": [
        ("coherence", "is_incoherent"),
        ("coherence", "is_incoherent_quantum"),
    ],
    "rcc.contract": [("rcc", "post_operation_state_a"), ("rcc", "average_coherence")],
    "rcc.partner": [("rcc", "maximally_entangled_partner")],
    "rcc.bounds": [
        ("rcc", "outcome_coherence_bound"),
        ("rcc", "tight_average_bound"),
        ("rcc", "average_coherence_bound"),
    ],
    "rcc.report": [("rcc", "average_rcc"), ("rcc", "factorization_check")],
    "rcc.search": [("rcc", "find_creating_operation")],
    "experiments.fig1": [("experiments", "run_fig1")],
    "experiments.verify": [
        ("experiments", name)
        for name in (
            "run_verify",
            "verify_theorem1",
            "verify_theorem2",
            "verify_lemma1",
            "verify_theorem3",
            "verify_theorem4",
            "verify_nosignal",
        )
    ],
    "cli.main": [("cli", "main")],
    "cli.json_in": [
        ("states", "state_from_json"),
        ("channels", "channel_from_json"),
        ("channels", "kraus_operation_from_json"),
        ("channels", "ensemble_from_json"),
    ],
    "cli.json_out": [("rcc", "report_to_json")],
}

# cli reads and writes JSON through its module-level `json` name; a proxy
# in that one namespace times json.load and json.dumps as the cli layers.
CLI_JSON_CALLS = {"load": "cli.json_in", "dumps": "cli.json_out"}

_SEARCH_LABEL = re.compile(r"projector-search\[(\d+)\]$")


class _JsonProxy(types.ModuleType):
    def __init__(self, real, wrapped):
        super().__init__(real.__name__)
        self._real = real
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans of wrapped rcc_lab calls; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, fn, when=None):
        hook = _RESULT_HOOKS.get(layer)
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (stack and spans[stack[-1]][0] == layer) or (when and not when(kwargs)):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _count_error(self, exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS target in every rcc_lab namespace that holds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = _rcc_modules()
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    self._wrap_method(layer, getattr(owner, cls_name), attr)
                else:
                    self._wrap_function(layer, getattr(owner, path), modules.values())
        cli = modules["cli"]
        wrapped = {name: self.wrap(layer, getattr(cli.json, name)) for name, layer in CLI_JSON_CALLS.items()}
        self._restore.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, wrapped)

    def _wrap_method(self, layer: str, cls, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__))
        else:
            when = _density_validates if layer == "states.density_validate" else None
            replacement = self.wrap(layer, raw, when)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def _wrap_function(self, layer: str, fn, modules) -> None:
        wrapper = self.wrap(layer, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, name, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute install replaced, in reverse order."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{layer: {"calls", "self_s"}} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, start, end, _), children in zip(self.spans, child_time):
            entry = totals[layer]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
        return totals

    def covered_seconds(self) -> float:
        """Wall time covered by root spans (those without a parent)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _count_error(tracer: Tracer, exc: Exception) -> None:
    # An exception passes through every enclosing wrapper; count it once.
    if getattr(exc, "_bench_counted", False):
        return
    exc._bench_counted = True
    kind = type(exc).__name__
    if kind == "ZeroProbability":
        tracer.count("rcc.zero_prob.count")
    elif kind == "SearchExhausted":
        tracer.count("rcc.search.attempts", exc.attempts)


def _density_validates(kwargs) -> bool:
    return kwargs.get("validate", True)


def _search_result(tracer: Tracer, op) -> None:
    if op is None:
        return
    match = _SEARCH_LABEL.match(op.label)
    if match:
        tracer.count("rcc.search.attempts", int(match.group(1)) + 1)
        tracer.count("rcc.search.success")


def _report_result(tracer: Tracer, report) -> None:
    flagged = sum(1 for rec in getattr(report, "outcomes", ()) if rec.zero_probability)
    if flagged:
        tracer.count("rcc.zero_prob.count", flagged)


def _verify_result(tracer: Tracer, report) -> None:
    tracer.count("experiments.verify.excluded", report.excluded)


def _fig1_result(tracer: Tracer, summary) -> None:
    tracer.count("experiments.fig1.rows_without_ratio", summary.rows - summary.rows_with_ratio)
    tracer.count("experiments.fig1.csv_bytes", os.path.getsize(summary.csv_path))


_RESULT_HOOKS = {
    "rcc.search": _search_result,
    "rcc.report": _report_result,
    "experiments.verify": _verify_result,
    "experiments.fig1": _fig1_result,
}


def _rcc_modules() -> dict[str, types.ModuleType]:
    names = ("linalg", "sampling", "states", "channels", "coherence", "rcc", "experiments", "cli")
    modules = {name: importlib.import_module(f"rcc_lab.{name}") for name in names}
    modules["__init__"] = importlib.import_module("rcc_lab")
    return modules


def namespace_snapshot() -> dict[str, int]:
    """Identity of every attribute of every rcc_lab module and class in it.

    Comparing snapshots taken before install and after uninstall shows
    whether every wrapped attribute was restored.
    """
    snap = {}
    for mod_name, module in _rcc_modules().items():
        for name, value in vars(module).items():
            snap[f"{mod_name}.{name}"] = id(value)
            if isinstance(value, type) and value.__module__.startswith("rcc_lab"):
                for attr, member in vars(value).items():
                    snap[f"{mod_name}.{name}.{attr}"] = id(member)
    return snap
