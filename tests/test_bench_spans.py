"""The benchmark's span tracer (bench/spans.py) must keep matching the package.

`--trace 1` wraps rcc_lab functions by module and attribute name, so a
rename or removal in the package breaks traced benchmark runs; these tests
catch that in the ordinary test suite.
"""

import functools
import importlib

import spans  # bench/spans.py, on sys.path through tests/conftest.py


def test_every_layer_target_resolves():
    for layer, targets in spans.LAYERS.items():
        for module_name, path in targets:
            module = importlib.import_module(f"rcc_lab.{module_name}")
            target = functools.reduce(getattr, path.split("."), module)
            assert callable(target), f"{layer}: rcc_lab.{module_name}.{path}"


def test_install_then_uninstall_restores_every_attribute():
    before = spans.namespace_snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert spans.namespace_snapshot() != before
    finally:
        tracer.uninstall()
    assert spans.namespace_snapshot() == before
