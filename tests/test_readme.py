"""The README's library quick tour runs, every value its comments state holds, and the names it cites exist."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_values():
    # Each expression statement ends in a comment that starts with its value.
    source = quick_tour()
    lines = source.splitlines()
    namespace, stated = {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        expected = float(re.match(r"\s*([-+.\d]+)", lines[node.end_lineno - 1].split("#", 1)[1]).group(1))
        assert value == pytest.approx(expected, rel=0, abs=1e-12)
        stated.append(expected)
    assert stated == [0.3, 0.6, 0.6, 1.0]


def test_module_references_resolve():
    # Every `module.name` the README cites names an attribute of that rcc_lab module.
    refs = re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", README.read_text())
    assert refs
    for module, name in refs:
        assert hasattr(importlib.import_module(f"rcc_lab.{module}"), name), f"{module}.{name}"


def test_tolerance_table_matches_the_constants():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+?) \|", README.read_text(), re.M)
    assert len(rows) == 13
    for name, module, value in rows:
        constant = getattr(importlib.import_module(f"rcc_lab.{module}"), name)
        assert np.array_equal(constant, ast.literal_eval(value)), name
