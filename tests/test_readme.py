"""The README's library quick tour runs, and every value its comments state holds."""

import ast
import re
from pathlib import Path

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
