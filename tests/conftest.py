"""Puts bench/ on sys.path once, for tests/reference.py (bench/oracle.py) and the span tracer's tests (bench/spans.py)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
