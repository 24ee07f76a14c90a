"""perfbench traces pathmove by wrapping names in its modules, and a
name that is gone turns that layer's metrics into null without failing
the benchmark.  This keeps every wrapped name bound."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

# perfbench's modules sit beside its run.py, which imports them by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_wrapped_name_is_callable():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"perfbench wraps names that no longer exist: {missing}"
