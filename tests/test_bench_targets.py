"""The benchmark's per-layer tracer wraps tablekit functions by name; every
name it lists must still exist, or its layer metrics would silently read 0."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, layer, hot", _targets())
def test_tracing_target_resolves(module_name, attr, layer, hot):
    func = getattr(importlib.import_module(module_name), attr, None)
    assert callable(func), f"{module_name}.{attr} (layer {layer}) is gone"
