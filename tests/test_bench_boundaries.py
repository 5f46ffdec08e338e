"""The benchmark's tracer wraps these module attributes by name; a rename
in the package must fail here rather than silently drop a per-layer metric."""

import importlib.util
import os

import pytest

import tptp2miz
from tptp2miz import cli  # noqa: F401  (imports every layer module)

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module_name,attr", [b[:2] for b in _boundaries()])
def test_traced_entry_point_exists(module_name, attr):
    module = getattr(tptp2miz, module_name)
    assert callable(getattr(module, attr))
