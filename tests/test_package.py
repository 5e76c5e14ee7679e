import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["spinodalkit"] + [f"spinodalkit.{m}" for m in (
    "analysis", "config", "fields", "fitting", "render", "solver", "thermo",
    "transport")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _perfbench_hooks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_benchmark_tracer_hook_points_exist():
    # the tracer wraps each (module, attribute) its callers look up; one
    # that no longer exists makes its per-layer metrics read 0
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in _perfbench_hooks()
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
