"""The names the benchmark's tracer wraps must exist in the package.

`benchmarks/tracer.py` patches methods and functions by name.  Deleting
or renaming one of them only shows up in `python3 -m pytest benchmarks`,
so this module loads the tracer's tables, read-only, and resolves every
name they list.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from types import ModuleType

import pytest

from utt.verify import SUITE_BUILDERS

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer() -> ModuleType:
    """Execute the tracer's source in a fresh module; nothing is written or patched."""
    module = ModuleType("utt_bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), vars(module))
    return module


tracer = _load_tracer()

HOOKS = [(module, path) for _, module, path in tracer.SPANS] + [
    (module, path) for _, module, paths in tracer.COUNTERS for path in paths
]


@pytest.mark.parametrize("module, path", HOOKS, ids=[f"{m}:{p}" for m, p in HOOKS])
def test_traced_name_resolves(module, path):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name)), path
    else:
        assert callable(vars(mod).get(path)), path


@pytest.mark.parametrize("name, module, attr", tracer.CACHES)
def test_traced_cache_has_cache_info(name, module, attr):
    assert callable(getattr(getattr(importlib.import_module(module), attr), "cache_info")), name


def test_traced_suites_are_suite_builders():
    assert set(tracer.SUITES) <= set(SUITE_BUILDERS)
