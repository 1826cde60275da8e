"""The names the benchmark's tracer wraps must exist in the package.

`benchmarks/tracer.py` patches methods and functions by name.  Deleting
or renaming one of them only shows up in `python3 -m pytest benchmarks`,
so this module loads the tracer's tables, read-only, and resolves every
name they list.  It also checks that the verify path still calls the
bindings a benchmark workload predicts calls of.
"""

from __future__ import annotations

import importlib

import pytest

from conftest import load_bench_tracer
from utt import cli
from utt.verify import SUITE_BUILDERS

tracer = load_bench_tracer()

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


# (module, binding, argv): `qcalc.qbinom_eval` is a predicted layer of the
# basis-deep and matrix-wide workloads, reached through these bindings.
QBINOM_EVAL_CALLERS = [
    ("utt.basis", "qbinom_eval", ["verify", "integrality", "--kmax", "4"]),
    ("utt.verify", "qbinom_eval", ["verify", "qbinom-matrix"]),
    ("utt.ops", "qbinom_eval", ["verify", "xn"]),
]


@pytest.mark.parametrize("module, attr, argv", QBINOM_EVAL_CALLERS,
                         ids=[f"{m}:{argv[1]}" for m, _, argv in QBINOM_EVAL_CALLERS])
def test_verify_path_calls_the_traced_binding(module, attr, argv, monkeypatch, capsys):
    mod = importlib.import_module(module)
    real, calls = getattr(mod, attr), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mod, attr, counted)
    assert cli.main(argv + ["--p", "3", "--q", "2", "--N", "20"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert len(calls) > 0
