"""A deterministic work budget: traced operation counts of each benchmark workload.

Wall time drifts with the host; the number of window products, R_n
windows, polynomial products, substitutions and c_k lookups does not.
This module runs the `small` argvs of every workload in `benchmarks/`
in-process under the benchmark's own tracer (both files are loaded
read-only) and compares those counts with the table below.  The same
run checks each workload's `predicts`: every layer the benchmark expects
the workload to reach is called at least once, so a source change that
stops calling one shows up here, not only under `benchmarks/`.

A change that does less work lowers the table and says so; a change that
raises a count explains why.  The lru caches are cleared first, because
warm hits left by other tests would change the counts.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from conftest import load_bench_tracer
from utt import basis, cli, ops, qcalc
from utt.verify import SUITE_BUILDERS

SEED = 1

# Traced counts of each workload's small argvs at SEED.
BUDGET = {
    "standard": {
        "utmat.mul.calls": 90,
        "utmat.mul.madds": 7560,
        "ops.build_Rn.calls": 6,
        "basis.BivarPoly.mul.calls": 195,
        "basis.substitute.calls": 35,
        "basis.c_poly.calls": 231,
    },
    "matrix-wide": {
        "utmat.mul.calls": 131,
        "utmat.mul.madds": 15720,
        "ops.build_Rn.calls": 7,
        "basis.BivarPoly.mul.calls": 0,
        "basis.substitute.calls": 0,
        "basis.c_poly.calls": 0,
    },
    "basis-deep": {
        "utmat.mul.calls": 0,
        "utmat.mul.madds": 0,
        "ops.build_Rn.calls": 0,
        "basis.BivarPoly.mul.calls": 335,
        "basis.substitute.calls": 45,
        "basis.c_poly.calls": 342,
    },
}


def _traced_counts(workload) -> dict[str, float]:
    """Run the workload's small argvs once, cold caches, under a fresh tracer."""
    for cache in (basis.c_poly, ops._xn_chain, qcalc._qbinom_rows):
        cache.cache_clear()
    tracer = load_bench_tracer().Tracer()
    tracer.install(SUITE_BUILDERS)
    try:
        for argv in workload.small_argvs(SEED):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, (argv, out.getvalue()[-500:])
    finally:
        tracer.uninstall()
    return tracer.metrics()


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_traced_counts_match_the_budget(name, bench_workloads):
    workload = bench_workloads.WORKLOADS[name]
    metrics = _traced_counts(workload)
    assert {key: metrics[key] for key in BUDGET[name]} == BUDGET[name]
    assert [layer for layer in workload.predicts if metrics[f"{layer}.calls"] <= 0] == []
