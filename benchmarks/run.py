"""Benchmark of `utt verify`, end to end and, when traced, layer by layer.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload standard --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 1

A *pass* is one fresh child process that imports `utt` from the
checkout's `src/`, builds the workload's contexts, and calls
`utt.cli.main(argv)` once for each of the workload's argv lists, with
stdout captured.  Untraced, the benchmark runs passes back to back while
the next one still fits in `--seconds` (always at least one), times
set-up in set-up-only children spread over the run, and reports medians.
Traced, it runs untraced and traced passes in turn the same way,
reports the per-layer metrics, and compares the reports of both kinds.

Every pass is checked by the report gate: each invocation exits 0 with
`failed == 0`, emits the check count recorded for it, and in `standard`
all twelve anchors; every pass at one seed prints byte-identical reports.
The sha256 of each report is kept per (workload, seed) under
`.bench_build/digests/` and compared on the next run at that seed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the
fail ratio over the expected checks.  The metric names and units are the
ones declared in `BENCHMARK.json`.  The exit code is 0 whenever a result
is printed, and nonzero without a result when the benchmark itself cannot
run, for instance in a directory without `src/utt`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = ROOT / ".bench_build" / "digests"
PROBES_PER_PASS = 4  # set-up-only children before each pass
MIN_PROBES = 20  # set-up-only children per run, at least
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def declared_metrics() -> dict[str, dict[str, str]]:
    """The `end_to_end` and `per_layer` metric units from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from None
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_child(workload: Workload, argvs: list[list[str]], timeout: float, *,
              trace: bool = False, setup_only: bool = False) -> dict:
    """Run one child process and return its JSON result with its wall time."""
    contexts = ";".join(",".join(map(str, c)) for c in workload.contexts)
    request = json.dumps({"argvs": argvs, "trace": trace, "setup_only": setup_only})
    cmd = [sys.executable, "-I", str(HERE / "child.py"), str(SRC), contexts, request]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload.name}: a pass ran past the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{workload.name}: pass exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = perf_counter() - start
    return result


def gate(workload: Workload, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Check every pass's reports; return (attempted, failed, problems).

    `attempted` counts the expected checks, and `failed` the checks that
    reported `pass: false` plus the expected checks that are missing.
    """
    attempted = failed = 0
    problems: list[str] = []
    for result in passes:
        for spec, inv in zip(workload.invocations, result["invocations"]):
            where = " ".join(inv["argv"])
            attempted += spec.checks
            failed += inv["failed"] + max(0, spec.checks - inv["checks"])
            if inv["rc"] != 0:
                problems.append(f"{where}: exit {inv['rc']}: {inv['error']}")
            if inv["checks"] != spec.checks:
                problems.append(f"{where}: {inv['checks']} checks, expected {spec.checks}")
            if inv["failed"]:
                problems.append(f"{where}: {inv['failed']} checks failed")
            summary = inv["summary"] or {}
            if (summary.get("checks"), summary.get("failed")) != (inv["checks"], inv["failed"]):
                problems.append(f"{where}: summary {summary} disagrees with the check lines")
            missing = spec.anchors - set(inv["anchors"])
            if missing:
                problems.append(f"{where}: anchors missing: {sorted(missing)}")
    digests = {tuple(inv["sha256"] for inv in result["invocations"]) for result in passes}
    if len(digests) > 1:
        problems.append("reports differ between passes at one seed")
    return attempted, failed, problems


def check_recorded_digests(workload: Workload, seed: int, argvs: list[list[str]],
                           digests: list[str]) -> list[str]:
    """Compare with the digests recorded for these argvs at this seed, or record them."""
    path = DIGESTS / f"{workload.name}-{seed}.json"
    record = {"seed": seed, "argvs": argvs, "sha256": digests}
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded.get("argvs") == argvs:
            if recorded != record:
                return [f"reports differ from the run recorded in {path.relative_to(ROOT)}"]
            return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return []


def repeat(workload: Workload, argvs: list[list[str]], seconds: float, start: float,
           trace: bool, before_each=lambda: None) -> list[dict]:
    """Passes back to back while another one fits in `seconds`; at least one."""
    passes: list[dict] = []
    while True:
        before_each()
        passes.append(run_child(workload, argvs, RUN_LIMIT_S - (perf_counter() - start),
                                trace=trace))
        longest = max(p["wall_s"] for p in passes)
        elapsed = perf_counter() - start
        if elapsed + longest > min(seconds, RUN_LIMIT_S):
            return passes


def measure(workload: Workload, argvs: list[list[str]],
            seconds: float) -> tuple[dict, list[dict]]:
    """Untraced run: the end-to-end metrics and the passes they came from.

    Set-up is timed in set-up-only children spread over the run, a few
    before each pass and the rest after the last, so that its median
    samples the same machine conditions as the passes.
    """
    start = perf_counter()
    setups: list[float] = []

    def probe(count: int) -> None:
        setups.extend(run_child(workload, [], RUN_LIMIT_S, setup_only=True)["setup_s"]
                      for _ in range(count))

    run_child(workload, [], RUN_LIMIT_S, setup_only=True)  # warm-up: bytecode caches
    passes = repeat(workload, argvs, seconds, start, trace=False,
                    before_each=lambda: probe(PROBES_PER_PASS))
    probe(max(PROBES_PER_PASS, MIN_PROBES - len(setups)))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def measure_traced(workload: Workload, argvs: list[list[str]],
                   seconds: float) -> tuple[dict, list[dict]]:
    """Traced run: untraced and traced passes in turn; per-layer metrics."""
    start = perf_counter()
    plain: list[dict] = []
    traced = repeat(workload, argvs, seconds, start, trace=True,
                    before_each=lambda: plain.append(run_child(workload, argvs, RUN_LIMIT_S)))
    layers = [p["trace"] for p in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = statistics.median(values) if is_time(name) else values[0]
    traced_s = statistics.median(p["verify_s"] for p in traced)
    untraced_s = statistics.median(p["verify_s"] for p in plain)
    metrics["trace.traced_verify_s"] = traced_s
    metrics["trace.untraced_verify_s"] = untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["verify.checks"] = sum(inv["checks"] for inv in traced[0]["invocations"])
    return metrics, plain + traced


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric.endswith(".s")


def trace_problems(passes: list[dict]) -> list[str]:
    counts = [{k: v for k, v in p["trace"].items() if not is_time(k)}
              for p in passes if "trace" in p]
    if any(c != counts[0] for c in counts):
        return ["per-layer counts differ between traced passes"]
    return []


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 units: dict[str, str]) -> dict:
    argvs = workload.argvs(seed)
    measure_fn = measure_traced if trace else measure
    metrics, passes = measure_fn(workload, argvs, seconds)
    attempted, failed, problems = gate(workload, passes)
    if trace:
        problems += trace_problems(passes)
    digests = [inv["sha256"] for inv in passes[0]["invocations"]]
    problems += check_recorded_digests(workload, seed, argvs, digests)
    if set(metrics) != set(units):
        raise HarnessError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    for problem in problems:
        print(f"{workload.name}: GATE: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={seed} passes={len(passes)} "
          f"sha256={','.join(d[:16] for d in digests)}")
    for name, unit in units.items():
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}")
    print(f"{workload.name} fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checks)")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "utt" / "cli.py").is_file():
            raise HarnessError(f"no utt sources under {SRC}")
        units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), units) for name in names}
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
