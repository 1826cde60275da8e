"""The verification harness: coverage, anchors, determinism."""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest

from conftest import STANDARD_TRIPLES, child_env
from utt import cli, conj, ops, qcalc, verify
from utt.basis import BivarPoly, g_poly
from utt.padic import PadicInt, make_context, nu_factorial, nu_int
from utt.utmat import UTWindow
from utt.verify import (
    ALL_ANCHORS,
    GROUPS,
    SUITE_BUILDERS,
    SUITES,
    CheckResult,
    run_suites,
)

FAST_CFG = dict(W=8, nmax=4, kmax=4, trials=5, seed=0)
ALL_SUITES = [name for name, suite in SUITES.items() if suite.in_all]


def _fast_config():
    return dict(FAST_CFG)


def test_suite_builders_follow_the_table():
    """One builder per record, in table order; a suite reads only its group's flags and the seed."""
    assert list(SUITE_BUILDERS) == list(SUITES)
    for name, suite in SUITES.items():
        reads = list(inspect.signature(suite.run).parameters)[1:]
        assert set(reads) <= {*GROUPS[suite.group], "seed"}, name


def test_in_all_anchors_are_the_benchmarks_twelve(bench_workloads):
    """The union over the `in_all` suites against the benchmark's own copy of the anchors."""
    assert len(ALL_ANCHORS) == 12
    assert ALL_ANCHORS == bench_workloads.ANCHORS


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_suite_table_matches_the_table():
    """README's table of the flags each suite reads and its group accepts."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| suite "))
    documented = {}
    for row in takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        name, reads, group = (cell.strip().strip("`") for cell in row.split("|")[1:4])
        group, _, accepts = group.partition(":")
        documented[name] = reads.replace("--", "").split()
        assert group == SUITES[name].group, name
        if accepts:
            assert accepts.strip(" `").replace("--", "").split() == list(GROUPS[group])
    assert documented == {name: list(inspect.signature(suite.run).parameters)[1:]
                          for name, suite in SUITES.items()}


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_emits_exactly_its_declared_anchors(ctx3, name):
    anchors = {r.anchor for r in run_suites(ctx3, [name], _fast_config())}
    assert anchors == set(SUITES[name].anchors)


def test_all_suites_pass_fast_config(ctx):
    results = list(run_suites(ctx, list(SUITES), _fast_config()))
    assert results
    bad = [r for r in results if not r.passed]
    assert bad == []


def test_full_default_run_emits_exact_anchor_set():
    ctx = make_context(3, 2, 20)
    cfg = dict(W=12, nmax=8, kmax=8, trials=50, seed=0)
    anchors = {r.anchor for r in run_suites(ctx, ALL_SUITES, cfg)}
    assert anchors == set(ALL_ANCHORS)


def test_reports_are_deterministic(ctx):
    cfg = _fast_config()
    a = [cli.emit_check(r, "json") for r in run_suites(ctx, ALL_SUITES, cfg)]
    b = [cli.emit_check(r, "json") for r in run_suites(ctx, ALL_SUITES, cfg)]
    assert a == b


def test_report_does_not_depend_on_the_hash_seed():
    """String hashing is randomised per process; no report order may follow it."""
    argv = [sys.executable, "-m", "utt", "verify", "all", "--W", "6", "--nmax", "3", "--kmax", "4",
            "--trials", "3"]
    outs = []
    for seed in ("0", "1", "12345"):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env={**child_env(), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1] == outs[2]


def test_seed_changes_trial_content(ctx):
    base = _fast_config()
    other = {**FAST_CFG, "seed": 1}
    a = [r.params for r in run_suites(ctx, ["conjugation"], base)]
    b = [r.params for r in run_suites(ctx, ["conjugation"], other)]
    assert a != b  # the per-trial seeds come from the master seed


def test_check_result_json_shape():
    res = CheckResult(name="x/y", anchor="Lemma Rpower", passed=True, params={"p": 3})
    assert json.loads(cli.emit_check(res, "json")) == {
        "check": "x/y",
        "anchor": "Lemma Rpower",
        "pass": True,
        "params": {"p": 3},
    }
    res2 = CheckResult(name="x/z", anchor="Lemma Rpower", passed=False, detail="boom")
    assert json.loads(cli.emit_check(res2, "json")) == {
        "check": "x/z", "anchor": "Lemma Rpower", "pass": False, "detail": "boom",
    }


def test_run_suites_respects_requested_names(ctx):
    names = ["rpower", "qbinom-matrix"]
    results = list(run_suites(ctx, names, _fast_config()))
    seen = {r.name.split("/")[0] for r in results}
    assert seen == {"rpower", "qbinom-matrix"}


def test_run_suites_canonical_order(ctx):
    """Requested out of order, executed in canonical order."""
    cfg = _fast_config()
    a = [r.name for r in run_suites(ctx, ["xn", "rpower"], cfg)]
    b = [r.name for r in run_suites(ctx, ["rpower", "xn"], cfg)]
    assert a == b


def test_action_branch_coverage_reported_at_defaults():
    """At the default configuration every reachable branch is hit."""
    ctx = make_context(3, 2, 20)
    cfg = dict(W=12, nmax=8, kmax=8, trials=5, seed=0)
    results = list(run_suites(ctx, ["action"], cfg))
    coverage = [r for r in results if "coverage" in r.name]
    assert coverage and all(r.passed for r in coverage)


# ----------------------------------------------------------- failure details


def _failures(ctx, suite):
    return [r for r in run_suites(ctx, [suite], _fast_config()) if not r.passed]


def test_rpower_failure_names_first_mismatch(ctx3, monkeypatch):
    real = verify.rpower_closed

    def off_by_one_at_1_2(ctx, n, s, c):
        value = real(ctx, n, s, c)
        return value + 1 if (s, c) == (1, 1) else value

    monkeypatch.setattr(verify, "rpower_closed", off_by_one_at_1_2)
    bad = _failures(ctx3, "rpower")
    assert [r.name for r in bad] == [f"rpower/n={n}" for n in range(FAST_CFG["nmax"] + 1)]
    R, M = verify.build_R(ctx3, FAST_CFG["W"]), ctx3.modulus
    for n, r in enumerate(bad):
        lhs = (R**n).entry(1, 2).residue
        assert r.detail == f"first mismatch at (1,2): {lhs} vs {(lhs + 1) % M}, nu_p(diff)=0"
    assert all(r.params["W"] == FAST_CFG["W"] for r in bad)


def test_first_mismatch_gives_residues_and_agreeing_digits(ctx3):
    """A difference at p**19 of N = 20 is a precision question; one at p**0 a wrong formula."""
    p, M = ctx3.p, ctx3.modulus
    base = UTWindow.from_fn(ctx3, 4, lambda i, j: 10 * i + j + 1)
    for at, delta in (((0, 0), 1), ((1, 3), p**19), ((2, 2), 5 * p**7), ((3, 3), -(p**2))):
        other = UTWindow.from_fn(ctx3, 4, lambda i, j: 10 * i + j + 1 + (delta if (i, j) == at else 0))
        x = 10 * at[0] + at[1] + 1
        y = (x + delta) % M
        want = f"first mismatch at ({at[0]},{at[1]}): {x} vs {y}, nu_p(diff)={nu_int(p, delta)}"
        assert verify._first_mismatch(base, other) == want
    assert verify._first_mismatch(base, base) == ""


def test_coverage_failure_lists_expected_branches(ctx3, monkeypatch):
    hit = sorted(verify.reachable_action_branches(3, FAST_CFG["kmax"]))
    monkeypatch.setattr(verify, "reachable_action_branches", lambda p, kmax: frozenset({"diag:x"}))
    (bad,) = _failures(ctx3, "action")
    assert bad.name == "action/g/branch-coverage"
    assert bad.detail == "expected ['diag:x']"
    assert bad.params["branches"] == hit


def test_alpha_failure_names_unstable_column(ctx3, monkeypatch):
    real = verify.alpha

    def column_2_drifts(coeffs, W):
        win = real(coeffs, W)
        if len(coeffs) != 3:
            return win
        return UTWindow.from_fn(ctx3, W, lambda i, j: win.entry(i, j) + (i == 1 and j == 2))

    monkeypatch.setattr(verify, "alpha", column_2_drifts)
    bad = _failures(ctx3, "alpha")
    assert len(bad) == verify.ALPHA_TRIALS
    assert {r.detail for r in bad} == {"column 2 unstable at row 1"}


def test_qbinom_matrix_failure_names_only_the_wrong_n(ctx3, monkeypatch):
    real = verify.qbinom_eval

    def off_by_one_at_3_1(n, i, q):
        value = real(n, i, q)
        return value + 1 if (n, i) == (3, 1) else value

    monkeypatch.setattr(verify, "qbinom_eval", off_by_one_at_3_1)
    (bad,) = _failures(ctx3, "qbinom-matrix")
    assert bad.name == "qbinom-matrix/n=3"
    assert bad.detail.startswith("first mismatch at")


@pytest.fixture
def corrupted_row_3_1(ctx3):
    """The residue rows at q_hat of ctx3, built past the fast config's nmax, with [3, 1] off by one.

    The rows after row 3 were built from the right row 3, so the one wrong value is [3, 1].
    """
    x, M = ctx3.q_hat_residue, ctx3.modulus
    qcalc._qbinom_rows.cache_clear()
    qcalc.qbinom_residue(2 * FAST_CFG["nmax"], 0, x, M)
    qcalc._qbinom_rows(x, M)[3][1] += 1
    yield
    qcalc._qbinom_rows.cache_clear()


@pytest.mark.parametrize("suite", ["rpower", "qbinom-matrix"])
def test_corrupted_row_fails_the_power_of_r_that_reads_it(ctx3, corrupted_row_3_1, suite):
    """[3, 1] weighs the (s, s+2) entries of R**3, read by the closed formula and the expansion."""
    (bad,) = _failures(ctx3, suite)
    assert bad.name == f"{suite}/n=3"
    assert bad.detail.startswith("first mismatch at (0,2): ")
    assert bad.detail.endswith(", nu_p(diff)=0")


def test_corrupted_row_fails_the_xn_entries_that_read_it(ctx3, corrupted_row_3_1):
    """The closed formula reads [3, 1] at n = 3 and 4, the q-binomial expansion only at n = 3."""
    bad = {r.name: r.detail for r in _failures(ctx3, "xn")}
    assert sorted(bad) == ["xn/entries/n=3", "xn/entries/n=4"]
    assert bad["xn/entries/n=3"].startswith("closed=first mismatch at ")
    assert " expanded=first mismatch at " in bad["xn/entries/n=3"]
    assert bad["xn/entries/n=4"].startswith("closed=first mismatch at ")
    assert bad["xn/entries/n=4"].endswith(" expanded=ok")


UC_RU = [f"conjugation/uc-ru/trial={t}" for t in range(FAST_CFG["trials"])]


def test_conjugation_failure_names_the_first_mismatch(ctx3, monkeypatch, capsys):
    """A corner fault in U changes U*C - R*U at (0, W-1) alone, by q_hat**(W-1) - 1."""
    real = conj.build_U

    def corner_off_by_one(c_mat):
        u = real(c_mat)
        return UTWindow.from_fn(ctx3, u.W, lambda i, j: u.entry(i, j) + (i == 0 and j == u.W - 1))

    monkeypatch.setattr(conj, "build_U", corner_off_by_one)
    bad = [r for r in _failures(ctx3, "conjugation") if r.name.startswith("conjugation/uc-ru/")]
    assert [r.name for r in bad] == UC_RU
    for r in bad:
        found = re.fullmatch(r"first mismatch at \(0,7\): (\d+) vs (\d+), nu_p\(diff\)=1", r.detail)
        assert found, r.detail
        assert (int(found[1]) - int(found[2])) % ctx3.modulus == ctx3.q_hat_residue**7 - 1
    assert cli.main(["verify", "conjugation", "--p", "3", "--q", "2", "--N", "20", "--W", "8"]) == 1
    assert '"pass": false' in capsys.readouterr().out


def test_conjugation_fails_a_u_outside_the_unit_group(ctx3, monkeypatch, capsys):
    """2U still solves U*C = R*U, but its diagonal is 2 mod 3: only uc-ru can see that."""
    real = conj.build_U
    monkeypatch.setattr(conj, "build_U", lambda c_mat: real(c_mat).scale(2))
    bad = _failures(ctx3, "conjugation")
    assert [r.name for r in bad] == UC_RU
    assert {r.detail for r in bad} == {"U is outside the unit group: diagonal not 1 mod p"}
    assert cli.main(["verify", "conjugation", "--p", "3", "--q", "2", "--N", "20", "--W", "8"]) == 1
    assert '"pass": false' in capsys.readouterr().out


# ------------------------------------------------------- residue-level work


def test_rpower_builds_at_most_one_padic_int_per_entry(monkeypatch, capsys):
    """The closed formula runs on int residues and wraps one PadicInt per entry."""
    W, nmax = 24, 22
    built = 0
    real = PadicInt.__init__

    def counted(self, ctx, value):
        nonlocal built
        built += 1
        real(self, ctx, value)

    monkeypatch.setattr(PadicInt, "__init__", counted)
    argv = ["verify", "rpower", "--p", "3", "--q", "2", "--N", "40", "--W", str(W), "--nmax", str(nmax)]
    assert cli.main(argv) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert 0 < built <= (nmax + 1) * W * (W + 1) // 2


def test_rpower_records_are_pinned(ctx3):
    """Names, anchor, verdicts, params and order of one small rpower run."""
    expected = [
        verify.CheckResult(f"rpower/n={n}", verify.ANCHOR_RPOWER, True,
                           {"p": 3, "q": 2, "N": 20, "W": 8, "n": n})
        for n in range(5)
    ]
    assert list(verify.suite_rpower(ctx3, 8, 4)) == expected


def test_rpower_takes_one_window_product_per_power(ctx3, monkeypatch):
    """R**n is the running product R**(n-1) * R, never a fresh power."""
    products = 0
    real = UTWindow.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return real(self, other)

    monkeypatch.setattr(UTWindow, "__mul__", counted)
    monkeypatch.setattr(UTWindow, "__pow__", None)
    assert all(r.passed for r in verify.suite_rpower(ctx3, 8, 6))
    assert products == 6


def test_verify_alpha_report_is_the_same_cold_and_warm(capsys):
    """The benchmark runs several invocations in one process, so the chain cache is shared."""
    ops._xn_chain.cache_clear()
    argv = ["verify", "alpha", "--p", "5", "--q", "2", "--N", "20"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert ops._xn_chain.cache_info().currsize == 1
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold
    assert ops._xn_chain.cache_info().hits > 0


def test_xn_then_alpha_build_each_rn_once(monkeypatch, capsys):
    """`verify xn` and `verify alpha` read one X_n chain: from a cold cache each R_n is built once."""
    ops._xn_chain.cache_clear()
    built: list[int] = []
    real = ops.build_Rn

    def counted(ctx, n, W):
        built.append(n)
        return real(ctx, n, W)

    monkeypatch.setattr(ops, "build_Rn", counted)
    flags = ["--p", "3", "--q", "2", "--N", "20"]
    try:
        assert cli.main(["verify", "xn", *flags]) == 0
        assert cli.main(["verify", "alpha", *flags]) == 0
    finally:
        ops._xn_chain.cache_clear()
    capsys.readouterr()
    assert built == list(range(1, 11))  # xn reads X_0..X_8 (nmax 8), alpha X_0..X_10 (W 12)


# ------------------------------------------------------------- lower-g layout


def _lower_g_by_triple_loop(ctx, kmax):
    """The lower-g suite as a plain loop over (m, n, i) in report order."""
    p = ctx.p
    out = []
    hit = set()
    for m in range(kmax + 1):
        for n in range(m + 1):
            for i in range(n + 1):
                nu_i = nu_factorial(p, i)
                if m <= nu_i + i:
                    branch, exponent = "low", m - n
                elif n <= nu_i + i:
                    branch, exponent = "mid", nu_i + i - n
                else:
                    branch, exponent = "high", 0
                hit.add(branch)
                lhs = g_poly(ctx, n, i) * BivarPoly.monomial(ctx, m - n, 0)
                rhs = g_poly(ctx, m, i).scale_p(exponent)
                out.append(verify._check(f"lower-g/m={m},n={n},i={i}", verify.ANCHOR_LOWER_G, lhs == rhs,
                                         ctx, m=m, n=n, i=i, branch=branch))
    required = {"low"} | ({"mid", "high"} if kmax >= 1 else set())
    out.append(verify._coverage("lower-g", verify.ANCHOR_LOWER_G, ctx, kmax, hit, required))
    return out


@pytest.mark.parametrize("triple", STANDARD_TRIPLES, ids=lambda t: "p{}q{}".format(*t))
def test_lower_g_by_columns_gives_the_triple_loop_report(triple):
    """Same names, params, verdicts and order as checking one (m, n, i) at a time."""
    ctx = make_context(*triple)
    for kmax in range(11):
        assert list(verify.suite_lower_g(ctx, kmax)) == _lower_g_by_triple_loop(ctx, kmax), kmax


def test_lower_g_builds_each_g_once(ctx3, monkeypatch):
    kmax = 9
    built = Counter()
    real = verify.g_poly

    def counted(ctx, m, l):
        built[(m, l)] += 1
        return real(ctx, m, l)

    monkeypatch.setattr(verify, "g_poly", counted)
    results = verify.suite_lower_g(ctx3, kmax)
    assert all(r.passed for r in results)
    assert built == Counter({(n, i): 1 for n in range(kmax + 1) for i in range(n + 1)})


@pytest.mark.parametrize("n0,i0", [(0, 0), (4, 0), (5, 2), (6, 6), (8, 3)])
def test_corrupted_g_fails_exactly_the_records_that_read_it(ctx3, monkeypatch, n0, i0):
    """g_{n0,i0} is read as g_{n,i} or g_{m,i}; at m = n it meets the route through f_{i0}."""
    kmax = 8
    real = verify.g_poly

    def corrupted(ctx, m, l):
        g = real(ctx, m, l)
        return g.scale(2) if (m, l) == (n0, i0) else g

    monkeypatch.setattr(verify, "g_poly", corrupted)
    failed = {(r.params["m"], r.params["n"], r.params["i"])
              for r in verify.suite_lower_g(ctx3, kmax) if not r.passed}
    reads = {(m, n, i0) for m in range(kmax + 1) for n in range(i0, m + 1) if n0 in (m, n)}
    assert (n0, n0, i0) in failed and failed == reads


@pytest.mark.parametrize("i0", [0, 3, 8])
def test_corrupted_f_fails_exactly_the_diagonal_lower_g_records(ctx3, monkeypatch, i0):
    """f_{i0} is read only by the m = n records of column i0, as the second route to g_{n,i0}."""
    kmax = 8
    real = verify.f_poly
    monkeypatch.setattr(verify, "f_poly", lambda ctx, k: real(ctx, k).scale(2) if k == i0 else real(ctx, k))
    failed = {(r.params["m"], r.params["n"], r.params["i"])
              for r in verify.suite_lower_g(ctx3, kmax) if not r.passed}
    assert failed == {(n, n, i0) for n in range(i0, kmax + 1)}


def test_denominator_checks_read_the_exact_product(capsys):
    """At p = 3 the k = 11 and k = 12 denominators have valuation 15 and 17,
    above N = 14, where a residue mod p**N would saturate at 14."""
    assert cli.main("verify integrality --p 3 --kmax 8 --N 14".split()) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[-1] == {"summary": {"checks": 44, "passed": 44, "failed": 0}}
    dens = [r for r in records[:-1] if r["check"].startswith("integrality/denominator/")]
    assert [r["params"]["k"] for r in dens if r["pass"]] == list(range(13))
