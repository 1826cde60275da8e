"""The verification harness: coverage, anchors, determinism."""

from __future__ import annotations

import ast
import csv
import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOW_CTX, STANDARD_TRIPLES, child_env, low_precision_terms, ref_scaled_eq
from utt import cli, conj, ops, qcalc, verify
from utt.basis import BivarPoly, g_poly
from utt.padic import PadicInt, PadicScaled, make_context, nu_factorial, nu_int
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


def test_readme_library_quick_start_runs():
    """The python block under `## Library quick start` runs as written; its asserts hold."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    exec(compile(block[:block.index("```")], "README.md: Library quick start", "exec"), {})


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
        lhs = (R**n).entry(1, 2)
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
        assert verify._mismatch(base, other) == want
    assert verify._mismatch(base, base) == ""


MONOMIAL_DETAIL = re.compile(r"first mismatch at u\^(\d+)v\^(\d+): (.+) vs (.+), nu_p\(diff\)=(-?\d+)")


def _named_monomial(detail: str) -> tuple[tuple[int, int], object, object, int]:
    """The key, both triples and the valuation a polynomial mismatch detail names."""
    found = MONOMIAL_DETAIL.fullmatch(detail)
    assert found, detail
    x, y = ast.literal_eval(found[3]), ast.literal_eval(found[4])
    return (int(found[1]), int(found[2])), x, y, int(found[5])


def _truncated(terms: dict, cut: int) -> dict:
    """The same coefficients knowing at most `cut` digits: equal on the digits both sides know."""
    return {key: PadicScaled(LOW_CTX, c.val, c.unit, min(c.sig, cut)) for key, c in terms.items()}


@settings(max_examples=300)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(*[low_precision_terms(weights=st.just(n))] * 2)),
       st.sampled_from(["other", "overlay", "truncated"]), st.integers(1, LOW_CTX.N))
def test_polynomial_mismatch_is_empty_exactly_on_equal_polynomials(xy, how, cut):
    """A non-empty detail names the first key in sorted order where the coefficients differ,
    and the valuation of their difference, taken on exact ints.  x and y share a weight,
    so that their overlay is a polynomial."""
    (x, y), p = xy, LOW_CTX.p
    a = BivarPoly(LOW_CTX, x)
    b = BivarPoly(LOW_CTX, {"other": y, "overlay": {**x, **y}, "truncated": _truncated(x, cut)}[how])
    detail = verify._mismatch(a, b)
    assert (detail == "") == (a == b)
    if detail:
        key, tx, ty, w = _named_monomial(detail)
        differ = [k for k in sorted(a.terms.keys() | b.terms.keys())
                  if not ref_scaled_eq(a.coefficient(*k), b.coefficient(*k))]
        assert key == differ[0]
        assert (tx, ty) == (a.terms.get(key), b.terms.get(key))
        low = min(t[0] for t in (tx, ty) if t is not None)
        exact = sum(sign * t[1] * p ** (t[0] - low) for sign, t in ((1, tx), (-1, ty)) if t is not None)
        assert w == low + nu_int(p, exact)
    else:
        assert verify._mismatch(b, a) == ""


def test_polynomial_mismatch_on_a_key_of_one_side(ctx3):
    a = BivarPoly(ctx3, {(1, 2): PadicScaled(ctx3, 2, 5, 20), (0, 3): PadicScaled(ctx3, 0, 1, 20)})
    b = BivarPoly(ctx3, {(0, 3): PadicScaled(ctx3, 0, 1, 20)})
    assert verify._mismatch(a, b) == "first mismatch at u^1v^2: (2, 5, 20) vs None, nu_p(diff)=2"
    assert verify._mismatch(b, a) == "first mismatch at u^1v^2: None vs (2, 5, 20), nu_p(diff)=2"


def test_polynomial_mismatch_ignores_digits_beyond_the_smaller_sig(ctx3):
    """5 known to 3 digits and 5 + 2*3**4 known to 6 agree on the 3 digits both know."""
    a = BivarPoly(ctx3, {(2, 0): PadicScaled(ctx3, 1, 5, 3)})
    b = BivarPoly(ctx3, {(2, 0): PadicScaled(ctx3, 1, 5 + 2 * 3**4, 6)})
    assert a == b
    assert verify._mismatch(a, b) == verify._mismatch(b, a) == ""


def test_polynomial_mismatch_between_two_valuations(ctx3):
    """p * 2 against p**3 * 2: the difference has the smaller valuation."""
    a = BivarPoly(ctx3, {(0, 1): PadicScaled(ctx3, 1, 2, 10)})
    b = BivarPoly(ctx3, {(0, 1): PadicScaled(ctx3, 3, 2, 10)})
    assert verify._mismatch(a, b) == "first mismatch at u^0v^1: (1, 2, 10) vs (3, 2, 10), nu_p(diff)=1"


def test_suite_build_makes_each_record_from_its_claim(ctx3):
    """A verdict of True passes with no detail; any string fails with it as the detail, "" too.
    The params are p, q and N, then the claim's own keys in the claim's order."""
    def entry(i, j):
        return 10 * i + j + 1

    base = UTWindow.from_fn(ctx3, 4, entry)
    off = UTWindow.from_fn(ctx3, 4, lambda i, j: entry(i, j) + (9 if (i, j) == (1, 3) else 0))
    a = BivarPoly(ctx3, {(0, 1): PadicScaled(ctx3, 1, 2, 10)})
    b = BivarPoly(ctx3, {(0, 1): PadicScaled(ctx3, 3, 2, 10)})

    def run(ctx):
        yield "t/pass", "A", {"x": 1, "b": 2}, True
        yield "t/detail", "A", {"b": 2, "x": 1}, "went wrong"
        yield "t/empty", "B", {}, ""
        yield "t/windows", "B", {"W": 4, "n": 0}, verify._agree(base, off)
        yield "t/same", "B", {"W": 4}, verify._agree(base, UTWindow.from_fn(ctx3, 4, entry))
        yield "t/polys", "C", {"m": 1}, verify._agree(a, b)

    pqn = {"p": 3, "q": 2, "N": 20}
    records = verify.Suite(run, "basis", lambda cfg: None, ("A", "B", "C")).build(ctx3, {"kmax": 1})
    assert records == [
        CheckResult("t/pass", "A", True, {**pqn, "x": 1, "b": 2}, ""),
        CheckResult("t/detail", "A", False, {**pqn, "b": 2, "x": 1}, "went wrong"),
        CheckResult("t/empty", "B", False, pqn, ""),
        CheckResult("t/windows", "B", False, {**pqn, "W": 4, "n": 0},
                    "first mismatch at (1,3): 14 vs 23, nu_p(diff)=2"),
        CheckResult("t/same", "B", True, {**pqn, "W": 4}, ""),
        CheckResult("t/polys", "C", False, {**pqn, "m": 1},
                    "first mismatch at u^0v^1: (1, 2, 10) vs (3, 2, 10), nu_p(diff)=1"),
    ]
    # dict equality ignores key order, so the order is pinned apart
    own = [["x", "b"], ["b", "x"], [], ["W", "n"], ["W"], ["m"]]
    assert [list(r.params) for r in records] == [["p", "q", "N", *keys] for keys in own]
    assert [type(r.passed) for r in records] == [bool] * 6


def test_action_failure_names_the_faulty_coefficient(ctx3, monkeypatch):
    """psi(g_{4,2}) off by 3 at its first monomial fails action/g/m=4,l=2 alone, with nu_p(diff) = 1."""
    target, real = g_poly(ctx3, 4, 2), verify.psi_action
    key = min(real(target).terms)

    def one_coefficient_off(poly):
        out = real(poly)
        return out + BivarPoly.monomial(ctx3, *key, 3) if poly == target else out

    monkeypatch.setattr(verify, "psi_action", one_coefficient_off)
    (bad,) = _failures(ctx3, "action")
    assert bad.name == "action/g/m=4,l=2"
    named, x, _, w = _named_monomial(bad.detail)
    assert (named, x, w) == (key, one_coefficient_off(target).terms[key], 1)


def test_alglem_failure_names_the_faulty_coefficient(ctx3, monkeypatch):
    """f_2 off by 1 at u^2 reaches the right side of every alglem/m,i=2 record, times u^(nu(m!)+m-2)
    and divided by p**(nu(2!) + beta)."""
    p, real = ctx3.p, verify.f_poly

    def f_2_off_at_u2(ctx, k):
        return real(ctx, k) + BivarPoly.monomial(ctx, 2, 0, 1) if k == 2 else real(ctx, k)

    monkeypatch.setattr(verify, "f_poly", f_2_off_at_u2)
    bad = _failures(ctx3, "alglem")
    assert [r.name for r in bad] == [f"alglem/m={m},i=2" for m in range(3, FAST_CFG["kmax"] + 1)]
    for r in bad:
        m = r.params["m"]
        key, _, _, w = _named_monomial(r.detail)
        assert key == (nu_factorial(p, m) + m, 0)
        assert w == -nu_factorial(p, 2) - verify.beta(p, m, 2)


def test_g_expansion_failure_names_the_first_monomial_rebuilt_wrong(ctx3, monkeypatch):
    """Doubled coefficients stay integral but rebuild 2f, wrong at f's first monomial."""
    real = verify.expand_in_g_basis
    monkeypatch.setattr(verify, "expand_in_g_basis", lambda f: [mu * 2 for mu in real(f)])
    bad = [r for r in _failures(ctx3, "integrality") if "g-expansion" in r.name]
    assert len(bad) == verify.G_EXPANSION_TRIALS
    for r in bad:
        integral, _, rebuilt = r.detail.partition(" reconstructed=")
        assert integral == "integral=True"
        _, x, y, w = _named_monomial(rebuilt)
        assert w == x[0] == y[0]


def test_coverage_failure_lists_expected_branches(ctx3, monkeypatch):
    hit = sorted(verify.reachable_action_branches(3, FAST_CFG["kmax"]))
    monkeypatch.setattr(verify, "reachable_action_branches", lambda p, kmax: frozenset({"diag:x"}))
    (bad,) = _failures(ctx3, "action")
    assert bad.name == "action/g/branch-coverage"
    assert bad.detail == "expected ['diag:x']"
    assert bad.params["branches"] == hit


def test_alpha_failure_names_unstable_column(ctx3, monkeypatch):
    real = verify.alpha

    def column_2_drifts(ctx, coeffs, W):
        win = real(ctx, coeffs, W)
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
    """The closed formulas run on int residues and build no PadicInt at all.

    The rpower suite builds none.  The xn suite builds them only for
    xn_expand_binomial's coefficients, and none while xn_closed runs.
    """
    W, nmax = 24, 22
    built, inside, calls = 0, 0, Counter()
    real_init = PadicInt.__init__

    def counted_init(self, ctx, value):
        nonlocal built
        built += 1
        real_init(self, ctx, value)

    def watched(name):
        real = getattr(verify, name)

        def closed(*args):
            nonlocal inside
            before = built
            value = real(*args)
            inside += built - before
            calls[name] += 1
            return value

        return closed

    monkeypatch.setattr(PadicInt, "__init__", counted_init)
    for name in ("rpower_closed", "xn_closed"):
        monkeypatch.setattr(verify, name, watched(name))
    flags = ["--p", "3", "--q", "2", "--N", "40", "--W", str(W), "--nmax", str(nmax)]
    assert cli.main(["verify", "rpower"] + flags) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert built == 0
    assert cli.main(["verify", "xn"] + flags) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert inside == 0
    assert calls["rpower_closed"] == (nmax + 1) * W * (W + 1) // 2
    assert calls["xn_closed"] == 7 * W * (W + 1) // 2


def test_rpower_records_are_pinned(ctx3):
    """Names, anchor, verdicts, params and order of one small rpower run."""
    expected = [
        verify.CheckResult(f"rpower/n={n}", verify.ANCHOR_RPOWER, True,
                           {"p": 3, "q": 2, "N": 20, "W": 8, "n": n})
        for n in range(5)
    ]
    assert SUITES["rpower"].build(ctx3, {"W": 8, "nmax": 4}) == expected


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
    assert all(r.passed for r in SUITES["rpower"].build(ctx3, {"W": 8, "nmax": 6}))
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
    p, q, N = ctx.p, ctx.q, ctx.N
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
                out.append(CheckResult(f"lower-g/m={m},n={n},i={i}", verify.ANCHOR_LOWER_G, lhs == rhs,
                                       {"p": p, "q": q, "N": N, "m": m, "n": n, "i": i, "branch": branch}))
    required = {"low"} | ({"mid", "high"} if kmax >= 1 else set())
    covered = hit == required
    out.append(CheckResult("lower-g/branch-coverage", verify.ANCHOR_LOWER_G, covered,
                           {"p": p, "q": q, "N": N, "kmax": kmax, "branches": sorted(hit)},
                           "" if covered else f"expected {sorted(required)}"))
    return out


@pytest.mark.parametrize("triple", STANDARD_TRIPLES, ids=lambda t: "p{}q{}".format(*t))
def test_lower_g_by_columns_gives_the_triple_loop_report(triple):
    """Same names, params, verdicts and order as checking one (m, n, i) at a time."""
    ctx = make_context(*triple)
    for kmax in range(11):
        assert SUITES["lower-g"].build(ctx, {"kmax": kmax}) == _lower_g_by_triple_loop(ctx, kmax), kmax


def test_lower_g_builds_each_g_once(ctx3, monkeypatch):
    kmax = 9
    built = Counter()
    real = verify.g_poly

    def counted(ctx, m, l):
        built[(m, l)] += 1
        return real(ctx, m, l)

    monkeypatch.setattr(verify, "g_poly", counted)
    results = SUITES["lower-g"].build(ctx3, {"kmax": kmax})
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
    bad = [r for r in SUITES["lower-g"].build(ctx3, {"kmax": kmax}) if not r.passed]
    failed = {(r.params["m"], r.params["n"], r.params["i"]) for r in bad}
    reads = {(m, n, i0) for m in range(kmax + 1) for n in range(i0, m + 1) if n0 in (m, n)}
    assert (n0, n0, i0) in failed and failed == reads
    for r in bad:
        m, n = r.params["m"], r.params["n"]
        lhs = real(ctx3, n, i0) * BivarPoly.monomial(ctx3, m - n, 0)
        _assert_names_the_first_doubled_monomial(r.detail, lhs)


@pytest.mark.parametrize("i0", [0, 3, 8])
def test_corrupted_f_fails_exactly_the_diagonal_lower_g_records(ctx3, monkeypatch, i0):
    """f_{i0} is read only by the m = n records of column i0, as the second route to g_{n,i0}."""
    kmax = 8
    real = verify.f_poly
    monkeypatch.setattr(verify, "f_poly", lambda ctx, k: real(ctx, k).scale(2) if k == i0 else real(ctx, k))
    bad = [r for r in SUITES["lower-g"].build(ctx3, {"kmax": kmax}) if not r.passed]
    failed = {(r.params["m"], r.params["n"], r.params["i"]) for r in bad}
    assert failed == {(n, n, i0) for n in range(i0, kmax + 1)}
    for r in bad:
        _assert_names_the_first_doubled_monomial(r.detail, g_poly(ctx3, r.params["n"], i0))


def _assert_names_the_first_doubled_monomial(detail: str, side: BivarPoly) -> None:
    """One side of the record is `side` scaled by 2, a unit at p = 3, so every coefficient differs:
    the first is at side's least key, and the difference c - 2c has c's valuation."""
    key, x, y, w = _named_monomial(detail)
    assert key == min(side.terms)
    assert w == x[0] == y[0] == side.terms[key][0]


def test_failing_lower_g_report_carries_its_detail_in_json_and_csv(monkeypatch, capsys):
    """The CLI contract on a failing basis report: exit 1, and each failing line holds its detail,
    whose commas survive the csv quoting."""
    real = verify.g_poly

    def g_3_1_doubled(ctx, m, l):
        g = real(ctx, m, l)
        return g.scale(2) if (m, l) == (3, 1) else g

    monkeypatch.setattr(verify, "g_poly", g_3_1_doubled)
    argv = ["verify", "lower-g", "--p", "3", "--q", "2", "--N", "20", "--kmax", "4"]
    assert cli.main(argv) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    details = {r["check"]: r["detail"] for r in records if not r["pass"]}
    assert details and all(r.get("detail") is None for r in records if r["pass"])
    assert all(_named_monomial(d) for d in details.values())
    assert cli.main([*argv, "--format", "csv"]) == 1
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert {row[0]: row[3] for row in rows[:-1] if row[2] == "FAIL"} == details
    assert all(row[3] == "" for row in rows[:-1] if row[2] == "pass")


def test_denominator_checks_read_the_exact_product(capsys):
    """At p = 3 the k = 11 and k = 12 denominators have valuation 15 and 17,
    above N = 14, where a residue mod p**N would saturate at 14."""
    assert cli.main("verify integrality --p 3 --kmax 8 --N 14".split()) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[-1] == {"summary": {"checks": 44, "passed": 44, "failed": 0}}
    dens = [r for r in records[:-1] if r["check"].startswith("integrality/denominator/")]
    assert [r["params"]["k"] for r in dens if r["pass"]] == list(range(13))
