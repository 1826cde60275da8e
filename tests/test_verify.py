"""The verification harness: coverage, anchors, determinism."""

from __future__ import annotations

import json

from utt import cli, conj, verify
from utt.padic import PadicInt, make_context
from utt.utmat import UTWindow
from utt.verify import (
    ALL_ANCHORS,
    SUITE_BUILDERS,
    SUITE_ORDER,
    CheckResult,
    default_suite_config,
    run_suites,
)

FAST_CFG = dict(W=8, nmax=4, kmax=4, trials=5, seed=0)


def _fast_config():
    return default_suite_config(**FAST_CFG)


def test_suite_order_covers_all_builders():
    assert set(SUITE_ORDER) == set(SUITE_BUILDERS)


def test_all_suites_pass_fast_config(ctx):
    results = list(run_suites(ctx, SUITE_ORDER, _fast_config()))
    assert results
    bad = [r for r in results if not r.passed]
    assert bad == []


def test_full_default_run_emits_exact_anchor_set():
    ctx = make_context(3, 2, 20)
    cfg = default_suite_config(W=12, nmax=8, kmax=8, trials=50, seed=0)
    anchors = {r.anchor for r in run_suites(ctx, SUITE_ORDER, cfg)}
    assert anchors == set(ALL_ANCHORS)


def test_anchor_set_is_stable():
    assert len(ALL_ANCHORS) == 12


def test_reports_are_deterministic(ctx):
    cfg = _fast_config()
    a = [r.to_json() for r in run_suites(ctx, SUITE_ORDER, cfg)]
    b = [r.to_json() for r in run_suites(ctx, SUITE_ORDER, cfg)]
    assert json.dumps(a) == json.dumps(b)


def test_seed_changes_trial_content(ctx):
    base = _fast_config()
    other = default_suite_config(**{**FAST_CFG, "seed": 1})
    a = [r.params for r in run_suites(ctx, ["conjugation"], base)]
    b = [r.params for r in run_suites(ctx, ["conjugation"], other)]
    assert a != b  # the per-trial seeds come from the master seed


def test_check_result_json_shape():
    res = CheckResult(name="x/y", anchor="Lemma Rpower", passed=True, params={"p": 3})
    assert res.to_json() == {
        "check": "x/y",
        "anchor": "Lemma Rpower",
        "pass": True,
        "params": {"p": 3},
    }
    res2 = CheckResult(name="x/z", anchor="Lemma Rpower", passed=False, detail="boom")
    data = res2.to_json()
    assert data["pass"] is False and data["detail"] == "boom"


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
    cfg = default_suite_config(W=12, nmax=8, kmax=8, trials=5, seed=0)
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
    assert {r.detail for r in bad} == {"first mismatch at (1,2)"}
    assert all(r.params["W"] == FAST_CFG["W"] for r in bad)


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


def test_conjugation_failure_counts_mismatches(ctx3, monkeypatch, capsys):
    real = conj.build_U

    def corner_off_by_one(c_mat):
        u = real(c_mat)
        return UTWindow.from_fn(ctx3, u.W, lambda i, j: u.entry(i, j) + (i == 0 and j == u.W - 1))

    monkeypatch.setattr(conj, "build_U", corner_off_by_one)
    bad = [r for r in _failures(ctx3, "conjugation") if r.name.startswith("conjugation/uc-ru/")]
    assert [r.name for r in bad] == [f"conjugation/uc-ru/trial={t}" for t in range(FAST_CFG["trials"])]
    assert {r.detail for r in bad} == {"mismatches=1"}
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
