"""Command-line interface: exit codes, formats, determinism, golden output."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utt import cli
from utt.verify import ALL_ANCHORS, SUITE_ORDER, CheckResult


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- exit codes


def test_verify_suite_exits_zero(capsys):
    code, out, err = run_cli(
        capsys, ["verify", "rpower", "--nmax", "4", "--W", "6"]
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["failed"] == 0 and summary["checks"] == len(lines) - 1


@pytest.mark.parametrize("suite", ["alglem", "all"])
def test_verify_kmax_zero_exits_zero(capsys, suite):
    code, out, _ = run_cli(
        capsys, ["verify", suite, "--kmax", "0", "--W", "6", "--nmax", "3", "--trials", "2"]
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["failed"] == 0


def test_verify_failure_exits_one(capsys, monkeypatch):
    def fake_run_suites(ctx, names, cfg):
        yield CheckResult(name="stub/ok", anchor="Lemma Rpower", passed=True)
        yield CheckResult(name="stub/bad", anchor="Lemma Rpower", passed=False, detail="x")

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(capsys, ["verify", "rpower"])
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary == {"checks": 2, "passed": 1, "failed": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rpower", "--p", "4"],                  # not prime
        ["verify", "rpower", "--p", "5", "--q", "7"],      # not primitive
        ["verify", "rpower", "--N", "0"],                  # bad precision
        ["verify", "rpower", "--W", "4", "--nmax", "8"],   # window too small
        ["verify", "integrality", "--N", "10"],            # precision below basis need
        ["matrix", "Xn"],                                  # missing --n
        ["basis", "F", "--k", "2"],                        # missing --i/--j
        ["verify", "all", "--p", "1"],                     # p = 1: no valuation base
        ["verify", "action", "--p", "0"],                  # p = 0: no valuation base
        ["verify", "integrality", "--p", "-1"],            # negative p
        ["verify", "integrality", "--kmax", "-1"],         # negative basis index
        ["verify", "conjugation", "--trials", "-3"],       # negative trial count
        ["verify", "xn", "--nmax", "-1", "--W", "3"],      # negative matrix index
        ["verify", "conjugation", "--W", "1"],             # window too small to conjugate
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def test_env_prime_one_exits_two(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "1")
    code, out, err = run_cli(capsys, ["verify", "all"])
    assert code == 2 and out == "" and err.startswith("error:")


COMMANDS = [["verify", s] for s in SUITE_ORDER + ("all",)] + [
    ["matrix", "R"], ["matrix", "Xn"], ["basis", "g"], ["qbinom"],
]
FUZZED_FLAGS = ("--p", "--q", "--N", "--W", "--n", "--k", "--m", "--l",
                "--kmax", "--nmax", "--trials")


@settings(max_examples=100)
@given(
    command=st.sampled_from(COMMANDS),
    flags=st.dictionaries(st.sampled_from(FUZZED_FLAGS), st.integers(-3, 8), max_size=5),
)
def test_fuzz_argv_keeps_exit_contract(command, flags):
    """Small bounded argvs: exit 0, 1 or 2, and never a traceback."""
    # Cheap defaults first; a fuzzed flag given later overrides them.
    argv = command + ["--W", "4", "--nmax", "2", "--kmax", "3", "--trials", "2"]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------------- environment


def test_env_default_prime(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "5")
    code, out, _ = run_cli(capsys, ["matrix", "D", "--W", "2"])
    assert code == 0
    assert json.loads(out)["p"] == 5


def test_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "5")
    code, out, _ = run_cli(capsys, ["matrix", "D", "--W", "2", "--p", "3"])
    assert code == 0
    assert json.loads(out)["p"] == 3


def test_env_garbage_rejected(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "three")
    code, _, err = run_cli(capsys, ["matrix", "D", "--W", "2"])
    assert code == 2 and "UTT_DEFAULT_PRIME" in err


# ------------------------------------------------------------ determinism


def test_reports_byte_identical(capsys):
    argv = ["verify", "conjugation", "--trials", "3", "--W", "6", "--seed", "11"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_verify_all_emits_anchor_set(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "all", "--W", "8", "--nmax", "4", "--kmax", "4", "--trials", "3"],
    )
    assert code == 0
    anchors = {
        json.loads(line)["anchor"]
        for line in out.strip().splitlines()
        if "anchor" in json.loads(line)
    }
    assert anchors == set(ALL_ANCHORS)


def test_all_alias_matches_verify_all(capsys):
    argv_tail = ["--W", "8", "--nmax", "4", "--kmax", "4", "--trials", "2"]
    _, out1, _ = run_cli(capsys, ["verify", "all"] + argv_tail)
    _, out2, _ = run_cli(capsys, ["all"] + argv_tail)
    assert out1 == out2


# ----------------------------------------------------------------- formats


def test_matrix_json_golden(capsys):
    code, out, _ = run_cli(capsys, ["matrix", "D", "--W", "2"])
    assert code == 0
    assert out == '{"p": 3, "N": 20, "W": 2, "rows": [["1", "0"], ["4"]]}\n'


def test_matrix_pretty_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        ["matrix", "Xn", "--n", "2", "--p", "3", "--q", "2", "--W", "4", "--format", "pretty"],
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["0", "0", "1", "0"]  # (0, 2) entry is exactly 1
    assert rows[1][2] == "15"


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, ["matrix", "S", "--W", "3", "--format", "csv"])
    assert code == 0
    assert out == "0,1,0\n0,0,1\n0,0,0\n"


def test_qbinom_command(capsys):
    code, out, _ = run_cli(capsys, ["qbinom", "--n", "4", "--k", "2"])
    assert code == 0 and json.loads(out) == [1, 1, 2, 1, 1]
    code, out, _ = run_cli(capsys, ["qbinom", "--n", "4", "--k", "2", "--format", "csv"])
    assert out.strip() == "1,1,2,1,1"
    code, out, _ = run_cli(capsys, ["qbinom", "--n", "4", "--k", "2", "--format", "pretty"])
    assert code == 0 and out.strip()


def test_basis_commands(capsys):
    code, out, _ = run_cli(capsys, ["basis", "c", "--k", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == 1 and len(data["terms"]) == 2

    code, out, _ = run_cli(capsys, ["basis", "f", "--k", "2", "--format", "csv"])
    assert code == 0 and out.splitlines()[0] == "a,b,val,unit,sig"

    code, out, _ = run_cli(capsys, ["basis", "g", "--m", "3", "--l", "1", "--format", "pretty"])
    assert code == 0 and "u^" in out

    code, out, _ = run_cli(capsys, ["basis", "F", "--i", "0", "--j", "1", "--k", "3"])
    assert code == 0 and json.loads(out)["weight"] == 4


def test_basis_bad_index_exits_two(capsys):
    code, _, err = run_cli(capsys, ["basis", "g", "--m", "2", "--l", "5"])
    assert code == 2 and "error:" in err


def test_verify_pretty_format(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "rpower", "--nmax", "2", "--W", "4", "--format", "pretty"]
    )
    assert code == 0
    assert "[PASS]" in out and "checks passed" in out


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "rpower", "--nmax", "2", "--W", "4", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("summary,")
