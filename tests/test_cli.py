"""Command-line interface: exit codes, formats, determinism, golden output."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from utt import cli
from utt.verify import ALL_ANCHORS, GROUPS, SUITES, CheckResult


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
    window = ["--W", "6", "--nmax", "3", "--trials", "2"] if suite == "all" else []
    code, out, _ = run_cli(capsys, ["verify", suite, "--kmax", "0"] + window)
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
        ["verify", "xn", "--kmax", "40"],                  # a window suite reads no --kmax
        ["verify", "action", "--W", "30", "--nmax", "28", "--trials", "500"],  # nor a basis suite --W
        ["verify", "lower-g", "--W", "12"],                # an explicit default is still given
        ["verify", "alpha", "--W", "9"],                   # alpha is held to W >= nmax + 2 too
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "conjugation", "--W", "8", "--nmax", "6", "--trials", "2"],
        ["verify", "alpha", "--W", "8", "--nmax", "6", "--trials", "2"],
        ["verify", "conjugation", "--W", "2", "--trials", "2"],  # W >= 2 only, whatever nmax
    ],
    ids=["conjugation", "alpha", "conjugation-W2"],
)
def test_window_suite_accepts_every_window_flag(capsys, argv):
    """The check is by group: alpha reads no --nmax or --trials, conjugation no --nmax."""
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1])["summary"]["failed"] == 0


def test_env_prime_one_exits_two(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "1")
    code, out, err = run_cli(capsys, ["verify", "all"])
    assert code == 2 and out == "" and err.startswith("error:")


COMMANDS = [["verify", s] for s in (*SUITES, "all")] + [
    ["matrix", "R"], ["matrix", "Xn"], ["basis", "g"], ["qbinom"],
]
# Cheap values, given first for each command that reads the flag; a fuzzed
# flag given later overrides them.
CHEAP_FLAGS = {"W": "4", "nmax": "2", "kmax": "3", "trials": "2"}


def _accepted_flags(command):
    """The flags `command` accepts: one verify suite takes the context, the seed and its group's."""
    flags = cli.COMMAND_FLAGS[command[0]]
    if command[0] != "verify" or command[1] == "all":
        return flags
    group = GROUPS[SUITES[command[1]].group]
    return tuple(f for f in flags if f not in cli.GROUP_FLAGS or f in group)


def _fuzz_case(command):
    flags = _accepted_flags(command)
    base = [arg for f in flags if f in CHEAP_FLAGS for arg in (f"--{f}", CHEAP_FLAGS[f])]
    fuzzed = st.dictionaries(st.sampled_from(flags), st.integers(-3, 8), max_size=5)
    return st.tuples(st.just(command + base), fuzzed)


@settings(max_examples=100)
@given(case=st.sampled_from(COMMANDS).flatmap(_fuzz_case))
def test_fuzz_argv_keeps_exit_contract(case):
    """Small bounded argvs of the flags each command reads: exit 0, 1 or 2,
    and never a traceback."""
    argv, flags = case
    for flag, value in flags.items():
        argv = argv + [f"--{flag}", str(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# The flags each command accepts: 36 (command, flag) pairs in all.
VERIFY_FLAGS = {"p", "q", "N", "W", "kmax", "nmax", "trials", "seed", "format"}
ACCEPTED_FLAGS = {
    "matrix": ({"p", "q", "N", "W", "n", "format"}, ["D"]),
    "qbinom": ({"n", "k", "format"}, []),
    "basis": ({"p", "q", "N", "k", "m", "l", "i", "j", "format"}, ["c"]),
    "verify": (VERIFY_FLAGS, ["rpower"]),
    "all": (VERIFY_FLAGS, []),
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_FLAGS))
def test_command_accepts_exactly_the_flags_it_reads(command):
    accepted, positional = ACCEPTED_FLAGS[command]
    parser = cli.build_parser()
    seen = set()
    for flag in sorted(set(cli.FLAGS) | {"format"}):
        argv = [command] + positional + [f"--{flag}", "json" if flag == "format" else "1"]
        try:
            parser.parse_args(argv)
            seen.add(flag)
        except SystemExit as exc:
            assert exc.code == 2
    assert seen == accepted
    assert sum(len(flags) for flags, _ in ACCEPTED_FLAGS.values()) == 36


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "integrality", "--k", "40"],   # not --kmax: no prefix matching
        ["verify", "integrality", "--km", "40"],
        ["qbinom", "--n", "4", "--k", "2", "--W", "3"],
        ["matrix", "D", "--kmax", "1"],
        ["basis", "c", "--k", "3", "--seed", "1"],
    ],
)
def test_flag_the_command_does_not_read_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv", [["verify", "all"], ["qbinom", "--n", "4", "--k", "2"]], ids=["verify", "qbinom"]
)
def test_closed_stdout_exits_141_quietly(argv):
    """The pipe's read end is closed before the child starts, so every write fails."""
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "utt"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_import_loads_no_slow_stdlib_modules():
    """Start-up pays only for argparse, json and utt: these modules cost it ~10 ms."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import utt.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _benchmark_argvs(workloads):
    return [argv for w in workloads.WORKLOADS.values() for argv in w.argvs(7) + w.small_argvs(7)]


def test_benchmark_argvs_parse(bench_workloads):
    """Every argv the benchmark hands to `cli.main` is accepted by the parser."""
    parser = cli.build_parser()
    argvs = _benchmark_argvs(bench_workloads)
    assert argvs
    for argv in argvs:
        assert parser.parse_args(argv).seed == 7


def test_benchmark_argvs_clear_verify_validation(bench_workloads, monkeypatch, capsys):
    """Every benchmark argv passes `cmd_verify`'s checks, the unread-flag check included."""
    monkeypatch.setattr(cli, "run_suites", lambda ctx, names, cfg: iter(()))
    argvs = _benchmark_argvs(bench_workloads)
    assert argvs
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["summary"]["checks"] == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "D", "--W", "2"],
        ["qbinom", "--n", "4", "--k", "2"],  # needs no context, still reads the env prime
        ["basis", "c", "--k", "1"],
        ["verify", "rpower"],
    ],
    ids=["matrix", "qbinom", "basis", "verify"],
)
def test_env_garbage_rejected(capsys, monkeypatch, argv):
    monkeypatch.setenv(cli.ENV_DEFAULT_PRIME, "three")
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "UTT_DEFAULT_PRIME" in err


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


def test_qbinom_command_at_large_n_exits_zero_quietly():
    """A fresh process has a cold qbinom memo; n = 2000 must not reach the recursion limit."""
    proc = subprocess.run([sys.executable, "-m", "utt", "qbinom", "--n", "2000", "--k", "1"],
                          capture_output=True, env=child_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout) == [1] * 2000


def _qbinom_in_child(n: int, k: int) -> subprocess.CompletedProcess:
    """`utt qbinom` in a child that may map at most 512 MiB, so that a missing
    limit ends in a MemoryError rather than in a host out of memory."""
    limit = 512 << 20
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            f"from utt import cli; sys.exit(cli.main(['qbinom', '--n', '{n}', '--k', '{k}']))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)


def test_qbinom_above_the_degree_limit_exits_two_at_once():
    """[400, 200] has degree 40000; its memo would need about 20 GiB."""
    proc = _qbinom_in_child(400, 200)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: qbinom prints degree k(n-k) <= {cli.QBINOM_MAX_DEGREE}, "
                           "got 40000 at n=400, k=200\n")


@pytest.mark.parametrize("n, k, code", [(2501, 1, 0), (2502, 1, 2), (2502, 2501, 2), (5, 9, 0)])
def test_qbinom_degree_limit_is_inclusive(n, k, code):
    assert cli.QBINOM_MAX_DEGREE == 2500
    proc = _qbinom_in_child(n, k)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("error:") == (code == 2)


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


def test_verify_csv_rows_have_four_fields(capsys):
    """Check names hold commas (`alglem/m=1,i=0`), so csv fields are quoted."""
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 4 for row in rows)
    _, out, _ = run_cli(capsys, ["verify", "all"])
    names = [rec["check"] for rec in map(json.loads, out.splitlines()) if "check" in rec]
    assert [row[0] for row in rows[:-1]] == names
    assert any("," in name for name in names)
    assert rows[-1][0] == "summary"


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "rpower", "--nmax", "2", "--W", "4", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("summary,")
