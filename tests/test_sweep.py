"""The argv sweep: every entry of `sweep.json` replays to its recorded digests.

Each entry of `tests/sweep.json` holds an argv of `utt`, the environment
variables it sets, its exit code, and the sha256 of its stdout and of its
stderr.  The replay runs every entry through `cli.main` in this process,
with both streams captured and argparse's `SystemExit` caught, so any
change to what a command prints or returns shows up here.
`UTT_DEFAULT_PRIME` is unset unless an entry sets it, and `COLUMNS` is 80,
the width argparse wraps its usage and help text at when stdout is not a
terminal.

Replay:     PYTHONPATH=src python -m pytest -q tests/test_sweep.py
Re-record:  PYTHONPATH=src python tests/test_sweep.py --record

A re-record prints the env and argv of each entry whose exit code or
digests changed.  A change that means to alter a report re-records, and
lists each of those argvs, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from utt import cli

SWEEP_PATH = Path(__file__).resolve().parent / "sweep.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv: list[str], env: dict[str, str]) -> dict:
    """The sweep entry of `utt <argv>` run under `env`: exit code and stream digests."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.delenv(cli.ENV_DEFAULT_PRIME, raising=False)
        mp.setenv("COLUMNS", "80")
        for key, value in env.items():
            mp.setenv(key, value)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or an argv it rejects
            code = exc.code
    return {"argv": argv, "env": env, "exit": code,
            "stdout_sha256": _sha(out.getvalue()), "stderr_sha256": _sha(err.getvalue())}


def test_sweep_replays_to_recorded_digests():
    entries = json.loads(SWEEP_PATH.read_text())
    changed = [(e["env"], " ".join(e["argv"])) for e in entries if replay(e["argv"], e["env"]) != e]
    assert changed == []


def record() -> None:
    """Rewrite sweep.json from the current code, keeping its argvs and envs in order.

    Prints the env and argv of each entry whose exit code or digests changed,
    one line each, and nothing else.
    """
    entries = json.loads(SWEEP_PATH.read_text())
    recorded = [replay(e["argv"], e["env"]) for e in entries]
    for old, new in zip(entries, recorded):
        if new != old:
            print(json.dumps(new["env"]), " ".join(new["argv"]))
    # One entry per line, so that a re-record diffs by argv.
    SWEEP_PATH.write_text("[\n" + ",\n".join(json.dumps(e) for e in recorded) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_sweep.py --record")
    record()
