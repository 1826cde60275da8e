"""The `utt verify all` report pinned byte for byte, also under `python -O`."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import utt
from utt import cli

SMALL = ["--N", "20", "--W", "8", "--nmax", "4", "--kmax", "6", "--trials", "5"]


def _all(p: int, q: int, fmt: str) -> list[str]:
    return ["verify", "all", "--p", str(p), "--q", str(q), "--format", fmt] + SMALL


# sha256 of the stdout of `utt <argv>`; the last input pins the RNG draw order at W = 24.
GOLDEN = {
    "3-2-json": (_all(3, 2, "json"), "a7b8f8eb1170efdc3a1f1d7366cc7ede94fa686229b89cc63d633148750df0ff"),
    "5-2-json": (_all(5, 2, "json"), "6e80a386e0160bd7cd88355515dca11520b62a0d6e1bd537e7c88fe7e162bea2"),
    "7-3-json": (_all(7, 3, "json"), "f77e25c04b12c244b6967b0fcb5816148eba1acedfef5e9cffe65e9413a0b92c"),
    "3-2-csv": (_all(3, 2, "csv"), "b6dcf6851bc4bcc7481c6921786e1e2c830f069946b5f1381ae084bcedad8bc8"),
    "3-2-pretty": (_all(3, 2, "pretty"), "58080549b8b8bad5d864b33307e8ee4416841ecef1389e303b4c55256c18adf0"),
    "conjugation-W24": (
        "verify conjugation --p 3 --q 2 --N 40 --W 24 --trials 10 --seed=2".split(),
        "c7fb525ddb605b8f3bf8cc5821920ddb71445482049ddcef80197bef9c3602cb",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_verify_all_report_is_golden(capsys, key):
    argv, digest = GOLDEN[key]
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_optimized_mode_keeps_report():
    """Guards are raised errors, not asserts, so -O changes nothing."""
    env = dict(os.environ)
    env.pop(cli.ENV_DEFAULT_PRIME, None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(utt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "utt"] + GOLDEN["3-2-json"][0],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _sha(proc.stdout) == GOLDEN["3-2-json"][1]
