"""The `utt verify all` report pinned byte for byte, also under `python -O`."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import utt
from utt import cli

SMALL = ["--N", "20", "--W", "8", "--nmax", "4", "--kmax", "6", "--trials", "5"]


def _all(p: int, q: int, fmt: str) -> list[str]:
    return ["verify", "all", "--p", str(p), "--q", str(q), "--format", fmt] + SMALL


# sha256 of the stdout of `utt <argv>`.  `conjugation-W24` pins the RNG draw
# order at W = 24; the two basis inputs pin where precision is lost in the
# scaled arithmetic, since the report shows every coefficient verdict.
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
    "lower-g-k14": (
        "verify lower-g --p 3 --q 2 --N 30 --kmax 14".split(),
        "0bd0c28945c600d04d17faac26457ae46f707823aea60080cfe33cc2bbf0394b",
    ),
    "integrality-p5-k20": (
        "verify integrality --p 5 --q 2 --N 40 --kmax 20 --seed=3".split(),
        "d25b681b21b51c604998b4a0fcbc7b85069bce027ff4942d9d7ea059e65fdbf4",
    ),
}

# At N = required_precision(3, 10) = 18 the first g-expansion trial of
# seed 0 (the 23rd c-basis expansion of the suite) cannot rebuild its
# input.  sha256 of the JSON of that input.
EXHAUSTED_ARGV = "verify integrality --p 3 --q 2 --kmax 10 --N 18 --seed=0".split()
EXHAUSTED_CALL = 23
EXHAUSTED_INPUT = "1bd91ab93cfe698155dad0bfc412d778d9607809be3fb12b1ba9426db130ec86"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_verify_all_report_is_golden(capsys, key):
    argv, digest = GOLDEN[key]
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_known_exhaustion_fails_at_the_same_expansion(capsys, monkeypatch):
    """The documented precision failure stays where it was, with the same message."""
    from utt import basis

    seen = []
    original = basis.expand_in_c_basis

    def counted(f):
        seen.append(_sha(json.dumps(f.to_json())))
        return original(f)

    monkeypatch.setattr(basis, "expand_in_c_basis", counted)
    assert cli.main(EXHAUSTED_ARGV) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: c-basis expansion failed to rebuild its input\n"
    assert (len(seen), seen[-1]) == (EXHAUSTED_CALL, EXHAUSTED_INPUT)


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
