"""The `utt verify all` report pinned byte for byte, also under `python -O`."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from conftest import child_env
from utt import cli

SMALL = ["--N", "20", "--W", "8", "--nmax", "4", "--kmax", "6", "--trials", "5"]


def _all(p: int, q: int, fmt: str) -> list[str]:
    return ["verify", "all", "--p", str(p), "--q", str(q), "--format", fmt] + SMALL


def _basis_k24(suite: str, p: int, N: int) -> list[str]:
    return f"verify {suite} --p {p} --q 2 --N {N} --kmax 24 --seed=1".split()


# sha256 of the stdout of `utt <argv>`.  `conjugation-W24` pins the RNG draw
# order at W = 24; the basis inputs pin where precision is lost in the
# scaled arithmetic, since the report shows every coefficient verdict.  The
# `-k24` inputs run the four basis suites at the two `basis-deep` benchmark
# contexts with kmax 24.
GOLDEN = {
    "3-2-json": (_all(3, 2, "json"), "a7b8f8eb1170efdc3a1f1d7366cc7ede94fa686229b89cc63d633148750df0ff"),
    "5-2-json": (_all(5, 2, "json"), "6e80a386e0160bd7cd88355515dca11520b62a0d6e1bd537e7c88fe7e162bea2"),
    "7-3-json": (_all(7, 3, "json"), "f77e25c04b12c244b6967b0fcb5816148eba1acedfef5e9cffe65e9413a0b92c"),
    "3-2-csv": (_all(3, 2, "csv"), "039b4b0077b310248b5d09db8a582bb43cded3ef8d290bc824d7deb461c395b2"),
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
    "integrality-p3-k24": (
        _basis_k24("integrality", 3, 68),
        "f1e1d4ded769a49e17faf50114baed19ea5bdd129487d0fc6862b55f47415bea",
    ),
    "action-p3-k24": (
        _basis_k24("action", 3, 68),
        "51f8c33541880512f90815578262f3bb0df00da225c1e179e225a548d677558a",
    ),
    "alglem-p3-k24": (
        _basis_k24("alglem", 3, 68),
        "e1d77685fae254791cf790fbd308837839c74310c3bc1bbf9ae93375b6a00eee",
    ),
    "lower-g-p3-k24": (
        _basis_k24("lower-g", 3, 68),
        "ca9502bb770fb5518bc0b08e4f577a571d9f6012df6517c8832b017706302865",
    ),
    "integrality-p5-k24": (
        _basis_k24("integrality", 5, 59),
        "9cc6a4ccefb556c3f6c045835408a7e3ab6db8b2eddf975b69a78b92063a324c",
    ),
    "action-p5-k24": (
        _basis_k24("action", 5, 59),
        "3fa2d5288c35103124a4247eb7e3b90dfe89e0d0be6d89f0670b59a1fdb998c5",
    ),
    "alglem-p5-k24": (
        _basis_k24("alglem", 5, 59),
        "0ae0d1a16b8a5b18b1e5ddef62389dc491a5afac24baaea309c89256ed505280",
    ),
    "lower-g-p5-k24": (
        _basis_k24("lower-g", 5, 59),
        "f692a2f8455b249ac32b399eb5be2627e2376f28612a1735ee287401c1164344",
    ),
}

# sha256 of the stdout of the commands that print one object, per format, at
# the default context (3, 2, 20) and window W = 12.  Each must exit 0 with an
# empty stderr.  `qbinom --n 3 --k 5` is the zero polynomial.
OBJECTS = {
    "matrix-D": ("matrix D", {
        "json": "11ce035b6e259ef1323ae306c119e82f94a69afc62f7c52f46dcba4774567891",
        "csv": "5c12ef2b50c269e43c6fdbf879c5c54a5f269cce264f69f6c6f1f0e2cfcb0a5b",
        "pretty": "df9e3126e3a9d5279c4ba8d8665e93a80b10f7aef72bbde93cd4f07b61fd179a",
    }),
    "matrix-S": ("matrix S", {
        "json": "da50a2067e3f840f21e74dd70cbccd30a558ea924d7445511a64cd788053bf35",
        "csv": "145a43cf9d5b14cc3ace23cfb0bd02f607ad7e99450e6220a2deeb39592b71c8",
        "pretty": "7a5b198eaaa561b04c18740970accea5489883ed63d434b827d458c055d52a11",
    }),
    "matrix-R": ("matrix R", {
        "json": "d08e75f236f6de90908a32e973b587c357a1d15a42a04b29c3caa7afced61740",
        "csv": "b3833eb38e457a590c9078886f50c2f004ace4e4b86aa6ec8547357588401067",
        "pretty": "281fa9457ec59c6e713dafeba2a7d88e0cb23c0b437011a9424732ff694c72df",
    }),
    "matrix-Rn": ("matrix Rn --n 3", {
        "json": "512080217eb9bfc4e2641e13243a133777c5016bcf3c46877a5b7050c7b48328",
        "csv": "b5d9e9251b507006e8182bc3096fa134d6aa98010eb661c483a829cc7dd35b3d",
        "pretty": "912a101226e9ffcbef525daf50032145905c346b1f5c8ec35c9c0d5bee8fea7d",
    }),
    "matrix-Xn": ("matrix Xn --n 3", {
        "json": "a6739e14ace6aa380d061d7c7cbf71f3ea5b591ab91dd1d69f233f463ea4ad7b",
        "csv": "540312662b830714a2636f6560f94c04a7f9e95c6e6983e8c9a3e0b71333f1bb",
        "pretty": "6bd3a06ee96294c733178ca97bb0d554ae78f36644b290f162c0cfb941d35181",
    }),
    "qbinom-6-3": ("qbinom --n 6 --k 3", {
        "json": "2eebbf9198153c5c541150411146c140fa3cdc37a5948e751e60c3e78f036ae7",
        "csv": "6f5bb2063387d8985a6f2e49df2bf2890acd09c6d56c30e58a29560628574c5f",
        "pretty": "70846b7310b0a46290da24632d63121c032323a851a564cab75ed047dbb35224",
    }),
    "qbinom-3-5": ("qbinom --n 3 --k 5", {
        "json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "csv": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "pretty": "1e4b347f8435cca57da7872d6a0a385145a5b00a355f08c1e9bc3c4f224e5ee1",
    }),
    "basis-c": ("basis c --k 3", {
        "json": "797bea3e70dc1a33785f615e8343331905fded69434e1341b55e892566fb2af0",
        "csv": "025e94079ae648e5d6ccefdb121f62c29b1ac1d99afa5fa86d320f465a75583c",
        "pretty": "e4737af4ae36f16ae57fd22198c9e231228b8bba0cd950a3c6ea723eb75f6ed7",
    }),
    "basis-c-k0": ("basis c --k 0", {
        "json": "14914f0bd5c41f7620ed74614cfe916395d3ce2a8c87c3bd5d1485f9fb213b72",
        "csv": "0d9b998ff221c4e37db896348d130537699388ac0c2792b33b2dc58189959b03",
        "pretty": "2516d88b6396ae63d810ea9e75a879c68a1ee0318480936d02d0413aa711767e",
    }),
    "basis-f": ("basis f --k 4", {
        "json": "da6ed4290ccee1d902abccf4300db19021762f7437981f180d08f2e1cd64cd9f",
        "csv": "e9a5fbaddb9e5fc2bb09a7d42360062c7f386627ad6c28e6e8a48d944fa7bc19",
        "pretty": "d24fb2adea1cab47b0b8f1e40ded4fac9c1fd38b8654f4d0413a31cad5432120",
    }),
    "basis-F": ("basis F --i 1 --j 1 --k 3", {
        "json": "4d7c85473a7de15e4ad7f4f9b86138c2ddf13adcf312629cdc6e444a267cc012",
        "csv": "f1b26338ee1903c5698a91595c25db463470db74c8d66e9ddcf6ddc8b25c6c77",
        "pretty": "c594ab797bbc6f6877d616933332104fda577333d4ea9039c18a92ee46aea5fe",
    }),
    "basis-g": ("basis g --m 5 --l 2", {
        "json": "2839df8248c4d19893534d83af903d03c3e084a7d59d69e118f7db20593330e5",
        "csv": "92d51965c3ce42ab92a724a25445a011ea3cf7634db74a1577c696be1c4ff39e",
        "pretty": "df11d30aaa59b27fea18ef76d2af47e9578abf09bc41f8fd6568d9f2b8bd8a8b",
    }),
}
OBJECT_CASES = [(name, fmt) for name, (_, digests) in OBJECTS.items() for fmt in digests]

# At N = required_precision(3, 10) = 18 the first g-expansion trial of
# seed 0 (the 23rd c-basis expansion of the suite) cannot rebuild its
# input.  sha256 of that input as `utt basis` prints it in JSON.
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


@pytest.mark.parametrize("name, fmt", OBJECT_CASES, ids=[f"{n}-{f}" for n, f in OBJECT_CASES])
def test_object_output_is_golden(capsys, name, fmt):
    argv, digests = OBJECTS[name]
    assert cli.main(argv.split() + ["--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha(out) == digests[fmt]


def test_known_exhaustion_fails_at_the_same_expansion(capsys, monkeypatch):
    """The documented precision failure stays where it was, with the same message."""
    from utt import basis

    seen = []
    original = basis.expand_in_c_basis

    def counted(f):
        seen.append(_sha(cli.emit_bivar(f, "json")))
        return original(f)

    monkeypatch.setattr(basis, "expand_in_c_basis", counted)
    assert cli.main(EXHAUSTED_ARGV) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: c-basis expansion failed to rebuild its input\n"
    assert (len(seen), seen[-1]) == (EXHAUSTED_CALL, EXHAUSTED_INPUT)


def test_optimized_mode_keeps_report():
    """Guards are raised errors, not asserts, so -O changes nothing."""
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "utt"] + GOLDEN["3-2-json"][0],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _sha(proc.stdout) == GOLDEN["3-2-json"][1]
