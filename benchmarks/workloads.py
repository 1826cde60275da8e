"""The benchmark's workloads: the argv lists handed to `utt.cli.main`.

Each workload is a fixed list of `utt verify` invocations.  The only
input the benchmark varies is the seed, which reaches `utt` as
`--seed=<n>` on every invocation; nothing else is passed to the program.
The expected check count of every invocation was recorded at the commit
that introduced the benchmark, and the report gate compares against it.
"""

from __future__ import annotations

from dataclasses import dataclass

# The twelve anchor labels `utt verify all` must emit, copied from the
# report format rather than imported, so that the gate does not trust the
# program it checks.
ANCHORS = frozenset({
    "Eq. expand",
    "Lemma Rpower",
    "Theorem app(1)",
    "Theorem app(3)",
    "§4.3 Theorem",
    "Prop. subring",
    "Theorem basis",
    "Lemma action on f",
    "Prop. action on g",
    "Lemma alglem",
    "Lemma lower g",
    "Theorem topringapp",
})


@dataclass(frozen=True)
class Invocation:
    """One `utt` argv (without the seed flag) and what its report must hold."""

    argv: tuple[str, ...]
    checks: int  # expected number of check lines
    anchors: frozenset[str] = frozenset()  # anchors that must all appear


@dataclass(frozen=True)
class Workload:
    name: str
    contexts: tuple[tuple[int, int, int], ...]  # (p, q, N) built during set-up
    invocations: tuple[Invocation, ...]
    small: tuple[tuple[str, ...], ...]  # scaled-down argvs for the tracer test
    predicts: tuple[str, ...]  # layers whose `.calls` must be > 0 when traced

    def argvs(self, seed: int) -> list[list[str]]:
        return [list(inv.argv) + [f"--seed={seed}"] for inv in self.invocations]

    def small_argvs(self, seed: int) -> list[list[str]]:
        return [list(argv) + [f"--seed={seed}"] for argv in self.small]


def _ctx_flags(p: int, q: int, N: int) -> tuple[str, ...]:
    return ("--p", str(p), "--q", str(q), "--N", str(N))


STANDARD_TRIPLES = ((3, 2, 20), (5, 2, 20), (7, 3, 20))
MATRIX_SUITES = {"qbinom-matrix": 23, "rpower": 23, "xn": 30, "alpha": 20, "conjugation": 70}
MATRIX_FLAGS = ("--W", "24", "--nmax", "22")
# N = required_precision(p, 40) + 6, the margin the default config has at
# p=3 (N=20 against 14).  At N = required_precision itself the integrality
# suite's g-expansion trials raise PrecisionExhaustedError for some seeds,
# a defect of the program recorded in CHANGES.md.
BASIS_CONTEXTS = ((3, 2, 68), (5, 2, 59))
BASIS_SUITES = {"integrality": 140, "action": 862, "alglem": 821, "lower-g": 12342}

STANDARD = Workload(
    name="standard",
    contexts=STANDARD_TRIPLES,
    invocations=tuple(
        Invocation(("verify", "all") + _ctx_flags(*t), 417, ANCHORS) for t in STANDARD_TRIPLES
    ),
    small=(("verify", "all") + _ctx_flags(3, 2, 20) + ("--W", "7", "--nmax", "4", "--kmax", "6",
                                                        "--trials", "2"),),
    predicts=(
        "padic.ctx_eq", "padic.int_ops", "utmat.mul", "utmat.inverse", "ops.alpha",
        "ops.build_Xn", "ops.build_Rn", "conj.build_U", "conj.normalize_superdiag",
        "conj.verify_conjugation",
    ),
)

MATRIX_WIDE = Workload(
    name="matrix-wide",
    contexts=((3, 2, 40),),
    invocations=tuple(
        Invocation(("verify", suite) + _ctx_flags(3, 2, 40) + MATRIX_FLAGS, checks)
        for suite, checks in MATRIX_SUITES.items()
    ),
    small=tuple(
        ("verify", suite) + _ctx_flags(3, 2, 40) + ("--W", "8", "--nmax", "6", "--trials", "2")
        for suite in MATRIX_SUITES
    ),
    predicts=(
        "padic.ctx_eq", "padic.int_ops", "utmat.mul", "utmat.pow", "utmat.eq", "utmat.from_fn",
        "ops.build_Xn", "ops.build_Rn", "ops.alpha", "ops.rpower_closed", "ops.xn_closed",
        "ops.xn_expand_binomial", "conj.build_U", "conj.normalize_superdiag",
        "conj.verify_conjugation", "qcalc.qbinom_eval",
    ),
)

BASIS_DEEP = Workload(
    name="basis-deep",
    contexts=BASIS_CONTEXTS,
    invocations=tuple(
        Invocation(("verify", suite) + _ctx_flags(*ctx) + ("--kmax", "40"), checks)
        for ctx in BASIS_CONTEXTS
        for suite, checks in BASIS_SUITES.items()
    ),
    small=tuple(
        ("verify", suite) + _ctx_flags(3, 2, 20) + ("--kmax", "8") for suite in BASIS_SUITES
    ),
    predicts=(
        "padic.scaled_ops", "qcalc.qbinom_eval", "basis.c_poly", "basis.expand_in_c_basis",
        "basis.BivarPoly.mul", "basis.substitute", "basis.psi_action", "cli.emit",
    ),
)

WORKLOADS = {w.name: w for w in (STANDARD, MATRIX_WIDE, BASIS_DEEP)}
