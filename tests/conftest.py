"""Shared fixtures, strategies, and reporting helpers for the suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from utt.padic import PadicContext, PadicInt, make_context

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The three standard configurations every cross-prime check runs at.
STANDARD_TRIPLES = ((3, 2, 20), (5, 2, 20), (7, 3, 20))

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def ctx3() -> PadicContext:
    return make_context(3, 2, 20)


@pytest.fixture(scope="session")
def ctx5() -> PadicContext:
    return make_context(5, 2, 20)


@pytest.fixture(scope="session")
def ctx7() -> PadicContext:
    return make_context(7, 3, 20)


@pytest.fixture(scope="session", params=STANDARD_TRIPLES, ids=lambda t: f"p{t[0]}q{t[1]}")
def ctx(request) -> PadicContext:
    p, q, N = request.param
    return make_context(p, q, N)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def acceptance_recorder():
    """Record one pass/fail line per acceptance criterion.

    The lines are echoed in the terminal summary so the verdicts stay
    visible even when pytest captures per-test stdout.
    """

    def record(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def dense_product(a, b):
    """Oracle matrix product: dense schoolbook multiply over residues.

    Independent of UTWindow.__mul__ (which sums only the upper band);
    this walks every k and relies on entry() returning zero below the
    diagonal.
    """
    from utt.utmat import UTWindow

    assert a.W == b.W
    W = a.W
    return UTWindow.from_fn(
        a.ctx, W,
        lambda i, j: sum(
            (a.entry(i, k) * b.entry(k, j) for k in range(W)),
            start=a.ctx.zero(),
        ),
    )


def random_window(ctx: PadicContext, W: int, rng: random.Random):
    """Random upper-triangular window with arbitrary entries."""
    from utt.utmat import UTWindow

    return UTWindow.from_fn(
        ctx, W, lambda i, j: PadicInt(ctx, rng.randrange(ctx.modulus))
    )


def random_unit_diag_window(ctx: PadicContext, W: int, rng: random.Random):
    """Random window whose diagonal entries are units (invertible)."""
    from utt.utmat import UTWindow

    def gen(i: int, j: int) -> PadicInt:
        r = rng.randrange(ctx.modulus)
        if i == j and r % ctx.p == 0:
            r += 1 + rng.randrange(ctx.p - 1)
        return PadicInt(ctx, r)

    return UTWindow.from_fn(ctx, W, gen)


# Reference copies of the PadicScaled precision rules as they stood before
# the rules moved into the triple kernels of utt.padic.  They build every
# result through the validating PadicScaled constructor and call none of
# the operators under test, so they stay an independent oracle.


def ref_scaled_add(a, b):
    """a + b under the realignment rule, as PadicScaled.__add__ defined it."""
    from utt.errors import PrecisionExhaustedError
    from utt.padic import PadicScaled, nu_int

    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.val > b.val:
        a, b = b, a
    delta = b.val - a.val
    s = min(a.sig, delta + b.sig)
    if s < 1:
        raise PrecisionExhaustedError("addition lost every significant digit")
    p = a.ctx.p
    r = (a.unit + b.unit * p**delta) % p**s
    if r == 0:
        return PadicScaled.zero(a.ctx)
    w = nu_int(p, r)
    return PadicScaled(a.ctx, a.val + w, r // p**w, s - w)


def ref_scaled_mul(a, b):
    """a * b keeping the smaller significant-digit count."""
    from utt.padic import PadicScaled

    if a.is_zero() or b.is_zero():
        return PadicScaled.zero(a.ctx)
    return PadicScaled(a.ctx, a.val + b.val, a.unit * b.unit, min(a.sig, b.sig))


def ref_scaled_eq(a, b):
    """Equality on the digits both sides know."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if a.val != b.val:
        return False
    m = a.ctx.p ** min(a.sig, b.sig)
    return a.unit % m == b.unit % m


def ref_bivar_product(x, y):
    """Product of two {(a, b): PadicScaled} dicts, summed in dict order.

    The summation order is part of the oracle: realignment loses digits
    differently depending on which partial sum comes first.  Zero
    coefficients are dropped at the end.
    """
    acc = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            key = (a1 + a2, b1 + b2)
            prod = ref_scaled_mul(c1, c2)
            acc[key] = ref_scaled_add(acc[key], prod) if key in acc else prod
    return {k: c for k, c in acc.items() if not c.is_zero()}
