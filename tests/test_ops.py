"""The named operation matrices and their closed entry formulas."""

from __future__ import annotations

import json
import random

import pytest

from conftest import dense_product
from utt import cli, ops
from utt.errors import BadIndexError, ContextMismatchError, DomainError
from utt.ops import (
    XN_CHAIN_CACHE_SIZE,
    alpha,
    build_D,
    build_R,
    build_Rn,
    build_S,
    build_Xn,
    build_basic,
    row_exponent,
    rpower_closed,
    xn_closed,
    xn_expand_binomial,
)
from utt.padic import make_context
from utt.qcalc import qbinom_eval
from utt.utmat import UTWindow

W = 12
NMAX = 8


def test_row_exponent_is_linear():
    assert row_exponent(0, 5) == 0
    assert row_exponent(3, 2) == 6
    assert row_exponent(4, 0) == 0


def test_basic_matrices_frozen(ctx):
    d = build_D(ctx, 4)
    s = build_S(ctx, 4)
    r = build_R(ctx, 4)
    for i in range(4):
        assert d.entry(i, i) == ctx.q_hat_pow(i)
        for j in range(i + 1, 4):
            assert d.entry(i, j).residue == 0
            assert s.entry(i, j).residue == (1 if j == i + 1 else 0)
        assert s.entry(i, i).residue == 0
    assert r == d + s
    assert build_basic(ctx, "D", 4) == d
    assert build_basic(ctx, "S", 4) == s
    assert build_basic(ctx, "R", 4) == r
    with pytest.raises(BadIndexError):
        build_basic(ctx, "Q", 4)


def test_diag_superdiag_q_commute(ctx):
    """S D = q_hat (D S): the relation the binomial theorem needs."""
    d = build_D(ctx, 8)
    s = build_S(ctx, 8)
    assert s * d == (d * s).scale(ctx.q_hat())


def test_binomial_theorem_small_window(ctx):
    """(D+S)**n expands with Gaussian-binomial coefficients at q_hat."""
    d = build_D(ctx, W)
    s = build_S(ctx, W)
    r = d + s
    for n in range(NMAX + 1):
        total = UTWindow.zero(ctx, W)
        for i in range(n + 1):
            coeff = qbinom_eval(n, i, ctx.q_hat())
            total = total + (d**i * s ** (n - i)).scale(coeff)
        assert r**n == total, n


def test_rpower_closed_matches_products(ctx):
    r = build_R(ctx, W)
    for n in range(NMAX + 1):
        rn = r**n
        for s in range(W):
            for j in range(s, W):
                assert rn.entry(s, j) == rpower_closed(ctx, n, s, j - s), (n, s, j)


def test_rpower_closed_out_of_band(ctx):
    assert rpower_closed(ctx, 3, 0, 4).residue == 0
    assert rpower_closed(ctx, 3, 2, -1).residue == 0


@pytest.mark.parametrize("size", [1, 2, 6, W])
def test_r_is_d_plus_s(ctx, size):
    assert build_R(ctx, size) == build_D(ctx, size) + build_S(ctx, size)


def test_rn_is_shifted_r(ctx):
    for size in (1, 2, 6):
        for n in range(1, size + 2):
            shift = UTWindow.identity(ctx, size).scale(ctx.q_hat_pow(n - 1))
            assert build_Rn(ctx, n, size) == build_R(ctx, size) - shift, (size, n)
        with pytest.raises(BadIndexError):
            build_Rn(ctx, 0, size)


def test_xn_recursion_and_base(ctx):
    assert build_Xn(ctx, 0, 6) == UTWindow.identity(ctx, 6)
    for n in range(0, 5):
        assert build_Xn(ctx, n + 1, 6) == build_Xn(ctx, n, 6) * build_Rn(ctx, n + 1, 6)
    with pytest.raises(BadIndexError):
        build_Xn(ctx, -1, 6)


@pytest.fixture()
def cold_chain():
    ops._xn_chain.cache_clear()
    yield
    ops._xn_chain.cache_clear()


def _dense_xn(ctx, n, W):
    """X_n as a chain of dense oracle products of build_Rn windows."""
    acc = UTWindow.identity(ctx, W)
    for m in range(1, n + 1):
        acc = dense_product(acc, build_Rn(ctx, m, W))
    return acc


@pytest.mark.parametrize("size", [1, 5, 9])
def test_xn_matches_dense_chain(ctx, size, cold_chain):
    for n in sorted({0, 1, size - 1, size, size + 2, 3 * size}):
        assert build_Xn(ctx, n, size) == _dense_xn(ctx, n, size), n
    assert len(ops._xn_chain(ctx, size)) == size + 1  # X_0..X_W; nothing past W is kept


def _count_products(monkeypatch) -> list[int]:
    """Wrap UTWindow.__mul__; the returned one-item list counts the calls."""
    products = [0]
    real = UTWindow.__mul__

    def counted(a, b):
        products[0] += 1
        return real(a, b)

    monkeypatch.setattr(UTWindow, "__mul__", counted)
    return products


def test_xn_past_the_window_stops_at_the_zero_window(ctx, monkeypatch, cold_chain):
    """X_W is zero, so X_3W costs the W chain steps and no more: 0 * R_m = 0."""
    size = 6
    products = _count_products(monkeypatch)
    assert build_Xn(ctx, 3 * size, size) == UTWindow.zero(ctx, size)
    assert products == [size]


def test_xn_past_a_nonzero_xw_takes_every_step(ctx, monkeypatch, cold_chain):
    """R in place of every R_n leaves X_W nonzero, so no step past W is skipped."""
    size = 6
    want = build_R(ctx, size) ** (3 * size)
    monkeypatch.setattr(ops, "build_Rn", lambda c, n, W: build_R(c, W))
    products = _count_products(monkeypatch)
    assert build_Xn(ctx, 3 * size, size) == want
    assert products == [3 * size]


def test_xn_filtration_and_band(ctx):
    for n in range(NMAX + 1):
        xn = build_Xn(ctx, n, W)
        assert xn.filtration_level() >= n, n
        for s in range(W):
            for j in range(s, W):
                if j - s > n:
                    assert xn.entry(s, j).residue == 0, (n, s, j)


def test_xn_three_way_equality(ctx):
    for n in range(7):
        xn = build_Xn(ctx, n, W)
        assert xn == xn_expand_binomial(ctx, n, W), n
        for s in range(W):
            for j in range(s, W):
                assert xn.entry(s, j) == xn_closed(ctx, n, s, j - s), (n, s, j)


def test_xn_closed_frozen(ctx):
    # X_1 = R - I has diagonal entries q_hat**s - 1
    for s in range(5):
        want = ctx.q_hat_pow(s) - ctx.one()
        assert xn_closed(ctx, 1, s, 0) == want
    x2 = build_Xn(ctx, 2, 6)
    assert x2.entry(0, 1).residue == 0
    assert x2.entry(0, 2).residue == 1


# ------------------------------------------------------------------- alpha


def test_alpha_single_term(ctx):
    a0 = ctx.from_int(7)
    assert alpha([a0], 5) == UTWindow.identity(ctx, 5).scale(a0)


def test_alpha_truncation_beyond_window(ctx):
    """Terms with n >= W vanish on the window, so they cannot change it."""
    rng = random.Random(5)
    coeffs = [ctx.from_int(rng.randrange(ctx.modulus)) for _ in range(8)]
    assert alpha(coeffs, 4) == alpha(coeffs + [ctx.from_int(9)] * 4, 4)


def test_alpha_column_stabilization(ctx):
    """Column j is already exact once the sum runs past n = j."""
    rng = random.Random(6)
    M = 10
    coeffs = [ctx.from_int(rng.randrange(ctx.modulus)) for _ in range(M)]
    full = alpha(coeffs, 8)
    for j in range(0, 7):
        part = alpha(coeffs[: j + 1], 8)
        for i in range(j + 1):
            assert part.entry(i, j) == full.entry(i, j), (i, j)


def test_alpha_matches_dense_chain_sum(ctx):
    rng = random.Random(8)
    coeffs = [ctx.from_int(rng.randrange(ctx.modulus)) for _ in range(9)]
    want = UTWindow.zero(ctx, 7)
    for n, a in enumerate(coeffs):
        want = want + _dense_xn(ctx, n, 7).scale(a)
    assert alpha(coeffs, 7) == want


def test_alpha_rejects_bad_input(ctx):
    with pytest.raises(BadIndexError):
        alpha([], 4)
    other = make_context(5 if ctx.p != 5 else 3, 2, 20)
    with pytest.raises(ContextMismatchError):
        alpha([ctx.one(), other.one()], 4)
    with pytest.raises(DomainError, match="coeffs\\[0\\]"):
        alpha([1, ctx.one()], 4)


# ------------------------------------------------------- the cached X_n chain


def _count_rn_builds(monkeypatch) -> list[int]:
    """Wrap ops.build_Rn; the returned list collects the n of every call."""
    built: list[int] = []
    real = ops.build_Rn

    def counted(ctx, n, W):
        built.append(n)
        return real(ctx, n, W)

    monkeypatch.setattr(ops, "build_Rn", counted)
    return built


def test_alpha_builds_each_rn_once_per_context_and_window(ctx, monkeypatch, cold_chain):
    built = _count_rn_builds(monkeypatch)
    rng = random.Random(11)
    coeffs = [ctx.from_int(rng.randrange(ctx.modulus)) for _ in range(11)]
    full = alpha(coeffs, 12)
    assert built == list(range(1, 11))
    built.clear()
    assert alpha(coeffs, 12) == full
    for j in range(len(coeffs)):
        alpha(coeffs[: j + 1], 12)
    assert built == []


def test_alpha_grows_the_chain_only_as_far_as_its_terms(ctx, monkeypatch, cold_chain):
    built = _count_rn_builds(monkeypatch)
    alpha([ctx.one()] * 3, 400)
    assert built == [1, 2]


def test_xn_chain_cache_is_bounded(cold_chain):
    """The cache is keyed on (context, W); a sweep over contexts stays within maxsize."""
    info = ops._xn_chain.cache_info()
    assert info.maxsize == XN_CHAIN_CACHE_SIZE > 3  # `verify all` at three contexts fits
    for N in range(4, 4 + 3 * XN_CHAIN_CACHE_SIZE):
        alpha([make_context(3, 2, N).one()] * 3, 4)
    assert ops._xn_chain.cache_info().currsize <= XN_CHAIN_CACHE_SIZE


def test_a_bad_factor_fails_records_instead_of_raising(ctx, monkeypatch, cold_chain, capsys):
    """R in place of every R_n makes X_n = R**n, which kills no column: the records say so."""
    monkeypatch.setattr(ops, "build_Rn", lambda c, n, W: build_R(c, W))
    flags = ["--p", str(ctx.p), "--q", str(ctx.q), "--N", str(ctx.N)]
    for suite, prefix in (("alpha", "alpha/stabilization/"), ("xn", "xn/filtration/n=")):
        assert cli.main(["verify", suite, *flags]) == 1, suite
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        verdicts = {r["check"]: r["pass"] for r in records if r.get("check", "").startswith(prefix)}
        assert verdicts, suite
        # X_0 = I is the one window the bad factor does not reach
        assert not any(v for name, v in verdicts.items() if name != "xn/filtration/n=0"), suite
