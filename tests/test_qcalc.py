"""Gaussian binomials: exact coefficient tuples and residue rows."""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import random
import sys
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import utt
from utt import cli, qcalc
from utt.cli import emit_qpoly
from utt.padic import make_context
from utt.qcalc import (
    QBINOM_ROWS_CACHE_SIZE,
    binom,
    qbinom,
    qbinom_eval,
    qbinom_residue,
)

# ------------------------------------------------------------------ oracle


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; asserts zero remainder."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff, rem = divmod(num[k + len(den) - 1], den[-1])
        assert rem == 0
        out[k] = coeff
        for j, d in enumerate(den):
            num[k + j] -= coeff * d
    assert all(c == 0 for c in num)
    return out


def qbinom_product_formula(n: int, i: int) -> list[int]:
    """[n choose i]_q by dividing out the product formula, coefficients
    ascending.  Completely independent of the Pascal recurrence."""
    num = [1]
    den = [1]
    for j in range(i):
        num = _poly_mul(num, [1] + [0] * (n - j - 1) + [-1])   # 1 - q**(n-j)
        den = _poly_mul(den, [1] + [0] * j + [-1])             # 1 - q**(j+1)
    return _poly_divexact(num, den)


def _times_one_minus_q_power(a: list[int], k: int) -> list[int]:
    """a * (1 - q**k)."""
    out = a + [0] * k
    for d, c in enumerate(a):
        out[d + k] -= c
    return out


def _over_one_minus_q_power(a: list[int], k: int) -> list[int]:
    """a / (1 - q**k), asserting that the division is exact."""
    out = list(a)
    for d in range(k, len(out)):
        out[d] += out[d - k]
    assert all(c == 0 for c in out[len(out) - k:])
    return out[:len(out) - k]


def qbinom_product_formula_row(n: int) -> tuple[tuple[int, ...], ...]:
    """The coefficient lists of [n, 0], ..., [n, n] from the same product
    formula, taken as the running quotient

        [n, i] = [n, i-1] * (1 - q**(n-i+1)) / (1 - q**i)

    one sparse factor at a time, which is fast enough for n = 60."""
    row, coeffs = [(1,)], [1]
    for i in range(1, n + 1):
        coeffs = _over_one_minus_q_power(_times_one_minus_q_power(coeffs, n - i + 1), i)
        row.append(tuple(coeffs))
    return tuple(row)


def _eval_mod(coeffs, x_pows: list[int], M: int) -> int:
    """sum c_d * x**d mod M, from the table x_pows[d] = x**d mod M."""
    return sum(map(mul, coeffs, x_pows)) % M


# ------------------------------------------------------------------- tests


def test_qbinom_frozen_values():
    assert qbinom(2, 1) == (1, 1)
    assert qbinom(4, 2) == (1, 1, 2, 1, 1)
    for n in range(9):
        assert qbinom(n, 0) == (1,)
        assert qbinom(n, n) == (1,)
    assert qbinom(3, 5) == ()
    assert qbinom(3, -1) == ()
    with pytest.raises(ValueError):
        qbinom(-1, 0)


@pytest.mark.parametrize("n", range(0, 11))
def test_qbinom_matches_product_formula(n):
    for i in range(n + 1):
        got = list(qbinom(n, i))
        want = qbinom_product_formula(n, i)
        # strip trailing zeros from the oracle before comparing
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        assert got == want, (n, i)


@pytest.mark.parametrize("i", [1, 2])
def test_qbinom_deep_cold_cache_matches_product_formula(i):
    """A cold call builds row by row, so n = 1000 does not exhaust the recursion limit."""
    qbinom.cache_clear()
    assert list(qbinom(1000, i)) == qbinom_product_formula(1000, i)


def test_qbinom_recursion_depth_does_not_grow_with_n():
    """With the limit 50 frames above the current depth, n = 2560 still works."""
    qbinom.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        got = qbinom(2560, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (1,) * 2560


def test_qbinom_pascal_recurrences():
    """Both q-Pascal forms hold on a grid (the builder uses only one)."""

    def add(a, b):
        out = [0] * max(len(a), len(b))
        for poly in (a, b):
            for d, c in enumerate(poly):
                out[d] += c
        return tuple(out)

    def shift(a, k):
        return (0,) * k + a if a else a

    for n in range(1, 11):
        for i in range(0, n + 1):
            lhs = qbinom(n, i)
            a = add(qbinom(n - 1, i - 1), shift(qbinom(n - 1, i), i))
            b = add(shift(qbinom(n - 1, i - 1), n - i), qbinom(n - 1, i))
            assert lhs == a, (n, i)
            assert lhs == b, (n, i)


def test_qbinom_specializations():
    for n in range(0, 11):
        for i in range(0, n + 1):
            coeffs = qbinom(n, i)
            assert qbinom_eval(n, i, 1) == math.comb(n, i)
            assert qbinom_eval(n, i, 0) == 1
            assert coeffs == coeffs[::-1]  # palindromic
            assert len(coeffs) - 1 == i * (n - i)  # the degree


def test_qbinom_eval_frozen():
    ctx = make_context(3, 2, 20)
    assert qbinom_eval(2, 1, 4) == 5
    assert qbinom_eval(2, 1, ctx.q_hat()) == 5
    assert qbinom_eval(5, 5, ctx.q_hat()) == 1
    assert qbinom_eval(3, 5, ctx.q_hat()) == 0


def test_binom_frozen():
    assert binom(4, 2) == 6
    assert binom(1, 2) == 0
    assert binom(0, 0) == 1
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_qbinom_eval_padic_matches_int_eval():
    ctx = make_context(5, 2, 20)
    for x in (0, 1, 2, 17, ctx.q_hat_residue):
        for n in range(8):
            for i in range(-1, n + 2):
                got = qbinom_eval(n, i, ctx.from_int(x))
                assert type(got) is int
                assert got == qbinom_eval(n, i, x) % ctx.modulus


# ---------------------------------------------------------- residue rows

ROW_NMAX = 60
ROW_CONTEXTS = ((3, 2, 20), (5, 2, 20), (7, 3, 20), (11, 2, 20))


@pytest.fixture(scope="module")
def product_formula_rows() -> list[tuple[tuple[int, ...], ...]]:
    return [qbinom_product_formula_row(n) for n in range(ROW_NMAX + 1)]


@pytest.fixture
def cold_rows():
    qcalc._qbinom_rows.cache_clear()
    yield
    qcalc._qbinom_rows.cache_clear()


def _row_points(ctx) -> list[int]:
    """q_hat, 0, 1, a non-unit and a random residue of ctx."""
    M, p = ctx.modulus, ctx.p
    rng = random.Random(ctx.p)
    return [ctx.q_hat_residue, 0, 1, p * rng.randrange(1, M // p), rng.randrange(M)]


def test_product_formula_row_is_the_product_formula():
    for n in range(13):
        assert [list(c) for c in qbinom_product_formula_row(n)] == [
            qbinom_product_formula(n, i) for i in range(n + 1)], n


@pytest.mark.parametrize("triple", ROW_CONTEXTS, ids=lambda t: "p{}q{}".format(*t))
def test_rows_match_product_formula_mod_m(triple, product_formula_rows, cold_rows):
    ctx = make_context(*triple)
    M = ctx.modulus
    for x in _row_points(ctx):
        x_pows = [pow(x, d, M) for d in range(ROW_NMAX**2 // 4 + 1)]
        for n, row in enumerate(product_formula_rows):
            want = [_eval_mod(c, x_pows, M) for c in row]
            assert [qbinom_residue(n, i, x, M) for i in range(n + 1)] == want, (x, n)


def _sampled_columns(n: int) -> set[int]:
    """Every i for small n; above that both edges and the middle of the row."""
    if n <= 16:
        return set(range(n + 1))
    return {0, 1, 2, n // 3, n // 2, n - 2, n - 1, n}


@pytest.fixture(scope="module")
def exact_int_residues() -> dict:
    """qbinom_eval(n, i, x) at an int, reduced mod M, for the points of every
    row context: (n, i) outside and the contexts and points inside, so each
    polynomial is built once."""
    contexts = {triple: make_context(*triple) for triple in ROW_CONTEXTS}
    points = {triple: _row_points(ctx) for triple, ctx in contexts.items()}
    out = {triple: {} for triple in ROW_CONTEXTS}
    for n in range(ROW_NMAX + 1):
        for i in sorted(_sampled_columns(n)):
            for triple, ctx in contexts.items():
                for x in points[triple]:
                    out[triple][n, i, x] = qbinom_eval(n, i, x) % ctx.modulus
    return out


@pytest.mark.parametrize("triple", ROW_CONTEXTS, ids=lambda t: "p{}q{}".format(*t))
def test_rows_match_exact_int_branch_mod_m(triple, exact_int_residues, cold_rows):
    """The int branch evaluates the polynomial exactly; only then is it reduced."""
    ctx = make_context(*triple)
    M = ctx.modulus
    for (n, i, x), want in exact_int_residues[triple].items():
        assert qbinom_residue(n, i, x, M) == want, (x, n, i)
        assert qbinom_eval(n, i, ctx.from_int(x)) == want, (x, n, i)


def test_rows_out_of_range_and_negative_n(ctx3, cold_rows):
    x, M = ctx3.q_hat_residue, ctx3.modulus
    for n in range(6):
        for i in (-2, -1, n + 1, n + 5):
            assert qbinom_residue(n, i, x, M) == 0
            assert qbinom_eval(n, i, ctx3.q_hat()) == 0
    for bad in (lambda: qbinom_residue(-1, 0, x, M), lambda: qbinom_eval(-1, 0, ctx3.q_hat()),
                lambda: qbinom_residue(-1, 5, x, M)):
        with pytest.raises(ValueError, match="qbinom needs n >= 0"):
            bad()


def test_rows_are_keyed_on_the_residue_of_x(ctx3, cold_rows):
    """x and x + M read the same rows, so the cache holds one key."""
    x, M = ctx3.q_hat_residue, ctx3.modulus
    assert qbinom_residue(9, 4, x + M, M) == qbinom_residue(9, 4, x, M)
    assert qcalc._qbinom_rows.cache_info().currsize == 1


def test_rows_cache_is_bounded(cold_rows):
    """The cache is keyed on (x, M); a sweep over contexts stays within maxsize."""
    info = qcalc._qbinom_rows.cache_info()
    assert info.maxsize == QBINOM_ROWS_CACHE_SIZE > 3  # `verify all` at three contexts fits
    for N in range(4, 4 + 3 * QBINOM_ROWS_CACHE_SIZE):
        qbinom_eval(6, 3, make_context(3, 2, N).q_hat())
    assert qcalc._qbinom_rows.cache_info().currsize <= QBINOM_ROWS_CACHE_SIZE


@pytest.mark.parametrize("argv", [
    ["verify", "all"],
    *(["verify", suite, "--kmax", "8"] for suite in ("integrality", "action", "alglem", "lower-g")),
], ids=lambda argv: argv[1])
def test_verify_builds_no_qbinom_polynomial(argv, capsys):
    qbinom.cache_clear()
    assert cli.main(argv + ["--p", "3", "--q", "2", "--N", "20"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    assert qbinom.cache_info().currsize == 0


def test_every_utt_memo_is_bounded():
    """Every lru_cache at module level in utt has a finite maxsize."""
    memos = {}
    for info in pkgutil.iter_modules(utt.__path__, "utt."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {"utt.qcalc.qbinom", "utt.qcalc._qbinom_rows", "utt.basis.c_poly",
            "utt.ops._xn_chain"} <= memos.keys()
    assert {name: size for name, size in memos.items() if size is None} == {}


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(tuple))
def test_qpoly_json_round_trip(a):
    """`utt qbinom` JSON is the ascending coefficient list; it rebuilds the tuple."""
    assert tuple(json.loads(emit_qpoly(a, "json"))) == a


def test_qpoly_pretty_frozen():
    """The pretty form names each nonzero term, and () is QPoly(0)."""
    assert emit_qpoly((), "pretty") == "QPoly(0)"
    assert emit_qpoly((1,), "pretty") == "QPoly(1)"
    assert emit_qpoly(qbinom(4, 2), "pretty") == "QPoly(1 + q + 2*q^2 + q^3 + q^4)"
    assert emit_qpoly((3, 0, -1, 1, -2), "pretty") == "QPoly(3 - q^2 + q^3 - 2*q^4)"
    assert emit_qpoly((0, -1, 0, 5), "pretty") == "QPoly(-q + 5*q^3)"
