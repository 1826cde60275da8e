"""Upper-triangular windows: exactness, ring laws, inversion, filtration."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_product, random_unit_diag_window, random_window, sub_window
from utt.cli import emit_window
from utt.errors import BadIndexError, ContextMismatchError, NotInvertibleError
from utt.ops import build_D, build_R, build_S
from utt.padic import make_context
from utt.utmat import UTWindow

# ------------------------------------------------------------ construction


def test_from_fn_frozen_examples(ctx):
    ident = UTWindow.from_fn(ctx, 3, lambda i, j: 1 if i == j else 0)
    assert ident == UTWindow.identity(ctx, 3)

    zero = UTWindow.from_fn(ctx, 3, lambda i, j: 0)
    assert zero == UTWindow.zero(ctx, 3)

    ladder = UTWindow.from_fn(ctx, 2, lambda i, j: j - i + 1)
    assert ladder.entry(0, 0) == 1
    assert ladder.entry(0, 1) == 2
    assert ladder.entry(1, 1) == 1


def test_from_fn_reduces_to_canonical_residues(ctx):
    m = ctx.modulus
    canonical = UTWindow.from_fn(ctx, 4, lambda i, j: 3 * i + j)
    for shift in (-m, m, 5 * m, -7 * m):
        raw = UTWindow.from_fn(ctx, 4, lambda i, j: 3 * i + j + shift)
        assert raw == canonical
    negative = UTWindow.from_fn(ctx, 3, lambda i, j: -1)
    assert negative.entry(0, 2) == m - 1


def test_entry_is_int_residue(ctx):
    w = UTWindow.from_fn(ctx, 3, lambda i, j: i + 2 * j)
    for i in range(3):
        for j in range(3):
            e = w.entry(i, j)
            assert type(e) is int
            assert e == (i + 2 * j if i <= j else 0)


def test_entry_below_diagonal_is_zero(ctx):
    w = random_window(ctx, 5, random.Random(1))
    for i in range(5):
        for j in range(i):
            assert w.entry(i, j) == 0


def test_entry_out_of_window_raises(ctx):
    w = UTWindow.identity(ctx, 3)
    for i, j in ((-1, 0), (0, 3), (3, 3), (0, -1)):
        with pytest.raises(BadIndexError):
            w.entry(i, j)


# -------------------------------------------------------------- arithmetic


def test_ring_laws_random(ctx):
    rng = random.Random(99)
    for _ in range(10):
        a = random_window(ctx, 5, rng)
        b = random_window(ctx, 5, rng)
        c = random_window(ctx, 5, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * UTWindow.identity(ctx, 5) == a
        assert UTWindow.identity(ctx, 5) * a == a
        assert a + a.scale(-1) == UTWindow.zero(ctx, 5)
        assert a.scale(3) == a + a + a


def test_mul_matches_dense_oracle(ctx):
    rng = random.Random(7)
    for _ in range(10):
        a = random_window(ctx, 6, rng)
        b = random_window(ctx, 6, rng)
        assert a * b == dense_product(a, b)


@pytest.mark.parametrize("p,q,N", [(3, 2, 40), (101, 2, 12)])
@pytest.mark.parametrize("W", [1, 2, 24, 48])
def test_mul_of_all_top_residues_matches_dense_oracle(p, q, N, W):
    """Every entry m - 1 fills each slot of the packed product to its bound."""
    ctx = make_context(p, q, N)
    top = UTWindow(ctx, W, [ctx.modulus - 1] * (W * (W + 1) // 2))
    want = dense_product(top, top)
    assert top * top == want
    warm = UTWindow(ctx, W, top.residues())
    warm.packed()  # the memo is built before the product reads it
    assert top * warm == want


def test_packed_right_operand_serves_every_product(ctx):
    """The memo is built by the first product and read by the rest; it changes no window."""
    rng = random.Random(37)
    right = random_window(ctx, 7, rng)
    fresh = UTWindow(ctx, 7, right.residues())
    lefts = [random_window(ctx, 7, rng) for _ in range(3)] + [build_R(ctx, 7), right]
    for left in lefts:
        assert left * right == dense_product(left, fresh)
    assert right == fresh and right.rows() == fresh.rows() and right.packed() == fresh.packed()


def test_packed_lays_the_residues_out_slot_by_slot(ctx):
    w = random_window(ctx, 6, random.Random(41))
    nb = w.slot_bytes()
    assert 2 ** (8 * nb) > w.W * (ctx.modulus - 1) ** 2
    packed = w.packed()
    assert [packed >> 8 * nb * t & (1 << 8 * nb) - 1 for t in range(21)] == list(w.residues())
    assert packed >> 8 * nb * 21 == 0


TOP_CTX = make_context(3, 2, 40)


@st.composite
def structured_windows(draw, W: int) -> UTWindow:
    """A window at TOP_CTX of one of the shapes the product skips work on: diagonal,
    a shift S^j, banded, zero rows, the zero window, or dense; entries often 1 or m - 1."""
    m = TOP_CTX.modulus
    kind = draw(st.sampled_from(["diagonal", "shift", "banded", "zero rows", "zero", "dense"]))
    j, band = draw(st.integers(0, W - 1)), draw(st.integers(0, W - 1))
    zero_rows = draw(st.sets(st.integers(0, W - 1)))
    keep = {
        "diagonal": lambda i, c: c == 0,
        "shift": lambda i, c: c == j,
        "banded": lambda i, c: c <= band,
        "zero rows": lambda i, c: i not in zero_rows,
        "zero": lambda i, c: False,
        "dense": lambda i, c: True,
    }[kind]
    value = st.sampled_from([1, m - 1]) | st.integers(0, m - 1)
    return UTWindow(TOP_CTX, W, [draw(value) if keep(i, c) else 0 for i in range(W) for c in range(W - i)])


@settings(max_examples=60)
@given(st.data())
def test_mul_of_structured_windows_matches_dense_oracle(data):
    """Leading zero slots are skipped and the right factor's packed rows are reused, exactly."""
    W = data.draw(st.sampled_from([1, 2]) | st.integers(1, 9))
    right = data.draw(structured_windows(W))
    fresh = UTWindow(TOP_CTX, W, right.residues())
    lefts = data.draw(st.lists(structured_windows(W), min_size=1, max_size=4)) + [right]
    for left in lefts:
        assert left * right == dense_product(left, fresh)
        assert right * left == dense_product(fresh, left)
    assert right == fresh and right.rows() == fresh.rows()


@given(st.data())
def test_packed_is_the_same_int_whichever_form_is_built_first(data):
    """packed() (read by ops.alpha) and packed_rows() (read by the product) lay out the same slots."""
    W = data.draw(st.integers(1, 9))
    win = data.draw(structured_windows(W))
    whole_first, rows_first = UTWindow(TOP_CTX, W, win.residues()), UTWindow(TOP_CTX, W, win.residues())
    whole = whole_first.packed()
    rows = rows_first.packed_rows()
    assert rows_first.packed() == whole and whole_first.packed_rows() == rows
    width = 8 * win.slot_bytes()
    for row, packed_row in zip(win.rows(), rows):
        assert [packed_row >> width * t & (1 << width) - 1 for t in range(len(row))] == list(row)
        assert packed_row >> width * len(row) == 0


def test_mul_by_zero_and_identity(ctx):
    a = random_window(ctx, 7, random.Random(23))
    zero, ident = UTWindow.zero(ctx, 7), UTWindow.identity(ctx, 7)
    for left, right in ((zero, a), (a, zero), (ident, a), (a, ident), (zero, zero), (ident, ident)):
        assert left * right == dense_product(left, right)
    assert a * zero == zero * a == zero
    assert a * ident == ident * a == a


def test_mul_of_structured_windows(ctx):
    W = 9
    rng = random.Random(29)
    dense = random_window(ctx, W, rng)
    diag, shift, bidiag = build_D(ctx, W) ** 2, build_S(ctx, W) ** 3, build_R(ctx, W)
    for left, right in ((diag, shift), (shift, diag), (bidiag, dense), (dense, bidiag)):
        assert left * right == dense_product(left, right)


def test_mul_with_an_all_zero_row(ctx):
    W, zero_rows = 8, (0, 3, 7)
    rng = random.Random(31)
    residues = [v for i, row in enumerate(random_window(ctx, W, rng).rows())
                for v in ([0] * len(row) if i in zero_rows else row)]
    left, right = UTWindow(ctx, W, residues), random_window(ctx, W, rng)
    product = left * right
    assert product == dense_product(left, right)
    assert not any(any(product.rows()[i]) for i in zero_rows)


def test_pow_matches_repeated_mul(ctx, monkeypatch):
    """k >= 1 costs bit_length(k) + popcount(k) - 2 products: no identity product, no last square."""
    rng = random.Random(3)
    a = random_window(ctx, 5, rng)
    products = 0
    real = UTWindow.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return real(self, other)

    monkeypatch.setattr(UTWindow, "__mul__", counted)
    acc = UTWindow.identity(ctx, 5)
    for k in range(34):
        products = 0
        assert a**k == acc, k
        assert products == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
        acc = real(acc, a)
    with pytest.raises(BadIndexError):
        a**-1


def test_window_exactness(ctx):
    """Products restrict exactly: leading submatrix of product equals
    product of leading submatrices, for every window size."""
    rng = random.Random(11)
    a = random_window(ctx, 10, rng)
    b = random_window(ctx, 10, rng)
    big = a * b
    for W2 in range(1, 11):
        assert sub_window(big, W2) == sub_window(a, W2) * sub_window(b, W2)
    assert sub_window(a**3, 6) == sub_window(a, 6) ** 3


def test_context_and_size_mismatch(ctx):
    other = make_context(5 if ctx.p != 5 else 7, 2 if ctx.p != 5 else 3, 20)
    a = UTWindow.identity(ctx, 3)
    with pytest.raises(ContextMismatchError):
        a + UTWindow.identity(other, 3)
    from utt.errors import SizeMismatchError
    with pytest.raises(SizeMismatchError):
        a + UTWindow.identity(ctx, 4)
    with pytest.raises(ContextMismatchError):
        a * UTWindow.identity(other, 3)
    with pytest.raises(SizeMismatchError):
        a * UTWindow.identity(ctx, 4)
    with pytest.raises(ContextMismatchError):
        a.scale(other.from_int(2))
    with pytest.raises(ContextMismatchError):
        UTWindow.from_fn(ctx, 2, lambda i, j: other.one())


# --------------------------------------------------------------- inversion


def test_inverse_two_sided(ctx):
    rng = random.Random(17)
    for _ in range(10):
        a = random_unit_diag_window(ctx, 6, rng)
        inv = a.inverse()
        ident = UTWindow.identity(ctx, 6)
        assert a * inv == ident
        assert inv * a == ident


def test_inverse_rejects_non_unit_diagonal(ctx):
    a = UTWindow.from_fn(ctx, 3, lambda i, j: ctx.p if i == j == 1 else (1 if i == j else 0))
    with pytest.raises(NotInvertibleError):
        a.inverse()


def test_inverse_of_inverse(ctx):
    rng = random.Random(23)
    a = random_unit_diag_window(ctx, 5, rng)
    assert a.inverse().inverse() == a


# ------------------------------------------------------------ filtration


def test_filtration_level(ctx):
    assert UTWindow.zero(ctx, 4).filtration_level() == 4
    assert UTWindow.identity(ctx, 4).filtration_level() == 0
    w = UTWindow.from_fn(ctx, 4, lambda i, j: 0 if j < 2 else 1)
    assert w.filtration_level() == 2


def test_filtration_is_ideal(ctx):
    """Windows vanishing in the first n columns form a two-sided ideal."""
    rng = random.Random(31)
    n = 3
    a = UTWindow.from_fn(ctx, 6, lambda i, j: 0 if j < n else rng.randrange(ctx.modulus))
    for _ in range(5):
        b = random_window(ctx, 6, rng)
        assert (a * b).filtration_level() >= n
        assert (b * a).filtration_level() >= n
        assert (a + a).filtration_level() >= n


# ------------------------------------------------------------ presentation


def test_json_round_trip(ctx):
    """`utt matrix` JSON lists every row's residues: it rebuilds the window."""
    rng = random.Random(41)
    a = random_window(ctx, 5, rng)
    data = json.loads(emit_window(a, "json"))
    assert data["p"] == ctx.p and data["N"] == ctx.N and data["W"] == 5
    assert UTWindow(ctx, 5, [int(s) for row in data["rows"] for s in row]) == a


def test_json_is_canonical(ctx):
    """Residues are printed reduced, whatever the window was built from."""
    rng = random.Random(43)
    a = random_window(ctx, 4, rng)
    shifted = UTWindow(ctx, 4, [v + ctx.modulus for row in a.rows() for v in row])
    assert emit_window(shifted, "json") == emit_window(a, "json")
    assert all(0 <= int(s) < ctx.modulus for row in json.loads(emit_window(a, "json"))["rows"] for s in row)


def test_pretty_output(ctx):
    s = emit_window(UTWindow.identity(ctx, 3), "pretty")
    lines = s.splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 3 for line in lines)
