"""Recursive conjugation: normalizing a perturbed shift back to R."""

from __future__ import annotations

import random

import pytest
from conftest import dense_product

from utt.conj import (
    AFormMatrix,
    _random_unit,
    build_E,
    build_U,
    conjugator,
    normalize_superdiag,
    verify_conjugation,
)
from utt.errors import ContextMismatchError, DomainError, InvariantError, NotAUnitError
from utt.ops import build_R
from utt.utmat import UTWindow

W = 8


def a_form_window(ctx, superdiag, upper=()):
    """Diagonal q_hat**i, the given superdiagonal, the entries `upper` {(i, j): v} above it, else 0."""
    upper = dict(upper)

    def entry(i, j):
        return ctx.q_hat_pow(i) if j == i else superdiag[i] if j == i + 1 else upper.get((i, j), 0)

    return UTWindow.from_fn(ctx, len(superdiag) + 1, entry)


# ---------------------------------------------------------------- A-form


def test_a_form_window_layout(ctx):
    a = AFormMatrix(a_form_window(ctx, [1, 2, 1], {(0, 2): 5, (0, 3): 7}))
    win = a.to_window()
    for i in range(4):
        assert win.entry(i, i) == ctx.q_hat_pow(i)
    assert win.entry(0, 1) == 1
    assert win.entry(1, 2) == 2
    assert win.entry(0, 2) == 5
    assert win.entry(0, 3) == 7
    assert win.entry(1, 3) == 0


def test_a_form_validation(ctx):
    with pytest.raises(NotAUnitError, match="superdiagonal entry 1"):
        AFormMatrix(a_form_window(ctx, [1, ctx.p, 1]))
    bad_diag = UTWindow.from_fn(ctx, 4, lambda i, j: ctx.q_hat_pow(i) + (i == 2) if j == i else 1)
    with pytest.raises(DomainError, match="diagonal entry \\(2,2\\)"):
        AFormMatrix(bad_diag)


def test_a_form_random_is_valid(ctx):
    rng = random.Random(2)
    for _ in range(10):
        a = AFormMatrix.random(ctx, W, rng)
        win = a.to_window()
        for i in range(W - 1):
            assert win.entry(i, i + 1) % ctx.p != 0


def test_random_draws_the_superdiagonal_then_the_free_entries_by_row(ctx):
    """The units first (none for a C-form), then the free entries (i, j), j >= i + 2, row-major."""

    def free_entries(rng):
        return {(i, j): rng.randrange(ctx.modulus) for i in range(W) for j in range(i + 2, W)}

    want_c = a_form_window(ctx, [1] * (W - 1), free_entries(random.Random(10)))
    assert AFormMatrix.random(ctx, W, random.Random(10), c_form=True).to_window() == want_c
    rng = random.Random(10)
    want_a = a_form_window(ctx, [_random_unit(ctx, rng) for _ in range(W - 1)], free_entries(rng))
    assert AFormMatrix.random(ctx, W, random.Random(10)).to_window() == want_a


# ---------------------------------------------------------------- C-form


def test_c_form_window_layout(ctx):
    c = AFormMatrix(a_form_window(ctx, [1, 1, 1], {(0, 2): 3, (1, 3): 9}))
    win = c.to_window()
    for i in range(4):
        assert win.entry(i, i) == ctx.q_hat_pow(i)
        if i + 1 < 4:
            assert win.entry(i, i + 1) == 1
    assert win.entry(0, 2) == 3
    assert win.entry(1, 3) == 9
    assert win.entry(0, 3) == 0
    assert c.is_c_form()


def test_c_form_from_window_rejects_wrong_shape(ctx):
    bad_diag = UTWindow.identity(ctx, 4)
    with pytest.raises(ValueError):
        AFormMatrix(bad_diag)


def test_a_form_from_window_round_trip(ctx):
    a = AFormMatrix.random(ctx, W, random.Random(8))
    back = AFormMatrix(a.to_window())
    assert back.superdiag == a.superdiag and back.to_window() == a.to_window()
    assert not back.is_c_form()


def test_from_window_wraps_the_checked_window(ctx):
    win = AFormMatrix.random(ctx, W, random.Random(9)).to_window()
    assert AFormMatrix(win).to_window() is win
    bad_sd = UTWindow.from_fn(ctx, 3, lambda i, j: ctx.q_hat_pow(i) if i == j else ctx.p)
    with pytest.raises(NotAUnitError):
        AFormMatrix(bad_sd)


def test_foreign_context_rejected_at_construction(ctx3, ctx5):
    """3 is a unit mod 5 but not mod 3: the context must be checked first."""
    with pytest.raises(ContextMismatchError):
        a_form_window(ctx3, [ctx5.from_int(3), 1])
    with pytest.raises(ContextMismatchError):
        a_form_window(ctx3, [1, 1], {(0, 2): ctx5.from_int(1)})
    with pytest.raises(ContextMismatchError):
        build_E(ctx3, [ctx5.from_int(3)])
    own = AFormMatrix(a_form_window(ctx3, [ctx3.from_int(2), 1], {(0, 2): ctx3.from_int(4)}))
    assert own.superdiag == (2, 1)
    assert own.to_window().entry(0, 2) == 4


def test_build_u_rejects_non_c_form(ctx):
    a = AFormMatrix(a_form_window(ctx, [1, 2, 1]))
    with pytest.raises(ValueError, match="C-form"):
        build_U(a)


@pytest.mark.parametrize("k", [0, 3, W - 2])
def test_build_u_rejects_a_disturbed_diagonal_at_the_row_below_it(ctx, k):
    """C[k][k] = q_hat**k + p**(N-1) leaves U[k+1][k] = U[k][k] * p**(N-1), which is not zero.

    The constructor would reject such a C, so it is assembled by hand.
    """
    good = AFormMatrix.random(ctx, W, random.Random(12), c_form=True).to_window()
    bump = ctx.p ** (ctx.N - 1)
    flat = [v + bump * ((i, j) == (k, k)) for i, row in enumerate(good.rows()) for j, v in enumerate(row, i)]
    c = object.__new__(AFormMatrix)
    c.ctx, c.W, c._win = ctx, W, UTWindow(ctx, W, flat)
    with pytest.raises(InvariantError, match=rf"^U row {k + 1} is nonzero below the diagonal$"):
        build_U(c)


# ------------------------------------------------------- superdiagonal fix


def test_normalize_superdiag(ctx):
    rng = random.Random(3)
    for _ in range(10):
        a = AFormMatrix.random(ctx, W, rng)
        c = normalize_superdiag(a)
        assert isinstance(c, AFormMatrix) and c.is_c_form()
        win = c.to_window()
        for i in range(W):
            assert win.entry(i, i) == ctx.q_hat_pow(i)
            if i + 1 < W:
                assert win.entry(i, i + 1) == 1


def test_build_e_diagonal_conjugation(ctx):
    """E A E**-1 rescales the superdiagonal to 1 and fixes the diagonal."""
    rng = random.Random(4)
    a = AFormMatrix.random(ctx, W, rng)
    e = build_E(ctx, a.superdiag)
    assert e.W == W
    conj = e * a.to_window() * e.inverse()
    c_win = normalize_superdiag(a).to_window()
    assert conj == c_win
    with pytest.raises(NotAUnitError):
        build_E(ctx, [ctx.p] * (W - 1))
    assert build_E(ctx, []) == UTWindow.identity(ctx, 1)


# ------------------------------------------------------------- conjugation


def test_u_first_row_is_unit_vector(ctx):
    rng = random.Random(5)
    c = AFormMatrix.random(ctx, W, rng, c_form=True)
    u = build_U(c)
    assert u.entry(0, 0) == 1
    for j in range(1, W):
        assert u.entry(0, j) == 0


def test_u_has_group_diagonal(ctx):
    """The diagonal of U lies in 1 + pZ_p, so U is in the unit group."""
    rng = random.Random(6)
    c = AFormMatrix.random(ctx, W, rng, c_form=True)
    u = build_U(c)
    for i in range(W):
        assert u.entry(i, i) % ctx.p == 1


def test_uc_equals_ru(ctx):
    """50 seeded random C per prime: the defining intertwiner property."""
    rng = random.Random(1000 + ctx.p)
    r = build_R(ctx, W)
    for _ in range(50):
        c = AFormMatrix.random(ctx, W, rng, c_form=True)
        u = build_U(c)
        assert u * c.to_window() == r * u
        assert verify_conjugation(c) == (u, u * c.to_window(), r * u)


def test_end_to_end_conjugation(ctx):
    """B A B**-1 = R for the composite conjugator on random A-forms."""
    rng = random.Random(2000 + ctx.p)
    r = build_R(ctx, W)
    for _ in range(20):
        a = AFormMatrix.random(ctx, W, rng)
        b = conjugator(a)
        assert b * a.to_window() * b.inverse() == r
        # b = U * E: invertible, but E's diagonal need not be in 1 + pZ_p
        assert all(row[0] % ctx.p for row in b.rows())


@pytest.mark.parametrize("w", [1, 2, 5, 9])
def test_build_u_against_dense_oracle(ctx, w):
    """U*C = R*U with both sides from the dense schoolbook product."""
    rng = random.Random(3000 + w)
    r = build_R(ctx, w)
    for _ in range(5):
        c = AFormMatrix.random(ctx, w, rng, c_form=True)
        u = build_U(c)
        assert dense_product(u, c.to_window()) == dense_product(r, u)
        assert all(row[0] % ctx.p == 1 for row in u.rows())


@pytest.mark.parametrize("w", [1, 2])
def test_conjugator_against_dense_oracle(ctx, w):
    rng = random.Random(4000 + w)
    r = build_R(ctx, w)
    for _ in range(5):
        a = AFormMatrix.random(ctx, w, rng)
        b = conjugator(a)
        assert dense_product(dense_product(b, a.to_window()), b.inverse()) == r


@pytest.mark.parametrize("size", [1, 2, 5, 24])
def test_trusted_windows_hold_canonical_residues(ctx, size):
    """build_U, inverse, random, + and scale build windows unchecked: W(W+1)/2 residues in [0, p**N)."""
    rng = random.Random(50 + size)
    c = AFormMatrix.random(ctx, size, rng, c_form=True)
    u = build_U(c)
    windows = [c.to_window(), AFormMatrix.random(ctx, size, rng).to_window(), u, u.inverse(),
               u + c.to_window(), u.scale(-1)]
    for win in windows:
        assert len(win.residues()) == size * (size + 1) // 2
        assert all(type(v) is int and 0 <= v < ctx.modulus for v in win.residues())


def test_own_dot_products_use_no_window_product(ctx, monkeypatch):
    """inverse, build_U and the dense oracle never read the packed form nor call __mul__."""
    c = AFormMatrix.random(ctx, 6, random.Random(61), c_form=True)
    u, want_inverse = build_U(c), build_U(c).inverse()

    def forbidden(*args):
        raise AssertionError("the product kernel was reached")

    for name in ("packed", "packed_rows", "__mul__"):
        monkeypatch.setattr(UTWindow, name, forbidden)
    assert build_U(c) == u and u.inverse() == want_inverse
    assert dense_product(u, want_inverse) == UTWindow.identity(ctx, 6)


def test_report_json_shape(ctx):
    """verify_conjugation hands the suite U and both sides of U*C = R*U."""
    c = AFormMatrix.random(ctx, 5, random.Random(7), c_form=True)
    u, lhs, rhs = verify_conjugation(c)
    assert u == build_U(c)
    assert lhs == u * c.to_window() and rhs == build_R(ctx, 5) * u
    assert lhs == rhs
