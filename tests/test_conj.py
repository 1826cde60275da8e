"""Recursive conjugation: normalizing a perturbed shift back to R."""

from __future__ import annotations

import random

import pytest
from conftest import dense_product

from utt.conj import (
    AFormMatrix,
    build_E,
    build_U,
    conjugator,
    normalize_superdiag,
    verify_conjugation,
)
from utt.errors import BadIndexError, ContextMismatchError, NotAUnitError
from utt.ops import build_R
from utt.utmat import UTWindow

W = 8


# ---------------------------------------------------------------- A-form


def test_a_form_window_layout(ctx):
    a = AFormMatrix(ctx, 4, [1, 2, 1], {(0, 2): 5, (0, 3): 7})
    win = a.to_window()
    for i in range(4):
        assert win.entry(i, i) == ctx.q_hat_pow(i)
    assert win.entry(0, 1).residue == 1
    assert win.entry(1, 2).residue == 2
    assert win.entry(0, 2).residue == 5
    assert win.entry(0, 3).residue == 7
    assert win.entry(1, 3).residue == 0


def test_a_form_validation(ctx):
    with pytest.raises(NotAUnitError):
        AFormMatrix(ctx, 4, [1, ctx.p, 1], {})
    with pytest.raises(BadIndexError):
        AFormMatrix(ctx, 4, [1, 1, 1], {(0, 1): 3})  # superdiagonal slot
    with pytest.raises(BadIndexError):
        AFormMatrix(ctx, 4, [1, 1, 1], {(2, 1): 3})  # below diagonal


def test_a_form_random_is_valid(ctx):
    rng = random.Random(2)
    for _ in range(10):
        a = AFormMatrix.random(ctx, W, rng)
        win = a.to_window()
        for i in range(W - 1):
            assert win.entry(i, i + 1).residue % ctx.p != 0


# ---------------------------------------------------------------- C-form


def test_c_form_window_layout(ctx):
    c = AFormMatrix(ctx, 4, [1, 1, 1], {(0, 2): 3, (1, 3): 9})
    win = c.to_window()
    for i in range(4):
        assert win.entry(i, i) == ctx.q_hat_pow(i)
        if i + 1 < 4:
            assert win.entry(i, i + 1).residue == 1
    assert win.entry(0, 2).residue == 3
    assert win.entry(1, 3).residue == 9
    assert win.entry(0, 3).residue == 0
    assert AFormMatrix.from_window(win).to_window().entry(0, 2).residue == 3


def test_c_form_from_window_rejects_wrong_shape(ctx):
    bad_diag = UTWindow.identity(ctx, 4)
    with pytest.raises(ValueError):
        AFormMatrix.from_window(bad_diag)


def test_a_form_from_window_round_trip(ctx):
    a = AFormMatrix.random(ctx, W, random.Random(8))
    back = AFormMatrix.from_window(a.to_window())
    assert back.superdiag == a.superdiag and back.to_window() == a.to_window()
    assert not back.is_c_form()


def test_from_window_wraps_the_checked_window(ctx):
    win = AFormMatrix.random(ctx, W, random.Random(9)).to_window()
    assert AFormMatrix.from_window(win).to_window() is win
    bad_sd = UTWindow.from_fn(ctx, 3, lambda i, j: ctx.q_hat_pow(i) if i == j else ctx.p)
    with pytest.raises(NotAUnitError):
        AFormMatrix.from_window(bad_sd)


def test_foreign_context_rejected_at_construction(ctx3, ctx5):
    """3 is a unit mod 5 but not mod 3: the context must be checked first."""
    with pytest.raises(ContextMismatchError):
        AFormMatrix(ctx3, 3, [ctx5.from_int(3), 1], {})
    with pytest.raises(ContextMismatchError):
        AFormMatrix(ctx3, 3, [1, 1], {(0, 2): ctx5.from_int(1)})
    with pytest.raises(ContextMismatchError):
        build_E(ctx3, [ctx5.from_int(3)], 2)
    own = AFormMatrix(ctx3, 3, [ctx3.from_int(2), 1], {(0, 2): ctx3.from_int(4)})
    assert own.superdiag == (2, 1)
    assert own.to_window().entry(0, 2).residue == 4


def test_build_u_rejects_non_c_form(ctx):
    a = AFormMatrix(ctx, 4, [1, 2, 1], {})
    with pytest.raises(ValueError, match="C-form"):
        build_U(a)


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
                assert win.entry(i, i + 1).residue == 1


def test_build_e_diagonal_conjugation(ctx):
    """E A E**-1 rescales the superdiagonal to 1 and fixes the diagonal."""
    rng = random.Random(4)
    a = AFormMatrix.random(ctx, W, rng)
    e = build_E(ctx, a.superdiag, W)
    conj = e * a.to_window() * e.inverse()
    c_win = normalize_superdiag(a).to_window()
    assert conj == c_win
    with pytest.raises(NotAUnitError):
        build_E(ctx, [ctx.p] * (W - 1), W)


# ------------------------------------------------------------- conjugation


def test_u_first_row_is_unit_vector(ctx):
    rng = random.Random(5)
    c = AFormMatrix.random(ctx, W, rng, c_form=True)
    u = build_U(c)
    assert u.entry(0, 0).residue == 1
    for j in range(1, W):
        assert u.entry(0, j).residue == 0


def test_u_has_group_diagonal(ctx):
    """The diagonal of U lies in 1 + pZ_p, so U is in the unit group."""
    rng = random.Random(6)
    c = AFormMatrix.random(ctx, W, rng, c_form=True)
    u = build_U(c)
    for i in range(W):
        assert u.entry(i, i).residue % ctx.p == 1


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


def test_report_json_shape(ctx):
    """verify_conjugation hands the suite U and both sides of U*C = R*U."""
    c = AFormMatrix.random(ctx, 5, random.Random(7), c_form=True)
    u, lhs, rhs = verify_conjugation(c)
    assert u == build_U(c)
    assert lhs == u * c.to_window() and rhs == build_R(ctx, 5) * u
    assert lhs == rhs
