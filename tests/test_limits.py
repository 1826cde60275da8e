"""Projective-limit compatibility: reduction in N, and in the window size W.

A coefficient computed at precision N is one finite stage of a p-adic
number.  The same computation at N + EXTRA knows more digits of that
number, so every digit the N-side triple claims must agree with the
N + EXTRA triple.  This judge needs no second implementation; it sees a
result that claims digits it does not know, which a check comparing two
routes at one precision can miss when both routes share the kernel.

A W x W window mod p**N is likewise one finite stage of an infinite
matrix over Z_p, so every window builder must commute with truncation:
its leading W' x W' block mod p**N' is the same builder at (W', N').
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import STANDARD_TRIPLES, sub_window
from utt.basis import (
    BivarPoly,
    c_poly,
    expand_in_c_basis,
    expand_in_g_basis,
    g_poly,
    psi_action,
    required_precision,
)
from utt.conj import AFormMatrix, build_U
from utt.ops import alpha, build_R, build_Xn
from utt.padic import make_context
from utt.utmat import UTWindow

KMAX = 8
EXTRA = 12
U_DEGREES = range(4)  # c_k * u**d for d < 4


def honest(p: int, N: int, coarse, fine, zero_to: int | None = None) -> bool:
    """Whether the triple computed at N claims no digit the triple at N + EXTRA contradicts.

    (val, unit, sig) claims x = p**val * unit mod p**(val + sig), and the
    finer triple must know all of those digits.  None at N claims x = 0
    mod p**N, or only mod p**zero_to when given; None at N + EXTRA is the
    exact zero.
    """
    if coarse is None:
        return fine is None or fine[0] >= (N if zero_to is None else zero_to)
    if fine is None:
        return False
    (vc, uc, sc), (vf, uf, sf) = coarse, fine
    low = min(vc, vf)
    return vc + sc <= vf + sf and (uc * p ** (vc - low) - uf * p ** (vf - low)) % p ** (vc + sc - low) == 0


def _dishonest_coefficients(coarse: BivarPoly, fine: BivarPoly) -> list:
    p, N = coarse.ctx.p, coarse.ctx.N
    x, y = coarse.terms, fine.terms
    return [key for key in sorted(x.keys() | y.keys()) if not honest(p, N, x.get(key), y.get(key))]


def _contexts(p: int, q: int):
    N = required_precision(p, KMAX)
    return make_context(p, q, N), make_context(p, q, N + EXTRA)


def _objects(ctx) -> dict[str, BivarPoly]:
    """c_k * u**d, g_{m,l} and psi(g_{m,l}) for k, m <= KMAX."""
    out = {f"c_{k}*u^{d}": c_poly(ctx, k) * BivarPoly.monomial(ctx, d, 0)
           for k in range(KMAX + 1) for d in U_DEGREES}
    for m in range(KMAX + 1):
        for l in range(m + 1):
            out[f"g_{m},{l}"] = g = g_poly(ctx, m, l)
            out[f"psi(g_{m},{l})"] = psi_action(g)
    return out


@pytest.fixture(scope="module", params=[(p, q) for p, q, _ in STANDARD_TRIPLES], ids=lambda t: f"p{t[0]}")
def pair(request):
    """The basis objects at N = required_precision(p, KMAX) and at N + EXTRA."""
    coarse_ctx, fine_ctx = _contexts(*request.param)
    return coarse_ctx, fine_ctx, _objects(coarse_ctx), _objects(fine_ctx)


def test_products_shifts_and_psi_agree_across_precision(pair):
    """`__mul__` (c_k * u**d), `big_F`/`scale_p` (g_{m,l}) and `psi_action`."""
    _, _, coarse, fine = pair
    bad = {name: _dishonest_coefficients(poly, fine[name]) for name, poly in coarse.items()}
    assert {name: keys for name, keys in bad.items() if keys} == {}


def test_scale_and_scale_p_agree_across_precision(pair):
    coarse_ctx, fine_ctx, coarse, fine = pair
    p, M = coarse_ctx.p, coarse_ctx.modulus
    rng = random.Random(p)
    factors = [coarse_ctx.q_hat_residue, rng.randrange(1, M), p * rng.randrange(1, M)]
    bad = []
    for name, poly in coarse.items():
        for x in factors:
            if _dishonest_coefficients(poly.scale(x), fine[name].scale(x)):
                bad.append((name, "scale", x))
        for m in (-2, 3):
            if _dishonest_coefficients(poly.scale_p(m), fine[name].scale_p(m)):
                bad.append((name, "scale_p", m))
    assert bad == []


def _known_digits(poly: BivarPoly) -> int:
    """The least val + sig of the coefficients: the absolute digits any sum of them knows."""
    return min(t[0] + t[2] for t in poly.coeffs if t is not None)


def test_substitute_agrees_across_precision(pair):
    """At the c-basis reading points (1, q_hat**s) and at points 1 + p*r, as the suites read.

    A value that cancels through its known digits comes back as the exact
    zero (the inexact-zero defect below), so a zero is held only to the
    digits its terms know.
    """
    coarse_ctx, fine_ctx, coarse, fine = pair
    p, M = coarse_ctx.p, coarse_ctx.modulus
    rng = random.Random(p)
    points = [(1, pow(coarse_ctx.q_hat_residue, s, M)) for s in range(KMAX + 4)]
    points += [(1 + p * rng.randrange(M // p), 1 + p * rng.randrange(M // p)) for _ in range(4)]
    bad = [
        (name, u, v)
        for name, poly in coarse.items()
        for u, v in points
        if not honest(p, coarse_ctx.N, poly.substitute(u, v).triple(), fine[name].substitute(u, v).triple(),
                      zero_to=_known_digits(poly))
    ]
    assert bad == []


def test_expand_in_c_basis_agrees_across_precision(pair):
    coarse_ctx, _, coarse, fine = pair
    p, N = coarse_ctx.p, coarse_ctx.N
    bad = []
    for name, poly in coarse.items():
        lambdas = zip(expand_in_c_basis(poly), expand_in_c_basis(fine[name]), strict=True)
        bad += [(name, s) for s, (x, y) in enumerate(lambdas) if not honest(p, N, x.triple(), y.triple())]
    assert bad == []


# A random Z_p-combination of g_{7,s} at (p, q, N) = (3, 2, 13): its mu_0
# is returned as the exact zero, while at N = 25 it is 3**6 * 46 known to
# 12 digits.  The sum that cancels forgets how few digits it knew, the
# scaled_add defect recorded in CHANGES.md (ROADMAP item 3).
MU0_CASE = (3, 2, 13, 7, [33534, 5048, 1033802, 1447315, 1031919, 349314, 1502588, 1472517])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="inexact zero: a cancelled sum claims the exact zero (ROADMAP item 3)")
def test_substitute_zero_is_exact():
    """c_5(1, v) at (7, 3, 13) knows 8 absolute digits and cancels through all of
    them; the value at N = 25 has valuation 12 < 13, yet N = 13 returns the exact zero."""
    coarse_ctx, fine_ctx = _contexts(7, 3)
    v = 88651515667
    coarse, fine = (c_poly(ctx, 5).substitute(1, v).triple() for ctx in (coarse_ctx, fine_ctx))
    assert honest(7, coarse_ctx.N, coarse, fine)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="inexact zero: a cancelled sum claims the exact zero (ROADMAP item 3)")
def test_g_expansion_mu0_agrees_across_precision():
    p, q, N, m, coeffs = MU0_CASE
    mus = []
    for ctx in (make_context(p, q, N), make_context(p, q, N + EXTRA)):
        f = sum((g_poly(ctx, m, s).scale(a) for s, a in enumerate(coeffs)), BivarPoly.zero(ctx))
        mus.append([mu.triple() for mu in expand_in_g_basis(f)])
    assert all(honest(p, N, x, y) for x, y in zip(*mus, strict=True))


# ------------------------------------------------------------------ windows

WIDE = (16, 30)  # (W, N) the builders run at first
NARROW = ((11, 20), (1, 1))  # (W', N') every run truncates to, besides the drawn ones
XN_MAX = 17
DRAWS = 5


def _windows(ctx, W: int, coeff_vectors, c_forms) -> dict[str, UTWindow]:
    """R, X_n and R**n for n <= XN_MAX, alpha of each vector and build_U of each C-form."""
    R = build_R(ctx, W)
    out = {"R": R}
    for n in range(XN_MAX + 1):
        out[f"X_{n}"] = build_Xn(ctx, n, W)
        out[f"R^{n}"] = R**n
    for k, coeffs in enumerate(coeff_vectors):
        out[f"alpha#{k}"] = alpha(ctx, coeffs, W)
    for k, c in enumerate(c_forms):
        out[f"U#{k}"] = build_U(c)
    return out


@functools.cache
def _wide(p: int, q: int):
    """The coefficient vectors and C-forms drawn once at WIDE, and the windows built there."""
    W, N = WIDE
    wide_ctx = make_context(p, q, N)
    rng = random.Random(p)
    coeff_vectors = [[rng.randrange(wide_ctx.modulus) for _ in range(W + 4)] for _ in range(DRAWS)]
    c_forms = [AFormMatrix.random(wide_ctx, W, rng, c_form=True) for _ in range(DRAWS)]
    return coeff_vectors, c_forms, _windows(wide_ctx, W, coeff_vectors, c_forms)


@pytest.mark.parametrize("pq", [(p, q) for p, q, _ in STANDARD_TRIPLES], ids=lambda t: f"p{t[0]}")
@given(st.tuples(st.integers(1, WIDE[0]), st.integers(1, WIDE[1])))
def test_window_builders_commute_with_truncation(pq, size):
    """Built at WIDE and truncated to (W', N'), or built at (W', N'): the same window.

    (W', N') is drawn, W' <= W and N' <= N, and every run also checks each
    NARROW size.  The coefficient vectors and C-forms are drawn once at
    WIDE; the narrow C-form is the truncation, read back through
    the AFormMatrix constructor.
    """
    p, q = pq
    coeff_vectors, c_forms, wide = _wide(p, q)
    bad = []
    for W2, N2 in {size, *NARROW}:
        ctx = make_context(p, q, N2)
        narrow_forms = [AFormMatrix(sub_window(c.to_window(), W2, ctx)) for c in c_forms]
        narrow = _windows(ctx, W2, coeff_vectors, narrow_forms)
        bad += [(W2, N2, name) for name, win in wide.items() if sub_window(win, W2, ctx) != narrow[name]]
    assert bad == []
