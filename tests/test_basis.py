"""Bivariate basis polynomials: construction, expansion, integrality, action."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_bivar_product, ref_scaled_add, ref_scaled_mul
from utt.basis import (
    C_POLY_CACHE_SIZE,
    BivarPoly,
    beta,
    big_F,
    c_poly,
    check_integrality,
    expand_in_c_basis,
    expand_in_g_basis,
    f_poly,
    g_poly,
    psi_action,
    required_precision,
    sample_integrality,
)
from utt.errors import BadIndexError, ContextMismatchError, PrecisionExhaustedError
from utt.padic import PadicScaled, make_context, nu_factorial, nu_int
from utt.qcalc import qbinom_eval

KMAX = 8


# --------------------------------------------------------------- BivarPoly


def test_bivar_construction_and_weight(ctx):
    u = BivarPoly.u_hat(ctx)
    v = BivarPoly.v_hat(ctx)
    assert u.weight() == 1 and v.weight() == 1
    assert (u * v).weight() == 2
    assert (u + v).weight() == 1
    assert (u * u + v).weight() is None  # mixed degrees
    assert BivarPoly.zero(ctx).weight() is None
    assert BivarPoly.one(ctx).weight() == 0


def test_bivar_rejects_negative_exponents(ctx):
    with pytest.raises(BadIndexError):
        BivarPoly.monomial(ctx, -1, 0)
    with pytest.raises(BadIndexError):
        BivarPoly.monomial(ctx, 0, -2)


def test_bivar_drops_zero_terms(ctx):
    z = BivarPoly(ctx, {(1, 1): PadicScaled.zero(ctx)})
    assert z.is_zero()
    assert (BivarPoly.u_hat(ctx) - BivarPoly.u_hat(ctx)).is_zero()


def test_bivar_ring_laws(ctx):
    rng = random.Random(12)

    def rand_poly():
        return BivarPoly(
            ctx,
            {
                (rng.randrange(3), rng.randrange(3)): PadicScaled.from_int(
                    ctx, rng.randrange(1, 50)
                )
                for _ in range(3)
            },
        )

    for _ in range(10):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * BivarPoly.one(ctx) == a


LOW_CTX = make_context(3, 2, 6)  # few digits, so products realign and cancel


@st.composite
def low_precision_terms(draw):
    """{(a, b): PadicScaled} in LOW_CTX with colliding exponents."""
    p, N = LOW_CTX.p, LOW_CTX.N
    out = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        sig = draw(st.integers(1, N))
        unit = draw(st.integers(1, p**sig - 1).filter(lambda u: u % p))
        out[key] = PadicScaled(LOW_CTX, draw(st.integers(-3, 3)), unit, sig)
    return out


@settings(max_examples=200)
@given(low_precision_terms(), low_precision_terms())
def test_bivar_product_matches_reference(x, y):
    """Same coefficients to the digit, in the same dict order, as the oracle."""
    got = BivarPoly(LOW_CTX, x) * BivarPoly(LOW_CTX, y)
    want = ref_bivar_product(x, y)
    assert list(got.terms.items()) == [(key, (c.val, c.unit, c.sig)) for key, c in want.items()]


@settings(max_examples=200)
@given(low_precision_terms(), st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_bivar_substitute_matches_reference(terms, u, v):
    """Evaluation sums the terms in sorted exponent order; digit loss depends on it."""
    want = PadicScaled.zero(LOW_CTX)
    for (a, b), c in sorted(terms.items()):
        value = LOW_CTX.from_int(u**a * v**b).to_scaled()
        want = ref_scaled_add(want, ref_scaled_mul(c, value))
    got = BivarPoly(LOW_CTX, terms).substitute(u, LOW_CTX.from_int(v))
    assert (got.val, got.unit, got.sig) == (want.val, want.unit, want.sig)


def test_bivar_substitute_sums_in_sorted_order():
    """A partial sum that cancels to zero forgets its precision, so the order shows.

    In sorted order 1 + (-1), both known to 2 digits, cancels first and the
    full-precision u**2 term is added to zero.  Any order that adds the
    u**2 term before the cancellation keeps only 2 digits.
    """
    p = LOW_CTX.p
    poly = BivarPoly(LOW_CTX, {
        (2, 0): PadicScaled(LOW_CTX, 0, 1, 6),
        (1, 0): PadicScaled(LOW_CTX, 0, p**2 - 1, 2),
        (0, 0): PadicScaled(LOW_CTX, 0, 1, 2),
    })
    got = poly.substitute(1, 1)
    assert (got.val, got.unit, got.sig) == (0, 1, 6)


def test_bivar_coefficients_cross_the_api_as_scaled(ctx):
    poly = BivarPoly(ctx, {(1, 0): PadicScaled(ctx, -2, 2, 7), (0, 1): 3, (2, 0): ctx.from_int(0)})
    assert list(poly.terms) == [(1, 0), (0, 1)]
    c = poly.coefficient(1, 0)
    assert isinstance(c, PadicScaled) and (c.val, c.unit, c.sig) == (-2, 2, 7)
    assert poly.coefficient(5, 5).is_zero()
    assert BivarPoly.parse(poly.to_json(), ctx) == poly
    assert repr(poly) == f"BivarPoly(u^0v^1:{PadicScaled.from_int(ctx, 3)!r}, u^1v^0:{c!r})"


def test_bivar_rejects_foreign_coefficients(ctx3, ctx5):
    with pytest.raises(ContextMismatchError):
        BivarPoly(ctx3, {(0, 0): PadicScaled.from_int(ctx5, 2)})
    with pytest.raises(ContextMismatchError):
        BivarPoly.one(ctx3).substitute(ctx5.one(), ctx3.one())


def test_bivar_substitute_is_evaluation(ctx):
    # 2*u**2 + 3*u*v at (u, v) = (5, 7): 2*25 + 3*35 = 155
    poly = BivarPoly.monomial(ctx, 2, 0, 2) + BivarPoly.monomial(ctx, 1, 1, 3)
    got = poly.substitute(ctx.from_int(5), ctx.from_int(7))
    assert got == PadicScaled.from_int(ctx, 155)


def test_bivar_substitute_respects_products(ctx):
    rng = random.Random(13)
    a = BivarPoly.monomial(ctx, 1, 0, 4) + BivarPoly.monomial(ctx, 0, 1, 1)
    b = BivarPoly.monomial(ctx, 0, 2, 2) + BivarPoly.one(ctx)
    for _ in range(5):
        u = ctx.from_int(rng.randrange(1, ctx.modulus))
        v = ctx.from_int(rng.randrange(1, ctx.modulus))
        assert (a * b).substitute(u, v) == a.substitute(u, v) * b.substitute(u, v)
        assert (a + b).substitute(u, v) == a.substitute(u, v) + b.substitute(u, v)


def test_bivar_graded_parts_sum_back(ctx):
    poly = (
        BivarPoly.monomial(ctx, 2, 0, 2)
        + BivarPoly.monomial(ctx, 0, 1, 3)
        + BivarPoly.one(ctx)
    )
    parts = poly.graded_parts()
    assert sorted(parts) == [0, 1, 2]
    total = BivarPoly.zero(ctx)
    for part in parts.values():
        total = total + part
    assert total == poly


def test_bivar_scale_p_shifts_valuation(ctx):
    u = BivarPoly.u_hat(ctx)
    shifted = u.scale_p(-3)
    assert shifted.coefficient(1, 0).val == -3
    assert shifted.scale_p(3) == u


def test_bivar_json_round_trip(ctx):
    poly = c_poly(ctx, 3)
    data = poly.to_json()
    assert data["weight"] == 3
    assert BivarPoly.parse(data, ctx) == poly
    assert BivarPoly.parse(BivarPoly.zero(ctx).to_json(), ctx).is_zero()


def test_bivar_unhashable(ctx):
    with pytest.raises(TypeError):
        hash(BivarPoly.one(ctx))


# ------------------------------------------------------------------ c_poly


def test_c0_is_one(ctx):
    assert c_poly(ctx, 0) == BivarPoly.one(ctx)


def test_c1_frozen_at_p3():
    ctx = make_context(3, 2, 20)
    c1 = c_poly(ctx, 1)
    # (v - u) / (q_hat - 1) with q_hat - 1 = 3
    cv = c1.coefficient(0, 1)
    cu = c1.coefficient(1, 0)
    assert (cv.val, cv.unit, cv.sig) == (-1, 1, 20)
    assert (cu.val, cu.unit, cu.sig) == (-1, 3**20 - 1, 20)


def test_c_poly_guards():
    ctx = make_context(3, 2, 20)
    with pytest.raises(BadIndexError):
        c_poly(ctx, -1)
    small = make_context(3, 2, 5)
    with pytest.raises(PrecisionExhaustedError):
        c_poly(small, 8)


def test_c_poly_cache_is_bounded():
    """The cache is keyed on the context; a sweep over contexts stays within maxsize."""
    info = c_poly.cache_info()
    assert info.maxsize == C_POLY_CACHE_SIZE > 2 * 41  # kmax = 40 at two contexts fits
    c_poly.cache_clear()
    for N in range(4, 304):
        c_poly(make_context(3, 2, N), 0)
    assert c_poly.cache_info().currsize <= C_POLY_CACHE_SIZE
    c_poly.cache_clear()


def test_c_poly_weight_and_span(ctx):
    for k in range(KMAX + 1):
        ck = c_poly(ctx, k)
        assert ck.weight() == k
        # every monomial u**a v**b with a + b = k appears
        assert sorted(a for a, b in ck.terms) == list(range(k + 1))


def test_c_poly_evaluations_are_gaussian_binomials(ctx):
    """c_k(1, q_hat**s) = [s, k] at q_hat: triangular evaluation pattern."""
    one = ctx.one()
    for k in range(KMAX + 1):
        ck = c_poly(ctx, k)
        for s in range(KMAX + 3):
            got = ck.substitute(one, ctx.q_hat_pow(s))
            want = qbinom_eval(s, k, ctx.q_hat()).to_scaled()
            assert got == want, (k, s)


def test_c_poly_vanishing_and_normalization(ctx):
    """c_k kills (1, q_hat**s) for s < k and takes value 1 at s = k."""
    one = ctx.one()
    for k in range(KMAX + 1):
        ck = c_poly(ctx, k)
        for s in range(k):
            assert ck.substitute(one, ctx.q_hat_pow(s)).is_zero(), (k, s)
        at_k = ck.substitute(one, ctx.q_hat_pow(k))
        assert (at_k.val, at_k.unit) == (0, 1), k


def test_denominator_valuation_identity(ctx):
    """nu_p of prod_{i<k} (q_hat**k - q_hat**i) equals nu_p(k!) + k."""
    p = ctx.p
    q_hat = ctx.q ** (p - 1)
    for k in range(1, 13):
        den = 1
        for i in range(k):
            den *= q_hat**k - q_hat**i
        assert nu_int(p, den) == nu_factorial(p, k) + k, k


def test_c_poly_extreme_coefficient_valuations(ctx):
    """The v**k coefficient is exactly 1/prod(q_hat**k - q_hat**i)."""
    p = ctx.p
    for k in range(1, KMAX + 1):
        lead = c_poly(ctx, k).coefficient(0, k)
        assert lead.val == -(nu_factorial(p, k) + k), k


# ------------------------------------------------------------- f_k and F


def test_f_poly_is_scaled_c(ctx):
    for k in range(KMAX + 1):
        assert f_poly(ctx, k) == c_poly(ctx, k).scale_p(nu_factorial(ctx.p, k))


def test_f_poly_coefficient_valuations(ctx):
    """Every coefficient of f_k has valuation >= -k (sharp at v**k)."""
    for k in range(KMAX + 1):
        fk = f_poly(ctx, k)
        for a, b in fk.terms:
            assert fk.coefficient(a, b).val >= -k, (k, a, b)
        assert fk.coefficient(0, k).val == -k


def test_big_f_raw_is_plain_product(ctx):
    want = (
        f_poly(ctx, 1)
        * BivarPoly.monomial(ctx, 5, 0)
    ).scale_p(-3)
    assert big_F(ctx, 2, 3, 1, raw=True) == want


def test_big_f_shift_equals_product_route_exactly(ctx):
    """The one-pass shift gives the product route's terms, digit for digit and in order."""
    for k in range(KMAX + 1):
        nu = nu_factorial(ctx.p, k)
        for i in range(3):
            for j in range(nu + 2):
                want = (f_poly(ctx, k) * BivarPoly.monomial(ctx, i + j, 0)).scale_p(-j)
                got = big_F(ctx, i, j, k, raw=True)
                assert list(got.terms.items()) == list(want.terms.items()), (i, j, k)


def test_big_f_basis_constraints():
    ctx = make_context(3, 2, 20)
    # nu(3!) = 1: j can be 0 or 1; i > 0 demands j = 1
    big_F(ctx, 0, 0, 3)
    big_F(ctx, 0, 1, 3)
    big_F(ctx, 4, 1, 3)
    with pytest.raises(BadIndexError):
        big_F(ctx, 0, 2, 3)
    with pytest.raises(BadIndexError):
        big_F(ctx, 1, 0, 3)
    with pytest.raises(BadIndexError):
        big_F(ctx, -1, 0, 3)


def test_g_poly_identity(ctx):
    """g_{m,l} = u**(m-l) c_l p**max(0, nu(l!)-(m-l)) on a grid."""
    p = ctx.p
    for m in range(KMAX + 1):
        for l in range(m + 1):
            shift = max(0, nu_factorial(p, l) - (m - l))
            want = (c_poly(ctx, l) * BivarPoly.monomial(ctx, m - l, 0)).scale_p(shift)
            assert g_poly(ctx, m, l) == want, (m, l)


def test_g_poly_rejects_bad_indices(ctx):
    with pytest.raises(BadIndexError):
        g_poly(ctx, 3, 4)
    with pytest.raises(BadIndexError):
        g_poly(ctx, 3, -1)


def test_beta_frozen_and_cases():
    assert beta(3, 4, 3) == 1
    assert beta(3, 9, 1) == 4
    for m in range(10):
        for i in range(10):
            edge = nu_factorial(3, i) + i
            want = nu_factorial(3, m) if m > edge else nu_factorial(3, m) + m - edge
            assert beta(3, m, i) == want
    with pytest.raises(BadIndexError):
        beta(3, -1, 0)


# ------------------------------------------------------------- psi action


def test_psi_on_generators(ctx):
    u = BivarPoly.u_hat(ctx)
    v = BivarPoly.v_hat(ctx)
    assert psi_action(u) == u
    assert psi_action(v) == v.scale(ctx.q_hat())
    assert psi_action(BivarPoly.one(ctx)) == BivarPoly.one(ctx)


def test_psi_is_a_ring_map(ctx):
    rng = random.Random(21)

    def rand_poly():
        return BivarPoly(
            ctx,
            {
                (rng.randrange(3), rng.randrange(3)): PadicScaled.from_int(
                    ctx, rng.randrange(1, 99)
                )
                for _ in range(3)
            },
        )

    for _ in range(10):
        a, b = rand_poly(), rand_poly()
        assert psi_action(a * b) == psi_action(a) * psi_action(b)
        assert psi_action(a + b) == psi_action(a) + psi_action(b)


def test_psi_on_c_basis(ctx):
    """psi(c_m) = q_hat**m c_m + u c_{m-1} for m >= 1."""
    u = BivarPoly.u_hat(ctx)
    for m in range(1, KMAX + 1):
        lhs = psi_action(c_poly(ctx, m))
        rhs = c_poly(ctx, m).scale(ctx.q_hat_pow(m)) + u * c_poly(ctx, m - 1)
        assert lhs == rhs, m


def test_psi_on_f_basis(ctx):
    """psi(f_m) = q_hat**m f_m + p**nu_p(m) u f_{m-1} for m >= 1."""
    u = BivarPoly.u_hat(ctx)
    for m in range(1, KMAX + 1):
        lhs = psi_action(f_poly(ctx, m))
        shift = nu_int(ctx.p, m)
        rhs = f_poly(ctx, m).scale(ctx.q_hat_pow(m)) + (u * f_poly(ctx, m - 1)).scale_p(shift)
        assert lhs == rhs, m


# -------------------------------------------------------------- expansions


def test_expand_c_basis_on_basis_elements(ctx):
    for n in range(KMAX + 1):
        for k in range(n + 1):
            poly = c_poly(ctx, k) * BivarPoly.monomial(ctx, n - k, 0)
            lambdas = expand_in_c_basis(poly)
            for s, lam in enumerate(lambdas):
                if s == k:
                    assert (lam.val, lam.unit) == (0, 1), (n, k)
                else:
                    assert lam.is_zero(), (n, k, s)


def test_expand_c_basis_recovers_random_combinations(ctx):
    rng = random.Random(31)
    n = 6
    for _ in range(5):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(n + 1)]
        poly = BivarPoly.zero(ctx)
        for s, a in enumerate(coeffs):
            if a % ctx.modulus:
                piece = c_poly(ctx, s) * BivarPoly.monomial(ctx, n - s, 0)
                poly = poly + piece.scale(a)
        lambdas = expand_in_c_basis(poly)
        for s, (lam, a) in enumerate(zip(lambdas, coeffs)):
            assert lam == ctx.from_int(a).to_scaled(), s


def test_expand_g_basis_recovers_random_combinations(ctx):
    rng = random.Random(33)
    n = KMAX
    for _ in range(5):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(n + 1)]
        poly = BivarPoly.zero(ctx)
        for s, a in enumerate(coeffs):
            if a % ctx.modulus:
                poly = poly + g_poly(ctx, n, s).scale(a)
        mus = expand_in_g_basis(poly)
        rebuilt = BivarPoly.zero(ctx)
        for s, mu in enumerate(mus):
            if not mu.is_zero():
                rebuilt = rebuilt + g_poly(ctx, n, s).scale(mu)
        assert rebuilt == poly
        for s, (mu, a) in enumerate(zip(mus, coeffs)):
            assert mu == ctx.from_int(a).to_scaled(), s


def test_expand_rejects_non_homogeneous(ctx):
    with pytest.raises(ValueError):
        expand_in_c_basis(BivarPoly.zero(ctx))
    mixed = BivarPoly.one(ctx) + BivarPoly.u_hat(ctx)
    with pytest.raises(ValueError):
        expand_in_c_basis(mixed)


# ------------------------------------------------------------- integrality


def test_integrality_of_f_basis(ctx):
    for k in range(KMAX + 1):
        res = check_integrality(f_poly(ctx, k))
        assert res.cond1 and res.cond2, k


def test_integrality_fails_when_overdivided():
    """One extra division by p breaks condition 1."""
    ctx = make_context(3, 2, 20)
    for k in range(KMAX + 1):
        nu = nu_factorial(3, k)
        over = big_F(ctx, 0, nu + 1, k, raw=True)
        res = check_integrality(over)
        assert not res.cond1, k


def test_integrality_result_json(ctx):
    data = check_integrality(f_poly(ctx, 2)).to_json()
    assert data == {"cond1": True, "cond2": True}


def test_sample_integrality_positive_and_negative():
    ctx = make_context(3, 2, 20)
    rng = random.Random(41)
    assert sample_integrality(f_poly(ctx, 4), 5, rng)
    over = big_F(ctx, 0, nu_factorial(3, 4) + 1, 4, raw=True)
    assert not sample_integrality(over, 20, rng)


def test_required_precision_formula():
    assert required_precision(3, 8) == nu_factorial(3, 8) + 8 + 4
    assert required_precision(3, 8) == 14
    assert required_precision(7, 8) == 1 + 8 + 4


# ---------------------------------------------- action identities (spot)


def test_action_on_g_diagonal_small_p3():
    """psi(g_{m,m}) - q_hat**m g_{m,m} hits the stated multiple of g_{m,m-1}."""
    ctx = make_context(3, 2, 20)
    p = 3
    u = BivarPoly.u_hat(ctx)
    for m in range(1, KMAX + 1):
        g = g_poly(ctx, m, m)
        moved = psi_action(g) - g.scale(ctx.q_hat_pow(m))
        lower = g_poly(ctx, m, m - 1)
        if m > p:
            want = lower.scale_p(nu_int(p, m) + 1)
        elif m == p:
            want = lower.scale_p(1)
        else:
            want = lower
        assert moved == want, m


def test_action_identity_off_diagonal_window():
    """First index just past the layer boundary scales by a p power."""
    ctx = make_context(3, 2, 20)
    for m, n in ((4, 3), (7, 6)):  # boundary and interior of the window case
        assert nu_factorial(3, n - 1) + n - 1 < m <= nu_factorial(3, n) + n
        g = g_poly(ctx, m, n)
        moved = psi_action(g) - g.scale(ctx.q_hat_pow(n))
        want = g_poly(ctx, m, n - 1).scale_p(nu_factorial(3, n) + n - m)
        assert moved == want, (m, n)
