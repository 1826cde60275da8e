"""Arithmetic substrate: contexts, fixed-precision integers, scaled values."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiplicative_order, ref_scaled_add, ref_scaled_eq, ref_scaled_mul
from utt import padic
from utt.basis import BivarPoly
from utt.cli import emit_bivar
from utt.errors import (
    BadPrecisionError,
    ContextMismatchError,
    DomainError,
    NotAUnitError,
    NotPrimeError,
    NotPrimitiveError,
    PrecisionExhaustedError,
    UttError,
)
from utt.padic import (
    PadicInt,
    PadicScaled,
    make_context,
    nu_factorial,
    nu_int,
    order_mod_p_squared,
    scaled_add,
    scaled_eq,
    scaled_from_residue,
    scaled_mul,
    scaled_neg,
    scaled_shift,
)

# ---------------------------------------------------------------- contexts


def test_context_standard_triples():
    ctx = make_context(3, 2, 20)
    assert ctx.modulus == 3**20
    assert ctx.q_hat_residue == 4
    assert ctx.rho == 4

    ctx5 = make_context(5, 2, 20)
    assert ctx5.q_hat_residue == 16
    assert ctx5.rho == 8

    ctx7 = make_context(7, 3, 20)
    assert ctx7.q_hat_residue == 729
    assert ctx7.rho == 12


def test_context_rejects_bad_parameters():
    with pytest.raises(NotPrimitiveError):
        make_context(5, 7, 10)  # ord(7) mod 25 divides 4, not 20
    with pytest.raises(NotPrimeError):
        make_context(4, 3, 10)
    with pytest.raises(NotPrimeError):
        make_context(2, 1, 10)  # odd primes only
    with pytest.raises(BadPrecisionError):
        make_context(3, 2, 0)
    with pytest.raises(NotPrimitiveError):
        make_context(3, 1, 10)  # order 1
    with pytest.raises(NotPrimitiveError):
        make_context(3, 0, 10)  # out of range


def test_q_hat_is_one_mod_p_but_not_mod_p_squared(ctx):
    p = ctx.p
    assert ctx.q_hat_residue % p == 1
    assert ctx.q_hat_residue % p**2 != 1
    assert multiplicative_order(ctx.q, p**2) == p * (p - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_order_mod_p_squared_matches_the_loop(p):
    for q in range(2, p * p):
        assert order_mod_p_squared(q, p) == multiplicative_order(q, p * p), q


def test_make_context_is_fast_at_a_large_prime():
    """The order comes from the divisors of p*(p-1), not a loop of that length."""
    t0 = time.perf_counter()
    ctx = make_context(10007, 5, 20)
    assert time.perf_counter() - t0 < 0.1
    assert ctx.q_hat_residue % 10007**2 != 1
    message = r"^q=2 has order 50065021 modulo 10007\*\*2, need 100130042$"
    with pytest.raises(NotPrimitiveError, match=message):
        make_context(10007, 2, 20)


def test_q_hat_pow_handles_negative_exponents(ctx):
    minus_two = ctx.q_hat_pow(-2)
    assert (minus_two * ctx.q_hat_pow(2)).residue == 1


# ---------------------------------------------------------------- PadicInt


def test_padic_int_frozen_examples():
    ctx = make_context(3, 2, 5)
    assert (PadicInt(ctx, 121) + PadicInt(ctx, 122)).residue == 0
    assert (PadicInt(ctx, 2) * PadicInt(ctx, 122)).residue == 1
    assert (PadicInt(ctx, 4) ** 0).residue == 1
    assert PadicInt(ctx, 2).inverse().residue == 122
    assert PadicInt(ctx, 1).inverse().residue == 1
    with pytest.raises(NotAUnitError):
        PadicInt(ctx, 6).inverse()


def test_valuation_frozen_examples():
    ctx = make_context(3, 2, 5)
    assert PadicInt(ctx, 18).valuation() == 2
    assert PadicInt(ctx, 1).valuation() == 0
    assert PadicInt(ctx, 0).valuation() == 5  # zero reports full precision


def test_negative_power_rejected(ctx):
    with pytest.raises(ValueError):
        ctx.from_int(2) ** -1


def test_ring_axioms_and_inversion_random(ctx):
    """200 seeded random cases per prime: ring laws and two-sided inverses."""
    rng = random.Random(8151)
    M = ctx.modulus
    for _ in range(200):
        a = PadicInt(ctx, rng.randrange(M))
        b = PadicInt(ctx, rng.randrange(M))
        c = PadicInt(ctx, rng.randrange(M))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ctx.zero() == a
        assert a * ctx.one() == a
        assert (a - a).residue == 0
        if a.residue % ctx.p != 0:
            inv = a.inverse()
            assert (a * inv).residue == 1
            assert (inv * a).residue == 1


def test_valuation_additivity(ctx):
    rng = random.Random(4242)
    p, N = ctx.p, ctx.N
    for _ in range(100):
        va, vb = rng.randrange(N // 2), rng.randrange(N // 2)
        ua = rng.randrange(1, ctx.modulus)
        ub = rng.randrange(1, ctx.modulus)
        if ua % p == 0:
            ua += 1
        if ub % p == 0:
            ub += 1
        a = PadicInt(ctx, p**va * ua)
        b = PadicInt(ctx, p**vb * ub)
        assert (a * b).valuation() == min(va + vb, N)


def test_int_coercion_in_operators(ctx):
    a = ctx.from_int(7)
    assert (a + 1).residue == 8
    assert (1 + a).residue == 8
    assert (a - 2).residue == 5
    assert (2 * a).residue == 14


def test_context_mismatch_raises():
    a = make_context(3, 2, 20).from_int(1)
    b = make_context(5, 2, 20).from_int(1)
    with pytest.raises(ContextMismatchError):
        _ = a + b


def test_context_residue_is_the_one_door():
    ctx = make_context(3, 2, 20)
    assert ctx.residue(-1) == ctx.modulus - 1
    assert ctx.residue(ctx.modulus + 7) == 7
    assert ctx.residue(ctx.from_int(-2)) == ctx.modulus - 2
    # An equal context built by a second call is the same context.
    assert ctx.residue(make_context(3, 2, 20).from_int(5)) == 5
    for foreign in (make_context(5, 2, 20), make_context(3, 2, 21)):
        with pytest.raises(ContextMismatchError):
            ctx.residue(foreign.from_int(1))
    with pytest.raises(TypeError):
        ctx.residue(PadicScaled.from_int(ctx, 1))


def test_operators_coerce_through_the_door():
    ctx, other = make_context(3, 2, 20), make_context(5, 2, 20)
    with pytest.raises(ContextMismatchError):
        _ = PadicScaled.from_int(ctx, 1) + other.from_int(1)
    assert PadicScaled.from_int(ctx, 2) * ctx.from_int(-1) == PadicScaled.from_int(ctx, -2)
    with pytest.raises(TypeError):
        _ = ctx.from_int(1) + 1.5


def test_equality_across_contexts_is_false():
    """`==` never raises on a value of another context, whatever the operand types."""
    c3, c5 = make_context(3, 2, 20), make_context(5, 2, 20)
    x = PadicScaled.from_int(c3, 1)
    for other in (c5.from_int(1), PadicScaled.from_int(c5, 1)):
        assert not x == other and not other == x
        assert x != other and other != x
    assert c3.from_int(1) != c5.from_int(1)
    assert x == make_context(3, 2, 20).from_int(1) == x  # equal contexts compare values


def test_padic_int_is_unhashable(ctx):
    a = ctx.from_int(5)
    assert a == 5  # so a hash would have to equal hash(5)
    with pytest.raises(TypeError):
        hash(a)


# ----------------------------------------------------------- nu / factorial


def test_nu_factorial_frozen():
    assert nu_factorial(3, 6) == 2
    assert nu_factorial(3, 0) == 0
    assert nu_factorial(5, 25) == 6


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nu_factorial_matches_direct_factorization(p):
    """Legendre's sum vs literally accumulating the factors of k!."""
    direct = 0
    for k in range(1, 201):
        m = k
        while m % p == 0:
            direct += 1
            m //= p
        assert nu_factorial(p, k) == direct


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nu_factorial_digit_sum_identity(p):
    """Legendre's closed form: nu_p(k!) = (k - digit_sum_p(k)) / (p-1)."""
    for k in range(0, 201):
        digits, m = 0, k
        while m:
            digits += m % p
            m //= p
        assert nu_factorial(p, k) == (k - digits) // (p - 1)


def test_nu_int_rejects_zero():
    with pytest.raises(ValueError):
        nu_int(3, 0)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_valuations_reject_base_below_two(p):
    """A base below 2 would never divide out: a hang or a ZeroDivisionError."""
    with pytest.raises(DomainError):
        nu_int(p, 6)
    with pytest.raises(DomainError):
        nu_factorial(p, 6)


def test_domain_error_is_both_utt_and_value_error():
    assert issubclass(DomainError, UttError) and issubclass(DomainError, ValueError)


# ------------------------------------------------------------- PadicScaled


def test_scaled_frozen_examples(ctx):
    one = PadicScaled(ctx, 0, 1, ctx.N)
    minus_one = PadicScaled(ctx, 0, ctx.modulus - 1, ctx.N)
    assert (one + minus_one).is_zero()

    prod = PadicScaled(ctx, -2, 1, ctx.N) * PadicScaled(ctx, 3, 2, ctx.N)
    assert (prod.val, prod.unit) == (1, 2)

    u = 7 if ctx.p != 7 else 5
    shifted = PadicScaled(ctx, 0, u, ctx.N).scale_by_p_power(-1)
    assert (shifted.val, shifted.unit) == (-1, u)


def test_scaled_canonical_form(ctx):
    # unit reduced mod p**sig and prime to p
    x = PadicScaled(ctx, 2, 1 + ctx.p**5, 5)
    assert x.unit == 1  # reduced mod p**sig
    with pytest.raises(ValueError):
        PadicScaled(ctx, 0, ctx.p, ctx.N)
    with pytest.raises(PrecisionExhaustedError):
        PadicScaled(ctx, 0, 1, 0)


def test_scaled_zero_form(ctx):
    z = PadicScaled.zero(ctx)
    assert z.is_zero() and z.val is None and z.unit == 0 and z.sig == ctx.N
    assert z.is_padic_integer()
    assert z.valuation() is None
    assert (z + z).is_zero()
    x = PadicScaled(ctx, -3, 2, ctx.N)
    assert (z * x).is_zero()
    assert z + x == x


def test_scaled_add_alignment(ctx):
    p = ctx.p
    a = PadicScaled(ctx, 0, 1, ctx.N)      # 1
    b = PadicScaled(ctx, 2, 1, ctx.N)      # p**2
    s = a + b
    assert (s.val, s.unit) == (0, 1 + p**2)
    # cancellation raises the valuation and spends digits
    c = PadicScaled(ctx, 0, ctx.modulus - 1, ctx.N)  # -1
    d = a + c + b                                    # = p**2
    assert (d.val, d.unit) == (2, 1)


def test_scaled_add_tracks_significance(ctx):
    # Low-precision summand caps the digits of the sum.
    a = PadicScaled(ctx, 0, 1, 3)
    b = PadicScaled(ctx, 0, 1, ctx.N)
    s = a + b
    assert s.sig == 3 and (s.val, s.unit) == (0, 2)


def test_scaled_mul_keeps_min_sig(ctx):
    a = PadicScaled(ctx, -1, 2, 4)
    b = PadicScaled(ctx, 2, 1, ctx.N)
    r = a * b
    assert (r.val, r.unit, r.sig) == (1, 2, 4)


def test_scaled_inverse(ctx):
    a = PadicScaled(ctx, -3, 4, ctx.N)
    r = a * a.inverse()
    assert (r.val, r.unit) == (0, 1)
    with pytest.raises(NotAUnitError):
        PadicScaled.zero(ctx).inverse()


def test_scaled_eq_compares_at_min_sig(ctx):
    a = PadicScaled(ctx, 0, 1 + ctx.p**3, ctx.N)
    b = PadicScaled(ctx, 0, 1, 3)
    assert a == b          # agree in the 3 digits b knows
    assert a != b.scale_by_p_power(1)
    assert PadicScaled.zero(ctx) != a


def test_scaled_is_unhashable(ctx):
    with pytest.raises(TypeError):
        hash(PadicScaled(ctx, 0, 1, ctx.N))


def test_scaled_integrality_flag(ctx):
    assert PadicScaled(ctx, 0, 1, ctx.N).is_padic_integer()
    assert PadicScaled(ctx, 5, 2, ctx.N).is_padic_integer()
    assert not PadicScaled(ctx, -1, 1, ctx.N).is_padic_integer()


def _coefficient_json(x: PadicScaled) -> list[dict]:
    """The terms of a constant polynomial with coefficient x, as `utt basis` prints them."""
    return json.loads(emit_bivar(BivarPoly.monomial(x.ctx, 0, 0, x), "json"))["terms"]


def test_scaled_json_round_trip(ctx):
    x = PadicScaled(ctx, -2, 4, 9)
    (data,) = _coefficient_json(x)
    assert data == {"a": 0, "b": 0, "val": -2, "unit": "4", "sig": 9}
    y = PadicScaled(ctx, data["val"], int(data["unit"]), data["sig"])
    assert (y.val, y.unit, y.sig) == (x.val, x.unit, x.sig)
    assert _coefficient_json(PadicScaled.zero(ctx)) == []


@given(st.integers(min_value=-(3**12), max_value=3**12),
       st.integers(min_value=-(3**12), max_value=3**12),
       st.integers(min_value=-(3**12), max_value=3**12))
def test_scaled_full_precision_ring_laws(a, b, c):
    """With full-precision inputs the scaled form is an exact ring."""
    ctx = make_context(3, 2, 20)
    xa, xb, xc = (PadicScaled.from_int(ctx, v) for v in (a, b, c))
    assert (xa + xb) + xc == xa + (xb + xc)
    assert xa + xb == xb + xa
    assert (xa * xb) * xc == xa * (xb * xc)
    assert xa * (xb + xc) == xa * xb + xa * xc
    assert xa - xa == PadicScaled.zero(ctx)
    want = PadicScaled.from_int(ctx, a * b + c)
    assert xa * xb + xc == want


@given(st.integers(min_value=1, max_value=3**10 - 1).filter(lambda u: u % 3),
       st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=20))
def test_scaled_round_trip_random(u, v, s):
    ctx = make_context(3, 2, 20)
    x = PadicScaled(ctx, v, u, s)
    (data,) = _coefficient_json(x)
    y = PadicScaled(ctx, data["val"], int(data["unit"]), data["sig"])
    assert (y.val, y.unit, y.sig) == (x.val, x.unit, x.sig)


def test_from_padic_int_sig_reflects_known_digits(ctx):
    v = ctx.N // 2
    x = PadicScaled.from_int(ctx, ctx.p**v * 2)
    assert (x.val, x.unit, x.sig) == (v, 2, ctx.N - v)
    assert PadicScaled.from_int(ctx, 0).is_zero()


# ----------------------------------------------------- scaled triple kernels

KERNEL_CTX = make_context(3, 2, 6)  # few digits, so realignment exhausts them


@st.composite
def scaled_triples(draw, ctx=KERNEL_CTX):
    """None (zero) or a canonical (val, unit, sig) triple of ctx."""
    if draw(st.integers(0, 7)) == 0:
        return None
    sig = draw(st.integers(1, ctx.N))
    unit = draw(st.integers(1, ctx.p**sig - 1).filter(lambda u: u % ctx.p))
    return (draw(st.integers(-4, 4)), unit, sig)


@st.composite
def near_pairs(draw, ctx=KERNEL_CTX):
    """(x, y) with y often close to -x, so that x + y cancels digits.

    Canonical summands always leave the sum a digit (s >= 1), so x is
    sometimes a spent value that knows no digit at all, which is the only
    way to reach PrecisionExhaustedError.
    """
    x, y = draw(scaled_triples()), draw(scaled_triples())
    if x is not None and draw(st.booleans()):
        sig = draw(st.integers(1, ctx.N))
        d = draw(st.integers(1, sig))
        unit = (-x[1] + ctx.p**d * draw(st.integers(0, ctx.p**sig))) % ctx.p**sig
        y = (x[0], unit, sig) if unit % ctx.p else y
    if x is not None and draw(st.integers(0, 9)) == 0:
        x = (x[0], 1, 0)
    return x, y


def _scaled(t):
    return PadicScaled._from_triple(KERNEL_CTX, t)


def _as_triple(x: PadicScaled):
    return None if x.is_zero() else (x.val, x.unit, x.sig)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhaustedError:
        return "exhausted"


@settings(max_examples=400)
@given(near_pairs())
def test_scaled_add_matches_reference(pair):
    x, y = pair
    p = KERNEL_CTX.p
    want = _outcome(lambda: _as_triple(ref_scaled_add(_scaled(x), _scaled(y))))
    assert _outcome(scaled_add, p, x, y) == want
    assert _outcome(lambda: _as_triple(_scaled(x) + _scaled(y))) == want


@settings(max_examples=400)
@given(scaled_triples(), scaled_triples())
def test_scaled_mul_and_eq_match_reference(x, y):
    p = KERNEL_CTX.p
    want = _as_triple(ref_scaled_mul(_scaled(x), _scaled(y)))
    assert scaled_mul(p, x, y) == want
    assert _as_triple(_scaled(x) * _scaled(y)) == want
    assert scaled_eq(p, x, y) == ref_scaled_eq(_scaled(x), _scaled(y))
    assert (_scaled(x) == _scaled(y)) == ref_scaled_eq(_scaled(x), _scaled(y))


@given(scaled_triples(), st.integers(-5, 5))
def test_scaled_neg_and_shift(x, m):
    p = KERNEL_CTX.p
    assert scaled_add(p, x, scaled_neg(p, x)) is None
    assert _as_triple(-_scaled(x)) == scaled_neg(p, x)
    shifted = scaled_shift(x, m)
    assert _as_triple(_scaled(x).scale_by_p_power(m)) == shifted
    assert shifted is None if x is None else shifted == (x[0] + m, x[1], x[2])


def test_scaled_add_cancels_and_exhausts():
    p = KERNEL_CTX.p
    assert scaled_add(p, (0, 1, 6), (0, p**6 - 1, 6)) is None  # 1 + (-1)
    assert scaled_add(p, (0, 1, 6), (0, p**6 - 1 - p**2, 6)) == (2, p**4 - 1, 4)
    spent, y = (0, 1, 0), (1, 1, 3)  # a summand with no digit left
    with pytest.raises(PrecisionExhaustedError):
        scaled_add(p, spent, y)
    with pytest.raises(PrecisionExhaustedError):
        ref_scaled_add(_scaled(spent), _scaled(y))


def test_scaled_add_far_apart_matches_reference_and_keeps_the_table_short(monkeypatch):
    """A shift delta >= sig adds nothing mod p**sig, so p**delta is never read."""
    p, N = KERNEL_CTX.p, KERNEL_CTX.N
    monkeypatch.setattr(padic, "_P_POWERS", {})
    x = (0, 5, N)
    for far in ((10**6, 7, N), (10**6, 1, 1), (N, 2, 3)):
        want = _as_triple(ref_scaled_add(_scaled(x), _scaled(far)))
        assert want == x
        assert scaled_add(p, x, far) == want and scaled_add(p, far, x) == want
    near = (-(10**6), 4, 3)
    assert scaled_add(p, x, near) == _as_triple(ref_scaled_add(_scaled(x), _scaled(near))) == near
    assert len(padic._P_POWERS[p]) <= N + 1


def test_power_table_holds_powers_up_to_the_precision_read(monkeypatch):
    monkeypatch.setattr(padic, "_P_POWERS", {})
    x, y = (0, 3, 12), (1, 5, 9)
    assert scaled_mul(7, x, y) == (1, 15, 9)
    assert not scaled_eq(7, x, y) and scaled_eq(7, x, (0, 3 + 7**12, 13))
    assert scaled_add(7, x, (0, 7**12 - 3, 12)) is None
    assert padic._P_POWERS == {7: [7**e for e in range(13)]}  # p**12 at most


def test_scaled_from_residue_matches_to_scaled(ctx):
    """The triple of a residue, against PadicInt.valuation and the validating constructor."""
    assert scaled_from_residue(ctx.p, ctx.N, 0) is None
    for r in (1, ctx.p, ctx.p**3 * 7, ctx.modulus - ctx.p):
        v = ctx.from_int(r).valuation()
        want = PadicScaled(ctx, v, r // ctx.p**v, ctx.N - v)
        assert scaled_from_residue(ctx.p, ctx.N, r) == _as_triple(want)


def test_from_triple_wraps_without_copying(ctx):
    x = PadicScaled._from_triple(ctx, (2, 5, 7))
    assert (x.val, x.unit, x.sig, x.triple()) == (2, 5, 7, (2, 5, 7))
    z = PadicScaled._from_triple(ctx, None)
    assert z.is_zero() and z.triple() is None and z == PadicScaled.zero(ctx)
