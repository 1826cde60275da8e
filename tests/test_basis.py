"""Bivariate basis polynomials: construction, expansion, integrality, action."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LOW_CTX,
    STANDARD_TRIPLES,
    low_precision_terms,
    ref_bivar_product,
    ref_scaled_add,
    ref_scaled_mul,
    ref_substitute,
)
from utt import basis
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
from utt.cli import emit_bivar
from utt.errors import BadIndexError, ContextMismatchError, DomainError, PrecisionExhaustedError
from utt.padic import PadicScaled, make_context, nu_factorial, nu_int
from utt.qcalc import qbinom_eval

KMAX = 8


# --------------------------------------------------------------- BivarPoly


def test_bivar_construction_and_weight(ctx):
    u = BivarPoly.u_hat(ctx)
    v = BivarPoly.monomial(ctx, 0, 1)
    assert u.weight() == 1 and v.weight() == 1
    assert (u * v).weight() == 2
    assert (u + v).weight() == 1
    assert BivarPoly.zero(ctx).weight() is None
    one = BivarPoly.monomial(ctx, 0, 0)  # the coefficient tuple of u, at weight 0
    assert one.weight() == 0
    assert one.coeffs == u.coeffs and one != u and u != one
    assert u.coefficient(0, 0).is_zero() and not one.coefficient(0, 0).is_zero()


def test_bivar_rejects_negative_exponents(ctx):
    with pytest.raises(BadIndexError):
        BivarPoly.monomial(ctx, -1, 0)
    with pytest.raises(BadIndexError):
        BivarPoly.monomial(ctx, 0, -2)


def test_bivar_drops_zero_terms(ctx):
    z = BivarPoly(ctx, {(1, 1): PadicScaled.zero(ctx)})
    assert z.is_zero()
    u = BivarPoly.u_hat(ctx)
    assert (u + u.scale(-1)).is_zero()


def _rand_poly(ctx, rng, n: int, top: int):
    """Three draws of u**(n-b) * v**b with b < 3 and coefficients in 1..top-1."""
    return BivarPoly(ctx, {(n - b, b): PadicScaled.from_int(ctx, rng.randrange(1, top))
                           for b in (rng.randrange(min(n, 2) + 1) for _ in range(3))})


def test_bivar_ring_laws(ctx):
    """The sums draw their operands at one weight, which changes between rounds."""
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randrange(4)
        a, b, c = (_rand_poly(ctx, rng, n, 50) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + a.scale(-1)).is_zero()
        assert a * BivarPoly.monomial(ctx, 0, 0) == a


def _canonical(terms: dict) -> dict:
    """The terms in BivarPoly's summation order: by decreasing b."""
    return dict(sorted(terms.items(), key=lambda item: -item[0][1]))


@settings(max_examples=200)
@given(low_precision_terms(), low_precision_terms())
def test_bivar_product_matches_reference(x, y):
    """Same coefficients to the digit as the oracle fed the terms in canonical order."""
    got = BivarPoly(LOW_CTX, x) * BivarPoly(LOW_CTX, y)
    want = ref_bivar_product(_canonical(x), _canonical(y))
    assert got.terms == {key: (c.val, c.unit, c.sig) for key, c in want.items()}


@settings(max_examples=200)
@given(low_precision_terms(), st.randoms(use_true_random=False))
def test_bivar_parts_do_not_depend_on_dict_order(terms, rnd):
    """The same terms in another dict order build the same weight and coefficient tuple,
    which ends in a nonzero coefficient."""
    items = list(terms.items())
    rnd.shuffle(items)
    poly, other = BivarPoly(LOW_CTX, terms), BivarPoly(LOW_CTX, dict(items))
    assert (other.n, other.coeffs) == (poly.n, poly.coeffs)
    if terms:
        assert poly.n == sum(next(iter(terms))) and poly.coeffs[-1] is not None
    else:
        assert poly.n is None and poly.coeffs == ()


@settings(max_examples=200)
@given(low_precision_terms(), st.just(1) | st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_bivar_substitute_matches_reference(terms, u, v):
    """Evaluation sums the terms in sorted exponent order; digit loss depends on it.

    u = 1, the reading point of the c-basis expansion, is drawn about half
    the time.
    """
    poly = BivarPoly(LOW_CTX, terms)
    got = poly.substitute(u, LOW_CTX.from_int(v))
    assert got.triple() == ref_substitute(poly, u, v).triple()


def _triples(coeffs) -> list:
    """[(key, triple)] of a {(a, b): PadicScaled} dict, in its order."""
    return [(key, c.triple()) for key, c in coeffs.items()]


@settings(max_examples=200)
@given(low_precision_terms(), low_precision_terms(sizes=st.just(1)), st.booleans())
def test_bivar_product_by_one_term_matches_reference(terms, single, single_left):
    """A one-term operand on either side goes through the generic product."""
    x, y = (single, terms) if single_left else (terms, single)
    got = BivarPoly(LOW_CTX, x) * BivarPoly(LOW_CTX, y)
    assert got.terms == dict(_triples(ref_bivar_product(_canonical(x), _canonical(y))))


@settings(max_examples=200)
@given(low_precision_terms(), low_precision_terms(sizes=st.just(1)))
def test_bivar_scale_matches_reference(terms, factor):
    poly, c = BivarPoly(LOW_CTX, terms), next(iter(factor.values()))
    want = {key: ref_scaled_mul(poly.coefficient(*key), c) for key in poly.terms}
    assert list(poly.scale(c).terms.items()) == _triples(want)


@settings(max_examples=100)
@given(low_precision_terms())
def test_bivar_scale_p_shifts_only_the_valuation(terms):
    poly = BivarPoly(LOW_CTX, terms)
    assert poly.scale_p(0) is poly
    for m in range(-3, 4):
        want = [(key, (val + m, unit, sig)) for key, (val, unit, sig) in poly.terms.items()]
        assert list(poly.scale_p(m).terms.items()) == want


def _built_as_wrapped(poly: BivarPoly) -> bool:
    """poly is what _wrap makes of its own weight and row, and its row does not end in None."""
    wrapped = BivarPoly._wrap(poly.ctx, poly.n, poly.coeffs)
    return ((poly.n, poly.coeffs) == (wrapped.n, wrapped.coeffs)
            and (poly.coeffs[-1] is not None if poly.coeffs else poly.n is None))


@settings(max_examples=300)
@given(low_precision_terms(), low_precision_terms(), st.integers(-3, 3))
def test_bivar_product_and_scale_p_need_no_trim(x, y, m):
    """__mul__ and scale_p build their rows without _wrap's trim; the rows are the
    ones _wrap would give, the product's agrees with the oracle, and a zero operand
    gives zero."""
    a, b = BivarPoly(LOW_CTX, x), BivarPoly(LOW_CTX, y)
    product = a * b
    assert _built_as_wrapped(product)
    assert product.terms == dict(_triples(ref_bivar_product(_canonical(x), _canonical(y))))
    assert (product.is_zero()) == (a.is_zero() or b.is_zero())
    assert _built_as_wrapped(a.scale_p(m)) and _built_as_wrapped(product.scale_p(m))
    assert a.scale_p(m).is_zero() == a.is_zero()
    zero = BivarPoly.zero(LOW_CTX)
    for z in (zero * a, a * zero, zero.scale_p(m)):
        assert (z.n, z.coeffs) == (None, ())


@settings(max_examples=200)
@given(low_precision_terms())
def test_psi_action_matches_reference(terms):
    poly = BivarPoly(LOW_CTX, terms)
    q_hat = LOW_CTX.q ** (LOW_CTX.p - 1)
    want = {
        (a, b): ref_scaled_mul(poly.coefficient(a, b), PadicScaled.from_int(LOW_CTX, q_hat**b))
        for a, b in poly.terms
    }
    assert list(psi_action(poly).terms.items()) == _triples(want)


@settings(max_examples=200)
@given(low_precision_terms(sizes=st.integers(1, 5)), st.data())
def test_bivar_sum_that_cancels_one_key_drops_only_that_key(terms, data):
    poly = BivarPoly(LOW_CTX, terms)
    gone = data.draw(st.sampled_from(sorted(poly.terms)))
    extra = {key: c for key, c in data.draw(low_precision_terms(weights=st.just(poly.n))).items()
             if key not in poly.terms}
    other = BivarPoly(LOW_CTX, {gone: -poly.coefficient(*gone), **extra})
    want = {key: t for key, t in {**poly.terms, **other.terms}.items() if key != gone}
    got = (poly + other).terms
    assert got == want
    assert list(got) == sorted(want, key=lambda key: key[1])


def test_bivar_substitute_sums_in_sorted_order():
    """A partial sum that cancels to zero forgets its precision, so the order shows.

    In sorted order, which is decreasing b, v**2 + (-1) * u*v, both known
    to 2 digits, cancels first and the full-precision u**2 term is added
    to zero.  Any order that adds the u**2 term before the cancellation
    keeps only 2 digits.  This is known behaviour, shared with scaled_add:
    the result claims 6 digits of a sum known mod p**2, and tracking
    inexact zeros will turn it into (0, 1, 2).
    """
    p = LOW_CTX.p
    poly = BivarPoly(LOW_CTX, {
        (2, 0): PadicScaled(LOW_CTX, 0, 1, 6),
        (1, 1): PadicScaled(LOW_CTX, 0, p**2 - 1, 2),
        (0, 2): PadicScaled(LOW_CTX, 0, 1, 2),
    })
    assert poly.substitute(1, 1).triple() == ref_substitute(poly, 1, 1).triple() == (0, 1, 6)


def test_bivar_coefficients_cross_the_api_as_scaled(ctx):
    poly = BivarPoly(ctx, {(1, 0): PadicScaled(ctx, -2, 2, 7), (0, 1): 3, (2, 0): ctx.from_int(0)})
    assert list(poly.terms) == [(1, 0), (0, 1)]
    c = poly.coefficient(1, 0)
    assert isinstance(c, PadicScaled) and (c.val, c.unit, c.sig) == (-2, 2, 7)
    assert poly.coefficient(5, 5).is_zero()
    assert poly.terms == {(1, 0): (-2, 2, 7), (0, 1): PadicScaled.from_int(ctx, 3).triple()}
    assert repr(poly) == f"BivarPoly(u^0v^1:{PadicScaled.from_int(ctx, 3)!r}, u^1v^0:{c!r})"


def test_bivar_rejects_foreign_coefficients(ctx3, ctx5):
    with pytest.raises(ContextMismatchError):
        BivarPoly(ctx3, {(0, 0): PadicScaled.from_int(ctx5, 2)})
    with pytest.raises(ContextMismatchError):
        BivarPoly(ctx3, {(0, 0): ctx5.from_int(2)})
    with pytest.raises(ContextMismatchError):
        BivarPoly.monomial(ctx3, 0, 0).scale(ctx5.from_int(2))
    with pytest.raises(ContextMismatchError):
        BivarPoly.monomial(ctx3, 0, 0).substitute(ctx5.one(), ctx3.one())


def test_bivar_substitute_is_evaluation(ctx):
    # 2*u**2 + 3*u*v at (u, v) = (5, 7): 2*25 + 3*35 = 155
    poly = BivarPoly.monomial(ctx, 2, 0, 2) + BivarPoly.monomial(ctx, 1, 1, 3)
    got = poly.substitute(ctx.from_int(5), ctx.from_int(7))
    assert got == PadicScaled.from_int(ctx, 155)


def test_bivar_substitute_respects_products(ctx):
    rng = random.Random(13)
    a = BivarPoly.monomial(ctx, 1, 0, 4) + BivarPoly.monomial(ctx, 0, 1, 1)
    b = BivarPoly.monomial(ctx, 0, 2, 2) + BivarPoly.monomial(ctx, 2, 0)
    c = BivarPoly.monomial(ctx, 0, 1, 5)
    for _ in range(5):
        u = ctx.from_int(rng.randrange(1, ctx.modulus))
        v = ctx.from_int(rng.randrange(1, ctx.modulus))
        assert (a * b).substitute(u, v) == a.substitute(u, v) * b.substitute(u, v)
        assert (a + c).substitute(u, v) == a.substitute(u, v) + c.substitute(u, v)


STANDARD_CONTEXTS = [make_context(*t) for t in STANDARD_TRIPLES]


@st.composite
def wide_polys(draw):
    """A BivarPoly of weight up to 24, exponents up to 12, at a standard context."""
    ctx = draw(st.sampled_from(STANDARD_CONTEXTS))
    p, N = ctx.p, ctx.N
    n, terms = draw(st.integers(0, 24)), {}
    for _ in range(draw(st.integers(0, 8))):
        b = draw(st.integers(max(0, n - 12), min(n, 12)))
        key = (n - b, b)
        sig = draw(st.integers(1, N))
        unit = draw(st.integers(1, p**sig - 1).filter(lambda u: u % p))
        terms[key] = PadicScaled(ctx, draw(st.integers(-6, 6)), unit, sig)
    return BivarPoly(ctx, terms)


def _points(ctx):
    """Substitution points: 0, 1 and -1, any residue, and 1 + p*r as the suites draw."""
    p, M = ctx.p, ctx.modulus
    return st.one_of(st.sampled_from([0, 1, M - 1]), st.integers(0, M - 1),
                     st.integers(0, M // p - 1).map(lambda r: 1 + p * r))


@settings(max_examples=100)
@given(st.data())
def test_substitute_matches_naive_pow_reference(data):
    poly = data.draw(wide_polys())
    u, v = data.draw(_points(poly.ctx)), data.draw(_points(poly.ctx))
    assert poly.substitute(u, v).triple() == ref_substitute(poly, u, v).triple()


def test_substitute_of_zero_and_exponent_zero(ctx):
    M = ctx.modulus
    for u, v in ((0, 0), (1, 0), (0, M - 1), (5, 7)):
        assert BivarPoly.zero(ctx).substitute(u, v).is_zero()
        assert BivarPoly.monomial(ctx, 0, 0).substitute(u, v) == PadicScaled.from_int(ctx, 1)  # 0**0 = 1
    cases = [
        (BivarPoly.monomial(ctx, 0, 0, 7), 0, 0, 7),
        (BivarPoly.monomial(ctx, 0, 3, 1), 0, 2, 8),
        (BivarPoly.monomial(ctx, 2, 0, 1), 3, 0, 9),
        (BivarPoly.monomial(ctx, 2, 0, 1) + BivarPoly.monomial(ctx, 1, 1, 1), 3, 0, 9),
        (BivarPoly.monomial(ctx, 1, 1, 1), 0, 5, 0),
    ]
    for poly, u, v, want in cases:
        got = poly.substitute(u, v)
        assert got == PadicScaled.from_int(ctx, want)
        assert got.triple() == ref_substitute(poly, u, v).triple()


CANCEL_CONTEXTS = [LOW_CTX, make_context(5, 2, 4), make_context(7, 3, 3)]


def _near_units(p: int, sig: int) -> list[int]:
    """Units mod p**sig within p of +1 or -1, where partial sums cancel most often."""
    return sorted({x % p**sig for x in (1, 2, 1 + p, -1, -2, -1 - p)})  # all prime to p >= 3


def _cancelling_terms(ctx, draw_int) -> dict:
    """{(a, b): PadicScaled} of one weight n in 2..8, up to 10 draws, few digits, valuations
    -2..2 and units near +-1.

    Where u or v is 0 or p, the monomials of one weight differ in valuation
    and fewer terms meet, so a weight below 2 or fewer draws leave the seeded
    sample short of its 50 cancellations.
    """
    n, out = draw_int(2, 8), {}
    for _ in range(draw_int(0, 10)):
        sig = draw_int(1, 3) if draw_int(0, 3) else draw_int(1, ctx.N)
        units = _near_units(ctx.p, sig)
        b = draw_int(0, n)
        out[(n - b, b)] = PadicScaled(
            ctx, draw_int(-2, 2), units[draw_int(0, len(units) - 1)], sig)
    return out


def _cancelling_point(ctx, kind: int, r: int) -> int:
    """0, 1, p, a unit, or 1 + p*r, as kind 0..4."""
    p, M = ctx.p, ctx.modulus
    unit = r % M if r % p else (r + 1) % M
    return (0, 1, p, unit, (1 + p * r) % M)[kind]


def _chain_cancels_at(poly, u: int, v: int) -> int | None:
    """The index of the first term at which the reference chain cancels to zero after a
    nonzero start, or None."""
    ctx, M = poly.ctx, poly.ctx.modulus
    acc = PadicScaled.zero(ctx)
    for i, (a, b) in enumerate(sorted(poly.terms)):
        value = PadicScaled.from_int(ctx, pow(u, a, M) * pow(v, b, M))
        nxt = ref_scaled_add(acc, ref_scaled_mul(poly.coefficient(a, b), value))
        if nxt.is_zero() and not acc.is_zero():
            return i
        acc = nxt
    return None


@settings(max_examples=300)
@given(st.data())
def test_substitute_one_pass_matches_the_chain_when_sums_cancel(data):
    """The one exact sum gives the reference chain's triple, cancellations included."""
    ctx = data.draw(st.sampled_from(CANCEL_CONTEXTS))

    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    poly = BivarPoly(ctx, _cancelling_terms(ctx, draw_int))
    u = _cancelling_point(ctx, draw_int(0, 4), draw_int(0, ctx.modulus))
    v = _cancelling_point(ctx, draw_int(0, 4), draw_int(0, ctx.modulus))
    assert poly.substitute(u, v).triple() == ref_substitute(poly, u, v).triple()


def test_substitute_one_pass_matches_the_chain_on_a_fixed_sample():
    """Seeded, so the cancelling partial sums are sure to be among the cases."""
    rng = random.Random(2012)
    cancelled = 0
    for _ in range(1500):
        ctx = rng.choice(CANCEL_CONTEXTS)
        poly = BivarPoly(ctx, _cancelling_terms(ctx, rng.randint))
        u = _cancelling_point(ctx, rng.randint(0, 4), rng.randrange(ctx.modulus))
        v = _cancelling_point(ctx, rng.randint(0, 4), rng.randrange(ctx.modulus))
        assert poly.substitute(u, v).triple() == ref_substitute(poly, u, v).triple(), (poly, u, v)
        cancelled += _chain_cancels_at(poly, u, v) is not None
    assert cancelled >= 50


def test_substitute_keeps_the_least_precision_and_skips_vanishing_monomials():
    p = LOW_CTX.p
    # 1 to 2 digits plus 1 to 6 digits knows 2 digits.
    poly = BivarPoly(LOW_CTX, {(0, 1): PadicScaled(LOW_CTX, 0, 1, 2), (1, 0): PadicScaled(LOW_CTX, 0, 1, 6)})
    assert poly.substitute(1, 1).triple() == (0, 2, 2)
    # At u = 0 the u-term is no summand, so its 3 absolute digits do not cap the sum.
    poly = BivarPoly(LOW_CTX, {(0, 1): PadicScaled(LOW_CTX, 0, 1, 6), (1, 0): PadicScaled(LOW_CTX, -3, 1, 6)})
    assert poly.substitute(0, 1).triple() == (0, 1, 6)
    # u = p lends the 2-digit term one more absolute digit: the sum knows 3.
    poly = BivarPoly(LOW_CTX, {(0, 1): PadicScaled(LOW_CTX, 0, 1, 6), (1, 0): PadicScaled(LOW_CTX, 0, 1, 2)})
    assert poly.substitute(p, 1).triple() == ref_substitute(poly, p, 1).triple() == (0, 4, 3)


def _homogeneous_cancelling_terms(ctx, draw_int) -> dict:
    """One weight n <= 6, each b absent a third of the time (a None gap), sig 1..3, units near +-1."""
    n, out = draw_int(0, 6), {}
    for b in range(n + 1):
        if draw_int(0, 2):
            sig = draw_int(1, 3)
            units = _near_units(ctx.p, sig)
            out[(n - b, b)] = PadicScaled(ctx, draw_int(-2, 2), units[draw_int(0, len(units) - 1)], sig)
    return out


def _unit_point(ctx, kind: int, r: int) -> int:
    """-1, a unit near +-1, any unit, or 1 + p*r (never 1), as kind 0..3."""
    p, M = ctx.p, ctx.modulus
    near = [x for x in _near_units(ctx.p, ctx.N) if x != 1]
    unit = 2 + r % (M - 3)
    unit += unit % p == 0
    return (M - 1, near[r % len(near)], unit, (1 + p * (r % (M // p - 1) + 1)) % M)[kind]


def _horner_at(poly, t: int):
    """The Horner kernel's value of a poly at (1, t); None for the zero poly."""
    return basis._horner_values(poly.ctx, poly.coeffs, [t])[0] if poly.coeffs else None


@settings(max_examples=300)
@given(st.data())
def test_horner_at_unit_points_matches_the_chain(data):
    """A polynomial at (1, t), t a unit: Horner in decreasing b is the sorted chain."""
    ctx = data.draw(st.sampled_from(CANCEL_CONTEXTS))

    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    poly = BivarPoly(ctx, _homogeneous_cancelling_terms(ctx, draw_int))
    t = 1 if draw_int(0, 3) == 0 else _unit_point(ctx, draw_int(0, 3), draw_int(0, ctx.modulus))
    assert t % ctx.p
    assert _horner_at(poly, t) == ref_substitute(poly, 1, t).triple()


def test_horner_at_unit_points_matches_the_chain_on_a_fixed_sample():
    """Seeded, so resets partway through a Horner sum are sure to be among the cases."""
    rng = random.Random(2212)
    resets = 0
    for _ in range(2000):
        ctx = rng.choice(CANCEL_CONTEXTS)
        poly = BivarPoly(ctx, _homogeneous_cancelling_terms(ctx, rng.randint))
        t = _unit_point(ctx, rng.randint(0, 3), rng.randrange(ctx.modulus))
        assert _horner_at(poly, t) == ref_substitute(poly, 1, t).triple(), (poly, t)
        first = _chain_cancels_at(poly, 1, t)
        resets += first is not None and first < len(poly.terms) - 1
    assert resets >= 50


def test_reading_points_in_one_pass_match_the_chain(ctx):
    """The batched values at (1, q_hat**s), s = 0..n, are the per-point evaluations."""
    polys = [c_poly(ctx, k) for k in range(KMAX + 1)] + [f_poly(ctx, k) for k in range(KMAX + 1)]
    for m in range(KMAX + 1):
        for l in range(m + 1):
            polys += [g_poly(ctx, m, l), psi_action(g_poly(ctx, m, l))]
    q_hat, M = ctx.q_hat_residue, ctx.modulus
    for poly in polys:
        points = [pow(q_hat, s, M) for s in range(poly.n + 1)]
        got = basis._horner_values(ctx, poly.coeffs, points)
        assert got == [ref_substitute(poly, 1, x).triple() for x in points], poly
        assert got == [poly.substitute(1, x).triple() for x in points], poly


@settings(max_examples=50)
@given(st.data())
def test_bivar_eq_ignores_digits_below_sig(data):
    """Equal where every pair of triples agrees on the digits both know,
    unequal once a known digit differs."""
    poly = data.draw(wide_polys())
    ctx = poly.ctx
    p, N = ctx.p, ctx.N
    finer = {}
    for key, (val, unit, sig) in poly.terms.items():
        noise = data.draw(st.integers(0, p ** (N - sig) - 1))
        finer[key] = PadicScaled(ctx, val, unit + noise * p**sig, N)
    finer = BivarPoly(ctx, finer)
    assert poly == finer and finer == poly
    if poly.terms:
        key = data.draw(st.sampled_from(sorted(poly.terms)))
        val, unit, sig = poly.terms[key]
        digit = data.draw(st.integers(1, sig - 1)) if sig > 1 else None
        changed = dict(finer.terms)
        if digit is None:  # one known digit only: move the valuation instead
            changed[key] = (val + 1, unit, sig)
        else:
            changed[key] = (val, (unit + p**digit) % p**N, N)
        changed = BivarPoly(ctx, {k: PadicScaled._from_triple(ctx, t) for k, t in changed.items()})
        assert poly != changed and changed != poly


def test_bivar_eq_on_identical_triples_skips_the_digit_loop(ctx, monkeypatch):
    calls = []
    real = basis.scaled_eq
    monkeypatch.setattr(basis, "scaled_eq", lambda p, x, y: calls.append(1) or real(p, x, y))
    assert f_poly(ctx, 5) == f_poly(ctx, 5) and not calls
    coarse = BivarPoly(ctx, {(1, 2): PadicScaled(ctx, -1, 2, 5), (3, 0): 1})
    finer = BivarPoly(ctx, {(1, 2): PadicScaled(ctx, -1, 2 + 7 * ctx.p**5, ctx.N), (3, 0): 1})
    assert coarse == finer and calls
    off = BivarPoly(ctx, {(1, 2): PadicScaled(ctx, -1, 2 + ctx.p**4, ctx.N), (3, 0): 1})
    assert coarse != off


def test_bivar_scale_p_shifts_valuation(ctx):
    u = BivarPoly.u_hat(ctx)
    shifted = u.scale_p(-3)
    assert shifted.coefficient(1, 0).val == -3
    assert shifted.scale_p(3) == u


def _read_bivar_json(ctx, text):
    data = json.loads(text)
    return data["weight"], BivarPoly(ctx, {
        (t["a"], t["b"]): PadicScaled(ctx, t["val"], int(t["unit"]), t["sig"]) for t in data["terms"]
    })


def test_bivar_json_round_trip(ctx):
    """`utt basis` JSON keeps every coefficient triple: it rebuilds the polynomial."""
    poly = c_poly(ctx, 3)
    assert _read_bivar_json(ctx, emit_bivar(poly, "json")) == (3, poly)
    assert _read_bivar_json(ctx, emit_bivar(BivarPoly.zero(ctx), "json")) == (None, BivarPoly.zero(ctx))


def test_bivar_unhashable(ctx):
    with pytest.raises(TypeError):
        hash(BivarPoly.monomial(ctx, 0, 0))


# ------------------------------------------------------------------ c_poly


def test_c0_is_one(ctx):
    assert c_poly(ctx, 0) == BivarPoly.monomial(ctx, 0, 0)


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
            want = PadicScaled.from_int(ctx, qbinom_eval(s, k, ctx.q_hat()))
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
    v = BivarPoly.monomial(ctx, 0, 1)
    assert psi_action(u) == u
    assert psi_action(v) == v.scale(ctx.q_hat())
    assert psi_action(BivarPoly.monomial(ctx, 0, 0)) == BivarPoly.monomial(ctx, 0, 0)


def test_psi_is_a_ring_map(ctx):
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randrange(4)
        a, b = _rand_poly(ctx, rng, n, 99), _rand_poly(ctx, rng, n, 99)
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
            assert lam == PadicScaled.from_int(ctx, a), s


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
            assert mu == PadicScaled.from_int(ctx, a), s


def test_expand_rejects_non_homogeneous(ctx):
    """The zero polynomial has no weight to expand in, and no polynomial of two weights
    can be built: the constructor and + reject it before any expansion."""
    with pytest.raises(DomainError, match="nonzero"):
        expand_in_c_basis(BivarPoly.zero(ctx))
    one, u = BivarPoly.monomial(ctx, 0, 0), BivarPoly.u_hat(ctx)
    with pytest.raises(DomainError, match="weights 0 and 1"):
        one + u
    with pytest.raises(DomainError, match="weights 1 and 0"):
        u + one
    with pytest.raises(DomainError, match="weights 0 and 1"):
        BivarPoly(ctx, {(0, 0): 1, (0, 1): 2})
    zero = PadicScaled.zero(ctx)  # a zero term is dropped first, so it has no weight to clash
    assert BivarPoly(ctx, {(0, 0): zero, (0, 1): 2}) == BivarPoly.monomial(ctx, 0, 1, 2)
    assert one + BivarPoly.zero(ctx) == one and (BivarPoly.zero(ctx) + u).weight() == 1
    assert (one * BivarPoly.zero(ctx)).is_zero() and (BivarPoly.zero(ctx) * u).weight() is None


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
    res = check_integrality(f_poly(ctx, 2))
    assert (res.cond1, res.cond2) == (True, True)


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
        moved = psi_action(g) + g.scale(-ctx.q_hat_pow(m))
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
        moved = psi_action(g) + g.scale(-ctx.q_hat_pow(n))
        want = g_poly(ctx, m, n - 1).scale_p(nu_factorial(3, n) + n - m)
        assert moved == want, (m, n)
