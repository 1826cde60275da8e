"""Bivariate polynomials over scaled p-adics and the integral basis.

Polynomials live in span{u**a * v**b} with scaled p-adic coefficients, so
negative powers of p are first-class.  The distinguished family

    c_k = prod_{i<k} (v - q_hat**i * u) / (q_hat**k - q_hat**i)
    f_k = p**nu(k!) * c_k
    F_{i,j,k} = u**i * (u/p)**j * f_k
    g_{m,l}   = the F-element of weight m built on f_l

is constructed here together with the two integrality conditions that
characterize which weight-n combinations lie in the integral subring,
and the substitution action psi: u -> u, v -> q_hat * v.

Expansion in the c-basis works by evaluation: c_r vanishes at
(u, v) = (1, q_hat**s) for r > s and equals 1 at r = s, so peeling off
one coefficient per evaluation point is exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import BadIndexError, ContextMismatchError, DomainError, PrecisionExhaustedError
from .padic import (
    PadicContext,
    PadicInt,
    PadicScaled,
    Triple,
    _p_powers,
    nu_factorial,
    nu_int,
    scaled_add,
    scaled_eq,
    scaled_from_residue,
    scaled_mul,
)
from .qcalc import qbinom_eval

# Extra p-adic digits demanded beyond the worst denominator; keeps the
# c-basis peeling decisive even after alignment losses.
GUARD_DIGITS = 4


def required_precision(p: int, kmax: int) -> int:
    """Minimal context precision N for building c_k up to k = kmax."""
    return nu_factorial(p, kmax) + kmax + GUARD_DIGITS


def _to_triple(ctx: PadicContext, v: PadicScaled | PadicInt | int) -> Triple:
    """The triple of a coefficient: a PadicScaled, or a ring value of ctx."""
    if isinstance(v, PadicScaled):
        if v.ctx != ctx:
            raise ContextMismatchError(f"{ctx} vs {v.ctx}")
        return v.triple()
    return scaled_from_residue(ctx.p, ctx.N, ctx.residue(v))


def _residue_powers(x: int, e: int, M: int) -> list[int]:
    """[x**0, x**1, ..., x**e] mod M for a residue x, by running products."""
    if x == 1:
        return [1] * (e + 1)
    out = [1]
    for _ in range(e):
        out.append(out[-1] * x % M)
    return out


class BivarPoly:
    """Polynomial in two variables u, v with scaled p-adic coefficients.

    Terms are kept in a dict from (a, b) exponent pairs to the
    (val, unit, sig) triples of utt.padic; zero coefficients are never
    stored and instances are never mutated afterwards.  Coefficients
    cross the API as PadicScaled: the constructor takes them and
    coefficient() returns them.  Sums are accumulated in dict order, and
    that order decides where realignment loses digits.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PadicContext, terms: Mapping[tuple[int, int], PadicScaled]):
        clean = {}
        for (a, b), coeff in terms.items():
            if a < 0 or b < 0:
                raise BadIndexError(f"negative exponent pair ({a},{b})")
            t = _to_triple(ctx, coeff)
            if t is not None:
                clean[(a, b)] = t
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def _clean(cls, ctx: PadicContext, terms: dict[tuple[int, int], Triple]) -> "BivarPoly":
        """Wrap terms as is: exponents >= 0 and no zero (None) coefficient."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.terms = terms
        return poly

    @classmethod
    def _sum(cls, ctx: PadicContext, acc: dict[tuple[int, int], Triple]) -> "BivarPoly":
        """Wrap accumulated terms, dropping the ones that cancelled to zero."""
        if None not in acc.values():
            return cls._clean(ctx, acc)
        return cls._clean(ctx, {key: t for key, t in acc.items() if t is not None})

    @classmethod
    def zero(cls, ctx: PadicContext) -> "BivarPoly":
        return cls._clean(ctx, {})

    @classmethod
    def monomial(cls, ctx: PadicContext, a: int, b: int, coeff=1) -> "BivarPoly":
        return cls(ctx, {(a, b): coeff})

    @classmethod
    def u_hat(cls, ctx: PadicContext) -> "BivarPoly":
        return cls.monomial(ctx, 1, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def weight(self) -> int | None:
        """Common total degree of all terms, or None if mixed or zero."""
        degrees = {a + b for a, b in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def coefficient(self, a: int, b: int) -> PadicScaled:
        return PadicScaled._from_triple(self.ctx, self.terms.get((a, b)))

    def _check(self, other: "BivarPoly") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        self._check(other)
        p = self.ctx.p
        acc = dict(self.terms)
        for key, t in other.terms.items():
            acc[key] = scaled_add(p, acc[key], t) if key in acc else t
        return BivarPoly._sum(self.ctx, acc)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        """Term products by scaled_mul's rule, written out on unpacked triples
        (a stored coefficient is never None), summed in order by scaled_add."""
        self._check(other)
        p = self.ctx.p
        pw = _p_powers(p, self.ctx.N)
        right = [(a, b, v, u, s) for (a, b), (v, u, s) in other.terms.items()]
        acc: dict[tuple[int, int], Triple] = {}
        get = acc.get
        for (a1, b1), (v1, u1, s1) in self.terms.items():
            for a2, b2, v2, u2, s2 in right:
                key = (a1 + a2, b1 + b2)
                s = s1 if s1 < s2 else s2
                prod = (v1 + v2, u1 * u2 % pw[s], s)
                prev = get(key)
                acc[key] = prod if prev is None else scaled_add(p, prev, prod)
        return BivarPoly._sum(self.ctx, acc)

    def scale(self, factor) -> "BivarPoly":
        p, f = self.ctx.p, _to_triple(self.ctx, factor)
        if f is None:
            return BivarPoly.zero(self.ctx)
        return BivarPoly._clean(self.ctx, {k: scaled_mul(p, t, f) for k, t in self.terms.items()})

    def scale_p(self, m: int) -> "BivarPoly":
        """Multiply by p**m (m may be negative); p**0 gives self back unchanged."""
        if m == 0:
            return self
        return BivarPoly._clean(self.ctx, {k: (v + m, u, s) for k, (v, u, s) in self.terms.items()})

    def substitute(self, u_value: PadicInt | int, v_value: PadicInt | int) -> PadicScaled:
        """Evaluate at ring elements (u, v) = (u_value, v_value).

        Each monomial is evaluated on residues, from tables of u**a and
        v**b mod p**N built by running products for this call.  The
        terms, in sorted exponent order, go into one exact int sum
        scaled by p**-low, low the least coefficient valuation, and the
        sum is reduced and its valuation stripped once, at the end.

        The result is the triple that summing the terms one by one with
        scaled_add gives.  The sum knows the least absolute precision
        val + sig of its terms; a term whose monomial residue has
        valuation w knows val + min(sig + w, N).  A monomial that
        evaluates to zero adds nothing.  Like scaled_add, the sum starts
        afresh from the exact zero whenever the partial sum is 0 mod
        p**A, A its precision so far, and so forgets A.
        """
        ctx = self.ctx
        p, N, M = ctx.p, ctx.N, ctx.modulus
        u, v = ctx.residue(u_value), ctx.residue(v_value)
        u_pows = _residue_powers(u, max((a for a, _ in self.terms), default=0), M)
        v_pows = _residue_powers(v, max((b for _, b in self.terms), default=0), M)
        vals = [val for val, _, _ in self.terms.values()]
        low = min(vals, default=0)
        pp = _p_powers(p, max(vals, default=0) - low + N)
        acc, prec = 0, None  # sum since the last reset, scaled by p**-low; its least val + sig
        for (a, b), (val, unit, sig) in sorted(self.terms.items()):
            r = u_pows[a] * v_pows[b] % M
            if r == 0:
                continue
            w = 0
            while r % pp[w + 1] == 0:
                w += 1
            cap = val + (sig + w if sig + w < N else N)
            acc += unit * r * pp[val - low]
            if prec is None or cap < prec:
                prec = cap
            if acc % pp[prec - low] == 0:
                acc, prec = 0, None
        if prec is None:
            return PadicScaled._from_triple(ctx, None)
        r = acc % pp[prec - low]
        w = nu_int(p, r)
        return PadicScaled._from_triple(ctx, (low + w, r // pp[w], prec - low - w))

    def graded_parts(self) -> dict[int, "BivarPoly"]:
        """Split into homogeneous pieces keyed by total degree."""
        parts: dict[int, dict[tuple[int, int], Triple]] = {}
        for (a, b), t in self.terms.items():
            parts.setdefault(a + b, {})[(a, b)] = t
        return {d: BivarPoly._clean(self.ctx, t) for d, t in sorted(parts.items())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        if self.terms == other.terms:  # identical triples agree on every digit
            return True
        p = self.ctx.p
        return all(scaled_eq(p, t, other.terms[k]) for k, t in self.terms.items())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return "BivarPoly(0)"
        bits = [f"u^{a}v^{b}:{self.coefficient(a, b)!r}" for a, b in sorted(self.terms)]
        return "BivarPoly(" + ", ".join(bits) + ")"


# Bounded because the context is part of the key: a sweep over contexts
# would otherwise keep every polynomial it built.  256 is well above the
# 82 entries kmax = 40 needs at two contexts.
C_POLY_CACHE_SIZE = 256


@lru_cache(maxsize=C_POLY_CACHE_SIZE)
def c_poly(ctx: PadicContext, k: int) -> BivarPoly:
    """The k-th interpolation polynomial, homogeneous of weight k.

    Needs N >= nu(k!) + k + GUARD_DIGITS: the denominator product
    prod_{i<k} (q_hat**k - q_hat**i) has valuation exactly nu(k!) + k,
    and the guard absorbs the alignment losses of later expansions.

    Both the numerator coefficients and the denominator are exact
    integers determined by q alone, so the division is carried out on
    exact integers and every delivered coefficient keeps a full N
    significant digits.  Dividing capped residues instead would cut the
    absolute precision of low-valuation coefficients enough to make the
    c-basis peeling of f_k undecidable at the documented minimum N.
    """
    if k < 0:
        raise BadIndexError(f"c_poly needs k >= 0, got {k}")
    need = required_precision(ctx.p, k)
    if ctx.N < need:
        raise PrecisionExhaustedError(f"c_{k} at p={ctx.p} needs N >= {need}, have {ctx.N}")
    p = ctx.p
    q_hat = ctx.q ** (p - 1)
    num: dict[tuple[int, int], int] = {(0, 0): 1}
    for i in range(k):
        qi = q_hat**i
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), coeff in num.items():
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + coeff
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) - qi * coeff
        num = nxt
    den = 1
    qk = q_hat**k
    for i in range(k):
        den *= qk - q_hat**i
    d = nu_int(p, den) if k else 0
    den_unit_inv = pow(den // p**d, -1, ctx.modulus)
    terms = {}
    for (a, b), coeff in num.items():
        if coeff == 0:
            continue
        v = nu_int(p, coeff)
        terms[(a, b)] = (v - d, (coeff // p**v) * den_unit_inv % ctx.modulus, ctx.N)
    return BivarPoly._clean(ctx, terms)


def f_poly(ctx: PadicContext, k: int) -> BivarPoly:
    """p**nu(k!) * c_k; every coefficient then has valuation >= -k."""
    return c_poly(ctx, k).scale_p(nu_factorial(ctx.p, k))


def big_F(ctx: PadicContext, i: int, j: int, k: int, raw: bool = False) -> BivarPoly:
    """u**i * (u/p)**j * f_k, built from c_k in one pass.

    Every term of c_k moves by u**(i+j) and is rescaled by
    p**(nu(k!) - j); no digit is gained or lost.

    With raw=False the indices must name a basis element: j <= nu(k!),
    and i = 0 unless j = nu(k!).  raw=True lifts those constraints (any
    i, j >= 0), which is how the negative controls are built.
    """
    if k < 0 or i < 0 or j < 0:
        raise BadIndexError(f"big_F needs i, j, k >= 0, got ({i},{j},{k})")
    nu = nu_factorial(ctx.p, k)
    if not raw:
        if j > nu:
            raise BadIndexError(f"basis element needs j <= nu({k}!) = {nu}, got j={j}")
        if j < nu and i != 0:
            raise BadIndexError(f"basis element with j < nu({k}!) = {nu} needs i = 0, got i={i}")
    shift, m = i + j, nu - j
    return BivarPoly._clean(
        ctx, {(a + shift, b): (v + m, u, s) for (a, b), (v, u, s) in c_poly(ctx, k).terms.items()}
    )


def g_poly(ctx: PadicContext, m: int, l: int) -> BivarPoly:
    """The weight-m basis element built on f_l, for 0 <= l <= m."""
    if not 0 <= l <= m:
        raise BadIndexError(f"g_poly needs 0 <= l <= m, got (m,l)=({m},{l})")
    nu = nu_factorial(ctx.p, l)
    if m - l <= nu:
        return big_F(ctx, 0, m - l, l)
    return big_F(ctx, m - l - nu, nu, l)


def beta(p: int, m: int, i: int) -> int:
    """Exact p-divisibility forced on the (m, i) expansion coefficient."""
    if m < 0 or i < 0:
        raise BadIndexError(f"beta needs m, i >= 0, got ({m},{i})")
    if m > nu_factorial(p, i) + i:
        return nu_factorial(p, m)
    return nu_factorial(p, m) + m - nu_factorial(p, i) - i


def psi_action(f: BivarPoly) -> BivarPoly:
    """The ring map fixing u and sending v to q_hat * v."""
    ctx = f.ctx
    p, N = ctx.p, ctx.N
    q_pows = _residue_powers(ctx.q_hat_residue, max((b for _, b in f.terms), default=0), ctx.modulus)
    return BivarPoly._clean(ctx, {
        (a, b): scaled_mul(p, t, scaled_from_residue(p, N, q_pows[b]))
        for (a, b), t in f.terms.items()
    })


def expand_in_c_basis(f: BivarPoly) -> list[PadicScaled]:
    """Coefficients lambda_0..lambda_n of f over {u**(n-s) * c_s}.

    f must be homogeneous of some weight n.  Works by evaluation at
    (1, q_hat**s) for s = 0..n: every c_r with r > s vanishes there and
    c_s evaluates to 1, so the evaluations determine the coefficients
    through the triangular system

        f(1, q_hat**s) = sum_{r <= s} lambda_r * c_r(1, q_hat**s)

    whose multipliers c_r(1, q_hat**s) are exactly the Gaussian
    binomials [s, r] at q_hat, honest ring elements, read from the
    residue q-Pascal rows of qcalc, so no polynomial in q is built.
    Solving this way never multiplies one extracted coefficient back
    into the negative powers of p inside a c polynomial, so precision
    loss does not compound across steps.  The expansion is verified by
    rebuilding f; a mismatch means the context precision cannot support
    this weight.
    """
    ctx = f.ctx
    n = f.weight()
    if n is None:
        raise DomainError("expansion needs a nonzero homogeneous polynomial")
    q_hat = ctx.q_hat()
    out: list[PadicScaled] = []
    for s in range(n + 1):
        acc = f.substitute(1, ctx.q_hat_pow(s))
        for r, lam in enumerate(out):
            if not lam.is_zero():
                acc = acc - lam * qbinom_eval(s, r, q_hat)
        out.append(acc)
    rebuilt = BivarPoly.zero(ctx)
    for s, lam in enumerate(out):
        if not lam.is_zero():
            rebuilt = rebuilt + (c_poly(ctx, s) * BivarPoly.monomial(ctx, n - s, 0)).scale(lam)
    if rebuilt != f:
        raise PrecisionExhaustedError("c-basis expansion failed to rebuild its input")
    return out


class IntegralityResult(NamedTuple):
    """The two integrality verdicts for a homogeneous polynomial."""

    cond1: bool  # every c-basis coefficient lies in Z_p
    cond2: bool  # coefficient of u**a * v**b has valuation >= -(a+b)


def check_integrality(f: BivarPoly) -> IntegralityResult:
    lambdas = expand_in_c_basis(f)
    cond1 = all(lam.is_padic_integer() for lam in lambdas)
    cond2 = all(val >= -(a + b) for (a, b), (val, _, _) in f.terms.items())
    return IntegralityResult(cond1=cond1, cond2=cond2)


def expand_in_g_basis(f: BivarPoly) -> list[PadicScaled]:
    """Coefficients mu_0..mu_n of f over {g_{n,s}}, n the weight of f.

    Derived from the c-basis expansion: u**(n-s) * c_s differs from
    g_{n,s} by the exact power p**max(0, nu(s!) - (n-s)).
    """
    n = f.weight()
    if n is None:
        raise DomainError("expansion needs a nonzero homogeneous polynomial")
    p = f.ctx.p
    out = []
    for s, lam in enumerate(expand_in_c_basis(f)):
        shift = max(0, nu_factorial(p, s) - (n - s))
        out.append(lam.scale_by_p_power(-shift))
    return out


def sample_integrality(f: BivarPoly, trials: int, rng) -> bool:
    """Check condition (1) by substitution at points congruent to 1 mod p.

    Probes the coefficient-reading points (1, q_hat**j) first: if any
    expansion coefficient fails to be integral, the first failing one
    appears undiluted at its own reading point, so these probes refute
    every condition-(1) failure.  The remaining trials draw random
    u, v in 1 + pZ_p as independent spot checks.
    """
    ctx = f.ctx
    p, M = ctx.p, ctx.modulus
    parts = f.graded_parts()
    for weight, part in parts.items():
        for j in range(weight + 1):
            if not part.substitute(1, pow(ctx.q_hat_residue, j, M)).is_padic_integer():
                return False
    for _ in range(trials):
        u_val = 1 + p * rng.randrange(M // p)
        v_val = 1 + p * rng.randrange(M // p)
        for part in parts.values():
            if not part.substitute(u_val, v_val).is_padic_integer():
                return False
    return True
