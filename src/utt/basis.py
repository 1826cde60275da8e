"""Bivariate polynomials over scaled p-adics and the integral basis.

Polynomials live in span{u**a * v**b} with scaled p-adic coefficients, so
negative powers of p are first-class.  Each is homogeneous and stored as
its weight and one coefficient tuple, since the distinguished family

    c_k = prod_{i<k} (v - q_hat**i * u) / (q_hat**k - q_hat**i)
    f_k = p**nu(k!) * c_k
    F_{i,j,k} = u**i * (u/p)**j * f_k
    g_{m,l}   = the F-element of weight m built on f_l

is homogeneous throughout.  It is constructed here together with the
two integrality conditions that characterize which weight-n
combinations lie in the integral subring, and the substitution action
psi: u -> u, v -> q_hat * v.

Expansion in the c-basis works by evaluation: c_r vanishes at
(u, v) = (1, q_hat**s) for r > s and equals 1 at r = s, so peeling off
one coefficient per evaluation point is exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

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
    out = [1]
    for _ in range(e):
        out.append(out[-1] * x % M)
    return out


def _horner_values(ctx: PadicContext, row: Sequence[Triple], ts: Sequence[int]) -> list[Triple]:
    """A nonzero polynomial at (u, v) = (1, t) for each unit residue t in ts.

    row is its coefficient tuple, entry b the triple of u**(n-b) * v**b.
    Horner in decreasing b,

        H_b = H_(b+1) * t + unit_b * p**(val_b - low),

    low the least coefficient valuation, is the sorted chain of
    substitute divided by the unit t**b (a None entry only multiplies
    by t).  So the two agree on the least precision val + sig (a unit
    monomial has valuation 0), on every reset and on the final
    residue.  H is kept reduced mod A = p**(prec - low), prec the least
    val + sig so far, since A only shrinks until a reset; like
    scaled_add, H starts afresh from the exact zero whenever it is 0
    mod A.  The plan is built once for all the points.
    """
    p, N = ctx.p, ctx.N
    vals = [t[0] for t in row if t is not None]
    low = min(vals)
    pp = _p_powers(p, max(vals) - low + N)
    plan = [None if c is None else (c[1] * pp[c[0] - low], c[0] - low + c[2]) for c in reversed(row)]
    out: list[Triple] = []
    for t in ts:
        acc, e, A = 0, None, 1  # H scaled by p**-low, prec - low (None after a reset), p**e
        for term in plan:
            if term is None:
                acc = acc * t % A
                continue
            c, cap = term
            if e is None or cap < e:
                e, A = cap, pp[cap]
            acc = (acc * t + c) % A
            if acc == 0:
                e = None
        if e is None:
            out.append(None)
        else:
            w = nu_int(p, acc)
            out.append((low + w, acc // pp[w], e - w))
    return out


class BivarPoly:
    """Homogeneous polynomial in two variables u, v with scaled p-adic coefficients.

    n is the weight, the total degree of every term, or None for zero;
    coeffs[b] is the (val, unit, sig) triple of utt.padic of u**(n-b) *
    v**b, or None for zero, and coeffs never ends in None, so equal terms
    give equal coeffs.  Terms of two weights, in the constructor or
    under +, raise DomainError.  Instances are never mutated.  A row
    that may end in None, such as a sum's, becomes a polynomial through
    _wrap; __mul__ and scale_p build theirs as they are, since a
    product's last term and a shift's Nones need no trim.
    Coefficients cross the API as PadicScaled.  Sums run in one canonical
    order, by decreasing b, which decides where realignment loses digits.
    """

    __slots__ = ("ctx", "n", "coeffs")

    def __init__(self, ctx: PadicContext, terms: Mapping[tuple[int, int], PadicScaled]):
        n, row = None, []
        for (a, b), coeff in terms.items():
            if a < 0 or b < 0:
                raise BadIndexError(f"negative exponent pair ({a},{b})")
            t = _to_triple(ctx, coeff)
            if t is not None:
                if n is None:
                    n = a + b
                elif a + b != n:
                    raise DomainError(f"terms of weights {n} and {a + b}: a BivarPoly is homogeneous")
                row.extend([None] * (b + 1 - len(row)))
                row[b] = t
        self.ctx, self.n, self.coeffs = ctx, n, tuple(row)

    @classmethod
    def _wrap(cls, ctx: PadicContext, n: int | None, row: Sequence[Triple]) -> "BivarPoly":
        """The weight-n polynomial of a row that may end in None: the trailing Nones are cut,
        and a row of None alone gives zero."""
        end = len(row)
        while end and row[end - 1] is None:
            end -= 1
        poly = object.__new__(cls)
        poly.ctx, poly.n, poly.coeffs = ctx, n if end else None, tuple(row[:end])
        return poly

    @classmethod
    def zero(cls, ctx: PadicContext) -> "BivarPoly":
        return cls._wrap(ctx, None, ())

    @classmethod
    def monomial(cls, ctx: PadicContext, a: int, b: int, coeff=1) -> "BivarPoly":
        return cls(ctx, {(a, b): coeff})

    @classmethod
    def u_hat(cls, ctx: PadicContext) -> "BivarPoly":
        return cls.monomial(ctx, 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def weight(self) -> int | None:
        """Total degree of every term, or None for zero."""
        return self.n

    @property
    def terms(self) -> Mapping[tuple[int, int], Triple]:
        """The nonzero coefficients as {(a, b): triple}, by increasing b; read-only."""
        n = self.n
        return MappingProxyType({(n - b, b): t for b, t in enumerate(self.coeffs) if t is not None})

    def coefficient(self, a: int, b: int) -> PadicScaled:
        row = self.coeffs
        return PadicScaled._from_triple(self.ctx, row[b] if a + b == self.n and 0 <= b < len(row) else None)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
        if other.n is None:
            return self
        if self.n is None:
            return BivarPoly._wrap(self.ctx, other.n, other.coeffs)
        if self.n != other.n:
            raise DomainError(f"sum of weights {self.n} and {other.n}: a BivarPoly is homogeneous")
        p, ys = self.ctx.p, other.coeffs
        acc = list(self.coeffs)
        acc.extend([None] * (len(ys) - len(acc)))
        for b, y in enumerate(ys):
            acc[b] = scaled_add(p, acc[b], y)
        return BivarPoly._wrap(self.ctx, self.n, acc)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        """The coefficient rows convolved over b, term products by scaled_mul's rule on unpacked
        triples, summed by scaled_add in the left's canonical order (b2 up meets b1 down).
        The last coefficient is the product of the two last ones, so never None."""
        ctx = self.ctx
        if ctx is not other.ctx and ctx != other.ctx:
            raise ContextMismatchError(f"{ctx} vs {other.ctx}")
        xs, ys = self.coeffs, other.coeffs
        if not xs or not ys:
            return BivarPoly.zero(ctx)
        p, pw = ctx.p, _p_powers(ctx.p, ctx.N)
        acc: list[Triple] = [None] * (len(xs) + len(ys) - 1)
        for b2, y in enumerate(ys):
            if y is None:
                continue
            v2, u2, s2 = y
            for b, x in enumerate(xs, b2):  # b = b1 + b2
                if x is not None:
                    v1, u1, s1 = x
                    s = s1 if s1 < s2 else s2
                    prod = (v1 + v2, u1 * u2 % pw[s], s)
                    prev = acc[b]
                    acc[b] = prod if prev is None else scaled_add(p, prev, prod)
        poly = object.__new__(BivarPoly)
        poly.ctx, poly.n, poly.coeffs = ctx, self.n + other.n, tuple(acc)
        return poly

    def scale(self, factor) -> "BivarPoly":
        p, f = self.ctx.p, _to_triple(self.ctx, factor)  # a zero factor gives a row of None
        return BivarPoly._wrap(self.ctx, self.n, [scaled_mul(p, t, f) for t in self.coeffs])

    def scale_p(self, m: int) -> "BivarPoly":
        """Multiply by p**m (m may be negative); p**0 gives self back unchanged."""
        if m == 0:
            return self
        poly = object.__new__(BivarPoly)
        poly.ctx, poly.n = self.ctx, self.n
        poly.coeffs = tuple([None if t is None else (t[0] + m, t[1], t[2]) for t in self.coeffs])
        return poly

    def substitute(self, u_value: PadicInt | int, v_value: PadicInt | int) -> PadicScaled:
        """Evaluate at ring elements (u, v) = (u_value, v_value).

        The terms are summed one by one with scaled_add, in decreasing b
        (which is sorted exponent order), each the scaled_mul of its
        coefficient and the residue of its monomial, from tables of u**a
        and v**b mod p**N built for this call.  So a term whose monomial
        residue has valuation w knows val + min(sig + w, N) absolute
        digits, a monomial that evaluates to zero adds nothing, and the
        sum starts afresh from the exact zero whenever a partial sum
        cancels through its known digits.
        """
        ctx, n, row = self.ctx, self.n, self.coeffs
        p, N, M = ctx.p, ctx.N, ctx.modulus
        u, v = ctx.residue(u_value), ctx.residue(v_value)
        acc = None
        if row:
            u_pows = _residue_powers(u, n, M)
            v_pows = _residue_powers(v, len(row) - 1, M)
            for b in reversed(range(len(row))):
                if row[b] is not None:
                    r = u_pows[n - b] * v_pows[b] % M
                    acc = scaled_add(p, acc, scaled_mul(p, row[b], scaled_from_residue(p, N, r)))
        return PadicScaled._from_triple(ctx, acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        xs, ys = self.coeffs, other.coeffs  # identical rows agree on every digit, so no scaled_eq runs
        return self.n == other.n and (xs == ys or len(xs) == len(ys) and all(
            map(scaled_eq, [self.ctx.p] * len(xs), xs, ys)))

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
    p, q_hat = ctx.p, ctx.q ** (ctx.p - 1)
    num = [1]  # num[b]: the coefficient of u**(i-b) * v**b in prod_{i' < i} (v - q_hat**i' * u)
    for i in range(k):
        qi = q_hat**i
        nxt = [0] + num
        for b, coeff in enumerate(num):
            nxt[b] -= qi * coeff
        num = nxt
    den = math.prod(q_hat**k - q_hat**i for i in range(k))
    d = nu_int(p, den) if k else 0
    den_unit_inv = pow(den // p**d, -1, ctx.modulus)
    row = []
    for coeff in num:  # +-e_{k-b}(1, q_hat, ..., q_hat**(k-1)), never zero
        v = nu_int(p, coeff)
        row.append((v - d, (coeff // p**v) * den_unit_inv % ctx.modulus, ctx.N))
    return BivarPoly._wrap(ctx, k, row)


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
    f = c_poly(ctx, k).scale_p(nu - j)
    return BivarPoly._wrap(ctx, f.n + i + j, f.coeffs)


def g_poly(ctx: PadicContext, m: int, l: int) -> BivarPoly:
    """The weight-m basis element built on f_l, for 0 <= l <= m."""
    if not 0 <= l <= m:
        raise BadIndexError(f"g_poly needs 0 <= l <= m, got (m,l)=({m},{l})")
    j = min(m - l, nu_factorial(ctx.p, l))
    return big_F(ctx, m - l - j, j, l)


def beta(p: int, m: int, i: int) -> int:
    """Exact p-divisibility forced on the (m, i) expansion coefficient."""
    if m < 0 or i < 0:
        raise BadIndexError(f"beta needs m, i >= 0, got ({m},{i})")
    if m > nu_factorial(p, i) + i:
        return nu_factorial(p, m)
    return nu_factorial(p, m) + m - nu_factorial(p, i) - i


def psi_action(f: BivarPoly) -> BivarPoly:
    """The ring map fixing u and sending v to q_hat * v."""
    ctx, p, row = f.ctx, f.ctx.p, f.coeffs
    q_pows = _residue_powers(ctx.q_hat_residue, len(row) - 1, ctx.modulus)
    qs = [scaled_from_residue(p, ctx.N, r) for r in q_pows]
    return BivarPoly._wrap(ctx, f.n, tuple(map(scaled_mul, [p] * len(row), row, qs)))


def expand_in_c_basis(f: BivarPoly) -> list[PadicScaled]:
    """Coefficients lambda_0..lambda_n of f over {u**(n-s) * c_s}.

    f must be nonzero, of weight n.  Works by evaluation at
    (1, q_hat**s) for s = 0..n: every c_r with r > s vanishes there and
    c_s evaluates to 1, so the evaluations determine the coefficients
    through the triangular system

        f(1, q_hat**s) = sum_{r <= s} lambda_r * c_r(1, q_hat**s)

    whose multipliers c_r(1, q_hat**s) are exactly the Gaussian
    binomials [s, r] at q_hat, honest ring elements, read from the
    residue q-Pascal rows of qcalc, so no polynomial in q is built.  All
    n + 1 evaluations come from one Horner pass over f's coefficient
    tuple, and a row of the system subtracts only the nonzero lambda_r.
    Solving this way never multiplies one extracted coefficient back
    into the negative powers of p inside a c polynomial, so precision
    loss does not compound across steps.  The expansion is verified by
    rebuilding f; a mismatch means the context precision cannot support
    this weight.
    """
    ctx = f.ctx
    n = f.weight()
    if n is None:
        raise DomainError("expansion needs a nonzero polynomial")
    q_hat = ctx.q_hat()
    points = _residue_powers(ctx.q_hat_residue, n, ctx.modulus)
    out: list[PadicScaled] = []
    nonzero: list[tuple[int, PadicScaled]] = []  # (r, lambda_r) with lambda_r != 0
    for s, value in enumerate(_horner_values(ctx, f.coeffs, points)):
        acc = PadicScaled._from_triple(ctx, value)
        for r, lam in nonzero:
            acc = acc - lam * qbinom_eval(s, r, q_hat)
        out.append(acc)
        if not acc.is_zero():
            nonzero.append((s, acc))
    rebuilt = sum(((c_poly(ctx, s) * BivarPoly.monomial(ctx, n - s, 0)).scale(lam)
                   for s, lam in nonzero), BivarPoly.zero(ctx))
    if rebuilt != f:
        raise PrecisionExhaustedError("c-basis expansion failed to rebuild its input")
    return out


class IntegralityResult(NamedTuple):
    """The two integrality verdicts for a homogeneous polynomial."""

    cond1: bool  # every c-basis coefficient lies in Z_p
    cond2: bool  # coefficient of u**a * v**b has valuation >= -(a+b)


def check_integrality(f: BivarPoly) -> IntegralityResult:
    cond1 = all(lam.is_padic_integer() for lam in expand_in_c_basis(f))
    cond2 = all(t[0] >= -f.n for t in f.coeffs if t is not None)
    return IntegralityResult(cond1=cond1, cond2=cond2)


def expand_in_g_basis(f: BivarPoly) -> list[PadicScaled]:
    """Coefficients mu_0..mu_n of f over {g_{n,s}}, n the weight of f.

    Derived from the c-basis expansion: u**(n-s) * c_s differs from
    g_{n,s} by the exact power p**max(0, nu(s!) - (n-s)).
    """
    lambdas = expand_in_c_basis(f)
    n, p = len(lambdas) - 1, f.ctx.p
    return [lam.scale_by_p_power(-max(0, nu_factorial(p, s) - (n - s))) for s, lam in enumerate(lambdas)]


def sample_integrality(f: BivarPoly, trials: int, rng) -> bool:
    """Check condition (1) by substitution at points congruent to 1 mod p.

    Probes the coefficient-reading points (1, q_hat**j) first: if any
    expansion coefficient fails to be integral, the first failing one
    appears undiluted at its own reading point, so these probes refute
    every condition-(1) failure.  All the points are read in one Horner
    pass, before any random draw.  The remaining trials draw random u, v
    in 1 + pZ_p as independent spot checks.
    """
    ctx = f.ctx
    p, M = ctx.p, ctx.modulus
    if f.coeffs and not all(t is None or t[0] >= 0 for t in _horner_values(
            ctx, f.coeffs, _residue_powers(ctx.q_hat_residue, f.n, M))):
        return False
    for _ in range(trials):
        u_val, v_val = 1 + p * rng.randrange(M // p), 1 + p * rng.randrange(M // p)
        if not f.substitute(u_val, v_val).is_padic_integer():
            return False
    return True
