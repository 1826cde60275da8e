"""Bivariate polynomials over scaled p-adics and the integral basis.

Polynomials live in span{u**a * v**b} with scaled p-adic coefficients, so
negative powers of p are first-class.  They are stored by total degree,
one coefficient tuple per weight, since the distinguished family

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
    """One part at (u, v) = (1, t) for each unit residue t in ts.

    row is a part's coefficient tuple, entry b the triple of
    u**(n-b) * v**b.  Horner in decreasing b,

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


def _trim(rows: Mapping[int, Sequence[Triple]]) -> dict[int, tuple[Triple, ...]]:
    """Rows as parts: in increasing weight, trailing zeros cut, empty rows dropped."""
    parts = {}
    for n in sorted(rows):
        row = rows[n]  # a list, or a tuple that already ends in a nonzero coefficient
        while row and row[-1] is None:
            row.pop()
        if row:
            parts[n] = tuple(row)
    return parts


class BivarPoly:
    """Polynomial in two variables u, v with scaled p-adic coefficients.

    parts maps each weight n, in increasing order, to a tuple whose
    entry b is the (val, unit, sig) triple of utt.padic of u**(n-b) *
    v**b, or None for zero; no tuple ends in None, so equal terms give
    equal parts.  Instances are never mutated.  Coefficients cross the
    API as PadicScaled.  Sums run in one canonical order, by weight and
    then by decreasing b, which decides where realignment loses digits.
    """

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx: PadicContext, terms: Mapping[tuple[int, int], PadicScaled]):
        rows: dict[int, list[Triple]] = {}
        for (a, b), coeff in terms.items():
            if a < 0 or b < 0:
                raise BadIndexError(f"negative exponent pair ({a},{b})")
            t = _to_triple(ctx, coeff)
            if t is not None:
                row = rows.setdefault(a + b, [])
                row.extend([None] * (b + 1 - len(row)))
                row[b] = t
        self.ctx, self.parts = ctx, _trim(rows)

    @classmethod
    def _wrap(cls, ctx: PadicContext, parts: dict[int, tuple[Triple, ...]]) -> "BivarPoly":
        """Wrap parts that already keep the invariants of the class."""
        poly = object.__new__(cls)
        poly.ctx, poly.parts = ctx, parts
        return poly

    @classmethod
    def zero(cls, ctx: PadicContext) -> "BivarPoly":
        return cls._wrap(ctx, {})

    @classmethod
    def monomial(cls, ctx: PadicContext, a: int, b: int, coeff=1) -> "BivarPoly":
        return cls(ctx, {(a, b): coeff})

    @classmethod
    def u_hat(cls, ctx: PadicContext) -> "BivarPoly":
        return cls.monomial(ctx, 1, 0)

    def is_zero(self) -> bool:
        return not self.parts

    def weight(self) -> int | None:
        """Common total degree of all terms, or None if mixed or zero."""
        return next(iter(self.parts)) if len(self.parts) == 1 else None

    @property
    def terms(self) -> Mapping[tuple[int, int], Triple]:
        """The nonzero coefficients as {(a, b): triple}, by weight and then b; read-only."""
        return MappingProxyType({(n - b, b): t for n, row in self.parts.items()
                                 for b, t in enumerate(row) if t is not None})

    def coefficient(self, a: int, b: int) -> PadicScaled:
        row = self.parts.get(a + b, ())
        return PadicScaled._from_triple(self.ctx, row[b] if 0 <= b < len(row) else None)

    def _check(self, other: "BivarPoly") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        self._check(other)
        p = self.ctx.p
        rows: dict[int, Sequence[Triple]] = dict(self.parts)
        for n, ys in other.parts.items():
            acc = list(rows.get(n, ()))
            acc.extend([None] * (len(ys) - len(acc)))
            for b, y in enumerate(ys):
                acc[b] = scaled_add(p, acc[b], y)
            rows[n] = acc
        return BivarPoly._wrap(self.ctx, _trim(rows))

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        """Each pair of parts convolved over b, term products by scaled_mul's rule on unpacked
        triples, summed by scaled_add in the left's canonical order (b2 up meets b1 down)."""
        self._check(other)
        p, pw = self.ctx.p, _p_powers(self.ctx.p, self.ctx.N)
        rows: dict[int, list[Triple]] = {}
        for n1, xs in self.parts.items():
            for n2, ys in other.parts.items():
                acc = rows.setdefault(n1 + n2, [])
                acc.extend([None] * (len(xs) + len(ys) - 1 - len(acc)))
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
        return BivarPoly._wrap(self.ctx, _trim(rows))

    def scale(self, factor) -> "BivarPoly":
        p, f = self.ctx.p, _to_triple(self.ctx, factor)  # a zero factor leaves rows of None
        return BivarPoly._wrap(self.ctx, _trim({n: [scaled_mul(p, t, f) for t in row]
                                                for n, row in self.parts.items()}))

    def scale_p(self, m: int) -> "BivarPoly":
        """Multiply by p**m (m may be negative); p**0 gives self back unchanged."""
        if m == 0:
            return self
        return BivarPoly._wrap(self.ctx, {n: tuple([None if t is None else (t[0] + m, t[1], t[2])
                                                 for t in row]) for n, row in self.parts.items()})

    def substitute(self, u_value: PadicInt | int, v_value: PadicInt | int) -> PadicScaled:
        """Evaluate at ring elements (u, v) = (u_value, v_value).

        The terms are summed one by one with scaled_add, in sorted
        exponent order (a part read in decreasing b), each the scaled_mul
        of its coefficient and the residue of its monomial, from tables
        of u**a and v**b mod p**N built for this call.  So a term whose
        monomial residue has valuation w knows val + min(sig + w, N)
        absolute digits, a monomial that evaluates to zero adds nothing,
        and the sum starts afresh from the exact zero whenever a partial
        sum cancels through its known digits.
        """
        ctx, parts = self.ctx, self.parts
        p, N, M = ctx.p, ctx.N, ctx.modulus
        u, v = ctx.residue(u_value), ctx.residue(v_value)
        u_pows = _residue_powers(u, max(parts, default=0), M)
        v_pows = _residue_powers(v, max(map(len, parts.values()), default=1) - 1, M)
        acc = None
        for a, b, t in sorted((n - b, b, t) for n, row in parts.items() for b, t in enumerate(row)
                              if t is not None):
            acc = scaled_add(p, acc, scaled_mul(p, t, scaled_from_residue(p, N, u_pows[a] * v_pows[b] % M)))
        return PadicScaled._from_triple(ctx, acc)

    def graded_parts(self) -> dict[int, "BivarPoly"]:
        """Split into homogeneous pieces keyed by total degree."""
        return {n: BivarPoly._wrap(self.ctx, {n: row}) for n, row in self.parts.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        p = self.ctx.p  # identical parts agree on every digit, so no scaled_eq runs on them
        return self.parts == other.parts or self.parts.keys() == other.parts.keys() and all(
            len(xs) == len(ys) and all(map(scaled_eq, [p] * len(xs), xs, ys))
            for xs, ys in zip(self.parts.values(), other.parts.values()))

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
    return BivarPoly._wrap(ctx, {k: tuple(row)})


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
    return BivarPoly._wrap(ctx, {n + i + j: row for n, row in f.parts.items()})


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
    ctx, p = f.ctx, f.ctx.p
    q_pows = _residue_powers(ctx.q_hat_residue, max(map(len, f.parts.values()), default=1) - 1, ctx.modulus)
    qs = [scaled_from_residue(p, ctx.N, r) for r in q_pows]
    return BivarPoly._wrap(ctx, {n: tuple(map(scaled_mul, [p] * len(row), row, qs))
                                 for n, row in f.parts.items()})


def expand_in_c_basis(f: BivarPoly) -> list[PadicScaled]:
    """Coefficients lambda_0..lambda_n of f over {u**(n-s) * c_s}.

    f must be homogeneous of some weight n.  Works by evaluation at
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
        raise DomainError("expansion needs a nonzero homogeneous polynomial")
    q_hat = ctx.q_hat()
    points = _residue_powers(ctx.q_hat_residue, n, ctx.modulus)
    out: list[PadicScaled] = []
    nonzero: list[tuple[int, PadicScaled]] = []  # (r, lambda_r) with lambda_r != 0
    for s, value in enumerate(_horner_values(ctx, f.parts[n], points)):
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
    cond2 = all(t[0] >= -n for n, row in f.parts.items() for t in row if t is not None)
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
    every condition-(1) failure.  Each part reads all its points in one
    Horner pass, before any random draw.  The remaining trials draw
    random u, v in 1 + pZ_p as independent spot checks.
    """
    ctx = f.ctx
    p, M = ctx.p, ctx.modulus
    points = _residue_powers(ctx.q_hat_residue, max(f.parts, default=0), M)
    if not all(t is None or t[0] >= 0 for n, row in f.parts.items()
               for t in _horner_values(ctx, row, points[:n + 1])):
        return False
    parts = f.graded_parts()
    for _ in range(trials):
        u_val, v_val = 1 + p * rng.randrange(M // p), 1 + p * rng.randrange(M // p)
        if not all(part.substitute(u_val, v_val).is_padic_integer() for part in parts.values()):
            return False
    return True
