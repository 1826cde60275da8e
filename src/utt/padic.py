"""Precision-capped p-adic integers and scaled p-adic numbers.

All arithmetic happens inside a PadicContext, which fixes an odd prime p,
a precision exponent N (values are exact modulo p**N) and a base unit q
whose multiplicative order modulo p**2 is p*(p-1).  The derived unit
q_hat = q**(p-1) satisfies q_hat = 1 mod p but not mod p**2; it drives
every q-binomial evaluation elsewhere in the package.

Two value types live here:

* PadicInt      -- a canonical residue in [0, p**N), a ring element.
* PadicScaled   -- p**val * unit with an explicit significant-digit
                   count, closed under division by units and by p.

Both are immutable.  Arithmetic that mixes values from different
contexts raises ContextMismatchError rather than guessing; == between
them is False.

Every ring value enters the package's int kernels through one door,
PadicContext.residue: an int is reduced mod p**N, and a PadicInt must
belong to the context.  The operators of both value types coerce their
operands through it too.

The precision rules of PadicScaled live in the scaled_* functions, on
plain (val, unit, sig) triples with None for zero: PadicScaled and each
BivarPoly coefficient tuple call them.  Inline copies are kept in step:
the product rule in the convolution of BivarPoly.__mul__, and the sum
rule, reset to the exact zero included, in the Horner kernel
utt.basis._horner_values, which evaluates one part at unit points.
"""

from __future__ import annotations

from typing import Union

from .errors import (
    BadPrecisionError,
    ContextMismatchError,
    DomainError,
    InvariantError,
    NotAUnitError,
    NotPrimeError,
    NotPrimitiveError,
    PrecisionExhaustedError,
)


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine at the scales used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def order_mod_p_squared(q: int, p: int) -> int:
    """Order of q modulo p**2 for an odd prime p, or 0 if q is not a unit.

    Found with a few modular powers: the unit group has order p*(p-1),
    so the order is p*(p-1) with each prime factor r divided out for as
    long as q**(order/r) is still 1.  p-1 is factored by trial division.
    """
    if q % p == 0:
        return 0
    modulus = p * p
    order = p * (p - 1)
    primes, rest, d = {p}, p - 1, 2
    while d * d <= rest:
        while rest % d == 0:
            primes.add(d)
            rest //= d
        d += 1
    if rest > 1:
        primes.add(rest)
    for r in primes:
        while order % r == 0 and pow(q, order // r, modulus) == 1:
            order //= r
    return order


def nu_int(p: int, n: int) -> int:
    """p-adic valuation of a nonzero ordinary integer."""
    if p < 2:
        raise DomainError(f"valuation needs a base p >= 2, got {p}")
    if n == 0:
        raise DomainError("valuation of 0 is not a finite integer")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu_factorial(p: int, k: int) -> int:
    """Valuation of k! via the floor-sum formula sum_i floor(k / p**i)."""
    if p < 2:
        raise DomainError(f"factorial valuation needs a base p >= 2, got {p}")
    if k < 0:
        raise DomainError("factorial valuation needs k >= 0")
    total = 0
    q = k // p
    while q:
        total += q
        q //= p
    return total


class PadicContext:
    """Fixed arithmetic universe: odd prime p, precision N, base unit q.

    Identity is by (p, N, q); the remaining fields are derived.
    q_hat_residue is q**(p-1) mod p**N.  Immutable, and equal and hashed
    by its five fields, since contexts are lru_cache keys.
    """

    __slots__ = ("p", "N", "q", "modulus", "q_hat_residue")

    def __init__(self, p: int, N: int, q: int, modulus: int, q_hat_residue: int):
        for name, value in zip(self.__slots__, (p, N, q, modulus, q_hat_residue)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.p, self.N, self.q, self.modulus, self.q_hat_residue)
                == (other.p, other.N, other.q, other.modulus, other.q_hat_residue))

    def __hash__(self) -> int:
        return hash((self.p, self.N, self.q, self.modulus, self.q_hat_residue))

    def from_int(self, value: int) -> PadicInt:
        return PadicInt(self, value)

    def residue(self, v: IntLike) -> int:
        """The canonical residue of a ring value of this context.

        An int is reduced mod p**N; a PadicInt must come from this
        context (tested by identity first, then by value) and gives its
        residue.  Anything else is a TypeError.
        """
        if isinstance(v, PadicInt):
            if v.ctx is not self and v.ctx != self:
                raise ContextMismatchError(f"{self} vs {v.ctx}")
            return v.residue
        if isinstance(v, int):
            return v % self.modulus
        raise TypeError(f"cannot use {type(v).__name__} as a ring value")

    def zero(self) -> PadicInt:
        return PadicInt(self, 0)

    def one(self) -> PadicInt:
        return PadicInt(self, 1)

    def q_hat(self) -> PadicInt:
        return PadicInt(self, self.q_hat_residue)

    def q_hat_pow(self, k: int) -> PadicInt:
        """q_hat**k, with negative k allowed since q_hat is a unit."""
        return PadicInt(self, pow(self.q_hat_residue, k, self.modulus))

    def __repr__(self) -> str:
        return f"PadicContext(p={self.p}, N={self.N}, q={self.q})"


def make_context(p: int, q: int, N: int) -> PadicContext:
    """Validate (p, q, N) and build the context.

    q must be a unit of full order p*(p-1) modulo p**2; this forces
    q_hat = q**(p-1) to be 1 mod p but not 1 mod p**2, the exact
    property the entry formulas rely on.
    """
    if not isinstance(N, int) or N < 1:
        raise BadPrecisionError(f"precision exponent must be a positive integer, got {N!r}")
    if not isinstance(p, int) or p == 2 or not is_prime(p):
        raise NotPrimeError(f"need an odd prime, got {p!r}")
    if not isinstance(q, int) or not 2 <= q < p * p:
        raise NotPrimitiveError(f"q must satisfy 2 <= q < p**2, got {q!r}")
    order = order_mod_p_squared(q, p)
    if order != p * (p - 1):
        raise NotPrimitiveError(
            f"q={q} has order {order} modulo {p}**2, need {p * (p - 1)}"
        )
    modulus = p**N
    q_hat = pow(q, p - 1, modulus)
    ctx = PadicContext(p=p, N=N, q=q, modulus=modulus, q_hat_residue=q_hat)
    # Order p*(p-1) guarantees both congruence facts; cheap to re-check.
    if q_hat % p != 1:
        raise InvariantError(f"q_hat = {q}**{p - 1} is not 1 mod {p}")
    if N >= 2 and q_hat % (p * p) == 1:
        raise InvariantError(f"q_hat = {q}**{p - 1} is 1 mod {p}**2")
    return ctx


IntLike = Union["PadicInt", int]

# A scaled p-adic as a plain triple: None for zero, else (val, unit, sig)
# with 1 <= sig <= N and unit a canonical residue mod p**sig prime to p.
Triple = Union[tuple[int, int, int], None]


def scaled_from_residue(p: int, N: int, r: int) -> Triple:
    """The triple of a canonical residue r in [0, p**N)."""
    if r == 0:
        return None
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return (v, r, N - v)


# p**e for e = 0, 1, ... in one list per prime, read by the scaled kernels.
# They ask for no exponent above the largest sig they are given (at most the
# N of a context), and BivarPoly.__mul__ reads it up to N; the Horner
# kernel of utt.basis asks for N plus the spread of the coefficient
# valuations it sums, which bounds each list.  Each kernel indexes the
# table itself: a helper call per operation would cost about half of what
# the table saves.
_P_POWERS: dict[int, list[int]] = {}


def _p_powers(p: int, e: int) -> list[int]:
    """The power table of p, grown to hold p**e."""
    table = _P_POWERS.setdefault(p, [1])
    while len(table) <= e:
        table.append(table[-1] * p)
    return table


def scaled_mul(p: int, x: Triple, y: Triple) -> Triple:
    """x * y; the product knows as many digits as the vaguer factor.

    BivarPoly.__mul__ applies this rule inline to its term products, so a
    change to it here must be made there too.
    """
    if x is None or y is None:
        return None
    s = x[2] if x[2] < y[2] else y[2]
    try:
        m = _P_POWERS[p][s]
    except (KeyError, IndexError):
        m = _p_powers(p, s)[s]
    return (x[0] + y[0], x[1] * y[1] % m, s)


def scaled_add(p: int, x: Triple, y: Triple) -> Triple:
    """x + y after aligning valuations.

    Digits of the sum are trustworthy only where both summands are, and
    the valuation the sum gains costs as many digits.  Cancellation
    through the whole known range gives the canonical zero, which keeps
    no record of the digits it was known to, so the order of a longer
    sum matters once a partial sum cancels.  A summand that knows no
    digit (sig < 1, never true of a canonical triple) raises
    PrecisionExhaustedError.

    utt.basis._horner_values sums by Horner at unit points but
    reproduces this rule, the reset to the exact zero included, so a
    change to the cancellation rule here must be made there too.
    """
    if x is None:
        return y
    if y is None:
        return x
    if x[0] > y[0]:
        x, y = y, x
    delta = y[0] - x[0]
    s = x[2] if x[2] < delta + y[2] else delta + y[2]
    if s < 1:
        raise PrecisionExhaustedError("addition lost every significant digit")
    try:
        m = _P_POWERS[p][s]
    except (KeyError, IndexError):
        m = _p_powers(p, s)[s]
    # y * p**delta vanishes mod p**s once delta >= s; below s the table holds p**delta.
    r = (x[1] + y[1] * _P_POWERS[p][delta]) % m if delta < s else x[1] % m
    if r == 0:
        return None
    w = 0
    while r % p == 0:
        r //= p
        w += 1
    return (x[0] + w, r, s - w)


def scaled_neg(p: int, x: Triple) -> Triple:
    if x is None:
        return None
    try:
        m = _P_POWERS[p][x[2]]
    except (KeyError, IndexError):
        m = _p_powers(p, x[2])[x[2]]
    return (x[0], -x[1] % m, x[2])


def scaled_shift(x: Triple, m: int) -> Triple:
    """x * p**m for any integer m; no digit is gained or lost."""
    if x is None:
        return None
    return (x[0] + m, x[1], x[2])


def scaled_eq(p: int, x: Triple, y: Triple) -> bool:
    """Equality on the digits both sides know."""
    if x is None or y is None:
        return x is y
    if x[0] != y[0]:
        return False
    s = x[2] if x[2] < y[2] else y[2]
    try:
        m = _P_POWERS[p][s]
    except (KeyError, IndexError):
        m = _p_powers(p, s)[s]
    return x[1] % m == y[1] % m


class PadicInt:
    """Element of Z/p**N treated as a p-adic integer known to N digits."""

    __slots__ = ("ctx", "residue")

    def __init__(self, ctx: PadicContext, value: int):
        self.ctx = ctx
        self.residue = value % ctx.modulus

    def _coerce(self, other: IntLike) -> int:
        """The residue of a ring value, or NotImplemented for any other type."""
        if isinstance(other, (PadicInt, int)):
            return self.ctx.residue(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue + other)

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue - other)

    def __rsub__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, other - self.residue)

    def __mul__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue * other)

    __rmul__ = __mul__

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.ctx, -self.residue)

    def __pow__(self, k: int) -> "PadicInt":
        if not isinstance(k, int) or k < 0:
            raise DomainError("PadicInt exponent must be a nonnegative integer")
        return PadicInt(self.ctx, pow(self.residue, k, self.ctx.modulus))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = PadicInt(self.ctx, other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.residue == other.residue

    # Unhashable: equal to the int of its residue, whose hash differs.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PadicInt({self.residue} mod {self.ctx.p}^{self.ctx.N})"

    def is_zero(self) -> bool:
        return self.residue == 0

    def inverse(self) -> "PadicInt":
        if self.residue % self.ctx.p == 0:
            raise NotAUnitError(f"{self!r} is divisible by {self.ctx.p}")
        return PadicInt(self.ctx, pow(self.residue, -1, self.ctx.modulus))

    def valuation(self) -> int:
        """Largest v with p**v dividing the residue.

        A zero residue returns N, which means "at least N": exact zero
        and any multiple of p**N are indistinguishable at this precision.
        """
        if self.residue == 0:
            return self.ctx.N
        return nu_int(self.ctx.p, self.residue)


class PadicScaled:
    """p**val * unit with explicit significant-digit tracking.

    The unit residue is stored canonically reduced modulo p**sig, where
    sig counts the p-adic digits actually known.  Multiplication and
    inversion keep sig; addition re-aligns valuations and can lose
    digits, and raises PrecisionExhaustedError once fewer than one
    digit survives.  Exact cancellation at the available precision
    collapses to the canonical zero (val None, unit 0, sig N).
    """

    __slots__ = ("ctx", "val", "unit", "sig")

    def __init__(self, ctx: PadicContext, val: int | None, unit: int, sig: int):
        """Validate and reduce; see _from_triple for canonical input."""
        if val is None:
            unit, sig = 0, ctx.N
        else:
            if sig < 1:
                raise PrecisionExhaustedError("no significant digits left")
            sig = min(sig, ctx.N)
            unit %= ctx.p**sig
            if unit % ctx.p == 0:
                raise DomainError("unit part must be prime to p")
        self.ctx = ctx
        self.val = val
        self.unit = unit
        self.sig = sig

    @classmethod
    def _from_triple(cls, ctx: PadicContext, t: Triple) -> "PadicScaled":
        """Wrap a canonical triple of ctx as is, without re-validation."""
        x = object.__new__(cls)
        x.ctx = ctx
        if t is None:
            x.val, x.unit, x.sig = None, 0, ctx.N
        else:
            x.val, x.unit, x.sig = t
        return x

    def triple(self) -> Triple:
        """(val, unit, sig), or None for zero."""
        return None if self.val is None else (self.val, self.unit, self.sig)

    @classmethod
    def zero(cls, ctx: PadicContext) -> "PadicScaled":
        return cls._from_triple(ctx, None)

    @classmethod
    def from_int(cls, ctx: PadicContext, n: int) -> "PadicScaled":
        return cls._from_triple(ctx, scaled_from_residue(ctx.p, ctx.N, n % ctx.modulus))

    def is_zero(self) -> bool:
        return self.val is None

    def is_padic_integer(self) -> bool:
        """True when the value lies in Z_p at the known precision."""
        return self.val is None or self.val >= 0

    def valuation(self) -> int | None:
        """val, or None for the zero form (valuation at least N)."""
        return self.val

    def _coerce(self, other) -> "PadicScaled":
        if isinstance(other, PadicScaled):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, (PadicInt, int)):
            return PadicScaled.from_int(self.ctx, self.ctx.residue(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScaled._from_triple(self.ctx, scaled_add(self.ctx.p, self.triple(), other.triple()))

    __radd__ = __add__

    def __neg__(self) -> "PadicScaled":
        return PadicScaled._from_triple(self.ctx, scaled_neg(self.ctx.p, self.triple()))

    def __sub__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScaled._from_triple(self.ctx, scaled_mul(self.ctx.p, self.triple(), other.triple()))

    __rmul__ = __mul__

    def inverse(self) -> "PadicScaled":
        if self.is_zero():
            raise NotAUnitError("cannot invert zero")
        p_sig = self.ctx.p**self.sig
        return PadicScaled(self.ctx, -self.val, pow(self.unit, -1, p_sig), self.sig)

    def scale_by_p_power(self, m: int) -> "PadicScaled":
        return PadicScaled._from_triple(self.ctx, scaled_shift(self.triple(), m))

    def __eq__(self, other: object) -> bool:
        """Equality on known digits; a value of another context is unequal."""
        if isinstance(other, PadicInt):
            other = PadicScaled.from_int(other.ctx, other.residue)
        elif isinstance(other, int):
            other = PadicScaled.from_int(self.ctx, other)
        if not isinstance(other, PadicScaled):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        return scaled_eq(self.ctx.p, self.triple(), other.triple())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return f"PadicScaled(0; p={self.ctx.p})"
        return f"PadicScaled({self.ctx.p}^{self.val} * {self.unit} [{self.sig} digits])"
