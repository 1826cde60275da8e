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

Both are immutable.  Mixing values from different contexts raises
ContextMismatchError rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a modulo modulus, or 0 if a is not a unit there."""
    a %= modulus
    x = a
    for k in range(1, modulus + 1):
        if x == 1:
            return k
        x = (x * a) % modulus
    return 0


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


@dataclass(frozen=True)
class PadicContext:
    """Fixed arithmetic universe: odd prime p, precision N, base unit q.

    Identity is by (p, N, q); the remaining fields are derived.
    q_hat_residue is q**(p-1) mod p**N and rho = 2*(p-1) is the weight
    of the associated graded degree step.
    """

    p: int
    N: int
    q: int
    modulus: int
    q_hat_residue: int
    rho: int

    def from_int(self, value: int) -> PadicInt:
        return PadicInt(self, value)

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
    order = multiplicative_order(q, p * p)
    if order != p * (p - 1):
        raise NotPrimitiveError(
            f"q={q} has order {order} modulo {p}**2, need {p * (p - 1)}"
        )
    modulus = p**N
    q_hat = pow(q, p - 1, modulus)
    ctx = PadicContext(p=p, N=N, q=q, modulus=modulus, q_hat_residue=q_hat, rho=2 * (p - 1))
    # Order p*(p-1) guarantees both congruence facts; cheap to re-check.
    if q_hat % p != 1:
        raise InvariantError(f"q_hat = {q}**{p - 1} is not 1 mod {p}")
    if N >= 2 and q_hat % (p * p) == 1:
        raise InvariantError(f"q_hat = {q}**{p - 1} is 1 mod {p}**2")
    return ctx


IntLike = Union["PadicInt", int]


class PadicInt:
    """Element of Z/p**N treated as a p-adic integer known to N digits."""

    __slots__ = ("ctx", "residue")

    def __init__(self, ctx: PadicContext, value: int):
        self.ctx = ctx
        self.residue = value % ctx.modulus

    def _coerce(self, other: IntLike) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, int):
            return PadicInt(self.ctx, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue - other.residue)

    def __rsub__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, other.residue - self.residue)

    def __mul__(self, other: IntLike) -> "PadicInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.ctx, self.residue * other.residue)

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

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.N, self.ctx.q, self.residue))

    def __repr__(self) -> str:
        return f"PadicInt({self.residue} mod {self.ctx.p}^{self.ctx.N})"

    def is_zero(self) -> bool:
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.ctx.p != 0

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
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

    def to_scaled(self) -> "PadicScaled":
        return PadicScaled.from_padic_int(self)

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "N": self.ctx.N, "residue": str(self.residue)}

    @classmethod
    def parse(cls, data: dict, ctx: PadicContext) -> "PadicInt":
        if data["p"] != ctx.p or data["N"] != ctx.N:
            raise ContextMismatchError(f"serialized (p,N)=({data['p']},{data['N']}) vs {ctx}")
        return cls(ctx, int(data["residue"]))


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
    def zero(cls, ctx: PadicContext) -> "PadicScaled":
        return cls(ctx, None, 0, ctx.N)

    @classmethod
    def from_padic_int(cls, a: PadicInt) -> "PadicScaled":
        if a.residue == 0:
            return cls.zero(a.ctx)
        v = nu_int(a.ctx.p, a.residue)
        return cls(a.ctx, v, a.residue // a.ctx.p**v, a.ctx.N - v)

    @classmethod
    def from_int(cls, ctx: PadicContext, n: int) -> "PadicScaled":
        return cls.from_padic_int(PadicInt(ctx, n))

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
        if isinstance(other, PadicInt):
            return self._coerce(other.to_scaled())
        if isinstance(other, int):
            return PadicScaled.from_int(self.ctx, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = (self, other) if self.val <= other.val else (other, self)
        delta = b.val - a.val
        # Digits of the sum are trustworthy only where both summands are.
        s = min(a.sig, delta + b.sig)
        if s < 1:
            raise PrecisionExhaustedError("addition lost every significant digit")
        p = self.ctx.p
        r = (a.unit + b.unit * p**delta) % p**s
        if r == 0:
            # Cancellation through the whole known range: canonical zero.
            return PadicScaled.zero(self.ctx)
        w = nu_int(p, r)
        return PadicScaled(self.ctx, a.val + w, r // p**w, s - w)

    __radd__ = __add__

    def __neg__(self) -> "PadicScaled":
        if self.is_zero():
            return self
        return PadicScaled(self.ctx, self.val, -self.unit, self.sig)

    def __sub__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "PadicScaled":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PadicScaled.zero(self.ctx)
        s = min(self.sig, other.sig)
        return PadicScaled(self.ctx, self.val + other.val, self.unit * other.unit, s)

    __rmul__ = __mul__

    def inverse(self) -> "PadicScaled":
        if self.is_zero():
            raise NotAUnitError("cannot invert zero")
        p_sig = self.ctx.p**self.sig
        return PadicScaled(self.ctx, -self.val, pow(self.unit, -1, p_sig), self.sig)

    def scale_by_p_power(self, m: int) -> "PadicScaled":
        if self.is_zero():
            return self
        return PadicScaled(self.ctx, self.val + m, self.unit, self.sig)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PadicInt, int)):
            other = self._coerce(other)
        if not isinstance(other, PadicScaled):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.val != other.val:
            return False
        m = self.ctx.p ** min(self.sig, other.sig)
        return self.unit % m == other.unit % m

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return f"PadicScaled(0; p={self.ctx.p})"
        return f"PadicScaled({self.ctx.p}^{self.val} * {self.unit} [{self.sig} digits])"

    def to_json(self) -> dict:
        return {"val": self.val, "unit": str(self.unit), "sig": self.sig}

    @classmethod
    def parse(cls, data: dict, ctx: PadicContext) -> "PadicScaled":
        val = data["val"]
        if val is None:
            return cls.zero(ctx)
        return cls(ctx, int(val), int(data["unit"]), int(data["sig"]))
