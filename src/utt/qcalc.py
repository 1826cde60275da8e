"""Gaussian binomial coefficients as exact integer polynomials in q.

The primary construction is the Pascal-style recurrence

    qbinom(n, i) = qbinom(n-1, i-1) + q**i * qbinom(n-1, i)

which stays inside Z[q] for all n, i.  The quotient-of-products form is
deliberately not used here; it survives only as an independent oracle
in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .errors import DomainError
from .padic import PadicInt


class QPoly:
    """Polynomial in q with integer coefficients, stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return QPoly(out)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    def shifted(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero():
            return self
        return QPoly((0,) * k + self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate at an ordinary integer (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_padic(self, x: PadicInt) -> PadicInt:
        """Evaluate at a PadicInt by Horner's scheme in ring arithmetic."""
        acc = x.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}q^{i}" if i > 1 else f"{head}q")
        return "QPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def parse(cls, data: list[int]) -> "QPoly":
        return cls(int(c) for c in data)


@lru_cache(maxsize=None)
def qbinom(n: int, i: int) -> QPoly:
    """Gaussian binomial [n choose i]_q via the q-Pascal recurrence.

    Out-of-range indices give the zero polynomial, matching the
    convention used by the matrix entry formulas.
    """
    if n < 0:
        raise DomainError("qbinom needs n >= 0")
    if i < 0 or i > n:
        return QPoly.zero()
    if i == 0 or i == n:
        return QPoly.one()
    return qbinom(n - 1, i - 1) + qbinom(n - 1, i).shifted(i)


def qbinom_eval(n: int, i: int, x: PadicInt | int):
    """[n choose i]_q evaluated at x, in the ring of x."""
    poly = qbinom(n, i)
    if isinstance(x, PadicInt):
        return poly.eval_padic(x)
    return poly(x)


def binom(n: int, k: int) -> int:
    """Ordinary binomial coefficient, 0 outside 0 <= k <= n."""
    if n < 0:
        raise DomainError("binom needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
