"""Gaussian binomial coefficients, as exact polynomials in q and as residues.

Both constructions use the Pascal-style recurrence

    [n, i] = [n-1, i-1] + q**i * [n-1, i]

qbinom runs it on exact polynomials in Z[q]; qbinom_residue runs it on
the values at one point x mod M, row by row, and builds no polynomial.
The verify suites only ever need [n, i] at q_hat mod p**N, so they read
the residue rows; the polynomials serve `utt qbinom` and the exact
evaluation at an int, which the tests compare the rows with.  The
quotient-of-products form is deliberately not used here; it survives
only as an independent oracle in the test suite.
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

    def shifted(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero():
            return self
        return QPoly((0,) * k + self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __call__(self, x: int) -> int:
        """Evaluate at an ordinary integer (Horner)."""
        acc = 0
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


# Rows of the q-Pascal triangle that one recursion may descend before it
# reaches a row the memo already holds.
QBINOM_STEP = 128


@lru_cache(maxsize=None)
def qbinom(n: int, i: int) -> QPoly:
    """Gaussian binomial [n choose i]_q via the q-Pascal recurrence.

    Out-of-range indices give the zero polynomial, matching the
    convention used by the matrix entry formulas.

    The memo is filled bottom-up first, at every QBINOM_STEP-th row of
    the cone of (n, i) in ascending order, so the recursion never runs
    more than QBINOM_STEP rows deep, however large n is.
    """
    if n < 0:
        raise DomainError("qbinom needs n >= 0")
    if i < 0 or i > n:
        return QPoly.zero()
    if i == 0 or i == n:
        return QPoly.one()
    for m in range(QBINOM_STEP, n, QBINOM_STEP):
        for j in range(max(1, i - (n - m)), min(i, m - 1) + 1):
            qbinom(m, j)
    return qbinom(n - 1, i - 1) + qbinom(n - 1, i).shifted(i)


# Bounded because the point and the modulus are the key: a sweep over
# contexts would otherwise keep the rows of every q_hat it met.  The
# rows up to n hold (n+1)(n+2)/2 residues per key.  16 is well above the
# 3 keys that `verify all` reads.
QBINOM_ROWS_CACHE_SIZE = 16


@lru_cache(maxsize=QBINOM_ROWS_CACHE_SIZE)
def _qbinom_rows(x: int, M: int) -> list[list[int]]:
    """The rows [k, 0..k] at x mod M built so far; qbinom_residue grows them."""
    return [[1]]


def qbinom_residue(n: int, i: int, x: int, M: int) -> int:
    """[n choose i]_q at q = x, as a residue mod M > 1.

    Read from the q-Pascal rows cached for (x mod M, M).  A missing row
    k is built from row k-1 on residues, x**j by running products, and
    is appended only once it is whole.  Out-of-range i gives 0.
    """
    if n < 0:
        raise DomainError("qbinom needs n >= 0")
    if i < 0 or i > n:
        return 0
    x %= M
    rows = _qbinom_rows(x, M)
    while len(rows) <= n:
        prev, row, xj = rows[-1], [1], 1
        for j in range(1, len(prev)):
            xj = xj * x % M
            row.append((prev[j - 1] + xj * prev[j]) % M)
        row.append(1)
        rows.append(row)
    return rows[n][i]


def qbinom_eval(n: int, i: int, x: PadicInt | int):
    """[n choose i]_q at x: a PadicInt at a PadicInt, an exact int at an int.

    At a PadicInt the value comes from the residue rows of
    qbinom_residue, and no polynomial is built.  At an int it is the
    polynomial qbinom(n, i) evaluated by Horner on exact ints.
    """
    if isinstance(x, PadicInt):
        ctx = x.ctx
        return PadicInt(ctx, qbinom_residue(n, i, x.residue, ctx.modulus))
    return qbinom(n, i)(x)


def binom(n: int, k: int) -> int:
    """Ordinary binomial coefficient, 0 outside 0 <= k <= n."""
    if n < 0:
        raise DomainError("binom needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
