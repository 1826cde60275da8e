"""Gaussian binomial coefficients, as exact polynomials in q and as residues.

Both constructions use the Pascal-style recurrence

    [n, i] = [n-1, i-1] + q**i * [n-1, i]

qbinom runs it on exact coefficient tuples in Z[q], row by row, keeping
only the entries of each row that [n, i] reads; qbinom_residue runs it on
the values at one point x mod M and builds no polynomial.  The verify
suites only ever need [n, i] at q_hat mod p**N, so they read the residue
rows; the polynomials serve `utt qbinom` and the exact evaluation at an
int, which the tests compare the rows with.  The quotient-of-products
form is deliberately not used here; it survives only as an independent
oracle in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add

from .errors import DomainError
from .padic import PadicInt

# Polynomials qbinom keeps, so a long-lived process holds a bounded number;
# each is the answer to one call, and no call keeps the rows it was built
# from.  At the degree cap of `utt qbinom` an entry holds 2501 coefficients.
QBINOM_CACHE_SIZE = 64


@lru_cache(maxsize=QBINOM_CACHE_SIZE)
def qbinom(n: int, i: int) -> tuple[int, ...]:
    """Gaussian binomial [n choose i]_q, its coefficients ascending.

    Out-of-range indices give the zero polynomial (), matching the
    convention used by the matrix entry formulas.

    Rows m = 1..n are built in turn, and row m holds only the entries
    j in [max(0, i - (n - m)), min(i, m)] from which [n, i] is reached,
    so two rows are live at a time and nothing recurses.
    """
    if n < 0:
        raise DomainError("qbinom needs n >= 0")
    if i < 0 or i > n:
        return ()
    if i in (0, n):  # degree 0: no row needs building
        return (1,)
    row, lo = [(1,)], 0
    for m in range(1, n + 1):
        new_lo = max(0, i - (n - m))
        new = []
        for j in range(new_lo, min(i, m) + 1):
            a = list(row[j - 1 - lo]) if j > 0 else []  # [m-1, j-1]
            if j < m:  # plus q**j * [m-1, j]
                b = row[j - lo]
                a += [0] * (j + len(b) - len(a))
                a[j:] = map(add, a[j:], b)
            new.append(tuple(a))
        row, lo = new, new_lo
    return row[0]


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


def qbinom_eval(n: int, i: int, x: PadicInt | int) -> int:
    """[n choose i]_q at x: a residue mod p**N at a PadicInt, an exact int at an int.

    At a PadicInt the value comes from the residue rows of
    qbinom_residue, and no polynomial is built.  At an int it is the
    coefficients of qbinom(n, i) summed by Horner on exact ints.
    """
    if isinstance(x, PadicInt):
        return qbinom_residue(n, i, x.residue, x.ctx.modulus)
    acc = 0
    for c in reversed(qbinom(n, i)):
        acc = acc * x + c
    return acc


def binom(n: int, k: int) -> int:
    """Ordinary binomial coefficient, 0 outside 0 <= k <= n."""
    if n < 0:
        raise DomainError("binom needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
