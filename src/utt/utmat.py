"""Windows onto infinite upper-triangular matrices over a p-adic context.

A UTWindow stores the entries (i, j), 0 <= i <= j < W, of an infinite
upper-triangular matrix.  Because such matrices are triangular, the
window of a product equals the product of the windows: entry (i, j) of
A*B only involves columns k with i <= k <= j, all inside the window.
Every operation here leans on that exactness; nothing is approximated
by the windowing itself.

Row and column indices are 0-based throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable

from .errors import (
    BadIndexError,
    ContextMismatchError,
    NotInvertibleError,
    SizeMismatchError,
)
from .padic import PadicContext, PadicInt


@dataclass(frozen=True)
class Membership:
    """Group-membership facts about a window's diagonal."""

    is_invertible: bool
    is_in_unit_group: bool  # diagonal entries all 1 mod p


class UTWindow:
    """Immutable W-by-W upper-triangular window of canonical int residues.

    The entries (i, j), i <= j, are stored row by row in one flat tuple
    of ints in [0, p**N).  Every operation checks the context and size
    once, works on plain ints, and reduces modulo p**N once per output
    entry; entry() turns a residue back into a PadicInt.
    """

    __slots__ = ("ctx", "W", "_e")

    def __init__(self, ctx: PadicContext, W: int, residues: Iterable[int]):
        """`residues` lists the entries (i, j), i <= j, row by row; each is reduced mod p**N."""
        if W < 1:
            raise BadIndexError(f"window size must be >= 1, got {W}")
        m = ctx.modulus
        e = tuple([v % m for v in residues])
        if len(e) != W * (W + 1) // 2:
            raise SizeMismatchError(f"expected {W * (W + 1) // 2} entries, got {len(e)}")
        self.ctx = ctx
        self.W = W
        self._e = e

    def _idx(self, i: int, j: int) -> int:
        return i * self.W - i * (i - 1) // 2 + (j - i)

    @classmethod
    def from_fn(cls, ctx: PadicContext, W: int, fn: Callable[[int, int], PadicInt | int]) -> "UTWindow":
        """Build from an entry generator fn(i, j) for i <= j."""
        return cls(ctx, W, [ctx.residue(fn(i, j)) for i in range(W) for j in range(i, W)])

    @classmethod
    def identity(cls, ctx: PadicContext, W: int) -> "UTWindow":
        return cls(ctx, W, [1 if j == i else 0 for i in range(W) for j in range(i, W)])

    @classmethod
    def zero(cls, ctx: PadicContext, W: int) -> "UTWindow":
        return cls(ctx, W, [0] * (W * (W + 1) // 2))

    def entry(self, i: int, j: int) -> PadicInt:
        """Entry (i, j); zero below the diagonal, error outside the window."""
        if not (0 <= i < self.W and 0 <= j < self.W):
            raise BadIndexError(f"({i},{j}) outside {self.W}x{self.W} window")
        if i > j:
            return self.ctx.zero()
        return PadicInt(self.ctx, self._e[self._idx(i, j)])

    def residues(self) -> tuple[int, ...]:
        """All entries (i, j), i <= j, row by row, as the flat tuple of residues."""
        return self._e

    def rows(self) -> list[tuple[int, ...]]:
        """Row i as the residues of the entries (i, i), (i, i+1), ..., (i, W-1)."""
        W, e = self.W, self._e
        out, off = [], 0
        for i in range(W):
            out.append(e[off:off + W - i])
            off += W - i
        return out

    def columns(self) -> list[list[int]]:
        """Column j as the residues of the entries (0, j), (1, j), ..., (j, j)."""
        cols: list[list[int]] = [[] for _ in range(self.W)]
        for i, row in enumerate(self.rows()):
            for col, v in zip(cols[i:], row):
                col.append(v)
        return cols

    def _check(self, other: "UTWindow") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
        if self.W != other.W:
            raise SizeMismatchError(f"window sizes {self.W} vs {other.W}")

    def __add__(self, other: "UTWindow") -> "UTWindow":
        self._check(other)
        return UTWindow(self.ctx, self.W, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "UTWindow") -> "UTWindow":
        self._check(other)
        return UTWindow(self.ctx, self.W, [a - b for a, b in zip(self._e, other._e)])

    def scale(self, c: PadicInt | int) -> "UTWindow":
        c = self.ctx.residue(c)
        return UTWindow(self.ctx, self.W, [c * a for a in self._e])

    def __mul__(self, other: "UTWindow") -> "UTWindow":
        """Entry (i, j) is the sum over i <= k <= j of self(i, k) * other(k, j)."""
        self._check(other)
        cols = other.columns()
        out = []
        for i, row in enumerate(self.rows()):
            # map() stops at the shorter operand, so k runs exactly from i to j.
            out.extend(sum(map(mul, row, col[i:])) for col in cols[i:])
        return UTWindow(self.ctx, self.W, out)

    def __pow__(self, k: int) -> "UTWindow":
        """k-th power by repeated squaring, k >= 0."""
        if not isinstance(k, int) or k < 0:
            raise BadIndexError("window power needs an integer exponent >= 0")
        result = UTWindow.identity(self.ctx, self.W)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "UTWindow":
        """Two-sided inverse by back-substitution along each column.

        Requires every diagonal entry to be a p-adic unit.
        """
        ctx, W = self.ctx, self.W
        m = ctx.modulus
        rows = self.rows()
        for d, row in enumerate(rows):
            if row[0] % ctx.p == 0:
                raise NotInvertibleError(f"diagonal entry ({d},{d}) is not a unit")
        inv_diag = [pow(row[0], -1, m) for row in rows]
        cols = []
        for j in range(W):
            col = [0] * (j + 1)
            col[j] = inv_diag[j]
            for i in range(j - 1, -1, -1):
                acc = sum(map(mul, rows[i][1:], col[i + 1:]))
                col[i] = -inv_diag[i] * acc % m
            cols.append(col)
        return UTWindow(ctx, W, [cols[j][i] for i in range(W) for j in range(i, W)])

    def membership(self) -> Membership:
        diag = [row[0] for row in self.rows()]
        p = self.ctx.p
        return Membership(
            is_invertible=all(d % p != 0 for d in diag),
            is_in_unit_group=all(d % p == 1 for d in diag),
        )

    def filtration_level(self) -> int:
        """Number of leading all-zero columns (0-based count).

        Returns W when the whole window vanishes, meaning "at least W".
        """
        for j, col in enumerate(self.columns()):
            if any(col):
                return j
        return self.W

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UTWindow):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self.W == other.W and self._e == other._e)

    def __repr__(self) -> str:
        return f"UTWindow(W={self.W}, p={self.ctx.p}^{self.ctx.N})"
