"""Windows onto infinite upper-triangular matrices over a p-adic context.

A UTWindow stores the entries (i, j), 0 <= i <= j < W, of an infinite
upper-triangular matrix.  Because such matrices are triangular, the
window of a product equals the product of the windows: entry (i, j) of
A*B only involves columns k with i <= k <= j, all inside the window.
Every operation here leans on that exactness; nothing is approximated
by the windowing itself.  A window packs its residues once, one int per
row, which the product reads from its right factor and combination() sums;
inverse() and conj.build_U keep their own dot products.

Row and column indices are 0-based throughout the package.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    BadIndexError,
    ContextMismatchError,
    NotInvertibleError,
    SizeMismatchError,
)
from .padic import IntLike, PadicContext


class UTWindow:
    """W-by-W upper-triangular window of canonical int residues.

    The entries (i, j), i <= j, are stored row by row in one flat tuple
    of ints in [0, p**N).  Every operation checks the context and size
    once, works on plain ints, and reduces modulo p**N once per output
    entry; entry() returns the stored residue.

    packed_rows() is the residues as one int per row, a slot of slot_bytes()
    bytes per entry, built on first use and kept; __eq__, residues() and
    rows() never read it.  A product sums the nonzero self(i, k) times packed
    row k of the right factor, moved to line up with row i, and combination()
    sums up to W packed rows i, each times a coefficient.  A slot holds
    W * (p**N - 1)**2, the most either puts in it, so no slot carries into the
    next, and _read_rows() reads both back.  inverse() keeps its own dot
    products, and so do conj.build_U and the dense test oracle, so no check
    compares the kernel with itself.
    No method changes a window's residues, but its attributes accept assignment.
    """

    __slots__ = ("ctx", "W", "_e", "_packed")

    def __init__(self, ctx: PadicContext, W: int, residues: Iterable[int]):
        """`residues` lists the entries (i, j), i <= j, row by row; each is reduced mod p**N."""
        if W < 1:
            raise BadIndexError(f"window size must be >= 1, got {W}")
        m = ctx.modulus
        e = tuple([v % m for v in residues])
        if len(e) != W * (W + 1) // 2:
            raise SizeMismatchError(f"expected {W * (W + 1) // 2} entries, got {len(e)}")
        self.ctx, self.W, self._e, self._packed = ctx, W, e, None

    @classmethod
    def _of_residues(cls, ctx: PadicContext, W: int, e: tuple[int, ...]) -> "UTWindow":
        """A window over `e`, unchecked: W*(W+1)/2 canonical residues; tests/test_lint.py lists callers."""
        self = object.__new__(cls)
        self.ctx, self.W, self._e, self._packed = ctx, W, e, None
        return self

    @classmethod
    def from_fn(cls, ctx: PadicContext, W: int, fn: Callable[[int, int], IntLike]) -> "UTWindow":
        """Build from an entry generator fn(i, j) for i <= j."""
        return cls(ctx, W, [ctx.residue(fn(i, j)) for i in range(W) for j in range(i, W)])

    @classmethod
    def identity(cls, ctx: PadicContext, W: int) -> "UTWindow":
        return cls(ctx, W, [1 if j == i else 0 for i in range(W) for j in range(i, W)])

    @classmethod
    def zero(cls, ctx: PadicContext, W: int) -> "UTWindow":
        return cls(ctx, W, [0] * (W * (W + 1) // 2))

    def entry(self, i: int, j: int) -> int:
        """The residue of entry (i, j); 0 below the diagonal, error outside the window."""
        if not (0 <= i < self.W and 0 <= j < self.W):
            raise BadIndexError(f"({i},{j}) outside {self.W}x{self.W} window")
        if i > j:
            return 0
        return self._e[i * self.W - i * (i - 1) // 2 + (j - i)]

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

    def slot_bytes(self) -> int:
        """Bytes per slot of packed_rows(): room for W * (p**N - 1)**2 without a carry."""
        return (2 * self.ctx.modulus.bit_length() + self.W.bit_length() + 7) // 8

    def packed_rows(self) -> list[int]:
        """Row k as one int, entry (k, j) in slot j - k; read from one byte string on first use and kept."""
        if self._packed is None:
            W, nb = self.W, self.slot_bytes()
            buf = b"".join([v.to_bytes(nb, "little") for v in self._e])
            ends = list(accumulate(range(W * nb, 0, -nb)))  # row k is W - k slots long
            self._packed = [int.from_bytes(buf[start:end], "little") for start, end in zip([0] + ends, ends)]
        return self._packed

    def _read_rows(self, sums: list[int]) -> "UTWindow":
        """The window of self's context and size with entry (i, i + t) read from slot t of sums[i]."""
        W, m = self.W, self.ctx.modulus
        width = 8 * self.slot_bytes()
        mask = (1 << width) - 1
        out: list[int] = []
        for i, acc in enumerate(sums):
            skip = max(0, ((acc & -acc).bit_length() - 1) // width)  # the zero slots below the low bit
            out.extend([0] * skip)
            acc >>= width * skip
            left = W - i - skip
            while acc:
                out.append((acc & mask) % m)
                acc >>= width
                left -= 1
            out.extend([0] * left)
        return UTWindow._of_residues(self.ctx, W, tuple(out))

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
        m = self.ctx.modulus
        return UTWindow._of_residues(self.ctx, self.W, tuple([(a + b) % m for a, b in zip(self._e, other._e)]))

    def scale(self, c: IntLike) -> "UTWindow":
        c, m = self.ctx.residue(c), self.ctx.modulus
        return UTWindow._of_residues(self.ctx, self.W, tuple([c * a % m for a in self._e]))

    def __mul__(self, other: "UTWindow") -> "UTWindow":
        """Entry (i, j) is the sum over i <= k <= j of self(i, k) * other(k, j).

        Row i of the product is the sum, over the nonzero self(i, k), of
        self(i, k) times other's packed row k moved up by k - i slots, so
        entry (i, j) lands in slot j - i; _read_rows() reads it back.
        Skipping the zero self(i, k) and the leading zero slots is what makes
        the structured windows cheap: diagonal, shift, bidiagonal and banded.
        """
        self._check(other)
        width, packed = 8 * self.slot_bytes(), other.packed_rows()
        return self._read_rows([sum([a * packed[k] << width * (k - i) for k, a in enumerate(row, i) if a])
                                for i, row in enumerate(self.rows())])

    def __pow__(self, k: int) -> "UTWindow":
        """k-th power by left-to-right squaring from self, k >= 0.

        k >= 1 costs bit_length(k) + popcount(k) - 2 products; k = 0
        gives the identity and k = 1 self, with no product.
        """
        if not isinstance(k, int) or k < 0:
            raise BadIndexError("window power needs an integer exponent >= 0")
        if k == 0:
            return UTWindow.identity(self.ctx, self.W)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
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
        tails = [row[1:] for row in rows]
        cols = []
        for j in range(W):
            col = [0] * (j + 1)
            col[j] = inv_diag[j]
            for i in range(j - 1, -1, -1):
                col[i] = -inv_diag[i] * sum(map(mul, tails[i], col[i + 1:])) % m
            cols.append(col)
        return UTWindow._of_residues(ctx, W, tuple([cols[j][i] for i in range(W) for j in range(i, W)]))

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


def combination(coeffs: Sequence[IntLike], windows: Sequence[UTWindow]) -> UTWindow:
    """sum_n coeffs[n] * windows[n] on packed rows; each coefficient is a ring value of their context.

    A term adds at most (p**N - 1)**2 to a slot of room W * (p**N - 1)**2: len(coeffs) == len(windows) <= W.
    """
    if not windows or not len(coeffs) == len(windows) <= windows[0].W:
        raise SizeMismatchError(f"{len(coeffs)} coefficients for {len(windows)} windows, at most W of each")
    first = windows[0]
    for w in windows[1:]:
        first._check(w)
    residues = [first.ctx.residue(c) for c in coeffs]
    return first._read_rows([sum(map(mul, residues, col)) for col in zip(*[w.packed_rows() for w in windows])])
