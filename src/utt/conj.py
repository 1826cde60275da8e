"""Conjugating matrices with diagonal q_hat**i onto the model matrix R.

Input matrices carry the fixed diagonal q_hat**i, a superdiagonal of
units, and arbitrary entries above that.  Conjugating by a suitable
diagonal matrix E rescales the superdiagonal to all ones; a second
conjugation by a recursively built unipotent-mod-p matrix U removes
the remaining freedom:

    U * C * U**-1 = R,  hence  (U*E) * A * (U*E)**-1 = R.

U is produced row by row from the single relation U*C = R*U, which
pins each row down from the previous one; verify_conjugation returns
both sides of that relation for the caller to compare.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Mapping, Sequence

from .errors import BadIndexError, DomainError, InvariantError, NotAUnitError
from .ops import build_R
from .padic import PadicContext, PadicInt
from .utmat import UTWindow


def _unit_residues(ctx: PadicContext, superdiag: Sequence[PadicInt | int]) -> list[int]:
    """Residues of superdiagonal entries, each required to be a unit of ctx."""
    units = [ctx.residue(v) for v in superdiag]
    for i, u in enumerate(units):
        if u % ctx.p == 0:
            raise NotAUnitError(f"superdiagonal entry {i} is not a unit")
    return units


class AFormMatrix:
    """Window with diagonal q_hat**i, unit superdiagonal, free upper part.

    A C-form is the special case whose superdiagonal is all ones.
    """

    __slots__ = ("ctx", "W", "_win")

    def __init__(
        self,
        ctx: PadicContext,
        W: int,
        superdiag: Sequence[PadicInt | int],
        upper: Mapping[tuple[int, int], PadicInt | int],
    ):
        if len(superdiag) != W - 1:
            raise BadIndexError(f"need {W - 1} superdiagonal entries, got {len(superdiag)}")
        sd = _unit_residues(ctx, superdiag)
        free = {}
        for (i, j), v in upper.items():
            if not (0 <= i and i + 2 <= j < W):
                raise BadIndexError(f"upper entry ({i},{j}) not strictly above the superdiagonal")
            free[i, j] = ctx.residue(v)
        q_hat, m = ctx.q_hat_residue, ctx.modulus
        self.ctx, self.W = ctx, W
        self._win = UTWindow(ctx, W, [
            pow(q_hat, i, m) if j == i else sd[i] if j == i + 1 else free.get((i, j), 0)
            for i in range(W) for j in range(i, W)
        ])

    @property
    def superdiag(self) -> tuple[int, ...]:
        """Residues of the entries (i, i+1)."""
        return tuple(row[1] for row in self._win.rows()[:-1])

    def is_c_form(self) -> bool:
        return all(v == 1 for v in self.superdiag)

    def to_window(self) -> UTWindow:
        return self._win

    @classmethod
    def from_window(cls, win: UTWindow) -> "AFormMatrix":
        """Wrap `win` after checking its diagonal q_hat**i and unit superdiagonal."""
        ctx, rows = win.ctx, win.rows()
        for i, row in enumerate(rows):
            if row[0] != pow(ctx.q_hat_residue, i, ctx.modulus):
                raise DomainError(f"diagonal entry ({i},{i}) is not q_hat**{i}")
        _unit_residues(ctx, [row[1] for row in rows[:-1]])
        a = cls.__new__(cls)
        a.ctx, a.W, a._win = ctx, win.W, win
        return a

    @classmethod
    def random(cls, ctx: PadicContext, W: int, rng: random.Random, c_form: bool = False) -> "AFormMatrix":
        """Random free part; the superdiagonal is all ones if c_form, else random units."""
        superdiag = [1] * (W - 1) if c_form else [_random_unit(ctx, rng) for _ in range(W - 1)]
        upper = {(i, j): rng.randrange(ctx.modulus) for i in range(W) for j in range(i + 2, W)}
        return cls(ctx, W, superdiag, upper)


def _random_unit(ctx: PadicContext, rng: random.Random) -> int:
    u = rng.randrange(ctx.modulus)
    if u % ctx.p == 0:
        u += rng.randrange(1, ctx.p)
    return u


def build_E(ctx: PadicContext, superdiag: Sequence[PadicInt | int], W: int) -> UTWindow:
    """Diagonal window with E[0,0] = 1 and E[i,i] the product of the
    first i superdiagonal units; conjugation by E rescales the
    superdiagonal of an A-form matrix to all ones."""
    if len(superdiag) < W - 1:
        raise BadIndexError(f"need {W - 1} superdiagonal entries, got {len(superdiag)}")
    diag = [1]
    for u in _unit_residues(ctx, superdiag[: W - 1]):
        diag.append(diag[-1] * u % ctx.modulus)
    return UTWindow(ctx, W, [diag[i] if j == i else 0 for i in range(W) for j in range(i, W)])


def normalize_superdiag(a: AFormMatrix) -> AFormMatrix:
    """Conjugate by build_E to make every superdiagonal entry exactly 1.

    E is diagonal, so E*A*E**-1 is A with entry (i, j) rescaled by
    e_i * e_j**-1.  The result is read back through from_window, which
    rejects a disturbed diagonal; build_U rejects a superdiagonal that
    is not 1.
    """
    ctx, m = a.ctx, a.ctx.modulus
    e = [row[0] for row in build_E(ctx, a.superdiag, a.W).rows()]
    e_inv = [pow(v, -1, m) for v in e]
    rows = a.to_window().rows()
    return AFormMatrix.from_window(UTWindow(ctx, a.W, [
        e[i] * v * e_inv[i + k] for i, row in enumerate(rows) for k, v in enumerate(row)
    ]))


def build_U(c_mat: AFormMatrix) -> UTWindow:
    """Solve U*C = R*U row by row, starting from U[0] = (1, 0, 0, ...).

    Row i of U*C = R*U reads U[i]*C = q_hat**i * U[i] + U[i+1], so row
    i+1 is forced by row i:

        U[i+1] = U[i]*C - q_hat**i * U[i].

    Rows are kept at full length W, so that the result being
    upper-triangular with a unit diagonal is checked rather than
    assumed.  c_mat must be a C-form.
    """
    ctx, W, m = c_mat.ctx, c_mat.W, c_mat.ctx.modulus
    if not c_mat.is_c_form():
        raise DomainError("build_U needs a C-form: every superdiagonal entry must be 1")
    cols = c_mat.to_window().columns()
    grid = [[1] + [0] * (W - 1)]
    for i in range(W - 1):
        row, q_i = grid[i], pow(ctx.q_hat_residue, i, m)
        # map() stops at the shorter operand: column j of C has j+1 entries.
        grid.append([(sum(map(mul, row, col)) - q_i * v) % m for col, v in zip(cols, row)])
    for i, row in enumerate(grid):
        if any(row[:i]):
            raise InvariantError(f"U row {i} is nonzero below the diagonal")
        if row[i] % ctx.p == 0:
            raise InvariantError(f"U[{i}][{i}] is not a unit")
    return UTWindow(ctx, W, [v for i, row in enumerate(grid) for v in row[i:]])


def verify_conjugation(c_mat: AFormMatrix) -> tuple[UTWindow, UTWindow, UTWindow]:
    """Build U for this C and return (U, U*C, R*U), the two sides of U*C = R*U."""
    u = build_U(c_mat)
    return u, u * c_mat.to_window(), build_R(c_mat.ctx, c_mat.W) * u


def conjugator(a: AFormMatrix) -> UTWindow:
    """The matrix B = U*E with B * A * B**-1 = R on the window."""
    c_mat = normalize_superdiag(a)
    return build_U(c_mat) * build_E(a.ctx, a.superdiag, a.W)
