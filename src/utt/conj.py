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
from itertools import accumulate
from operator import mul
from typing import Sequence

from .errors import DomainError, InvariantError, NotAUnitError
from .ops import build_R
from .padic import IntLike, PadicContext
from .utmat import UTWindow


def _unit_residues(ctx: PadicContext, superdiag: Sequence[IntLike]) -> list[int]:
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

    def __init__(self, win: UTWindow):
        """Wrap `win` after checking its diagonal q_hat**i and unit superdiagonal."""
        ctx, rows = win.ctx, win.rows()
        for i, row in enumerate(rows):
            if row[0] != pow(ctx.q_hat_residue, i, ctx.modulus):
                raise DomainError(f"diagonal entry ({i},{i}) is not q_hat**{i}")
        _unit_residues(ctx, [row[1] for row in rows[:-1]])
        self.ctx, self.W, self._win = ctx, win.W, win

    @property
    def superdiag(self) -> tuple[int, ...]:
        """Residues of the entries (i, i+1)."""
        return tuple(row[1] for row in self._win.rows()[:-1])

    def is_c_form(self) -> bool:
        return all(v == 1 for v in self.superdiag)

    def to_window(self) -> UTWindow:
        return self._win

    @classmethod
    def random(cls, ctx: PadicContext, W: int, rng: random.Random, c_form: bool = False) -> "AFormMatrix":
        """Random free part; the superdiagonal is all ones if c_form, else random units.

        The units are drawn first (none for a C-form), then the free entries row by row.
        """
        q_hat, m = ctx.q_hat_residue, ctx.modulus
        superdiag = [1] * (W - 1) if c_form else [_random_unit(ctx, rng) for _ in range(W - 1)]
        getrandbits, k = rng.getrandbits, m.bit_length()
        flat = []
        for i in range(W):
            flat.append(pow(q_hat, i, m))
            flat.extend(superdiag[i:i + 1])
            for _ in range(i + 2, W):
                r = getrandbits(k)
                while r >= m:  # rng.randrange(m), drawn as it draws: k bits until below m
                    r = getrandbits(k)
                flat.append(r)
        return cls(UTWindow._of_residues(ctx, W, tuple(flat)))


def _random_unit(ctx: PadicContext, rng: random.Random) -> int:
    u = rng.randrange(ctx.modulus)
    if u % ctx.p == 0:
        u += rng.randrange(1, ctx.p)
    return u


def _e_diagonal(ctx: PadicContext, superdiag: Sequence[IntLike]) -> list[int]:
    """e_0 = 1 and e_i the product of the first i superdiagonal units."""
    return list(accumulate(_unit_residues(ctx, superdiag), lambda e, u: e * u % ctx.modulus, initial=1))


def build_E(ctx: PadicContext, superdiag: Sequence[IntLike]) -> UTWindow:
    """Diagonal window with E[0,0] = 1 and E[i,i] the product of the
    first i superdiagonal units, of size W = len(superdiag) + 1;
    conjugation by E rescales the superdiagonal of an A-form matrix to
    all ones."""
    diag = _e_diagonal(ctx, superdiag)
    W = len(diag)
    return UTWindow(ctx, W, [diag[i] if j == i else 0 for i in range(W) for j in range(i, W)])


def normalize_superdiag(a: AFormMatrix) -> AFormMatrix:
    """Conjugate by build_E to make every superdiagonal entry exactly 1.

    E is diagonal, so E*A*E**-1 is A with entry (i, j) rescaled by
    e_i * e_j**-1.  One inverse serves them all: e_(i+1) = e_i * u_i, so
    e_i**-1 = e_(i+1)**-1 * u_i from the last one down.  The result is
    read back through the AFormMatrix constructor, which rejects a
    disturbed diagonal; build_U rejects a superdiagonal that is not 1.
    """
    ctx, m, units = a.ctx, a.ctx.modulus, a.superdiag
    e = _e_diagonal(ctx, units)
    e_inv = list(accumulate(reversed(units), lambda x, u: x * u % m, initial=pow(e[-1], -1, m)))[::-1]
    rows = a.to_window().rows()
    return AFormMatrix(UTWindow(ctx, a.W, [
        e[i] * v * e_inv[i + k] for i, row in enumerate(rows) for k, v in enumerate(row)
    ]))


def build_U(c_mat: AFormMatrix) -> UTWindow:
    """Solve U*C = R*U row by row, starting from U[0] = (1, 0, 0, ...).

    Row i of U*C = R*U reads U[i]*C = q_hat**i * U[i] + U[i+1], so row
    i+1 is forced by row i:

        U[i+1] = U[i]*C - q_hat**i * U[i].

    Rows start at the diagonal: once row i has passed its checks, row i+1
    is a sum of zeros left of column i.  Its entry (i+1, i) = U[i][i] *
    (C[i][i] - q_hat**i) is computed and must be zero, and U[i+1][i+1] must
    be a unit, so the shape of U is checked rather than assumed.  Column j
    of C drops its top entry as each row completes.  c_mat must be a C-form.
    """
    ctx, W, m = c_mat.ctx, c_mat.W, c_mat.ctx.modulus
    if not c_mat.is_c_form():
        raise DomainError("build_U needs a C-form: every superdiagonal entry must be 1")
    cols = c_mat.to_window().columns()
    row, flat = [1] + [0] * (W - 1), []
    for i in range(W - 1):
        flat.extend(row)
        q_i = pow(ctx.q_hat_residue, i, m)
        # map() stops at the shorter operand: column j holds C[i..j][j].
        below, *row = [(sum(map(mul, row, col)) - q_i * v) % m for col, v in zip(cols[i:], row)]
        if below:
            raise InvariantError(f"U row {i + 1} is nonzero below the diagonal")
        if row[0] % ctx.p == 0:
            raise InvariantError(f"U[{i + 1}][{i + 1}] is not a unit")
        for col in cols[i + 1:]:
            del col[0]
    flat.extend(row)
    return UTWindow._of_residues(ctx, W, tuple(flat))


def verify_conjugation(c_mat: AFormMatrix) -> tuple[UTWindow, UTWindow, UTWindow]:
    """Build U for this C and return (U, U*C, R*U), the two sides of U*C = R*U."""
    u = build_U(c_mat)
    return u, u * c_mat.to_window(), build_R(c_mat.ctx, c_mat.W) * u


def conjugator(a: AFormMatrix) -> UTWindow:
    """B = U*E with B * A * B**-1 = R on the window: E is diagonal, so column j of U scales by e_j."""
    e, rows = _e_diagonal(a.ctx, a.superdiag), build_U(normalize_superdiag(a)).rows()
    return UTWindow(a.ctx, a.W, [v * e[j] for i, row in enumerate(rows) for j, v in enumerate(row, i)])
