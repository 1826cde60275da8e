"""Conjugating matrices with diagonal q_hat**i onto the model matrix R.

Input matrices carry the fixed diagonal q_hat**i, a superdiagonal of
units, and arbitrary entries above that.  Conjugating by a suitable
diagonal matrix E rescales the superdiagonal to all ones; a second
conjugation by a recursively built unipotent-mod-p matrix U removes
the remaining freedom:

    U * C * U**-1 = R,  hence  (U*E) * A * (U*E)**-1 = R.

U is produced row by row from the single relation U*C = R*U, which
pins each row down from the previous one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import BadIndexError, DomainError, InvariantError, NotAUnitError
from .ops import build_R
from .padic import PadicContext, PadicInt
from .utmat import UTWindow


def _as_padic(ctx: PadicContext, v: PadicInt | int) -> PadicInt:
    return v if isinstance(v, PadicInt) else PadicInt(ctx, v)


class AFormMatrix:
    """Window with diagonal q_hat**i, unit superdiagonal, free upper part.

    A C-form is the special case whose superdiagonal is all ones.
    """

    __slots__ = ("ctx", "W", "superdiag", "upper")

    def __init__(
        self,
        ctx: PadicContext,
        W: int,
        superdiag: Sequence[PadicInt | int],
        upper: Mapping[tuple[int, int], PadicInt | int],
    ):
        if len(superdiag) != W - 1:
            raise BadIndexError(f"need {W - 1} superdiagonal entries, got {len(superdiag)}")
        sd = tuple(_as_padic(ctx, v) for v in superdiag)
        for i, v in enumerate(sd):
            if not v.is_unit():
                raise NotAUnitError(f"superdiagonal entry {i} is not a unit")
        up = {}
        for (i, j), v in upper.items():
            if not (0 <= i and i + 2 <= j < W):
                raise BadIndexError(f"upper entry ({i},{j}) not strictly above the superdiagonal")
            up[(i, j)] = _as_padic(ctx, v)
        self.ctx = ctx
        self.W = W
        self.superdiag = sd
        self.upper = up

    def is_c_form(self) -> bool:
        return all(v.residue == 1 for v in self.superdiag)

    def c(self, i: int, j: int) -> PadicInt:
        """Free entry at (i, j), j >= i + 2; zero when unset."""
        return self.upper.get((i, j), self.ctx.zero())

    def to_window(self) -> UTWindow:
        def fn(i: int, j: int) -> PadicInt:
            if i == j:
                return self.ctx.q_hat_pow(i)
            if j == i + 1:
                return self.superdiag[i]
            return self.c(i, j)

        return UTWindow.from_fn(self.ctx, self.W, fn)

    @classmethod
    def from_window(cls, win: UTWindow) -> "AFormMatrix":
        ctx, W = win.ctx, win.W
        for i in range(W):
            if win.entry(i, i) != ctx.q_hat_pow(i):
                raise DomainError(f"diagonal entry ({i},{i}) is not q_hat**{i}")
        superdiag = [win.entry(i, i + 1) for i in range(W - 1)]
        upper = {
            (i, j): win.entry(i, j)
            for i in range(W)
            for j in range(i + 2, W)
            if not win.entry(i, j).is_zero()
        }
        return cls(ctx, W, superdiag, upper)

    @classmethod
    def random(cls, ctx: PadicContext, W: int, rng: random.Random, c_form: bool = False) -> "AFormMatrix":
        """Random free part; the superdiagonal is all ones if c_form, else random units."""
        superdiag = [1] * (W - 1) if c_form else [_random_unit(ctx, rng) for _ in range(W - 1)]
        upper = {
            (i, j): rng.randrange(ctx.modulus)
            for i in range(W)
            for j in range(i + 2, W)
        }
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
    units = [_as_padic(ctx, v) for v in superdiag[: W - 1]]
    for i, u in enumerate(units):
        if not u.is_unit():
            raise NotAUnitError(f"superdiagonal entry {i} is not a unit")
    diag = [ctx.one()]
    for u in units:
        diag.append(diag[-1] * u)
    return UTWindow.from_fn(ctx, W, lambda i, j: diag[i] if i == j else ctx.zero())


def normalize_superdiag(a: AFormMatrix) -> AFormMatrix:
    """Conjugate by build_E to make every superdiagonal entry exactly 1.

    The result is read back through from_window, which rejects a
    disturbed diagonal; build_U rejects a superdiagonal that is not 1.
    """
    e = build_E(a.ctx, a.superdiag, a.W)
    return AFormMatrix.from_window(e * a.to_window() * e.inverse())


def build_U(c_mat: AFormMatrix) -> UTWindow:
    """Solve U*C = R*U row by row, starting from U[0] = (1, 0, 0, ...).

    Row i+1 is forced by row i:

        U[i+1][j] = sum_{s=i}^{j-2} U[i][s]*c(s,j)
                    + U[i][j-1]
                    + (q_hat**j - q_hat**i) * U[i][j]

    The result is upper-triangular with a unit diagonal; both facts are
    checked rather than assumed.  c_mat must be a C-form.
    """
    ctx, W = c_mat.ctx, c_mat.W
    if not c_mat.is_c_form():
        raise DomainError("build_U needs a C-form: every superdiagonal entry must be 1")
    zero = ctx.zero()
    grid = [[zero] * W for _ in range(W)]
    grid[0][0] = ctx.one()
    for i in range(W - 1):
        row, nxt = grid[i], grid[i + 1]
        for j in range(W):
            acc = zero
            for s in range(i, j - 1):
                acc = acc + row[s] * c_mat.c(s, j)
            if j >= 1:
                acc = acc + row[j - 1]
            acc = acc + (ctx.q_hat_pow(j) - ctx.q_hat_pow(i)) * row[j]
            nxt[j] = acc
    for i in range(W):
        if not all(grid[i][j].is_zero() for j in range(i)):
            raise InvariantError(f"U row {i} is nonzero below the diagonal")
        if not grid[i][i].is_unit():
            raise InvariantError(f"U[{i}][{i}] is not a unit")
    return UTWindow.from_fn(ctx, W, lambda i, j: grid[i][j])


@dataclass(frozen=True)
class ConjugationReport:
    """Outcome of checking U*C = R*U for one C-form matrix."""

    p: int
    W: int
    ok: bool
    mismatches: int
    u_is_invertible: bool
    u_in_unit_group: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "W": self.W,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "u_is_invertible": self.u_is_invertible,
            "u_in_unit_group": self.u_in_unit_group,
        }


def verify_conjugation(c_mat: AFormMatrix) -> ConjugationReport:
    """Build U for this C and compare U*C with R*U entry by entry."""
    ctx, W = c_mat.ctx, c_mat.W
    u = build_U(c_mat)
    lhs = u * c_mat.to_window()
    rhs = build_R(ctx, W) * u
    mismatches = sum(
        1
        for i in range(W)
        for j in range(i, W)
        if lhs.entry(i, j) != rhs.entry(i, j)
    )
    mem = u.membership()
    return ConjugationReport(
        p=ctx.p,
        W=W,
        ok=mismatches == 0,
        mismatches=mismatches,
        u_is_invertible=mem.is_invertible,
        u_in_unit_group=mem.is_in_unit_group,
    )


def conjugator(a: AFormMatrix) -> UTWindow:
    """The matrix B = U*E with B * A * B**-1 = R on the window."""
    c_mat = normalize_superdiag(a)
    return build_U(c_mat) * build_E(a.ctx, a.superdiag, a.W)
