"""Operation matrices built from the diagonal q_hat**i and the shift.

The three generators on a window of size W:

    D = diag(q_hat**i), S = the superdiagonal shift, R = D + S.

They q-commute, S*D = q_hat * D*S, which is what makes the Gaussian
binomial expansion of R**n work.  The derived family

    R_n = R - q_hat**(n-1) * I,      X_n = R_1 * R_2 * ... * R_n

is implemented both by explicit window products and by closed entry
formulas, so the two routes can be checked against each other.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadIndexError, ContextMismatchError, InvariantError
from .padic import PadicContext, PadicInt
from .qcalc import binom, qbinom_eval
from .utmat import UTWindow


def row_exponent(s: int, k: int) -> int:
    """Exponent of q_hat contributed by row s in the closed entry formulas.

    Rows are numbered from 0 everywhere in this package, and the closed
    formulas below multiply the 0-based row index directly into the
    exponent.  Both entry formulas route through this helper so the
    convention cannot drift between them.
    """
    return s * k


def build_D(ctx: PadicContext, W: int) -> UTWindow:
    q_hat, m = ctx.q_hat_residue, ctx.modulus
    return UTWindow(ctx, W, [pow(q_hat, i, m) if j == i else 0 for i in range(W) for j in range(i, W)])


def build_S(ctx: PadicContext, W: int) -> UTWindow:
    return UTWindow(ctx, W, [1 if j == i + 1 else 0 for i in range(W) for j in range(i, W)])


def build_R(ctx: PadicContext, W: int) -> UTWindow:
    return build_D(ctx, W) + build_S(ctx, W)


def build_basic(ctx: PadicContext, kind: str, W: int) -> UTWindow:
    """Dispatch on the generator name: D, S or R."""
    try:
        return {"D": build_D, "S": build_S, "R": build_R}[kind](ctx, W)
    except KeyError:
        raise BadIndexError(f"unknown basic matrix kind {kind!r}") from None


def build_Rn(ctx: PadicContext, n: int, W: int) -> UTWindow:
    """R - q_hat**(n-1) * I, whose (n-1, n-1) entry vanishes; n >= 1."""
    if n < 1:
        raise BadIndexError(f"R_n needs n >= 1, got {n}")
    shift = UTWindow.identity(ctx, W).scale(ctx.q_hat_pow(n - 1))
    return build_R(ctx, W) - shift


def build_Xn(ctx: PadicContext, n: int, W: int) -> UTWindow:
    """The product R_1 * R_2 * ... * R_n; the empty product is I."""
    if n < 0:
        raise BadIndexError(f"X_n needs n >= 0, got {n}")
    acc = UTWindow.identity(ctx, W)
    for m in range(1, n + 1):
        acc = _times_bidiagonal(acc, build_Rn(ctx, m, W))
    return acc


def _times_bidiagonal(x: UTWindow, r: UTWindow) -> UTWindow:
    """x * r for a bidiagonal r such as R_n, as an O(W**2) column update.

    Column j of the product is r(j, j) times column j of x plus
    r(j-1, j) times column j-1 of x.
    """
    rows = r.rows()
    if any(any(row[2:]) for row in rows):
        raise InvariantError("_times_bidiagonal needs a bidiagonal right factor")
    diag = [row[0] for row in rows]
    sup = [0] + [row[1] for row in rows[:-1]]
    out = []
    for i, row in enumerate(x.rows()):
        out.append(row[0] * diag[i])
        out.extend(v * d + u * s for v, u, d, s in zip(row[1:], row, diag[i + 1:], sup[i + 1:]))
    return UTWindow(x.ctx, x.W, out)


def rpower_closed(ctx: PadicContext, n: int, s: int, c: int) -> PadicInt:
    """Entry (s, s+c) of R**n: qbinom(n, n-c)(q_hat) * q_hat**(s*(n-c)).

    Zero whenever c is outside [0, n]; s is the 0-based row index.
    Evaluated on int residues; the result is the only PadicInt built.
    """
    if n < 0 or s < 0:
        raise BadIndexError(f"rpower_closed needs n >= 0 and s >= 0, got n={n}, s={s}")
    if c < 0 or c > n:
        return ctx.zero()
    q_hat, M = ctx.q_hat_residue, ctx.modulus
    return PadicInt(ctx, qbinom_eval(n, n - c, q_hat) * pow(q_hat, row_exponent(s, n - c), M))


def xn_closed(ctx: PadicContext, n: int, s: int, c: int) -> PadicInt:
    """Entry (s, s+c) of X_n as a signed double q-binomial sum.

    Zero whenever c is outside [0, n]; s is the 0-based row index.
    Summed on ints and reduced once, into the only PadicInt built.
    """
    if n < 0 or s < 0:
        raise BadIndexError(f"xn_closed needs n >= 0 and s >= 0, got n={n}, s={s}")
    if c < 0 or c > n:
        return ctx.zero()
    q_hat, M = ctx.q_hat_residue, ctx.modulus
    acc = 0
    for i in range(c, n + 1):
        term = (
            pow(q_hat, binom(n - i, 2) + row_exponent(s, i - c), M)
            * qbinom_eval(n, i, q_hat)
            * qbinom_eval(i, i - c, q_hat)
        )
        acc += term if (n - i) % 2 == 0 else -term
    return PadicInt(ctx, acc)


def xn_expand_binomial(ctx: PadicContext, n: int, W: int) -> UTWindow:
    """X_n as the alternating q-binomial combination of powers of R.

    Each R**i is computed independently by repeated squaring, so this
    route shares no intermediate products with build_Xn.
    """
    if n < 0:
        raise BadIndexError(f"X_n needs n >= 0, got {n}")
    R = build_R(ctx, W)
    q_hat = ctx.q_hat()
    acc = UTWindow.zero(ctx, W)
    for i in range(n + 1):
        coeff = ctx.q_hat_pow(binom(n - i, 2)) * qbinom_eval(n, i, q_hat)
        if (n - i) % 2 == 1:
            coeff = -coeff
        acc = acc + (R**i).scale(coeff)
    return acc


def alpha(coeffs: Sequence[PadicInt], W: int) -> UTWindow:
    """The window of sum_n coeffs[n] * X_n.

    Column j of the result is already exact after the first j+1 terms:
    X_n kills the leading n columns, which is checked for every term
    and exploited by skipping all terms with n >= W outright.
    """
    if not coeffs:
        raise BadIndexError("alpha needs at least one coefficient")
    ctx = coeffs[0].ctx
    for a in coeffs:
        if a.ctx is not ctx and a.ctx != ctx:
            raise ContextMismatchError("alpha coefficients from mixed contexts")
    acc = UTWindow.zero(ctx, W)
    xn = UTWindow.identity(ctx, W)
    for n, a in enumerate(coeffs):
        if n >= W:
            break
        if n > 0:
            xn = _times_bidiagonal(xn, build_Rn(ctx, n, W))
        if xn.filtration_level() < n:
            raise InvariantError(f"X_{n} fails to kill its leading columns")
        acc = acc + xn.scale(a)
    return acc
