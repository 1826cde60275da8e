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

from functools import lru_cache
from typing import Sequence

from .errors import BadIndexError
from .padic import IntLike, PadicContext
from .qcalc import binom, qbinom_eval, qbinom_residue
from .utmat import UTWindow


def build_D(ctx: PadicContext, W: int) -> UTWindow:
    q_hat, m = ctx.q_hat_residue, ctx.modulus
    return UTWindow(ctx, W, [pow(q_hat, i, m) if j == i else 0 for i in range(W) for j in range(i, W)])


def build_S(ctx: PadicContext, W: int) -> UTWindow:
    return UTWindow(ctx, W, [1 if j == i + 1 else 0 for i in range(W) for j in range(i, W)])


def _r_minus(ctx: PadicContext, W: int, c: int) -> UTWindow:
    """R - c*I in one pass: diagonal q_hat**i - c, superdiagonal 1."""
    q_hat, m = ctx.q_hat_residue, ctx.modulus
    return UTWindow(ctx, W, [pow(q_hat, i, m) - c if j == i else 1 if j == i + 1 else 0
                             for i in range(W) for j in range(i, W)])


def build_R(ctx: PadicContext, W: int) -> UTWindow:
    return _r_minus(ctx, W, 0)


def build_Rn(ctx: PadicContext, n: int, W: int) -> UTWindow:
    """R - q_hat**(n-1) * I, whose (n-1, n-1) entry vanishes; n >= 1."""
    if n < 1:
        raise BadIndexError(f"R_n needs n >= 1, got {n}")
    return _r_minus(ctx, W, pow(ctx.q_hat_residue, n - 1, ctx.modulus))


def build_Xn(ctx: PadicContext, n: int, W: int) -> UTWindow:
    """The product R_1 * R_2 * ... * R_n; the empty product is I.

    X_0, ..., X_W come from one chain cached per (ctx, W), grown on
    demand by the step X_m = X_(m-1) * R_m.  Past W the same steps run on
    from X_W and are not kept, so a chain holds at most W + 1 windows;
    they stop at the zero window, since 0 * R_m = 0.
    """
    if n < 0:
        raise BadIndexError(f"X_n needs n >= 0, got {n}")
    chain = _xn_chain(ctx, W)
    if n < len(chain):
        return chain[n]
    acc = chain[-1]
    for m in range(len(chain), n + 1):
        if m > W and not any(acc.residues()):
            break
        acc = acc * build_Rn(ctx, m, W)
        if m <= W:
            chain.append(acc)
    return acc


# Bounded because the context is part of the key, as for basis.c_poly: a
# sweep over contexts and window sizes would otherwise keep every chain.
# 16 is well above the 3 (ctx, W) pairs that `verify all` runs at one W.
XN_CHAIN_CACHE_SIZE = 16


@lru_cache(maxsize=XN_CHAIN_CACHE_SIZE)
def _xn_chain(ctx: PadicContext, W: int) -> list[UTWindow]:
    """The chain X_0, X_1, ... built so far for (ctx, W); build_Xn grows it."""
    return [UTWindow.identity(ctx, W)]


def rpower_closed(ctx: PadicContext, n: int, s: int, c: int) -> int:
    """Entry (s, s+c) of R**n: qbinom(n, n-c)(q_hat) * q_hat**(s*(n-c)).

    Zero whenever c is outside [0, n]; s is the 0-based row index.
    Evaluated on int residues; the result is a residue mod p**N.
    """
    if n < 0 or s < 0:
        raise BadIndexError(f"rpower_closed needs n >= 0 and s >= 0, got n={n}, s={s}")
    if c < 0 or c > n:
        return 0
    q_hat, M = ctx.q_hat_residue, ctx.modulus
    return qbinom_residue(n, n - c, q_hat, M) * pow(q_hat, s * (n - c), M) % M


def xn_closed(ctx: PadicContext, n: int, s: int, c: int) -> int:
    """Entry (s, s+c) of X_n as a signed double q-binomial sum.

    Zero whenever c is outside [0, n]; s is the 0-based row index.
    Summed on ints and reduced once, to a residue mod p**N.
    """
    if n < 0 or s < 0:
        raise BadIndexError(f"xn_closed needs n >= 0 and s >= 0, got n={n}, s={s}")
    if c < 0 or c > n:
        return 0
    q_hat, M = ctx.q_hat_residue, ctx.modulus
    acc = 0
    for i in range(c, n + 1):
        term = (
            pow(q_hat, binom(n - i, 2) + s * (i - c), M)
            * qbinom_residue(n, i, q_hat, M)
            * qbinom_residue(i, i - c, q_hat, M)
        )
        acc += term if (n - i) % 2 == 0 else -term
    return acc % M


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


def alpha(ctx: PadicContext, coeffs: Sequence[IntLike], W: int) -> UTWindow:
    """The window of sum_n coeffs[n] * X_n; each coefficient is a ring value of ctx.

    Column j of the result is already exact after the first j+1 terms:
    X_n kills the leading n columns, so all terms with n >= W are skipped
    outright.  Each X_n is read through build_Xn, from its chain cached per
    (ctx, W), and the sum is taken on their packed() ints.  At most W terms
    remain, each adding at most (m - 1)**2 to a slot, m = p**N, so a slot
    of slot_bytes() bytes, room for W * (m - 1)**2, takes the sum without a
    carry; each entry is read back and reduced once.
    """
    if not coeffs:
        raise BadIndexError("alpha needs at least one coefficient")
    residues = [ctx.residue(a) for a in coeffs][:W]
    chain = [build_Xn(ctx, n, W) for n in range(len(residues))]
    nb = chain[0].slot_bytes()
    buf = sum([a * x.packed() for a, x in zip(residues, chain)]).to_bytes(nb * W * (W + 1) // 2, "little")
    return UTWindow(ctx, W, [int.from_bytes(buf[t:t + nb], "little") for t in range(0, len(buf), nb)])
