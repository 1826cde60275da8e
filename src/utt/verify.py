"""Named verification suites over the whole identity inventory.

Each suite is a generator that runs a family of exact checks at one
context and yields CheckResult records.  Every record carries a stable
anchor label naming the identity family it exercises; the CLI
serializes these records as JSON lines.  Checks are generated in a
fixed order from the configuration alone, so two runs with the same
configuration emit byte-identical reports.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from .basis import (
    BivarPoly,
    beta,
    big_F,
    check_integrality,
    expand_in_g_basis,
    f_poly,
    g_poly,
    psi_action,
    required_precision,
    sample_integrality,
)
from .conj import AFormMatrix, conjugator, verify_conjugation
from .ops import alpha, build_D, build_R, build_S, build_Xn, rpower_closed, xn_closed, xn_expand_binomial
from .padic import PadicContext, nu_factorial, nu_int, scaled_add, scaled_eq, scaled_neg
from .qcalc import qbinom_eval
from .utmat import UTWindow

# Anchor labels attached to report lines.  These are opaque wire-format
# constants required of the report output; do not edit them.
ANCHOR_QBINOM_MATRIX = "Eq. expand"
ANCHOR_RPOWER = "Lemma Rpower"
ANCHOR_XN_FILTRATION = "Theorem app(1)"
ANCHOR_XN_ENTRIES = "Theorem app(3)"
ANCHOR_CONJUGATION = "§4.3 Theorem"
ANCHOR_SUBRING = "Prop. subring"
ANCHOR_BASIS = "Theorem basis"
ANCHOR_ACTION_F = "Lemma action on f"
ANCHOR_ACTION_G = "Prop. action on g"
ANCHOR_ALGLEM = "Lemma alglem"
ANCHOR_LOWER_G = "Lemma lower g"
ANCHOR_ALPHA = "Theorem topringapp"


# A NamedTuple, as Suite below, so that importing the package loads no dataclasses.
class CheckResult(NamedTuple):
    """One verified identity instance."""

    name: str
    anchor: str
    passed: bool
    params: Mapping[str, object] = MappingProxyType({})  # read-only, so one shared default is safe
    detail: str = ""


def _check(name: str, anchor: str, ok: bool, ctx: PadicContext,
           detail: Callable[[], str] | None = None, **params) -> CheckResult:
    """One report record; `detail` is called only when the check failed."""
    params = {"p": ctx.p, "q": ctx.q, "N": ctx.N, **params}
    return CheckResult(name, anchor, ok, params, "" if ok or detail is None else detail())


def _coverage(prefix: str, anchor: str, ctx: PadicContext, kmax: int, hit: set, required) -> CheckResult:
    """The branches a suite hit must be exactly its hand-derived reachable set."""
    return _check(
        f"{prefix}/branch-coverage", anchor, hit == set(required), ctx,
        lambda: f"expected {sorted(required)}", kmax=kmax, branches=sorted(hit),
    )


def _mismatch(a: UTWindow | BivarPoly, b: UTWindow | BivarPoly) -> str:
    """Where a and b first differ, both values, and to how many digits they agree; "" if equal.

    A window names an entry, a polynomial the first monomial in sorted (a, b) order.
    """
    p = a.ctx.p
    if isinstance(a, UTWindow):
        for i, (row_a, row_b) in enumerate(zip(a.rows(), b.rows())):
            for c, (x, y) in enumerate(zip(row_a, row_b)):
                if x != y:
                    return f"first mismatch at ({i},{i + c}): {x} vs {y}, nu_p(diff)={nu_int(p, x - y)}"
        return ""
    xs, ys = a.terms, b.terms
    for k in sorted(xs.keys() | ys.keys()):
        x, y = xs.get(k), ys.get(k)
        if not scaled_eq(p, x, y):
            diff = scaled_add(p, x, scaled_neg(p, y))
            return f"first mismatch at u^{k[0]}v^{k[1]}: {x} vs {y}, nu_p(diff)={diff[0]}"
    return ""


def _compare(name: str, anchor: str, lhs, rhs, ctx: PadicContext, **params) -> CheckResult:
    """The record of lhs == rhs for two windows or two polynomials; a window's W leads its params."""
    if isinstance(lhs, UTWindow):
        params = {"W": lhs.W, **params}
    return _check(name, anchor, lhs == rhs, ctx, lambda: _mismatch(lhs, rhs), **params)


def suite_qbinom_matrix(ctx: PadicContext, W: int, nmax: int) -> Iterator[CheckResult]:
    """(D+S)**n against the q-binomial expansion sum_i [n,i] D**i S**(n-i)."""
    D, S, R = build_D(ctx, W), build_S(ctx, W), build_R(ctx, W)
    q_hat = ctx.q_hat()
    d_pows, s_pows = [UTWindow.identity(ctx, W)], [UTWindow.identity(ctx, W)]
    for _ in range(nmax):
        d_pows.append(d_pows[-1] * D)
        s_pows.append(s_pows[-1] * S)
    for n in range(nmax + 1):
        terms = ((d_pows[i] * s_pows[n - i]).scale(qbinom_eval(n, i, q_hat)) for i in range(n + 1))
        rhs = sum(terms, UTWindow.zero(ctx, W))
        yield _compare(f"qbinom-matrix/n={n}", ANCHOR_QBINOM_MATRIX, R**n, rhs, ctx, n=n)


def suite_rpower(ctx: PadicContext, W: int, nmax: int) -> Iterator[CheckResult]:
    """Closed entry formula for R**n against the iterated window product.

    R**n is the running product R**(n-1) * R, one window product per n.
    """
    R = build_R(ctx, W)
    power = UTWindow.identity(ctx, W)
    for n in range(nmax + 1):
        if n:
            power = power * R
        closed = UTWindow.from_fn(ctx, W, lambda i, j: rpower_closed(ctx, n, i, j - i))
        yield _compare(f"rpower/n={n}", ANCHOR_RPOWER, power, closed, ctx, n=n)


def suite_xn(ctx: PadicContext, W: int, nmax: int) -> Iterator[CheckResult]:
    """Vanishing pattern of X_n, then its three independent constructions.

    The entry-formula comparison is capped at n = 6; the vanishing and
    filtration checks run to nmax.
    """
    windows = [build_Xn(ctx, n, W) for n in range(nmax + 1)]
    for n, xn in enumerate(windows):
        level_ok = xn.filtration_level() >= min(n, W)
        band_ok = not any(any(row[n + 1:]) for row in xn.rows())  # row[c] is entry (s, s+c)
        yield _check(
            f"xn/filtration/n={n}", ANCHOR_XN_FILTRATION, level_ok and band_ok, ctx,
            lambda: f"filtration_ok={level_ok} band_ok={band_ok}", W=W, n=n,
        )
    for n, direct in enumerate(windows[:7]):
        closed = UTWindow.from_fn(ctx, W, lambda i, j: xn_closed(ctx, n, i, j - i))
        expanded = xn_expand_binomial(ctx, n, W)
        yield _check(
            f"xn/entries/n={n}", ANCHOR_XN_ENTRIES, direct == closed == expanded, ctx,
            lambda: f"closed={'ok' if direct == closed else _mismatch(direct, closed)}"
            f" expanded={'ok' if direct == expanded else _mismatch(direct, expanded)}",
            W=W, n=n,
        )


ALPHA_TERMS = 10  # number of coefficients (beyond a_0) fed to alpha
ALPHA_STABLE_COLS = 6  # columns whose stabilization is checked
ALPHA_TRIALS = 20  # random coefficient vectors per run
E2E_TRIALS = 20  # random A-forms conjugated all the way onto R per run


def suite_alpha(ctx: PadicContext, W: int, seed: int) -> Iterator[CheckResult]:
    """Column-j output of alpha must not change once terms n > j are added."""
    rng = random.Random(seed)
    jmax = min(ALPHA_STABLE_COLS, W - 1)
    for t in range(ALPHA_TRIALS):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(ALPHA_TERMS + 1)]
        full = alpha(ctx, coeffs, W).rows()
        truncations = ((j, alpha(ctx, coeffs[: j + 1], W).rows()) for j in range(jmax + 1))
        unstable = next(((i, j) for j, part in truncations for i in range(j + 1)
                         if full[i][j - i] != part[i][j - i]), None)
        yield _check(
            f"alpha/stabilization/trial={t}", ANCHOR_ALPHA, unstable is None, ctx,
            lambda: f"column {unstable[1]} unstable at row {unstable[0]}",
            W=W, terms=ALPHA_TERMS, trial=t, seed=seed,
        )


def suite_conjugation(ctx: PadicContext, W: int, trials: int, seed: int) -> Iterator[CheckResult]:
    """U*C = R*U with U in the unit group on random C-forms, then full B*A*B**-1 = R."""
    rng = random.Random(seed)
    for t in range(trials):
        trial_seed = rng.getrandbits(32)
        u, lhs, rhs = verify_conjugation(AFormMatrix.random(ctx, W, random.Random(trial_seed), c_form=True))
        in_unit_group = all(row[0] % ctx.p == 1 for row in u.rows())
        yield _check(
            f"conjugation/uc-ru/trial={t}", ANCHOR_CONJUGATION, lhs == rhs and in_unit_group, ctx,
            lambda: _mismatch(lhs, rhs) or "U is outside the unit group: diagonal not 1 mod p",
            W=W, trial=t, seed=trial_seed,
        )
    R = build_R(ctx, W)
    for t in range(E2E_TRIALS):
        trial_seed = rng.getrandbits(32)
        a_mat = AFormMatrix.random(ctx, W, random.Random(trial_seed))
        b = conjugator(a_mat)
        yield _compare(f"conjugation/end-to-end/trial={t}", ANCHOR_CONJUGATION,
                       b * a_mat.to_window() * b.inverse(), R, ctx, trial=t, seed=trial_seed)


SAMPLE_TRIALS = 5  # substitution samples per polynomial
G_EXPANSION_TRIALS = 3  # random combinations expanded over the g-basis


def suite_integrality(ctx: PadicContext, kmax: int, seed: int) -> Iterator[CheckResult]:
    """Both integrality conditions on f_k, with negative controls.

    Also pins the denominator valuation nu(prod (q_hat**k - q_hat**i))
    = nu(k!) + k for k <= 12 and expands random Z_p-combinations of
    basis elements back over the g-basis.
    """
    rng = random.Random(seed)
    for k in range(kmax + 1):
        res = check_integrality(f_poly(ctx, k))
        yield _check(
            f"integrality/f/k={k}", ANCHOR_BASIS, res.cond1 and res.cond2, ctx,
            lambda: f"cond1={res.cond1} cond2={res.cond2}", k=k,
        )
    for k in range(kmax + 1):
        # One extra division by p must break condition (1).
        res = check_integrality(big_F(ctx, 0, nu_factorial(ctx.p, k) + 1, k, raw=True))
        yield _check(
            f"integrality/overdivided/k={k}", ANCHOR_BASIS, not res.cond1, ctx,
            lambda: "condition (1) unexpectedly held", k=k,
        )
    # On exact ints, as c_poly divides: a residue mod p**N saturates at N.
    q_hat = ctx.q ** (ctx.p - 1)
    for k in range(13):
        nu = nu_int(ctx.p, math.prod(q_hat**k - q_hat**i for i in range(k)))
        expected = nu_factorial(ctx.p, k) + k
        yield _check(
            f"integrality/denominator/k={k}", ANCHOR_BASIS, nu == expected, ctx,
            lambda: f"valuation {nu} != {expected}", k=k,
        )
    for k in range(kmax + 1):
        yield _check(
            f"integrality/sampling/f/k={k}", ANCHOR_SUBRING,
            sample_integrality(f_poly(ctx, k), SAMPLE_TRIALS, rng), ctx,
            lambda: "sampled value escaped Z_p", k=k, trials=SAMPLE_TRIALS,
        )
    negative = big_F(ctx, 0, nu_factorial(ctx.p, kmax) + 1, kmax, raw=True)
    yield _check(
        "integrality/sampling/negative", ANCHOR_SUBRING,
        not sample_integrality(negative, SAMPLE_TRIALS, rng), ctx,
        lambda: "sampling missed a non-integral polynomial", k=kmax, trials=SAMPLE_TRIALS,
    )
    for t in range(G_EXPANSION_TRIALS):
        coeffs = [rng.randrange(ctx.modulus) for _ in range(kmax + 1)]
        f = sum((g_poly(ctx, kmax, s).scale(a) for s, a in enumerate(coeffs)), BivarPoly.zero(ctx))
        if f.is_zero():
            continue  # vanishing random combination: nothing to expand
        mus = expand_in_g_basis(f)
        integral = all(mu.is_padic_integer() for mu in mus)
        rebuilt = sum((g_poly(ctx, kmax, s).scale(mu) for s, mu in enumerate(mus)), BivarPoly.zero(ctx))
        yield _check(
            f"integrality/g-expansion/trial={t}", ANCHOR_BASIS, integral and rebuilt == f, ctx,
            lambda: f"integral={integral} reconstructed={'ok' if rebuilt == f else _mismatch(rebuilt, f)}",
            n=kmax, trial=t, seed=seed,
        )


def _action_branch(p: int, m: int, l: int) -> tuple[str, int]:
    """Branch of psi(g_{m,l}), l <= m, and the p-power on its g_{m,l-1} term."""
    if l == m:
        if m < p:
            return ("small" if m else "identity"), 0
        return ("p", 1) if m == p else ("large", nu_int(p, m) + 1)
    if m > nu_factorial(p, l) + l:
        return "above", 0
    if m > nu_factorial(p, l - 1) + l - 1:
        return "window", nu_factorial(p, l) + l - m
    return "below", nu_int(p, l) + 1


def reachable_action_branches(p: int, kmax: int) -> frozenset[str]:
    """Branch labels the (m, n) grid up to kmax can actually reach."""
    labels = {"diag:identity"}
    if kmax >= 1:
        labels.add("diag:small")
    if kmax >= p:
        labels.add("diag:p")
    if kmax >= p + 1:
        labels.add("diag:large")
        labels.add("off:window")  # first hit at (m, n) = (p+1, p)
    if kmax >= 2:
        labels.add("off:above")
    if kmax >= 2 * p + 2:
        labels.add("off:below")  # needs nu((n-1)!) >= 2, first at n = 2p+1
    return frozenset(labels)


def suite_action(ctx: PadicContext, kmax: int) -> Iterator[CheckResult]:
    """The substitution action on f_m and on every g-basis branch."""
    p, q_hat, M = ctx.p, ctx.q_hat_residue, ctx.modulus
    u = BivarPoly.u_hat(ctx)
    for m in range(1, kmax + 1):
        f = f_poly(ctx, m)
        rhs = f.scale(pow(q_hat, m, M)) + (u * f_poly(ctx, m - 1)).scale_p(nu_int(p, m))
        yield _compare(f"action/f/m={m}", ANCHOR_ACTION_F, psi_action(f), rhs, ctx, m=m)
    hit: set[str] = set()
    diagonal = [(m, m) for m in range(kmax + 1)]
    for m, l in diagonal + [(m, l) for m in range(2, kmax + 1) for l in range(1, m)]:
        branch, exponent = _action_branch(p, m, l)
        hit.add(f"{'diag' if l == m else 'off'}:{branch}")
        g = g_poly(ctx, m, l)
        lhs = psi_action(g)
        rhs = g if m == 0 else g.scale(pow(q_hat, l, M)) + g_poly(ctx, m, l - 1).scale_p(exponent)
        yield _compare(f"action/g/m={m},l={l}", ANCHOR_ACTION_G, lhs, rhs, ctx, m=m, l=l, branch=branch)
    yield _coverage("action/g", ANCHOR_ACTION_G, ctx, kmax, hit, reachable_action_branches(p, kmax))


def suite_alglem(ctx: PadicContext, kmax: int) -> Iterator[CheckResult]:
    """(u/p)**nu(m!) * g_{m,i} re-expressed through f_i, both branches."""
    p = ctx.p
    hit: set[str] = set()
    for m in range(1, kmax + 1):
        for i in range(m):
            nu_m, nu_i = nu_factorial(p, m), nu_factorial(p, i)
            branch = "le" if m <= nu_i + i else "gt"
            hit.add(branch)
            lhs = (g_poly(ctx, m, i) * BivarPoly.monomial(ctx, nu_m, 0)).scale_p(-nu_m)
            # Right side: p**-beta * u**(nu(m!)-nu(i!)+m-i) * (u/p)**nu(i!) * f_i.
            rhs = (f_poly(ctx, i) * BivarPoly.monomial(ctx, nu_m + m - i, 0)).scale_p(
                -nu_i - beta(p, m, i)
            )
            yield _compare(f"alglem/m={m},i={i}", ANCHOR_ALGLEM, lhs, rhs, ctx, m=m, i=i, branch=branch)
    required = ({"gt"} if kmax >= 1 else set()) | ({"le"} if kmax >= p + 1 else set())
    yield _coverage("alglem", ANCHOR_ALGLEM, ctx, kmax, hit, required)


def _lower_g_branch(nu_i: int, m: int, n: int, i: int) -> tuple[str, int]:
    """Branch of the (m, n, i) lower-g check and the p-power on g_{m,i}; nu_i = nu(i!)."""
    if m <= nu_i + i:
        return "low", m - n
    if n <= nu_i + i:
        return "mid", nu_i + i - n
    return "high", 0


def suite_lower_g(ctx: PadicContext, kmax: int) -> Iterator[CheckResult]:
    """u**(m-n) * g_{n,i} against the p-power multiple of g_{m,i}.

    At m = n both sides would be g_{n,i}, so there the right side is
    built by a second route instead: u**(n-i) * f_i divided by p**j,
    j = min(n-i, nu(i!)), the power of u/p in g_{n,i}.

    The checks run by columns of i: the column g_{i,i}, ..., g_{kmax,i}
    is built once and dropped before the next i, and each verdict and
    branch goes to its place in the report order (m, then n, then i),
    which the records are then made in, reading both lists in order.
    """
    u_pows = [BivarPoly.monomial(ctx, d, 0) for d in range(kmax + 1)]

    def slot(m: int, n: int, i: int) -> int:
        """Report position of (m, n, i): after the checks of every smaller m, then smaller n."""
        return m * (m + 1) * (m + 2) // 6 + n * (n + 1) // 2 + i

    size = slot(kmax + 1, 0, 0)
    verdicts: list[bool | str] = [False] * size  # True, or a failure's detail
    branches = [""] * size
    for i in range(kmax + 1):
        column = [g_poly(ctx, n, i) for n in range(i, kmax + 1)]
        f, nu_i = f_poly(ctx, i), nu_factorial(ctx.p, i)
        for n in range(i, kmax + 1):
            for m in range(n, kmax + 1):
                branch, power = _lower_g_branch(nu_i, m, n, i)
                lhs = column[n - i] * u_pows[m - n]
                if m == n:
                    rhs = (f * u_pows[n - i]).scale_p(-min(n - i, nu_i))
                else:
                    rhs = column[m - i].scale_p(power)
                k = slot(m, n, i)
                verdicts[k], branches[k] = lhs == rhs or _mismatch(lhs, rhs), branch
    # The records are built here, not by _check: they are nearly nine in ten of the
    # records of a deep basis run, and the helper's keyword dict, merged params and
    # second call cost about 3% of that run's time.
    p, q, N = ctx.p, ctx.q, ctx.N
    k = 0
    for m in range(kmax + 1):
        for n in range(m + 1):
            for i in range(n + 1):
                verdict = verdicts[k]
                ok = verdict is True
                yield CheckResult(f"lower-g/m={m},n={n},i={i}", ANCHOR_LOWER_G, ok,
                                  {"p": p, "q": q, "N": N, "m": m, "n": n, "i": i, "branch": branches[k]},
                                  "" if ok else verdict)
                k += 1
    hit = set(branches)
    required = {"low"} | ({"mid", "high"} if kmax >= 1 else set())
    yield _coverage("lower-g", ANCHOR_LOWER_G, ctx, kmax, hit, required)


# The flags each group of suites accepts, besides --p, --q, --N and --seed.
GROUPS = {"window": ("W", "nmax", "trials"), "basis": ("kmax",)}


def _powers_fit(cfg: Mapping[str, int]) -> str | None:
    W, need = cfg["W"], cfg["nmax"] + 2
    return f"matrix suites need W >= nmax + 2 = {need}, got W={W}" if W < need else None


def _window_of_two(cfg: Mapping[str, int]) -> str | None:
    return f"window suites need W >= 2, got W={cfg['W']}" if cfg["W"] < 2 else None


def _basis_precision(cfg: Mapping[str, int]) -> str | None:
    N, need = cfg["N"], required_precision(cfg["p"], cfg["kmax"])
    return f"basis suites at kmax={cfg['kmax']} need N >= {need}, got N={N}" if N < need else None


# A NamedTuple: at import its class builds in a tenth of a frozen dataclass's time.
class Suite(NamedTuple):
    """A suite function, its flag group, why a config is rejected (or None), its anchors."""

    run: Callable[..., Iterator[CheckResult]]
    group: str  # a key of GROUPS
    precondition: Callable[[Mapping[str, int]], str | None]
    anchors: tuple[str, ...]
    in_all: bool = True  # run by `verify all`

    def build(self, ctx: PadicContext, cfg: Mapping[str, int]) -> list[CheckResult]:
        """Run the suite on the configuration values its parameters after `ctx` name.

        The records are collected here, so a suite that raises prints none of them.
        """
        code = self.run.__code__
        return list(self.run(ctx, *(cfg[key] for key in code.co_varnames[1:code.co_argcount])))


# The suites in report order.  alpha reads no nmax, yet is held to W >= nmax + 2.
SUITES = {
    "qbinom-matrix": Suite(suite_qbinom_matrix, "window", _powers_fit, (ANCHOR_QBINOM_MATRIX,)),
    "rpower": Suite(suite_rpower, "window", _powers_fit, (ANCHOR_RPOWER,)),
    "xn": Suite(suite_xn, "window", _powers_fit, (ANCHOR_XN_FILTRATION, ANCHOR_XN_ENTRIES)),
    "alpha": Suite(suite_alpha, "window", _powers_fit, (ANCHOR_ALPHA,)),
    "conjugation": Suite(suite_conjugation, "window", _window_of_two, (ANCHOR_CONJUGATION,)),
    "integrality": Suite(suite_integrality, "basis", _basis_precision, (ANCHOR_BASIS, ANCHOR_SUBRING)),
    "action": Suite(suite_action, "basis", _basis_precision, (ANCHOR_ACTION_F, ANCHOR_ACTION_G)),
    "alglem": Suite(suite_alglem, "basis", _basis_precision, (ANCHOR_ALGLEM,)),
    "lower-g": Suite(suite_lower_g, "basis", _basis_precision, (ANCHOR_LOWER_G,)),
}
# run_suites reads this at call time, so a wrapper put here (the benchmark's tracer) is called.
SUITE_BUILDERS = {name: suite.build for name, suite in SUITES.items()}
ALL_ANCHORS = frozenset(a for suite in SUITES.values() if suite.in_all for a in suite.anchors)


def run_suites(ctx: PadicContext, names: list[str], cfg: Mapping[str, int]) -> Iterator[CheckResult]:
    """Run the named suites in canonical order, yielding their results.

    Only the suites are started lazily: Suite.build collects each one's
    records into a list before the first of them is yielded.  On large
    configs that list is the suite's largest live object: lower-g at
    kmax = 40 holds one CheckResult per checked (m, n, i) until it ends.

    `cfg` maps W, nmax, kmax, trials and seed to ints; other keys are ignored.
    """
    for name in SUITES:
        if name in names:
            yield from SUITE_BUILDERS[name](ctx, cfg)