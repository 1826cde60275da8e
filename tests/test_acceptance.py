"""The acceptance gate: one test per criterion, each with a budgeted runtime.

Every test prints exactly one `ACCEPTANCE n: PASS/FAIL - ...` line (also
echoed in the terminal summary) and fails loudly if either the checked
property or its time budget is violated.  All equality is exact (zero
tolerance) modulo p**N.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from conftest import child_env
from utt.basis import big_F, check_integrality, f_poly
from utt.conj import AFormMatrix, build_U, conjugator
from utt.ops import (
    alpha,
    build_D,
    build_R,
    build_S,
    build_Xn,
    rpower_closed,
    xn_closed,
    xn_expand_binomial,
)
from utt.padic import PadicInt, make_context, nu_factorial, nu_int
from utt.qcalc import qbinom_eval
from utt.utmat import UTWindow
from utt.verify import ALL_ANCHORS, run_suites

TRIPLES = ((3, 2, 20), (5, 2, 20), (7, 3, 20))
W = 12
NMAX = 8


def _contexts():
    return [make_context(p, q, N) for p, q, N in TRIPLES]


def test_criterion_1_qbinom_matrix_theorem(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    for ctx in _contexts():
        d, s = build_D(ctx, W), build_S(ctx, W)
        r = d + s
        d_pows = [UTWindow.identity(ctx, W)]
        s_pows = [UTWindow.identity(ctx, W)]
        for _ in range(NMAX):
            d_pows.append(d_pows[-1] * d)
            s_pows.append(s_pows[-1] * s)
        for n in range(NMAX + 1):
            total = UTWindow.zero(ctx, W)
            for i in range(n + 1):
                coeff = qbinom_eval(n, i, ctx.q_hat())
                total = total + (d_pows[i] * s_pows[n - i]).scale(coeff)
            ok = ok and r**n == total
    dt = time.perf_counter() - t0
    acceptance_recorder(
        1, ok and dt < 1.0,
        f"(D+S)**n binomial expansion, n<=8, W=12, 3 primes ({dt:.2f}s < 1s)",
    )


def test_criterion_2_rpower_closed_form(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    for ctx in _contexts():
        r = build_R(ctx, W)
        for n in range(NMAX + 1):
            rn = r**n
            for s in range(W):
                for j in range(s, W):
                    ok = ok and rn.entry(s, j) == rpower_closed(ctx, n, s, j - s)
    dt = time.perf_counter() - t0
    acceptance_recorder(
        2, ok and dt < 1.0,
        f"closed power formula vs iterated products, n<=8, 3 primes ({dt:.2f}s < 1s)",
    )


def test_criterion_3_xn_filtration_and_closed_forms(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    for ctx in _contexts():
        for n in range(NMAX + 1):
            xn = build_Xn(ctx, n, W)
            ok = ok and xn.filtration_level() >= n
            for s in range(W):
                for j in range(s + n + 1, W):
                    ok = ok and xn.entry(s, j) == 0
        for n in range(7):
            xn = build_Xn(ctx, n, W)
            ok = ok and xn == xn_expand_binomial(ctx, n, W)
            for s in range(W):
                for j in range(s, W):
                    ok = ok and xn.entry(s, j) == xn_closed(ctx, n, s, j - s)
    dt = time.perf_counter() - t0
    acceptance_recorder(
        3, ok and dt < 2.0,
        f"filtration >= n, band vanishing (n<=8), three-way equality (n<=6) ({dt:.2f}s < 2s)",
    )


def test_criterion_4_conjugation(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    W_c = 10
    for ctx in _contexts():
        rng = random.Random(ctx.p)
        r = build_R(ctx, W_c)
        for _ in range(50):
            c = AFormMatrix.random(ctx, W_c, rng, c_form=True)
            u = build_U(c)
            ok = ok and u * c.to_window() == r * u
            for i in range(W_c):
                ok = ok and u.entry(i, i) % ctx.p != 0
        for _ in range(20):
            a = AFormMatrix.random(ctx, W_c, rng)
            b = conjugator(a)
            ok = ok and b * a.to_window() * b.inverse() == r
    dt = time.perf_counter() - t0
    acceptance_recorder(
        4, ok and dt < 5.0,
        f"UC=RU for 50 random C/prime + 20 end-to-end B A B**-1 = R, W=10 ({dt:.2f}s < 5s)",
    )


def test_criterion_5_basis_integrality(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    ctx = make_context(3, 2, 20)
    for k in range(NMAX + 1):
        res = check_integrality(f_poly(ctx, k))
        ok = ok and res.cond1 and res.cond2
        over = big_F(ctx, 0, nu_factorial(3, k) + 1, k, raw=True)
        ok = ok and not check_integrality(over).cond1
    for p, q, _ in TRIPLES:
        q_hat = q ** (p - 1)
        for k in range(1, 13):
            den = 1
            for i in range(k):
                den *= q_hat**k - q_hat**i
            ok = ok and nu_int(p, den) == nu_factorial(p, k) + k
    dt = time.perf_counter() - t0
    acceptance_recorder(
        5, ok and dt < 5.0,
        f"f_k integral, overdivided fails, denominator valuation k<=12 ({dt:.2f}s < 5s)",
    )


def test_criterion_6_action_suite(acceptance_recorder):
    t0 = time.perf_counter()
    ctx = make_context(3, 2, 20)
    cfg = dict(W=W, nmax=NMAX, kmax=NMAX, trials=5, seed=0)
    results = list(run_suites(ctx, ["action", "alglem", "lower-g"], cfg))
    ok = bool(results) and all(r.passed for r in results)
    coverage = [r for r in results if "coverage" in r.name]
    ok = ok and len(coverage) >= 1
    dt = time.perf_counter() - t0
    acceptance_recorder(
        6, ok and dt < 10.0,
        f"action identities m<=8 with every branch covered at p=3 ({dt:.2f}s < 10s)",
    )


def test_criterion_7_alpha_stabilization(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    ctx = make_context(3, 2, 20)
    rng = random.Random(77)
    M = 10
    W_a = 8  # large enough to expose columns 0..6
    for _ in range(20):
        coeffs = [ctx.from_int(rng.randrange(ctx.modulus)) for _ in range(M)]
        full = alpha(ctx, coeffs, W_a)
        for j in range(7):
            part = alpha(ctx, coeffs[: j + 1], W_a)
            for i in range(j + 1):
                ok = ok and part.entry(i, j) == full.entry(i, j)
    dt = time.perf_counter() - t0
    acceptance_recorder(
        7, ok and dt < 1.0,
        f"column-j stabilization of alpha, j<=6, M=10, 20 vectors ({dt:.2f}s < 1s)",
    )


def test_criterion_8_arithmetic_substrate(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    for ctx in _contexts():
        rng = random.Random(ctx.p * 17)
        M = ctx.modulus
        for _ in range(200):
            a = PadicInt(ctx, rng.randrange(M))
            b = PadicInt(ctx, rng.randrange(M))
            c = PadicInt(ctx, rng.randrange(M))
            ok = ok and (a + b) + c == a + (b + c)
            ok = ok and a * (b + c) == a * b + a * c
            ok = ok and a * b == b * a
            if a.residue % ctx.p != 0:
                ok = ok and (a * a.inverse()).residue == 1
        direct = 0
        for k in range(1, 201):
            m = k
            while m % ctx.p == 0:
                direct += 1
                m //= ctx.p
            ok = ok and nu_factorial(ctx.p, k) == direct
    dt = time.perf_counter() - t0
    acceptance_recorder(
        8, ok and dt < 1.0,
        f"ring axioms + inversion (200/prime), factorial valuations k<=200 ({dt:.2f}s < 1s)",
    )


def test_criterion_9_cli_verify_all(acceptance_recorder):
    env = child_env()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "utt", "verify", "all"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    dt = time.perf_counter() - t0
    anchors = set()
    summary = None
    for line in proc.stdout.strip().splitlines():
        rec = json.loads(line)
        if "anchor" in rec:
            anchors.add(rec["anchor"])
        if "summary" in rec:
            summary = rec["summary"]
    ok = (
        proc.returncode == 0
        and dt < 60.0
        and anchors == set(ALL_ANCHORS)
        and summary is not None
        and summary["failed"] == 0
    )
    acceptance_recorder(
        9, ok,
        f"`utt verify all` defaults: exit {proc.returncode}, {dt:.1f}s < 60s, "
        f"{len(anchors)}/12 anchors",
    )
