"""Command-line front door.

Builds the named matrices and basis polynomials, evaluates Gaussian
binomials, and runs the verification suites, emitting a deterministic
report: identical configuration (including the seed) gives a
byte-identical report.

Exit codes: 0 all requested checks passed, 1 at least one check
failed, 2 the configuration was rejected before any check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .basis import BivarPoly, big_F, c_poly, f_poly, g_poly, required_precision
from .errors import UttError
from .ops import build_Rn, build_Xn, build_basic
from .padic import PadicContext, make_context
from .qcalc import QPoly, qbinom
from .utmat import UTWindow
from .verify import BASIS_SUITES, MATRIX_SUITES, SUITE_ORDER, CheckResult, default_suite_config, run_suites

ENV_DEFAULT_PRIME = "UTT_DEFAULT_PRIME"


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; flags win over the environment default."""

    p: int = 3
    q: int = 2
    N: int = 20
    W: int = 12
    seed: int = 0
    fmt: str = "json"
    kmax: int = 8
    nmax: int = 8
    trials: int = 50

    def context(self) -> PadicContext:
        return make_context(self.p, self.q, self.N)


class ConfigError(UttError):
    """Request rejected before any computation ran."""


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=None,
                        help=f"odd prime (default: ${ENV_DEFAULT_PRIME} or 3)")
    common.add_argument("--q", type=int, default=2,
                        help="base unit, full order mod p**2 (default 2)")
    common.add_argument("--N", type=int, default=20, help="precision exponent (default 20)")
    common.add_argument("--W", type=int, default=12, help="window size (default 12)")
    common.add_argument("--n", type=int, default=None, help="matrix index / upper index")
    common.add_argument("--k", type=int, default=None, help="lower index / basis index")
    common.add_argument("--m", type=int, default=None, help="basis weight index")
    common.add_argument("--l", type=int, default=None, help="basis layer index")
    common.add_argument("--i", type=int, default=None, help="plain u-power for basis F")
    common.add_argument("--j", type=int, default=None, help="(u/p)-power for basis F")
    common.add_argument("--kmax", type=int, default=8, help="largest basis index (default 8)")
    common.add_argument("--nmax", type=int, default=8, help="largest matrix index (default 8)")
    common.add_argument("--trials", type=int, default=50,
                        help="random C-forms for the conjugation/uc-ru checks (default 50)")
    common.add_argument("--seed", type=int, default=0, help="seed for random trials (default 0)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "pretty"),
                        default="json", help="output format (default json)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="utt",
        description="Exact p-adic upper-triangular matrix calculus and its verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = sub.add_parser("matrix", parents=[common],
                            help="print one of the named matrices on a window")
    matrix.add_argument("kind", choices=("D", "S", "R", "Rn", "Xn"))
    qb = sub.add_parser("qbinom", parents=[common],
                        help="print the Gaussian binomial [n, k]_q as a polynomial")
    del qb
    basis = sub.add_parser("basis", parents=[common],
                           help="print one of the basis polynomials")
    basis.add_argument("which", choices=("c", "f", "F", "g"))
    verify = sub.add_parser("verify", parents=[common],
                            help="run a verification suite and report each check")
    verify.add_argument("suite", choices=SUITE_ORDER + ("all",))
    sub.add_parser("all", parents=[common],
                   help="shorthand for: verify all")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    p = args.p
    if p is None:
        raw = os.environ.get(ENV_DEFAULT_PRIME, "3")
        try:
            p = int(raw)
        except ValueError:
            raise ConfigError(f"${ENV_DEFAULT_PRIME}={raw!r} is not an integer") from None
    return RunConfig(
        p=p, q=args.q, N=args.N, W=args.W, seed=args.seed, fmt=args.fmt,
        kmax=args.kmax, nmax=args.nmax, trials=args.trials,
    )


def _require(args: argparse.Namespace, *names: str) -> list[int]:
    values = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ConfigError(f"this command needs --{name}")
        values.append(v)
    return values


def emit_window(win: UTWindow, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(win.to_json())
    if fmt == "csv":
        return "\n".join(
            ",".join(str(win.entry(i, j).residue) for j in range(win.W))
            for i in range(win.W)
        )
    return win.pretty()


def emit_qpoly(poly: QPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly.to_json())
    if fmt == "csv":
        return ",".join(str(c) for c in poly.to_json())
    return repr(poly)


def emit_bivar(poly: BivarPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly.to_json())
    if fmt == "csv":
        lines = ["a,b,val,unit,sig"]
        for t in poly.to_json()["terms"]:
            lines.append(f"{t['a']},{t['b']},{t['val']},{t['unit']},{t['sig']}")
        return "\n".join(lines)
    if poly.is_zero():
        return "0"
    lines = []
    for t in poly.to_json()["terms"]:
        val = t["val"]
        scale = f"p^{val} * " if val else ""
        lines.append(f"u^{t['a']} v^{t['b']}: {scale}{t['unit']} ({t['sig']} digits)")
    return "\n".join(lines)


def emit_check(result: CheckResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result.to_json())
    if fmt == "csv":
        detail = result.detail.replace(",", ";")
        return f"{result.name},{result.anchor},{'pass' if result.passed else 'FAIL'},{detail}"
    status = "PASS" if result.passed else "FAIL"
    suffix = f"  -- {result.detail}" if result.detail else ""
    return f"[{status}] {result.name} ({result.anchor}){suffix}"


def cmd_matrix(cfg: RunConfig, args: argparse.Namespace) -> int:
    ctx = cfg.context()
    if args.kind in ("D", "S", "R"):
        win = build_basic(ctx, args.kind, cfg.W)
    else:
        (n,) = _require(args, "n")
        builder = build_Rn if args.kind == "Rn" else build_Xn
        win = builder(ctx, n, cfg.W)
    print(emit_window(win, cfg.fmt))
    return 0


def cmd_qbinom(cfg: RunConfig, args: argparse.Namespace) -> int:
    n, k = _require(args, "n", "k")
    if n < 0:
        raise ConfigError(f"qbinom needs n >= 0, got {n}")
    print(emit_qpoly(qbinom(n, k), cfg.fmt))
    return 0


def cmd_basis(cfg: RunConfig, args: argparse.Namespace) -> int:
    ctx = cfg.context()
    if args.which == "c":
        (k,) = _require(args, "k")
        poly = c_poly(ctx, k)
    elif args.which == "f":
        (k,) = _require(args, "k")
        poly = f_poly(ctx, k)
    elif args.which == "F":
        i, j, k = _require(args, "i", "j", "k")
        poly = big_F(ctx, i, j, k)
    else:
        m, l = _require(args, "m", "l")
        poly = g_poly(ctx, m, l)
    print(emit_bivar(poly, cfg.fmt))
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    names = list(SUITE_ORDER) if suite == "all" else [suite]
    ctx = cfg.context()
    for flag in ("nmax", "kmax", "trials"):
        if getattr(cfg, flag) < 0:
            raise ConfigError(f"--{flag} must be >= 0, got {getattr(cfg, flag)}")
    if MATRIX_SUITES.intersection(names) and cfg.W < cfg.nmax + 2:
        raise ConfigError(f"matrix suites need W >= nmax + 2 = {cfg.nmax + 2}, got W={cfg.W}")
    if not BASIS_SUITES.issuperset(names) and cfg.W < 2:
        raise ConfigError(f"window suites need W >= 2, got W={cfg.W}")
    if BASIS_SUITES.intersection(names):
        need = required_precision(cfg.p, cfg.kmax)
        if cfg.N < need:
            raise ConfigError(f"basis suites at kmax={cfg.kmax} need N >= {need}, got N={cfg.N}")
    suite_cfg = default_suite_config(
        W=cfg.W, nmax=cfg.nmax, kmax=cfg.kmax, trials=cfg.trials, seed=cfg.seed
    )
    total = passed = 0
    for result in run_suites(ctx, names, suite_cfg):
        total += 1
        passed += result.passed
        print(emit_check(result, cfg.fmt))
    summary = {"summary": {"checks": total, "passed": passed, "failed": total - passed}}
    if cfg.fmt == "json":
        print(json.dumps(summary))
    elif cfg.fmt == "csv":
        print(f"summary,,{'pass' if passed == total else 'FAIL'},{passed}/{total}")
    else:
        print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "matrix":
            return cmd_matrix(cfg, args)
        if args.command == "qbinom":
            return cmd_qbinom(cfg, args)
        if args.command == "basis":
            return cmd_basis(cfg, args)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_verify(cfg, "all")
    except UttError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
