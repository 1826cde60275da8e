"""Command-line front door.

Builds the named matrices and basis polynomials, evaluates Gaussian
binomials, and runs the verification suites, emitting a deterministic
report: identical configuration (including the seed) gives a
byte-identical report.

This module alone knows the command-line contract: the flags each command
reads, with their defaults, and the json, csv and pretty rendering of every
printed type.
The library types expose their data (window rows, polynomial term
triples, q-polynomial coefficients, check fields) and no wire format.

Exit codes: 0 all requested checks passed, 1 at least one check
failed, 2 the configuration was rejected before any check ran, 141
stdout was closed before the output was written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .basis import BivarPoly, big_F, c_poly, f_poly, g_poly
from .errors import UttError
from .ops import build_D, build_R, build_Rn, build_S, build_Xn
from .padic import PadicContext, make_context
from .qcalc import qbinom
from .utmat import UTWindow
from .verify import GROUPS, SUITES, CheckResult, run_suites

ENV_DEFAULT_PRIME = "UTT_DEFAULT_PRIME"


class ConfigError(UttError):
    """Request rejected before any computation ran."""


# Every flag, defined once as name -> (default, help); each takes an int.
FLAGS = {
    "p": (None, f"odd prime (default: ${ENV_DEFAULT_PRIME} or 3)"),
    "q": (2, "base unit, full order mod p**2 (default 2)"),
    "N": (20, "precision exponent (default 20)"),
    "W": (12, "window size (default 12)"),
    "n": (None, "matrix index / upper index"),
    "k": (None, "lower index / basis index"),
    "m": (None, "basis weight index"),
    "l": (None, "basis layer index"),
    "i": (None, "plain u-power for basis F"),
    "j": (None, "(u/p)-power for basis F"),
    "kmax": (8, "largest basis index (default 8)"),
    "nmax": (8, "largest matrix index (default 8)"),
    "trials": (50, "random C-forms for the conjugation/uc-ru checks (default 50)"),
    "seed": (0, "seed for random trials (default 0)"),
}
CONTEXT_FLAGS = ("p", "q", "N")
# The windows `utt matrix` prints and the polynomials `utt basis` prints:
# kind -> (the flags it reads besides the context, builder(ctx, *their values)).
MATRIX_KINDS = {
    "D": (("W",), build_D),
    "S": (("W",), build_S),
    "R": (("W",), build_R),
    "Rn": (("n", "W"), build_Rn),
    "Xn": (("n", "W"), build_Xn),
}
BASIS_KINDS = {
    "c": (("k",), c_poly),
    "f": (("k",), f_poly),
    "F": (("i", "j", "k"), big_F),
    "g": (("m", "l"), g_poly),
}


def _in_flag_order(*reads: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(flag for flag in FLAGS if any(flag in names for names in reads))


# The flags each command reads besides --format, in FLAGS order; any other flag
# exits 2.  verify parses the context, the seed and every suite group's flags, and
# cmd_verify rejects a given flag of a group no chosen suite is in; matrix and basis
# parse the context and all their kinds' flags, and _build rejects another kind's.
GROUP_FLAGS = frozenset(flag for flags in GROUPS.values() for flag in flags)
COMMAND_FLAGS = {
    "matrix": _in_flag_order(CONTEXT_FLAGS, *(flags for flags, _ in MATRIX_KINDS.values())),
    "qbinom": ("n", "k"),
    "basis": _in_flag_order(CONTEXT_FLAGS, *(flags for flags, _ in BASIS_KINDS.values())),
    "verify": _in_flag_order(CONTEXT_FLAGS, ("seed",), GROUP_FLAGS),
}
COMMAND_FLAGS["all"] = COMMAND_FLAGS["verify"]


class _Given(argparse.Action):
    """Store the flag's value and add the flag to `args.given`: an explicit default is given too."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, value)
        namespace.given = namespace.given | {self.dest}


def _subcommand(sub, name: str, summary: str) -> argparse.ArgumentParser:
    # No prefix matching: `--k` must not quietly become `--kmax`.
    cmd = sub.add_parser(name, help=summary, allow_abbrev=False)
    for flag in COMMAND_FLAGS[name]:
        default, text = FLAGS[flag]
        cmd.add_argument(f"--{flag}", action=_Given, type=int, default=default, help=text,
                         metavar="n" if flag == "n" else None)
    cmd.set_defaults(given=frozenset())
    cmd.add_argument("--format", dest="fmt", choices=("json", "csv", "pretty"),
                     default="json", help="output format (default json)")
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utt",
        description="Exact p-adic upper-triangular matrix calculus and its verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = _subcommand(sub, "matrix", "print one of the named matrices on a window")
    matrix.add_argument("kind", choices=MATRIX_KINDS)
    _subcommand(sub, "qbinom", "print the Gaussian binomial [n, k]_q as a polynomial")
    basis = _subcommand(sub, "basis", "print one of the basis polynomials")
    basis.add_argument("which", choices=BASIS_KINDS)
    verify = _subcommand(sub, "verify", "run a verification suite and report each check")
    verify.add_argument("suite", choices=(*SUITES, "all"))
    _subcommand(sub, "all", "shorthand for: verify all").set_defaults(suite="all")
    return parser


def _resolve_prime(args: argparse.Namespace) -> None:
    """Fill in --p from the environment default; runs before every command."""
    if getattr(args, "p", None) is None:
        raw = os.environ.get(ENV_DEFAULT_PRIME, "3")
        try:
            args.p = int(raw)
        except ValueError:
            raise ConfigError(f"${ENV_DEFAULT_PRIME}={raw!r} is not an integer") from None


def _context(args: argparse.Namespace) -> PadicContext:
    return make_context(args.p, args.q, args.N)


def _require(args: argparse.Namespace, *names: str) -> list[int]:
    if missing := [name for name in names if getattr(args, name) is None]:
        raise ConfigError(f"this command needs --{missing[0]}")
    return [getattr(args, name) for name in names]


def emit_window(win: UTWindow, fmt: str) -> str:
    rows = win.rows()
    if fmt == "json":
        return json.dumps({"p": win.ctx.p, "N": win.ctx.N, "W": win.W,
                           "rows": [[str(v) for v in row] for row in rows]})
    # csv and pretty show the full grid, with explicit zeros below the diagonal.
    grid = [["0"] * i + [str(v) for v in row] for i, row in enumerate(rows)]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in grid)
    width = max(len(s) for row in grid for s in row)
    return "\n".join(" ".join(s.rjust(width) for s in row) for row in grid)


def emit_qpoly(coeffs: tuple[int, ...], fmt: str) -> str:
    """A polynomial in q from its ascending coefficients; () is zero."""
    if fmt == "json":
        return json.dumps(coeffs)
    if fmt == "csv":
        return ",".join(map(str, coeffs))
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
        parts.append(str(c) if d == 0 else f"{head}q^{d}" if d > 1 else f"{head}q")
    return "QPoly(" + (" + ".join(parts).replace("+ -", "- ") or "0") + ")"


def emit_bivar(poly: BivarPoly, fmt: str) -> str:
    """One term per (a, b) in sorted order, with its (val, unit, sig) triple."""
    terms = [(a, b, *t) for (a, b), t in sorted(poly.terms.items())]
    if fmt == "json":
        return json.dumps({
            "weight": poly.weight(),
            "terms": [{"a": a, "b": b, "val": val, "unit": str(unit), "sig": sig}
                      for a, b, val, unit, sig in terms],
        })
    if fmt == "csv":
        return "\n".join(["a,b,val,unit,sig"] + [",".join(map(str, t)) for t in terms])
    if not terms:
        return "0"
    lines = []
    for a, b, val, unit, sig in terms:
        scale = f"p^{val} * " if val else ""
        lines.append(f"u^{a} v^{b}: {scale}{unit} ({sig} digits)")
    return "\n".join(lines)


def _csv_row(*fields: object) -> str:
    """One CSV record, quoted where a field holds a comma, quote or newline."""
    import csv  # here, not at the top: only --format csv pays for it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def emit_check(result: CheckResult, fmt: str) -> str:
    if fmt == "json":
        out = {"check": result.name, "anchor": result.anchor, "pass": result.passed}
        if result.params:
            out["params"] = result.params
        if result.detail:
            out["detail"] = result.detail
        return json.dumps(out)
    if fmt == "csv":
        return _csv_row(result.name, result.anchor, "pass" if result.passed else "FAIL",
                        result.detail)
    status = "PASS" if result.passed else "FAIL"
    suffix = f"  -- {result.detail}" if result.detail else ""
    return f"[{status}] {result.name} ({result.anchor}){suffix}"


def _build(command: str, kinds: dict, kind: str, args: argparse.Namespace):
    """Build `kind` from its flags; a given flag it does not read is checked last, and exits 2."""
    flags, builder = kinds[kind]
    built = builder(_context(args), *_require(args, *flags))
    if unread := sorted(args.given - {*CONTEXT_FLAGS, *flags}):
        raise ConfigError(f"{command} {kind} does not read --{unread[0]}")
    return built


def cmd_matrix(args: argparse.Namespace) -> int:
    print(emit_window(_build("matrix", MATRIX_KINDS, args.kind, args), args.fmt))
    return 0


# Largest degree k(n-k) of [n, k]_q that `utt qbinom` prints.  qbinom keeps
# two rows of the cone of (n, k), the squarer shapes being the costliest:
# at degree 2500 the peak RSS was at most 18 MiB and 0.09 s (n = 100,
# k = 50), at degree 10000 45 MiB and 0.9 s; the time grows about as the
# degree squared, so `--n 400 --k 200` (degree 40000) would take some 15 s.
# [n, 0] and [n, n] have degree 0 at any n; qbinom returns them at once.
QBINOM_MAX_DEGREE = 2500


def cmd_qbinom(args: argparse.Namespace) -> int:
    n, k = _require(args, "n", "k")
    if n < 0:
        raise ConfigError(f"qbinom needs n >= 0, got {n}")
    if k * (n - k) > QBINOM_MAX_DEGREE:
        raise ConfigError(f"qbinom prints degree k(n-k) <= {QBINOM_MAX_DEGREE}, "
                          f"got {k * (n - k)} at n={n}, k={k}")
    print(emit_qpoly(qbinom(n, k), args.fmt))
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    print(emit_bivar(_build("basis", BASIS_KINDS, args.which, args), args.fmt))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = [name for name, s in SUITES.items() if s.in_all] if args.suite == "all" else [args.suite]
    ctx = _context(args)
    for flag in ("nmax", "kmax", "trials"):
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
    for name in names:
        if problem := SUITES[name].precondition(vars(args)):
            raise ConfigError(problem)
    # Unread flags are checked last, so every config rejected before keeps its error line.
    accepted = {flag for name in names for flag in GROUPS[SUITES[name].group]}
    if unread := sorted((GROUP_FLAGS - accepted) & args.given):
        group = SUITES[args.suite].group
        raise ConfigError(f"{args.suite} is a {group} suite and does not read --{unread[0]}")
    total = passed = 0
    for result in run_suites(ctx, names, vars(args)):
        total += 1
        passed += result.passed
        print(emit_check(result, args.fmt))
    summary = {"summary": {"checks": total, "passed": passed, "failed": total - passed}}
    if args.fmt == "json":
        print(json.dumps(summary))
    elif args.fmt == "csv":
        print(_csv_row("summary", "", "pass" if passed == total else "FAIL", f"{passed}/{total}"))
    else:
        print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


COMMANDS = {"matrix": cmd_matrix, "qbinom": cmd_qbinom, "basis": cmd_basis,
            "verify": cmd_verify, "all": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_prime(args)
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout must fail here, not at interpreter exit
        return code
    except UttError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`utt verify all | head`): exit quietly with the
        # status a shell reports for a filter stopped by SIGPIPE.  Later writes,
        # including the flush at exit, go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
