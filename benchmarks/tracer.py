"""Outside-in per-layer tracing of `utt`, with no change to the package.

`Tracer.install()` replaces the public functions of each layer with
wrappers, in every `utt` module namespace that holds them (names bound by
`from .ops import build_Xn` are separate bindings and are patched one by
one).  Two kinds of wrapper exist:

* a *span* records calls, inclusive time and self time, where self time
  is the span's duration minus the time covered by the spans it encloses;
* a *counter* records calls only.  The residue layer is counted, never
  spanned: one span per scalar would cost more than the work it measures.

Spans are aggregated by name in memory; `metrics()` turns them into the
flat per-layer metric dictionary the benchmark reports.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SUITES = ("qbinom-matrix", "rpower", "xn", "alpha", "conjugation",
          "integrality", "action", "alglem", "lower-g")

# (span name, module, attribute path) of every spanned function.
SPANS = (
    ("utmat.mul", "utt.utmat", "UTWindow.__mul__"),
    ("utmat.pow", "utt.utmat", "UTWindow.__pow__"),
    ("utmat.inverse", "utt.utmat", "UTWindow.inverse"),
    ("utmat.eq", "utt.utmat", "UTWindow.__eq__"),
    ("utmat.from_fn", "utt.utmat", "UTWindow.from_fn"),
    ("ops.build_Xn", "utt.ops", "build_Xn"),
    ("ops.build_Rn", "utt.ops", "build_Rn"),
    ("ops.alpha", "utt.ops", "alpha"),
    ("ops.rpower_closed", "utt.ops", "rpower_closed"),
    ("ops.xn_closed", "utt.ops", "xn_closed"),
    ("ops.xn_expand_binomial", "utt.ops", "xn_expand_binomial"),
    ("conj.build_U", "utt.conj", "build_U"),
    ("conj.normalize_superdiag", "utt.conj", "normalize_superdiag"),
    ("conj.verify_conjugation", "utt.conj", "verify_conjugation"),
    ("qcalc.qbinom_eval", "utt.qcalc", "qbinom_eval"),
    ("basis.c_poly", "utt.basis", "c_poly"),
    ("basis.expand_in_c_basis", "utt.basis", "expand_in_c_basis"),
    ("basis.BivarPoly.mul", "utt.basis", "BivarPoly.__mul__"),
    ("basis.substitute", "utt.basis", "BivarPoly.substitute"),
    ("basis.psi_action", "utt.basis", "psi_action"),
    ("cli.emit", "utt.cli", "emit_check"),
)

# (counter name, module, attribute paths) of every counted method.
COUNTERS = (
    ("padic.ctx_eq", "utt.padic", ("PadicContext.__eq__",)),
    ("padic.int_ops", "utt.padic", tuple(
        f"PadicInt.{m}" for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                                  "__rmul__", "__neg__", "__pow__", "inverse"))),
    ("padic.scaled_ops", "utt.padic", tuple(
        f"PadicScaled.{m}" for m in ("__add__", "__radd__", "__mul__", "__rmul__", "inverse"))),
)

# lru caches read through cache_info() on the original objects.
CACHES = (("qcalc.qbinom", "utt.qcalc", "qbinom"), ("basis.c_poly", "utt.basis", "c_poly"))

ROOT = "cli.main"


def _utt_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "utt" or name.startswith("utt."))]


class Tracer:
    """Installs the wrappers, aggregates spans and counters, restores on exit."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.madds = 0
        self.rn_keys: set[tuple[int, ...]] = set()
        self._stack = [0.0]  # time covered by child spans, one slot per open span
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        calls, total, self_s, stack = self.calls, self.total_s, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - stack.pop()
                stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_mul(self, a, b) -> None:
        W = a.W
        self.madds += W * (W + 1) * (W + 2) // 6

    def _on_build_Rn(self, ctx, n, W) -> None:
        self.rn_keys.add((ctx.p, ctx.q, ctx.N, n, W))

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, module: str, path: str, make) -> None:
        cls_name, attr = path.split(".")
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _patch_function(self, module: str, attr: str, wrapper) -> None:
        original = getattr(sys.modules[module], attr)
        self._originals[attr] = original
        for mod in _utt_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self, suite_builders: dict) -> None:
        """Wrap every layer; `suite_builders` is `utt.verify.SUITE_BUILDERS`."""
        hooks = {"utmat.mul": self._on_mul, "ops.build_Rn": self._on_build_Rn}
        for name, module, path in SPANS:
            if "." in path:
                self._patch_method(module, path,
                                   lambda fn, n=name: self.span(n, fn, hooks.get(n)))
            else:
                fn = getattr(sys.modules[module], path)
                self._patch_function(module, path, self.span(name, fn, hooks.get(name)))
        for name, module, paths in COUNTERS:
            for path in paths:
                self._patch_method(module, path, lambda fn, n=name: self.counter(n, fn))
        for suite in SUITES:
            builder = suite_builders[suite]
            self._undo.append((suite_builders, suite, builder))
            suite_builders[suite] = self.span(f"verify.{suite}", builder)

    def _cache(self, module: str, attr: str):
        return self._originals.get(attr) or getattr(sys.modules[module], attr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNTERS:
            out[f"{name}.calls"] = self.calls[name]
        out["utmat.mul.madds"] = self.madds
        rn_calls = self.calls["ops.build_Rn"]
        out["ops.build_Rn.distinct"] = len(self.rn_keys)
        out["ops.build_Rn.distinct_ratio"] = len(self.rn_keys) / rn_calls if rn_calls else 0.0
        for name, module, attr in CACHES:
            info = self._cache(module, attr).cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.lookups"] = lookups
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        for suite in SUITES:
            out[f"verify.{suite}.s"] = self.total_s[f"verify.{suite}"]
        out["cli.main.calls"] = self.calls[ROOT]
        out["trace.uncovered_s"] = self.self_s[ROOT]
        return out
