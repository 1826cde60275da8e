"""One benchmark pass: a fresh process that runs a list of `utt` argvs once.

Usage: python3 -I child.py SRC CONTEXTS REQUEST

SRC is the checkout's `src` directory, CONTEXTS the `(p, q, N)` triples
to build during set-up, as `p,q,N;p,q,N`, and REQUEST a JSON object with
the argv lists and whether to trace.  Nothing beyond `sys` and `time` is
imported before set-up is timed, so that `import utt` pays for its own
standard-library imports.

The process times set-up (`import utt` plus `make_context` for each
context), then calls `utt.cli.main(argv)` for each argv with stdout and
stderr captured, and prints one JSON line describing the pass.  An
invocation that raises or exits is recorded, not fatal.
"""

import sys
from time import perf_counter


def main() -> int:
    src, contexts, raw_request = sys.argv[1:4]
    sys.path.insert(0, src)

    t0 = perf_counter()
    import utt
    import utt.cli
    for triple in contexts.split(";"):
        utt.make_context(*map(int, triple.split(",")))
    setup_s = perf_counter() - t0

    import json
    import os

    request = json.loads(raw_request)
    if os.path.dirname(os.path.abspath(utt.__file__)) != os.path.join(src, "utt"):
        print(f"utt was imported from {utt.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if request.get("setup_only"):
        print(json.dumps(result))
        return 0

    import contextlib
    import hashlib
    import io
    import resource
    import traceback

    main_fn = utt.cli.main
    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import ROOT, Tracer
        import utt.verify
        tracer = Tracer()
        tracer.install(utt.verify.SUITE_BUILDERS)
        main_fn = tracer.span(ROOT, main_fn)

    invocations = []
    verify_s = 0.0
    for argv in request["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main_fn(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an invocation's failure is a measured outcome
            rc, error = 1, traceback.format_exc(limit=3)
        verify_s += perf_counter() - start
        text = out.getvalue()
        invocations.append({
            "argv": argv,
            "rc": rc,
            "error": error or err.getvalue()[-2000:] or None,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            **parse_report(text),
        })
    result["verify_s"] = verify_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["invocations"] = invocations
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


def parse_report(text: str) -> dict:
    """Count the check lines of a JSON report and read its summary line."""
    import json

    checks = failed = 0
    anchors = set()
    summary = None
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        if "summary" in record:
            summary = record["summary"]
        elif "check" in record:
            checks += 1
            failed += record.get("pass") is not True
            anchors.add(record.get("anchor"))
    return {"checks": checks, "failed": failed, "anchors": sorted(map(str, anchors)),
            "summary": summary}


if __name__ == "__main__":
    sys.exit(main())
