"""One benchmark repetition, run in a fresh interpreter by run.py.

Reads a JSON spec on stdin:
  {"src": <dir holding the smoothlab package>, "calls": [[arg, ...], ...],
   "trace": bool, "spans_out": <path or null>}
imports ``smoothlab.cli`` (timed as set-up), runs each call through the
CLI entry point ``smoothlab.cli.main`` in this one process, so caches stay
warm from call to call, and prints one JSON line with the set-up time, the
whole list's wall time, the peak RSS and, per call, its exit code, latency
and stdout.  With "trace" set, the calls run under the span recorder and
the line also carries the per-function summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _invoke(entry, args: list[str], buf: io.StringIO) -> int:
    """Run one CLI call as the console script would, returning its exit code."""
    try:
        with contextlib.redirect_stdout(buf):
            entry(args, prog_name="smoothlab", standalone_mode=True)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the console script would exit 1 with a traceback
        print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import smoothlab.cli

    setup_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(smoothlab.cli.__file__).startswith(src + os.sep):
        sys.exit(f"smoothlab imported from {smoothlab.cli.__file__}, not from {src}")

    entry = smoothlab.cli.main.main
    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        entry = recorder.wrap("cli.main", entry)

    calls = []
    wall0 = time.perf_counter()
    for i, args in enumerate(spec["calls"]):
        if recorder is not None:
            recorder.call_id = i
        buf = io.StringIO()
        t = time.perf_counter()
        code = _invoke(entry, args, buf)
        calls.append({"code": code, "seconds": time.perf_counter() - t, "stdout": buf.getvalue()})
    wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "calls": calls}
    if recorder is not None:
        result["trace"] = recorder.summarize()
        if spec.get("spans_out"):
            recorder.write(spec["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
