"""Outside-in span recorder for the eight smoothlab modules.

``SpanRecorder.install()`` replaces every public function of each module
with a wrapper that records one span per call, and rebinds every alias
other smoothlab modules imported (``windows.membership``,
``cli.window_product``, ...), so calls between modules are seen too.  The
package itself is not edited.

A span holds its function, start, end, parent span and the index of the
CLI call it belongs to.  Spans are kept in per-thread columns in memory and
written out once, at the end.  A span opened on a ``--threads`` worker
thread with nothing open on that thread takes as parent the span open on
the main thread, which is blocked in the pool at the time; its thread id is
kept with its thread's columns.

Self time is a span's duration minus the time its child spans cover.
Children on the parent's own thread run one after another, so their
durations add up; children on other threads may overlap, so their union is
taken instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array
from collections import defaultdict

MODULES = ("arith", "orders", "smooth", "windows", "bounds", "abc_triples", "binomial", "cli")

# Span ids are thread_index * THREAD_STRIDE + index within the thread.
THREAD_STRIDE = 1 << 32

COLUMNS = (("fn", "i"), ("parent", "q"), ("call", "i"), ("start", "d"), ("end", "d"))


class _ThreadLog:
    """Spans opened on one thread, as parallel columns."""

    def __init__(self, base: int, tid: int):
        self.base = base
        self.tid = tid
        self.stack: list[int] = []
        self.tiebreaks = 0
        for col, code in COLUMNS:
            setattr(self, col, array(code))


def _count_tiebreak(log: _ThreadLog, verdict) -> None:
    log.tiebreaks += verdict.exact_tiebreak_used


# Functions whose return value feeds a counter.
_RESULT_HOOKS = {"smooth.membership": _count_tiebreak}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.call_id = -1
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        self._main = self._thread_log()

    def _thread_log(self) -> _ThreadLog:
        with self._logs_lock:
            log = _ThreadLog(len(self._logs) * THREAD_STRIDE, threading.get_ident())
            self._logs.append(log)
        self._local.log = log
        return log

    def wrap(self, name: str, fn):
        """fn, recording a span named name around every call."""
        fid = len(self.names)
        self.names.append(name)
        hook = _RESULT_HOOKS.get(name)
        local, main, clock = self._local, self._main, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = getattr(local, "log", None) or self._thread_log()
            stack = log.stack
            if stack:
                parent = stack[-1]
            elif log is not main and main.stack:
                parent = main.stack[-1]
            else:
                parent = -1
            i = len(log.fn)
            log.fn.append(fid)
            log.parent.append(parent)
            log.call.append(self.call_id)
            log.end.append(0.0)
            stack.append(log.base + i)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(log, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every module in MODULES and rebind
        each name under which smoothlab refers to them."""
        package = importlib.import_module("smoothlab")
        modules = [importlib.import_module(f"smoothlab.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def summarize(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds; plus the
        order records built (order_record spans with a multiplicative_order
        child) and the exact tie-breaks the returned verdicts report."""
        logs = self._logs
        names = self.names
        ids = {name: fid for fid, name in enumerate(names)}
        mo = ids.get("orders.multiplicative_order", -1)
        rec = ids.get("orders.order_record", -1)
        covered = [array("d", bytes(8 * len(log.fn))) for log in logs]
        foreign = defaultdict(list)
        built = set()
        for t, log in enumerate(logs):
            for fn, p, s, e in zip(log.fn, log.parent, log.start, log.end):
                if p < 0:
                    continue
                pt, pi = divmod(p, THREAD_STRIDE)
                if pt == t:
                    covered[t][pi] += e - s
                else:
                    foreign[p].append((s, e))
                if fn == mo and logs[pt].fn[pi] == rec:
                    built.add(p)
        for p, intervals in foreign.items():
            pt, pi = divmod(p, THREAD_STRIDE)
            lo, hi = logs[pt].start[pi], logs[pt].end[pi]
            covered[pt][pi] += _union_length(intervals, lo, hi)

        calls = [0] * len(names)
        total = [0.0] * len(names)
        self_s = [0.0] * len(names)
        for t, log in enumerate(logs):
            for fn, s, e, cov in zip(log.fn, log.start, log.end, covered[t]):
                calls[fn] += 1
                total[fn] += e - s
                self_s[fn] += e - s - cov
        return {
            "functions": {
                name: {"calls": calls[f], "s": total[f], "self_s": self_s[f]}
                for f, name in enumerate(names)
            },
            "records_built": len(built),
            "exact_tiebreaks": sum(log.tiebreaks for log in logs),
            "spans": sum(len(log.fn) for log in logs),
        }

    def write(self, path) -> None:
        """Write every span: one JSON header line naming the functions,
        threads and columns, then each thread's columns as raw arrays."""
        header = {
            "functions": self.names,
            "thread_stride": THREAD_STRIDE,
            "threads": [{"tid": log.tid, "spans": len(log.fn)} for log in self._logs],
            "columns": [list(c) for c in COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for log in self._logs:
                for col, _ in COLUMNS:
                    getattr(log, col).tofile(fh)


def read_spans(path) -> tuple[dict, list[dict]]:
    """Inverse of SpanRecorder.write: the header and, per thread, its columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for info in header["threads"]:
            cols = {"tid": info["tid"]}
            for col, code in header["columns"]:
                a = array(code)
                a.fromfile(fh, info["spans"])
                cols[col] = a
            threads.append(cols)
    return header, threads


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    length = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                length += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        length += cur_e - cur_s
    return length
