"""smoothlab benchmark.

    python3 perfbench/run.py --workload scan|table|point --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Each repetition starts one fresh interpreter
(worker.py) that imports ``smoothlab.cli`` and runs the workload's CLI
calls in sequence, a library session whose caches stay warm within the
repetition.  Repetitions repeat until ``--seconds`` is spent.

Every call is checked (exit code, schema-v1 JSON, cheap invariants the
output carries, byte-identity across repetitions and between traced and
untraced runs, and for the default seed the sha256 recorded in
digests.json); ``failed`` counts the calls that break any check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from the
span recorder (spans.py), plus the tracing overhead.  The last stdout line
is the result object; the line before it records the machine, the sample
counts and the failure ratio.  A table of every metric goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES
from workloads import WORKLOADS, make_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "output-schema.json"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

DEFAULT_SEED = 1
# Import-only interpreters started after each untraced repetition, so
# setup_s is a median of set-ups spread over the whole run.
SETUP_SPAWNS = 2
# A run must end within 180 s; no repetition may start or last past this.
HARD_LIMIT_S = 160.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("call_p50_s", "s", "lower"),
    ("call_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("arith.self_s", "s", "lower"),
    ("arith.primes_upto.calls", "count", "lower"),
    ("arith.sieve_primes.s", "s", "lower"),
    ("arith.is_prime.calls", "count", "lower"),
    ("arith.is_prime.s", "s", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.s", "s", "lower"),
    ("orders.self_s", "s", "lower"),
    ("orders.order_record.calls", "count", "lower"),
    ("orders.records_built", "count", "lower"),
    ("orders.record_reuse_ratio", "ratio", "higher"),
    ("orders.multiplicative_order.calls", "count", "lower"),
    ("orders.term_valuation_direct.calls", "count", "lower"),
    ("smooth.self_s", "s", "lower"),
    ("smooth.smooth_part_of_term.calls", "count", "lower"),
    ("smooth.smooth_part_of_term.s", "s", "lower"),
    ("smooth.membership.calls", "count", "lower"),
    ("smooth.exact_tiebreaks", "count", "lower"),
    ("smooth.counting_report.s", "s", "lower"),
    ("windows.self_s", "s", "lower"),
    ("windows.window_product.s", "s", "lower"),
    ("windows.density_check.s", "s", "lower"),
    ("windows.dyadic_partition.s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.calls", "count", "lower"),
    ("abc_triples.self_s", "s", "lower"),
    ("abc_triples.abc_quality.s", "s", "lower"),
    ("binomial.self_s", "s", "lower"),
    ("binomial.binomial_valuation.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
)


class HarnessError(Exception):
    """The benchmark itself cannot run (not a failure of a call)."""


# ---------------------------------------------------------------- checks

def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


class Checker:
    """Per-call correctness checks; content checks run once per distinct
    stdout."""

    def __init__(self, expected: list[str] | None):
        import jsonschema

        schema = json.loads(SCHEMA.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        self._expected = expected
        self._reference: list[str] | None = None
        self._content: dict[str, str | None] = {}

    def _check_content(self, command: str, text: str) -> str | None:
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        error = next(iter(self._validator.iter_errors(doc)), None)
        if error is not None:
            return f"stdout breaks the output schema: {error.message}"
        rows = doc["results"]
        if command == "window":
            for r in rows:
                if not r["agreement_delta"] <= 1e-9 * max(1.0, abs(r["log_Q"])):
                    return f"window agreement_delta {r['agreement_delta']} too large"
        if command == "binomial":
            if not all(r["reconstruction_ok"] is True for r in rows):
                return "binomial reconstruction_ok is false"
        return None

    def check(self, calls: list[list[str]], outcome: list[dict]) -> list[str | None]:
        """One failure reason (or None) per call of one repetition."""
        digests = [hashlib.sha256(o["stdout"].encode()).hexdigest() for o in outcome]
        if self._reference is None:
            self._reference = digests
        reasons = []
        for i, (args, o, d) in enumerate(zip(calls, outcome, digests)):
            if d not in self._content:
                self._content[d] = self._check_content(args[0], o["stdout"])
            if o["code"] != 0:
                reason = f"exit code {o['code']}"
            elif self._content[d] is not None:
                reason = self._content[d]
            elif self._expected is not None and d != self._expected[i]:
                reason = "stdout sha256 differs from the digest recorded for the default seed"
            elif d != self._reference[i]:
                reason = "stdout differs from the first repetition of this run"
            else:
                reason = None
            reasons.append(reason)
        return reasons


# ------------------------------------------------------------- processes

def spawn(calls: list[list[str]], trace: bool, timeout: float, spans_out: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its result.

    Raises HarnessError if the worker does not return a result."""
    env = {k: v for k, v in os.environ.items() if k != "SMOOTHLAB_SIEVE_LIMIT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spec = {"src": str(SRC), "calls": calls, "trace": trace,
            "spans_out": str(spans_out) if spans_out else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"repetition killed after {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# --------------------------------------------------------------- metrics

def pooled_latencies(reps: list[dict]) -> list[float]:
    """Every call's latency in every repetition, one pool.

    The host this was built on changes speed within seconds, so a single
    repetition of a call is a noisy sample; quantiles over the pool of all
    repetitions are steadier than any one repetition or the fastest."""
    return [c["seconds"] for r in reps for c in r["calls"]]


def call_quantiles(latencies: list[float]) -> tuple[float, float, int]:
    """Median and p90 of the pooled call latencies, and how many samples
    lie beyond the p90."""
    p50 = statistics.median(latencies)
    if len(latencies) < 2:
        return p50, latencies[0], 0
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return p50, p90, sum(1 for x in latencies if x > p90)


def layer_values(summary: dict, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but the two that
    need several repetitions)."""
    fns = summary["functions"]

    def fn(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    def module_sum(module: str, key: str) -> float:
        return sum(v[key] for k, v in fns.items() if k.split(".")[0] == module)

    record_calls = fn("orders.order_record", "calls")
    special = {
        "orders.records_built": summary["records_built"],
        "orders.record_reuse_ratio":
            1 - summary["records_built"] / record_calls if record_calls else 0.0,
        "smooth.exact_tiebreaks": summary["exact_tiebreaks"],
        "cli.out_bytes": out_bytes,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif tail == "self_s":
            values[name] = module_sum(head, "self_s")
        elif tail == "calls":
            values[name] = module_sum(head, "calls") if head in MODULES else fn(head, "calls")
        elif tail == "s":
            values[name] = fn(head, "s")
    return values


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ------------------------------------------------------------------ runs

def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result object, run details)."""
    t_begin = time.perf_counter()
    for path, what in ((SRC / "smoothlab" / "cli.py", "the smoothlab sources"), (SCHEMA, "the output schema")):
        if not path.is_file():
            raise HarnessError(f"{what} not found at {path}; run from a checkout of the repository")
    machine = machine_info()
    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())["workloads"][workload]
    checker = Checker(expected)
    calls = make_calls(workload, seed)

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - t_begin)

    # Import once untimed, so byte-compilation is not charged to set-up.
    spawn([], False, remaining())
    start = time.perf_counter()
    deadline = start + seconds

    spans_out = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_out = OUT / f"spans-{workload}.bin"
    plain, traced, layers, setups, failures = [], [], [], [], []
    attempted = 0
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if not trace:
            order = [False]
        else:
            # Alternate which side goes first, so drift hits both.
            order = [True, False] if rounds % 2 else [False, True]
        for traced_rep in order:
            attempted += len(calls)
            try:
                rep = spawn(calls, traced_rep, remaining(), spans_out if traced_rep else None)
            except HarnessError as exc:
                failures.extend(f"{' '.join(a)}: {exc}" for a in calls)
                continue
            for args, reason in zip(calls, checker.check(calls, rep["calls"])):
                if reason:
                    failures.append(f"{' '.join(args)}: {reason}")
            if traced_rep:
                traced.append(rep)
                out_bytes = sum(len(c["stdout"].encode()) for c in rep["calls"])
                layers.append(layer_values(rep["trace"], out_bytes))
            else:
                plain.append(rep)
                setups.append(rep["setup_s"])
                setups.extend(spawn([], False, remaining())["setup_s"] for _ in range(SETUP_SPAWNS))
        rounds += 1
        now = time.perf_counter()
        if now + (now - round_start) > deadline or remaining() < 2 * (now - round_start):
            break

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine, "calls_per_repetition": len(calls),
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "measured_s": time.perf_counter() - start,
        "repetition_wall_s": [r["wall_s"] for r in plain],
        "fail_frac": len(failures) / attempted, "failures": failures[:10],
    }
    if not plain or (trace and not traced):
        raise HarnessError("no repetition completed: " + "; ".join(failures[:3]))

    wall_s = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall_s - 1
        metrics["fail_frac"] = details["fail_frac"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        pool = pooled_latencies(plain)
        p50, p90, beyond = call_quantiles(pool)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "call_p50_s": p50,
            "call_p90_s": p90,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        details.update(setup_samples=len(setups), call_samples=len(pool),
                       samples_beyond_p90=beyond, p90_resolved=beyond >= 10)
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:38s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"failed {result['failed']} of {result['attempted']} calls "
          f"(fail_frac {details['fail_frac']:.6g})", file=sys.stderr)
    for reason in details["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
