"""Tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, make_calls

TINY = 0.01


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_seeded(workload):
    assert make_calls(workload, 7) == make_calls(workload, 7)
    assert make_calls(workload, 7) != make_calls(workload, 8)


def test_point_mix():
    kinds = [args[0] for args in make_calls("point", 3)]
    assert kinds[0] == "abc" and len(kinds) == 121
    assert {k: kinds[1:].count(k) for k in set(kinds)} == {
        "membership": 54, "svalue": 33, "abc": 11, "binomial": 11, "bounds": 11,
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_stdout_identical(workload, tmp_path):
    calls = make_calls(workload, 5, TINY)
    plain = run.spawn(calls, False, 120)
    traced = run.spawn(calls, True, 120, tmp_path / "spans.bin")
    checker = run.Checker(None)
    assert checker.check(calls, plain["calls"]) == [None] * len(calls)
    assert checker.check(calls, traced["calls"]) == [None] * len(calls)
    assert [c["stdout"] for c in traced["calls"]] == [c["stdout"] for c in plain["calls"]]

    summary = traced["trace"]
    layers = run.layer_values(summary, 1)
    for module in run.MODULES:
        assert f"{module}.self_s" in layers
    assert summary["functions"]["cli.main"]["calls"] == len(calls)

    header, threads = spans.read_spans(tmp_path / "spans.bin")
    assert sum(len(t["fn"]) for t in threads) == summary["spans"]
    main = threads[0]
    assert set(main["call"]) == set(range(len(calls)))
    assert all(s <= e for s, e in zip(main["start"], main["end"]))


def test_self_times_add_up_to_the_calls():
    """Without worker threads, self times partition each call's duration."""
    calls = make_calls("table", 5, TINY) + make_calls("point", 5, TINY)
    fns = run.spawn(calls, True, 120)["trace"]["functions"]
    total_self = sum(f["self_s"] for f in fns.values())
    assert total_self == pytest.approx(fns["cli.main"]["s"], rel=1e-6)


def test_worker_thread_spans_hang_under_the_pool_owner():
    calls = [["enumerate", "--base", "2", "--K", "1", "--N", "60", "--c", "1.01", "--threads", "2"]]
    summary = run.spawn(calls, True, 120)["trace"]
    fns = summary["functions"]
    assert fns["smooth.membership"]["calls"] == 60
    # The pool's threads cover most of enumerate_members, so its self time
    # is a small part of its duration, never negative.
    enum = fns["smooth.enumerate_members"]
    assert 0 <= enum["self_s"] < enum["s"]


def test_union_length():
    assert spans._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans._union_length([(0, 2), (1, 3)], 1, 2) == 1
    assert spans._union_length([], 0, 1) == 0


def test_checker_rejects_bad_output():
    checker = run.Checker(None)
    calls = [["window"], ["binomial"], ["bounds"], ["bounds"]]
    good = json.dumps({"schema_version": 1, "parameters": {}, "results": []})
    outcome = [
        {"code": 0, "stdout": json.dumps({"schema_version": 1, "parameters": {}, "results": [
            {"agreement_delta": 1e-3, "log_Q": 10.0}]})},
        {"code": 0, "stdout": json.dumps({"schema_version": 1, "parameters": {}, "results": [
            {"reconstruction_ok": False}]})},
        {"code": 0, "stdout": '{"schema_version": 1, "parameters": {"y": NaN}, "results": []}'},
        {"code": 2, "stdout": good},
    ]
    assert all(checker.check(calls, outcome))


def test_benchmark_json_matches_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
