"""Self-tests of the benchmark harness.

Run from the root of the checkout:  python3 -m pytest -q perfbench
They launch worker interpreters and take under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

# a few seconds of work that still reaches every layer except cells
SMALL_PLAN = {
    "targets": ["b3-strict-inclusion", "delta-identity", "dunkl",
                "typeA-haiman"],
    "argv": ["report", "--degree-bound", "5", "--seed", "7", "--samples", "2"],
    "groups": ["B3"],
}


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith(".self_s")


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reported = list(spans.Tracer().report()) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "verdict_s", "cpu_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    from diagonals.cli import TARGETS

    assert spans.TARGET_NAMES == tuple(sorted(TARGETS))


def test_expected_values_cover_every_workload_target():
    expected = run.load_expected()
    for name, w in run.WORKLOADS.items():
        assert sorted(expected[name]) == list(w.targets)
        assert list(w.targets) == sorted(w.targets)  # report order


def test_check_rejects_each_kind_of_failure():
    good = {"target": "cells", "ok": True, "details": {"a": 1}}
    expected = {"cells": {"a": 1}}
    assert run.check(good, expected) is None
    for bad in (dict(good, ok=False), dict(good, aborted="budget"),
                dict(good, details={"a": 2}),
                {"target": "cells", "ok": False, "error": "ValueError: x"}):
        assert run.check(bad, expected)


def test_traced_pass_wraps_every_reference():
    report = run.run_pass(dict(SMALL_PLAN, targets=["cells"], trace=True))
    assert report["unwrapped"] == []


def test_counts_repeat_exactly_across_traced_runs():
    plan = dict(SMALL_PLAN, trace=True)
    first, second = (run.run_pass(plan)["layers"] for _ in range(2))
    counts = {k: v for k, v in first.items() if not _is_time(k)}
    assert counts == {k: v for k, v in second.items() if not _is_time(k)}
    assert counts["groebner.basis.calls"] > 0
    assert counts["diagideals.orbit_projection.calls"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_exercises_its_spans(name):
    w = run.WORKLOADS[name]
    report = run.run_pass(run.plan_for(name, seed=11, trace=True))
    expected = run.load_expected()[name]
    assert [run.check(r, expected) for r in report["results"]] == [
        None] * len(w.targets)
    layers = report["layers"]
    needed = ["weyl.closure"] + [f"cli.{t}" for t in w.targets]
    silent = [s for s in needed + list(w.exercises)
              if layers[f"{s}.calls"] == 0]
    assert silent == []


def test_run_fails_without_the_toolkit(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "operators",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
