import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_b3_discrepancy_sweep_prints_relation_and_witness():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "b3_discrepancy_sweep.py"),
         "--degree-bound", "6"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "relation: left-strictly-contained" in lines
    at = lines.index("witness (6 terms, primitive):")
    assert lines[at + 1].startswith("x2*x3^2*y1^2*y2 - ")


def _canned_run(seed: int, verdict: float, failed: int = 0) -> str:
    """Output of perfbench/run.py in the shape it prints, no benchmark run."""
    env = {"cpus": 2, "gmpy2": False, "python": "3.11.7", "seed": seed,
           "commit": "5805fad", "qq": "fractions.Fraction"}
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in (
        ("setup_s", 0.2, "s"), ("verdict_s", verdict, "s"),
        ("cpu_s", verdict - 0.01, "s"), ("peak_rss_mb", 21.0, "MB"))}
    return "\n".join([
        "env " + json.dumps(env, sort_keys=True),
        "passes 3 verdict_s each [1.0] target seeds [1]",
        "fail_rate 0 ratio (0 of 6 checks)",
        "verdict_s 1.4 s",
        json.dumps({"correct": not failed, "attempted": 6, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_merges_runs_and_summarises_each_label(tmp_path, monkeypatch):
    bench = _load_bench()
    # seeds 1-3 run on the parent side, 11-13 on the change side; the
    # run at seed 3 fails one check
    verdicts = {1: 4.0, 11: 1.5, 2: 5.0, 12: 1.4, 3: 6.0, 13: 1.6}
    monkeypatch.setattr(bench, "run_once", lambda checkout, workload, seed:
                        _canned_run(seed, verdicts[seed],
                                    failed=int(seed == 3)))
    out = tmp_path / "BENCH_1.json"
    for seed in (1, 2, 3):
        for label, run_seed in (("parent", seed), ("change", seed + 10)):
            assert bench.main(["--label", label, "--workload", "operators",
                               "--seed", str(run_seed),
                               "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["environment"] == {"python": "3.11.7", "gmpy2": False,
                                     "cpus": 2}
    assert [r["env"]["seed"] for r in record["runs"]["parent"]["operators"]] \
        == [1, 2, 3]
    parent = record["summary"]["parent"]["operators"]
    assert parent["verdict_s"] == {"median": 5.0, "q1": 4.5, "q3": 5.5,
                                   "n": 3}
    assert (parent["attempted"], parent["failed"]) == (18, 1)
    change = record["summary"]["change"]["operators"]
    assert change["verdict_s"]["median"] == 1.5
    assert change["peak_rss_mb"] == {"median": 21.0, "q1": 21.0,
                                     "q3": 21.0, "n": 3}


@pytest.mark.parametrize("parent, change, ratio, spread, status", [
    # parent spread 2.4 %, under the 25 % bound: the +2.4 % reads within
    ((4.0, 4.1, 4.2), (4.1, 4.2, 4.3), 0.1 / 4.1, 0.1 / 4.1, "within"),
    # parent spread 25 % reaches the bound and two change runs are slower
    # than the fastest parent run: +5 % cannot be told from noise
    ((3.0, 4.0, 5.0), (3.5, 4.2, 4.4), 0.05, 0.25, "unresolved"),
    ((4.0, 4.1, 4.2), (5.0, 5.2, 5.4), 1.1 / 4.1, 0.1 / 4.1, "worse"),
])
def test_bench_compares_the_labels_against_each_bound(
        tmp_path, monkeypatch, parent, change, ratio, spread, status):
    bench = _load_bench()
    verdicts = {seed: v for seed, v in enumerate(parent + change)}
    monkeypatch.setattr(bench, "run_once", lambda checkout, workload, seed:
                        _canned_run(seed, verdicts[seed]))
    out = tmp_path / "BENCH_1.json"
    for label, seeds in (("parent", "012"), ("change", "345")):
        bench.main(["--label", label, "--workload", "powers", "--seed",
                    *seeds, "--out", str(out)])
        # no comparison until both labels hold runs of the workload
        assert ("comparison" in json.loads(out.read_text())) \
            == (label == "change")
    compared = json.loads(out.read_text())["comparison"]["powers"]
    verdict = compared["verdict_s"]
    assert verdict["bound"] == 0.25 and verdict["status"] == status
    assert verdict["change_vs_parent"] == pytest.approx(ratio)
    assert verdict["parent_spread"] == pytest.approx(spread)
    # the canned runs hold memory and set-up time fixed
    assert compared["peak_rss_mb"] == {
        "change_vs_parent": 0.0, "parent_spread": 0.0, "bound": 0.05,
        "status": "within",
        "paired": {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 3, "won": 0}}


def test_bench_pairs_runs_through_a_host_speed_drift(tmp_path, monkeypatch):
    bench = _load_bench()
    # both labels run slow for the first four pairs and fast for the last
    # four; within each pair the change is within 2 % of the parent
    parent = (2.0, 2.4, 2.2, 2.3, 1.3, 1.4, 1.2, 1.35)
    factor = (1.01, 0.99, 1.02, 0.98, 1.01, 0.99, 1.0, 0.995)
    change = tuple(p * f for p, f in zip(parent, factor))
    verdicts = dict(enumerate(parent + change))
    monkeypatch.setattr(bench, "run_once", lambda checkout, workload, seed:
                        _canned_run(seed, verdicts[seed]))
    out = tmp_path / "BENCH_1.json"
    for i in range(len(parent)):
        for label, seed in (("parent", i), ("change", len(parent) + i)):
            bench.main(["--label", label, "--workload", "monomial-b3",
                        "--seed", str(seed), "--out", str(out)])
    verdict = json.loads(out.read_text())["comparison"]["monomial-b3"][
        "verdict_s"]
    # the label medians cannot tell the drift from the change
    assert verdict["parent_spread"] > verdict["bound"]
    assert verdict["status"] == "unresolved"
    # the pairs can
    pairs = verdict["paired"]
    assert pairs["n"] == 8 and pairs["won"] == 4
    assert abs(pairs["median"]) < 0.005
    assert pairs["q1"] == pytest.approx(-0.01, abs=0.003)
    assert pairs["q3"] == pytest.approx(0.01, abs=0.003)


@pytest.mark.parametrize("parent_failed, change_failed, status", [
    ((0, 0), (0, 0), "within"),
    ((1, 0), (0, 1), "within"),
    ((0, 0), (0, 1), "worse"),
    ((2, 1), (0, 0), "within"),
])
def test_bench_compares_the_share_of_failed_checks(
        tmp_path, monkeypatch, parent_failed, change_failed, status):
    bench = _load_bench()
    # seeds 0-1 run on the parent side, 2-3 on the change side; every
    # canned run attempts 6 checks
    failed = parent_failed + change_failed
    monkeypatch.setattr(bench, "run_once", lambda checkout, workload, seed:
                        _canned_run(seed, 4.0, failed=failed[seed]))
    out = tmp_path / "BENCH_1.json"
    for label, seeds in (("parent", "01"), ("change", "23")):
        bench.main(["--label", label, "--workload", "powers", "--seed",
                    *seeds, "--out", str(out)])
    shares = json.loads(out.read_text())["comparison"]["powers"]["fail_share"]
    assert shares == {"parent": sum(parent_failed) / 12,
                      "change": sum(change_failed) / 12, "status": status}


def test_bench_refuses_a_run_from_another_environment():
    bench = _load_bench()
    record = bench.merge({}, "parent", "operators",
                         bench.parse_run(_canned_run(1, 4.0)))
    other = bench.parse_run(_canned_run(2, 4.0).replace('"cpus": 2',
                                                        '"cpus": 8'))
    with pytest.raises(ValueError, match="differs"):
        bench.merge(record, "change", "operators", other)


def test_bench_refuses_a_second_commit_under_one_label():
    bench = _load_bench()
    record = bench.merge({}, "change", "operators",
                         bench.parse_run(_canned_run(1, 4.0)))
    other = bench.parse_run(_canned_run(2, 4.0).replace('"5805fad"',
                                                        '"1287461"'))
    with pytest.raises(ValueError, match="commit 1287461 differs"):
        bench.merge(record, "change", "powers", other)
    # the other label may name another commit
    bench.merge(record, "parent", "operators", other)


def test_bench_refuses_a_run_without_a_commit():
    bench = _load_bench()
    run = bench.parse_run(_canned_run(1, 4.0).replace('"5805fad"', "null"))
    with pytest.raises(ValueError, match="commit"):
        bench.merge({}, "change", "operators", run)


def test_bench_rejects_output_without_a_result_line():
    bench = _load_bench()
    with pytest.raises(ValueError):
        bench.parse_run("benchmark could not run: no toolkit\n")
