#!/usr/bin/env python3
"""Record benchmark runs of one checkout in a BENCH_<n>.json file.

Usage (from the root of any checkout):

    python3 scripts/bench.py --checkout ../parent --label parent \\
        --workload operators --seed 9101 9102 --out BENCH_9.json

Each seed is one run of perfbench/run.py in the named checkout, with
--seconds 30 and --trace 0 on every run.  The run's `env` line and its
last line, the result, are merged into --out under the label (parent or
change) and the workload, so a paired comparison alternates calls with
the two labels on one file.  After every merge the file's summary
gives, per label and workload, the median and quartiles of each
end-to-end metric over the runs recorded so far.  Once both labels hold
runs of a workload, the file's comparison gives, per workload and
end-to-end metric, the change median over the parent median minus 1,
the parent's spread (q3 - q1) / median, the metric's bound from
BENCHMARK.json, and a status: `worse` when the change is worse by more
than the bound, `unresolved` when the parent's spread reaches the bound
and not every change run beats every parent run, `within` otherwise.
Each metric's `paired` entry pairs the i-th parent run of the workload
with its i-th change run and gives the pair count n, the median and
quartiles of change/parent - 1 over the pairs, and the number of pairs
the change won; a host-speed drift during the record moves both runs of
a pair, so it widens the label spread but not the pair ratios.
The comparison's fail_share gives each label's failed checks over
attempted ones, with status `worse` when the change's share is higher.
Lower reads better on every end-to-end metric.  Every run must
report the same Python version, gmpy2 status and CPU count as the runs
already in the file: numbers from different machines do not belong in
one record.  A run must also name its commit, so the checkout has to be
a git clone, not a bare copy, and every run under one label must name
the same commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("verdict_s", "cpu_s", "peak_rss_mb", "setup_s")
ENVIRONMENT = ("python", "gmpy2", "cpus")
SECONDS = 30


def run_once(checkout: Path, workload: str, seed: int) -> str:
    """Standard output of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout


def parse_run(stdout: str) -> dict:
    """The env line and the result line of one run's output."""
    lines = stdout.strip().splitlines()
    env = [line[4:] for line in lines if line.startswith("env ")]
    if len(env) != 1 or not lines[-1].startswith("{"):
        raise ValueError("output is not that of one perfbench/run.py run")
    return {"env": json.loads(env[0]), "result": json.loads(lines[-1])}


def quartiles(values: list) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def paired(parent: list, change: list) -> dict:
    """Median and quartiles of change/parent - 1 over the pairs of the
    i-th parent run with the i-th change run, the pair count n, and the
    number of pairs the change won (ran lower)."""
    pairs = list(zip(parent, change))
    return {**quartiles([c / p - 1 for p, c in pairs]),
            "won": sum(c < p for p, c in pairs)}


def compare_labels(record: dict, workload: str) -> dict:
    """Paired verdict of each end-to-end metric, and of the share of
    failed checks, on workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    limits = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    out = {}
    for name in END_TO_END:
        parent, change = ([r["result"]["metrics"][name]["value"]
                           for r in record["runs"][label][workload]]
                          for label in ("parent", "change"))
        base = quartiles(parent)
        ratio = statistics.median(change) / base["median"] - 1
        spread = (base["q3"] - base["q1"]) / base["median"]
        if ratio > limits[name]:
            status = "worse"
        elif spread >= limits[name] and max(change) >= min(parent):
            status = "unresolved"
        else:
            status = "within"
        out[name] = {"change_vs_parent": ratio, "parent_spread": spread,
                     "bound": limits[name], "status": status,
                     "paired": paired(parent, change)}
    shares = {}
    for label in ("parent", "change"):
        runs = [r["result"] for r in record["runs"][label][workload]]
        shares[label] = (sum(r["failed"] for r in runs)
                         / sum(r["attempted"] for r in runs))
    shares["status"] = ("worse" if shares["change"] > shares["parent"]
                        else "within")
    out["fail_share"] = shares
    return out


def merge(record: dict, label: str, workload: str, run: dict) -> dict:
    """Add one parsed run to record and recompute its summary and, once
    both labels hold runs of the workload, its comparison."""
    commit = run["env"].get("commit")
    if commit is None:
        raise ValueError("run names no commit; run a git checkout")
    env = {key: run["env"][key] for key in ENVIRONMENT}
    known = record.setdefault("environment", env)
    if known != env:
        raise ValueError(f"run environment {env} differs from the "
                         f"record's {known}")
    by_workload = record.setdefault("runs", {}).setdefault(label, {})
    seen = {r["env"]["commit"] for rs in by_workload.values() for r in rs}
    if seen and seen != {commit}:
        raise ValueError(f"run commit {commit} differs from the {label} "
                         f"runs' {sorted(seen)}")
    runs = by_workload.setdefault(workload, [])
    runs.append(run)
    summary = record.setdefault("summary", {}).setdefault(label, {})
    summary[workload] = {
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        **{name: quartiles([r["result"]["metrics"][name]["value"]
                            for r in runs])
           for name in END_TO_END},
    }
    if all(workload in record["runs"].get(side, {})
           for side in ("parent", "change")):
        record.setdefault("comparison", {})[workload] = compare_labels(
            record, workload)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to run (default: this one)")
    parser.add_argument("--label", required=True, choices=("parent", "change"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for seed in args.seed:
        run = parse_run(run_once(args.checkout, args.workload, seed))
        merge(record, args.label, args.workload, run)
        # written after every run, so an interrupted series keeps its runs
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")
        verdict = run["result"]["metrics"]["verdict_s"]["value"]
        print(f"{args.label} {args.workload} seed {seed}: "
              f"verdict_s {verdict:.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
