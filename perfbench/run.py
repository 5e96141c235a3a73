"""Benchmark of the `diagonals report` path, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense-g2 --seed 1 --seconds 30 --trace 0

Each workload is a fixed group of verification targets.  A pass runs
them in report order through diagonals.cli.run_target, one caller and no
worker pool, in a fresh single-threaded interpreter, so no memo or basis
cache survives from one pass to the next.  A run first launches the
interpreter SETUP_LAUNCHES times for set-up only, then repeats passes
while the next one is predicted to end within --seconds (at least one).
The targets' own --seed differs from pass to pass: the run's --seed
seeds the generator that draws them, so a seed fixes the sequence.
Every verdict is compared with expected.json; a target that fails, aborts
on its budget, raises or returns other details is a failed check.

--trace 0 reports the end-to-end metrics, each a median over the run:
  setup_s      interpreter launch to ready: import diagonals, build the
               workload's reflection groups (median over every launch)
  verdict_s    wall seconds from the first run_target call to the last verdict
  cpu_s        process CPU seconds (own and reaped children) over that span
  peak_rss_mb  ru_maxrss of the pass's process
fail_rate, failed checks over attempted ones, is the ratio of the
`failed` and `attempted` fields of the result line.

--trace 1 alternates untraced and traced passes (at least one each) and
reports the per-layer metrics of spans.py: times as medians over the
traced passes, work counts of the first traced pass, and
trace.overhead_ratio, traced over untraced median verdict_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  If the toolkit cannot be run at
all, the run exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 15
PASS_TIMEOUT = 170.0


@dataclass(frozen=True)
class Workload:
    targets: tuple   # in report order, i.e. sorted
    bound: int
    samples: int
    groups: tuple    # reflection groups built during set-up
    # spans that must record calls on this workload (checked by the tests)
    exercises: tuple


# spans every ideal workload reaches: alternants, I, J and their comparison
_IDEALS = ("weyl.average", "weyl.act", "polyring.substitute",
           "diagideals.alternant_basis", "diagideals.orbit_projection",
           "diagideals.ideal_I", "diagideals.compare", "groebner.basis",
           "groebner.intersect", "groebner.contains", "groebner.graded_dim")
_IMAGES = ("diagideals.image_dim", "groebner.nf_table", "linalg.echelon_add")

# Bounds sit at or above the top minimal-generator degree (6 for G2, 9 for
# B3), where every verdict is exact.
WORKLOADS = {
    # dense G2 averaging: _average over LinearSubstitution, RowEchelon
    "dense-g2": Workload(
        ("delta-identity", "g2-ideal-equality"), 8, 9, ("B2", "G2"),
        _IDEALS + _IMAGES),
    # monomial group: many single-monomial acts via orbit_projection,
    # the 9-way intersection fold, minimal generators, normal-form tables
    "monomial-b3": Workload(
        ("b3-invariant-images", "b3-strict-inclusion"), 10, 9, ("B3",),
        _IDEALS + _IMAGES + ("groebner.mingens",)),
    # Groebner bases over long generator lists, almost no averaging
    "powers": Workload(
        ("symbolic-vs-ordinary", "typeA-haiman"), 10, 9, ("A1", "A2"),
        _IDEALS + ("diagideals.symbolic_power", "groebner.power")),
    # plain group action and polynomial arithmetic: Dunkl operators, cells
    "operators": Workload(
        ("cells", "dunkl"), 10, 40, ("A2", "B2", "G2"),
        ("weyl.act", "polyring.substitute", "dunkl.apply", "dunkl.rhs",
         "cells")),
}


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def plan_for(name: str, seed: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    return {
        "targets": list(w.targets),
        "argv": ["report", "--degree-bound", str(w.bound), "--seed",
                 str(seed), "--samples", str(w.samples)],
        "groups": list(w.groups),
        "trace": trace,
    }


def worker_env() -> dict:
    """The caller's environment with the default Budget and fixed hashing."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DIAGONALS_MAX_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(plan: dict, setup_only: bool = False) -> dict:
    """Launch one worker interpreter; its JSON report, plus wall_s."""
    plan = dict(plan, setup_only=setup_only, launch=time.monotonic())
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(plan)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["wall_s"] = time.monotonic() - start
    return out


def check(result: dict, expected: dict) -> str | None:
    """Why a target result is wrong, or None when it matches."""
    target = result.get("target")
    if "error" in result:
        return f"{target} raised {result['error']}"
    if result.get("aborted"):
        return f"{target} aborted: {result['aborted']}"
    if not result.get("ok"):
        return f"{target} returned ok: false"
    if result.get("details") != expected.get(target):
        return f"{target} details differ from expected.json"
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, worker_report: dict) -> dict:
    return {
        "python": platform.python_version(),
        "qq": worker_report["env"]["qq"],
        "gmpy2": worker_report["env"]["qq"].startswith("gmpy2"),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "DIAGONALS_MAX": {k: os.environ.get(k) for k in
                          ("DIAGONALS_MAX_SECONDS", "DIAGONALS_MAX_BASIS")},
        "budget_used": worker_report["env"]["budget"],
        "seed": seed,
        "commit": git_commit(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds`; metrics and check counts."""
    expected = load_expected()[name]
    deadline = time.monotonic() + seconds
    setups = [run_pass(plan_for(name, seed, False), setup_only=True)["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    # Each round draws its own target seed, so a run's median spans several
    # seeded inputs instead of resting on one draw.
    draws = random.Random(seed)
    pass_seeds, plain, traced, problems = [], [], [], []
    attempted = rounds = 0
    first_round = time.monotonic()
    while True:
        pass_seeds.append(draws.randrange(2**31))
        plan = plan_for(name, pass_seeds[-1], False)
        for traced_pass in ([False, True] if trace else [False]):
            report = run_pass(dict(plan, trace=traced_pass))
            (traced if traced_pass else plain).append(report)
            for result in report["results"]:
                attempted += 1
                why = check(result, expected)
                if why:
                    problems.append(why)
        rounds += 1
        now = time.monotonic()
        if now + (now - first_round) / rounds > deadline:
            break

    def med(key, reports):
        return statistics.median(r[key] for r in reports)

    if trace:
        metrics = {}
        first = traced[0]["layers"]
        for key, value in first.items():
            if key.endswith((".s", ".self_s")):
                value = statistics.median(r["layers"][key] for r in traced)
            metrics[key] = value
        metrics["trace.overhead_ratio"] = (med("verdict_s", traced)
                                           / med("verdict_s", plain))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "verdict_s": med("verdict_s", plain),
            "cpu_s": med("cpu_s", plain),
            "peak_rss_mb": med("peak_rss_mb", plain),
        }
    return {
        "env": environment(seed, plain[0]),
        "passes": len(plain) + len(traced),
        "pass_seeds": pass_seeds,
        "attempted": attempted,
        "problems": problems,
        "metrics": metrics,
        "verdict_each": [round(r["verdict_s"], 4) for r in plain + traced],
    }


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_units()
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    failed = len(out["problems"])
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"passes {out['passes']} verdict_s each {out['verdict_each']} "
          f"target seeds {out['pass_seeds']}")
    for why in out["problems"]:
        print(f"FAILED CHECK {why}")
    print(f"fail_rate {failed / out['attempted']:.6g} ratio "
          f"({failed} of {out['attempted']} checks)")
    metrics = {}
    for key, value in out["metrics"].items():
        print(f"{key} {value:.6g} {units[key]}")
        metrics[key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
