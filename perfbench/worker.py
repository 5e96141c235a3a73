"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<plan as JSON>'

The plan names the targets, the `diagonals report` arguments that set
their options, the reflection groups to build during set-up, the
monotonic time at which the parent launched this process, whether to
trace, and whether to stop once set-up is done.  The pass imports the toolkit from src/ of the checkout that
holds this file, builds the groups, then runs every target through
diagonals.cli.run_target in order.  It prints one JSON line with the
set-up time, the verdict wall and CPU time, the peak resident set, the
raw target results and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list) -> int:
    plan = json.loads(argv[1])
    if not (SRC / "diagonals" / "__init__.py").is_file():
        print(f"no toolkit sources at {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    from diagonals import cli, groebner, polyring, weyl

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(HERE))
        import spans

        tracer = spans.Tracer()
        unwrapped = spans.leftover_references(spans.install(tracer))
    # built for their set-up cost only: each target builds its own groups
    groups = [weyl.WeylGroup(weyl.root_system(name))
              for name in plan["groups"]]
    opts = cli._opts_from_args(cli.build_parser().parse_args(plan["argv"]))
    ready = time.monotonic()

    out = {"setup_s": ready - plan["launch"]}
    if not plan["setup_only"]:
        results = []
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for name in plan["targets"]:
            try:
                results.append(cli.run_target(name, opts))
            except Exception as exc:  # a raising target is a failed check
                results.append({"target": name, "ok": False,
                                "error": f"{type(exc).__name__}: {exc}"})
        out["verdict_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_seconds() - cpu0
        out["results"] = results
        if tracer is not None:
            out["layers"] = tracer.report()
            out["unwrapped"] = unwrapped
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    budget = groebner.Budget.from_env()
    out["env"] = {
        "qq": f"{polyring.QQ.__module__}.{polyring.QQ.__name__}",
        "budget": {"max_seconds": budget.max_seconds,
                   "max_basis": budget.max_basis},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
