"""Command line front end.

Subcommands:
  verify <target>   run one named verification and report pass/fail
  cells table       print the labelled partition table for a given n
  report            run every verification target

Exit codes: 0 all checks passed, 1 a check found a contradiction,
2 a computation hit its budget, 3 a comparison was inconclusive because
the degree bound is too small to decide it (and nothing failed or
aborted), 64 usage error.  A verify or report run reads its budget
(DIAGONALS_MAX_SECONDS, DIAGONALS_MAX_BASIS) once, so the time limit
bounds the whole run, not each target; the cells target checks it once
per partition, and cells table reads no budget.

Output is deterministic for a fixed seed and fixed bounds; wall-clock
timings are only included when --timings is passed so that repeated runs
stay byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys
import time

from .cells import (
    a_value,
    bipartitions,
    check_family_class_correspondence,
    format_bipartition,
    format_partition,
    format_symbol,
    j_classes,
    table_rows,
    tau,
    two_core,
    two_quotient,
)
from .diagideals import (
    averaged_multiple_dim,
    compare,
    discriminant,
    full_ring_ideal,
    ideal_I,
    ideal_J,
    invariant_image_dim,
    symbolic_power,
)
from .dunkl import (
    DunklOperator,
    check_commutativity,
    check_defining_relation,
)
from .groebner import (
    Budget,
    BudgetExceeded,
    degree_counts,
    ideal_equal,
    ideal_power,
    minimal_generator_counts,
)
from .polyring import QQ, _extend, partial_derivative, random_polynomial
from .weyl import WeylGroup, root_system

DEFAULT_BOUND = 10
DEFAULT_SEED = 0
DEFAULT_C = "0,1/2,1,3/7"


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _dunkl_sample(rng: random.Random, n: int) -> tuple:
    """(f, v, xi): an x-block polynomial, a nonzero direction and a linear
    form, drawn from rng in that order."""
    f = _extend(random_polynomial(rng, n, 4, 4), n)
    v = [rng.randint(-2, 2) for _ in range(n)]
    if not any(v):
        v[0] = 1
    xi = tuple(rng.randint(-2, 2) for _ in range(n))
    return f, tuple(v), xi


def _flag_inconclusive(result: dict, cmp) -> dict:
    """Mark a result whose comparison could not be decided at its bound."""
    if cmp.relation == "inconclusive":
        result["inconclusive"] = True
    return result


def _same_piece(J, I, d: int) -> bool:
    """Whether J_d = I_d, for J inside I, so that every image of J_d is
    that of I_d: the two pieces have the same dimension."""
    return J.graded_dim(d) == I.graded_dim(d)


def _build_both(name: str, bound: int, budget: Budget):
    rs = root_system(name)
    W = WeylGroup(rs)
    I = ideal_I(rs, budget=budget)
    return W, I, ideal_J(W, I, bound)


# ---------------------------------------------------------------------------
# verification targets
# ---------------------------------------------------------------------------


def _t_g2_ideal_equality(opts: dict) -> dict:
    bound = opts["bound"]
    _, I, J = _build_both("G2", bound, opts["budget"])
    cmp = compare(J, I, bound)
    return _flag_inconclusive({
        "ok": cmp.relation == "equal",
        "details": {
            "comparison": cmp.to_json(),
            "gbSizeIntersection": len(I.groebner_basis()),
            "gbSizeAlternant": len(J.groebner_basis()),
        },
    }, cmp)


def _t_b3_strict_inclusion(opts: dict) -> dict:
    bound = opts["bound"]
    _, I, J = _build_both("B3", bound, opts["budget"])
    cmp = compare(J, I, bound)
    counts_i = minimal_generator_counts(I, bound)
    counts_j = degree_counts(J.gens, bound)
    extra = {d: counts_i.get(d, 0) - counts_j.get(d, 0)
             for d in sorted(set(counts_i) | set(counts_j))
             if counts_i.get(d, 0) != counts_j.get(d, 0)}
    ok = (cmp.relation == "left-strictly-contained"
          and cmp.certificate is not None
          and cmp.certificate["degree"] == 6
          and cmp.certificate["dimRight"] - cmp.certificate["dimLeft"] == 1
          and extra == {6: 1})
    return _flag_inconclusive({
        "ok": ok,
        "details": {
            "comparison": cmp.to_json(),
            "minimalGeneratorsIntersection":
                {str(d): c for d, c in sorted(counts_i.items()) if c},
            "minimalGeneratorsAlternant":
                {str(d): c for d, c in sorted(counts_j.items()) if c},
            "extraGenerators": {str(d): c for d, c in extra.items()},
        },
    }, cmp)


def _t_b3_invariant_images(opts: dict) -> dict:
    bound = opts["bound"]
    W, I, J = _build_both("B3", bound, opts["budget"])
    dims_i = [invariant_image_dim(W, I, d) for d in range(bound + 1)]
    dims_j = [dim if _same_piece(J, I, d) else invariant_image_dim(W, J, d)
              for d, dim in enumerate(dims_i)]
    return {
        "ok": dims_i == dims_j,
        "details": {
            "symmetrizedDimsIntersection": dims_i,
            "symmetrizedDimsAlternant": dims_j,
        },
    }


def _t_type_a(opts: dict) -> dict:
    budget = opts["budget"]
    details: dict = {}
    ok = True
    # fixed bounds, independent of --degree-bound
    for name, bound, powers in (("A1", 6, (1, 2, 3)), ("A2", 8, (2,))):
        W, I, J = _build_both(name, bound, budget)
        cmp = compare(J, I, bound)
        entry = {"comparison": cmp.to_json(), "powerChecks": {}}
        ok &= cmp.relation == "equal"
        for k in powers:
            same = ideal_equal(ideal_power(I, k),
                               symbolic_power(W.root_system, k, budget=budget))
            entry["powerChecks"][str(k)] = same
            ok &= same
        details[name] = entry
    return {"ok": ok, "details": details}


def _t_symbolic_vs_ordinary(opts: dict) -> dict:
    budget = opts["budget"]
    details: dict = {}
    for name in ("B2", "G2"):
        rs = root_system(name)
        I = ideal_I(rs, budget=budget)
        P = ideal_power(I, 2)
        S = symbolic_power(rs, 2, budget=budget)
        details[name] = {"ordinaryEqualsSymbolic": ideal_equal(P, S)}
    # the run itself is the check; the equalities are reported as findings
    return {"ok": True, "details": details}


def _t_dunkl(opts: dict) -> dict:
    seed, per = opts["seed"], opts["samples"]
    budget = opts["budget"]
    ok = True
    cells = []
    for name in ("A2", "B2", "G2"):
        W = WeylGroup(root_system(name))
        n = W.ambient
        axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for c in opts["c_values"]:
            budget.check("dunkl samples")
            rng = _rng(seed, f"dunkl:{name}:{c}")
            samples = [_dunkl_sample(rng, n) for _ in range(per)]
            fs = [f for f, _, _ in samples]
            cell_ok = True
            for i, j in itertools.combinations(range(n), 2):
                cell_ok &= check_commutativity(W, c, fs, axes[i], axes[j])
            for f, v, xi in samples:
                budget.check("dunkl samples")
                cell_ok &= check_defining_relation(W, c, xi, v, [f])
                if not c:
                    # at c = 0 the operator is the directional derivative
                    cell_ok &= (DunklOperator(W, c, v)(f)
                                == partial_derivative(f, v + (0,) * n))
            cells.append({"type": name, "c": str(c), "samples": per,
                          "ok": cell_ok})
            ok &= cell_ok
    return {
        "ok": ok,
        "details": {"cells": cells,
                    "totalSamples": per * len(cells)},
    }


def _t_cells(opts: dict) -> dict:
    n, budget = opts["n"], opts["budget"]
    rows = table_rows(n, budget)
    class_sizes = sorted(len(cls.members) for cls in j_classes(n, budget))
    tau_ok = True
    for m in range(1, 7):
        for bip in bipartitions(m):
            p = tau(*bip)
            tau_ok &= two_core(p) == () and two_quotient(p) == bip
    match_ok = all(check_family_class_correspondence(m)
                   for m in range(1, 7))
    a_ok = sorted(a_value(b) for b in bipartitions(2)) == [0, 1, 1, 1, 4]
    return {
        "ok": tau_ok and match_ok and a_ok and sum(class_sizes) == len(rows),
        "details": {
            "tableRows": len(rows),
            "classSizes": class_sizes,
            "quotientBijection": tau_ok,
            "classesMatchFamilies": match_ok,
            "rankTwoAValues": a_ok,
        },
    }


def _t_delta_identity(opts: dict) -> dict:
    bound, seed = opts["bound"], opts["seed"]
    budget = opts["budget"]
    ok = decided = True
    details: dict = {}
    for name in ("B2", "G2"):
        W, I, J = _build_both(name, bound, budget)
        rs = W.root_system
        delta = discriminant(rs)
        deg = delta.total_degree()
        rng = _rng(seed, f"delta:{name}")
        identity_ok = True
        for _ in range(6):
            f = random_polynomial(rng, 2 * rs.ambient, 3, 4)
            identity_ok &= (W.symmetrize(delta * f)
                            == delta * W.antisymmetrize(f))
        R = full_ring_ideal(2 * rs.ambient, budget)
        three_way = []
        agree = True
        for k in range(bound - deg + 1):
            dim_i = averaged_multiple_dim(W, delta, I, k)
            dims = [dim_i,
                    dim_i if _same_piece(J, I, k)
                    else averaged_multiple_dim(W, delta, J, k),
                    averaged_multiple_dim(W, delta, R, k)]
            three_way.append({"outputDegree": deg + k, "dims": dims})
            agree &= dims[0] == dims[1] == dims[2]
        ok &= identity_ok and agree
        decided &= bool(three_way)
        details[name] = {
            "discriminantDegree": deg,
            "projectionIdentity": identity_ok,
            "threeWayDims": three_way,
        }
    if ok and not decided:  # no degree at or below the bound to compare
        return {"ok": False, "inconclusive": True, "details": details}
    return {"ok": ok, "details": details}


TARGETS = {
    "g2-ideal-equality": _t_g2_ideal_equality,
    "b3-strict-inclusion": _t_b3_strict_inclusion,
    "b3-invariant-images": _t_b3_invariant_images,
    "typeA-haiman": _t_type_a,
    "symbolic-vs-ordinary": _t_symbolic_vs_ordinary,
    "dunkl": _t_dunkl,
    "cells": _t_cells,
    "delta-identity": _t_delta_identity,
}


def run_target(name: str, opts: dict) -> dict:
    start = time.monotonic()
    try:
        result = TARGETS[name](opts)
    except BudgetExceeded as stop:
        details = {"reason": stop.reason}
        if stop.basis_size is not None:
            details["basisSize"] = stop.basis_size
        result = {"ok": False, "aborted": "budget", "details": details}
    result["target"] = name
    if opts.get("timings"):
        result["seconds"] = round(time.monotonic() - start, 2)
    return result


# ---------------------------------------------------------------------------
# argument handling and output
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _parse_c_list(text: str) -> list:
    try:
        values = [QQ(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as bad:
        raise argparse.ArgumentTypeError(f"bad rational list: {text}") from bad
    if not values:
        raise argparse.ArgumentTypeError(f"no rational in list: {text!r}")
    return values


def _int_from(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="diagonals", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--n", type=_int_from(1), default=3,
                       help="rank for partition tables")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this file")

    def common(p):
        output(p)
        p.add_argument("--degree-bound", type=_int_from(0),
                       default=DEFAULT_BOUND,
                       help="graded degree cutoff (default %(default)s); "
                            "typeA-haiman uses 6 for A1 and 8 for A2 and "
                            "symbolic-vs-ordinary takes no bound")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--c", type=_parse_c_list, default=None,
                       metavar="LIST", help=f"parameter values, default {DEFAULT_C}")
        p.add_argument("--samples", type=_int_from(1), default=9,
                       help="seeded samples per type/parameter cell")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock seconds (breaks reproducibility)")

    verify = sub.add_parser("verify", help="run one verification target")
    verify.add_argument("target", choices=sorted(TARGETS))
    common(verify)

    cells = sub.add_parser("cells", help="partition combinatorics")
    cells_sub = cells.add_subparsers(dest="cells_command", required=True)
    output(cells_sub.add_parser("table", help="print the labelled table"))

    common(sub.add_parser("report", help="run every verification target"))
    return parser


def _opts_from_args(args) -> dict:
    """Target options, with the budget that every target of a run shares."""
    return {
        "bound": args.degree_bound,
        "seed": args.seed,
        "samples": args.samples,
        "n": args.n,
        "c_values": args.c if args.c is not None else _parse_c_list(DEFAULT_C),
        "timings": args.timings,
        "budget": Budget.from_env(),
    }


def _result_lines(result: dict) -> list:
    if result["ok"]:
        status = "PASS"
    elif result.get("aborted"):
        status = "ABORT"
    else:
        status = "INCONCLUSIVE" if result.get("inconclusive") else "FAIL"
    lines = [f"{status} {result['target']}"]
    for key, value in sorted(result.get("details", {}).items()):
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return lines


def _exit_code(results: list) -> int:
    if any(r.get("aborted") == "budget" for r in results):
        return 2
    if any(not r["ok"] and not r.get("inconclusive") for r in results):
        return 1
    return 3 if any(r.get("inconclusive") for r in results) else 0


def _table_text(n: int) -> str:
    lines = ["# partition\tlabels\theart\tbipartition\tsymbol"]
    for r in table_rows(n):
        lines.append("\t".join([
            format_partition(r["partition"]), r["labels"],
            format_partition(r["heart"]),
            format_bipartition(r["bipartition"]),
            format_symbol(r["symbol"]),
        ]))
    return "\n".join(lines)


def _run(args, opts) -> tuple:
    """(report text, exit code) of a parsed command and its options."""
    if args.command == "cells":
        if args.format == "json":
            return json.dumps(table_rows(args.n), indent=2,
                              sort_keys=True), 0
        return _table_text(args.n), 0

    if args.command == "verify":
        payload = run_target(args.target, opts)
        results = [payload]
        lines = _result_lines(payload)
    else:
        # report: every target, fixed order
        results = [run_target(name, opts) for name in sorted(TARGETS)]
        payload = {"ok": all(r["ok"] for r in results), "results": results}
        lines = [line for r in results for line in _result_lines(r)]
        lines.append("OK" if payload["ok"] else "NOT OK")
    code = _exit_code(results)
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True), code
    return "\n".join(lines), code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a bad budget variable or output path costs no run: both come first
    try:
        opts = None if args.command == "cells" else _opts_from_args(args)
        sink = (open(args.out, "w") if args.out
                else contextlib.nullcontext(sys.stdout))
    except (OSError, ValueError) as bad:
        print(f"diagonals: error: {bad}", file=sys.stderr)
        return 64
    with sink as out:
        text, code = _run(args, opts)
        print(text, file=out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
