"""Per-layer spans for the traced benchmark pass, taken from outside.

install() replaces the public functions of each diagonals layer with
timing wrappers.  A module-level function is replaced under every name
that refers to it in any diagonals module, so by-name imports such as
``from .groebner import intersect_many`` are traced too; a method is
replaced on its class.  Nothing under src/ is edited.

Every span X yields X.s (inclusive seconds, outermost call only when a
span re-enters itself), X.self_s (X's own time minus the time of the
spans it called) and X.calls.  Work counters are counted at the same
boundaries; Tracer.report() gives every metric by name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute path) of every callable it wraps
LAYERS = {
    "weyl.closure": [("diagonals.weyl", "WeylGroup.__init__")],
    "weyl.average": [("diagonals.weyl", "WeylGroup._average")],
    "weyl.act": [("diagonals.weyl", "WeylGroup.act")],
    "polyring.substitute": [("diagonals.polyring", "LinearSubstitution.__call__")],
    "diagideals.alternant_basis": [("diagonals.diagideals", "alternant_basis")],
    "diagideals.orbit_projection": [("diagonals.diagideals", "orbit_projection")],
    "diagideals.ideal_I": [("diagonals.diagideals", "ideal_I")],
    "diagideals.symbolic_power": [("diagonals.diagideals", "symbolic_power")],
    "diagideals.compare": [("diagonals.diagideals", "compare")],
    "diagideals.image_dim": [("diagonals.diagideals", "invariant_image_dim"),
                             ("diagonals.diagideals", "averaged_multiple_dim")],
    "groebner.basis": [("diagonals.groebner", "Ideal.groebner_basis")],
    "groebner.intersect": [("diagonals.groebner", "intersect_many")],
    "groebner.power": [("diagonals.groebner", "ideal_power")],
    "groebner.contains": [("diagonals.groebner", "Ideal.contains")],
    "groebner.graded_dim": [("diagonals.groebner", "Ideal.graded_dim")],
    "groebner.nf_table": [("diagonals.groebner", "nf_monomial_table")],
    "groebner.mingens": [("diagonals.groebner", "minimal_generator_counts")],
    "linalg.echelon_add": [("diagonals.linalg", "RowEchelon.add")],
    "dunkl.apply": [("diagonals.dunkl", "DunklOperator.__call__")],
    "dunkl.rhs": [("diagonals.dunkl", "commutation_rhs")],
    "cells": [("diagonals.cells", name) for name in (
        "table_rows", "j_classes", "check_family_class_correspondence",
        "tau", "two_core", "two_quotient", "a_value")],
}

# every target of diagonals.cli.TARGETS also gets a span cli.<target>
TARGET_NAMES = (
    "b3-invariant-images", "b3-strict-inclusion", "cells", "delta-identity",
    "dunkl", "g2-ideal-equality", "symbolic-vs-ordinary", "typeA-haiman",
)
SPAN_NAMES = tuple(f"cli.{t}" for t in TARGET_NAMES) + tuple(LAYERS)

COUNTERS = (
    "weyl.average.terms_in",
    "polyring.substitute.terms_in",
    "diagideals.alternants_out",
    "groebner.basis.gens_in",
    "groebner.basis.size_out",
    "groebner.intersect.folds",
    "groebner.power.gens_out",
    "groebner.nf_table.monomials",
)


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span statistics and work counters of one traced pass, in memory."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = Counter()
        self.alternant_ideals = []
        self._stack = []

    def wrap(self, name, fn, pre=None, post=None, live=None):
        """fn timed as span `name`.

        live(args) False passes the call through untraced; pre(args) and
        post(args, result) update work counters around a traced call.
        """
        stat = self.spans[name]
        stack = self._stack
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if live is not None and not live(args):
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            stack.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stat[0] += 1
                stat[2] += elapsed - stack.pop()
                if not depth[0]:
                    stat[1] += elapsed
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                post(args, result)
            return result

        return span

    @staticmethod
    def tap(fn, post):
        """fn untimed, with post(args, result) run after each call."""

        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(args, result)
            return result

        return tapped

    def report(self) -> dict:
        """Every per-layer metric of the pass, by name."""
        out = {}
        for name, (calls, inclusive, own) in self.spans.items():
            out[f"{name}.s"] = inclusive
            out[f"{name}.self_s"] = own
            out[f"{name}.calls"] = calls
        c = self.counts
        for name in COUNTERS:
            out[name] = c[name]

        def share(num, den):
            return num / den if den else 0.0

        basis_j = sum(len(J._gb) for J in self.alternant_ideals
                      if J._gb is not None)
        out["diagideals.alternant_yield"] = share(
            basis_j, c["diagideals.alternants_out"])
        out["diagideals.orbit_projection.miss_ratio"] = share(
            c["diagideals.orbit_projection.misses"],
            self.spans["diagideals.orbit_projection"][0])
        out["groebner.basis.yield"] = share(
            c["groebner.basis.size_out"], c["groebner.basis.gens_in"])
        out["linalg.echelon_add.accept_ratio"] = share(
            c["linalg.echelon_add.accepted"],
            self.spans["linalg.echelon_add"][0])
        return out


def _hooks(tracer: Tracer) -> dict:
    """Work counters, keyed by (module, attribute path) of the callable."""
    c = tracer.counts

    def add(name, amount):
        c[name] += amount

    return {
        ("diagonals.weyl", "WeylGroup._average"): dict(
            pre=lambda a: add("weyl.average.terms_in", len(a[1].terms))),
        ("diagonals.polyring", "LinearSubstitution.__call__"): dict(
            pre=lambda a: add("polyring.substitute.terms_in", len(a[1].terms))),
        ("diagonals.diagideals", "alternant_basis"): dict(
            post=lambda a, r: add("diagideals.alternants_out", len(r))),
        ("diagonals.diagideals", "orbit_projection"): dict(
            pre=lambda a: add("diagideals.orbit_projection.misses",
                              a[1] not in a[0].projection_memo[a[2]])),
        # only calls that run Buchberger; cached bases pass through
        ("diagonals.groebner", "Ideal.groebner_basis"): dict(
            live=lambda a: a[0]._gb is None,
            post=lambda a, r: (add("groebner.basis.gens_in", len(a[0].gens)),
                               add("groebner.basis.size_out", len(r)))),
        ("diagonals.groebner", "ideal_power"): dict(
            post=lambda a, r: add("groebner.power.gens_out", len(r.gens))),
        ("diagonals.groebner", "nf_monomial_table"): dict(
            post=lambda a, r: add("groebner.nf_table.monomials", len(r))),
        ("diagonals.linalg", "RowEchelon.add"): dict(
            post=lambda a, r: add("linalg.echelon_add.accepted", bool(r))),
    }


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "diagonals"
                                  or name.startswith("diagonals."))]


def _replace(orig, new) -> None:
    """Rebind every module-level name in the package that refers to orig."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, new)


def install(tracer: Tracer) -> list:
    """Wrap every traced callable of the imported package.

    Returns the original callables, so a check can confirm that no
    module still refers to one of them.
    """
    hooks = _hooks(tracer)
    originals = []

    def patch(module_name, path, make):
        owner, attr = _resolve(sys.modules[module_name], path)
        orig = vars(owner)[attr]
        new = make(orig)
        originals.append(orig)
        if isinstance(owner, type):
            setattr(owner, attr, new)
        else:
            _replace(orig, new)

    for name, targets in LAYERS.items():
        for module_name, path in targets:
            extra = hooks.get((module_name, path), {})
            patch(module_name, path,
                  lambda fn, name=name, extra=extra:
                  tracer.wrap(name, fn, **extra))

    # J's reduced basis size, read at report time, gives the alternant yield
    patch("diagonals.diagideals", "ideal_J", lambda fn: tracer.tap(
        fn, lambda a, r: tracer.alternant_ideals.append(r)))
    patch("diagonals.groebner", "ideal_intersect", lambda fn: tracer.tap(
        fn, lambda a, r: tracer.counts.update(("groebner.intersect.folds",))))

    # run_target looks targets up in TARGETS, so the dict entry is the one
    # reference to replace; the module keeps its own _t_* names
    targets = sys.modules["diagonals.cli"].TARGETS
    for target, fn in list(targets.items()):
        targets[target] = tracer.wrap(f"cli.{target}", fn)
    return originals


def leftover_references(originals: list) -> list:
    """(module, name) pairs that still refer to an unwrapped original."""
    ids = {id(fn) for fn in originals}
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if id(value) in ids:
                found.append((module.__name__, key))
    targets = sys.modules["diagonals.cli"].TARGETS
    found.extend(("diagonals.cli", f"TARGETS[{k}]")
                 for k, v in targets.items() if not hasattr(v, "__wrapped__"))
    return found
