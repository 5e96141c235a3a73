import json
from pathlib import Path

import pytest

from diagonals import cli, dunkl
from diagonals.groebner import Budget, BudgetExceeded
from diagonals.polyring import Polynomial, random_polynomial, to_string

FIXTURE = Path(__file__).parent / "fixtures" / "cells_table_n3.tsv"
REPORT = Path(__file__).parent / "fixtures" / "verification_report.json"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestCellsCommand:
    def test_table_matches_fixture(self, capsys, monkeypatch):
        # the table reads no budget, so a spent one changes nothing
        monkeypatch.setenv("DIAGONALS_MAX_SECONDS", "1e-9")
        code, out = run(capsys, ["cells", "table", "--n", "3"])
        assert code == 0
        assert out.strip() == FIXTURE.read_text().strip()

    def test_table_json(self, capsys):
        code, out = run(capsys, ["cells", "table", "--n", "2",
                                 "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert rows[-1] == {
            "partition": [4], "labels": "0101", "heart": [4],
            "bipartition": [[2], []], "symbol": [[2], []],
        }


class TestVerify:
    def test_cells_target(self, capsys):
        code, out = run(capsys, ["verify", "cells"])
        assert code == 0
        assert out.startswith("PASS cells")

    def test_type_a_target(self, capsys):
        code, out = run(capsys, ["verify", "typeA-haiman", "--format", "json"])
        assert code == 0
        result = json.loads(out)
        assert result["ok"] is True
        assert result["details"]["A1"]["comparison"]["relation"] == "equal"
        assert result["details"]["A1"]["powerChecks"] == \
            {"1": True, "2": True, "3": True}

    def test_dunkl_target_json(self, capsys):
        code, out = run(capsys, ["verify", "dunkl", "--samples", "1",
                                 "--format", "json"])
        assert code == 0
        result = json.loads(out)
        assert result["ok"] is True
        assert result["details"]["totalSamples"] == 12

    def test_b3_strict_inclusion_with_out_file(self, capsys, tmp_path):
        sink = tmp_path / "result.json"
        code = cli.main(["verify", "b3-strict-inclusion",
                         "--format", "json", "--out", str(sink)])
        assert code == 0
        result = json.loads(sink.read_text())
        cmp = result["details"]["comparison"]
        assert cmp["relation"] == "left-strictly-contained"
        assert cmp["certificate"] == {"degree": 6, "dimLeft": 24,
                                      "dimRight": 25}
        assert result["details"]["extraGenerators"] == {"6": 1}

    @pytest.mark.parametrize("target, bound", [
        ("g2-ideal-equality", "4"),
        ("b3-strict-inclusion", "5"),
    ])
    def test_bound_below_top_generator_is_inconclusive(self, capsys,
                                                       target, bound):
        # the bound sits under the top minimal-generator degree (G2 6,
        # B3 9) and under the B3 gap in degree 6, so nothing decides
        code, out = run(capsys, ["verify", target, "--degree-bound", bound])
        assert code == 3
        assert out.startswith(f"INCONCLUSIVE {target}")
        code, out = run(capsys, ["verify", target, "--degree-bound", bound,
                                 "--format", "json"])
        assert code == 3
        result = json.loads(out)
        assert result["inconclusive"] is True and result["ok"] is False
        cmp = result["details"]["comparison"]
        assert cmp["relation"] == "inconclusive"
        assert cmp["dimsLeft"] == cmp["dimsRight"]

    @pytest.mark.parametrize("bound, compared", [("3", {}), ("5", {"B2": 2})])
    def test_bound_below_discriminant_degree_is_inconclusive(
            self, capsys, bound, compared):
        # Delta has degree 4 on B2 and 6 on G2: a type with no degree to
        # compare decides nothing, even where the other type agrees
        code, out = run(capsys, ["verify", "delta-identity",
                                 "--degree-bound", bound, "--format", "json"])
        assert code == 3
        result = json.loads(out)
        assert result["inconclusive"] is True and result["ok"] is False
        assert {name: len(entry["threeWayDims"])
                for name, entry in result["details"].items()
                if entry["threeWayDims"]} == compared
        code, out = run(capsys, ["verify", "delta-identity",
                                 "--degree-bound", bound])
        assert (code, out.splitlines()[0]) == (3, "INCONCLUSIVE delta-identity")

    def test_dunkl_target_uses_library_check(self, capsys, monkeypatch):
        # a wrong closed form must reach the target through
        # check_defining_relation, not through a copy held by cli
        monkeypatch.setattr(dunkl, "commutation_rhs",
                            lambda W, c, v, xi, f:
                            f + Polynomial.constant(f.nvars, 1))
        code, out = run(capsys, ["verify", "dunkl", "--samples", "1"])
        assert code == 1
        assert out.startswith("FAIL dunkl")

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, ["verify", "dunkl", "--samples", "2",
                                "--format", "json"])
        _, second = run(capsys, ["verify", "dunkl", "--samples", "2",
                                 "--format", "json"])
        assert first == second

    def test_timings_flag_adds_seconds(self, capsys):
        code, out = run(capsys, ["verify", "cells", "--format", "json",
                                 "--timings"])
        assert code == 0
        assert "seconds" in json.loads(out)


class TestSampleStream:
    """The first seeded samples of two targets, pinned: a changed draw
    order shows up here even when every verdict stays PASS."""

    def test_delta_identity_samples(self):
        rng = cli._rng(0, "delta:G2")
        assert [to_string(random_polynomial(rng, 6, 3, 4))
                for _ in range(2)] == ["-7*x2*y2 - 4",
                                       "-5*x2*y2^2 + 3*y1*y2^2"]

    def test_dunkl_samples(self):
        rng = cli._rng(0, "dunkl:A2:1/2")
        drawn = [cli._dunkl_sample(rng, 3) for _ in range(2)]
        assert [(to_string(f), v, xi) for f, v, xi in drawn] == [
            ("-6*x1*x2^2*x3 + 6*x2 + 6", (2, 1, -1), (-2, 2, 2)),
            ("9*x1^2*x3^2 + 6*x1^2*x3", (2, -2, 2), (0, -1, 1)),
        ]


# canned target results, one of each verdict
CANNED = {
    "pass": {"ok": True},
    "fail": {"ok": False},
    "inconclusive": {"ok": False, "inconclusive": True},
    "abort": {"ok": False, "aborted": "budget",
              "details": {"reason": "time limit in x"}},
}


class TestReport:
    @pytest.mark.parametrize("verdicts, code", [
        (("pass",), 0),
        (("pass", "inconclusive"), 3),
        (("inconclusive", "fail"), 1),
        (("fail", "abort", "inconclusive"), 2),
        (("pass", "abort"), 2),
    ])
    def test_exit_code_and_overall_verdict(self, capsys, monkeypatch,
                                           verdicts, code):
        # the first targets in report order take the verdicts, the rest pass
        names = sorted(cli.TARGETS)
        for name in names:
            kind = dict(zip(names, verdicts)).get(name, "pass")
            monkeypatch.setitem(cli.TARGETS, name,
                                lambda opts, kind=kind: dict(CANNED[kind]))
        all_pass = set(verdicts) == {"pass"}
        text_code, text = run(capsys, ["report"])
        assert text_code == code
        assert text.splitlines()[-1] == ("OK" if all_pass else "NOT OK")
        json_code, out = run(capsys, ["report", "--format", "json"])
        report = json.loads(out)
        assert json_code == code
        assert report["ok"] is all_pass
        assert [r["target"] for r in report["results"]] == names


class TestExitCodes:
    def test_budget_abort_is_two(self, capsys, monkeypatch):
        # a spent budget that passes its first 20 checks: the target makes
        # several hundred, so the run aborts partway however fast it is
        class AfterChecks(Budget):
            left = 20

            @classmethod
            def from_env(cls):
                return cls(max_seconds=0)

            def check(self, name, basis_size=None):
                self.left -= 1
                if self.left < 0:
                    super().check(name, basis_size)

        monkeypatch.setattr(cli, "Budget", AfterChecks)
        code, out = run(capsys, ["verify", "delta-identity"])
        assert code == 2
        assert out.startswith("ABORT")

    def test_dunkl_target_checks_the_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("DIAGONALS_MAX_SECONDS", "1e-9")
        code, out = run(capsys, ["verify", "dunkl", "--samples", "40",
                                 "--format", "json"])
        assert code == 2
        assert json.loads(out)["details"] == {
            "reason": "time limit in dunkl samples"}

    def test_cells_target_checks_the_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("DIAGONALS_MAX_SECONDS", "1e-9")
        code, out = run(capsys, ["verify", "cells", "--format", "json"])
        assert code == 2
        assert json.loads(out)["details"] == {"reason": "time limit in cells"}

    def test_dunkl_target_checks_before_each_cell_and_sample(self):
        layers = []

        class Recorder:
            def check(self, layer, basis_size=None):
                layers.append(layer)

        budget = Recorder()
        result = cli.run_target("dunkl", {"seed": 0, "samples": 2,
                                          "c_values": [0, 1],
                                          "budget": budget,
                                          "store": cli._Store(budget)})
        assert result["ok"]
        # 3 types x 2 parameters, each a cell check plus one per sample
        assert layers == ["dunkl samples"] * (3 * 2 * (1 + 2))

    def test_budget_abort_reports_a_basis_size_only_when_known(
            self, monkeypatch):
        for size, details in ((None, {"reason": "time limit in x"}),
                              (3, {"reason": "time limit in x",
                                   "basisSize": 3})):
            def target(opts, size=size):
                raise BudgetExceeded("time limit in x", 1.0, size)

            monkeypatch.setitem(cli.TARGETS, "cells", target)
            result = cli.run_target("cells", {})
            assert result["aborted"] == "budget"
            assert result["details"] == details

    def test_report_runs_every_target_on_one_budget(self, capsys,
                                                    monkeypatch):
        budgets = []

        def record(opts):
            budgets.append(opts["budget"])
            return {"ok": True}

        for name in cli.TARGETS:
            monkeypatch.setitem(cli.TARGETS, name, record)
        assert cli.main(["report"]) == 0
        assert len(budgets) == len(cli.TARGETS) == 8
        assert all(budget is budgets[0] for budget in budgets)
        assert isinstance(budgets[0], Budget)

    @pytest.mark.parametrize("target, bound, layer", [
        ("g2-ideal-equality", "4", "alternants"),
        ("b3-invariant-images", "6", "normal-form tables"),
    ])
    def test_abort_in_alternants_or_tables_exits_two(
            self, capsys, monkeypatch, target, bound, layer):
        # a spent budget that only the named layer reads
        class OnlyAt(Budget):
            @classmethod
            def from_env(cls):
                return cls(max_seconds=0)

            def check(self, name, basis_size=None):
                if name == layer:
                    super().check(name, basis_size)

        monkeypatch.setattr(cli, "Budget", OnlyAt)
        code, out = run(capsys, ["verify", target, "--degree-bound", bound,
                                 "--format", "json"])
        assert code == 2
        assert json.loads(out)["details"] == {"reason": f"time limit in {layer}"}

    def test_unknown_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", "definitely-not-a-target"])
        assert stop.value.code == 64

    def test_bad_rational_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", "dunkl", "--c", "1,oops"])
        assert stop.value.code == 64

    @pytest.mark.parametrize("values", [",", ""])
    def test_empty_rational_list_is_usage_error(self, capsys, values):
        # an empty list would pass dunkl with no cell checked
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", "dunkl", "--c", values])
        assert stop.value.code == 64

    def test_unwritable_out_is_usage_error_before_any_run(
            self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setitem(cli.TARGETS, "cells", ran.append)
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["verify", "cells", "--out", str(out)]) == 64
        assert ran == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "r.json" in err

    @pytest.mark.parametrize("flag", [["--degree-bound", "4"], ["--seed", "1"],
                                      ["--c", "1"], ["--samples", "2"],
                                      ["--timings"]])
    def test_cells_table_takes_no_target_options(self, capsys, flag):
        with pytest.raises(SystemExit) as stop:
            cli.main(["cells", "table", *flag])
        assert stop.value.code == 64

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main([])
        assert stop.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["verify", "g2-ideal-equality", "--degree-bound", "-1"],
        ["verify", "dunkl", "--samples", "0"],
        ["cells", "table", "--n", "-2"],
    ])
    def test_out_of_range_count_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 64
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("DIAGONALS_MAX_SECONDS", "abc"),
        ("DIAGONALS_MAX_SECONDS", "0"),
        ("DIAGONALS_MAX_SECONDS", "-5"),
        ("DIAGONALS_MAX_BASIS", "abc"),
        ("DIAGONALS_MAX_BASIS", "0"),
    ])
    def test_bad_budget_variable_is_usage_error(self, capsys, monkeypatch,
                                                name, value):
        monkeypatch.setenv(name, value)
        assert cli.main(["verify", "cells"]) == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("bound, samples", [("8", "9"), ("10", "40")])
    def test_benchmark_arguments_parse(self, bound, samples):
        args = cli.build_parser().parse_args(
            ["report", "--degree-bound", bound, "--seed", "3",
             "--samples", samples])
        assert (args.degree_bound, args.samples) == (int(bound), int(samples))


def _counting(monkeypatch, name, key):
    """Replace cli.<name> by a wrapper that counts its calls by key(args)
    and keeps each result; returns (counts, results)."""
    counts, results = {}, []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        k = key(*args)
        counts[k] = counts.get(k, 0) + 1
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, counted)
    return counts, results


class TestStore:
    """One run builds each type's group, I and J once and shares them."""

    def test_report_builds_each_ideal_once(self, capsys, monkeypatch):
        groups, _ = _counting(monkeypatch, "WeylGroup", lambda rs: rs.name)
        built_i, _ = _counting(monkeypatch, "ideal_I", lambda rs: rs.name)
        built_j, _ = _counting(monkeypatch, "ideal_J",
                               lambda W, I, bound: (W.root_system.name, bound))
        code, out = run(capsys, ["report", "--format", "json"])
        assert code == 0
        assert out == REPORT.read_text()
        assert groups == dict.fromkeys(["A1", "A2", "B2", "B3", "G2"], 1)
        assert built_i == dict.fromkeys(["A1", "A2", "B2", "B3", "G2"], 1)
        assert built_j == {("A1", 6): 1, ("A2", 8): 1, ("B2", 10): 1,
                           ("B3", 10): 1, ("G2", 10): 1}

    def test_two_runs_share_nothing(self, capsys, monkeypatch):
        built_i, made = _counting(monkeypatch, "ideal_I", lambda rs: rs.name)
        argv = ["verify", "g2-ideal-equality", "--degree-bound", "6"]
        assert [run(capsys, argv)[0] for _ in range(2)] == [0, 0]
        assert built_i == {"G2": 2}
        assert made[0] is not made[1]
        assert made[0].budget is not made[1].budget

    @pytest.mark.parametrize("name, kept", [
        ("ideal_I", {("W", "B3")}),
        ("ideal_J", {("W", "B3"), ("I", "B3")}),
    ])
    def test_aborted_build_is_not_kept(self, monkeypatch, name, kept):
        # every build raises with its own count, so an abort that reached
        # the second target from the store would carry the first reason
        reasons = iter(f"time limit in build {k}" for k in range(1, 9))

        def spent(*args, **kwargs):
            raise BudgetExceeded(next(reasons), 1.0)

        monkeypatch.setattr(cli, name, spent)
        opts = cli._opts_from_args(cli.build_parser().parse_args(["report"]))
        results = [cli.run_target(target, opts) for target in
                   ("b3-invariant-images", "b3-strict-inclusion")]
        assert [r["aborted"] for r in results] == ["budget"] * 2
        assert [r["details"] for r in results] == [
            {"reason": "time limit in build 1"},
            {"reason": "time limit in build 2"}]
        assert set(opts["store"]._made) == kept
