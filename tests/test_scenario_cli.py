"""Scenario ingestion and the command-line interface."""

import contextlib
import copy
import io
import itertools
import json
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodex.cli
from prodex import errors
from prodex.cli import main
from prodex.engine import expect
from prodex.errors import ScenarioError
from prodex.games import DEFAULT_PURIFY_RETRIES
from prodex.martingale import g_n, trace
from prodex.model import (ConstantSymbol, DescribedPoint, LazyPoint,
                          PeriodicSymbols)
from prodex.numeric import round_up
from prodex.scenario import BUILTIN_SCENARIOS, load_scenario, parse_scenario

F = Fraction

MINIMAL = """
{
  "name": "minimal",
  "spaces": {"head": [], "tail": {"symbols": [0, 1]}},
  "measure": {"head": [[0.25, 0.75]],
              "tail": {"kind": "constant", "weights": [0.5, 0.5]}},
  "function": {"family": "cylinder", "depth": 1,
               "table": [{"prefix": [0], "value": 0},
                          {"prefix": [1], "value": 1}]},
  "points": {"one": {"kind": "described", "head": [],
                      "tail": {"kind": "constant_symbol", "symbol": 1}}}
}
"""


class TestScenarioParsing:
    def test_minimal_scenario_decimal_exactness(self):
        sc = parse_scenario(MINIMAL)
        assert sc.measure.coordinate_measure(1).weight_of(1) == F(3, 4)
        assert sc.measure.coordinate_measure(5).weight_of(1) == F(1, 2)
        assert sc.function.table[(1,)] == 1
        assert sc.point("one").coordinate(3) == 1

    def test_builtins_all_load(self):
        for name in BUILTIN_SCENARIOS:
            sc = load_scenario(name)
            assert sc.name == name
            assert sc.digest

    def test_malformed_weights_name_the_coordinate(self):
        bad = MINIMAL.replace("[0.25, 0.75]", "[0.25, 0.65]")
        with pytest.raises(ScenarioError, match="coordinate 1"):
            parse_scenario(bad)

    def test_json_error_carries_line(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("{\n  broken\n}")

    def test_unknown_point_lists_known_names(self):
        sc = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError, match="one"):
            sc.point("missing")

    def test_unknown_builtin_or_path(self):
        with pytest.raises(ScenarioError, match="built-in"):
            load_scenario("definitely-not-a-scenario")

    def test_builtin_with_missing_file_exits_two(self, monkeypatch, capsys):
        monkeypatch.setitem(BUILTIN_SCENARIOS, "ghost", "ghost.json")
        with pytest.raises(ScenarioError, match="ghost: built-in scenario "
                                                "file 'ghost.json' is missing"):
            load_scenario("ghost")
        assert main(["expect", "ghost"]) == 2
        assert capsys.readouterr().err.startswith("error: ghost: built-in")

    def test_invalid_seed_rejected(self):
        bad = MINIMAL.replace(
            '{"kind": "described", "head": [],\n                      '
            '"tail": {"kind": "constant_symbol", "symbol": 1}}',
            '{"kind": "lazy", "seed": -3}')
        with pytest.raises(ScenarioError, match="64-bit"):
            parse_scenario(bad)

    def test_bool_seed_rejected_not_aliased(self, tmp_path, capsys):
        # JSON true is a Python bool, an int subclass equal to 1
        bad = tmp_path / "bool-seed.json"
        bad.write_text(MINIMAL.replace(
            '{"kind": "described", "head": [],\n                      '
            '"tail": {"kind": "constant_symbol", "symbol": 1}}',
            '{"kind": "lazy", "seed": true}'))
        with pytest.raises(ScenarioError, match="64-bit") as info:
            load_scenario(str(bad))
        assert info.value.location == "points.one"
        assert main(["gn-trace", str(bad), "--point", "one"]) == 2
        assert "points.one: seed must be a 64-bit" in capsys.readouterr().err

    def test_example_scenario_semantics(self):
        sc = load_scenario("example-3-4")
        assert sc.measure.coordinate_measure(3).weight_of(1) == F(7, 8)
        assert sc.function.family == "product_indicator"
        assert sc.threshold("verify-strong", "min_certified_fraction") == \
            F(98, 100)


class TestCli:
    def test_expect_text_report(self, capsys):
        code = main(["expect", "example-3-4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.2887880950" in out
        assert "certified" in out

    def test_expect_machine_report_fields(self, capsys):
        code = main(["expect", "example-3-4", "--report", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schema_version"] == 1
        result = payload["result"]
        assert {"lo", "hi", "status", "nodes_expanded"} <= set(result)
        assert result["status"] == "certified"
        assert abs(result["lo"] - 0.2887880950866024) < 1e-12

    def test_strong_approx_found_six(self, capsys):
        code = main(["strong-approx", "example-3-4", "--point", "all-ones",
                     "--epsilon", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Found(6)" in out

    def test_strong_approx_inconclusive_lists_undecided(self, capsys):
        # g_1 .. g_6 straddle epsilon at horizon 1, and g_7 is certified
        code = main(["strong-approx", "discounted-uniform", "--seed", "1",
                     "--horizon", "1", "--epsilon", "0.01"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "  Inconclusive(undecided n: [1, 2, 3, 4, 5, 6])" in out

    def test_gn_trace_two_column_block(self, capsys):
        code = main(["gn-trace", "example-3-4", "--point", "all-ones",
                     "--n-max", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        rows = [line.split() for line in out if line and line[0].isdigit()]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert float(rows[1][1]) == 0.5

    def test_weak_approx_emits_exact_rational_alpha(self, capsys):
        code = main(["weak-approx", "cylinder-mix", "--depth", "2",
                     "--seed", "7", "--report", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        result = payload["result"]
        num, den = result["alpha_rational"].split("/")
        assert 0 <= int(num) <= int(den)
        assert result["achieved"] == 0.5

    def test_weak_approx_r_override(self, capsys):
        code = main(["weak-approx", "cylinder-mix", "--depth", "2",
                     "--seed", "7", "--r", "0.3", "--report", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["result"]["achieved"] == 0.3
        assert payload["result"]["achieved_rational"] == "3/10"

    def test_cylinder_table_completeness_checked(self, tmp_path, capsys):
        incomplete = MINIMAL.replace(
            '{"prefix": [0], "value": 0},\n                          ', "")
        bad = tmp_path / "incomplete.json"
        bad.write_text(incomplete)
        code = main(["expect", str(bad)])
        assert code == 2
        assert "misses prefix" in capsys.readouterr().err

    def test_verify_strong_threshold_met(self, capsys):
        code = main(["verify-strong", "discounted-uniform",
                     "--samples", "50", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified_fraction   1.0" in out

    def test_verify_weak_exit_zero(self, capsys):
        code = main(["verify-weak", "cylinder-mix", "--samples", "40",
                     "--seed", "5"])
        assert code == 0

    def test_verify_strong_threshold_miss_exit_one(self, capsys):
        # epsilon far below any reachable gap within three indices: every
        # sample fails and the scenario's 0.98 threshold is missed
        code = main(["verify-strong", "example-3-4", "--epsilon", "0.000001",
                     "--n-max", "3", "--samples", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISSED" in out

    def test_game_value(self, capsys):
        code = main(["game", "purify-demo", "value"])
        out = capsys.readouterr().out
        assert code == 0 and "0.5" in out

    def test_game_purify(self, capsys):
        code = main(["game", "purify-demo", "purify", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "switch index n = 2" in out

    def test_game_naming_demo(self, capsys):
        code = main(["game", "naming-game", "naming-demo", "--samples", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "payoff 1 each: True" in out

    def test_validation_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(MINIMAL.replace("[0.25, 0.75]", "[0.4, 0.5]"))
        code = main(["expect", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "coordinate 1" in err

    def test_report_files_written_side_by_side(self, tmp_path, capsys):
        code = main(["expect", "example-3-4", "--report-dir", str(tmp_path)])
        assert code == 0
        txt = tmp_path / "expect-example-3-4.txt"
        js = tmp_path / "expect-example-3-4.json"
        assert txt.exists() and js.exists()
        payload = json.loads(js.read_text())
        assert payload["command"] == "expect"
        assert payload["scenario_digest"]

    def test_game_verbs_write_their_own_report_files(self, tmp_path, capsys):
        # every verb runs as command "game"; the files are named after the
        # resolved command, so one verb's report does not overwrite another's
        for verb in (["value"], ["purify", "--seed", "3"]):
            main(["game", "purify-demo", *verb, "--report-dir", str(tmp_path)])
        reports = {p.name: json.loads(p.read_text())["command"]
                   for p in tmp_path.glob("*.json")}
        assert reports == {"game-value-purify-demo.json": "game-value",
                           "game-purify-purify-demo.json": "game-purify"}
        assert (tmp_path / "game-value-purify-demo.txt").exists()
        assert (tmp_path / "game-purify-purify-demo.txt").exists()

    def test_machine_reports_byte_identical_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            d = tmp_path / run
            main(["verify-strong", "discounted-uniform", "--samples", "30",
                  "--seed", "21", "--report-dir", str(d)])
            outs.append(
                (d / "verify-strong-discounted-uniform.json").read_bytes())
        assert outs[0] == outs[1]

    def test_verify_weak_reports_byte_identical_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            d = tmp_path / run
            main(["verify-weak", "cylinder-mix", "--samples", "30",
                  "--seed", "21", "--report-dir", str(d)])
            outs.append((d / "verify-weak-cylinder-mix.json").read_bytes())
        assert outs[0] == outs[1]

    def test_parser_built_at_most_once_per_process(self, monkeypatch,
                                                   capsys):
        import prodex.cli as cli
        calls = []
        build = cli.build_parser

        def counting_build():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        outs = []
        for _ in range(2):
            assert main(["expect", "cylinder-mix", "--report", "machine"]) == 0
            outs.append(capsys.readouterr().out)
        assert len(calls) <= 1
        assert outs[0] == outs[1]
        # the public builder still hands out a fresh parser on each call
        assert build() is not build()


DISCOUNTED = """
{
  "name": "discounted",
  "spaces": {"head": [], "tail": {"symbols": [0, 1]}},
  "measure": {"head": [],
              "tail": {"kind": "periodic", "weights": [[0.5, 0.5]]}},
  "function": {"family": "discounted_sum",
               "weights": {"kind": "geometric", "coef": 1, "ratio": 0.5},
               "scores": [[0, 0], [1, 1]],
               "range": [0, 1]}
}
"""


# (scenario, text replaced, replacement, JSON path the error must name)
BAD_NUMBERS = [
    ("minimal", "[0.25, 0.75]", '["abc", 0.75]', "measure.head[0][0]"),
    ("minimal", "[0.25, 0.75]", "[0.25, null]", "measure.head[0][1]"),
    ("minimal", "[0.25, 0.75]", "null", "measure.head[0]"),
    ("minimal", '"weights": [0.5, 0.5]', '"weights": [0.5, "1/0"]',
     "measure.tail.weights[1]"),
    ("minimal", '"value": 1}', '"value": "one"}',
     "function.table[1].value"),
    ("discounted", "[[0.5, 0.5]]", "[[0.5, true]]",
     "measure.tail.weights[0][1]"),
    ("discounted", '"coef": 1', '"coef": "abc"', "function.weights.coef"),
    ("discounted", '"ratio": 0.5', '"ratio": null',
     "function.weights.ratio"),
    ("discounted", "[1, 1]]", '[1, "x"]]', "function.scores[1][1]"),
    ("discounted", "[1, 1]]", "[1, null]]", "function.scores[1][1]"),
    ("discounted", '"range": [0, 1]', '"range": [0, "abc"]',
     "function.range[1]"),
    ("discounted", '"range": [0, 1]', '"range": [0]', "function.range"),
]


class TestMalformedNumbers:
    @pytest.mark.parametrize("base, old, new, location", BAD_NUMBERS,
                             ids=[f"{c[3]}={c[2]}" for c in BAD_NUMBERS])
    def test_bad_number_names_its_json_path(self, base, old, new, location):
        text = {"minimal": MINIMAL, "discounted": DISCOUNTED}[base]
        assert old in text
        with pytest.raises(ScenarioError, match=re.escape(location)):
            parse_scenario(text.replace(old, new))

    def test_bad_number_exits_two_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(DISCOUNTED.replace('"coef": 1', '"coef": "abc"'))
        code = main(["expect", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "function.weights.coef" in err and "Traceback" not in err

    def test_scores_must_cover_every_space_symbol(self, tmp_path, capsys):
        text = DISCOUNTED.replace('"scores": [[0, 0], [1, 1]]',
                                  '"scores": [[1, 1]]')
        with pytest.raises(ScenarioError, match="symbol 0 .* has no score"):
            parse_scenario(text)
        bad = tmp_path / "unscored.json"
        bad.write_text(text)
        assert main(["verify-strong", str(bad), "--samples", "2"]) == 2
        assert "function.scores" in capsys.readouterr().err

    def test_range_miss_exits_two_with_exact_rationals(self, tmp_path,
                                                       capsys):
        # the derived range is [0, 1]; the declared hi is 10**-20 below it
        bad = tmp_path / "narrow.json"
        bad.write_text(DISCOUNTED.replace(
            '"range": [0, 1]',
            '"range": [0, "99999999999999999999/100000000000000000000"]'))
        assert main(["expect", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: declared range "
            f"[0, 99999999999999999999/100000000000000000000] does not bound "
            f"the function (needs [0, 1])\n")

    def test_well_formed_discounted_scenario_loads(self):
        sc = parse_scenario(DISCOUNTED)
        assert sc.function.weights.ratio == F(1, 2)
        assert sc.function.score_of(1) == 1


# (text replaced in MINIMAL_WITH_SETTINGS, replacement, JSON path named)
BAD_SETTINGS = [
    ('"min_certified_fraction": 1.0', '"min_certified_fraction": "abc"',
     "thresholds.verify-strong.min_certified_fraction"),
    ('"samples": 4', '"samples": -1', "defaults.samples"),
    ('"horizon": 8', '"horizon": "x"', "defaults.horizon"),
    ('"n_max": 3', '"n_max": 2.5', "defaults.n_max"),
    ('"epsilon": 0.2', '"epsilon": -0.2', "defaults.epsilon"),
    ('"thresholds": {', '"thresholds": {"verify-weak": 1, ',
     "thresholds.verify-weak"),
    ('"spaces": {"head": [], "tail": {"symbols": [0, 1]}}', '"spaces": [1, 2]',
     "spaces"),
    ('"tail": {"symbols": [0, 1]}', '"tail": {"symbols": [[0], [1]]}',
     "spaces.tail.symbols[0]"),
    ('{"prefix": [0], "value": 0}', '{"prefix": [[0]], "value": 0}',
     "function.table[0].prefix[0]"),
    ('"symbol": 1}}}', '"symbol": [1]}}}', "points.one.tail.symbol"),
    # defaults take one spelling each; nothing reads any other key
    ('"samples": 4', '"smaples": 4', "defaults.smaples"),
    ('"n_max": 3', '"n_max": 3, "n-max": 5', "defaults.n-max"),
    # thresholds: only the campaigns read one, and only this key
    ('"thresholds": {', '"thresholds": {"expect": '
     '{"min_certified_fraction": 0.5}, ', "thresholds.expect"),
    ('"thresholds": {', '"thresholds": {"verify-weak": '
     '{"min_certified_fration": 1.0}, ',
     "thresholds.verify-weak.min_certified_fration"),
    ('"thresholds": {', '"thresholds": {"verify-weak": '
     '{"min_certified_fraction": 1.5}, ',
     "thresholds.verify-weak.min_certified_fraction"),
]

MINIMAL_WITH_SETTINGS = MINIMAL.rstrip()[:-1] + """,
  "defaults": {"samples": 4, "horizon": 8, "n_max": 3, "epsilon": 0.2},
  "thresholds": {"verify-strong": {"min_certified_fraction": 1.0}}
}
"""


class TestMalformedSettingsAndSymbols:
    @pytest.mark.parametrize("old, new, location", BAD_SETTINGS,
                             ids=[f"{c[2]}" for c in BAD_SETTINGS])
    def test_exits_two_with_its_json_path(self, old, new, location,
                                          tmp_path, capsys):
        assert old in MINIMAL_WITH_SETTINGS
        text = MINIMAL_WITH_SETTINGS.replace(old, new)
        with pytest.raises(ScenarioError, match=re.escape(location)):
            parse_scenario(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["verify-strong", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert location in err and "Traceback" not in err

    def test_well_formed_settings_are_converted_at_load(self):
        sc = parse_scenario(MINIMAL_WITH_SETTINGS)
        assert sc.defaults == {"samples": 4, "horizon": 8, "n_max": 3,
                               "epsilon": F(1, 5)}
        assert sc.threshold("verify-strong", "min_certified_fraction") == 1


def _mix_with_rows(replace=None, extra=()):
    """cylinder-mix with row 0 replaced and rows appended."""
    doc = json.loads(BUILTIN_TEXTS["cylinder-mix"])
    rows = doc["function"]["table"]
    if replace is not None:
        rows[0] = replace
    rows.extend(extra)
    return json.dumps(doc)


# (row 0 replacement, appended rows, JSON path named)
BAD_ROWS = [
    (None, [{"prefix": [0, 0], "value": 1}], "function.table[4].prefix"),
    ({"prefix": [0, 5], "value": 0}, [], "function.table[0].prefix[1]"),
    (None, [{"prefix": [0, 5], "value": 0.5}], "function.table[4].prefix[1]"),
    (None, [{"prefix": [0, 5], "value": 7}], "function.table[4].prefix[1]"),
    (None, [{"prefix": [1], "value": 0}], "function.table[4].prefix"),
]


class TestMalformedCylinderRows:
    @pytest.mark.parametrize("replace, extra, location", BAD_ROWS,
                             ids=[c[2] + "=" + json.dumps(c[0] or c[1])
                                  for c in BAD_ROWS])
    def test_exits_two_naming_the_row(self, replace, extra, location,
                                      tmp_path, capsys):
        text = _mix_with_rows(replace, extra)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.location == location
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["expect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert location in err and "Traceback" not in err

    def test_duplicate_names_the_first_row(self):
        with pytest.raises(ScenarioError, match=re.escape(
                "prefix [0, 0] is already given at function.table[0]")):
            parse_scenario(_mix_with_rows(
                extra=[{"prefix": [0, 0], "value": 1}]))


class TestCylinderExpectRoute:
    def test_expect_reports_the_table_sum_oracle(self, capsys):
        assert main(["expect", "cylinder-threshold", "--report",
                     "machine"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["oracle_used"] is True
        assert result["nodes_expanded"] == 0
        assert result["status"] == "certified"


def _builtin_functions():
    """(scenario, function) for every built-in function and game payoff."""
    for name in sorted(BUILTIN_SCENARIOS):
        sc = load_scenario(name)
        if sc.function is not None:
            yield sc, sc.function
        if sc.game is not None:
            for action in sc.game.actions:
                yield sc, sc.game.payoff(action)


class TestBuiltinRoutes:
    def test_every_builtin_expectation_takes_an_oracle(self):
        # the prefix tree serves user-defined functions only: no built-in
        # function or payoff reaches it from expect or from g_n
        calls = 0
        for sc, f in _builtin_functions():
            assert expect(f, sc.measure).oracle_used
            points = [LazyPoint(seed, sc.measure) for seed in range(3)]
            points += sc.points.values()
            for x in points:
                for n in range(1, 7):
                    for horizon in (None, 0, 3):
                        res = g_n(f, sc.measure, x, n, horizon=horizon)
                        assert res.oracle_used and res.nodes_expanded == 0
                        calls += 1
        assert calls >= 500


class TestHorizonResolution:
    @pytest.mark.parametrize("argv", [
        ["gn-trace", "example-3-4", "--seed", "5", "--n-max", "6"],
        ["strong-approx", "example-3-4", "--seed", "4"],
        ["weak-approx", "example-3-4", "--seed", "3", "--depth", "4"],
    ])
    def test_scenario_default_horizon_equals_the_flag(self, argv, capsys):
        # example-3-4 declares "horizon": 60 among its defaults; the
        # fallback horizon 64 gives a different eta
        reports = []
        for extra in ([], ["--horizon", "60"], ["--horizon", "64"]):
            main(argv + ["--report", "machine"] + extra)
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] != reports[2]

    def test_game_purify_honours_horizon(self, tmp_path, capsys):
        # discounted payoffs read the lazily sampled tail up to the
        # horizon; at horizon 0 no index certifies epsilon 0.3
        scenario = json.loads(BUILTIN_TEXTS["purify-demo"])

        def payoff(scores):
            return {"family": "discounted_sum",
                    "weights": {"kind": "geometric", "coef": 1,
                                "ratio": 0.5},
                    "scores": scores, "range": [0, 1]}

        scenario["game"]["payoffs"] = {"a": payoff([[0, 0], [1, 1]]),
                                       "b": payoff([[0, 1], [1, 0]])}
        scenario["defaults"]["epsilon"] = 0.3
        path = tmp_path / "purify-discounted.json"
        path.write_text(json.dumps(scenario))
        argv = ["game", str(path), "purify", "--seed", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--horizon", "0"]) == 1
        assert "PurificationFailedError" in capsys.readouterr().err


class TestFallbacks:
    @pytest.mark.parametrize("name, position, argv, fallback", [
        ("find_strong_approx", 3, ["strong-approx", "cylinder-mix"],
         F(1, 100)),
        ("verify_strong", 2, ["verify-strong", "cylinder-mix"], F(1, 100)),
        ("purify", 2, ["game", "purify-demo", "purify"], F(1, 10)),
    ])
    def test_epsilon_fallback_is_exact(self, name, position, argv, fallback,
                                       tmp_path, monkeypatch):
        # a scenario with no epsilon default gets the command's fallback,
        # which reaches the library as an exact rational, not a float
        doc = json.loads(BUILTIN_TEXTS[argv[1]])
        del doc["defaults"]["epsilon"]
        path = tmp_path / f"{argv[1]}.json"
        path.write_text(json.dumps(doc))
        seen = []

        def spy(*args, **kwargs):
            seen.append(args[position])
            raise ScenarioError("stop")

        monkeypatch.setattr(prodex.cli, name, spy)
        assert main([argv[0], str(path)] + argv[2:]) == 2
        assert seen == [fallback] and isinstance(seen[0], Fraction)


def test_node_budget_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expect", "example-3-4", "--node-budget", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --node-budget" in capsys.readouterr().err


class TestGameVerbFlags:
    """The game subparser takes every verb's flags; each verb rejects
    those outside its own `COMMANDS` entry, before any work runs."""

    @pytest.mark.parametrize("argv, flag", [
        (["game", "purify-demo", "value", "--epsilon", "5", "--samples", "3"],
         "--epsilon"),
        (["game", "purify-demo", "purify", "--samples", "3"], "--samples"),
        (["game", "naming-game", "naming-demo", "--n-max", "4"], "--n-max"),
    ], ids=["value", "purify", "naming-demo"])
    def test_another_verbs_flag_exits_two(self, argv, flag, capsys,
                                          monkeypatch):
        def no_work(*args):
            raise AssertionError("a scenario was loaded")

        monkeypatch.setattr(prodex.cli, "load_scenario", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: not read by game {argv[2]}" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["game", "purify-demo", "value", "--epsilon", "5"],
        ["game", "purify-demo", "purify", "--epsilon", "0"],
    ], ids=["stray-flag", "purify-epsilon-0"])
    def test_verb_errors_print_the_game_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: prodex game ")
        assert "\nprodex game: error: argument --epsilon: " in err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["verify-strong", "discounted-uniform", "--samples", "-1"],
        ["verify-weak", "cylinder-mix", "--samples", "0"],
        ["gn-trace", "example-3-4", "--n-max", "0"],
        ["strong-approx", "example-3-4", "--n-max", "-4"],
        ["game", "naming-game", "naming-demo", "--samples", "0"],
        ["game", "purify-demo", "purify", "--n-max", "-3"],
        ["weak-approx", "cylinder-mix", "--depth", "0"],
        ["verify-weak", "cylinder-mix", "--depth", "-2"],
        ["weak-approx", "cylinder-mix", "--retries", "0"],
        ["game", "purify-demo", "purify", "--retries", "-1"],
        ["verify-strong", "example-3-4", "--n-max", "0"],
    ])
    def test_count_below_one_exits_two_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_non_integer_count_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-strong", "discounted-uniform", "--samples", "many"])
        assert exc.value.code == 2
        assert "invalid count 'many'" in capsys.readouterr().err


class TestRangedFlags:
    @pytest.mark.parametrize("argv, message", [
        (["gn-trace", "example-3-4", "--horizon", "-3"], "must be >= 0"),
        (["verify-strong", "discounted-uniform", "--horizon", "-1"],
         "must be >= 0"),
        (["expect", "example-3-4", "--seed", "-1"], "must be in [0, 2**64)"),
        (["expect", "example-3-4", "--seed", str(2**64 + 1)],
         "must be in [0, 2**64)"),
        (["expect", "example-3-4", "--tol", "0"], "must be > 0"),
        (["gn-trace", "example-3-4", "--tol=-1/10"], "must be > 0"),
        (["strong-approx", "example-3-4", "--epsilon", "-1"], "must be >= 0"),
        (["verify-strong", "example-3-4", "--epsilon", "-0.5"],
         "must be >= 0"),
        (["game", "purify-demo", "purify", "--epsilon=-1/4"],
         "must be >= 0"),
        (["expect", "example-3-4", "--tol", "1/0"], "invalid tolerance"),
        (["expect", "example-3-4", "--seed", "one"], "invalid seed"),
        (["weak-approx", "cylinder-mix", "--r", "1/0"], "invalid target"),
        (["game", "purify-demo", "purify", "--epsilon", "0"],
         "argument --epsilon: must be > 0 for game purify"),
    ])
    def test_out_of_range_exits_two_at_parse_time(self, argv, message,
                                                  capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_range_ends_are_admitted(self, capsys):
        assert main(["expect", "discounted-uniform", "--seed", str(2**64 - 1),
                     "--horizon", "0"]) == 0
        assert main(["strong-approx", "example-3-4", "--point", "all-ones",
                     "--epsilon", "0", "--n-max", "2"]) in (0, 1)


#: the exit code of each error `run_scenario` may raise: a malformed
#: scenario is a usage error, anything raised while computing is a failure
EXIT_CODES = {
    errors.ScenarioError: 2,
    errors.ValidationError: 1,
    errors.UndeterminedValueError: 1,
    errors.UnsupportedTailError: 1,
    errors.NotTailEquivalentError: 1,
    errors.NotStraddlingError: 1,
    errors.StraddleNotFoundError: 1,
    errors.NotFinitisticError: 1,
    errors.PurificationFailedError: 1,
    errors.ToleranceConfigError: 1,
}


def test_exit_codes_cover_every_error():
    subclasses, todo = set(), [errors.ProdexError]
    while todo:
        for cls in todo.pop().__subclasses__():
            subclasses.add(cls)
            todo.append(cls)
    assert subclasses == set(EXIT_CODES)


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_error_from_run_scenario_maps_to_its_exit_code(error, monkeypatch,
                                                        capsys):
    if error is errors.StraddleNotFoundError:
        exc = error(3, 5)
    else:
        exc = error("raised while running")

    def run_scenario(path, command, args):
        raise exc

    monkeypatch.setattr(prodex.cli, "run_scenario", run_scenario)
    assert main(["expect", "example-3-4"]) == EXIT_CODES[error]
    assert str(exc) in capsys.readouterr().err


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


BUILTIN_TEXTS = {
    name: resources.files("prodex").joinpath("scenarios", file).read_text(
        encoding="utf-8")
    for name, file in sorted(BUILTIN_SCENARIOS.items())
}

# JSON values of every wrong kind; inf and nan dump as Infinity and NaN,
# which the JSON reader accepts
WRONG_VALUES = [None, "abc", "1/0", [], {}, [[1]], [None], {"a": {"b": 1}},
                True, 0, -1, -0.5, 2.5, 10**30, float("inf"), float("nan")]
# one value of each kind, tried at every key of every built-in
ONE_OF_EACH_KIND = [None, "abc", [], {}, [[1]], True, -1, 2.5, float("inf")]
DROP = object()


def _mutated(doc, path, value):
    """A copy of doc with the key or item at path dropped or replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def assert_only_scenario_error(doc, what):
    try:
        parse_scenario(json.dumps(doc))
    except ScenarioError:
        pass
    except Exception as exc:  # any other escape is the defect looked for
        pytest.fail(f"{what}: {type(exc).__name__}: {exc}")


@st.composite
def mutations(draw):
    """One to three keys or items of a built-in scenario dropped or
    replaced."""
    doc = json.loads(BUILTIN_TEXTS[draw(st.sampled_from(sorted(BUILTIN_TEXTS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))[1:]))
        doc = _mutated(doc, path, draw(st.sampled_from([DROP, *WRONG_VALUES])))
    return doc


class TestParseScenarioFuzz:
    """parse_scenario is total: malformed input raises ScenarioError only."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
    def test_every_single_mutation(self, name):
        doc = json.loads(BUILTIN_TEXTS[name])
        for path in list(_json_paths(doc))[1:]:
            for value in [DROP, *ONE_OF_EACH_KIND]:
                assert_only_scenario_error(
                    _mutated(doc, path, value),
                    f"{name}: {'.'.join(map(str, path))} = "
                    f"{'dropped' if value is DROP else repr(value)}")

    @given(doc=mutations())
    @settings(max_examples=150)
    def test_combined_mutations(self, doc):
        assert_only_scenario_error(doc, json.dumps(doc))

    @pytest.mark.parametrize("name, path, value, location", [
        ("example-3-4", ("function", "targets"), None, "function.targets"),
        ("example-3-4", ("measure", "tail", "family"), [],
         "measure.tail.family"),
        ("example-3-4", ("measure", "tail", "params"), -1,
         "measure.tail.params"),
        ("example-3-4", ("measure", "tail", "params"), {"a": 1},
         "measure.tail.params"),
        ("example-3-4", ("defaults", "epsilon"), float("inf"),
         "defaults.epsilon"),
        ("purify-demo", ("game", "range"), None, "game.range"),
    ])
    def test_found_escapes_name_their_json_path(self, name, path, value,
                                                location):
        doc = _mutated(json.loads(BUILTIN_TEXTS[name]), path, value)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == location


INDICATOR_PAYOFF = {
    "family": "product_indicator",
    "targets": {"head": [1, 7], "tail": {"kind": "constant_symbol",
                                         "symbol": 1}}}

# (scenario, JSON path, replacement, location, message after the location)
BAD_SYMBOLS = [
    ("example-3-4", ("points", "all-ones", "head"), [5],
     "points.all-ones", "point head[0]: symbol 5 not in coordinate 1"),
    ("example-3-4", ("points", "all-ones", "tail", "symbol"), 9,
     "points.all-ones", "point tail: symbol 9 not in coordinate 1"),
    ("example-3-4", ("function", "targets", "head"), [7],
     "function.targets", "target head[0]: symbol 7 not in coordinate 1"),
    ("example-3-4", ("function", "targets", "tail", "symbol"), 3,
     "function.targets", "target tail: symbol 3 not in coordinate 1"),
    ("purify-demo", ("game", "payoffs", "b"), INDICATOR_PAYOFF,
     "game.payoffs.b.targets", "target head[1]: symbol 7 not in coordinate 2"),
]


class TestBadSymbolsNameTheirJsonPath:
    """A symbol outside its coordinate's space names the point, the
    function or the game payoff it belongs to, not only the file."""

    @pytest.mark.parametrize("name, path, value, location, message",
                             BAD_SYMBOLS, ids=[".".join(c[1])
                                               for c in BAD_SYMBOLS])
    def test_exits_two_with_its_json_path(self, name, path, value, location,
                                          message, tmp_path, capsys):
        doc = _mutated(json.loads(BUILTIN_TEXTS[name]), path, value)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == location
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        command = (["game", str(bad), "value"] if name == "purify-demo"
                   else ["expect", str(bad)])
        assert main(command) == 2
        err = capsys.readouterr().err
        assert f"error: {location}: {message}\n" in err
        assert "Traceback" not in err


#: binary, then three symbols at coordinate 2, binary again beyond: with
#: no head measure, the measure's tail rule covers coordinate 2
MISFIT_SPACES = {"head": [{"symbols": [0, 1]}, {"symbols": [0, 1, 2]}],
                 "tail": {"symbols": [0, 1]}}
CONSTANT_BINARY = {"kind": "constant", "weights": [0.5, 0.5]}


def _cylinder_doc(depth: int, symbols) -> dict:
    table = [{"prefix": list(key), "value": key[0]}
             for key in itertools.product(*symbols[:depth])]
    return {"family": "cylinder", "depth": depth, "table": table}


# (name, measure tail, function, coordinate the error names)
MISFIT_TAILS = [
    ("periodic", {"kind": "periodic",
                  "weights": [[0.5, 0.5], [0.2, 0.3, 0.5]]},
     {"family": "discounted_sum",
      "weights": {"kind": "geometric", "coef": 1, "ratio": 0.5},
      "scores": [[0, 0], [1, 1], [2, 2]], "range": [0, 2]}, 4),
    ("constant-depth-2", CONSTANT_BINARY,
     _cylinder_doc(2, [(0, 1), (0, 1, 2)]), 2),
    ("constant-depth-1", CONSTANT_BINARY, _cylinder_doc(1, [(0, 1)]), 2),
]


class TestMeasureTailFitsEverySpace:
    """A measure tail rule is checked against every space it covers, not
    only the first: a misfit is a malformed scenario at `measure.tail`,
    whatever the function reads."""

    @pytest.mark.parametrize("name, tail, function, coordinate",
                             MISFIT_TAILS, ids=[c[0] for c in MISFIT_TAILS])
    def test_misfit_exits_two_at_measure_tail(self, name, tail, function,
                                              coordinate, tmp_path, capsys):
        text = json.dumps({"spaces": MISFIT_SPACES,
                           "measure": {"head": [], "tail": tail},
                           "function": function})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.location == "measure.tail"
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for argv in (["expect", str(path)],
                     ["gn-trace", str(path), "--n-max", "3"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: measure.tail: coordinate "
                                  f"{coordinate}: measure symbols")
            assert "Traceback" not in err

    def test_matching_periodic_tail_past_the_explicit_spaces(self):
        # three explicit binary spaces, one head measure: the two-template
        # tail covers coordinates 2 and 3 of the head, then repeats
        doc = json.loads(DISCOUNTED)
        doc["spaces"]["head"] = [{"symbols": [0, 1]}] * 3
        doc["measure"] = {"head": [[0.25, 0.75]], "tail": {
            "kind": "periodic", "weights": [[0.5, 0.5], [0.1, 0.9]]}}
        sc = parse_scenario(json.dumps(doc))
        p_one = {1: F(3, 4), 2: F(1, 2), 3: F(9, 10), 4: F(1, 2), 5: F(9, 10)}
        assert {i: sc.measure.coordinate_measure(i).weight_of(1)
                for i in p_one} == p_one

        def weight(i):
            return p_one[1] if i == 1 else p_one[2 + (i % 2)]

        # E[f] = sum_i 2**-i P(x_i = 1) = 3/8 + 1/6 + 3/20
        res = expect(sc.function, sc.measure, F(1, 10**9))
        assert res.bounds.is_point and res.bounds.lo == F(83, 120)
        # at the all-ones point, g_n = sum_{i<n} 2**-i P(x_i = 1) + 2**-(n-1)
        ones = DescribedPoint((), ConstantSymbol(1))
        entries = trace(sc.function, sc.measure, ones, 6, F(1, 10**9)).entries
        assert [(e.bounds.lo, e.bounds.hi) for e in entries] == [
            (g, g) for g in (
                sum(weight(i) / 2**i for i in range(1, n)) + F(1, 2**(n - 1))
                for n in range(1, 7))]


class TestNamedPoints:
    """A scenario's named lazy point and a named described point with a
    periodic symbol tail are the points the library builds: `gn-trace
    --point` reports the library's trace at each."""

    def test_gn_trace_reports_the_library_trace(self, tmp_path, capsys):
        doc = json.loads(DISCOUNTED)
        doc["points"] = {
            "drawn": {"kind": "lazy", "seed": 5},
            "alternating": {"kind": "described", "head": [1],
                            "tail": {"kind": "periodic_symbols",
                                     "symbols": [0, 0, 1]}}}
        path = tmp_path / "named-points.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(str(path))
        points = {"drawn": LazyPoint(5, sc.measure),
                  "alternating": DescribedPoint((1,),
                                                PeriodicSymbols((0, 0, 1)))}
        for name, point in points.items():
            assert main(["gn-trace", str(path), "--point", name,
                         "--n-max", "8", "--report", "machine"]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            expected = trace(sc.function, sc.measure, point, 8, F(1, 10**9))
            assert [(e["n"], e["lo"], e["hi"]) for e in result["entries"]] \
                == [(e.n, *e.bounds.outward()) for e in expected.entries]
            assert (result["reference"]["lo"], result["reference"]["hi"]) \
                == expected.reference.bounds.outward()


def _params(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([str(a) for a in argv] + ["--report", "machine"])
    return json.loads(out.getvalue())["params"]


#: one run of every `COMMANDS` entry
ENTRY_ARGV = {
    "expect": ["expect", "cylinder-mix"],
    "gn-trace": ["gn-trace", "cylinder-mix", "--n-max", "2"],
    "strong-approx": ["strong-approx", "cylinder-mix", "--n-max", "2"],
    "weak-approx": ["weak-approx", "cylinder-mix"],
    "verify-strong": ["verify-strong", "cylinder-mix", "--samples", "2"],
    "verify-weak": ["verify-weak", "cylinder-mix", "--samples", "2"],
    "game-value": ["game", "purify-demo", "value"],
    "game-purify": ["game", "purify-demo", "purify"],
    "game-naming-demo": ["game", "naming-game", "naming-demo",
                         "--samples", "2"],
}
SKEWED = Path(__file__).parent / "scenarios" / "cylinder-skewed.json"


class TestReportParams:
    """A report's `params` state every setting the run was made with."""

    def test_every_entry_states_its_settings(self):
        assert set(ENTRY_ARGV) == set(prodex.cli.COMMANDS)
        for name, argv in ENTRY_ARGV.items():
            settings = prodex.cli.COMMANDS[name][1]
            assert set(_params(argv)) == {"seed", "tol", "horizon",
                                          *settings}, name

    def test_seed_and_horizon_tell_runs_apart(self):
        trace_argv = ["gn-trace", SKEWED, "--seed", "5", "--n-max", "10"]
        assert _params(trace_argv) != _params(trace_argv + ["--horizon", "4"])
        assert _params(["strong-approx", SKEWED, "--seed", "4"]) != \
            _params(["strong-approx", SKEWED, "--seed", "5"])

    def test_tiny_tol_is_stated_positive(self):
        tol = _params(["expect", "cylinder-mix", "--tol", "1e-400"])["tol"]
        assert tol > 0 and F(tol) >= F(1, 10**400)

    @pytest.mark.parametrize("argv", [
        ["gn-trace", "example-3-4", "--n-max", "2"],
        ["strong-approx", "example-3-4", "--n-max", "2"],
        ["weak-approx", "example-3-4", "--depth", "2"],
    ])
    def test_scenario_default_horizon_is_stated(self, argv):
        assert _params(argv)["horizon"] == 60

    def test_point_r_and_retries_are_stated(self):
        assert _params(["gn-trace", "cylinder-mix", "--n-max", "2",
                        "--point", "all-ones"])["point"] == "all-ones"
        weak = _params(["weak-approx", "cylinder-mix", "--r", "1/3",
                        "--retries", "3"])
        # a rational is stated rounded up, by the report's one rule
        assert (weak["r"], weak["retries"]) == (round_up(F(1, 3)), 3)
        assert _params(ENTRY_ARGV["game-purify"])["retries"] == \
            DEFAULT_PURIFY_RETRIES
