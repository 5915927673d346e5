"""Reported floats enclose the library's exact values.

A report states each bound as a float: the lower end of an enclosure as
the largest float at or below it, the upper end, a width and an eta as
the smallest float at or above it.  These tests run CLI commands with
`--report machine`, recompute the same result exactly through the
library, and check every reported bound against it: it must hold, and
it must be the nearest float that holds.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.cli import _down, _up, main
from prodex.errors import ProdexError
from prodex.games import DEFAULT_PURIFY_RETRIES, best_response_value, purify
from prodex.harness import verify_strong, verify_weak
from prodex.martingale import find_strong_approx, trace
from prodex.model import LazyPoint
from prodex.scenario import load_scenario
from prodex.seeds import derive_seed
from prodex.tailclass import DEFAULT_RETRIES, weak_zero_from_sample

F = Fraction
TOL = F(1, 10**9)
SKEWED = str(Path(__file__).parent / "scenarios" / "cylinder-skewed.json")
FUNCTION_SCENARIOS = ["cylinder-mix", "cylinder-threshold",
                      "discounted-uniform", "example-3-4", SKEWED]
GAME_SCENARIOS = ["purify-demo", "purify-demo-quad"]


def _machine(argv):
    """Exit code and machine report (None when the run printed none)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--report", "machine"])
    return code, (json.loads(out.getvalue())["result"]
                  if out.getvalue() else None)


def _enclosure_claims(reported, iv):
    """(side, reported float, exact value) for one reported enclosure."""
    claims = [("lo", reported["lo"], iv.lo), ("hi", reported["hi"], iv.hi)]
    if "width" in reported:
        claims.append(("hi", reported["width"], iv.width))
    return claims


def _assert_outward(claims):
    """Each lower bound is the largest float <= its exact value, and
    each upper bound (an end, a width or an eta) the smallest float >=."""
    assert claims
    for side, reported, exact in claims:
        if side == "lo":
            assert F(reported) <= exact < F(math.nextafter(reported, math.inf))
        else:
            assert F(math.nextafter(reported, -math.inf)) < exact <= F(reported)


class TestRoundingHelpers:
    @pytest.mark.parametrize("x", [
        F(0), F(1), F(-1), F(1, 3), F(-1, 3), F(1, 10), F(3, 2**60),
        F(1, 2**1080), F(-1, 2**1080), F(2**53 + 1), F(10**400 + 1, 10**400),
        F(1) - F(1, 2**200),
    ])
    def test_nearest_floats_either_side(self, x):
        lo, hi = _down(x), _up(x)
        assert F(lo) <= x <= F(hi)
        assert F(math.nextafter(lo, math.inf)) > x
        assert F(math.nextafter(hi, -math.inf)) < x
        assert (lo == hi) == (F(lo) == x)


class TestInwardRoundingRepros:
    def test_expect_example_3_4_hi_encloses_its_rational(self):
        code, result = _machine(["expect", "example-3-4"])
        assert code == 0
        assert F(result["lo"]) <= F(result["lo_rational"])
        assert F(result["hi"]) >= F(result["hi_rational"])
        # the nearest float lies below hi_rational: rounding it up moves
        assert result["hi"] > float(F(result["hi_rational"]))

    def test_cylinder_mix_trace_has_no_inward_endpoint(self):
        sc = load_scenario("cylinder-mix")
        for seed in range(1, 41):
            code, result = _machine(["gn-trace", "cylinder-mix",
                                     "--seed", str(seed)])
            x = LazyPoint(derive_seed(seed, "cli-point"), sc.measure)
            exact = trace(sc.function, sc.measure, x, 8, TOL)
            assert code == 0
            assert len(result["entries"]) == len(exact.entries) == 8
            for reported, e in zip(result["entries"], exact.entries):
                _assert_outward(_enclosure_claims(reported, e.interval)
                                + [("hi", reported["eta"], e.eta)])


def _exact(command, name, seed, horizon):
    """The library's exact result for the CLI run of `FLAGS[command]`."""
    sc = load_scenario(name)
    f, mu = sc.function, sc.measure
    x = LazyPoint(derive_seed(seed, "cli-point"), mu)
    if command == "gn-trace":
        return trace(f, mu, x, 6, TOL, horizon=horizon)
    if command == "strong-approx":
        return find_strong_approx(f, mu, x, F(1, 20), 12, TOL,
                                  horizon=horizon)
    if command == "weak-approx":
        return weak_zero_from_sample(f, mu, TOL, 2, seed,
                                     retries=DEFAULT_RETRIES, horizon=horizon)
    if command == "verify-strong":
        return verify_strong(f, mu, F(1, 20), 3, 12, TOL, seed,
                             horizon=horizon)
    if command == "verify-weak":
        return verify_weak(f, mu, 2, 3, TOL, seed, horizon=horizon)
    if command == "value":
        return best_response_value(sc.game, mu, TOL, horizon=horizon)
    return purify(sc.game, mu, F(1, 10), 16, TOL, seed,
                  retries=DEFAULT_PURIFY_RETRIES, horizon=horizon)


def _claims(command, result, exact):
    """(side, reported float, exact value) for every bound a report states."""
    if command == "gn-trace":
        claims = _enclosure_claims(result["reference"],
                                   exact.reference.interval)
        assert len(result["entries"]) == len(exact.entries)
        for reported, e in zip(result["entries"], exact.entries):
            claims += _enclosure_claims(reported, e.interval)
            claims.append(("hi", reported["eta"], e.eta))
        return claims
    if command == "strong-approx":
        if exact.found_value is None:
            assert result["value"] is None
            return [("hi", result["eta"], exact.eta)]
        return ([("hi", result["eta"], exact.eta)]
                + _enclosure_claims(result["value"], exact.found_value))
    if command == "weak-approx":
        for key in ("alpha", "achieved", "value_low", "value_high"):
            value = getattr(exact, key)
            assert F(result[f"{key}_rational"]) == value
            assert result[key] == float(value)
        return [("hi", result["eta"], exact.eta)]
    if command in ("verify-strong", "verify-weak"):
        assert len(result["records"]) == len(exact.records)
        return [("hi", result["max_eta"], exact.max_eta)] + [
            ("hi", reported["eta"], r.eta)
            for reported, r in zip(result["records"], exact.records)]
    if command == "value":
        claims = _enclosure_claims(result["value"], exact.interval)
        for reported, (action, r) in zip(result["per_action"],
                                         exact.per_action):
            assert reported["action"] == action
            claims += _enclosure_claims(reported, r.interval)
        return claims
    claims = [("hi", result["eta"], exact.eta)]
    for reported, c in zip(result["per_action"], exact.per_action):
        claims += _enclosure_claims(reported["sigma_value"], c.sigma_value)
        claims += _enclosure_claims(reported["profile_value"], c.profile_value)
    return claims


#: the flags each command runs with; `_exact` mirrors them
FLAGS = {
    "gn-trace": ["--n-max", "6"],
    "strong-approx": ["--epsilon", "0.05", "--n-max", "12"],
    "weak-approx": ["--depth", "2"],
    "verify-strong": ["--samples", "3", "--epsilon", "0.05",
                      "--n-max", "12"],
    "verify-weak": ["--samples", "3", "--depth", "2"],
    "value": [],
    "purify": ["--epsilon", "0.1", "--n-max", "16"],
}


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    game = command in ("value", "purify")
    name = draw(st.sampled_from(GAME_SCENARIOS if game
                                else FUNCTION_SCENARIOS))
    seed = draw(st.integers(0, 2**64 - 1))
    horizon = draw(st.sampled_from([2, 6, 60]))
    return command, name, seed, horizon


class TestReportedBoundsEncloseExactValues:
    @given(run=runs())
    @settings(max_examples=40)
    def test_every_reported_bound_is_outward(self, run):
        command, name, seed, horizon = run
        argv = ([command, name] if command not in ("value", "purify")
                else ["game", name, command])
        code, result = _machine(argv + FLAGS[command] + [
            "--seed", str(seed), "--horizon", str(horizon)])
        if result is None:  # no report: the library fails the same way
            assert code == 1
            with pytest.raises(ProdexError):
                _exact(command, name, seed, horizon)
            return
        _assert_outward(_claims(command, result,
                                _exact(command, name, seed, horizon)))
