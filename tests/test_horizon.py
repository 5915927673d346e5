"""One horizon convention: every `horizon=` accepts None.

None is each function's default depth, and `f.read_horizon` alone turns
it into one; every public entry point with a `horizon` parameter must
therefore give the same result at None as at `f.read_horizon(x, None)`.
"""

import itertools
from fractions import Fraction

import pytest

from prodex.engine import exact_expectation_product_indicator, expect
from prodex.functions import DEFAULT_HORIZON, ProductIndicator, eval_function
from prodex.games import best_response_value, purify
from prodex.harness import verify_strong, verify_weak
from prodex.martingale import find_strong_approx, g_n, trace
from prodex.model import HybridMeasure, LazyPoint
from prodex.scenario import load_scenario
from prodex.tailclass import (
    classify,
    construct_weak_zero,
    hull_estimate,
    weak_zero_from_sample,
)

from conftest import indicator_all_ones, uniform_sigma

F = Fraction
TOL = F(1, 10**9)


def _straddle(f, sigma, x, h):
    """A depth-2 hull of x and the midpoint of its span, which it
    straddles."""
    hull = hull_estimate(f, x, 2, sigma.spaces, horizon=h)
    return hull, (hull.lo + hull.hi) / 2


def _steps(f, sigma, x, h, start=1):
    """The first g_n steps from `start` on, or None for a function
    without them."""
    steps = f.martingale_steps(sigma, x, h, start)
    return None if steps is None else list(itertools.islice(steps, 4))


def _certificate(f, sigma, x, h):
    hull, r = _straddle(f, sigma, x, h)
    return construct_weak_zero(f, sigma, hull.witness_min, hull.witness_max,
                               r, h)


#: each public entry point with a `horizon`, as (f, sigma, x, h) -> result
ENTRY_POINTS = {
    "expect": lambda f, sigma, x, h: expect(
        f, HybridMeasure.measures_then_point(sigma, x, 2), TOL, horizon=h),
    "exact_expectation_product_indicator": lambda f, sigma, x, h:
        exact_expectation_product_indicator(
            f, HybridMeasure.measures_then_point(sigma, x, 2), horizon=h),
    "martingale_steps": _steps,
    "martingale_steps_from_3": lambda f, sigma, x, h: _steps(
        f, sigma, x, h, start=3),
    "g_n": lambda f, sigma, x, h: g_n(f, sigma, x, 2, TOL, horizon=h),
    "trace": lambda f, sigma, x, h: trace(f, sigma, x, 4, TOL, horizon=h),
    "find_strong_approx": lambda f, sigma, x, h: find_strong_approx(
        f, sigma, x, F(1, 10), 8, TOL, horizon=h),
    "verify_strong": lambda f, sigma, x, h: verify_strong(
        f, sigma, F(1, 10), 2, 8, TOL, seed=1, horizon=h),
    "verify_weak": lambda f, sigma, x, h: verify_weak(
        f, sigma, 2, 2, TOL, seed=1, horizon=h),
    "hull_estimate": lambda f, sigma, x, h: _straddle(f, sigma, x, h)[0],
    "classify": lambda f, sigma, x, h: classify(
        f, sigma, x, _straddle(f, sigma, x, None)[1], 2, horizon=h),
    "construct_weak_zero": _certificate,
    "weak_zero_from_sample": lambda f, sigma, x, h: weak_zero_from_sample(
        f, sigma, TOL, 2, seed=1, horizon=h),
    "mixed_value": lambda f, sigma, x, h: _certificate(
        f, sigma, x, None).mixed_value(f, horizon=h),
    "eval_function": lambda f, sigma, x, h: eval_function(f, x, horizon=h),
    "eval_soft": lambda f, sigma, x, h: f.eval_soft(x, horizon=h),
    "bounds_over": lambda f, sigma, x, h: f.bounds_over(
        (x.coordinate(1),), rest=x, rest_from=3, horizon=h),
}


def _outcome(call):
    """("ok", the repr of the result), or the error's class and text.
    Points print their seed and overrides, so equal reprs are equal
    results."""
    try:
        return "ok", repr(call())
    except Exception as exc:  # an error must also be the same at both
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("scenario", ["cylinder-mix", "discounted-uniform",
                                      "example-3-4"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_none_is_the_resolved_default(entry, scenario):
    sc = load_scenario(scenario)
    f, sigma = sc.function, sc.measure
    x = LazyPoint(7, sigma)
    call = ENTRY_POINTS[entry]
    at_none = _outcome(lambda: call(f, sigma, x, None))
    # an error raised alike at both horizons, an AttributeError say,
    # must not pass: every entry runs, but the indicator oracle on a
    # function of another family
    other_family = (entry == "exact_expectation_product_indicator"
                    and not isinstance(f, ProductIndicator))
    assert at_none[0] == ("ValidationError" if other_family else "ok")
    assert at_none == _outcome(
        lambda: call(f, sigma, x, f.read_horizon(x, None)))


@pytest.mark.parametrize("scenario", ["purify-demo", "purify-demo-quad"])
def test_game_entry_points_take_none(scenario):
    sc = load_scenario(scenario)
    game, sigma = sc.game, sc.measure
    x = LazyPoint(7, sigma)
    depth, = {game.payoff(a).read_horizon(x, None) for a in game.actions}
    for call in (
            lambda h: best_response_value(game, sigma, TOL, horizon=h),
            lambda h: purify(game, sigma, F(3, 10), 8, TOL, seed=3,
                             horizon=h)):
        assert _outcome(lambda: call(None)) == _outcome(lambda: call(depth))


class TestSampledHeadBeyondDefaultDepth:
    """The weak path reads a lazy indicator's sampled head as the strong
    path does (see test_martingale's TestRealizationDepth)."""

    def test_a_miss_in_the_head_is_read_not_charged_to_eta(self):
        # coordinates 1..64 hit surely and 65..70 are fair coins, so the
        # lazy root's head outruns DEFAULT_HORIZON
        sigma = uniform_sigma(
            head_weights=(1,) * DEFAULT_HORIZON + (F(1, 2),) * 6)
        f = indicator_all_ones()
        x = next(x for x in (LazyPoint(s, sigma) for s in itertools.count())
                 if any(x.coordinate(i) == 0
                        for i in range(DEFAULT_HORIZON + 1,
                                       DEFAULT_HORIZON + 7)))
        for vb in (f.eval_soft(x), eval_function(f, x),
                   f.bounds_over((), rest=x, rest_from=1)):
            assert (vb.lo, vb.hi, vb.eta) == (0, 0, 0)
        hull = hull_estimate(f, x, 2, sigma.spaces)
        assert (hull.lo, hull.hi, hull.eta) == (0, 0, 0)
        verdict = classify(f, sigma, x, F(1, 2), 2)
        assert not verdict.certified and verdict.hull.eta == 0
