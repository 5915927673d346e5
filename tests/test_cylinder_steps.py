"""Cylinder g_n steps and E[f] from per-level aggregates, against the
Fraction table sum of conftest and against `g_n` index by index."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    NO_SHRINK,
    partial_tables,
    reference_cylinder_sum,
    table_walk_setups,
    tail_points,
    uniform_sigma,
)
from prodex.engine import expect
from prodex.errors import ValidationError
from prodex.functions import Cylinder
from prodex.games import purify
from prodex.martingale import g_n, trace
from prodex.model import (
    ConstantMeasureTail,
    CoordinateMeasure,
    HybridMeasure,
    LazyPoint,
    ProductMeasure,
    SpaceFamily,
)
from prodex.scenario import load_scenario, parse_scenario


def assert_steps_match(f, sigma, x, horizon):
    """Each step equals the reference sum and `g_n`, in lo, hi and eta;
    where rows miss mass, the steps raise g_n's message at its index."""
    steps = f.martingale_steps(sigma, x, horizon)
    for n in range(1, f.depth + 3):
        try:
            expected = reference_cylinder_sum(
                f, HybridMeasure.measures_then_point(sigma, x, n), horizon)
        except ValidationError:
            with pytest.raises(ValidationError) as per_index:
                g_n(f, sigma, x, n, horizon=horizon)
            with pytest.raises(ValidationError) as stepped:
                next(steps)
            assert str(stepped.value) == str(per_index.value)
            return
        step = next(steps)
        single = g_n(f, sigma, x, n, horizon=horizon).bounds
        assert (step.lo, step.hi, step.eta) == (*expected, 0)
        assert (step.lo, step.hi, step.eta) == (single.lo, single.hi,
                                                single.eta)


class TestCylinderSteps:
    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_full_tables(self, data):
        sigma, f = data.draw(table_walk_setups())
        arity = len(sigma.spaces.space_at(1).symbols)
        below = data.draw(st.integers(0, f.depth - 1))  # horizon < depth
        for x in data.draw(tail_points(sigma, arity)):
            for horizon in (None, below):
                assert_steps_match(f, sigma, x, horizon)

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_partial_tables(self, data):
        sigma, f = data.draw(table_walk_setups())
        f = data.draw(partial_tables(f))
        arity = len(sigma.spaces.space_at(1).symbols)
        below = data.draw(st.integers(0, f.depth - 1))
        for x in data.draw(tail_points(sigma, arity)):
            for horizon in (None, below):
                assert_steps_match(f, sigma, x, horizon)

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_expectation_against_the_reference(self, data):
        sigma, f = data.draw(table_walk_setups())
        if data.draw(st.booleans()):
            f = data.draw(partial_tables(f))
        try:
            expected = reference_cylinder_sum(f, sigma)
        except ValidationError:
            with pytest.raises(ValidationError, match="of positive mass"):
                f.expectation(sigma)
            return
        vb = f.expectation(sigma)
        assert (vb.lo, vb.hi, vb.eta) == (*expected, 0)


def zero_mass_setup():
    """Symbol 2 has no mass at any coordinate, and the table has no row
    with it: a legal gap."""
    spaces = SpaceFamily.uniform((0, 1, 2))
    sigma = ProductMeasure(spaces, (), ConstantMeasureTail(
        CoordinateMeasure.from_weights(1, (0, 1, 2), (F(1, 4), F(3, 4), 0))))
    f = Cylinder(2, {key: F(key[0] + 2 * key[1], 5)
                     for key in itertools.product((0, 1), repeat=2)})
    return sigma, f


class TestGaps:
    def test_zero_mass_gaps_are_legal(self):
        sigma, f = zero_mass_setup()
        assert expect(f, sigma).bounds.lo == (F(3, 4) + 2 * F(3, 4)) / 5
        for seed in range(4):
            assert_steps_match(f, sigma, LazyPoint(seed, sigma), None)

    def test_a_missing_row_of_positive_mass_raises_at_its_index(self):
        sigma = uniform_sigma()
        f = Cylinder(2, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(3)})
        x = next(LazyPoint(s, sigma) for s in itertools.count()
                 if (LazyPoint(s, sigma).coordinate(1),
                     LazyPoint(s, sigma).coordinate(2)) == (1, 1))
        steps = f.martingale_steps(sigma, x, None)
        assert next(steps).lo == 3 and next(steps).lo == F(5, 2)
        with pytest.raises(ValidationError) as exc:
            next(steps)
        assert str(exc.value) == ("cylinder table has no row for prefix "
                                  "(1, 0) of positive mass")
        assert_steps_match(f, sigma, x, None)


class TestLevelsAreLazy:
    def test_expect_and_a_full_trace_build_no_level(self):
        sigma = uniform_sigma()
        f = Cylinder.from_callable([(0, 1)] * 4, lambda *b: F(sum(b), 4))
        expect(f, sigma)
        trace(f, sigma, LazyPoint(3, sigma), 6)
        assert len(f.__dict__.get("_levels", ())) <= 1  # the rows alone

    def test_a_horizon_below_the_depth_reads_a_level(self):
        sigma = uniform_sigma()
        f = Cylinder.from_callable([(0, 1)] * 4, lambda *b: F(sum(b), 4))
        assert_steps_match(f, sigma, LazyPoint(3, sigma), 2)
        assert [len(lows) for lows, _ in f._levels] == [16, 8, 4]


@pytest.mark.parametrize("name", ["purify-demo", "purify-demo-quad"])
def test_purify_rechecks_the_common_index_at_g_n(name):
    """The common-index values purify reads from its scans are `g_n`'s."""
    scenario = load_scenario(name)
    game, sigma = scenario.game, scenario.measure
    for seed in range(3):
        res = purify(game, sigma, F(1, 5), 12, seed=seed)
        x = LazyPoint(res.sample_seed, sigma)
        for cert in res.per_action:
            assert cert.found_n == res.n
            assert cert.profile_value == g_n(game.payoff(cert.action), sigma,
                                             x, res.n).bounds


def generated_cylinder(depth: int, seed: int) -> str:
    """A binary depth-`depth` cylinder scenario with drawn head measures
    k/20 and drawn table values j/100, written as float literals."""
    rng = random.Random(seed)
    measure = [[(20 - k) * 5 / 100, k * 5 / 100]
               for k in (rng.randint(2, 18) for _ in range(depth))]
    table = [{"prefix": list(p), "value": rng.randint(0, 100) / 100}
             for p in itertools.product((0, 1), repeat=depth)]
    return json.dumps({
        "spaces": {"head": [{"symbols": [0, 1]}] * depth,
                   "tail": {"symbols": [0, 1]}},
        "measure": {"head": measure,
                    "tail": {"kind": "constant", "weights": [0.5, 0.5]}},
        "function": {"family": "cylinder", "depth": depth, "range": [0, 1],
                     "table": table}})


@pytest.mark.parametrize("seed", [1, 2])
def test_a_loaded_cylinder_is_the_constructed_one(seed):
    """The loader hands `Cylinder` a table of shared Fractions, one per
    literal; a table of fresh Fractions builds the same integer views."""
    scenario = parse_scenario(generated_cylinder(6, seed))
    loaded, sigma = scenario.function, scenario.measure
    fresh = Cylinder(6, {key: F(v.numerator, v.denominator)
                         for key, v in loaded.table.items()}, F(0), F(1))
    assert fresh._scaled_table == loaded._scaled_table
    assert fresh._fractions == loaded._fractions
    assert (fresh.range_lo, fresh.range_hi) == (loaded.range_lo,
                                                loaded.range_hi)
    assert expect(fresh, sigma).bounds == expect(loaded, sigma).bounds
    x = LazyPoint(seed, sigma)
    for horizon in (None, 3):
        traces = [trace(f, sigma, x, 8, horizon=horizon) for f in (fresh, loaded)]
        assert traces[0].entries == traces[1].entries
        assert traces[0].reference.bounds == traces[1].reference.bounds
