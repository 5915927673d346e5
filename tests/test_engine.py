"""Expectation engine: oracles, refinement, soundness, determinism."""

import ast
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.engine import exact_expectation_product_indicator, expect
from prodex.errors import UnsupportedTailError, ValidationError
from prodex.functions import (
    Cylinder,
    DiscountedSum,
    GeometricWeights,
    ProductIndicator,
    cylinder_sum,
)
from prodex.games import GameSpec, best_response_value, purify
from prodex.harness import verify_strong, verify_weak
from prodex.martingale import find_strong_approx, g_n, trace
from prodex.model import (
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    PeriodicMeasuresTail,
    ProductMeasure,
    SpaceFamily,
    bernoulli_measure,
    dirac_measure,
    modify_point,
    uniform_measure,
)
from prodex.seeds import unit_fraction
from prodex.tailclass import weak_zero_from_sample

from conftest import (
    NO_SHRINK,
    all_ones_point,
    binary_spaces,
    discounted_sums,
    discounted_unit,
    geometric_indicator_envelope,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
    partial_product,
    point_mass,
    points,
    product_indicators,
    product_measures,
    reference_cylinder_sum,
    table_walk_setups,
    tail_points,
    uniform_sigma,
)

F = Fraction
TOL = F(1, 10**9)


def random_bernoulli(seed, tag, i) -> CoordinateMeasure:
    """Deterministic pseudo-random Bernoulli weight (test-local RNG)."""
    u = unit_fraction(seed, "test-measure", tag, i)
    p = F(1, 100) + u * F(98, 100)  # keep away from 0 and 1
    return CoordinateMeasure.from_weights(i, (0, 1), (1 - p, p))


def random_product_measure(seed, head_len=4) -> ProductMeasure:
    head = tuple(random_bernoulli(seed, "head", i)
                 for i in range(1, head_len + 1))
    tail = ConstantMeasureTail(random_bernoulli(seed, "tail", 1))
    return ProductMeasure(binary_spaces(), head, tail)


class TestExpectExamples:
    def test_geometric_indicator_matches_partial_product_oracle(self):
        # independent oracle: 60 factors plus remainder bound
        lo, hi = geometric_indicator_envelope(60)
        res = expect(indicator_all_ones(), geometric_sigma(), TOL)
        assert res.certified
        assert res.width <= 2 * TOL
        assert res.interval.lo <= hi and lo <= res.interval.hi

    def test_one_coordinate_identity_exact(self):
        f = Cylinder(1, {(0,): F(0), (1,): F(1)})
        sigma = uniform_sigma(head_weights=(F(3, 10),))
        res = expect(f, sigma, TOL)
        assert res.certified and res.interval.is_point
        assert res.interval.lo == F(3, 10)

    def test_discounted_uniform_half(self):
        res = expect(discounted_unit(), uniform_sigma(), TOL)
        # brute force over the first 12 coordinates plus tail envelope
        partial = F(0)
        for combo in itertools.product((0, 1), repeat=12):
            value = sum(F(1, 2**i) * s for i, s in enumerate(combo, start=1))
            partial += F(1, 2**12) * value
        assert partial <= res.interval.hi
        assert partial + F(1, 2**12) >= res.interval.lo
        assert res.interval.contains(F(1, 2))

    def test_indicator_under_hybrid_finite_product(self):
        # sigma_1..sigma_5 geometric head, Dirac all-ones tail: 5 factors
        sigma = geometric_sigma()
        hybrid = HybridMeasure.measures_then_point(sigma, all_ones_point(), 6)
        res = expect(indicator_all_ones(), hybrid, TOL)
        assert res.interval.is_point
        assert res.interval.lo == partial_product(5)

    def test_budget_exhaustion_keeps_sound_interval(self):
        res = expect(indicator_all_ones(), geometric_sigma(), F(1, 10**6),
                     node_budget=25, use_oracle=False)
        assert res.status == "budget_exhausted"
        lo, hi = geometric_indicator_envelope(60)
        assert res.interval.lo <= lo and hi <= res.interval.hi

    def test_generic_certifies_indicator_at_coarse_tol(self):
        res = expect(indicator_all_ones(), geometric_sigma(), F(2, 10),
                     use_oracle=False)
        assert res.certified
        assert res.width <= F(4, 10)


class TestIndicatorOracle:
    def test_geometric_envelope(self):
        vb = exact_expectation_product_indicator(
            indicator_all_ones(), geometric_sigma())
        lo, hi = geometric_indicator_envelope(60)
        assert vb.hi - vb.lo <= F(1, 10**12)
        assert vb.lo <= hi and lo <= vb.hi

    def test_dirac_off_target_coordinate_zeroes(self):
        spaces = binary_spaces()
        head = (dirac_measure(1, (0, 1), 0),)
        sigma = ProductMeasure(spaces, head,
                               ConstantMeasureTail(bernoulli_measure(1, 1)))
        vb = exact_expectation_product_indicator(indicator_all_ones(), sigma)
        assert vb.lo == vb.hi == 0

    def test_dirac_on_target_point_gives_one(self):
        sigma = ProductMeasure(binary_spaces(), (),
                               ConstantMeasureTail(bernoulli_measure(1, 1)))
        vb = exact_expectation_product_indicator(indicator_all_ones(), sigma)
        assert vb.lo == vb.hi == 1

    def test_periodic_tail_with_full_weight(self):
        one = bernoulli_measure(1, 1)
        sigma = ProductMeasure(binary_spaces(), (),
                               PeriodicMeasuresTail((one, one)))
        vb = exact_expectation_product_indicator(indicator_all_ones(), sigma)
        assert vb.lo == vb.hi == 1


class TestDiscountedOracle:
    def test_alternating_periodic_measures(self):
        # E = sum_i 2**-i p_i with p alternating 1/4 (odd), 3/4 (even):
        # (1/4)(2/3) + (3/4)(1/3) = 5/12 by splitting into geometric series
        a = bernoulli_measure(1, F(1, 4))
        b = bernoulli_measure(1, F(3, 4))
        sigma = ProductMeasure(binary_spaces(), (),
                               PeriodicMeasuresTail((a, b)))
        res = expect(discounted_unit(), sigma, TOL)
        assert res.oracle_used and res.interval.is_point
        assert res.interval.lo == F(5, 12)

    def test_geometric_measure_closed_form(self):
        # E = sum_i 2**-i (1 - 2**-i) = 1 - 1/3 = 2/3
        res = expect(discounted_unit(), geometric_sigma(), TOL)
        assert res.interval.is_point
        assert res.interval.lo == F(2, 3)

    def test_hybrid_with_lazy_tail_encloses_realization(self):
        sigma = uniform_sigma()
        from prodex.model import LazyPoint
        x = LazyPoint(31, sigma)
        hybrid = HybridMeasure.measures_then_point(sigma, x, 3)
        res = expect(discounted_unit(), hybrid, TOL, horizon=70)
        manual = (F(1, 2) * (F(1, 2) + F(1, 4))
                  + sum(F(1, 2**i) * x.coordinate(i) for i in range(3, 71)))
        assert res.interval.lo <= manual <= res.interval.hi + F(1, 2**70)


class TestSoundness:
    """Generic refinement must contain the exact oracle value."""

    @pytest.mark.parametrize("trial", range(50))
    def test_indicator_oracle_contained(self, trial):
        sigma = random_product_measure(trial)
        f = indicator_all_ones()
        oracle = exact_expectation_product_indicator(f, sigma)
        generic = expect(f, sigma, F(1, 100), node_budget=3000,
                         use_oracle=False)
        assert generic.interval.lo <= oracle.lo
        assert generic.interval.hi >= oracle.hi

    @pytest.mark.parametrize("trial", range(50))
    def test_discounted_oracle_contained(self, trial):
        sigma = random_product_measure(trial + 1000)
        f = discounted_unit()
        oracle = expect(f, sigma, TOL, use_oracle=True)
        assert oracle.oracle_used and oracle.interval.is_point
        generic = expect(f, sigma, F(1, 50), use_oracle=False)
        assert generic.certified
        assert generic.interval.contains(oracle.interval.lo)


def assert_oracle_inside_tree(f, mu, horizon):
    oracle = expect(f, mu, TOL, horizon=horizon)
    # tol far below every leaf's mass x width: the tree expands fully
    tree = expect(f, mu, F(1, 10**12), use_oracle=False, horizon=horizon)
    assert oracle.oracle_used and not tree.oracle_used
    assert tree.interval.lo <= oracle.interval.lo
    assert oracle.interval.hi <= tree.interval.hi
    assert f.range_lo <= oracle.interval.lo
    assert oracle.interval.hi <= f.range_hi
    if isinstance(f, ProductIndicator):
        assert tree.eta == oracle.eta


SEPARABLE = st.one_of(discounted_sums(), product_indicators())
HORIZONS = st.one_of(st.none(), st.integers(0, 8))


def draw_point(data, sigma, f):
    """A lazy, described or modified point; for an indicator, sometimes
    the point that hits every target, so that the head decides."""
    if isinstance(f, ProductIndicator) and data.draw(st.booleans()):
        return DescribedPoint(f.targets_head, f.targets_tail)
    return data.draw(points(sigma))


class TestHybridSoundness:
    """The separable oracles under hybrid measures lie inside the generic
    tree's enclosure and inside the declared range."""

    @given(data=st.data())
    @settings(max_examples=60)
    def test_measures_then_point(self, data):
        sigma, f = data.draw(product_measures()), data.draw(SEPARABLE)
        x, horizon = draw_point(data, sigma, f), data.draw(HORIZONS)
        for n in range(1, 6):
            assert_oracle_inside_tree(
                f, HybridMeasure.measures_then_point(sigma, x, n), horizon)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_one_point_head_measures(self, data):
        sigma, f = data.draw(product_measures()), data.draw(SEPARABLE)
        x, y = draw_point(data, sigma, f), data.draw(points(sigma))
        dirac = data.draw(st.lists(st.booleans(), max_size=5))
        head = tuple(
            point_mass(i, y.coordinate(i)) if pinned
            else sigma.coordinate_measure(i)
            for i, pinned in enumerate(dirac, start=1))
        assert_oracle_inside_tree(f, HybridMeasure(head, len(head) + 1, x),
                                  data.draw(HORIZONS))

    def test_tree_eta_is_the_unread_miss_bound(self):
        # every pinned leaf bounds the one event "an unread coordinate of
        # x misses", so the tree's eta is their max, not a weighted sum
        f, sigma = indicator_all_ones(), geometric_sigma()
        x = modify_point(LazyPoint(0, sigma), {i: 1 for i in range(1, 9)})
        tree = g_n(f, sigma, x, 4, horizon=8, use_oracle=False)
        assert tree.eta == g_n(f, sigma, x, 4, horizon=8).eta == F(1, 256)
        for seed in range(5):
            x = modify_point(LazyPoint(seed, sigma),
                             {i: 1 for i in range(1, 9)})
            for n in range(1, 8):
                for horizon in (None, 0, 3, 8, 12):
                    tree = g_n(f, sigma, x, n, horizon=horizon,
                               use_oracle=False)
                    oracle = g_n(f, sigma, x, n, horizon=horizon)
                    assert not tree.oracle_used and oracle.oracle_used
                    assert tree.eta == oracle.eta


class TestEngineContracts:
    def test_width_contract_when_certified(self):
        for tol in (F(1, 10), F(1, 1000), F(1, 10**7)):
            res = expect(discounted_unit(), uniform_sigma(), tol)
            assert res.certified and res.width <= 2 * tol

    def test_dirac_collapse_equals_eval(self):
        from prodex.functions import eval_function
        f = mix_cylinder()
        x = modify_point(all_ones_point(), {2: 0})
        res = expect(f, HybridMeasure.dirac(x), TOL)
        vb = eval_function(f, x, horizon=2)
        assert res.interval.is_point and vb.is_point
        assert res.interval.lo == vb.lo == F(7, 10)

    def test_linearity_of_cylinder_sum(self):
        f = mix_cylinder()
        g = Cylinder.from_callable([(0, 1), (0, 1)],
                                   lambda a, b: F(1, 2) * (a + b))
        sigma = uniform_sigma(head_weights=(F(1, 4), F(2, 3)))
        both = expect(cylinder_sum(f, g), sigma, TOL)
        separate_lo = (expect(f, sigma, TOL).interval.lo
                       + expect(g, sigma, TOL).interval.lo)
        assert both.interval.is_point
        assert both.interval.lo == separate_lo

    def test_monotone_pruning_in_tol(self):
        f = discounted_unit()
        sigma = uniform_sigma()
        # tol shrinks down the list, so expansions may only grow
        nodes = [
            expect(f, sigma, tol, use_oracle=False).nodes_expanded
            for tol in (F(1, 4), F(1, 16), F(1, 64), F(1, 256))
        ]
        assert all(a <= b for a, b in zip(nodes, nodes[1:]))

    def test_result_identical_across_repeated_runs(self):
        f = discounted_unit()
        sigma = uniform_sigma()
        a = expect(f, sigma, F(1, 100), use_oracle=False)
        b = expect(f, sigma, F(1, 100), use_oracle=False)
        assert a.interval == b.interval
        assert a.nodes_expanded == b.nodes_expanded

    def test_unsupported_tail_falls_back_to_generic(self):
        class OpaqueTail(ConstantMeasureTail):
            def indicator_tail_product(self, *args):
                raise UnsupportedTailError("opaque")

        sigma = ProductMeasure(binary_spaces(), (),
                               OpaqueTail(bernoulli_measure(1, F(1, 2))))
        with pytest.raises(UnsupportedTailError):
            exact_expectation_product_indicator(indicator_all_ones(), sigma)
        res = expect(indicator_all_ones(), sigma, F(1, 4))
        assert not res.oracle_used
        assert res.certified


def _entry_point_calls():
    """Each public entry point that once took `node_budget` or
    `scenario_digest`, called on small valid arguments plus `**kw`."""
    f, sigma, x = discounted_unit(), uniform_sigma(), all_ones_point()
    game = GameSpec(("a",), binary_spaces(), {"a": f}, F(0), F(1))
    return {
        "g_n": lambda kw: g_n(f, sigma, x, 2, TOL, **kw),
        "trace": lambda kw: trace(f, sigma, x, 2, TOL, **kw),
        "find_strong_approx": lambda kw: find_strong_approx(
            f, sigma, x, F(1, 2), 4, TOL, **kw),
        "verify_strong": lambda kw: verify_strong(
            f, sigma, F(1, 2), 1, 4, TOL, **kw),
        "verify_weak": lambda kw: verify_weak(f, sigma, 1, 1, TOL, **kw),
        "weak_zero_from_sample": lambda kw: weak_zero_from_sample(
            f, sigma, TOL, 2, **kw),
        "best_response_value": lambda kw: best_response_value(
            game, sigma, TOL, **kw),
        "purify": lambda kw: purify(game, sigma, F(1, 2), 4, TOL, **kw),
    }


STALE_VALUES = {"node_budget": 10, "scenario_digest": "0" * 64}


@pytest.mark.parametrize("name, keyword", (
    [(name, "node_budget") for name in _entry_point_calls()]
    + [("verify_strong", "scenario_digest"), ("verify_weak", "scenario_digest")]))
def test_removed_keyword_is_rejected(name, keyword):
    # the tree's node budget is a setting of `expect` alone, and campaigns
    # store no scenario digest: a stale keyword must fail loudly
    with pytest.raises(TypeError, match=keyword):
        _entry_point_calls()[name]({keyword: STALE_VALUES[keyword]})


# ---------------------------------------------------------------------------
# The cylinder table-sum oracle against the fully expanded tree
# ---------------------------------------------------------------------------

RAW_WEIGHTS = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)


def measure_from_raw(i, raw, arity):
    raw = raw[:arity] if any(raw[:arity]) else [1] * arity
    total = sum(raw)
    return CoordinateMeasure.from_weights(
        i, range(arity), [F(r, total) for r in raw])


@st.composite
def cylinder_setups(draw):
    """A measure over symbols 0..arity-1 and a cylinder covering them.

    Ternary cylinders stop at depth 3 and binary ones at depth 5, so
    the fully expanded tree stays small.  Weights may vanish, which
    makes some coordinates Dirac.
    """
    arity = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 3 if arity == 3 else 5))
    head = tuple(measure_from_raw(i, draw(RAW_WEIGHTS), arity)
                 for i in range(1, draw(st.integers(0, depth + 1)) + 1))
    probe = len(head) + 1
    templates = [measure_from_raw(probe, raw, arity)
                 for raw in draw(st.lists(RAW_WEIGHTS, min_size=1,
                                          max_size=2))]
    tail = (ConstantMeasureTail(templates[0]) if len(templates) == 1
            else PeriodicMeasuresTail(tuple(templates)))
    sigma = ProductMeasure(SpaceFamily.uniform(range(arity)), head, tail)
    rows = itertools.product(range(arity), repeat=depth)
    f = Cylinder(depth, {row: F(draw(st.integers(0, 6)), 2) for row in rows})
    return arity, sigma, f


def assert_oracle_matches_tree(f, mu, horizon=None):
    oracle = expect(f, mu, TOL, horizon=horizon)
    # tol far below every leaf's mass x width: the tree expands fully
    tree = expect(f, mu, F(1, 10**12), use_oracle=False, horizon=horizon)
    assert oracle.oracle_used and oracle.nodes_expanded == 0
    assert not tree.oracle_used
    assert (oracle.interval, oracle.eta) == (tree.interval, tree.eta)


class TestCylinderOracle:
    @given(setup=cylinder_setups())
    @settings(max_examples=40)
    def test_product_measure(self, setup):
        _, sigma, f = setup
        assert_oracle_matches_tree(f, sigma)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_hybrid_measures_then_point(self, data):
        arity, sigma, f = data.draw(cylinder_setups())
        for x in data.draw(tail_points(sigma, arity)):
            for n, horizon in itertools.product(range(1, f.depth + 3),
                                                [None, *range(f.depth + 1)]):
                assert_oracle_matches_tree(
                    f, HybridMeasure.measures_then_point(sigma, x, n), horizon)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_hybrid_with_dirac_head(self, data):
        arity, sigma, f = data.draw(cylinder_setups())
        x, y, z = data.draw(tail_points(sigma, arity))
        switch = f.depth + 1
        dirac = data.draw(st.lists(st.booleans(), min_size=f.depth,
                                   max_size=f.depth))
        head = tuple(
            point_mass(i, (y if i % 2 else z).coordinate(i)) if dirac[i - 1]
            else sigma.coordinate_measure(i)
            for i in range(1, switch))
        for horizon in (None, *range(f.depth + 1)):
            assert_oracle_matches_tree(f, HybridMeasure(head, switch, x),
                                       horizon)
            assert_oracle_matches_tree(
                f, HybridMeasure(head[:1], 2, x), horizon)

    def test_uncovered_positive_mass_row_raises(self):
        f = Cylinder(2, {(0, 0): F(1), (0, 1): F(2)})
        with pytest.raises(ValidationError, match="prefix \\(1,\\)"):
            expect(f, uniform_sigma(), TOL)

    def test_uncovered_deep_row_raises(self):
        # the tree would settle prefix (1,) on its one row and give (1, 1)
        # that row's value; the oracle names the missing row instead
        f = Cylinder(2, {(0, 0): F(1), (0, 1): F(2), (1, 0): F(3)})
        with pytest.raises(ValidationError, match="prefix \\(1, 1\\)"):
            expect(f, uniform_sigma(), TOL)

    @given(data=st.data())
    @settings(max_examples=30)
    def test_partial_table_raises_or_matches_the_tree(self, data):
        _, sigma, f = data.draw(cylinder_setups())
        keep = data.draw(st.lists(st.booleans(), min_size=len(f.table),
                                  max_size=len(f.table)))
        rows = {k: v for (k, v), kept in zip(f.table.items(), keep) if kept}
        if not rows:
            return
        partial = Cylinder(f.depth, rows)

        def mass(prefix):
            w = F(1)
            for i, sym in enumerate(prefix, start=1):
                w *= sigma.coordinate_measure(i).weight_of(sym)
            return w

        def has_row(prefix):
            return any(k[:len(prefix)] == prefix for k in rows)

        if all(k in rows or mass(k) == 0 for k in f.table):
            assert_oracle_matches_tree(partial, sigma)
            return
        with pytest.raises(ValidationError) as exc:
            expect(partial, sigma, TOL)
        named = ast.literal_eval(
            re.search(r"prefix (\(.*?\)) of", str(exc.value)).group(1))
        assert mass(named) > 0 and not has_row(named)
        assert all(has_row(named[:j]) for j in range(len(named)))

    def test_coverage_is_measured_against_the_actual_masses(self):
        # weights within 1e-12 of summing to 1 are accepted by the model;
        # full coverage then means the product of those sums
        p, q = F(1, 2), F(1, 2) - F(1, 10**13)
        sigma = ProductMeasure(
            SpaceFamily.uniform((0, 1)),
            (CoordinateMeasure.from_weights(1, (0, 1), (p, q)),),
            ConstantMeasureTail(bernoulli_measure(2, F(1, 2))))
        res = expect(Cylinder(1, {(0,): F(2), (1,): F(4)}), sigma, TOL)
        assert res.oracle_used and res.interval.lo == 2 * p + 4 * q

    def test_uncovered_zero_mass_row_is_exact(self):
        f = Cylinder(2, {(0, 0): F(1), (0, 1): F(2), (1, 0): F(3)})
        sigma = uniform_sigma(head_weights=(F(1, 2), F(0)))
        res = expect(f, sigma, TOL)
        assert res.oracle_used and res.interval.is_point
        assert res.interval.lo == F(1, 2) * 1 + F(1, 2) * 3


# ---------------------------------------------------------------------------
# A Dirac coordinate is a point mass
# ---------------------------------------------------------------------------

class TestPointMass:
    """A head coordinate given as the one-point measure on y_i and one
    given as `dirac_measure(i, symbols, y_i)`, which lists every symbol
    of the space, are the same measure, so every family's oracle returns
    the same enclosure for both."""

    @pytest.mark.parametrize("family", ["cylinder", "discounted_sum",
                                        "product_indicator"])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_one_point_measure_is_a_dirac_measure(self, family, data):
        if family == "cylinder":
            arity, sigma, f = data.draw(cylinder_setups())
            x, y, z = data.draw(tail_points(sigma, arity))
            switch = data.draw(st.integers(1, f.depth + 2))
            horizon = data.draw(st.one_of(st.none(), st.integers(0, f.depth)))
        else:
            sigma = data.draw(product_measures())
            f = data.draw(discounted_sums() if family == "discounted_sum"
                          else product_indicators())
            x = draw_point(data, sigma, f)
            y, z = data.draw(points(sigma)), data.draw(points(sigma))
            switch = data.draw(st.integers(1, 6))
            horizon = data.draw(HORIZONS)
        pins = data.draw(st.lists(st.sampled_from([None, y, z]),
                                  min_size=switch - 1, max_size=switch - 1))

        def hybrid(pinned):
            head = tuple(
                sigma.coordinate_measure(i) if p is None
                else pinned(i, p) for i, p in enumerate(pins, start=1))
            return HybridMeasure(head, switch, x)

        by_point = hybrid(lambda i, p: point_mass(i, p.coordinate(i)))
        by_measure = hybrid(lambda i, p: dirac_measure(
            i, sigma.spaces.space_at(i).symbols, p.coordinate(i)))
        a, b = (expect(f, mu, horizon=horizon)
                for mu in (by_point, by_measure))
        assert a.oracle_used and b.oracle_used
        assert (a.bounds.lo, a.bounds.hi, a.eta) == (b.bounds.lo, b.bounds.hi,
                                                     b.eta)


class TestZeroWeightSymbols:
    """A symbol of zero weight is never drawn, so a discounted sum need
    not score it: the oracle, the steps and the tree all pass it by."""

    @pytest.fixture
    def setup(self):
        spaces = SpaceFamily.uniform((0, 1, 2))
        tail = ConstantMeasureTail(CoordinateMeasure.from_weights(
            1, (0, 1, 2), (F(1, 2), F(1, 2), F(0))))
        sigma = ProductMeasure(spaces, (), tail)
        return DiscountedSum(GeometricWeights.of(F(1, 2), F(1, 2)),
                             {0: F(0), 1: F(1)}), sigma

    def test_expect(self, setup):
        f, sigma = setup
        oracle = expect(f, sigma, TOL)
        tree = expect(f, sigma, F(1, 1000), use_oracle=False)
        assert oracle.oracle_used and oracle.interval.lo == oracle.interval.hi
        assert oracle.interval.lo == F(1, 4)
        assert tree.certified and tree.interval.contains(F(1, 4))

    def test_g_n_and_trace(self, setup):
        f, sigma = setup
        x = LazyPoint(1, sigma)
        steps = trace(f, sigma, x, 6)
        for n in range(1, 7):
            tree = g_n(f, sigma, x, n, use_oracle=False)
            assert g_n(f, sigma, x, n).bounds == tree.bounds
            assert steps.entries[n - 1].bounds == tree.bounds
        assert steps.reference.interval.lo == F(1, 4)

    def test_a_symbol_with_weight_is_still_scored(self, setup):
        f, _ = setup
        sigma = ProductMeasure(SpaceFamily.uniform((0, 1, 2)), (),
                               ConstantMeasureTail(uniform_measure(1, (0, 1, 2))))
        with pytest.raises(ValidationError, match="symbol 2 has no score"):
            expect(f, sigma, TOL)


# ---------------------------------------------------------------------------
# The integer table sum against the Fraction table sum
# ---------------------------------------------------------------------------

def assert_sum_matches_reference(f, mu, horizon=None):
    """The cylinder's own route to E_mu[f] (its oracle under a product
    measure, its steps from the switch under a hybrid) gives the
    reference sum, or raises its missing-row error."""
    try:
        expected = reference_cylinder_sum(f, mu, horizon)
    except ValidationError:
        with pytest.raises(ValidationError, match="of positive mass"):
            expect(f, mu, horizon=horizon)
        return
    res = expect(f, mu, horizon=horizon)
    assert res.oracle_used
    assert (res.bounds.lo, res.bounds.hi, res.eta) == (*expected, 0)


class TestIntegerTableSum:
    @given(setup=table_walk_setups())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_product_measure(self, setup):
        sigma, f = setup
        assert_sum_matches_reference(f, sigma)

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_every_switch_index(self, data):
        sigma, f = data.draw(table_walk_setups())
        arity = len(sigma.spaces.space_at(1).symbols)
        lazy, described, modified = data.draw(tail_points(sigma, arity))
        below = data.draw(st.integers(0, f.depth - 1))  # horizon < depth
        for n in range(1, f.depth + 3):
            for x, horizon in ((lazy, None), (lazy, below),
                               (described, None), (modified, below)):
                assert_sum_matches_reference(
                    f, HybridMeasure.measures_then_point(sigma, x, n),
                    horizon)

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_one_point_head_measures(self, data):
        sigma, f = data.draw(table_walk_setups())
        arity = len(sigma.spaces.space_at(1).symbols)
        x, y, z = data.draw(tail_points(sigma, arity))
        switch = data.draw(st.integers(1, f.depth + 1))
        dirac = data.draw(st.lists(st.booleans(), min_size=switch - 1,
                                   max_size=switch - 1))
        head = tuple(
            point_mass(i, (y if i % 2 else z).coordinate(i)) if dirac[i - 1]
            else sigma.coordinate_measure(i)
            for i in range(1, switch))
        for horizon in (None, data.draw(st.integers(0, f.depth))):
            assert_sum_matches_reference(f, HybridMeasure(head, switch, x),
                                         horizon)

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_partial_tables(self, data):
        sigma, f = data.draw(table_walk_setups())
        keep = data.draw(st.lists(st.booleans(), min_size=len(f.table),
                                  max_size=len(f.table)).filter(any))
        partial = Cylinder(f.depth, {k: v for (k, v), kept
                                     in zip(f.table.items(), keep) if kept})
        assert_sum_matches_reference(partial, sigma)
        x = LazyPoint(data.draw(st.integers(0, 2**32)), sigma)
        n = data.draw(st.integers(1, f.depth + 1))
        assert_sum_matches_reference(
            partial, HybridMeasure.measures_then_point(sigma, x, n))

    def test_scaled_views_are_exact(self):
        # V is the lcm of the value denominators, D the lcm of the weights'
        f = Cylinder(2, {(0, 0): F(1, 6), (0, 1): F(3, 4), (1, 0): F(2),
                         (1, 1): F(-5, 9)})
        assert f._scaled_table == (36, {(0, 0): 6, (0, 1): 27, (1, 0): 72,
                                        (1, 1): -20})
        mu = CoordinateMeasure.from_weights(1, (0, 1, 2),
                                            (F(1, 6), F(1, 4), F(7, 12)))
        assert mu._scaled_weights == (12, {0: 2, 1: 3, 2: 7})


def scanned_bounds(f, prefix, pinned):
    """Independent [min, max] over the rows consistent with the pins."""
    values = [v for key, v in f.table.items()
              if key[:len(prefix)] == prefix
              and all(key[i - 1] == sym for i, sym in pinned.items())]
    return min(values), max(values)


class TestCylinderPinnedLookup:
    def test_fully_pinned_lookup_equals_row_scan(self):
        f = Cylinder.from_callable([(0, 1, 2)] * 3,
                                   lambda a, b, c: F(a + 2 * b + 4 * c, 7))
        sigma = uniform_sigma()
        points = [DescribedPoint((2, 0), ConstantSymbol(1)),
                  modify_point(LazyPoint(3, sigma), {2: 2})]
        for x, m in itertools.product(points, range(4)):
            prefix = tuple(x.coordinate(i) for i in range(1, m + 1))
            for rest_from, horizon in ((m + 1, 64), (m + 2, 64), (1, 1)):
                vb = f.bounds_over(prefix, rest=x, rest_from=rest_from,
                                   horizon=horizon)
                limit = 3 if isinstance(x, DescribedPoint) else max(horizon, 2)
                pinned = {i: x.coordinate(i)
                          for i in range(max(rest_from, m + 1), 4)
                          if i <= limit}
                assert (vb.lo, vb.hi) == scanned_bounds(f, prefix, pinned)

    def test_missing_row_error_is_the_row_scan_error(self):
        f = Cylinder(2, {(0, 0): F(1), (0, 1): F(2)})
        ones = DescribedPoint((), ConstantSymbol(1))
        lazy = LazyPoint(0, uniform_sigma())
        message = "no cylinder table entry is consistent with prefix \\(1,\\)"
        with pytest.raises(ValidationError, match=message):
            f.bounds_over((1,), rest=ones, rest_from=2)  # one lookup
        with pytest.raises(ValidationError, match=message):
            f.bounds_over((1,), rest=lazy, rest_from=2, horizon=0)  # scan
