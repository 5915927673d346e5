"""Tail-function families: evaluation, cylinder bounds, oscillation."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.engine import osc_bound
from prodex.errors import ValidationError
from prodex.functions import (
    Cylinder,
    DiscountedSum,
    GeometricWeights,
    ProductIndicator,
    TailFunction,
    ValueBounds,
    cylinder_sum,
    eval_function,
)
from prodex.model import (
    ConstantSymbol,
    CoordinateSpace,
    DescribedPoint,
    LazyPoint,
    PeriodicSymbols,
    SpaceFamily,
    modify_point,
)

from conftest import (
    NO_SHRINK,
    all_ones_point,
    all_zeros_point,
    binary_spaces,
    cylinders,
    discounted_sums,
    discounted_unit,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
    product_indicators,
    product_measures,
    reference_bounds_over,
    reference_cylinder_bounds,
    reference_weighted_scores,
    table_walk_setups,
    tail_points,
    uniform_sigma,
)

F = Fraction


class TestEvalFunction:
    def test_indicator_described_all_ones_determined_at_one(self):
        f = indicator_all_ones()
        vb = eval_function(f, all_ones_point(), horizon=1)
        assert vb.is_point and vb.lo == 1 and vb.eta == 0

    def test_indicator_mismatch_in_prefix(self):
        f = indicator_all_ones()
        x = modify_point(all_ones_point(), {3: 0})
        vb = eval_function(f, x, horizon=3)
        assert vb.is_point and vb.lo == 0

    def test_indicator_lazy_undetermined_is_hard_range(self):
        f = indicator_all_ones()
        x = LazyPoint(3, geometric_sigma())
        # force an all-ones realized prefix scenario-independently: eval at
        # small horizon either determines 0 (a zero was realized) or must
        # widen to [0, 1] since the tail stays unrealized
        vb = eval_function(f, x, horizon=5)
        assert (vb.is_point and vb.lo == 0) or (vb.lo == 0 and vb.hi == 1)
        assert vb.eta == 0

    def test_soft_verdict_widens_to_the_range(self):
        # x hits every target it is read at; the unread tail misses with
        # probability at most 2**-8 under the geometric tail
        f, sigma = indicator_all_ones(), geometric_sigma()
        x = modify_point(LazyPoint(0, sigma), {i: 1 for i in range(1, 9)})
        soft = f.eval_soft(x, horizon=8)
        assert (soft.lo, soft.hi, soft.eta) == (1, 1, F(1, 256))
        vb = eval_function(f, x, horizon=8)
        assert (vb.lo, vb.hi, vb.eta) == (0, 1, 0)

    def test_discounted_described_exact_via_closed_form(self):
        f = discounted_unit()
        vb = eval_function(f, all_ones_point(), horizon=4)
        assert vb.is_point and vb.lo == 1  # sum of 2**-i = 1 exactly

    def test_discounted_lazy_interval_width_is_tail_sum(self):
        f = discounted_unit()
        x = LazyPoint(9, uniform_sigma())
        vb = eval_function(f, x, horizon=4)
        partial = sum(F(1, 2**i) * x.coordinate(i) for i in range(1, 5))
        assert vb.lo == partial
        assert vb.hi == partial + F(1, 2**4)

    def test_cylinder_determined_at_depth(self):
        f = mix_cylinder()
        x = DescribedPoint((1, 0), ConstantSymbol(0))
        vb = eval_function(f, x, horizon=2)
        assert vb.is_point and vb.lo == F(7, 10)

    def test_cylinder_below_depth_bounds_from_table(self):
        f = mix_cylinder()
        x = LazyPoint(4, uniform_sigma())
        vb = eval_function(f, x, horizon=1)
        x1 = x.coordinate(1)
        expected_lo = F(7, 10) * x1
        expected_hi = F(7, 10) * x1 + F(3, 10)
        assert (vb.lo, vb.hi) == (expected_lo, expected_hi)

    def test_periodic_tail_discounted_exact(self):
        # x = (1, 0, 1, 0, ...): sum over odd i of 2**-i = (1/2)/(1 - 1/4)
        from prodex.model import PeriodicSymbols
        f = discounted_unit()
        x = DescribedPoint((), PeriodicSymbols((1, 0)))
        vb = eval_function(f, x, horizon=1)
        assert vb.is_point and vb.lo == F(2, 3)


class TestCylinderTailInvariance:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_eval_ignores_coordinates_beyond_depth(self, data):
        f = mix_cylinder()
        head = data.draw(st.tuples(st.sampled_from((0, 1)),
                                   st.sampled_from((0, 1))))
        far_index = data.draw(st.integers(min_value=3, max_value=40))
        base = DescribedPoint(head, ConstantSymbol(0))
        changed = modify_point(base, {far_index: 1})
        assert eval_function(f, base, 2).lo == eval_function(f, changed, 2).lo


class TestIndicatorMonotonicity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_breaking_a_target_never_increases(self, data):
        f = indicator_all_ones()
        overrides = data.draw(
            st.dictionaries(st.integers(min_value=1, max_value=12),
                            st.sampled_from((0, 1)), max_size=6))
        x = modify_point(all_ones_point(), overrides)
        before = eval_function(f, x, horizon=16).lo
        coord = data.draw(st.integers(min_value=1, max_value=12))
        after = eval_function(f, modify_point(x, {coord: 0}), horizon=16).lo
        assert after <= before


class TestFreeTail:
    def test_a_head_space_with_alternatives_leaves_the_value_open(self):
        # two binary head spaces, then one symbol: only coordinate 2 can
        # still miss once coordinate 1 is pinned to its target
        spaces = SpaceFamily((CoordinateSpace(1, (0, 1)),
                              CoordinateSpace(2, (0, 1))), (1,))
        f = indicator_all_ones(spaces)
        assert f.bounds_over((1,)) == ValueBounds(F(0), F(1))
        assert f.bounds_over((1, 1)) == ValueBounds(F(1), F(1))


class TestOscBound:
    def test_indicator_all_target_prefix(self):
        assert osc_bound(indicator_all_ones(), (1, 1, 1)) == 1

    def test_indicator_broken_prefix_pins_zero(self):
        assert osc_bound(indicator_all_ones(), (1, 0)) == 0

    def test_discounted_tail_weight_sum(self):
        # sum_{i > 3} 2**-i = 2**-3
        assert osc_bound(discounted_unit(), (1, 0, 1)) == F(1, 8)

    def test_cylinder_zero_at_depth(self):
        assert osc_bound(mix_cylinder(), (0, 1)) == 0
        assert osc_bound(mix_cylinder(), (0,)) == F(3, 10)

    def test_monotone_under_extension(self):
        f = discounted_unit()
        for m in range(5):
            assert osc_bound(f, (1,) * (m + 1)) <= osc_bound(f, (1,) * m)

    def test_bounded_by_range_width(self):
        for f in (indicator_all_ones(), discounted_unit(), mix_cylinder()):
            assert osc_bound(f, ()) <= f.range_hi - f.range_lo


class TestFreeWindow:
    @pytest.mark.parametrize("f", [discounted_unit(), indicator_all_ones()],
                             ids=["discounted", "indicator"])
    def test_window_between_prefix_and_rest_is_free(self, f):
        # independent oracle: the exact value at every completion of the
        # window, each a described point evaluated without a window
        for base in (all_zeros_point(), all_ones_point()):
            x = modify_point(base, {6: 1})
            for prefix, rest_from in (((1,), 4), ((), 3), ((0, 1), 3)):
                vb = f.bounds_over(prefix, rest=x, rest_from=rest_from)
                free = rest_from - 1 - len(prefix)
                values = [
                    eval_function(f, modify_point(x, dict(enumerate(
                        prefix + window, start=1)))).lo
                    for window in itertools.product((0, 1), repeat=free)]
                assert (vb.lo, vb.hi) == (min(values), max(values))


class TestConstruction:
    def test_cylinder_table_keys_checked(self):
        with pytest.raises(ValidationError):
            Cylinder(2, {(0,): F(1)})

    def test_cylinder_range_must_cover_table(self):
        with pytest.raises(ValidationError):
            Cylinder(1, {(0,): F(0), (1,): F(2)}, F(0), F(1))

    def test_range_miss_states_exact_rationals(self):
        # hi is 10**-20 below 1/3: nearest floats would print the same
        # 0.3333333333333333 on both sides of the message
        msg = ("declared range [0, 99999999999999999997/300000000000000000000]"
               " does not bound the function (needs [0, 1/3])")
        with pytest.raises(ValidationError, match=f"^{re.escape(msg)}$"):
            Cylinder(1, {(0,): F(0), (1,): F(1, 3)}, F(0),
                     F(1, 3) - F(1, 10**20))

    def test_discounted_ratio_must_contract(self):
        with pytest.raises(ValidationError):
            GeometricWeights.of(1, 1)

    def test_discounted_range_derived(self):
        f = discounted_unit()
        assert (f.range_lo, f.range_hi) == (0, 1)

    def test_indicator_targets_must_live_in_spaces(self):
        with pytest.raises(ValidationError):
            ProductIndicator(binary_spaces(), (2,), ConstantSymbol(1))

    @pytest.mark.parametrize("head, tail, message", [
        ((2,), ConstantSymbol(1), "target head[0]: symbol 2 not in coordinate 1"),
        ((0, 1, "a"), ConstantSymbol(1),
         "target head[2]: symbol 'a' not in coordinate 3"),
        ((), ConstantSymbol(3), "target tail: symbol 3 not in coordinate 1"),
        ((0, 1), PeriodicSymbols((1, 7)),
         "target tail: symbol 7 not in coordinate 4"),
    ])
    def test_indicator_target_messages(self, head, tail, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ProductIndicator(binary_spaces(), head, tail)

    def test_indicator_targets_are_a_described_point(self):
        f = ProductIndicator(binary_spaces(), (0, 1), PeriodicSymbols((1, 0)))
        assert f.targets == DescribedPoint((0, 1), PeriodicSymbols((1, 0)))
        assert [f.target_at(i) for i in range(1, 7)] == [0, 1, 1, 0, 1, 0]
        assert f.targets_stream() == f.targets.eventual_stream()
        assert "targets=" not in repr(f)

    def test_cylinder_rejects_a_repeated_prefix(self):
        with pytest.raises(ValidationError, match="prefix \\(0, 0\\) twice"):
            Cylinder.from_entries(2, [((0, 0), 1), ((0, 1), 2), ((0, 0), 3)])

    def test_cylinder_sum_adds_tables(self):
        f = mix_cylinder()
        g = mix_cylinder()
        h = cylinder_sum(f, g)
        assert h.table[(1, 1)] == 2
        assert h.table[(1, 0)] == F(7, 5)


MIXED_SCORES = st.sampled_from([F(1, 3), F(2, 7), F(-5, 6), F(0), F(3),
                                F(-1, 2), F(7, 12)])


@st.composite
def mixed_discounted_sums(draw):
    """Three scored symbols over mixed denominators; the ratio is drawn as
    an unreduced p/q and the coefficient from a few denominators."""
    k = draw(st.integers(1, 4))
    p = draw(st.integers(1, 11))
    q = draw(st.integers(p + 1, 12))
    weights = GeometricWeights.of(draw(st.sampled_from([1, F(1, 2), F(3, 5), 7])),
                                  F(k * p, k * q))
    return DiscountedSum(weights, {s: draw(MIXED_SCORES) for s in "abc"})


class TestIntegerWeightedScores:
    """`_weighted_scores` against the running Fraction sum."""

    @given(f=mixed_discounted_sums(), first=st.integers(1, 80),
           symbols=st.lists(st.sampled_from("abc"), max_size=70))
    @settings(max_examples=100)
    def test_matches_fraction_sum(self, f, first, symbols):
        assert (f._weighted_scores(first, iter(symbols))
                == reference_weighted_scores(f, first, symbols))

    def test_empty_symbols_and_prefix_give_zero_head(self):
        f = DiscountedSum(GeometricWeights.of(F(3, 5), F(2, 7)),
                          {"a": F(1, 3), "b": F(-5, 6)})
        for first in (1, 2, 80):
            head = f._weighted_scores(first, ())
            assert isinstance(head, Fraction) and head == 0
        mass = f.weights.tail_sum(0)
        vb = f.bounds_over(())
        assert (vb.lo, vb.hi) == (mass * F(-5, 6), mass * F(1, 3))

    def test_all_zero_scores(self):
        f = DiscountedSum(GeometricWeights.of(1, F(1, 2)), {0: F(0), 1: F(0)})
        assert f._weighted_scores(1, (0, 1, 1, 0)) == 0
        vb = f.bounds_over((1, 0))
        assert (vb.lo, vb.hi) == (0, 0)

    def test_unscored_symbol_rejected(self):
        with pytest.raises(ValidationError, match="has no score"):
            discounted_unit()._weighted_scores(1, (0, 2))


def assert_bounds_match_row_scan(f, prefix, rest=None, rest_from=None,
                                 horizon=64):
    try:
        expected = reference_cylinder_bounds(f, prefix, rest, rest_from,
                                             horizon)
    except ValidationError:
        with pytest.raises(ValidationError):
            f.bounds_over(prefix, rest, rest_from, horizon)
        return
    vb = f.bounds_over(prefix, rest, rest_from, horizon)
    assert (vb.lo, vb.hi, vb.eta) == (*expected, 0)


class TestIntegerBoundsOver:
    """`Cylinder.bounds_over` compares scaled integers; the Fraction row
    scan of the original table is the oracle."""

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_matches_the_fraction_row_scan(self, data):
        sigma, f = data.draw(table_walk_setups())
        arity = len(sigma.spaces.space_at(1).symbols)
        if data.draw(st.booleans()):  # a partial table: some scans find no row
            keep = data.draw(st.lists(st.booleans(), min_size=len(f.table),
                                      max_size=len(f.table)).filter(any))
            f = Cylinder(f.depth, {k: v for (k, v), kept
                                   in zip(f.table.items(), keep) if kept})
        m = data.draw(st.integers(0, f.depth))
        prefix = tuple(data.draw(st.lists(st.integers(0, arity - 1),
                                          min_size=m, max_size=m)))
        assert_bounds_match_row_scan(f, prefix)
        horizon = data.draw(st.integers(0, f.depth + 1))
        # rest_from past m + 1 leaves a free window before the pinned block
        for x in data.draw(tail_points(sigma, arity)):
            for rest_from in (None, *range(1, f.depth + 2)):
                assert_bounds_match_row_scan(f, prefix, x, rest_from, horizon)

    def test_free_window_between_prefix_and_pins(self):
        # coordinate 2 is free: the rows (0, *, 1) give the bounds
        f = Cylinder.from_callable([(0, 1)] * 3,
                                   lambda a, b, c: F(a + 10 * b + 100 * c, 3))
        ones = DescribedPoint((), ConstantSymbol(1))
        vb = f.bounds_over((0,), rest=ones, rest_from=3)
        assert (vb.lo, vb.hi) == (F(100, 3), F(110, 3))
        assert vb.lo is f.table[(0, 0, 1)] and vb.hi is f.table[(0, 1, 1)]


def assert_window_matches_reference(f, rest, rest_from, horizon, prefixes):
    window = f.window_bounds(rest, rest_from, horizon)
    for prefix in prefixes:
        try:
            expected = reference_bounds_over(f, prefix, rest, rest_from,
                                             horizon)
        except ValidationError:
            with pytest.raises(ValidationError):
                window(prefix)
            continue
        vb = window(prefix)
        assert (vb.lo, vb.hi, vb.eta) == (expected.lo, expected.hi,
                                          expected.eta)


def check_windows(data, f, sigma, depth, word):
    """Every rest (none, lazy, described, modified) and every rest_from
    1..depth+2 at one horizon in 0..depth+2: one window serves every cut
    of `word` shorter than rest_from, longest first, so what a window
    keeps from one prefix is checked on the others."""
    horizon = data.draw(st.integers(0, depth + 2), label="horizon")
    for rest in [None, *data.draw(tail_points(sigma, 2))]:
        for rest_from in range(1, depth + 3):
            assert_window_matches_reference(
                f, rest, rest_from, horizon,
                [word[:m] for m in reversed(range(rest_from))])


def binary_word(data, length):
    return tuple(data.draw(st.lists(st.integers(0, 1), min_size=length,
                                    max_size=length), label="word"))


class TestWindowBounds:
    """`window_bounds` against `reference_bounds_over`, the per-prefix
    computation it replaces."""

    @given(data=st.data())
    @settings(max_examples=40)
    def test_cylinder_windows(self, data):
        f = data.draw(cylinders())
        if data.draw(st.booleans()):  # a partial table: some prefixes miss
            keep = data.draw(st.lists(st.booleans(), min_size=len(f.table),
                                      max_size=len(f.table)).filter(any))
            f = Cylinder(f.depth, {k: v for (k, v), kept
                                   in zip(f.table.items(), keep) if kept})
        check_windows(data, f, data.draw(product_measures()), f.depth,
                      binary_word(data, f.depth + 2))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_discounted_windows(self, data):
        check_windows(data, data.draw(discounted_sums()),
                      data.draw(product_measures()), 6, binary_word(data, 8))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_indicator_windows(self, data):
        f = data.draw(product_indicators())
        # the targets with a few symbols flipped, so that prefixes match
        flips = data.draw(st.sets(st.integers(1, 8), max_size=2))
        word = tuple(1 - f.target_at(i) if i in flips else f.target_at(i)
                     for i in range(1, 9))
        check_windows(data, f, data.draw(product_measures()), 6, word)

    def test_default_window_calls_bounds_over(self):
        class Halved(TailFunction):
            range_lo, range_hi = F(0), F(1, 2)

            def bounds_over(self, prefix, rest=None, rest_from=None,
                            horizon=64):
                return ValueBounds.point(F(len(prefix), 2 * rest_from))

        window = Halved().window_bounds(all_ones_point(), 5, horizon=3)
        assert [window((1,) * m).lo for m in range(5)] == \
            [F(m, 10) for m in range(5)]

    def test_a_function_needs_bounds_over_or_window_bounds(self):
        with pytest.raises(NotImplementedError):
            TailFunction().bounds_over((), all_ones_point(), 1)
