"""Reverse-martingale sequence and the strong approximation finder."""

import inspect
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.engine import (
    CERTIFIED,
    ExpectationResult,
    exact_expectation_product_indicator,
    expect,
)
from prodex.errors import (
    ToleranceConfigError,
    UnsupportedTailError,
    ValidationError,
)
from prodex.functions import (
    DEFAULT_HORIZON,
    Cylinder,
    DiscountedSum,
    TailFunction,
    eval_function,
)
from prodex.games import best_response_value, purify
from prodex.harness import verify_strong
from prodex.martingale import (
    FOUND,
    INCONCLUSIVE,
    NO,
    NOT_FOUND,
    UNDECIDED,
    YES,
    _epsilon_verdicts,
    _scan,
    compare_to_epsilon,
    find_strong_approx,
    g_n,
    trace,
)
from prodex.model import (
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    PeriodicMeasuresTail,
    PointSpec,
    ProductMeasure,
    TailMeasureRule,
    formula_tail,
    modify_point,
)
from prodex.numeric import Interval, abs_difference

from conftest import (
    NO_SHRINK,
    PROBS,
    all_ones_point,
    bernoulli,
    binary_spaces,
    discounted_sums,
    discounted_unit,
    geometric_indicator_envelope,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
    partial_product,
    partial_tables,
    point_mass,
    points,
    product_indicators,
    product_measures,
    reference_bounds_over,
    reference_discounted_sum,
    reference_indicator,
    symbol_rules,
    table_walk_setups,
    tail_points,
    uniform_sigma,
)

F = Fraction
TOL = F(1, 10**9)


class TestGn:
    def test_constant_function_every_n(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(3), (1,): F(3)})
        x = all_ones_point()
        for n in (1, 2, 5):
            res = g_n(f, sigma_uniform, x, n, TOL)
            assert res.interval.is_point and res.interval.lo == 3

    def test_geometric_indicator_partial_product_at_six(self):
        res = g_n(indicator_all_ones(), geometric_sigma(), all_ones_point(),
                  6, TOL)
        assert res.interval.is_point
        assert res.interval.lo == partial_product(5)

    def test_discounted_split_head_integral_plus_tail(self):
        # g_3 = 0.5*(w_1 + w_2) + (tail beyond 2) = 0.375 + 0.25
        res = g_n(discounted_unit(), uniform_sigma(), all_ones_point(), 3, TOL)
        assert res.interval.is_point
        assert res.interval.lo == F(5, 8)

    def test_g1_equals_point_evaluation(self):
        for f in (mix_cylinder(), discounted_unit(), indicator_all_ones()):
            sigma = uniform_sigma()
            x = modify_point(all_ones_point(), {1: 0, 4: 0})
            res = g_n(f, sigma, x, 1, TOL)
            vb = eval_function(f, x, horizon=8)
            assert res.interval.is_point and vb.is_point
            assert res.interval.lo == vb.lo


class TestTrace:
    def test_constant_trace_flat(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(1, 2), (1,): F(1, 2)})
        tr = trace(f, sigma_uniform, all_ones_point(), 5, TOL)
        assert all(e.interval.is_point and e.interval.lo == F(1, 2)
                   for e in tr.entries)
        assert tr.reference.interval.contains(F(1, 2))

    def test_geometric_trace_matches_partial_products_exactly(self):
        tr = trace(indicator_all_ones(), geometric_sigma(), all_ones_point(),
                   8, TOL)
        assert tr.entries[0].interval.lo == 1  # g_1 = f(all-ones)
        for e in tr.entries[1:]:
            assert e.interval.is_point
            assert e.interval.lo == partial_product(e.n - 1)

    def test_geometric_trace_strictly_decreases_toward_reference(self):
        tr = trace(indicator_all_ones(), geometric_sigma(), all_ones_point(),
                   8, TOL)
        mids = [e.interval.lo for e in tr.entries[1:]]
        assert all(a > b for a, b in zip(mids, mids[1:]))
        assert mids[-1] > tr.reference.interval.hi

    def test_discounted_trace_closed_form(self):
        # g_n = 1/2 + 2**-n for the all-ones point under the uniform measure
        tr = trace(discounted_unit(), uniform_sigma(), all_ones_point(), 6, TOL)
        for e in tr.entries:
            assert e.interval.is_point
            assert e.interval.lo == F(1, 2) + F(1, 2**e.n)


class TestFindStrongApprox:
    def test_example_geometric_found_at_six(self):
        res = find_strong_approx(indicator_all_ones(), geometric_sigma(),
                                 all_ones_point(), F(1, 100), 60, TOL)
        assert res.outcome == FOUND and res.n == 6

    def test_certification_margins_around_six(self):
        # independent check of the Found(6) verdict: exact distances
        lo, hi = geometric_indicator_envelope(60)
        assert partial_product(5) - hi <= F(1, 100)   # n = 6 is inside
        assert partial_product(4) - hi > F(1, 100)    # n = 5 is outside

    def test_epsilon_at_range_width_found_immediately(self):
        res = find_strong_approx(mix_cylinder(), uniform_sigma(),
                                 all_ones_point(), 1, 4, F(1, 100))
        assert res.outcome == FOUND and res.n == 1

    def test_discounted_found_at_four(self):
        res = find_strong_approx(discounted_unit(), uniform_sigma(),
                                 all_ones_point(), F(1, 10), 10, TOL)
        assert res.outcome == FOUND and res.n == 4

    def test_zero_epsilon_constant_function(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(2), (1,): F(2)})
        res = find_strong_approx(f, sigma_uniform, all_ones_point(), 0, 3, TOL)
        assert res.outcome == FOUND and res.n == 1

    def test_not_found_reported(self):
        # indicator under geometric measure at the all-ones point: g_n > E
        # strictly, and epsilon below the n_max gap keeps every n violating
        gap = partial_product(3) - geometric_indicator_envelope(60)[1]
        eps = gap / 2
        res = find_strong_approx(indicator_all_ones(), geometric_sigma(),
                                 all_ones_point(), eps, 4, eps / 8)
        assert res.outcome == NOT_FOUND

    def test_tolerance_headroom_enforced(self):
        with pytest.raises(ToleranceConfigError):
            find_strong_approx(discounted_unit(), uniform_sigma(),
                               all_ones_point(), F(1, 10), 5, F(1, 10))

    def test_inconclusive_when_interval_straddles_threshold(self):
        # a wide reference enclosure (as left by an exhausted budget) makes
        # the comparison undecidable for every n whose g_n it overlaps
        from prodex.engine import ExpectationResult
        from prodex.numeric import Interval
        f = indicator_all_ones()
        sigma = geometric_sigma()
        wide = ExpectationResult(Interval(F(1, 4), F(1, 2)), 0,
                                 "budget_exhausted")
        res = find_strong_approx(f, sigma, all_ones_point(), F(1, 100), 3,
                                 TOL, reference=wide)
        assert res.outcome == INCONCLUSIVE
        assert 2 in res.undecided and 3 in res.undecided

    def test_minimality_found_means_no_earlier_undecided(self):
        res = find_strong_approx(indicator_all_ones(), geometric_sigma(),
                                 all_ones_point(), F(1, 100), 60, TOL)
        assert res.outcome == FOUND
        assert res.undecided == ()


class TestLazyPointResiduals:
    def test_gn_on_lazy_point_reports_disagreement_bound(self):
        # find a seed whose realization keeps the first 40 coordinates on
        # target: the verdict then rests on the tail and must carry eta
        from prodex.model import LazyPoint
        sigma = geometric_sigma()
        f = indicator_all_ones()
        x = None
        for seed in range(200):
            cand = LazyPoint(seed, sigma)
            if all(cand.coordinate(i) == 1 for i in range(1, 41)):
                x = cand
                break
        assert x is not None
        res = g_n(f, sigma, x, 3, TOL, horizon=40)
        assert res.interval.is_point
        assert res.interval.lo == partial_product(2)
        assert res.eta == F(1, 2**40)

    def test_described_point_verdicts_are_hard(self):
        res = g_n(indicator_all_ones(), geometric_sigma(), all_ones_point(),
                  3, TOL)
        assert res.eta == 0


class TestRealizationDepth:
    """`horizon` is the one setting for how far a lazy point is read."""

    def test_default_depth_covers_the_sampled_head(self):
        # coordinates 1..64 hit surely and 65..70 are fair coins, so the
        # lazy root's head outruns DEFAULT_HORIZON: a miss there must be
        # read (hard 0), not left unread and charged to eta
        sigma = uniform_sigma(head_weights=(1,) * DEFAULT_HORIZON + (F(1, 2),) * 6)
        f = indicator_all_ones()
        x = next(x for x in (LazyPoint(s, sigma) for s in itertools.count())
                 if any(x.coordinate(i) == 0
                        for i in range(DEFAULT_HORIZON + 1, DEFAULT_HORIZON + 7)))
        for n in (1, 2, DEFAULT_HORIZON + 1):
            hybrid = HybridMeasure.measures_then_point(sigma, x, n)
            for res in (g_n(f, sigma, x, n, TOL),
                        g_n(f, sigma, x, n, TOL, use_oracle=False),
                        expect(f, hybrid, TOL)):
                assert (res.interval.lo, res.interval.hi, res.eta) == (0, 0, 0)
        for e in trace(f, sigma, x, DEFAULT_HORIZON + 1, TOL).entries:
            assert (e.interval.lo, e.interval.hi, e.eta) == (0, 0, 0)

    def test_retired_keywords_raise(self):
        f, sigma, x = indicator_all_ones(), geometric_sigma(), all_ones_point()
        with pytest.raises(TypeError):
            expect(f, sigma, TOL, eta_target=F(1, 10**6))
        with pytest.raises(TypeError):
            trace(f, sigma, x, 3, TOL, use_oracle=True)
        with pytest.raises(TypeError):
            find_strong_approx(f, sigma, x, F(1, 10), 3, TOL, use_oracle=True)
        for fn in (exact_expectation_product_indicator, g_n, trace,
                   find_strong_approx, verify_strong, best_response_value,
                   purify):
            assert "eta_target" not in inspect.signature(fn).parameters, fn


class TestMartingaleIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reverse_martingale_step(self, n):
        # g_{n+1}(x) = sum_t sigma_n(t) g_n(x with coordinate n set to t)
        f = Cylinder.from_callable(
            [(0, 1)] * 3,
            lambda a, b, c: F(1, 2) * a + F(1, 3) * b + F(1, 6) * c)
        sigma = uniform_sigma(head_weights=(F(1, 4), F(3, 5), F(1, 2)))
        x = all_ones_point()
        m = sigma.coordinate_measure(n)
        mixed = sum(
            (m.weight_of(t)
             * g_n(f, sigma, modify_point(x, {n: t}), n, TOL).interval.midpoint
             for t in (0, 1)), F(0))
        step = g_n(f, sigma, x, n + 1, TOL).interval.midpoint
        assert abs(step - mixed) <= 4 * TOL

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tower_property(self, n):
        # E[x -> g_n(x)] = E[f]: g_n of a depth-d cylinder is itself a
        # cylinder in coordinates n..d; build its table by evaluation
        import itertools
        f = Cylinder.from_callable(
            [(0, 1)] * 4,
            lambda a, b, c, d: F(2, 5) * a + F(1, 5) * b + F(1, 5) * c
            + F(1, 5) * d)
        sigma = uniform_sigma(head_weights=(F(1, 3), F(2, 3), F(1, 2), F(4, 5)))
        entries = []
        for combo in itertools.product((0, 1), repeat=4):
            from prodex.model import ConstantSymbol, DescribedPoint
            pt = DescribedPoint(combo, ConstantSymbol(0))
            entries.append((combo, g_n(f, sigma, pt, n, TOL).interval.midpoint))
        h = Cylinder.from_entries(4, entries)
        lhs = expect(h, sigma, TOL).interval.midpoint
        rhs = expect(f, sigma, TOL).interval.midpoint
        assert abs(lhs - rhs) <= 4 * TOL


class TestGeometricStrictness:
    def test_gn_strictly_above_reference_for_fifty_indices(self):
        """g_n - E > 0 for all n <= 50 at the all-ones point: no index ever
        reproduces the expectation exactly, witnessing the empty strong-0 set.
        Exact rational comparison through partial products."""
        upper = geometric_indicator_envelope(120)[1]
        for n in range(1, 51):
            gn = g_n(indicator_all_ones(), geometric_sigma(),
                     all_ones_point(), n, TOL)
            assert gn.interval.is_point
            assert gn.interval.lo - upper > 0

    def test_gap_shrinks_to_zero(self):
        # the same point is a strong epsilon-approximation for every
        # positive epsilon: the gap at n is below 2**-(n-2)
        lo = geometric_indicator_envelope(120)[0]
        for n in (10, 20, 40):
            gap = partial_product(n - 1) - lo
            assert gap < F(1, 2**(n - 2))


# ---------------------------------------------------------------------------
# The one-pass scan against per-index g_n
# ---------------------------------------------------------------------------

def _fields(res):
    return (res.interval.lo, res.interval.hi, res.eta, res.status)


def reference_g_n(f, mu, horizon):
    """The exact conftest reference of E_mu[f] for f's family."""
    if isinstance(f, DiscountedSum):
        return reference_discounted_sum(f, mu, horizon)
    return reference_indicator(f, mu, horizon)


def assert_scan_matches_g_n(f, sigma, x, n_max, horizon):
    """Each step of the scan, the g_n evaluated on its own and the exact
    reference agree in (lo, hi, eta) at every index up to n_max."""
    scanned = list(_scan(f, sigma, x, n_max, TOL, horizon=horizon))
    assert len(scanned) == n_max
    for n, value in enumerate(scanned, start=1):
        res = g_n(f, sigma, x, n, TOL, horizon=horizon)
        expected = reference_g_n(
            f, HybridMeasure.measures_then_point(sigma, x, n), horizon)
        assert (value.lo, value.hi, value.eta) == \
            (res.bounds.lo, res.bounds.hi, res.eta) == \
            (expected.lo, expected.hi, expected.eta), n


@st.composite
def matched_lazy_points(draw, f, sigma, horizon):
    """A lazy point set to f's targets on every coordinate f reads of it,
    so f's verdict at it rests on its unread tail alone."""
    x = LazyPoint(draw(st.integers(0, 2**32)), sigma)
    depth = f.leading_coordinates(x, horizon)
    return modify_point(x, {i: f.target_at(i) for i in range(1, depth + 1)})


class TestScanMatchesPerIndex:
    """Each step of the scan equals the g_n evaluated on its own and the
    exact reference of conftest, including indices past the realization
    horizon of a lazy point, where both read it equally deep."""

    @given(data=st.data())
    @settings(max_examples=40)
    def test_discounted_sum(self, data):
        sigma = data.draw(product_measures())
        assert_scan_matches_g_n(
            data.draw(discounted_sums()), sigma, data.draw(points(sigma)),
            16, data.draw(st.one_of(st.none(), st.integers(0, 10))))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_product_indicator(self, data):
        # a matched lazy point reaches the soft verdicts, 0 < eta < 1, most
        # often under all-ones targets and a geometric tail
        sigma = data.draw(product_measures())
        f = data.draw(product_indicators(
            tails=symbol_rules() | st.just(ConstantSymbol(1))))
        horizon = data.draw(st.one_of(st.none(), st.integers(0, 10)))
        for x in (data.draw(points(sigma)),
                  data.draw(matched_lazy_points(f, sigma, horizon))):
            assert_scan_matches_g_n(f, sigma, x, 16, horizon)

    @pytest.mark.parametrize("family", ["discounted_sum", "product_indicator"])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_one_point_head_measures(self, family, data):
        # a hybrid whose head pins some coordinates to other points: its
        # expectation, the first step from its switch, is the reference's
        sigma = data.draw(product_measures())
        f = data.draw(discounted_sums() if family == "discounted_sum"
                      else product_indicators())
        x, y = data.draw(points(sigma)), data.draw(points(sigma))
        pins = data.draw(st.lists(st.booleans(), max_size=6))
        head = tuple(point_mass(i, y.coordinate(i)) if pinned
                     else sigma.coordinate_measure(i)
                     for i, pinned in enumerate(pins, start=1))
        mu = HybridMeasure(head, len(head) + 1, x)
        horizon = data.draw(st.one_of(st.none(), st.integers(0, 10)))
        res = expect(f, mu, TOL, horizon=horizon)
        expected = reference_g_n(f, mu, horizon)
        assert res.oracle_used
        assert (res.bounds.lo, res.bounds.hi, res.eta) == (
            expected.lo, expected.hi, expected.eta)

    @pytest.mark.parametrize("f", [discounted_unit(), indicator_all_ones()],
                             ids=["discounted", "indicator"])
    def test_past_the_default_horizon(self, f):
        sigma = geometric_sigma()
        for seed in (2, 5):
            assert_scan_matches_g_n(f, sigma, LazyPoint(seed, sigma), 70, None)

    def test_matched_lazy_point_carries_eta_at_every_index(self):
        # all-ones targets under Dirac-on-1 coordinates: the verdict holds
        # at every index and rests on the unrealized tail
        sigma = ProductMeasure(binary_spaces(), (bernoulli(1, F(1, 2)),),
                               formula_tail("geometric_bernoulli"))
        x = modify_point(LazyPoint(0, sigma), {i: 1 for i in range(1, 9)})
        assert_scan_matches_g_n(indicator_all_ones(), sigma, x, 12, 8)


def _steps_from(f, sigma, x, horizon, start, stop):
    """(n, lo, hi, eta) of `f.martingale_steps` from `start` to `stop`,
    ending with (n, "raises", message) at an index that raises."""
    steps = f.martingale_steps(sigma, x, horizon, start)
    out = []
    for n in range(start, stop + 1):
        try:
            vb = next(steps)
        except ValidationError as exc:
            out.append((n, "raises", str(exc)))
            break
        out.append((n, vb.lo, vb.hi, vb.eta))
    return out


class TestStepsFromStart:
    """`martingale_steps(..., start=s)` is the start=1 scan from index s
    on, so a hybrid's expectation (the first step from its switch) is
    the scan's g_s.  A partial cylinder table raises the scan's error at
    the scan's index."""

    @given(data=st.data())
    @settings(max_examples=40, phases=NO_SHRINK)
    def test_a_later_start_continues_the_scan(self, data):
        family = data.draw(st.sampled_from(
            ["cylinder", "discounted_sum", "product_indicator"]))
        if family == "cylinder":
            sigma, f = data.draw(table_walk_setups())
            if data.draw(st.booleans()):
                f = data.draw(partial_tables(f))
            arity, depth = len(sigma.spaces.space_at(1).symbols), f.depth
        else:
            sigma, arity, depth = data.draw(product_measures()), 2, 6
            f = data.draw(discounted_sums() if family == "discounted_sum"
                          else product_indicators())
        xs = data.draw(tail_points(sigma, arity))
        if family == "product_indicator":
            # the point that hits every target, and those that miss once
            hit = DescribedPoint(f.targets_head, f.targets_tail)
            xs += [hit] + [modify_point(hit, {i: 1 - hit.coordinate(i)})
                           for i in range(1, depth + 3)]
        stop = depth + 4
        for x in xs:
            for horizon in (None, data.draw(st.integers(0, 6))):
                scan = _steps_from(f, sigma, x, horizon, 1, stop)
                # every start in 1..depth+2 that the scan reaches
                for start in range(1, min(scan[-1][0], depth + 2) + 1):
                    assert _steps_from(f, sigma, x, horizon, start, stop) \
                        == scan[start - 1:], start


class TestStepNesting:
    """`DiscountedSum.nested_steps`: steps read at a depth h enclose those
    read at every deeper h', with eta 0, so a verdict decided at h is
    decided alike at h'."""

    @given(f=discounted_sums(), seed=st.integers(0, 2**64 - 1),
           head=st.lists(PROBS, max_size=2),
           tail=st.lists(PROBS, min_size=1, max_size=3),
           depths=st.lists(st.integers(0, 20), min_size=2, max_size=2))
    @settings(max_examples=40)
    def test_discounted_steps_nest_in_depth(self, f, seed, head, tail,
                                            depths):
        templates = tuple(bernoulli(len(head) + 1, p) for p in tail)
        sigma = ProductMeasure(
            binary_spaces(),
            tuple(bernoulli(i, p) for i, p in enumerate(head, start=1)),
            ConstantMeasureTail(templates[0]) if len(templates) == 1
            else PeriodicMeasuresTail(templates))
        x = LazyPoint(seed, sigma)
        h, deep = sorted(depths)
        # indices 1..24 run below, at and past both depths
        pairs = zip(f.martingale_steps(sigma, x, h),
                    f.martingale_steps(sigma, x, deep))
        for shallow, vb in itertools.islice(pairs, 24):
            assert shallow.lo <= vb.lo <= vb.hi <= shallow.hi
            assert shallow.eta == vb.eta == 0
        assert f.nested_steps


class OnesPoint(PointSpec):
    """A user-defined point: neither lazily sampled nor described."""

    def coordinate(self, i):
        return 1


class MissAtFour(PointSpec):
    """A user-defined point that misses the all-ones target at 4 only."""

    def coordinate(self, i):
        return 0 if i == 4 else 1


class TestUserDefinedPoint:
    def test_discounted_sum_reads_up_to_the_horizon(self):
        f, sigma, x = discounted_unit(), uniform_sigma(), OnesPoint()
        for horizon in (None, 0, 3, 10):
            h = 64 if horizon is None else horizon
            # g_n = (n-1)/2 over the integrated coordinates, sum of
            # 2**-i over n..h read from x, and [0, 2**-h] beyond h
            for n in (1, 2, 5, 12):
                read = sum((F(1, 2**i) for i in range(n, h + 1)), F(0))
                head = F(1, 2) * (1 - F(1, 2**(n - 1)))
                unread = F(1, 2**max(h, n - 1))
                res = g_n(f, sigma, x, n, TOL, horizon=horizon)
                assert (res.interval.lo, res.interval.hi) == (
                    head + read, head + read + unread)
            assert_scan_matches_g_n(f, sigma, x, 14, horizon)
            entries = trace(f, sigma, x, 14, horizon=horizon).entries
            assert [e.n for e in entries] == list(range(1, 15))
        found = find_strong_approx(f, sigma, x, F(1, 10), 10)
        # g_3 ~ 5/8 misses E = 1/2 by more than 1/10; g_4 ~ 9/16 does not
        assert found.is_found and found.n == 4

    def test_product_indicator_leaves_the_unread_rest_open(self):
        f, sigma = indicator_all_ones(), geometric_sigma()
        for x, miss in ((OnesPoint(), 0), (MissAtFour(), 4)):
            for horizon in (None, 0, 3, 10):
                # x is read up to the horizon and says nothing past it:
                # g_n = 0 when a read coordinate >= n misses, else
                # prod_{i<n} sigma_i(1) * [0, 1]
                h = 64 if horizon is None else horizon
                seen = miss if h >= miss else 0
                for n in (1, 2, 4, 5, 12):
                    res = g_n(f, sigma, x, n, TOL, horizon=horizon)
                    hi = 0 if n <= seen else partial_product(n - 1)
                    assert (res.interval.lo, res.interval.hi, res.eta) == (
                        0, hi, 0)
                assert_scan_matches_g_n(f, sigma, x, 14, horizon)
                entries = trace(f, sigma, x, 14, horizon=horizon).entries
                assert [e.n for e in entries] == list(range(1, 15))
        # E[f] ~ 0.289 lies inside every open g_n, so no index is decided
        found = find_strong_approx(f, sigma, OnesPoint(), F(1, 100), 10)
        assert found.outcome == INCONCLUSIVE
        assert found.undecided == tuple(range(1, 11))


class NoDisagreementBound(TailMeasureRule):
    """A user tail rule with the closed forms of E[f] but no bound on
    P(a tail coordinate misses a target): `disagreement_bound` raises."""

    def __init__(self, inner):
        self.inner = inner

    def measure_at(self, i, head_len, space):
        return self.inner.measure_at(i, head_len, space)

    def indicator_tail_product(self, targets, from_index, head_len):
        return self.inner.indicator_tail_product(targets, from_index, head_len)


def no_disagreement_sigma() -> ProductMeasure:
    """Every coordinate puts 63/64 on symbol 1; the tail rule is opaque."""
    head = tuple(bernoulli(i, F(63, 64)) for i in (1, 2))
    tail = NoDisagreementBound(ConstantMeasureTail(bernoulli(1, F(63, 64))))
    return ProductMeasure(binary_spaces(), head, tail)


class TestSamplingTailWithoutDisagreementBound:
    """A lazy point whose sampling tail has no disagreement bound leaves the
    unread rest of an indicator open, [0, 1] with eta 0, as a user-defined
    point does, on every route: the steps, g_n, the hybrid oracle and the
    tree."""

    @pytest.mark.parametrize("horizon", [None, 0, 4, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_every_route_encloses_g_n(self, seed, horizon):
        f, sigma = indicator_all_ones(), no_disagreement_sigma()
        x = LazyPoint(seed, sigma)
        assert_scan_matches_g_n(f, sigma, x, 12, horizon)
        for n in range(1, 13):
            res = g_n(f, sigma, x, n, TOL, horizon=horizon)
            hybrid = HybridMeasure.measures_then_point(sigma, x, n)
            assert _fields(expect(f, hybrid, TOL, horizon=horizon)) == \
                _fields(res)
            tree = g_n(f, sigma, x, n, TOL, use_oracle=False, horizon=horizon)
            assert tree.interval.lo <= res.interval.lo
            assert res.interval.hi <= tree.interval.hi
            assert res.eta == 0
        entries = trace(f, sigma, x, 12, TOL, horizon=horizon).entries
        assert [e.n for e in entries] == list(range(1, 13))
        h = f.read_horizon(x, horizon)
        for start in (1, 3, 9):
            assert f.bounds_over((), x, start, h) == reference_bounds_over(
                f, (), x, start, h)

    def test_nothing_read_leaves_the_head_product_open(self):
        # at horizon 0 no coordinate of x is read: g_n = [0, (63/64)**(n-1)]
        f, sigma = indicator_all_ones(), no_disagreement_sigma()
        with pytest.raises(UnsupportedTailError):
            sigma.tail.disagreement_bound(f.targets_stream(), 2, 2)
        for seed in range(3):
            x = LazyPoint(seed, sigma)
            for n in (1, 2, 3, 7):
                res = g_n(f, sigma, x, n, TOL, horizon=0)
                assert (res.interval.lo, res.interval.hi, res.eta) == (
                    0, F(63, 64)**(n - 1), 0)


class UserMix(TailFunction):
    """A user function: `mix_cylinder` behind `bounds_over` alone."""

    range_lo, range_hi = F(0), F(1)

    def __init__(self):
        self.inner = mix_cylinder()

    def bounds_over(self, prefix, rest=None, rest_from=None,
                    horizon=DEFAULT_HORIZON):
        return self.inner.bounds_over(prefix, rest, rest_from, horizon)


class UserMixWithHooks(UserMix):
    """The same function, opting into an oracle and g_n steps."""

    def expectation(self, sigma):
        return self.inner.expectation(sigma)

    def martingale_steps(self, sigma, x, horizon, start=1):
        return self.inner.martingale_steps(sigma, x, horizon, start)


class TestUserHooks:
    def test_hooks_replace_the_tree_with_equal_enclosures(self):
        sigma = uniform_sigma(head_weights=(F(1, 4), F(3, 5)))
        x = LazyPoint(7, sigma)
        plain, hooked = UserMix(), UserMixWithHooks()
        tree, oracle = expect(plain, sigma, TOL), expect(hooked, sigma, TOL)
        assert (tree.oracle_used, oracle.oracle_used) == (False, True)
        assert tree.interval == oracle.interval
        for horizon in (None, 1):
            assert trace(plain, sigma, x, 4, TOL, horizon=horizon).entries == \
                trace(hooked, sigma, x, 4, TOL, horizon=horizon).entries
            for n in (1, 2, 3):
                assert g_n(hooked, sigma, x, n, TOL, horizon=horizon).oracle_used
        assert plain.read_horizon(x, None) == DEFAULT_HORIZON
        assert plain.read_horizon(x, 3) == 3


def abs_difference_verdict(value: Interval, reference: Interval, epsilon):
    """Independent oracle: the verdict from the enclosure of |v - ref|."""
    d = abs_difference(value, reference)
    if d.hi <= epsilon:
        return YES
    if d.lo > epsilon:
        return NO
    return UNDECIDED


#: small endpoints on a grid of 1/4, so that ends often meet ref +- eps
GRID = st.integers(-8, 8).map(lambda k: F(k, 4))


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(GRID), draw(GRID)))
    return Interval(lo, hi)


class TestEpsilonVerdicts:
    @given(value=intervals(), reference=intervals(),
           epsilon=st.integers(-2, 8).map(lambda k: F(k, 4)))
    @settings(max_examples=100)
    def test_matches_abs_difference(self, value, reference, epsilon):
        expected = abs_difference_verdict(value, reference, epsilon)
        assert _epsilon_verdicts(reference, epsilon)(value) == expected
        results = [ExpectationResult(i, 0, CERTIFIED)
                   for i in (value, reference)]
        assert compare_to_epsilon(*results, epsilon) == expected

    @pytest.mark.parametrize("value, verdict", [
        ((F(1, 2), F(3, 2)), YES),        # both ends on ref -+ eps
        ((F(1, 2), F(7, 4)), UNDECIDED),  # hi past ref.lo + eps
        ((F(1, 4), F(3, 2)), UNDECIDED),  # lo below ref.hi - eps
        ((F(5, 2), F(3)), UNDECIDED),     # lo on ref.hi + eps: not apart
        ((F(-1), F(-1, 2)), UNDECIDED),   # hi on ref.lo - eps: not apart
        ((F(11, 4), F(3)), NO),
        ((F(-1), F(-3, 4)), NO),
    ])
    def test_equality_at_epsilon(self, value, verdict):
        reference, epsilon = Interval(F(1, 2), F(3, 2)), F(1)
        value = Interval(*value)
        assert abs_difference_verdict(value, reference, epsilon) == verdict
        assert _epsilon_verdicts(reference, epsilon)(value) == verdict

    def test_zero_and_negative_epsilon(self):
        point = Interval(F(1, 3), F(1, 3))
        assert _epsilon_verdicts(point, F(0))(point) == YES
        assert _epsilon_verdicts(point, F(-1, 10**9))(point) == NO


class TestMeasureMemo:
    @pytest.mark.parametrize("f, sigma", [
        (indicator_all_ones(), geometric_sigma()),
        (discounted_unit(), uniform_sigma(head_weights=(F(1, 3),))),
    ], ids=["indicator", "discounted"])
    def test_each_tail_measure_built_once_per_campaign(self, f, sigma,
                                                       monkeypatch):
        built = Counter()
        validate = CoordinateMeasure.__post_init__

        def counting(self):
            built[self.space_index] += 1
            validate(self)

        monkeypatch.setattr(CoordinateMeasure, "__post_init__", counting)
        verify_strong(f, sigma, F(1, 100), 40, 30, TOL, seed=4, horizon=30)
        if isinstance(sigma.tail, ConstantMeasureTail):
            # a constant tail builds no measure: every tail coordinate the
            # campaign resolved is the template itself
            assert not built
            read = range(sigma.head_len + 1, max(sigma._tail_measures) + 1)
            assert len(read) > 1
            assert all(sigma.coordinate_measure(i) is sigma.tail.template
                       for i in read)
        else:
            assert built and max(built.values()) == 1
