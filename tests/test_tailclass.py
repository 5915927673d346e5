"""Hull estimation, class certification, weak-zero certificates."""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodex.engine import expect
from prodex.errors import (
    NotStraddlingError,
    ProdexError,
    StraddleNotFoundError,
    UndeterminedValueError,
)
from prodex.functions import Cylinder, ProductIndicator, eval_function
from prodex.harness import CERTIFIED, verify_weak
from prodex.model import (
    ConstantSymbol,
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    MeasureAssignment,
    agreement_index,
    modify_point,
    point_coordinate,
    splice_prefix,
)
from prodex.scenario import load_scenario
from prodex.seeds import derive_seed
from prodex.tailclass import (
    UNDETERMINED,
    Z0_CERTIFIED,
    classify,
    construct_weak_zero,
    hull_estimate,
    weak_zero_from_sample,
)

from conftest import (
    BITS,
    all_ones_point,
    all_zeros_point,
    binary_spaces,
    cylinders,
    discounted_sums,
    discounted_unit,
    enumerated_hull,
    geometric_indicator_envelope,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
    points,
    product_indicators,
    product_measures,
    uniform_sigma,
)

F = Fraction
TOL = F(1, 10**9)


@dataclass(frozen=True, eq=False)
class CountingPoint(LazyPoint):
    """A lazily sampled point that counts the reads of each coordinate."""

    reads: Counter = field(default_factory=Counter, repr=False)

    def coordinate(self, i):
        self.reads[i] += 1
        return super().coordinate(i)


READ_COUNT_CASES = [
    pytest.param(f, m, id=f"{name}-{m}")
    for name, f in (("indicator", indicator_all_ones()),
                    ("discounted", discounted_unit()),
                    ("cylinder", mix_cylinder()))
    for m in (1, 5, 12)]


class TestHullEstimate:
    def test_indicator_all_ones_depth_one(self):
        f = indicator_all_ones()
        hull = hull_estimate(f, all_ones_point(), 1, binary_spaces())
        assert (hull.lo, hull.hi) == (0, 1)
        assert point_coordinate(hull.witness_min, 1) == 0
        assert point_coordinate(hull.witness_max, 1) == 1
        # witnesses differ from the base only within depth
        for i in range(2, 12):
            assert point_coordinate(hull.witness_min, i) == 1

    def test_constant_function_depth_three(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(5), (1,): F(5)})
        hull = hull_estimate(f, all_zeros_point(), 3, binary_spaces())
        assert (hull.lo, hull.hi) == (5, 5)

    def test_discounted_all_zeros_depth_two(self):
        # max sets both modified coordinates to the unit-score symbol:
        # w_1 + w_2 = 3/4
        f = discounted_unit()
        hull = hull_estimate(f, all_zeros_point(), 2, binary_spaces())
        assert (hull.lo, hull.hi) == (0, F(3, 4))
        assert eval_function(f, hull.witness_max, 4).lo == F(3, 4)

    def test_depth_zero_hull_is_point_value(self):
        f = mix_cylinder()
        x = DescribedPoint((1, 0), ConstantSymbol(0))
        hull = hull_estimate(f, x, 0, binary_spaces())
        assert hull.lo == hull.hi == F(7, 10)

    def test_hull_nesting_in_depth(self):
        f = discounted_unit()
        x = all_zeros_point()
        hulls = [hull_estimate(f, x, m, binary_spaces()) for m in range(5)]
        for inner, outer in zip(hulls, hulls[1:]):
            assert outer.lo <= inner.lo and inner.hi <= outer.hi

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_hull_nesting_randomized(self, seed):
        f = mix_cylinder()
        x = LazyPoint(seed, uniform_sigma())
        hulls = [hull_estimate(f, x, m, binary_spaces()) for m in range(4)]
        for inner, outer in zip(hulls, hulls[1:]):
            assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_guided_search_matches_enumeration(self):
        f = discounted_unit()
        x = modify_point(all_zeros_point(), {2: 1})
        hull = hull_estimate(f, x, 4, binary_spaces())
        assert (hull.lo, hull.hi, hull.eta) == \
            enumerated_hull(f, x, 4, binary_spaces())

    def test_guided_search_matches_enumeration_indicator(self):
        f = indicator_all_ones()
        x = all_ones_point()
        hull = hull_estimate(f, x, 3, binary_spaces())
        assert (hull.lo, hull.hi, hull.eta) == \
            enumerated_hull(f, x, 3, binary_spaces()) == (0, 1, 0)

    @given(data=st.data())
    @settings(max_examples=120)
    def test_guided_search_matches_enumeration_randomized(self, data):
        sigma = data.draw(product_measures())
        f = data.draw(st.one_of(cylinders(), discounted_sums(),
                                product_indicators()))
        x, m = data.draw(points(sigma)), data.draw(st.integers(0, 6))
        # indicators at short horizons leave lazy tails unread (eta > 0);
        # discounted sums on lazy points need a long one to be determined
        horizon = (data.draw(st.sampled_from([0, 3, 8, 128]))
                   if isinstance(f, ProductIndicator) else 128)
        hull = hull_estimate(f, x, m, binary_spaces(), horizon=horizon)
        assert (hull.lo, hull.hi, hull.eta) == \
            enumerated_hull(f, x, m, binary_spaces(), horizon)
        for witness, value in ((hull.witness_min, hull.lo),
                               (hull.witness_max, hull.hi)):
            assert f.eval_soft(witness, horizon=horizon).midpoint == value
            for i in range(m + 1, m + 16):
                assert point_coordinate(witness, i) == point_coordinate(x, i)

    @pytest.mark.parametrize("f, m", READ_COUNT_CASES)
    def test_hull_reads_the_base_past_m_at_most_twice(self, f, m):
        # once for x's own value, once for the window that both searches
        # and both witness values share, however many candidates it bounds
        x = CountingPoint(7, geometric_sigma())
        hull_estimate(f, x, m, binary_spaces())
        assert all(n <= 2 for i, n in x.reads.items() if i > m)

    @pytest.mark.parametrize("f, m", READ_COUNT_CASES)
    def test_walk_reads_the_base_at_most_once(self, f, m):
        # every walk point is a prefix over the low witness: one window
        x = CountingPoint(7, geometric_sigma())
        hull = hull_estimate(f, x, m, binary_spaces())
        r = (hull.lo + hull.hi) / 2
        x.reads.clear()
        cert = construct_weak_zero(f, geometric_sigma(), hull.witness_min,
                                   hull.witness_max, r)
        assert cert.achieved == r
        assert all(n <= 1 for n in x.reads.values())

    def test_horizon_is_keyword_only(self):
        # a stale call passing an enumeration budget positionally must
        # not turn it into a horizon
        f, x, sigma = mix_cylinder(), all_zeros_point(), uniform_sigma()
        with pytest.raises(TypeError):
            hull_estimate(f, x, 2, binary_spaces(), 2**20)
        with pytest.raises(TypeError):
            classify(f, sigma, x, F(1, 2), 2, 2**20, 64)


class TestClassify:
    def test_geometric_reference_certified_at_depth_one(self):
        sigma = geometric_sigma()
        r = expect(indicator_all_ones(), sigma, TOL).midpoint
        verdict = classify(indicator_all_ones(), sigma, all_ones_point(), r, 1)
        assert verdict.verdict == Z0_CERTIFIED

    def test_mix_cylinder_half_certified_depth_two(self):
        sigma = uniform_sigma()
        verdict = classify(mix_cylinder(), sigma, all_zeros_point(),
                           F(1, 2), 2)
        assert verdict.certified
        # four-point enumeration gives {0, 0.3, 0.7, 1}
        assert (verdict.hull.lo, verdict.hull.hi) == (0, 1)

    def test_far_mismatch_pins_hull_and_stays_undetermined(self):
        sigma = geometric_sigma()
        m = 3
        x = modify_point(all_ones_point(), {m + 5: 0})
        verdict = classify(indicator_all_ones(), sigma, x, F(1, 4), m)
        assert verdict.verdict == UNDETERMINED
        assert (verdict.hull.lo, verdict.hull.hi) == (0, 0)

    def test_never_certifies_a_negative(self):
        # r far outside the range: still only "undetermined"
        sigma = uniform_sigma()
        verdict = classify(mix_cylinder(), sigma, all_zeros_point(), F(7, 2), 2)
        assert verdict.verdict == UNDETERMINED


class TestConstructWeakZero:
    def test_mix_cylinder_alpha_two_sevenths(self):
        # f(z_1) = f(0,0,..) = 0, f(z_2) = f(1,0,..) = 0.7:
        # alpha*0 + (1-alpha)*0.7 = 0.5 forces alpha = 2/7
        sigma = uniform_sigma()
        x = all_zeros_point()
        y = modify_point(x, {1: 1, 2: 1})
        cert = construct_weak_zero(mix_cylinder(), sigma, x, y, F(1, 2))
        assert cert.coordinate == 1
        assert cert.alpha == F(2, 7)
        assert cert.achieved == F(1, 2)
        assert cert.tau.weight_of(0) == F(2, 7)
        assert cert.tau.weight_of(1) == F(5, 7)

    def test_constant_function_degenerate_alpha_one(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(2), (1,): F(2)})
        x = all_zeros_point()
        cert = construct_weak_zero(f, sigma_uniform, x, x, 2)
        assert cert.coordinate == 1 and cert.alpha == 1
        assert cert.tau.is_dirac

    def test_single_coordinate_bernoulli_quarter(self):
        f = Cylinder(1, {(0,): F(0), (1,): F(1)})
        sigma = uniform_sigma(head_weights=(F(1, 4),))
        x = all_zeros_point()
        y = modify_point(x, {1: 1})
        cert = construct_weak_zero(f, sigma, x, y, F(1, 4))
        assert cert.coordinate == 1 and cert.alpha == F(3, 4)

    def test_not_straddling_raises(self):
        sigma = uniform_sigma()
        with pytest.raises(NotStraddlingError):
            construct_weak_zero(mix_cylinder(), sigma, all_zeros_point(),
                                all_zeros_point(), F(1, 2))

    def test_certificate_mixture_verifies_through_engine(self):
        # the hybrid measure the certificate describes must reproduce r
        sigma = uniform_sigma()
        x = all_zeros_point()
        y = modify_point(x, {1: 1, 2: 1})
        cert = construct_weak_zero(mix_cylinder(), sigma, x, y, F(1, 2))
        k = cert.coordinate
        head = tuple(
            HybridMeasure.dirac(cert.point).assignment_at(i)
            for i in range(1, k)
        )
        mixture = HybridMeasure(head[:k - 1] + (MeasureAssignment(cert.tau),),
                                k + 1, cert.point)
        res = expect(mix_cylinder(), mixture, TOL)
        assert res.interval.is_point and res.interval.lo == F(1, 2)

    def test_adjacency_of_walk_points(self):
        sigma = uniform_sigma()
        x = modify_point(all_zeros_point(), {1: 1, 3: 1})
        y = modify_point(all_zeros_point(), {2: 1, 4: 1})
        n = agreement_index(x, y)
        for k in range(1, n + 1):
            zk, zk1 = splice_prefix(x, y, k), splice_prefix(x, y, k + 1)
            diffs = [i for i in range(1, n + 2)
                     if point_coordinate(zk, i) != point_coordinate(zk1, i)]
            assert diffs == [k] or (diffs == [] and
                                    point_coordinate(x, k) ==
                                    point_coordinate(y, k))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_walk_window_equals_spliced_points(self, data):
        # reference: the whole-point route, f at each spliced z_k read on
        # its own; the walk reads z_k from one window over the low witness
        sigma = data.draw(product_measures())
        f = data.draw(st.one_of(cylinders(), discounted_sums(),
                                product_indicators()))
        m = data.draw(st.integers(1, 6))
        horizon = data.draw(st.sampled_from([None, 0, 2, 4, 8]))
        x = LazyPoint(data.draw(st.integers(0, 2**32)), sigma)
        prefixes = data.draw(st.lists(st.lists(BITS, min_size=m, max_size=m),
                                      min_size=2, max_size=2))
        pairs = [tuple(modify_point(x, dict(enumerate(p, start=1)))
                       for p in prefixes)]
        try:
            hull = hull_estimate(f, x, m, sigma.spaces, horizon=horizon)
            pairs.append((hull.witness_min, hull.witness_max))
        except UndeterminedValueError:
            pass

        def outcome(read):
            try:
                vb = read()
            except ProdexError as err:  # the error must match, too
                return type(err)
            return vb.lo, vb.hi, vb.eta

        for low, high in pairs:
            n = agreement_index(low, high)
            window = f.window_bounds(low, n + 1, f.read_horizon(low, horizon))
            xs = tuple(low.coordinate(i) for i in range(1, n + 1))
            ys = tuple(high.coordinate(i) for i in range(1, n + 1))
            for k in range(1, n + 2):
                assert outcome(lambda: window(ys[:k - 1] + xs[k - 1:])) == \
                    outcome(lambda: f.eval_soft(splice_prefix(low, high, k),
                                                horizon))


class TestWeakZeroFromSample:
    def test_mix_cylinder_every_seed_certifies(self):
        sigma = uniform_sigma()
        for seed in range(20):
            cert = weak_zero_from_sample(mix_cylinder(), sigma, TOL, 2,
                                         seed=seed)
            assert 0 <= cert.alpha <= 1
            assert cert.achieved == F(1, 2)

    def test_constant_function_first_sample(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(3), (1,): F(3)})
        cert = weak_zero_from_sample(f, sigma_uniform, TOL, 1, seed=0)
        assert cert.alpha == 1

    def test_geometric_monte_carlo_high_success(self):
        """Certificates achieve the reference within 1e-9 on at least 99 of
        100 seeds (depth 30, horizon 60)."""
        sigma = geometric_sigma()
        f = indicator_all_ones()
        r = expect(f, sigma, TOL).midpoint
        lo, hi = geometric_indicator_envelope(60)
        successes = 0
        for seed in range(100):
            try:
                cert = weak_zero_from_sample(f, sigma, TOL, 30, seed=seed,
                                             retries=1, horizon=60)
            except StraddleNotFoundError:
                continue
            assert cert.achieved == r
            assert lo - F(1, 10**9) <= cert.achieved <= hi + F(1, 10**9)
            successes += 1
        assert successes >= 99

    def test_straddle_not_found_reports_depth_and_tries(self):
        # coordinate 5 is pinned off-target by the measure, so no depth-1
        # modification of any sample can lift the indicator above 0
        f = indicator_all_ones()
        sigma = uniform_sigma(head_weights=(F(1, 2),) * 4 + (0,))
        with pytest.raises(StraddleNotFoundError) as err:
            weak_zero_from_sample(f, sigma, TOL, 1, seed=5, retries=3,
                                  reference=F(1, 2))
        assert err.value.depth == 1
        assert err.value.samples_tried == 3


    def test_undetermined_samples_are_passed_over(self):
        # read to horizon 2, a sample is determined exactly when x_2 = 0
        # (then f = x_1); at x_2 = 1 the value is the unread x_3.  The
        # depth-1 hull of a determined sample spans [0, 1] around E = 1/2
        f = Cylinder.from_callable([(0, 1)] * 3,
                                   lambda a, b, c: F(c if b else a))
        sigma = uniform_sigma()

        def sample(seed, attempt):
            return LazyPoint(derive_seed(seed, "weak-sample", attempt), sigma)

        seed = next(s for s in itertools.count()
                    if sample(s, 0).coordinate(2) == 1)
        first = next(a for a in itertools.count()
                     if sample(seed, a).coordinate(2) == 0)
        with pytest.raises(UndeterminedValueError):
            hull_estimate(f, sample(seed, 0), 1, sigma.spaces, horizon=2)
        cert = weak_zero_from_sample(f, sigma, TOL, 1, seed=seed, horizon=2)
        root = cert.point
        while not isinstance(root, LazyPoint):
            root = root.base
        assert root.seed == sample(seed, first).seed
        assert cert.achieved == F(1, 2)
        # with only the undetermined samples to try, no hull is found
        with pytest.raises(StraddleNotFoundError) as err:
            weak_zero_from_sample(f, sigma, TOL, 1, seed=seed, horizon=2,
                                  retries=first)
        assert err.value.samples_tried == first

    def test_walk_point_reads_as_deep_as_its_witnesses(self):
        # read to horizon 1, f = 1/2 at x_1 = 1, else x_2: the certificate
        # point keeps the witnesses' override at coordinate 2, which the
        # horizon alone would not read
        f = Cylinder(2, {(0, 0): F(0), (0, 1): F(1),
                         (1, 0): F(1, 2), (1, 1): F(1, 2)})
        cert = weak_zero_from_sample(f, uniform_sigma(), TOL, 2, seed=0,
                                     horizon=1)
        assert cert.achieved == F(1, 2)
        assert cert.mixed_value(f, 1) == F(1, 2)


WALK = Path(__file__).parent / "scenarios" / "cylinder-walk.json"


@functools.lru_cache(maxsize=None)
def scenario(name):
    return load_scenario(name)


class TestOneRoutePerWeakSample:
    """`weak_zero_from_sample` with R retries is the first sample that
    `verify_weak` with R samples certifies, at the same seed, depth and
    horizon, and raises exactly when that campaign certifies none."""

    @given(name=st.sampled_from(["cylinder-mix", "cylinder-threshold",
                                 "discounted-uniform", "example-3-4",
                                 str(WALK)]),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           depth=st.integers(min_value=1, max_value=8),
           horizon=st.sampled_from([None, 0, 2]),
           retries=st.integers(min_value=1, max_value=6))
    @example(name=str(WALK), seed=183, depth=2, horizon=2, retries=1)
    @settings(max_examples=40, deadline=None)
    def test_first_certified_sample_of_the_campaign(self, name, seed, depth,
                                                    horizon, retries):
        f, sigma = scenario(name).function, scenario(name).measure
        rep = verify_weak(f, sigma, depth, retries, TOL, seed,
                          horizon=horizon)
        first = next((r for r in rep.records if r.outcome == CERTIFIED),
                     None)
        if first is None:
            with pytest.raises(StraddleNotFoundError):
                weak_zero_from_sample(f, sigma, TOL, depth, seed,
                                      retries=retries, horizon=horizon)
            return
        cert = weak_zero_from_sample(f, sigma, TOL, depth, seed,
                                     retries=retries, horizon=horizon)
        assert (cert.coordinate, cert.eta) == (first.detail, first.eta)
        root = cert.point
        while not isinstance(root, LazyPoint):
            root = root.base
        assert root.seed == first.substream


class TestCertificateProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_exactness_and_single_coordinate_support(self, seed):
        sigma = uniform_sigma()
        cert = weak_zero_from_sample(mix_cylinder(), sigma, TOL, 2, seed=seed)
        assert 0 <= cert.alpha <= 1
        assert cert.mixed_value(mix_cylinder()) == cert.achieved
        assert len(cert.tau.support()) <= 2
        # mixed outcomes differ from the certificate point only at k
        other = modify_point(cert.point, {cert.coordinate: cert.symbol_high})
        for i in range(1, 10):
            if i != cert.coordinate:
                assert point_coordinate(other, i) == \
                    point_coordinate(cert.point, i)

    def test_z0_certification_is_constructive(self):
        # whenever classify certifies, the constructor must succeed
        sigma = uniform_sigma()
        f = mix_cylinder()
        r = expect(f, sigma, TOL).midpoint
        for seed in range(30):
            x = LazyPoint(seed, sigma)
            verdict = classify(f, sigma, x, r, 2)
            if verdict.certified:
                cert = construct_weak_zero(
                    f, sigma, verdict.hull.witness_min,
                    verdict.hull.witness_max, r)
                assert cert.achieved == r

    def test_covering_union_contains_straddle(self):
        # exercised on every constructor run; spot-check the walk values
        sigma = uniform_sigma()
        f = discounted_unit()
        x = all_zeros_point()
        y = modify_point(x, {1: 1, 2: 1, 3: 1})
        values = [eval_function(f, splice_prefix(x, y, k), 8).lo
                  for k in range(1, 5)]
        assert min(values) <= values[0] and values[-1] <= max(values)
        cert = construct_weak_zero(f, sigma, x, y, F(1, 2))
        assert cert.value_low <= F(1, 2) <= cert.value_high
