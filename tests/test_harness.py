"""Verification campaigns: fractions, reproducibility, monotonicity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex import harness
from prodex.engine import expect
from prodex.errors import (
    StraddleNotFoundError,
    UndeterminedValueError,
    ValidationError,
)
from prodex.functions import Cylinder, DiscountedSum
from prodex.harness import (
    CERTIFIED,
    FAILED,
    INCONCLUSIVE,
    SampleRecord,
    verify_strong,
    verify_weak,
)
from prodex.martingale import FOUND, NOT_FOUND, find_strong_approx
from prodex.model import LazyPoint
from prodex.scenario import load_scenario
from prodex.seeds import derive_seed
from prodex.tailclass import (
    _weak_sample,
    construct_weak_zero,
    hull_estimate,
    weak_zero_from_sample,
)

from conftest import (
    cylinders,
    discounted_sums,
    discounted_unit,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
    product_measures,
    uniform_sigma,
)

F = Fraction
TOL = F(1, 10**9)


class TestVerifyStrong:
    def test_discounted_uniform_all_certified_within_five(self):
        # |g_n - 1/2| <= 2**-(n-1) analytically, so n = 5 always suffices
        rep = verify_strong(discounted_unit(), uniform_sigma(), F(1, 10),
                            300, 10, TOL, seed=7)
        assert rep.certified_fraction == 1
        assert all(r.detail <= 5 for r in rep.records)

    def test_constant_function_epsilon_zero(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(1), (1,): F(1)})
        rep = verify_strong(f, sigma_uniform, 0, 100, 4, TOL, seed=1)
        assert rep.certified_fraction == 1
        assert all(r.detail == 1 for r in rep.records)

    def test_geometric_campaign_high_fraction_small_eta(self):
        rep = verify_strong(indicator_all_ones(), geometric_sigma(),
                            F(1, 100), 300, 60, TOL, seed=2024, horizon=60)
        assert rep.certified_fraction >= F(98, 100)
        assert rep.max_eta <= F(1, 10**6)

    def test_counts_partition_samples(self):
        rep = verify_strong(discounted_unit(), uniform_sigma(), F(1, 10),
                            50, 10, TOL, seed=3)
        assert rep.certified + rep.inconclusive + rep.failed == rep.samples
        assert (rep.certified_fraction + rep.inconclusive_fraction
                + rep.failed_fraction) == 1

    def test_fraction_monotone_in_n_max(self):
        fractions = [
            verify_strong(indicator_all_ones(), geometric_sigma(), F(1, 100),
                          80, n_max, TOL, seed=5, horizon=60).certified_fraction
            for n_max in (6, 8, 12, 30)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_fraction_monotone_in_epsilon(self):
        fractions = [
            verify_strong(indicator_all_ones(), geometric_sigma(), eps,
                          80, 8, TOL, seed=5, horizon=60).certified_fraction
            for eps in (F(1, 1000), F(1, 100), F(1, 10))
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_deterministic_given_seed(self):
        a = verify_strong(discounted_unit(), uniform_sigma(), F(1, 10),
                          40, 10, TOL, seed=9)
        b = verify_strong(discounted_unit(), uniform_sigma(), F(1, 10),
                          40, 10, TOL, seed=9)
        assert a.records == b.records


class RecordedPoint(LazyPoint):
    """A lazy point that keeps a list of every instance made."""

    made = []

    def __post_init__(self):
        super().__post_init__()
        RecordedPoint.made.append(self)


class TestShallowFirst:
    """A discounted sample is read only as deep as its verdict needs, and
    its record is the one a scan at the read horizon gives."""

    OUTCOMES = {FOUND: CERTIFIED, NOT_FOUND: FAILED}

    @given(f=discounted_sums(), sigma=product_measures(),
           seed=st.integers(0, 2**64 - 1),
           eps=st.sampled_from([F(0), F(1, 100), F(1, 10), F(1, 2)]),
           n_max=st.integers(1, 12),
           horizon=st.sampled_from([None, 0, 3, 5, 9, 40]))
    @settings(max_examples=40, deadline=None)
    def test_records_match_a_scan_at_the_read_horizon(self, f, sigma, seed,
                                                      eps, n_max, horizon):
        rep = verify_strong(f, sigma, eps, 4, n_max, TOL, seed=seed,
                            horizon=horizon)
        reference = expect(f, sigma, TOL, horizon=horizon)
        for r in rep.records:
            res = find_strong_approx(f, sigma, LazyPoint(r.substream, sigma),
                                     eps, n_max, TOL, horizon=horizon,
                                     reference=reference)
            assert (r.outcome, r.detail, r.eta) == (
                self.OUTCOMES.get(res.outcome, INCONCLUSIVE), res.n, res.eta)

    def test_discounted_samples_read_shallow(self, monkeypatch):
        monkeypatch.setattr(harness, "LazyPoint", RecordedPoint)
        RecordedPoint.made.clear()
        verify_strong(discounted_unit(), uniform_sigma(), F(1, 10), 100, 10,
                      TOL, seed=11)
        reads = [len(x._cache) for x in RecordedPoint.made]
        assert len(reads) == 100
        assert max(reads) <= 16 and sum(reads) <= 8 * len(reads)

    def test_an_error_at_a_shallow_depth_defers_to_the_horizon(self):
        # a shallow scan can step past the horizon's found n and score a
        # symbol the horizon's scan never scores
        class ShallowRaises(DiscountedSum):
            def martingale_steps(self, sigma, x, horizon):
                if horizon is not None:
                    raise ValidationError("symbol 2 has no score")
                return super().martingale_steps(sigma, x, horizon)

        plain = discounted_unit()
        f = ShallowRaises(plain.weights, plain.scores)
        args = (uniform_sigma(), F(1, 10), 20, 10, TOL)
        assert verify_strong(f, *args, seed=3).records == \
            verify_strong(plain, *args, seed=3).records

    def test_only_nesting_families_climb_the_ladder(self, monkeypatch):
        depths = []

        def spy(*args, horizon, **kwargs):
            depths.append(horizon)
            return find_strong_approx(*args, horizon=horizon, **kwargs)

        monkeypatch.setattr(harness, "find_strong_approx", spy)
        verify_strong(indicator_all_ones(), geometric_sigma(), F(1, 100), 20,
                      60, TOL, seed=2024)
        verify_strong(mix_cylinder(), uniform_sigma(), F(1, 10), 20, 4, TOL,
                      seed=1)
        # the cylinder campaign decides each distinct prefix of its samples
        # once, so it scans once per prefix, not once per sample
        prefixes = {tuple(LazyPoint(derive_seed(1, "strong-sample", j),
                                    uniform_sigma()).coordinate(i)
                          for i in (1, 2)) for j in range(20)}
        assert set(depths) == {None} and len(depths) == 20 + len(prefixes)
        depths.clear()
        # epsilon is the sample's own |f(x) - E[f]|, read deeper than the
        # cap: g_1 stays undecided at every rung, up to the cap
        f, sigma = discounted_unit(), uniform_sigma()
        x = LazyPoint(derive_seed(0, "strong-sample", 0), sigma)
        eps = abs(f.eval_soft(x, horizon=40).midpoint - F(1, 2))
        rep = verify_strong(f, sigma, eps, 1, 1, TOL, horizon=20)
        assert rep.inconclusive == 1 and depths == [4, 8, 16, 20]


class TestVerifyWeak:
    def test_mix_cylinder_depth_two_full_success(self):
        rep = verify_weak(mix_cylinder(), uniform_sigma(), 2, 200, TOL, seed=4)
        assert rep.certified_fraction == 1

    def test_constant_function_depth_one(self, sigma_uniform):
        f = Cylinder(1, {(0,): F(2), (1,): F(2)})
        rep = verify_weak(f, sigma_uniform, 1, 60, TOL, seed=6)
        assert rep.certified_fraction == 1

    def test_geometric_depth_thirty(self):
        rep = verify_weak(indicator_all_ones(), geometric_sigma(), 30, 500,
                          TOL, seed=8, horizon=60)
        assert rep.certified_fraction >= F(98, 100)
        assert rep.failed == 0

    def test_fraction_monotone_in_depth(self):
        # deeper hulls only grow, so certification can only improve
        fractions = [
            verify_weak(indicator_all_ones(), geometric_sigma(), m, 60,
                        TOL, seed=10, horizon=60).certified_fraction
            for m in (1, 5, 10, 30)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_undetermined_samples_are_inconclusive(self):
        # a discounted sum read to coordinate 2 keeps width 1/4 > 0, so no
        # sampled value is determined; each sample, not the campaign, fails
        rep = verify_weak(discounted_unit(), uniform_sigma(), 8, 4, TOL,
                          seed=3, horizon=2)
        assert (rep.inconclusive, rep.certified, rep.failed) == (4, 0, 0)
        assert all((r.detail, r.eta) == (8, 0) for r in rep.records)

    def test_walk_points_read_as_deep_as_their_witnesses(self):
        # f = 1/2 at x_1 = 1, else x_2.  At horizon 1 only a modified
        # coordinate 2 is read, so every determined sample has witnesses
        # modified through 2; a walk point that kept only coordinate 1
        # would leave x_2 unread and fail the sample
        f = Cylinder(2, {(0, 0): F(0), (0, 1): F(1),
                         (1, 0): F(1, 2), (1, 1): F(1, 2)})
        rep = verify_weak(f, uniform_sigma(), 2, 40, TOL, seed=0, horizon=1)
        assert (rep.certified, rep.inconclusive, rep.failed) == (17, 23, 0)

    def test_an_undetermined_walk_point_is_inconclusive(self):
        # at horizon 2 coordinate 3 is never read: some samples have both
        # witness values determined but the walk point (y_1, x_2) not.
        # Such a sample is inconclusive, never failed, and weak_zero_from_
        # sample passes over it as the campaign does
        f = Cylinder(3, {(0, 0, 0): F(1), (0, 0, 1): F(1, 2),
                         (0, 1, 0): F(1), (0, 1, 1): F(1),
                         (1, 0, 0): F(0), (1, 0, 1): F(0),
                         (1, 1, 0): F(1, 4), (1, 1, 1): F(1, 2)})
        sigma = uniform_sigma()
        rep = verify_weak(f, sigma, 2, 12, TOL, seed=183, horizon=2)
        assert (rep.certified, rep.inconclusive, rep.failed) == (0, 12, 0)
        assert all((r.detail, r.eta) == (2, 0) for r in rep.records)
        with pytest.raises(StraddleNotFoundError):
            weak_zero_from_sample(f, sigma, TOL, 2, seed=183, horizon=2,
                                  retries=12)

    def test_deterministic_given_seed(self):
        a = verify_weak(mix_cylinder(), uniform_sigma(), 2, 60, TOL, seed=12)
        b = verify_weak(mix_cylinder(), uniform_sigma(), 2, 60, TOL, seed=12)
        assert a.records == b.records
        assert [r.index for r in a.records] == list(range(60))


class TestOncePerPrefix:
    """A cylinder campaign decides each distinct prefix of its samples
    once; every record is still the one its sample gives alone."""

    @given(f=cylinders(), sigma=product_measures(),
           seed=st.integers(0, 2**64 - 1), samples=st.integers(1, 60),
           eps=st.sampled_from([F(0), F(1, 10), F(1, 2)]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_strong_records_match_each_sample_alone(self, f, sigma, seed,
                                                    samples, eps, data):
        horizon = data.draw(st.none() | st.integers(0, f.depth + 1))
        n_max = data.draw(st.integers(1, f.depth + 2))
        rep = verify_strong(f, sigma, eps, samples, n_max, TOL, seed=seed,
                            horizon=horizon)
        reference = expect(f, sigma, TOL, horizon=horizon)
        outcomes = TestShallowFirst.OUTCOMES
        assert len(rep.records) == samples
        for j, r in enumerate(rep.records):
            sub = derive_seed(seed, "strong-sample", j)
            res = find_strong_approx(f, sigma, LazyPoint(sub, sigma), eps,
                                     n_max, TOL, horizon=horizon,
                                     reference=reference)
            assert r == SampleRecord(j, sub,
                                     outcomes.get(res.outcome, INCONCLUSIVE),
                                     res.n, res.eta)

    @given(f=cylinders(), sigma=product_measures(),
           seed=st.integers(0, 2**64 - 1), samples=st.integers(1, 60),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_weak_records_match_each_sample_alone(self, f, sigma, seed,
                                                  samples, data):
        horizon = data.draw(st.none() | st.integers(0, f.depth + 1))
        m = data.draw(st.integers(1, f.depth + 2))
        rep = verify_weak(f, sigma, m, samples, TOL, seed=seed,
                          horizon=horizon)
        r = expect(f, sigma, TOL, horizon=horizon).midpoint
        assert len(rep.records) == samples
        for j, record in enumerate(rep.records):
            sub = derive_seed(seed, "weak-sample", j)
            try:
                hull = hull_estimate(f, LazyPoint(sub, sigma), m,
                                     sigma.spaces, horizon=horizon)
                cert = construct_weak_zero(
                    f, sigma, hull.witness_min, hull.witness_max, r,
                    horizon) if hull.contains(r) else None
            except UndeterminedValueError:
                hull = cert = None
            expected = (
                (CERTIFIED, cert.coordinate, cert.eta) if cert is not None
                else (INCONCLUSIVE, m, F(0) if hull is None else hull.eta))
            assert record == SampleRecord(j, sub, *expected)

    def test_cylinder_threshold_decides_at_most_eight_samples(self,
                                                              monkeypatch):
        decided = []

        def spy(*args):
            decided.append(args)
            return _weak_sample(*args)

        monkeypatch.setattr(harness, "_weak_sample", spy)
        scenario = load_scenario("cylinder-threshold")
        rep = verify_weak(scenario.function, scenario.measure, 3, 1250, TOL)
        assert rep.samples == 1250 and rep.certified_fraction == 1
        assert 1 <= len(decided) <= 8  # binary coordinates 1..3
