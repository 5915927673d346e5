"""Verification campaigns: fractions, reproducibility, monotonicity."""

from fractions import Fraction

from prodex.functions import Cylinder
from prodex.harness import verify_strong, verify_weak

from conftest import (
    discounted_unit,
    geometric_sigma,
    indicator_all_ones,
    mix_cylinder,
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

    def test_deterministic_given_seed(self):
        a = verify_weak(mix_cylinder(), uniform_sigma(), 2, 60, TOL, seed=12)
        b = verify_weak(mix_cylinder(), uniform_sigma(), 2, 60, TOL, seed=12)
        assert a.records == b.records
        assert [r.index for r in a.records] == list(range(60))
