"""Minmax evaluation, purification, naming-game separation."""

import itertools
from fractions import Fraction

import pytest

from prodex.engine import expect
from prodex.errors import (
    NotFinitisticError,
    PurificationFailedError,
    ToleranceConfigError,
    ValidationError,
)
from prodex.functions import Cylinder, TailFunction
from prodex.games import (
    FinitisticProfile,
    GameSpec,
    best_response_value,
    naming_game_exploit,
    naming_game_value,
    purify,
)
from prodex.model import (
    ConstantMeasureTail,
    HybridMeasure,
    LazyPoint,
    ProductMeasure,
    bernoulli_measure,
    formula_tail,
    uniform_measure,
)
from prodex.numeric import ValueBounds
from prodex.seeds import derive_seed

from conftest import (
    all_ones_point,
    binary_spaces,
    geometric_sigma,
    indicator_all_ones,
    uniform_sigma,
)

F = Fraction
TOL = F(1, 10**9)


def coordinate_game() -> GameSpec:
    """u(a, x) = x_1, u(b, x) = 1 - x_1."""
    fa = Cylinder(1, {(0,): F(0), (1,): F(1)})
    fb = Cylinder(1, {(0,): F(1), (1,): F(0)})
    return GameSpec(("a", "b"), {"a": fa, "b": fb}, F(0), F(1))


def quad_game() -> GameSpec:
    """u(a, x) = x_1 * x_2, u(b, x) = 1 - x_1 * x_2."""
    fa = Cylinder.from_callable([(0, 1), (0, 1)], lambda p, q: F(p * q))
    fb = Cylinder.from_callable([(0, 1), (0, 1)], lambda p, q: F(1 - p * q))
    return GameSpec(("a", "b"), {"a": fa, "b": fb}, F(0), F(1))


def naming_restriction_game() -> GameSpec:
    """The two coordinate-1 actions of the naming game: (1,0) and (1,1)."""
    f10 = Cylinder(1, {(0,): F(1), (1,): F(0)})
    f11 = Cylinder(1, {(0,): F(0), (1,): F(1)})
    return GameSpec(("(1,0)", "(1,1)"), {"(1,0)": f10, "(1,1)": f11},
                    F(0), F(1))


class TestBestResponse:
    def test_naming_restriction_under_uniform(self):
        res = best_response_value(naming_restriction_game(), uniform_sigma(),
                                  TOL)
        assert res.interval.is_point and res.interval.lo == F(1, 2)
        assert res.action == "(1,0)"  # tie broken by action order

    def test_two_action_game_value_half(self):
        res = best_response_value(coordinate_game(), uniform_sigma(), TOL)
        assert res.interval.lo == res.interval.hi == F(1, 2)

    def test_dirac_profile_collapses_to_max_payoff(self):
        game = coordinate_game()
        res = best_response_value(game, HybridMeasure.dirac(all_ones_point()),
                                  TOL)
        assert res.interval.is_point and res.interval.lo == 1
        assert res.action == "a"

    def test_value_keeps_the_per_action_eta(self):
        # the all-ones verdict rests on a lazy point's unread tail
        sigma = geometric_sigma()
        game = GameSpec(("a",), {"a": indicator_all_ones()}, F(0), F(1))
        profile = HybridMeasure.measures_then_point(
            sigma, LazyPoint(2, sigma), 3)
        res = best_response_value(game, profile, TOL)
        (_, action_res), = res.per_action
        assert action_res.eta > 0
        assert res.bounds.eta == action_res.eta
        assert (res.bounds.lo, res.bounds.hi) == (action_res.bounds.lo,
                                                  action_res.bounds.hi)

    def test_enlarging_action_set_never_decreases_upper(self):
        game = coordinate_game()
        fc = Cylinder(1, {(0,): F(1, 3), (1,): F(1, 3)})
        bigger = GameSpec(("a", "b", "c"), {**dict(game.payoffs), "c": fc},
                          F(0), F(1))
        small = best_response_value(game, uniform_sigma(), TOL)
        grown = best_response_value(bigger, uniform_sigma(), TOL)
        assert grown.interval.hi >= small.interval.hi

    def test_payoff_range_validated(self):
        fa = Cylinder(1, {(0,): F(0), (1,): F(2)})
        with pytest.raises(ValidationError):
            GameSpec(("a",), {"a": fa}, F(0), F(1))

    def test_duplicate_actions_rejected(self):
        fa = Cylinder(1, {(0,): F(0), (1,): F(1)})
        with pytest.raises(ValidationError, match="duplicate actions"):
            GameSpec(("a", "a"), {"a": fa}, F(0), F(1))

    def test_action_without_payoff_rejected(self):
        fa = Cylinder(1, {(0,): F(0), (1,): F(1)})
        with pytest.raises(ValidationError,
                           match="action 'b' has no payoff function"):
            GameSpec(("a", "b"), {"a": fa}, F(0), F(1))


class TestPurify:
    def test_coordinate_game_pins_from_two(self):
        res = purify(coordinate_game(), uniform_sigma(), F(1, 10), 8,
                     F(1, 10**10), seed=3)
        assert res.n == 2
        head, = res.profile.head
        assert head.weight_of(1) == F(1, 2)
        for cert in res.per_action:
            assert cert.profile_value.is_point
            assert cert.profile_value.lo == F(1, 2)

    def test_epsilon_above_range_width_gives_dirac_profile(self):
        res = purify(coordinate_game(), uniform_sigma(), 2, 8,
                     F(1, 10), seed=0)
        assert res.n == 1
        assert res.attempt == 0
        assert res.profile.switch_index == 1

    def test_quad_game_certifies_with_common_index(self):
        res = purify(quad_game(), uniform_sigma(), F(3, 10), 8,
                     F(1, 10**10), seed=3)
        sigma_vals = {c.action: c.sigma_value.midpoint for c in res.per_action}
        assert sigma_vals["a"] == F(1, 4) and sigma_vals["b"] == F(3, 4)
        for cert in res.per_action:
            gap = abs(cert.profile_value.midpoint - cert.sigma_value.midpoint)
            assert gap <= F(3, 10)

    def test_guarantee_reverified_post_hoc(self):
        # two fresh engine calls per action: E under the purified profile
        # must not exceed E under sigma by more than epsilon
        eps = F(1, 10)
        game = coordinate_game()
        sigma = uniform_sigma()
        res = purify(game, sigma, eps, 8, F(1, 10**10), seed=11)
        for action in game.actions:
            f = game.payoff(action)
            original = expect(f, sigma, TOL)
            purified = expect(f, res.profile, TOL)
            assert purified.interval.hi <= original.interval.lo + eps

    def test_common_index_covers_slower_action(self):
        # u(a, x) = x_1 certifies at n = 2; u(c, x) = x_2 only at n = 3:
        # the common index must be 3, re-certified for both actions
        fa = Cylinder(1, {(0,): F(0), (1,): F(1)})
        fc = Cylinder.from_callable([(0, 1), (0, 1)], lambda p, q: F(q))
        game = GameSpec(("a", "c"), {"a": fa, "c": fc}, F(0), F(1))
        res = purify(game, uniform_sigma(), F(1, 10), 8, F(1, 10**10), seed=2)
        assert res.n == 3
        for cert in res.per_action:
            assert cert.profile_value.is_point
            assert cert.profile_value.lo == F(1, 2)

    def test_output_always_declares_dirac_tail(self):
        for seed in range(5):
            res = purify(quad_game(), uniform_sigma(), F(3, 10), 8,
                         F(1, 10**10), seed=seed)
            assert isinstance(res.profile, HybridMeasure)
            assert res.profile.switch_index == res.n >= 1

    def test_failure_reports_diagnostics(self):
        # epsilon smaller than the everywhere-positive gap |g_1 - E| = 1/2
        # with n_max = 1 can never certify
        with pytest.raises(PurificationFailedError) as err:
            purify(coordinate_game(), uniform_sigma(), F(1, 100), 1,
                   F(1, 10**6), seed=0, retries=2)
        assert len(err.value.diagnostics) == 2

    def test_tolerance_without_headroom_rejected(self):
        # tol = epsilon/4 leaves no room to certify |g_n - E| <= epsilon
        with pytest.raises(ToleranceConfigError):
            purify(coordinate_game(), uniform_sigma(), F(1, 10), 8, F(1, 40))

    @pytest.mark.parametrize("epsilon", [0, F(-1, 10)])
    def test_epsilon_must_be_positive(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon must be positive"):
            purify(coordinate_game(), uniform_sigma(), epsilon, 8, seed=3)

    def test_n_max_below_one_rejected(self):
        with pytest.raises(ValidationError, match="n_max"):
            purify(coordinate_game(), uniform_sigma(), F(1, 10), 0,
                   F(1, 10**10))


class TestProfileIsHybrid:
    """A finitistic profile is the hybrid measure itself: purify returns
    one, and every reader takes it as it is."""

    def test_finitistic_profile_is_another_name_for_hybrid_measure(self):
        import prodex

        assert prodex.FinitisticProfile is prodex.HybridMeasure
        assert FinitisticProfile is HybridMeasure

    def test_purify_returns_a_hybrid_on_sigmas_own_measures(self):
        sigma = uniform_sigma(head_weights=(F(1, 3),))
        res = purify(quad_game(), sigma, F(1, 10), 8, F(1, 10**10), seed=3)
        assert type(res.profile) is HybridMeasure
        # a head coordinate of sigma and a memoized tail coordinate
        assert res.profile.switch_index == res.n == 3
        assert len(res.profile.head) == res.n - 1
        for i, m in enumerate(res.profile.head, start=1):
            assert m is sigma.coordinate_measure(i)
        x = LazyPoint(res.sample_seed, sigma)
        assert [res.profile.tail_point.coordinate(i)
                for i in range(res.n, res.n + 8)] == [
            x.coordinate(i) for i in range(res.n, res.n + 8)]

    def test_readers_take_the_profile_as_it_is(self):
        game = coordinate_game()
        res = purify(game, uniform_sigma(), F(1, 10), 8, F(1, 10**10),
                     seed=3)
        n = res.n
        assert naming_game_exploit(res.profile) == (
            n, res.profile.tail_point.coordinate(n))
        best = best_response_value(game, res.profile, TOL)
        assert [(a, r.bounds) for a, r in best.per_action] == [
            (c.action, c.profile_value) for c in res.per_action]


class ScriptedPayoff(TailFunction):
    """A payoff whose E[f] is 0 and whose g_1, g_2, ... at every point
    are `script`, its last value repeated: set by hand, to steer purify.
    `scans` counts the calls of its steps."""

    family = "scripted"
    range_lo, range_hi = F(0), F(1)

    def __init__(self, *script):
        self.script = script
        self.scans = 0

    def expectation(self, sigma):
        return ValueBounds.point(F(0))

    def martingale_steps(self, sigma, x, horizon, start=1):
        self.scans += 1
        return map(ValueBounds.point, itertools.islice(itertools.chain(
            self.script, itertools.repeat(self.script[-1])), start - 1, None))


def scripted_game(a_script, b_script) -> GameSpec:
    return GameSpec(("a", "b"), {"a": ScriptedPayoff(*a_script),
                                 "b": ScriptedPayoff(*b_script)}, F(0), F(1))


class TestPurifyCommonIndex:
    """The common index is re-checked for every action: an action
    certified at a smaller index may fail there."""

    def test_action_failing_at_the_common_index_moves_it_on(self):
        # a is first certified at 1, b at 3; a fails at 3, both pass at 4
        game = scripted_game((0, 1, 1, 0), (1, 1, 0))
        res = purify(game, uniform_sigma(), F(1, 10), 8, F(1, 10**10))
        assert (res.n, res.attempt) == (4, 0)
        assert res.profile.switch_index == 4
        assert [(c.action, c.profile_value) for c in res.per_action] == [
            ("a", ValueBounds.point(F(0))), ("b", ValueBounds.point(F(0)))]
        # one scan per action serves both the search and the re-check
        assert [game.payoff(a).scans for a in game.actions] == [1, 1]

    def test_no_common_index_fails_with_its_diagnostic(self):
        # a passes at 1 only, b from 3 on: no index certifies both
        game = scripted_game((0, 1), (1, 1, 0))
        with pytest.raises(PurificationFailedError) as err:
            purify(game, uniform_sigma(), F(1, 10), 8, F(1, 10**10),
                   retries=2)
        assert err.value.diagnostics == [
            f"attempt {k}: no common index in [3, 8] certifies all actions"
            for k in range(2)]


class TestNamingGame:
    def test_uniform_value_is_half(self):
        assert naming_game_value(uniform_sigma()) == F(1, 2)

    def test_biased_coordinate_dominates(self):
        sigma = uniform_sigma(head_weights=(F(1, 2), F(1, 2), F(9, 10)))
        assert naming_game_value(sigma) == F(9, 10)

    def test_dirac_profile_value_one(self):
        sigma = ProductMeasure(binary_spaces(), (),
                               ConstantMeasureTail(bernoulli_measure(1, 1)))
        assert naming_game_value(sigma) == 1

    def test_geometric_tail_supremum_is_one(self):
        sigma = ProductMeasure(binary_spaces(), (),
                               formula_tail("geometric_bernoulli"))
        assert naming_game_value(sigma) == 1

    def test_nonbinary_rejected(self):
        from prodex.model import SpaceFamily, CoordinateMeasure
        spaces = SpaceFamily.uniform((0, 1, 2))
        third = CoordinateMeasure.from_weights(
            1, (0, 1, 2), (F(1, 3), F(1, 3), F(1, 3)))
        sigma = ProductMeasure(spaces, (), ConstantMeasureTail(third))
        with pytest.raises(ValidationError):
            naming_game_value(sigma)

    def test_nonbinary_head_coordinate_rejected(self):
        from prodex.model import CoordinateSpace, SpaceFamily
        spaces = SpaceFamily((CoordinateSpace(1, (0, 1, 2)),), (0, 1))
        head = (uniform_measure(1, (0, 1, 2)),)
        sigma = ProductMeasure(spaces, head, ConstantMeasureTail(
            uniform_measure(2, (0, 1))))
        with pytest.raises(ValidationError, match="coordinate 1 is not binary"):
            naming_game_value(sigma)

    def test_exploit_all_dirac_from_one(self):
        from prodex.model import DescribedPoint, PeriodicSymbols
        tau = HybridMeasure.dirac(
            DescribedPoint((0, 1, 0), PeriodicSymbols((0, 1))))
        assert naming_game_exploit(tau) == (1, 0)

    def test_exploit_names_switch_coordinate(self):
        sigma = uniform_sigma()
        head = tuple(uniform_measure(i, (0, 1)) for i in range(1, 6))
        tail = LazyPoint(77, sigma)
        tau = HybridMeasure(head, 6, tail)
        n, j = naming_game_exploit(tau)
        assert n == 6
        assert j == tail.coordinate(6)

    def test_fully_mixed_profile_rejected(self):
        with pytest.raises(NotFinitisticError):
            naming_game_exploit(uniform_sigma())

    def test_duality_separation(self):
        """Every finitistic profile is exploitable for exact payoff 1 while
        the uniform mixing profile caps all actions at 1/2."""
        sigma = uniform_sigma()
        assert naming_game_value(sigma) == F(1, 2)
        for j in range(25):
            sub = derive_seed(123, "naming", j)
            switch = 1 + (sub % 5)
            head = tuple(uniform_measure(i, (0, 1))
                         for i in range(1, switch))
            tau = HybridMeasure(head, switch, LazyPoint(sub, sigma))
            n, sym = naming_game_exploit(tau)
            # payoff of the naming action (n, sym) is exactly 1: the
            # indicator of coordinate n being sym has expectation 1
            table = {(s,): F(1) if s == sym else F(0) for s in (0, 1)}
            payoff = Cylinder(n, {
                key: table[(key[n - 1],)]
                for key in _binary_prefixes(n)
            })
            res = expect(payoff, tau, TOL)
            assert res.interval.is_point and res.interval.lo == 1


def _binary_prefixes(n):
    import itertools
    return itertools.product((0, 1), repeat=n)


class TestEventuallyPureMarkovDemo:
    """Infinite-duration decision problems: a Markov strategy is a product
    measure over stages, and a weak-zero certificate *is* an eventually
    pure Markov strategy (random at one stage, deterministic elsewhere)
    achieving the same expected payoff."""

    def test_one_stage_randomization_matches_fully_mixed_payoff(self):
        from prodex.tailclass import weak_zero_from_sample
        from conftest import discounted_unit

        payoff = discounted_unit()          # discounted infinite-horizon reward
        markov = uniform_sigma()            # randomizes at every stage
        target = expect(payoff, markov, TOL).midpoint
        cert = weak_zero_from_sample(payoff, markov, TOL, m=3, seed=17)
        # the certificate's strategy is eventually pure: one mixed stage
        assert len([w for w in cert.tau.weights if 0 < w < 1]) in (0, 2)
        assert cert.achieved == target
        # replaying it as a strategy profile reproduces the payoff exactly
        mixture = HybridMeasure(
            tuple(HybridMeasure.dirac(cert.point).coordinate_measure(i)
                  for i in range(1, cert.coordinate))
            + (cert.tau,),
            cert.coordinate + 1, cert.point)
        res = expect(payoff, mixture, TOL)
        assert res.interval.contains(target)
        assert res.width <= 2 * TOL
