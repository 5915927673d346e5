"""Acceptance gate: one test per criterion, one printed line each.

Every expected value is pinned against an independent oracle computed
in-test (exact partial products, closed-form geometric sums, brute-force
enumeration).  Decimal literals quoted at 10 digits are checked to their
print precision; rational checks are exact.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from prodex.engine import exact_expectation_product_indicator, expect
from prodex.functions import Cylinder
from prodex.games import naming_game_exploit, naming_game_value, purify
from prodex.harness import verify_strong, verify_weak
from prodex.martingale import find_strong_approx, g_n, trace
from prodex.model import (
    HybridMeasure,
    LazyPoint,
    modify_point,
    uniform_measure,
)
from prodex.scenario import load_scenario
from prodex.seeds import derive_seed
from prodex.tailclass import weak_zero_from_sample

from conftest import (
    all_ones_point,
    geometric_indicator_envelope,
    partial_product,
    uniform_sigma,
)
from test_engine import random_product_measure

F = Fraction
TOL = F(1, 10**9)

#: master seed for every randomized acceptance campaign
ACCEPTANCE_SEED = 20240

QUOTED_EXPECTATION = F("0.2887880951")  # 10-digit rounding of E
PRINT_PRECISION = F(1, 10**10)


@contextmanager
def criterion(capsys, num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_1_expectation_oracle_agreement(capsys):
    with criterion(capsys, 1, "certified expectation matches the "
                             "partial-product oracle"):
        start = time.perf_counter()
        sc = load_scenario("example-3-4")
        res = expect(sc.function, sc.measure, F(1, 2 * 10**9))
        elapsed = time.perf_counter() - start
        assert res.certified
        assert res.width <= F(1, 10**9)
        # independent oracle: 60 explicit factors, remainder in [1-2**-60, 1]
        lo, hi = geometric_indicator_envelope(60)
        assert res.interval.lo <= hi and lo <= res.interval.hi
        # the quoted 10-digit value is reproduced to its print precision
        distance = max(res.interval.lo - QUOTED_EXPECTATION,
                       QUOTED_EXPECTATION - res.interval.hi, F(0))
        assert distance <= PRINT_PRECISION
        assert elapsed <= 1.0


def test_criterion_2_strong_witness_and_exact_trace(capsys):
    with criterion(capsys, 2, "Found(6) at epsilon 0.01; trace equals exact "
                              "partial products; positive gap up to n=50"):
        sc = load_scenario("example-3-4")
        x = sc.point("all-ones")
        res = find_strong_approx(sc.function, sc.measure, x, F(1, 100), 60,
                                 TOL)
        assert res.is_found and res.n == 6

        tr = trace(sc.function, sc.measure, x, 8, TOL)
        for entry in tr.entries:
            expected = F(1) if entry.n == 1 else partial_product(entry.n - 1)
            assert entry.interval.is_point
            assert abs(entry.interval.lo - expected) <= F(1, 10**12)
            assert entry.interval.lo == expected  # exact rational check

        # strictly positive gap certifies that no index reproduces E exactly
        upper = geometric_indicator_envelope(120)[1]
        for n in range(1, 51):
            gn = g_n(sc.function, sc.measure, x, n, TOL)
            assert gn.interval.lo - upper > 0


def test_criterion_3_measure_one_campaigns(capsys):
    with criterion(capsys, 3, "verify-strong: discounted 1000/1000 within "
                              "n<=5; geometric fraction >= 0.98, eta <= 1e-6"):
        start = time.perf_counter()
        sd = load_scenario("discounted-uniform")
        rep = verify_strong(sd.function, sd.measure, F(1, 10), 1000, 10, TOL,
                            seed=ACCEPTANCE_SEED)
        assert rep.certified_fraction == 1
        assert all(r.detail <= 5 for r in rep.records)

        se = load_scenario("example-3-4")
        rep2 = verify_strong(se.function, se.measure, F(1, 100), 1000, 60,
                             TOL, seed=ACCEPTANCE_SEED, horizon=60)
        assert rep2.certified_fraction >= F(98, 100)
        assert rep2.max_eta <= F(1, 10**6)
        assert time.perf_counter() - start <= 60.0


def test_criterion_4_weak_zero_certificates(capsys):
    with criterion(capsys, 4, "500 seeded certificates exact; verify-weak "
                              "on the 0.7/0.3 cylinder certifies 1.0"):
        start = time.perf_counter()
        for name, depth, count in (("cylinder-mix", 2, 250),
                                   ("cylinder-threshold", 3, 250)):
            sc = load_scenario(name)
            r = expect(sc.function, sc.measure, TOL).midpoint
            for run in range(count):
                cert = weak_zero_from_sample(
                    sc.function, sc.measure, TOL, depth,
                    seed=derive_seed(ACCEPTANCE_SEED, name, run))
                assert 0 <= cert.alpha <= 1
                assert len(cert.tau.support()) <= 2
                assert cert.achieved == r
                mixed = (cert.alpha * cert.value_low
                         + (1 - cert.alpha) * cert.value_high)
                assert abs(mixed - r) <= F(1, 10**12)

        sm = load_scenario("cylinder-mix")
        rep = verify_weak(sm.function, sm.measure, 2, 500, TOL,
                          seed=ACCEPTANCE_SEED)
        assert rep.certified_fraction == 1
        assert time.perf_counter() - start <= 30.0


def test_criterion_5_purification_guarantee(capsys):
    with criterion(capsys, 5, "purify returns finitistic profiles; "
                              "per-action payoff rise capped by epsilon"):
        start = time.perf_counter()
        for name in ("purify-demo", "purify-demo-quad"):
            sc = load_scenario(name)
            eps = F(sc.defaults["epsilon"])
            res = purify(sc.game, sc.measure, eps, int(sc.defaults["n_max"]),
                         F(1, 10**10), seed=ACCEPTANCE_SEED)
            assert res.profile.switch_index == res.n
            # post-hoc recertification with two fresh engine calls per action
            for action in sc.game.actions:
                f = sc.game.payoff(action)
                original = expect(f, sc.measure, TOL)
                purified = expect(f, res.profile, TOL)
                assert purified.interval.hi <= original.interval.lo + eps
        assert time.perf_counter() - start <= 10.0


def test_criterion_6_naming_game_separation(capsys):
    with criterion(capsys, 6, "mixing value exactly 1/2; 100 finitistic "
                              "profiles exploited for payoff 1"):
        start = time.perf_counter()
        sc = load_scenario("naming-game")
        assert naming_game_value(sc.measure) == F(1, 2)
        for j in range(100):
            sub = derive_seed(ACCEPTANCE_SEED, "naming", j)
            switch = 1 + (sub % 6)
            head = tuple(uniform_measure(i, (0, 1))
                         for i in range(1, switch))
            tau = HybridMeasure(head, switch, LazyPoint(sub, sc.measure))
            n, sym = naming_game_exploit(tau)
            payoff = Cylinder(n, {
                key: F(1) if key[n - 1] == sym else F(0)
                for key in itertools.product((0, 1), repeat=n)
            })
            res = expect(payoff, tau, TOL)
            assert res.interval.is_point and res.interval.lo == 1
        assert time.perf_counter() - start <= 5.0


def test_criterion_7_engine_soundness_suite(capsys):
    with criterion(capsys, 7, "oracle containment on 50 random measures per "
                              "family; martingale step and tower identities"):
        from conftest import discounted_unit, indicator_all_ones
        for trial in range(50):
            sigma = random_product_measure(trial + 5000)
            f = indicator_all_ones()
            oracle = exact_expectation_product_indicator(f, sigma)
            generic = expect(f, sigma, F(1, 100), node_budget=3000,
                             use_oracle=False)
            assert generic.interval.lo <= oracle.lo
            assert oracle.hi <= generic.interval.hi

            g = discounted_unit()
            doracle = expect(g, sigma, TOL)
            dgeneric = expect(g, sigma, F(1, 50), use_oracle=False)
            assert dgeneric.interval.lo <= doracle.interval.lo
            assert doracle.interval.hi <= dgeneric.interval.hi

        # reverse-martingale step and tower property on a cylinder scenario
        f = Cylinder.from_callable(
            [(0, 1)] * 3,
            lambda a, b, c: F(1, 2) * a + F(1, 4) * b + F(1, 4) * c)
        sigma = uniform_sigma(head_weights=(F(2, 5), F(1, 2), F(3, 5)))
        x = all_ones_point()
        for n in range(1, 7):
            m = sigma.coordinate_measure(n)
            mixed = sum(
                (m.weight_of(t) * g_n(f, sigma, modify_point(x, {n: t}), n,
                                      TOL).interval.midpoint
                 for t in (0, 1)), F(0))
            step = g_n(f, sigma, x, n + 1, TOL).interval.midpoint
            assert abs(step - mixed) <= 4 * TOL
        for n in range(1, 5):
            from prodex.model import ConstantSymbol, DescribedPoint
            entries = [
                (combo, g_n(f, sigma,
                            DescribedPoint(combo, ConstantSymbol(0)), n,
                            TOL).interval.midpoint)
                for combo in itertools.product((0, 1), repeat=3)
            ]
            h = Cylinder.from_entries(3, entries)
            lhs = expect(h, sigma, TOL).interval.midpoint
            rhs = expect(f, sigma, TOL).interval.midpoint
            assert abs(lhs - rhs) <= 4 * TOL
