"""Core model: spaces, measures, tail rules, points, hybrids."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.errors import NotTailEquivalentError, ValidationError
from prodex.harness import verify_strong
from prodex.model import (
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    CoordinateSpace,
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    ModifiedPoint,
    PeriodicMeasuresTail,
    PeriodicStream,
    PeriodicSymbols,
    ProductMeasure,
    SpaceFamily,
    TailMeasureRule,
    agreement_index,
    bernoulli_measure,
    dirac_measure,
    formula_tail,
    modify_point,
    point_coordinate,
    resolve_coordinate_measure,
    splice_prefix,
    uniform_measure,
)
from prodex.seeds import derive_seed, unit_bits, unit_fraction, unit_hasher

from conftest import (
    PROBS,
    all_ones_point,
    binary_spaces,
    const_bernoulli_tail,
    coordinate_measures,
    discounted_unit,
    lazy_product_measures,
    point_mass,
    product_measures,
    reference_coordinate,
    uniform_sigma,
    uniform_tail,
)

F = Fraction


class TestSpaces:
    def test_symbols_must_be_distinct(self):
        with pytest.raises(ValidationError):
            CoordinateSpace(1, (0, 0))

    def test_symbols_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            CoordinateSpace(1, ())

    def test_family_resolves_every_index(self):
        fam = SpaceFamily((CoordinateSpace(1, ("a", "b", "c")),), (0, 1))
        assert fam.space_at(1).symbols == ("a", "b", "c")
        assert fam.space_at(2).symbols == (0, 1)
        assert fam.space_at(10**6) is fam.space_at(2)

    def test_family_head_indices_checked(self):
        with pytest.raises(ValidationError):
            SpaceFamily((CoordinateSpace(2, (0, 1)),), (0, 1))


class TestCoordinateMeasure:
    def test_weights_sum_tolerance(self):
        # off by more than 1e-12: rejected, never renormalized
        with pytest.raises(ValidationError, match="coordinate 3"):
            CoordinateMeasure.from_weights(3, (0, 1), ("0.45", "0.45"))

    def test_weights_within_tolerance_accepted(self):
        m = CoordinateMeasure.from_weights(
            1, (0, 1), (F(1, 2), F(1, 2) + F(1, 10**13)))
        assert m.weight_of(1) > F(1, 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            CoordinateMeasure.from_weights(1, (0, 1), ("-0.5", "1.5"))

    def test_sampling_inverts_cdf(self):
        m = CoordinateMeasure.from_weights(1, ("a", "b", "c"),
                                           ("0.2", "0.5", "0.3"))
        assert m.sample(F(0)) == "a"
        assert m.sample(F(19, 100)) == "a"
        assert m.sample(F(2, 10)) == "b"
        assert m.sample(F(69, 100)) == "b"
        assert m.sample(F(7, 10)) == "c"
        assert m.sample(F(999, 1000)) == "c"

    def test_sample_skips_zero_weight(self):
        m = dirac_measure(1, (0, 1), 1)
        assert m.sample(F(0)) == 1


TOP = 2**64 - 1


def cdf_probes(m: CoordinateMeasure) -> set:
    """Draws k at both ends of [0, 2**64) and at every CDF threshold
    ceil(cum * 2**64) and its neighbours, thresholds taken in Fractions."""
    probes, cum = {0, TOP}, F(0)
    for w in m.weights:
        cum += w
        t = math.ceil(cum * 2**64)
        probes.update(k for k in (t - 1, t, t + 1) if 0 <= k <= TOP)
    return probes


class TestIntegerDraws:
    """`sample_bits(k)` against the Fraction CDF inversion `sample`."""

    @given(m=coordinate_measures(),
           extra=st.lists(st.integers(0, TOP), max_size=4))
    @settings(max_examples=100)
    def test_sample_bits_matches_fraction_cdf(self, m, extra):
        for k in sorted(cdf_probes(m) | set(extra)):
            assert m.sample_bits(k) == m.sample(F(k, 2**64)), k

    @given(sigma=st.one_of(lazy_product_measures(), product_measures()),
           seed=st.integers(0, TOP))
    @settings(max_examples=60)
    def test_lazy_coordinates_match_fraction_cdf(self, sigma, seed):
        x = LazyPoint(seed, sigma)
        for i in range(1, 71):
            assert x.coordinate(i) == reference_coordinate(x, i), i

    def test_short_sum_top_draw_takes_last_positive_symbol(self):
        # positive weights sum to 1 - 1e-13; the trailing symbol has none
        m = CoordinateMeasure(1, ("a", "b", "c", "d"),
                              (F(1, 2), F(0), F(1, 2) - F(1, 10**13), F(0)))
        assert m.sample_bits(TOP) == m.sample(F(TOP, 2**64)) == "c"
        assert m.sample_bits(0) == "a"

    def test_unit_fraction_wraps_unit_bits(self):
        for path in (("coord", 1), ("coord", 70), ("sample", 3, "x")):
            k = unit_bits(2024, *path)
            assert 0 <= k <= TOP
            assert unit_fraction(2024, *path) == F(k, 2**64)

    @given(seed=st.one_of(st.sampled_from([0, TOP]), st.integers(0, TOP)),
           i=st.one_of(st.just(1), st.integers(2, 10**4),
                       st.integers(2**64, 2**200)))
    @settings(max_examples=40)
    def test_point_hasher_draws_unit_bits(self, seed, i):
        h = unit_hasher(seed, "coord").copy()
        h.update(str(i).encode())
        k = unit_bits(seed, "coord", i)
        assert int.from_bytes(h.digest(), "little") == k
        sigma = uniform_sigma()
        assert LazyPoint(seed, sigma).coordinate(i) == \
            sigma.coordinate_measure(i).sample_bits(k)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, True, False])
    def test_seeds_outside_64_bits_are_rejected_not_aliased(self, seed):
        sigma = uniform_sigma()
        with pytest.raises(ValidationError):
            LazyPoint(seed, sigma)
        for draw in (derive_seed, unit_bits, unit_fraction, unit_hasher):
            with pytest.raises(ValidationError):
                draw(seed, "sample", 0)
        with pytest.raises(ValidationError):
            verify_strong(discounted_unit(), sigma, F(1, 10), 1, 4, seed=seed)

    def test_seed_range_ends_are_admitted(self):
        for seed in (0, TOP):
            LazyPoint(seed, uniform_sigma()).coordinate(1)
            assert 0 <= derive_seed(seed, "sample", 0) <= TOP


class TestResolveCoordinateMeasure:
    def test_geometric_bernoulli_weight(self, sigma_geometric):
        # weight on 1 at coordinate 3 is 1 - 2**-3 = 0.875
        m = resolve_coordinate_measure(sigma_geometric, 3)
        assert m.weight_of(1) == F(7, 8)
        assert m.weight_of(0) == F(1, 8)

    def test_head_lookup(self):
        sigma = uniform_sigma(head_weights=(F(1, 2),))
        m = resolve_coordinate_measure(sigma, 1)
        assert m.weight_of(1) == F(1, 2)

    def test_constant_dirac_tail_far_out(self):
        spaces = binary_spaces()
        tail = ConstantMeasureTail(dirac_measure(1, (0, 1), 0))
        sigma = ProductMeasure(spaces, (), tail)
        m = resolve_coordinate_measure(sigma, 10**6)
        assert m.weight_of(0) == 1 and m.weight_of(1) == 0

    @pytest.mark.parametrize("i", [1, 2, 5, 17, 60, 200])
    def test_vectors_always_sum_to_one(self, i, sigma_geometric):
        m = resolve_coordinate_measure(sigma_geometric, i)
        assert sum(m.weights) == 1

    def test_periodic_tail_cycles(self):
        spaces = binary_spaces()
        a = bernoulli_measure(1, F(1, 4))
        b = bernoulli_measure(1, F(3, 4))
        sigma = ProductMeasure(spaces, (), PeriodicMeasuresTail((a, b)))
        assert resolve_coordinate_measure(sigma, 1).weight_of(1) == F(1, 4)
        assert resolve_coordinate_measure(sigma, 2).weight_of(1) == F(3, 4)
        assert resolve_coordinate_measure(sigma, 7).weight_of(1) == F(1, 4)

    def test_head_measure_must_match_space(self):
        spaces = binary_spaces()
        bad = CoordinateMeasure.from_weights(1, (0, 2), ("0.5", "0.5"))
        with pytest.raises(ValidationError):
            ProductMeasure(spaces, (bad,), uniform_tail())

    @pytest.mark.parametrize("tail, coordinate", [
        # the three-symbol template first falls on a binary space at 4
        (PeriodicMeasuresTail((bernoulli_measure(1, F(1, 2)),
                               CoordinateMeasure.from_weights(
                                   1, (0, 1, 2), (F(1, 5), F(3, 10),
                                                  F(1, 2))))), 4),
        # the binary template misses the three-symbol space at 2
        (ConstantMeasureTail(bernoulli_measure(1, F(1, 2))), 2),
    ])
    def test_tail_must_match_every_space_it_covers(self, tail, coordinate):
        spaces = SpaceFamily((CoordinateSpace(1, (0, 1)),
                              CoordinateSpace(2, (0, 1, 2))), (0, 1))
        with pytest.raises(ValidationError, match=f"^coordinate {coordinate}:"):
            ProductMeasure(spaces, (), tail)

    def test_periodic_tail_past_more_explicit_spaces_than_measures(self):
        sigma = ProductMeasure(
            binary_spaces(head_count=3), (bernoulli_measure(1, F(3, 4)),),
            PeriodicMeasuresTail((bernoulli_measure(1, F(1, 2)),
                                  bernoulli_measure(1, F(9, 10)))))
        assert [sigma.coordinate_measure(i).weight_of(1)
                for i in range(1, 7)] == [F(3, 4), F(1, 2), F(9, 10),
                                          F(1, 2), F(9, 10), F(1, 2)]

    @settings(max_examples=40)
    @given(space_head=st.integers(0, 3), head=st.lists(PROBS, max_size=3),
           templates=st.lists(PROBS, min_size=1, max_size=4),
           offsets=st.lists(st.integers(0, 10**6), min_size=2, max_size=4))
    def test_tail_coordinates_share_their_template_and_space(
            self, space_head, head, templates, offsets):
        # the index is the caller's: no tail coordinate gets its own copy
        spaces = binary_spaces(head_count=space_head)
        sigma = ProductMeasure(
            spaces, tuple(bernoulli_measure(i, p)
                          for i, p in enumerate(head, start=1)),
            PeriodicMeasuresTail(tuple(bernoulli_measure(1, p)
                                       for p in templates)))
        p, first = len(templates), len(head) + 1
        for i in range(first, first + 3 * p):
            assert sigma.coordinate_measure(i) is sigma.coordinate_measure(i + p)
        tail_spaces = [spaces.space_at(space_head + 1 + off) for off in offsets]
        assert all(space is tail_spaces[0] for space in tail_spaces)
        x = all_ones_point()
        for n in range(1, first + 3 * p + 1):
            h = HybridMeasure.measures_then_point(sigma, x, n)
            for i in range(1, n):
                assert h.coordinate_measure(i) is sigma.coordinate_measure(i)

    def test_unregistered_formula_family(self):
        from prodex.errors import UnsupportedTailError
        with pytest.raises(UnsupportedTailError):
            formula_tail("no_such_family")

    def test_a_missing_closed_form_names_the_rule_class(self):
        from prodex.errors import UnsupportedTailError

        class Opaque(TailMeasureRule):
            pass

        rule, targets = Opaque(), PeriodicStream(1, (1,))
        for hook, message in [
                (lambda: rule.indicator_tail_product(targets, 0, 0),
                 "no product closed form"),
                (lambda: rule.mean_tail_sum(F(1), F(1, 2), abs, 0, 0),
                 "no mean closed form"),
                (lambda: rule.disagreement_bound(targets, 0, 0),
                 "no disagreement bound"),
                (rule.sup_weight_beyond, "no sup-weight closed form")]:
            with pytest.raises(UnsupportedTailError) as exc:
                hook()
            assert str(exc.value) == f"Opaque: {message}"


class TestPoints:
    def test_described_head_then_tail(self):
        p = DescribedPoint((1, 0), ConstantSymbol(1))
        assert point_coordinate(p, 1) == 1
        assert point_coordinate(p, 2) == 0
        assert point_coordinate(p, 500) == 1

    def test_periodic_tail(self):
        p = DescribedPoint((1,), PeriodicSymbols((0, 1, 1)))
        assert [point_coordinate(p, i) for i in range(1, 8)] == \
            [1, 0, 1, 1, 0, 1, 1]

    def test_lazy_degenerate_measure_forces_symbol(self):
        spaces = binary_spaces()
        sigma = ProductMeasure(
            spaces, (), ConstantMeasureTail(bernoulli_measure(1, 1)))
        x = LazyPoint(12345, sigma)
        assert all(point_coordinate(x, i) == 1 for i in (1, 7, 1000))

    def test_lazy_repeated_calls_identical(self, sigma_uniform):
        x = LazyPoint(99, sigma_uniform)
        first = [point_coordinate(x, i) for i in range(1, 30)]
        second = [point_coordinate(x, i) for i in range(1, 30)]
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lazy_realization_order_invariance(self, seed):
        sigma = uniform_sigma()
        a = LazyPoint(seed, sigma)
        b = LazyPoint(seed, sigma)
        forward = [point_coordinate(a, i) for i in (1, 2, 3, 4, 5)]
        backward = [point_coordinate(b, i) for i in (5, 4, 3, 2, 1)]
        assert forward == backward[::-1]

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy])
    def test_lazy_point_survives_pickle_and_deepcopy_after_draws(self, clone):
        sigma = uniform_sigma(head_weights=(F(1, 3), F(3, 4)))
        x = LazyPoint(2**64 - 1, sigma)
        drawn = [x.coordinate(i) for i in range(1, 40)]
        y = clone(x)
        assert (y.seed, y.measure) == (x.seed, x.measure)
        assert [y.coordinate(i) for i in range(1, 80)] == \
            drawn + [x.coordinate(i) for i in range(40, 80)]

    def test_lazy_points_follow_their_measure(self):
        # heavily biased coordinates: empirical frequency must reflect it
        sigma = ProductMeasure(binary_spaces(), (),
                               const_bernoulli_tail(F(99, 100)))
        x = LazyPoint(7, sigma)
        ones = sum(point_coordinate(x, i) for i in range(1, 201))
        assert ones >= 190

    def test_modify_described_stays_described(self):
        p = all_ones_point()
        q = modify_point(p, {2: 0, 5: 0})
        assert [point_coordinate(q, i) for i in range(1, 7)] == [1, 0, 1, 1, 0, 1]
        assert point_coordinate(q, 100) == 1

    def test_modify_described_keeps_periodic_tail_phase(self):
        # the tail rule is phased from the end of the head, so an
        # override past the head must not shift the periodic tail
        p = DescribedPoint((1,), PeriodicSymbols((0, 1, 1)))
        for overrides in ({1: 0}, {2: 1}, {4: 0}, {2: 0, 6: 0}):
            q = modify_point(p, overrides)
            for i in range(1, 20):
                want = overrides.get(i, point_coordinate(p, i))
                assert point_coordinate(q, i) == want

    def test_modify_lazy_overrides_only_named(self, sigma_uniform):
        x = LazyPoint(5, sigma_uniform)
        y = modify_point(x, {3: 1 - point_coordinate(x, 3)})
        assert point_coordinate(y, 3) != point_coordinate(x, 3)
        for i in (1, 2, 4, 5, 20):
            assert point_coordinate(y, i) == point_coordinate(x, i)

    def test_modify_modified_keeps_every_override(self, sigma_uniform):
        # an override equal to the base's own symbol is kept: it is part of
        # what a lazily sampled point is read to
        x = LazyPoint(5, sigma_uniform)
        y = modify_point(x, {2: 1 - point_coordinate(x, 2), 4: 0})
        z = modify_point(y, {2: point_coordinate(x, 2)})
        assert isinstance(z, ModifiedPoint)
        assert [i for i, _ in z.overrides] == [2, 4]
        assert all(point_coordinate(z, i) == point_coordinate(x, i)
                   for i in (1, 2, 3, 5, 20))
        assert point_coordinate(z, 4) == 0

    @given(seed=st.integers(0, 2**32),
           layers=st.lists(st.dictionaries(st.integers(1, 30),
                                           st.sampled_from([0, 1, "a"]),
                                           min_size=1, max_size=8),
                           min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_modified_coordinate_matches_override_scan(self, seed, layers):
        # oracle: the first override naming i in each layer's sorted
        # tuple, else the layer below
        def scanned(p, i):
            while isinstance(p, ModifiedPoint):
                hit = [sym for idx, sym in p.overrides if idx == i]
                if hit:
                    return hit[0]
                p = p.base
            return p.coordinate(i)

        x = LazyPoint(seed, uniform_sigma())
        for overrides in layers:
            x = ModifiedPoint(x, tuple(sorted(overrides.items())))
        for i in range(1, 33):
            assert x.coordinate(i) == scanned(x, i)

    def test_splice_prefix(self):
        x = all_ones_point()
        y = modify_point(x, {1: 0, 2: 0, 3: 0})
        z2 = splice_prefix(x, y, 3)  # y_1, y_2, then x
        assert [point_coordinate(z2, i) for i in (1, 2, 3, 4)] == [0, 0, 1, 1]


class TestAgreementIndex:
    def test_described_pair(self):
        x = DescribedPoint((0, 0), ConstantSymbol(0))
        y = DescribedPoint((1, 1), ConstantSymbol(0))
        assert agreement_index(x, y) == 2

    def test_identical_points(self):
        x = all_ones_point()
        assert agreement_index(x, x) == 0

    def test_same_lazy_base_modifications(self, sigma_uniform):
        x = LazyPoint(11, sigma_uniform)
        a = modify_point(x, {2: 0})
        b = modify_point(x, {4: 1})
        n = agreement_index(a, b)
        assert n <= 4
        assert all(point_coordinate(a, i) == point_coordinate(b, i)
                   for i in range(n + 1, n + 40))

    def test_eventually_different_tails_rejected(self):
        x = DescribedPoint((), ConstantSymbol(0))
        y = all_ones_point()
        with pytest.raises(NotTailEquivalentError):
            agreement_index(x, y)

    def test_unrelated_lazy_points_rejected(self, sigma_uniform):
        with pytest.raises(NotTailEquivalentError):
            agreement_index(LazyPoint(1, sigma_uniform),
                            LazyPoint(2, sigma_uniform))

    def test_periodic_vs_constant_tail(self):
        x = DescribedPoint((), PeriodicSymbols((1, 1)))
        y = DescribedPoint((0,), ConstantSymbol(1))
        assert agreement_index(x, y) == 1


class TestHybridMeasure:
    def test_switch_index_consistency(self, sigma_uniform):
        x = all_ones_point()
        with pytest.raises(ValidationError, match="1 head measures for "
                                                  "switch index 1"):
            HybridMeasure((uniform_measure(1, (0, 1)),), 1, x)

    def test_measures_then_point(self, sigma_uniform):
        x = all_ones_point()
        h = HybridMeasure.measures_then_point(sigma_uniform, x, 3)
        # the head is sigma's own memoized measures
        assert len(h.head) == 2
        assert all(m is sigma_uniform.coordinate_measure(i)
                   for i, m in enumerate(h.head, start=1))
        assert h.coordinate_measure(3) == point_mass(3, 1)

    def test_dirac_is_switch_one(self):
        h = HybridMeasure.dirac(all_ones_point())
        assert h.switch_index == 1 and h.head == ()
        assert h.coordinate_measure(1) == point_mass(1, 1)

    def test_coordinate_measure_of_each_kind_of_coordinate(self):
        head_measure = bernoulli_measure(1, F(1, 3))
        y = DescribedPoint((1, 0), ConstantSymbol(1))
        pinned = point_mass(2, y.coordinate(2))
        h = HybridMeasure((head_measure, pinned), 3, all_ones_point())
        # a head coordinate gives its own measure, a pinned one included
        assert h.coordinate_measure(1) is head_measure
        assert h.coordinate_measure(2) is pinned
        # from the switch on, the one-point measure on the tail point's
        # symbol, not the whole space with zero weights
        for i in (3, 4, 50):
            assert h.coordinate_measure(i) == CoordinateMeasure(
                i, (1,), (F(1),))
        for i in (0, -1):
            with pytest.raises(ValidationError, match="must be >= 1"):
                h.coordinate_measure(i)

    def test_coordinate_measure_reads_a_lazy_tail_point(self, sigma_uniform):
        x = LazyPoint(7, sigma_uniform)
        h = HybridMeasure.measures_then_point(sigma_uniform, x, 3)
        for i in (1, 2):
            assert h.coordinate_measure(i) is sigma_uniform.coordinate_measure(i)
        for i in range(3, 12):
            m = h.coordinate_measure(i)
            assert (m.space_index, m.symbols, m.weights) == (
                i, (x.coordinate(i),), (F(1),))
