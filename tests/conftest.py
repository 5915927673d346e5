"""Shared builders for the test suite.

Expected values in the tests are frozen from independent oracles
(partial products, enumeration, closed-form geometric sums) computed
here or inline, never from the code paths under test.
"""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from prodex.errors import UnsupportedTailError, ValidationError
from prodex.functions import (
    DEFAULT_HORIZON,
    Cylinder,
    DiscountedSum,
    GeometricWeights,
    ProductIndicator,
    ValueBounds,
)
from prodex.model import (
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    DescribedPoint,
    LazyPoint,
    ModifiedPoint,
    PeriodicMeasuresTail,
    PeriodicSymbols,
    ProductMeasure,
    SpaceFamily,
    _root_of,
    dirac_measure,
    formula_tail,
    modify_point,
    streams_eventually_equal,
    uniform_measure,
)
from prodex.seeds import unit_fraction

F = Fraction

# The same examples on every run, and no per-example time limit: wall
# time on a shared machine says nothing about correctness.
settings.register_profile("prodex", derandomize=True, deadline=None)
settings.load_profile("prodex")


def binary_spaces(head_count: int = 0) -> SpaceFamily:
    return SpaceFamily.uniform((0, 1), head_count)


def point_mass(i: int, symbol) -> CoordinateMeasure:
    """The one-point measure on `symbol` at coordinate i: how a hybrid
    measure pins a coordinate."""
    return CoordinateMeasure(i, (symbol,), (F(1),))


def uniform_tail() -> ConstantMeasureTail:
    return ConstantMeasureTail(uniform_measure(1, (0, 1)))


def const_bernoulli_tail(p_one) -> ConstantMeasureTail:
    p = F(p_one)
    return ConstantMeasureTail(
        CoordinateMeasure.from_weights(1, (0, 1), (1 - p, p)))


def uniform_sigma(head_weights=()) -> ProductMeasure:
    """Binary product measure: given head Bernoulli(p) weights, uniform tail."""
    spaces = binary_spaces()
    head = tuple(
        CoordinateMeasure.from_weights(i, (0, 1), (1 - F(p), F(p)))
        for i, p in enumerate(head_weights, start=1)
    )
    return ProductMeasure(spaces, head, uniform_tail())


def geometric_sigma() -> ProductMeasure:
    """sigma_i puts 1 - 2**-i on symbol 1 at every coordinate."""
    return ProductMeasure(binary_spaces(), (), formula_tail("geometric_bernoulli"))


def indicator_all_ones(spaces=None) -> ProductIndicator:
    return ProductIndicator(spaces or binary_spaces(), (), ConstantSymbol(1))


def mix_cylinder() -> Cylinder:
    """f(x) = 0.7*x1 + 0.3*x2 over binary coordinates."""
    return Cylinder.from_callable(
        [(0, 1), (0, 1)], lambda a, b: F(7, 10) * a + F(3, 10) * b)


def discounted_unit() -> DiscountedSum:
    """f(x) = sum_i 2**-i * x_i."""
    return DiscountedSum(GeometricWeights.of(1, F(1, 2)), {0: 0, 1: 1})


def all_ones_point() -> DescribedPoint:
    return DescribedPoint((), ConstantSymbol(1))


def all_zeros_point() -> DescribedPoint:
    return DescribedPoint((), ConstantSymbol(0))


def partial_product(n: int) -> Fraction:
    """Independent oracle: prod_{i=1}^{n} (1 - 2**-i), exact."""
    return prod((F(2**i - 1, 2**i) for i in range(1, n + 1)), start=F(1))


def geometric_indicator_envelope(terms: int = 60):
    """Independent enclosure of prod_{i=1}^{inf} (1 - 2**-i).

    The remaining factors beyond `terms` lie in [1 - 2**-terms, 1].
    """
    p = partial_product(terms)
    return p * (1 - F(1, 2**terms)), p


def enumerated_hull(f, x, m, spaces, horizon=DEFAULT_HORIZON):
    """Independent oracle: (lo, hi, eta) of f over all |space|**m
    modifications of coordinates 1..m of x, each one evaluated."""
    symbol_lists = [spaces.space_at(i).symbols for i in range(1, m + 1)]
    values, eta = [], F(0)
    for combo in itertools.product(*symbol_lists):
        vb = f.eval_soft(modify_point(x, dict(enumerate(combo, start=1))),
                         horizon=horizon)
        values.append(vb.midpoint)
        eta = max(eta, vb.eta)
    return min(values), max(values), eta


def reference_weighted_scores(f: DiscountedSum, first: int, symbols) -> Fraction:
    """Independent oracle: sum_t w_{first+t} * score(symbols[t]) as a
    running Fraction sum, each weight one multiplication from the last."""
    total = F(0)
    w = f.weights.weight_at(first)
    for s in symbols:
        total += w * f.score_of(s)
        w *= f.weights.ratio
    return total


def reference_cylinder_sum(f: Cylinder, mu, horizon=None):
    """Independent oracle: (lo, hi) of E_mu[f] for a cylinder, in Fractions.

    Coordinates 1..k, k = min(switch - 1, depth), are integrated out and
    the rest are matched on the pinned point, row by row; each group of
    rows sharing a k-prefix adds the prefix weight, a plain product of
    Fraction weights, times the group's min and max.  Raises
    ValidationError when the rows miss mass.
    """
    switch = mu.switch_index
    k = f.depth if switch is None else min(switch - 1, f.depth)
    pins = {}
    if k < f.depth:
        pins = f.pinned_coordinates(
            mu.tail_point, k + 1,
            DEFAULT_HORIZON if horizon is None else horizon)
    groups = {}
    for key, value in f.table.items():
        if any(key[i - 1] != sym for i, sym in pins.items()):
            continue
        seen = groups.setdefault(key[:k], [value, value])
        seen[0], seen[1] = min(seen[0], value), max(seen[1], value)
    weights = [dict(mu.coordinate_measure(i).items())
               for i in range(1, k + 1)]
    lo = hi = covered = F(0)
    for prefix, (vlo, vhi) in groups.items():
        w = prod((weights[j].get(sym, F(0)) for j, sym in enumerate(prefix)),
                 start=F(1))
        covered += w
        lo += w * vlo
        hi += w * vhi
    if covered != prod((sum(w.values(), F(0)) for w in weights), start=F(1)):
        raise ValidationError("cylinder rows miss positive mass")
    return lo, hi


def reference_discounted_sum(f: DiscountedSum, mu, horizon=None):
    """Independent oracle: E_mu[f] of a discounted sum under a hybrid mu.

    A running Fraction sum, weight w_i = coef * ratio**i: w_i E_i[score]
    for each coordinate i below the switch, then w_i score(x_i) for each
    coordinate of the pinned point x read one by one from the switch on,
    then the rest past the last read: per symbol of x's periodic stream in
    closed form, or, for a point without one (read as far as the horizon
    and its overrides), the remaining weight times the score range.
    """
    n, x = mu.switch_index, mu.tail_point
    coef, ratio = f.weights.coef, f.weights.ratio
    total = F(0)
    for i in range(1, n):
        mean = sum((p * f.scores[s] for s, p in mu.coordinate_measure(i).items()
                    if p), F(0))
        total += coef * ratio**i * mean
    stream = x.eventual_stream()
    if stream is None:
        h = DEFAULT_HORIZON if horizon is None else horizon
        last = max(n - 1, h, _root_of(x)[1])
    else:
        last = max(n - 1, stream.start - 1)
    total += reference_weighted_scores(
        f, n, [x.coordinate(i) for i in range(n, last + 1)])
    if stream is None:
        rest = coef * ratio**(last + 1) / (1 - ratio)
        return ValueBounds(total + rest * min(f.scores.values()),
                           total + rest * max(f.scores.values()))
    period = len(stream.symbols)
    for i in range(last + 1, last + period + 1):
        total += (f.scores[stream.symbol_at(i)]
                  * coef * ratio**i / (1 - ratio**period))
    return ValueBounds(total, total)


def reference_indicator(f: ProductIndicator, mu, horizon=None):
    """Independent oracle: E_mu[f] of a product indicator under a hybrid
    mu: prod_{i < switch} mu_i(target_i), a plain Fraction product, times
    the enclosure that the pinned point hits every target from the switch
    on (`_reference_tail_match`, as deep as `f.read_horizon` reads), which
    is not read once the product is 0."""
    n, x = mu.switch_index, mu.tail_point
    product = prod((dict(mu.coordinate_measure(i).items()).get(
        f.target_at(i), F(0)) for i in range(1, n)), start=F(1))
    if product == 0:
        return ValueBounds(F(0), F(0))
    match = _reference_tail_match(f, x, n, f.read_horizon(x, horizon))
    return ValueBounds(product * match.lo, product * match.hi, match.eta)


def reference_cylinder_bounds(f: Cylinder, prefix, rest=None, rest_from=None,
                              horizon=DEFAULT_HORIZON):
    """Independent oracle: (lo, hi) of a cylinder over the rows that agree
    with `prefix` and with the coordinates of `rest` the table is matched
    on, from rest_from (past the prefix) on, by a Fraction row scan."""
    m = len(prefix)
    pinned = {}
    if rest is not None and m < f.depth:
        start = m + 1 if rest_from is None else max(rest_from, m + 1)
        pinned = f.pinned_coordinates(rest, start, horizon)
    values = [value for key, value in f.table.items()
              if key[:m] == tuple(prefix)[:f.depth]
              and all(key[i - 1] == sym for i, sym in pinned.items())]
    if not values:
        raise ValidationError(f"no row agrees with prefix {prefix!r}")
    return min(values), max(values)


def reference_bounds_over(f, prefix, rest=None, rest_from=None,
                          horizon=DEFAULT_HORIZON) -> ValueBounds:
    """Independent oracle: `bounds_over` of a built-in family, computed
    from scratch for this one prefix: the prefix checked one target at a
    time, the rest read anew, the head summed as a running Fraction and
    a cylinder by `reference_cylinder_bounds`."""
    m = len(prefix)
    start = m + 1 if rest_from is None else max(rest_from, m + 1)
    if isinstance(f, Cylinder):
        return ValueBounds(*reference_cylinder_bounds(f, prefix, rest,
                                                      rest_from, horizon))
    if isinstance(f, DiscountedSum):
        lo = hi = reference_weighted_scores(f, 1, prefix)
        if rest is None:
            dlo, dhi = f._spread(f.weights.tail_sum(m))
            return ValueBounds(lo + dlo, hi + dhi)
        window_mass = f.weights.tail_sum(m) - f.weights.tail_sum(start - 1)
        wlo, whi = f._spread(window_mass)
        rlo, rhi = f._rest_bounds(rest, start, horizon)
        return ValueBounds(lo + wlo + rlo, hi + whi + rhi)
    assert isinstance(f, ProductIndicator)
    for i, sym in enumerate(prefix, start=1):
        if sym != f.target_at(i):
            return ValueBounds.point(0)
    if rest is None:
        deviation = f.spaces.any_alternatives_beyond(m)
        return ValueBounds(F(0) if deviation else F(1), F(1))
    free_deviation = any(
        f.spaces.space_at(i).size >= 2 for i in range(m + 1, start))
    match = _reference_tail_match(f, rest, start, horizon)
    if match.hi == 0:
        return match
    if free_deviation:
        return ValueBounds(F(0), F(1))
    return match


def _reference_tail_match(f: ProductIndicator, rest, start, horizon):
    """[every coordinate >= start of rest hits its target], reading each
    coordinate and each target one by one up to the read depth."""
    k = max(start - 1, f._read_depth(rest, horizon))
    for i in range(start, k + 1):
        if rest.coordinate(i) != f.target_at(i):
            return ValueBounds.point(0)
    stream = rest.eventual_stream()
    if stream is not None:
        hit = streams_eventually_equal(stream, f.targets_stream())
        return ValueBounds.point(1 if hit else 0)
    root = _root_of(rest)[0]
    if not isinstance(root, LazyPoint):
        return ValueBounds(F(0), F(1))
    measure, eta = root.measure, F(0)
    boundary = max(k, measure.head_len)
    for i in range(k + 1, boundary + 1):
        eta += 1 - measure.coordinate_measure(i).weight_of(f.target_at(i))
    try:
        eta += measure.tail.disagreement_bound(
            f.targets_stream(), boundary, measure.head_len)
    except UnsupportedTailError:
        return ValueBounds(F(0), F(1))
    return ValueBounds(F(1), F(1), min(eta, F(1)))


def reference_coordinate(x: LazyPoint, i: int):
    """Independent oracle: coordinate i of a lazy point, by inverting the
    Fraction CDF of its measure at the dyadic draw k / 2**64."""
    u = unit_fraction(x.seed, "coord", i)
    return x.measure.coordinate_measure(i).sample(u)


@pytest.fixture
def sigma_uniform():
    return uniform_sigma()


@pytest.fixture
def sigma_geometric():
    return geometric_sigma()


# ---------------------------------------------------------------------------
# Hypothesis strategies: binary product measures, points and functions
# ---------------------------------------------------------------------------

PROBS = st.sampled_from([F(0), F(1, 4), F(1, 2), F(2, 3), F(1)])
BITS = st.sampled_from([0, 1])


def bernoulli(i, p):
    return CoordinateMeasure.from_weights(i, (0, 1), (1 - p, p))


@st.composite
def product_measures(draw):
    head = tuple(bernoulli(i, p) for i, p in
                 enumerate(draw(st.lists(PROBS, max_size=3)), start=1))
    probe = len(head) + 1
    kind = draw(st.sampled_from(["constant", "periodic", "geometric"]))
    if kind == "constant":
        tail = ConstantMeasureTail(bernoulli(probe, draw(PROBS)))
    elif kind == "periodic":
        tail = PeriodicMeasuresTail(tuple(
            bernoulli(probe, p)
            for p in draw(st.lists(PROBS, min_size=1, max_size=3))))
    else:
        tail = formula_tail("geometric_bernoulli")
    return ProductMeasure(binary_spaces(), head, tail)


@st.composite
def coordinate_measures(draw, symbols=None, index=1):
    """A measure on 1..5 symbols with random, often non-dyadic weights,
    some of them zero, whose sum is off from 1 by up to 1e-12."""
    if symbols is None:
        symbols = tuple(range(draw(st.integers(1, 5))))
    counts = draw(st.lists(st.integers(0, 12), min_size=len(symbols),
                           max_size=len(symbols)).filter(any))
    weights = [F(c, sum(counts)) for c in counts]
    last = max(j for j, c in enumerate(counts) if c)
    weights[last] += F(draw(st.integers(-10, 10)), 10**13)
    return CoordinateMeasure(index, tuple(symbols), tuple(weights))


@st.composite
def lazy_product_measures(draw):
    """A product measure over 1..5 symbols: up to three random head
    measures, then a constant or periodic tail of random measures."""
    symbols = tuple(range(draw(st.integers(1, 5))))
    head = tuple(draw(coordinate_measures(symbols, i))
                 for i in range(1, draw(st.integers(0, 3)) + 1))
    templates = tuple(draw(st.lists(coordinate_measures(symbols),
                                    min_size=1, max_size=3)))
    return ProductMeasure(SpaceFamily.uniform(symbols), head,
                          PeriodicMeasuresTail(templates))


@st.composite
def symbol_rules(draw):
    symbols = draw(st.lists(BITS, min_size=1, max_size=3))
    if len(symbols) == 1:
        return ConstantSymbol(symbols[0])
    return PeriodicSymbols(tuple(symbols))


@st.composite
def points(draw, sigma):
    kind = draw(st.sampled_from(["described", "lazy", "modified"]))
    if kind == "lazy" or (kind == "modified" and draw(st.booleans())):
        base = LazyPoint(draw(st.integers(0, 2**32)), sigma)
    else:
        base = DescribedPoint(tuple(draw(st.lists(BITS, max_size=4))),
                              draw(symbol_rules()))
    if kind != "modified":
        return base
    overrides = draw(st.dictionaries(st.integers(1, 12), BITS,
                                     min_size=1, max_size=3))
    return ModifiedPoint(base, tuple(sorted(overrides.items())))


@st.composite
def discounted_sums(draw):
    scores = st.sampled_from([F(-1), F(0), F(1, 2), F(2)])
    weights = GeometricWeights.of(draw(st.sampled_from([1, F(1, 2), 3])),
                                  draw(st.sampled_from([F(1, 2), F(1, 3),
                                                        F(3, 4)])))
    return DiscountedSum(weights, {0: draw(scores), 1: draw(scores)})


@st.composite
def product_indicators(draw, max_head=3, tails=symbol_rules()):
    return ProductIndicator(binary_spaces(),
                            tuple(draw(st.lists(BITS, max_size=max_head))),
                            draw(tails))


@st.composite
def cylinders(draw):
    """A binary cylinder of depth 1..6 over a full table; few distinct
    values, so that ties are common."""
    depth = draw(st.integers(1, 6))
    rows = itertools.product((0, 1), repeat=depth)
    return Cylinder(depth, {row: F(draw(st.integers(0, 6)), 2) for row in rows})


@st.composite
def table_measures(draw, symbols, index):
    """A coordinate measure as the integer table walks meet it: random
    rational weights (some zero, masses up to 1e-12 off 1), weights
    converted from floats (power-of-two denominators near 2**53), or a
    Dirac measure."""
    kind = draw(st.sampled_from(["rational", "float", "dirac"]))
    if kind == "rational":
        return draw(coordinate_measures(symbols, index))
    if kind == "dirac":
        return dirac_measure(index, symbols, draw(st.sampled_from(symbols)))
    counts = draw(st.lists(st.integers(0, 12), min_size=len(symbols),
                           max_size=len(symbols)).filter(any))
    return CoordinateMeasure(index, tuple(symbols),
                             tuple(F(c / sum(counts)) for c in counts))


#: table values over unlike denominators, so their lcm is a real product
TABLE_VALUES = (st.builds(F, st.integers(-60, 60),
                          st.sampled_from([1, 2, 3, 7, 10, 100, 2**53]))
                | st.floats(-4, 4).map(F))


#: phases of the properties over `table_walk_setups`: shrinking their
#: tables of long rationals can take minutes, so a failure is reported
#: as first found
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def table_walk_setups(draw):
    """(sigma, f): a product measure of `table_measures` over symbols
    0..arity-1 and a full cylinder table of `TABLE_VALUES` over them.
    Binary cylinders stop at depth 6 and ternary ones at depth 4."""
    arity = draw(st.sampled_from([2, 3]))
    symbols = tuple(range(arity))
    depth = draw(st.integers(1, 6 if arity == 2 else 4))
    head = tuple(draw(table_measures(symbols, i))
                 for i in range(1, draw(st.integers(0, depth + 1)) + 1))
    tail = ConstantMeasureTail(draw(table_measures(symbols, len(head) + 1)))
    sigma = ProductMeasure(SpaceFamily.uniform(symbols), head, tail)
    f = Cylinder(depth, {row: draw(TABLE_VALUES)
                         for row in itertools.product(symbols, repeat=depth)})
    return sigma, f


@st.composite
def partial_tables(draw, f: Cylinder):
    """`f` keeping a nonempty subset of its rows."""
    keep = draw(st.lists(st.booleans(), min_size=len(f.table),
                         max_size=len(f.table)).filter(any))
    return Cylinder(f.depth, {k: v for (k, v), kept
                              in zip(f.table.items(), keep) if kept})


@st.composite
def tail_points(draw, sigma, arity):
    """A lazy, a described and a modified point over symbols 0..arity-1."""
    symbols = st.integers(0, arity - 1)
    lazy = LazyPoint(draw(st.integers(0, 2**32)), sigma)
    tail = draw(st.lists(symbols, min_size=1, max_size=2))
    rule = (ConstantSymbol(tail[0]) if len(tail) == 1
            else PeriodicSymbols(tuple(tail)))
    described = DescribedPoint(tuple(draw(st.lists(symbols, max_size=4))),
                               rule)
    base = lazy if draw(st.booleans()) else described
    overrides = draw(st.dictionaries(st.integers(1, 7), symbols,
                                     min_size=1, max_size=3))
    return [lazy, described,
            ModifiedPoint(base, tuple(sorted(overrides.items())))]
