"""Bounded tail-structured functions on the product space.

Three families are provided, each exposing `bounds_over`: a certified
enclosure of the function over a constrained set of points.  The same
method serves point evaluation (everything pinned), cylinder oscillation
(prefix pinned, rest free) and mixed queries used by the hull search
(prefix pinned, a window free, a base point beyond).  Each family
implements it through `window_bounds(rest, rest_from, horizon)`, which
reads the rest once and then encloses f for any prefix shorter than
rest_from; the hull search asks one window for all of its prefixes.

Each family also routes E[f] under a product measure (`expectation`)
and g_start(x), g_{start+1}(x), ... (`martingale_steps`), whose first
value is E[f] under the hybrid pinning x from start on (see `engine`).

Enclosures are exact rationals.  The only soft verdicts come from the
all-or-nothing indicator family on lazily sampled points: agreement of
the unrealized tail cannot be decided from a prefix, so the verdict
"value 1" carries a residual probability bound eta for the event that an
unrealized coordinate misses its target.  All other enclosures, and all
mismatch verdicts, are hard (eta = 0).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import UnsupportedTailError, ValidationError
from .model import (
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    PeriodicStream,
    PointSpec,
    ProductMeasure,
    SpaceFamily,
    SymbolRule,
    _geometric_sum,
    _root_of,
    streams_eventually_equal,
)
from .numeric import F0, F1, Rational, ValueBounds, as_fraction, over_common_denominator

#: default bound on how deep a lazily sampled point may be realized
DEFAULT_HORIZON = 64

Measure = Union[ProductMeasure, HybridMeasure]


#: the hard points 0, which every mismatch verdict shares, and 1, and
#: the hard interval [0, 1]
_ZERO, _ONE, _UNIT = (ValueBounds(F0, F0), ValueBounds(F1, F1),
                      ValueBounds(F0, F1))


def _explicit_limit(rest: PointSpec, horizon: int) -> int:
    """Last coordinate read one by one from a rest with no periodic stream.

    That is the horizon, raised to cover modified coordinates, whether
    the rest is lazily sampled or a user-defined point: functions that
    depend on infinitely many coordinates enclose the rest beyond it.
    """
    return max(horizon, _root_of(rest)[1])


class TailFunction:
    """A bounded function with certified cylinder enclosures.

    A subclass implements `bounds_over` or `window_bounds`; each one's
    default is built from the other, and with them alone E[f] and every
    g_n are enclosed on the generic prefix tree.  A family opts into
    faster routes through four hooks, each with a default: its exact
    oracle (`expectation`), its g_n steps (`martingale_steps`), how far
    it reads a pinned point (`read_horizon`) and a sampled point
    (`leading_coordinates`).  An oracle or a step must enclose what the
    tree would.  A hybrid measure reaches the steps from its switch on,
    never the oracle.
    """

    family = "abstract"
    #: whether `martingale_steps` at a depth h enclose those at every deeper
    #: depth, with eta 0: a scan decided at h stands (`harness.verify_strong`)
    nested_steps = False

    range_lo: Fraction
    range_hi: Fraction

    def bounds_over(self, prefix: tuple, rest: Optional[PointSpec] = None,
                    rest_from: Optional[int] = None,
                    horizon: Optional[int] = None) -> ValueBounds:
        """Enclosure of f over points with coordinates 1..len(prefix)
        equal to prefix, coordinates >= rest_from equal to rest, and the
        window in between (all of the tail, when rest is None) free.

        A rest_from inside the prefix starts the rest right after it.
        The rest is read as far as `read_horizon(rest, horizon)`.
        """
        m = len(prefix)
        start = m + 1 if rest_from is None else max(rest_from, m + 1)
        if rest is not None:
            horizon = self.read_horizon(rest, horizon)
        return self.window_bounds(rest, start, horizon)(prefix)

    def window_bounds(self, rest: Optional[PointSpec], rest_from: int,
                      horizon: int):
        """The callable prefix -> bounds_over(prefix, rest, rest_from,
        horizon), valid for len(prefix) < rest_from.

        `horizon` is a depth the caller resolved with `read_horizon`.
        The built-in families read `rest` once, when the window is made,
        so many prefixes over one rest cost one read of it.  This default
        calls `bounds_over` for each prefix.
        """
        if type(self).bounds_over is TailFunction.bounds_over:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither bounds_over nor "
                f"window_bounds")
        return lambda prefix: self.bounds_over(prefix, rest, rest_from,
                                               horizon)

    def eval_soft(self, x: PointSpec,
                  horizon: Optional[int] = None) -> ValueBounds:
        """Value of f at x, soft verdicts allowed (see module docstring),
        read as far as `read_horizon(x, horizon)`."""
        return self.bounds_over((), rest=x, rest_from=1, horizon=horizon)

    def expectation(self, sigma: ProductMeasure) -> Optional[ValueBounds]:
        """Exact enclosure of E_sigma[f] under a product measure, or None
        (or UnsupportedTailError) for the prefix tree."""
        return None

    def martingale_steps(self, sigma: Measure, x: PointSpec, horizon: Optional[int],
                         start: int = 1) -> Optional[Iterator[ValueBounds]]:
        """Enclosures of g_start(x), g_{start+1}(x), ..., each equal to
        `g_n`'s, or None to evaluate each g_n on its own.  g_n reads
        `sigma.coordinate_measure(i)` for i < n alone, so sigma may be a
        hybrid, one-point head measures included.  An index the steps
        cannot settle raises what `g_n` would raise, at that index."""
        return None

    def read_horizon(self, point: PointSpec, horizon: Optional[int]) -> int:
        """How far a lazily sampled pinned `point` is read: the explicit
        horizon, else DEFAULT_HORIZON.  The one place where a horizon of
        None becomes a depth; resolving a depth again keeps it."""
        return DEFAULT_HORIZON if horizon is None else horizon

    def leading_coordinates(self, point: PointSpec,
                            horizon: Optional[int]) -> Optional[int]:
        """The k such that f, at `horizon`, reads a lazily sampled `point`
        at coordinates 1..k alone, or None: a campaign decides each
        distinct x_1..x_k once, asking once per horizon for all of its
        points, so k may depend on the point's measure, not its symbols."""
        return None


def eval_function(f: TailFunction, x: PointSpec,
                  horizon: Optional[int] = None) -> ValueBounds:
    """Value of f at x from its first `f.read_horizon(x, horizon)`
    coordinates, hard bounds.

    Returns a width-0 enclosure when the inspected prefix (plus any
    finite tail description) determines the value; otherwise the
    tightest hard interval.  Soft indicator verdicts are widened to the
    range, since the unrealized tail could break them.
    """
    vb = f.eval_soft(x, horizon=horizon)
    if vb.eta > 0:
        return ValueBounds(f.range_lo, f.range_hi)
    return vb


def _resolve_range(explicit, derived_lo: Fraction, derived_hi: Fraction):
    if explicit is None:
        return derived_lo, derived_hi
    lo, hi = as_fraction(explicit[0]), as_fraction(explicit[1])
    if lo > hi:
        raise ValidationError(f"range lower bound {lo} exceeds upper bound {hi}")
    if lo > derived_lo or hi < derived_hi:
        raise ValidationError(
            f"declared range [{lo}, {hi}] does not bound the "
            f"function (needs [{derived_lo}, {derived_hi}])"
        )
    return lo, hi


# ---------------------------------------------------------------------------
# Cylinder functions
# ---------------------------------------------------------------------------

def _coarsen(level: tuple) -> tuple:
    """`level` one coordinate shorter: min lows, max highs by key[:-1]."""
    lows, highs = {}, {}
    for key, lo in level[0].items():
        p, hi = key[:-1], level[1][key]
        lows[p], highs[p] = min(lows.get(p, lo), lo), max(highs.get(p, hi), hi)
    return lows, highs


@dataclass(frozen=True, eq=False)
class Cylinder(TailFunction):
    """Function of the first `depth` coordinates, given by a value table.

    Queries run in integers: the values over one denominator, put there
    by the constructor (`_scaled_table`, `_fractions`), the min and max
    of the rows under every shorter prefix (`_level`, built once) and
    prefix weights expanded one coordinate at a time (`_sums`).
    """

    depth: int
    table: Mapping[tuple, Fraction]
    range_lo: Fraction = None
    range_hi: Fraction = None
    _scaled_table: tuple = field(init=False, repr=False)
    _fractions: dict = field(init=False, repr=False)
    _levels: list = field(init=False, repr=False)

    family = "cylinder"

    def __post_init__(self):
        if self.depth < 0:
            raise ValidationError("cylinder depth must be >= 0")
        if not self.table:
            raise ValidationError("cylinder table must be nonempty")
        for key in self.table:
            if len(key) != self.depth:
                raise ValidationError(f"cylinder table key {key!r} has length "
                                      f"{len(key)}, expected {self.depth}")
        den, rows = over_common_denominator(self.table)
        object.__setattr__(self, "_scaled_table", (den, rows))
        object.__setattr__(self, "_fractions",
                           dict(zip(rows.values(), self.table.values())))
        object.__setattr__(self, "_levels", [(rows, rows)])
        lo, hi = _resolve_range(
            None if self.range_lo is None else (self.range_lo, self.range_hi),
            Fraction(min(rows.values()), den), Fraction(max(rows.values()), den))
        object.__setattr__(self, "range_lo", lo)
        object.__setattr__(self, "range_hi", hi)

    def _level(self, k: int) -> tuple:
        """(lows, highs): the min and max scaled row under each prefix of
        length k; `_levels` keeps them from the depth down, built once."""
        levels = self._levels
        while len(levels) <= self.depth - k:
            levels.append(_coarsen(levels[-1]))
        return levels[self.depth - k]

    def _aggregates(self, start: int, block: tuple) -> list:
        """`_level` of each length to start, of the rows reading `block`."""
        top = start + len(block)
        lows, highs = self._level(top)
        keys = [key for key in lows if key[start:top] == block]
        levels = [tuple({key[:start]: ends[key] for key in keys}
                        for ends in (lows, highs))]
        for _ in range(start):
            levels.insert(0, _coarsen(levels[0]))
        return levels

    @classmethod
    def from_entries(cls, depth: int, entries, value_range=None) -> "Cylinder":
        table = {}
        for k, v in entries:
            key = tuple(k)
            if key in table:
                raise ValidationError(f"cylinder table lists prefix {key!r} "
                                      f"twice")
            table[key] = as_fraction(v)
        # the constructor reads a declared range through `as_fraction`
        return cls(depth, table, *(value_range or (None, None)))

    @classmethod
    def from_callable(cls, symbols_per_coordinate: Sequence[Sequence],
                      fn, value_range=None) -> "Cylinder":
        depth = len(symbols_per_coordinate)
        entries = [
            (combo, fn(*combo))
            for combo in itertools.product(*symbols_per_coordinate)
        ]
        return cls.from_entries(depth, entries, value_range)

    def value_at_prefix(self, prefix: tuple) -> Fraction:
        key = tuple(prefix[:self.depth])
        try:
            return self.table[key]
        except KeyError:
            raise ValidationError(f"prefix {key!r} not covered by cylinder table")

    def pinned_coordinates(self, rest: PointSpec, start: int,
                           horizon: int) -> dict:
        """Coordinates start..depth of `rest` that the table is matched on.

        Each is read unless `rest` is lazily sampled and the index lies
        past `_explicit_limit` of the resolved depth `horizon`; unread
        coordinates stay free.  Maps index -> symbol, in index order.
        """
        top = self.depth
        if isinstance(_root_of(rest)[0], LazyPoint):
            top = min(top, _explicit_limit(rest, horizon))
        return {i: rest.coordinate(i) for i in range(start, top + 1)}

    def leading_coordinates(self, point, horizon):
        return self.depth

    def window_bounds(self, rest, rest_from, horizon):
        # the block is read from rest once; each prefix is one level lookup
        start = rest_from - 1
        block = () if rest is None else tuple(self.pinned_coordinates(
            rest, rest_from, horizon).values())
        levels = None

        def bounds(prefix) -> ValueBounds:
            nonlocal levels
            m, key = len(prefix), tuple(prefix)
            if m >= self.depth:
                return ValueBounds.point(self.value_at_prefix(prefix))
            if m == start or not block:
                (lows, highs), key = self._level(m + len(block)), key + block
            else:
                if levels is None:
                    levels = self._aggregates(start, block)
                lows, highs = levels[m]
            if key not in lows:
                raise ValidationError(
                    f"no cylinder table entry is consistent with prefix "
                    f"{prefix!r}")
            return ValueBounds(self._fractions[lows[key]],
                               self._fractions[highs[key]])
        return bounds

    def _sums(self, measure_at, pins: dict, first: int):
        """E[f] with coordinates 1..j integrated out under `measure_at` and
        the pins after j matched, for j = first..depth in turn: one lookup
        per prefix of positive weight (a product of integer weights, over
        den = V * prod D_i).  A prefix of positive mass that no row covers
        raises ValidationError, the shortest named; zero-mass gaps are legal."""
        prefixes, weights, den = {(): 1}, [], self._scaled_table[0]
        for j in range(self.depth + 1):
            if j:
                d, nums = measure_at(j)._scaled_weights
                positive = [(s, w) for s, w in nums.items() if w]
                prefixes = {p + (s,): pw * w for p, pw in prefixes.items()
                            for s, w in positive}
                weights, den = weights + [nums], den * d
            if j < first:
                continue
            pinned = {i: s for i, s in pins.items() if i > j}
            block = tuple(pinned.values())
            lows, highs = self._level(j + len(block))
            try:
                lo = sum(w * lows[p + block] for p, w in prefixes.items())
                hi = lo if highs is lows else sum(
                    w * highs[p + block] for p, w in prefixes.items())
            except KeyError:
                reached = {key[:i] for key in self.table
                           if key[j:j + len(block)] == block
                           for i in range(j + 1)}
                level = [()]
                while all(p in reached for p in level):
                    level = [p + (s,) for p in level
                             for s, w in weights[len(p)].items() if w]
                missing = next(p for p in level if p not in reached)
                where = f" that agrees with the point at {pinned}" if pinned else ""
                raise ValidationError(
                    f"cylinder table has no row for prefix {missing!r} of "
                    f"positive mass{where}") from None
            lo_f = Fraction(lo, den)
            yield ValueBounds(lo_f, lo_f if hi == lo else Fraction(hi, den))

    def expectation(self, sigma):
        """E_sigma[f]: `_sums` with every table coordinate integrated out."""
        return next(self._sums(sigma.coordinate_measure, {}, self.depth))

    def martingale_steps(self, sigma, x, horizon, start=1):
        """g_start(x), g_{start+1}(x), ...: `_sums` from k = min(start - 1,
        depth) integrated coordinates on, x read once from k + 1 on
        (`pinned_coordinates`); about 2 |table| lookups a trace, and
        g_n = E[f] past the depth."""
        k = min(start - 1, self.depth)
        pins = self.pinned_coordinates(x, k + 1, self.read_horizon(x, horizon))
        for value in self._sums(sigma.coordinate_measure, pins, k):
            yield value
        yield from itertools.repeat(value)


def cylinder_sum(f: Cylinder, g: Cylinder) -> Cylinder:
    """Pointwise sum of two cylinder functions of equal depth."""
    if f.depth != g.depth:
        raise ValidationError("cylinder sum requires equal depths")
    if set(f.table) != set(g.table):
        raise ValidationError("cylinder sum requires identical prefix domains")
    return Cylinder(f.depth, {k: f.table[k] + g.table[k] for k in f.table})


# ---------------------------------------------------------------------------
# Discounted sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricWeights:
    """Summable weight sequence w_i = coef * ratio**i, 0 < ratio < 1."""

    coef: Fraction
    ratio: Fraction

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise ValidationError("weight ratio must lie strictly between 0 and 1")
        if self.coef <= 0:
            raise ValidationError("weight coefficient must be positive")

    @classmethod
    def of(cls, coef: Rational, ratio: Rational) -> "GeometricWeights":
        return cls(as_fraction(coef), as_fraction(ratio))

    def weight_at(self, i: int) -> Fraction:
        return self.coef * self.ratio**i

    def tail_sum(self, m: int) -> Fraction:
        """sum_{i > m} w_i, exact."""
        return _geometric_sum(self.coef, self.ratio, m + 1, 1)

    def periodic_tail_sum(self, first: int, period: int) -> Fraction:
        """sum_{t >= 0} w_{first + t*period}, exact."""
        return _geometric_sum(self.coef, self.ratio, first, period)


@dataclass(frozen=True, eq=False)
class DiscountedSum(TailFunction):
    """f(x) = sum_i w_i * score(x_i) with geometric weights.

    Scores are also kept as integers over one common denominator, so
    that finite weighted sums run in integer arithmetic.
    """

    weights: GeometricWeights
    scores: Mapping
    range_lo: Fraction = None
    range_hi: Fraction = None
    score_min: Fraction = field(init=False, repr=False)
    score_max: Fraction = field(init=False, repr=False)
    #: (D, {symbol: score * D}), D the lcm of the score denominators
    _scaled_scores: tuple = field(init=False, repr=False)

    family = "discounted_sum"
    nested_steps = True

    def __post_init__(self):
        if not self.scores:
            raise ValidationError("discounted sum needs at least one scored symbol")
        scores = {s: as_fraction(v) for s, v in self.scores.items()}
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "score_min", min(scores.values()))
        object.__setattr__(self, "score_max", max(scores.values()))
        object.__setattr__(self, "_scaled_scores",
                           over_common_denominator(scores))
        total = self.weights.tail_sum(0)
        lo, hi = _resolve_range(
            None if self.range_lo is None else (self.range_lo, self.range_hi),
            total * self.score_min, total * self.score_max)
        object.__setattr__(self, "range_lo", lo)
        object.__setattr__(self, "range_hi", hi)

    def score_of(self, symbol) -> Fraction:
        try:
            return self.scores[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} has no score")

    def _spread(self, mass: Fraction):
        return mass * self.score_min, mass * self.score_max

    def _weighted_scores(self, first: int, symbols) -> Fraction:
        """sum_t w_{first+t} * score(symbols[t]), exact.

        With ratio p/q, scores a_t / D and T symbols, the sum is
        w_first * (sum_t a_t p**t q**(T-1-t)) / (D q**(T-1)); the
        numerator is accumulated in integers by Horner's rule.
        """
        den, nums = self._scaled_scores
        p, q = self.weights.ratio.as_integer_ratio()
        num, pt, count = 0, 1, 0
        for s in symbols:
            try:
                a = nums[s]
            except KeyError:
                raise ValidationError(f"symbol {s!r} has no score") from None
            num = num * q + a * pt
            pt *= p
            count += 1
        if not count:
            return F0
        return self.weights.weight_at(first) * Fraction(
            num, den * q**(count - 1))

    def _rest_bounds(self, rest: PointSpec, start: int, horizon: int):
        """Enclosure (lo, hi) of sum_{i >= start} w_i * score(rest_i):
        explicit reads up to K, closed form or spread beyond."""
        stream = rest.eventual_stream()
        if stream is not None:
            k = max(start - 1, stream.start - 1)
        else:
            k = max(start - 1, _explicit_limit(rest, horizon))
        exact = self._weighted_scores(
            start, (rest.coordinate(i) for i in range(start, k + 1)))
        if stream is None:
            dlo, dhi = self._spread(self.weights.tail_sum(k))
            return exact + dlo, exact + dhi
        period = len(stream.symbols)
        for off in range(period):
            first = k + 1 + off
            exact += (self.score_of(stream.symbol_at(first))
                      * self.weights.periodic_tail_sum(first, period))
        return exact, exact

    def leading_coordinates(self, point, horizon):
        return _explicit_limit(point, self.read_horizon(point, horizon))

    def window_bounds(self, rest, rest_from, horizon):
        if rest is None:
            rlo = rhi = rest_mass = F0
        else:
            rlo, rhi = self._rest_bounds(rest, rest_from, horizon)
            rest_mass = self.weights.tail_sum(rest_from - 1)

        def bounds(prefix) -> ValueBounds:
            head = self._weighted_scores(1, prefix)
            # the free window between the prefix and the pinned rest
            wlo, whi = self._spread(
                self.weights.tail_sum(len(prefix)) - rest_mass)
            return ValueBounds(head + wlo + rlo, head + whi + rhi)
        return bounds

    def _mean_head(self, sigma: Measure, last: int) -> Fraction:
        """sum_{i <= last} w_i E_{sigma_i}[score], exact."""
        return sum((self.weights.weight_at(i) * sigma.coordinate_measure(
            i).mean_score(self.score_of) for i in range(1, last + 1)), F0)

    def expectation(self, sigma):
        """E_sigma[f] = sum_i w_i E_i[score], coordinate by coordinate: the
        head, then the tail rule's closed form.  Raises
        UnsupportedTailError when the tail rule has no closed form."""
        head = self._mean_head(sigma, sigma.head_len)
        tail = sigma.tail.mean_tail_sum(
            self.weights.coef, self.weights.ratio, self.score_of,
            sigma.head_len, sigma.head_len)
        return ValueBounds(head + tail.lo, head + tail.hi)

    def martingale_steps(self, sigma, x, horizon, start=1):
        """Oracle enclosures of g_start(x), g_{start+1}(x), ...

        g_start is the mean head plus x summed from start on as a pinned
        rest (`_rest_bounds`).  Each step integrates coordinate n out:
        g_{n+1} = g_n + w_n * (E_{sigma_n}[score] - v_n), where v_n is
        score(x_n) while x_n is read, and the score bounds once n is past
        the read limit of a lazily sampled point (its spread then shrinks
        by w_n).  A scan to n_max costs O(n_max + horizon) exact operations.
        """
        head = self._mean_head(sigma, start - 1)
        h = self.read_horizon(x, horizon)
        read = None if x.eventual_stream() is not None else _explicit_limit(x, h)
        lo, hi = self._rest_bounds(x, start, h)
        if head:
            lo, hi = head + lo, head + hi
        w, ratio = self.weights.weight_at(start), self.weights.ratio
        for n in itertools.count(start):
            yield ValueBounds(lo, hi)
            mean = sigma.coordinate_measure(n).mean_score(self.score_of)
            if read is None or n <= read:
                step = w * (mean - self.score_of(x.coordinate(n)))
                lo, hi = lo + step, hi + step
            else:
                lo += w * (mean - self.score_min)
                hi += w * (mean - self.score_max)
            w *= ratio


# ---------------------------------------------------------------------------
# Product indicators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductIndicator(TailFunction):
    """f(x) = 1 when every coordinate hits its target symbol, else 0."""

    spaces: SpaceFamily
    targets_head: tuple
    targets_tail: SymbolRule
    #: the targets as the one point f is the indicator of
    targets: DescribedPoint = field(init=False, repr=False)
    #: targets of coordinates 1..len, grown on demand by `_targets_through`
    _targets: tuple = field(init=False, repr=False, default=())

    family = "product_indicator"
    range_lo = F0
    range_hi = F1

    def __post_init__(self):
        targets = DescribedPoint(self.targets_head, self.targets_tail)
        targets.validate_against(self.spaces, "target")
        object.__setattr__(self, "targets", targets)

    def target_at(self, i: int):
        return self.targets.coordinate(i)

    def targets_stream(self) -> PeriodicStream:
        return self.targets.eventual_stream()

    def _targets_through(self, n: int) -> tuple:
        """The targets of coordinates 1..n (or more) as one tuple: prefix
        checks become tuple comparisons and target reads index lookups."""
        targets = self._targets
        if len(targets) < n:
            # grown geometrically, so a scan that asks for one more index
            # per step rebuilds the tuple only logarithmically often
            targets += tuple(self.target_at(i) for i in range(
                len(targets) + 1, max(n, 2 * len(targets)) + 1))
            object.__setattr__(self, "_targets", targets)
        return targets

    def _tail_match(self, rest: PointSpec, start: int, horizon: int):
        """The function n -> enclosure of [every coordinate >= n of rest
        hits its target], for n >= start: rest is read once, from start to
        the read depth K.  A mismatch read explicitly is the hard point 0;
        past K a described rest is settled by its stream, any other by
        `_unread_match`."""
        depth = self._read_depth(rest, horizon)
        targets = self._targets_through(depth)
        last_miss = next((i for i in range(depth, start - 1, -1)
                          if rest.coordinate(i) != targets[i - 1]), 0)
        stream = rest.eventual_stream()
        if stream is not None:
            hit = streams_eventually_equal(stream, self.targets_stream())
            return lambda n: _ONE if hit and last_miss < n else _ZERO
        # every n <= depth + 1 asks for the enclosure past depth: built once
        at_depth = functools.cache(lambda: self._unread_match(rest, depth))
        return lambda n: (_ZERO if last_miss >= n else
                          at_depth() if n <= depth + 1 else
                          self._unread_match(rest, n - 1))

    def _read_depth(self, rest: PointSpec, horizon: int) -> int:
        """Coordinates of rest that `_tail_match` reads explicitly, at least."""
        targets = self.targets_stream()
        stream = rest.eventual_stream()
        if stream is not None:
            return max(stream.start - 1, targets.start - 1)
        return max(_explicit_limit(rest, horizon), targets.start - 1)

    def leading_coordinates(self, point, horizon):
        return self._read_depth(point, self.read_horizon(point, horizon))

    def _unread_match(self, rest: PointSpec, k: int) -> ValueBounds:
        """Enclosure of [every coordinate > k of rest hits its target].

        A lazily sampled rest gives 1 with eta bounding P(an unread
        coordinate misses); a user-defined rest, or a lazy one whose
        sampling tail has no disagreement bound, the hard interval [0, 1].
        """
        root = _root_of(rest)[0]
        if not isinstance(root, LazyPoint):
            return _UNIT
        measure = root.measure
        eta = F0
        boundary = max(k, measure.head_len)
        targets = self._targets_through(boundary)
        for i in range(k + 1, boundary + 1):
            eta += 1 - measure.coordinate_measure(i).weight_of(targets[i - 1])
        try:
            eta += measure.tail.disagreement_bound(
                self.targets_stream(), boundary, measure.head_len)
        except UnsupportedTailError:
            return _UNIT
        return ValueBounds(F1, F1, min(eta, F1))

    def read_horizon(self, point, horizon):
        """The default horizon is raised to cover the head of a lazily
        sampled root, so a miss among the head coordinates is read rather
        than charged to eta.  Modified coordinates and the targets'
        explicit prefix are always read (`_read_depth`)."""
        root = _root_of(point)[0]
        if horizon is None and isinstance(root, LazyPoint):
            return max(DEFAULT_HORIZON, root.measure.head_len)
        return super().read_horizon(point, horizon)

    def _head_product(self, sigma: Measure, last: int) -> Fraction:
        """prod_{i <= last} sigma_i(target_i), stopped at its first 0."""
        product, target = F1, self._targets_through(last)
        for i in range(1, last + 1):
            product *= sigma.coordinate_measure(i).weight_of(target[i - 1])
            if product == 0:
                break
        return product

    def expectation(self, sigma):
        """Closed-form E_sigma[f]: the head weights on the targets times the
        tail product, exact or enclosed to width below 1e-12.  Raises
        UnsupportedTailError when the measure tail rule has no closed form."""
        targets = self.targets_stream()
        boundary = max(sigma.head_len, targets.start - 1)
        product = self._head_product(sigma, boundary)
        if product == 0:
            return _ZERO
        return sigma.tail.indicator_tail_product(
            targets, boundary, sigma.head_len).scaled(product)

    def martingale_steps(self, sigma, x, horizon, start=1):
        """Oracle enclosures of g_start(x), g_{start+1}(x), ...: g_n is
        prod_{i<n} sigma_i(target_i) times the enclosure that x hits every
        target from n on (`_tail_match`, which reads x once, and not at all
        once the product is 0).  A scan to n_max costs O(n_max + horizon)
        exact operations."""
        product, n = self._head_product(sigma, start - 1), start
        if product:
            match = self._tail_match(x, start, self.read_horizon(x, horizon))
            while product:
                vb = match(n)
                yield vb if vb is _ZERO else vb.scaled(product)
                product *= sigma.coordinate_measure(n).weight_of(
                    self._targets_through(n)[n - 1])
                n += 1
        yield from itertools.repeat(_ZERO)

    def window_bounds(self, rest, rest_from, horizon):
        targets = self._targets_through(rest_from - 1)
        # the last coordinate before the rest with a symbol off its target
        last_free = next((i for i in range(rest_from - 1, 0, -1)
                          if self.spaces.space_at(i).size >= 2), 0)
        match = None  # the rest is read once, for the first matching prefix

        def bounds(prefix) -> ValueBounds:
            nonlocal match
            m = len(prefix)
            if tuple(prefix) != targets[:m]:
                return _ZERO
            if rest is None:
                deviation = self.spaces.any_alternatives_beyond(m)
                return _UNIT if deviation else _ONE
            if match is None:
                match = self._tail_match(rest, rest_from, horizon)(rest_from)
            if match is _ZERO or last_free <= m:
                return match
            return _UNIT
        return bounds
