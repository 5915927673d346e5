"""Bounded tail-structured functions on the product space.

Three families are provided, each exposing `bounds_over`: a certified
enclosure of the function over a constrained set of points.  The same
method serves point evaluation (everything pinned), cylinder oscillation
(prefix pinned, rest free) and mixed queries used by the hull search
(prefix pinned, a window free, a base point beyond).  Each family
implements it through `window_bounds(rest, rest_from, horizon)`, which
reads the rest once and then encloses f for any prefix shorter than
rest_from; the hull search asks one window for all of its prefixes.

Enclosures are exact rationals.  The only soft verdicts come from the
all-or-nothing indicator family on lazily sampled points: agreement of
the unrealized tail cannot be decided from a prefix, so the verdict
"value 1" carries a residual probability bound eta for the event that an
unrealized coordinate misses its target.  All other enclosures, and all
mismatch verdicts, are hard (eta = 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import UnsupportedTailError, ValidationError
from .model import (
    DiracAssignment,
    HybridMeasure,
    LazyPoint,
    PeriodicStream,
    PointSpec,
    ProductMeasure,
    SpaceFamily,
    SymbolRule,
    _root_of,
    streams_eventually_equal,
)
from .numeric import F0, F1, Rational, ValueBounds, as_fraction

#: default bound on how deep a lazily sampled point may be realized
DEFAULT_HORIZON = 64

Measure = Union[ProductMeasure, HybridMeasure]


#: the hard point 0, shared by every mismatch verdict
_ZERO = ValueBounds(F0, F0)


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
    faster routes through three hooks, each with a default: its exact
    oracle (`expectation`), its g_n steps (`martingale_steps`) and how
    far it reads a pinned point (`read_horizon`).  An oracle or a step
    must enclose what the tree would.
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

    def expectation(self, mu: Measure,
                    horizon: Optional[int]) -> Optional[ValueBounds]:
        """Exact enclosure of E_mu[f] on a product or hybrid measure (read
        through `mu.switch_index` and `mu.assignment_at(i)`), or None for
        the prefix tree; UnsupportedTailError also sends it to the tree."""
        return None

    def martingale_steps(self, sigma: ProductMeasure, x: PointSpec,
                         horizon: Optional[int]) -> Optional[Iterator[ValueBounds]]:
        """Enclosures of g_1(x), g_2(x), ..., each equal to `g_n`'s, or None
        to evaluate each g_n on its own.  An index the steps cannot
        settle raises what `g_n` would raise, at that index."""
        return None

    def read_horizon(self, point: PointSpec, horizon: Optional[int]) -> int:
        """How far a lazily sampled pinned `point` is read: the explicit
        horizon, else DEFAULT_HORIZON.  The one place where a horizon of
        None becomes a depth; resolving a depth again keeps it."""
        return DEFAULT_HORIZON if horizon is None else horizon


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

@dataclass(frozen=True, eq=False)
class Cylinder(TailFunction):
    """Function of the first `depth` coordinates, given by a value table."""

    depth: int
    table: Mapping[tuple, Fraction]
    range_lo: Fraction = None
    range_hi: Fraction = None

    family = "cylinder"

    def __post_init__(self):
        if self.depth < 0:
            raise ValidationError("cylinder depth must be >= 0")
        if not self.table:
            raise ValidationError("cylinder table must be nonempty")
        for key in self.table:
            if len(key) != self.depth:
                raise ValidationError(
                    f"cylinder table key {key!r} has length {len(key)}, "
                    f"expected {self.depth}"
                )
        values = list(self.table.values())
        lo, hi = _resolve_range(
            None if self.range_lo is None else (self.range_lo, self.range_hi),
            min(values), max(values))
        object.__setattr__(self, "range_lo", lo)
        object.__setattr__(self, "range_hi", hi)

    @cached_property
    def _scaled_table(self) -> tuple:
        """(V, {key: value * V}): the table as integers over one common
        denominator V, the lcm of the value denominators.  Built on first
        use; the table walks compare and sum these integers."""
        v = math.lcm(*(value.denominator for value in self.table.values()))
        return v, {key: value.numerator * (v // value.denominator)
                   for key, value in self.table.items()}

    @classmethod
    def from_entries(cls, depth: int, entries, value_range=None) -> "Cylinder":
        table = {}
        for k, v in entries:
            key = tuple(k)
            if key in table:
                raise ValidationError(f"cylinder table lists prefix {key!r} "
                                      f"twice")
            table[key] = as_fraction(v)
        lo, hi = (None, None) if value_range is None else value_range
        return cls(depth, table,
                   None if lo is None else as_fraction(lo),
                   None if hi is None else as_fraction(hi))

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

    def window_bounds(self, rest, rest_from, horizon):
        # the pinned block is key[start:top], read from rest once; rows are
        # matched on it once, on the first prefix that needs a scan
        start = rest_from - 1
        block = () if rest is None else tuple(self.pinned_coordinates(
            rest, rest_from, horizon).values())
        top = start + len(block)
        rows = None

        def bounds(prefix) -> ValueBounds:
            nonlocal rows
            m = len(prefix)
            if m >= self.depth:
                return ValueBounds.point(self.value_at_prefix(prefix))
            head = tuple(prefix)
            if m == start and top == self.depth:
                # every coordinate past the prefix is read: one lookup
                value = self.table.get(head + block)
                if value is None:
                    raise ValidationError(
                        f"no cylinder table entry is consistent with "
                        f"prefix {prefix!r}")
                return ValueBounds(value, value)
            if rows is None:
                rows = [(key, v) for key, v in self._scaled_table[1].items()
                        if key[start:top] == block]
            lo = hi = None  # (scaled value, key) of the extreme rows
            for key, v in rows:
                if key[:m] != head:
                    continue
                if lo is None:
                    lo = hi = (v, key)
                elif v < lo[0]:
                    lo = (v, key)
                elif v > hi[0]:
                    hi = (v, key)
            if lo is None:
                raise ValidationError(
                    f"no cylinder table entry is consistent with prefix "
                    f"{prefix!r}")
            return ValueBounds(self.table[lo[1]], self.table[hi[1]])
        return bounds

    def expectation(self, mu, horizon):
        """E_mu[f] as an exact sum over the rows of the table.

        The first k = min(switch - 1, depth) coordinates are integrated
        out; the coordinates after them are the pinned point's, and the
        table is matched on them as `pinned_coordinates` reads them.  Rows
        that disagree with a read symbol drop out, the rest are grouped by
        their first k symbols, and each group adds weight(prefix) x
        [min, max] of its values.  The walk runs in integers: values over
        the table's common denominator V (`_scaled_table`), the weights of
        coordinate i over theirs, D_i (`CoordinateMeasure._scaled_weights`),
        so a prefix weight is a product of numerators over prod D_i and
        each end of the enclosure becomes one Fraction over V * prod D_i,
        in O(|table| * depth) integer operations.  Raises ValidationError
        naming the shortest prefix of positive mass that no row covers;
        zero-mass gaps are legal.
        """
        switch = mu.switch_index
        k = self.depth if switch is None else min(switch - 1, self.depth)
        pins = {}
        if k < self.depth:
            # k + 1 is the switch index: the pinned point starts there
            rest = mu.tail_point
            pins = self.pinned_coordinates(rest, k + 1,
                                           self.read_horizon(rest, horizon))
        # the pins are the coordinates k+1..top: a row keeps key[k:top] == block
        block = tuple(pins.values())
        top = k + len(block)
        den, rows = self._scaled_table
        groups = {}
        for key, v in rows.items():
            if key[k:top] != block:
                continue
            prefix = key[:k]
            seen = groups.get(prefix)
            if seen is None:
                groups[prefix] = (v, v)
            elif v < seen[0]:
                groups[prefix] = (v, seen[1])
            elif v > seen[1]:
                groups[prefix] = (seen[0], v)

        # weights[i-1] maps the symbols of coordinate i to integer weights;
        # full coverage means covered == mass, both over prod D_i
        weights, mass = [], 1
        for i in range(1, k + 1):
            a = mu.assignment_at(i)
            if isinstance(a, DiracAssignment):
                weights.append({a.point.coordinate(i): 1})
            else:
                d, nums = a.measure._scaled_weights
                weights.append(nums)
                mass *= sum(nums.values())
                den *= d
        memo = {(): 1}  # prefix weights: a shared prefix is multiplied once
        lo = hi = covered = 0
        for prefix, (vlo, vhi) in groups.items():
            known = len(prefix)
            while prefix[:known] not in memo:
                known -= 1
            w = memo[prefix[:known]]
            for j in range(known, len(prefix)):
                if w:
                    w *= weights[j].get(prefix[j], 0)
                memo[prefix[:j + 1]] = w
            if w:
                covered += w
                lo += w * vlo
                hi += w * vhi
        if covered != mass:
            # memo keys are the groups' prefixes: find the shortest gap
            reached, level = (memo if groups else {}), [()]
            while all(p in reached for p in level):
                level = [p + (sym,) for p in level
                         for sym, w in weights[len(p)].items() if w]
            missing = next(p for p in level if p not in reached)
            where = f" that agrees with the point at {pins}" if pins else ""
            raise ValidationError(f"cylinder table has no row for prefix "
                                  f"{missing!r} of positive mass{where}")
        lo_f = Fraction(lo, den)
        return ValueBounds(lo_f, lo_f if hi == lo else Fraction(hi, den))


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
        return self.coef * self.ratio**(m + 1) / (1 - self.ratio)

    def periodic_tail_sum(self, first: int, period: int) -> Fraction:
        """sum_{t >= 0} w_{first + t*period}, exact."""
        return self.coef * self.ratio**first / (1 - self.ratio**period)


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
    #: common denominator D of the scores, and score * D per symbol
    _score_den: int = field(init=False, repr=False)
    _score_nums: dict = field(init=False, repr=False)

    family = "discounted_sum"
    nested_steps = True

    def __post_init__(self):
        if not self.scores:
            raise ValidationError("discounted sum needs at least one scored symbol")
        scores = {s: as_fraction(v) for s, v in self.scores.items()}
        den = math.lcm(*(v.denominator for v in scores.values()))
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "score_min", min(scores.values()))
        object.__setattr__(self, "score_max", max(scores.values()))
        object.__setattr__(self, "_score_den", den)
        object.__setattr__(self, "_score_nums", {
            s: v.numerator * (den // v.denominator) for s, v in scores.items()})
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
        nums = self._score_nums
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
            num, self._score_den * q**(count - 1))

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

    def expectation(self, mu, horizon):
        """E_mu[f] = sum_i w_i E_i[score], coordinate by coordinate; the
        tail is the tail rule's closed form, or a hybrid's pinned point
        summed as a pinned rest (`_rest_bounds`).  Raises
        UnsupportedTailError when the tail rule has no closed form."""
        switch = mu.switch_index
        boundary = mu.head_len if switch is None else switch - 1
        head = F0
        for i in range(1, boundary + 1):
            a = mu.assignment_at(i)
            w = self.weights.weight_at(i)
            if isinstance(a, DiracAssignment):
                head += w * self.score_of(a.point.coordinate(i))
            else:
                head += w * a.measure.mean_score(self.score_of)
        if switch is None:
            tail = mu.tail.mean_tail_sum(
                self.weights.coef, self.weights.ratio, self.score_of, boundary,
                mu.head_len, mu.spaces.space_at(boundary + 1))
            lo, hi = tail.lo, tail.hi
        else:
            rest = mu.tail_point
            lo, hi = self._rest_bounds(rest, switch,
                                       self.read_horizon(rest, horizon))
        return ValueBounds(head + lo, head + hi)

    def martingale_steps(self, sigma, x, horizon):
        """Oracle enclosures of g_1(x), g_2(x), ...

        g_1 is f at x.  Each step integrates coordinate n out:
        g_{n+1} = g_n + w_n * (E_{sigma_n}[score] - v_n), where v_n is
        score(x_n) while x_n is read, and the score bounds once n is past
        the read limit of a lazily sampled point (its spread then shrinks
        by w_n).  A scan to n_max costs O(n_max + horizon) exact operations.
        """
        h = self.read_horizon(x, horizon)
        read = None if x.eventual_stream() is not None else _explicit_limit(x, h)
        lo, hi = self._rest_bounds(x, 1, h)
        w, ratio = self.weights.weight_at(1), self.weights.ratio
        for n in itertools.count(1):
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
    #: targets of coordinates 1..len, grown on demand by `_targets_through`
    _targets: tuple = field(init=False, repr=False, default=())

    family = "product_indicator"
    range_lo = F0
    range_hi = F1

    def __post_init__(self):
        for i, sym in enumerate(self.targets_head, start=1):
            if sym not in self.spaces.space_at(i):
                raise ValidationError(
                    f"target head[{i - 1}]: symbol {sym!r} not in coordinate {i}"
                )
        stream = self.targets_stream()
        for off, sym in enumerate(stream.symbols):
            if sym not in self.spaces.space_at(stream.start + off):
                raise ValidationError(
                    f"target tail: symbol {sym!r} not in coordinate "
                    f"{stream.start + off}"
                )

    def target_at(self, i: int):
        if i <= len(self.targets_head):
            return self.targets_head[i - 1]
        return self.targets_tail.symbol_at(i, len(self.targets_head))

    def targets_stream(self) -> PeriodicStream:
        return self.targets_tail.stream(len(self.targets_head))

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

    def _tail_match(self, rest: PointSpec, start: int,
                    horizon: int) -> ValueBounds:
        """Enclosure of [every coordinate >= start of rest hits its target].

        A mismatch read explicitly is the hard point 0; past the read depth
        a described rest is settled by its stream, any other by
        `_unread_match`.
        """
        k = max(start - 1, self._read_depth(rest, horizon))
        targets = self._targets_through(k)
        for i in range(start, k + 1):
            if rest.coordinate(i) != targets[i - 1]:
                return _ZERO
        stream = rest.eventual_stream()
        if stream is not None:
            hit = streams_eventually_equal(stream, self.targets_stream())
            return ValueBounds.point(1 if hit else 0)
        return self._unread_match(rest, k)

    def _read_depth(self, rest: PointSpec, horizon: int) -> int:
        """Coordinates of rest that `_tail_match` reads explicitly, at least."""
        targets = self.targets_stream()
        stream = rest.eventual_stream()
        if stream is not None:
            return max(stream.start - 1, targets.start - 1)
        return max(_explicit_limit(rest, horizon), targets.start - 1)

    def _unread_match(self, rest: PointSpec, k: int) -> ValueBounds:
        """Enclosure of [every coordinate > k of rest hits its target].

        A lazily sampled rest gives 1 with eta bounding P(an unread
        coordinate misses); a user-defined rest, or a lazy one whose
        sampling tail has no disagreement bound, the hard interval [0, 1].
        """
        root = _root_of(rest)[0]
        if not isinstance(root, LazyPoint):
            return ValueBounds(F0, F1)
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
            return ValueBounds(F0, F1)
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

    def expectation(self, mu, horizon):
        """Closed-form E_mu[f].

        Every head coordinate contributes its weight on the target symbol
        (Dirac coordinates contribute exactly 0 or 1); the infinite tail
        product is evaluated in closed form or enclosed to width below
        1e-12, or is a hybrid's pinned point matched against the targets
        (`_tail_match`).  Raises UnsupportedTailError when the measure
        tail rule has no closed form.
        """
        targets = self.targets_stream()
        switch = mu.switch_index
        boundary = (max(mu.head_len, targets.start - 1) if switch is None
                    else switch - 1)
        product = F1
        target = self._targets_through(boundary)
        for i in range(1, boundary + 1):
            a = mu.assignment_at(i)
            if isinstance(a, DiracAssignment):
                if a.point.coordinate(i) != target[i - 1]:
                    return _ZERO
            else:
                product *= a.measure.weight_of(target[i - 1])
                if product == 0:
                    return _ZERO
        if switch is None:
            return mu.tail.indicator_tail_product(
                targets, boundary, mu.head_len).scaled(product)
        rest = mu.tail_point
        return self._tail_match(rest, switch, self.read_horizon(
            rest, horizon)).scaled(product)

    def martingale_steps(self, sigma, x, horizon):
        """Oracle enclosures of g_1(x), g_2(x), ...

        g_n = prod_{i<n} sigma_i(target_i) when x hits every target from n
        on, else 0.  Up to the read depth K that holds exactly when the
        last mismatch in [1, K] lies below n; beyond K it rests on the
        periodic stream of a described x or on `_unread_match`: the
        residual eta of a lazy x, or [0, prod] when x is user-defined or
        its sampling tail has no disagreement bound.  A scan to n_max
        costs O(n_max + horizon) exact operations.
        """
        depth = self._read_depth(x, self.read_horizon(x, horizon))
        target = self._targets_through(depth)
        last_miss = next((i for i in range(depth, 0, -1)
                          if x.coordinate(i) != target[i - 1]), 0)
        stream = x.eventual_stream()
        hits_eventually = (stream is None or streams_eventually_equal(
            stream, self.targets_stream()))
        product = F1
        for n in itertools.count(1):
            if product == 0 or last_miss >= n or not hits_eventually:
                yield _ZERO
            elif stream is not None:
                yield ValueBounds(product, product)
            else:
                yield self._unread_match(x, max(n - 1, depth)).scaled(product)
            if product != 0:
                product *= sigma.coordinate_measure(n).weight_of(
                    self._targets_through(n)[n - 1])

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
                return ValueBounds(F0 if deviation else F1, F1)
            if match is None:
                match = self._tail_match(rest, rest_from, horizon)
            if match.hi == 0 or last_free <= m:
                return match
            return ValueBounds(F0, F1)
        return bounds
