"""Domain model: coordinate spaces, product measures, points, hybrids.

A product space here is a countable product of finite labeled coordinate
spaces.  Infinite objects (measures, points) carry an explicit finite
head plus a finitely described tail rule, so every coordinate resolves
in O(1) and closed-form tail computations stay exact.

All types are immutable after construction except four pure memos:
the realized-prefix cache of lazy points, the per-index tail spaces
and tail measures of space families and product measures, and the CDF
thresholds of a coordinate measure.  Each memoized value is a
deterministic function of the object (and the index), so evaluation
order cannot matter, and each tail measure is built, validated and
given its thresholds once per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .errors import NotTailEquivalentError, UnsupportedTailError, ValidationError
from .numeric import F0, F1, PROB_SUM_TOL, Rational, ValueBounds, as_fraction
from .seeds import unit_hasher

Symbol = Union[int, str]


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateSpace:
    """A finite labeled coordinate space at a fixed index."""

    index: int
    symbols: tuple

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError(f"coordinate index must be >= 1, got {self.index}")
        if not self.symbols:
            raise ValidationError(f"coordinate {self.index}: empty symbol set")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"coordinate {self.index}: duplicate symbols")

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class SpaceFamily:
    """Coordinate spaces for every index: explicit head, repeated tail template."""

    head: tuple
    tail_symbols: tuple
    _tail_spaces: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for pos, space in enumerate(self.head, start=1):
            if space.index != pos:
                raise ValidationError(
                    f"head space at position {pos} carries index {space.index}"
                )
        # validate the template itself
        CoordinateSpace(max(1, len(self.head) + 1), tuple(self.tail_symbols))

    @classmethod
    def uniform(cls, symbols: Sequence, head_count: int = 0) -> "SpaceFamily":
        syms = tuple(symbols)
        head = tuple(CoordinateSpace(i, syms) for i in range(1, head_count + 1))
        return cls(head, syms)

    def space_at(self, i: int) -> CoordinateSpace:
        if i < 1:
            raise ValidationError(f"coordinate index must be >= 1, got {i}")
        if i <= len(self.head):
            return self.head[i - 1]
        space = self._tail_spaces.get(i)
        if space is None:
            space = self._tail_spaces[i] = CoordinateSpace(i, self.tail_symbols)
        return space

    def any_alternatives_beyond(self, i: int) -> bool:
        """True when some coordinate > i has at least two symbols."""
        for space in self.head[i:]:
            if space.size >= 2:
                return True
        return len(self.tail_symbols) >= 2


# ---------------------------------------------------------------------------
# Single-coordinate measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateMeasure:
    """Probability vector over one coordinate's symbols.

    Weights are exact rationals.  Vectors whose sum deviates from 1 by
    more than 1e-12 are rejected outright; nothing is renormalized.

    Draws invert the CDF in integers: a 64-bit draw k picks the first
    positive-weight symbol j with k < ceil(cum_j * 2**64), where cum_j is
    the weight of symbols 1..j.  Since k / 2**64 < c exactly when
    k < ceil(c * 2**64), this is `sample(k / 2**64)`, symbol for symbol.
    """

    space_index: int
    symbols: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.symbols) != len(self.weights):
            raise ValidationError(
                f"coordinate {self.space_index}: {len(self.weights)} weights "
                f"for {len(self.symbols)} symbols"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"coordinate {self.space_index}: duplicate symbols")
        for sym, w in zip(self.symbols, self.weights):
            if w < 0:
                raise ValidationError(
                    f"coordinate {self.space_index}: negative weight for {sym!r}"
                )
        total = sum(self.weights, F0)
        if abs(total - 1) > PROB_SUM_TOL:
            raise ValidationError(
                f"coordinate {self.space_index}: weights sum to {float(total)}, "
                f"deviating from 1 by more than 1e-12"
            )

    @classmethod
    def from_weights(cls, space_index: int, symbols: Sequence,
                     weights: Sequence[Rational]) -> "CoordinateMeasure":
        return cls(space_index, tuple(symbols),
                   tuple(as_fraction(w) for w in weights))

    def weight_of(self, symbol) -> Fraction:
        try:
            return self.weights[self.symbols.index(symbol)]
        except ValueError:
            return F0

    def items(self):
        return tuple(zip(self.symbols, self.weights))

    def support(self) -> tuple:
        return tuple(s for s, w in zip(self.symbols, self.weights) if w > 0)

    @property
    def is_dirac(self) -> bool:
        return any(w == 1 for w in self.weights)

    @property
    def max_weight(self) -> Fraction:
        return max(self.weights)

    def at_index(self, i: int) -> "CoordinateMeasure":
        if i == self.space_index:
            return self
        return CoordinateMeasure(i, self.symbols, self.weights)

    def mean_score(self, score_of) -> Fraction:
        return sum((w * score_of(s) for s, w in zip(self.symbols, self.weights)), F0)

    @cached_property
    def _thresholds(self) -> tuple:
        """((ceil(cum_j * 2**64), symbol_j), ...) over the positive-weight
        symbols, built in integers: the running sum is num / den."""
        num, den = 0, 1
        thresholds = []
        for sym, w in zip(self.symbols, self.weights):
            if w == 0:
                continue
            a, b = w.as_integer_ratio()
            num, den = num * b + a * den, den * b
            thresholds.append((-(-(num << 64) // den), sym))
        return tuple(thresholds)

    @cached_property
    def _scaled_weights(self) -> tuple:
        """(D, {symbol: weight * D}): the weights as integers over one
        common denominator D, the lcm of their denominators."""
        d = math.lcm(*(w.denominator for w in self.weights))
        return d, {sym: w.numerator * (d // w.denominator)
                   for sym, w in zip(self.symbols, self.weights)}

    def sample_bits(self, k: int):
        """`sample(k / 2**64)` for an integer k in [0, 2**64)."""
        thresholds = self._thresholds
        for bound, sym in thresholds:
            if k < bound:
                return sym
        if not thresholds:
            raise ValidationError(
                f"coordinate {self.space_index}: no symbol has positive weight"
            )
        # positive weights summing to slightly less than 1
        return thresholds[-1][1]

    def sample(self, u: Fraction):
        """Invert the CDF at u in [0, 1); symbol order breaks ties."""
        acc = F0
        chosen = None
        for sym, w in zip(self.symbols, self.weights):
            if w == 0:
                continue
            chosen = sym
            acc += w
            if u < acc:
                return sym
        if chosen is None:
            raise ValidationError(
                f"coordinate {self.space_index}: no symbol has positive weight"
            )
        return chosen


def bernoulli_measure(index: int, p_one: Rational,
                      symbols: Sequence = (0, 1)) -> CoordinateMeasure:
    """Two-symbol measure putting p_one on the second listed symbol."""
    p = as_fraction(p_one)
    return CoordinateMeasure.from_weights(index, symbols, (1 - p, p))


def uniform_measure(index: int, symbols: Sequence) -> CoordinateMeasure:
    n = len(tuple(symbols))
    return CoordinateMeasure.from_weights(index, symbols, (Fraction(1, n),) * n)


def dirac_measure(index: int, symbols: Sequence, symbol) -> CoordinateMeasure:
    syms = tuple(symbols)
    if symbol not in syms:
        raise ValidationError(f"coordinate {index}: Dirac symbol {symbol!r} not in space")
    return CoordinateMeasure.from_weights(
        index, syms, tuple(F1 if s == symbol else F0 for s in syms))


# ---------------------------------------------------------------------------
# Symbol tail rules (tails of described points and indicator targets)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicStream:
    """Symbols for all coordinates >= start, repeating with a fixed period."""

    start: int
    symbols: tuple

    def symbol_at(self, i: int):
        if i < self.start:
            raise ValidationError(f"stream starts at {self.start}, asked for {i}")
        return self.symbols[(i - self.start) % len(self.symbols)]

    def rebase(self, start: int) -> "PeriodicStream":
        """Equivalent stream anchored at a later start index."""
        if start < self.start:
            raise ValidationError("cannot rebase a stream earlier than its start")
        p = len(self.symbols)
        shift = (start - self.start) % p
        return PeriodicStream(start, self.symbols[shift:] + self.symbols[:shift])


@dataclass(frozen=True)
class PeriodicSymbols:
    kind = "periodic_symbols"
    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("periodic symbol rule needs at least one symbol")

    def symbol_at(self, i: int, head_len: int):
        return self.symbols[(i - head_len - 1) % len(self.symbols)]

    def stream(self, head_len: int) -> PeriodicStream:
        return PeriodicStream(head_len + 1, tuple(self.symbols))


class ConstantSymbol(PeriodicSymbols):
    """The period-1 symbol rule: every coordinate past the head is `symbol`."""

    kind = "constant_symbol"

    def __init__(self, symbol: Symbol):
        super().__init__((symbol,))

    @property
    def symbol(self) -> Symbol:
        return self.symbols[0]


SymbolRule = PeriodicSymbols


def streams_eventually_equal(a: PeriodicStream, b: PeriodicStream) -> bool:
    """Whether two periodic streams agree on all sufficiently large indices."""
    start = max(a.start, b.start)
    span = math.lcm(len(a.symbols), len(b.symbols))
    return all(a.symbol_at(i) == b.symbol_at(i) for i in range(start, start + span))


# ---------------------------------------------------------------------------
# Measure tail rules
# ---------------------------------------------------------------------------

class TailMeasureRule:
    """Finite description of all coordinate measures beyond the head.

    Subclasses provide per-index instantiation plus the closed forms the
    exact-expectation oracles need.  A rule that cannot supply a closed
    form raises UnsupportedTailError from the corresponding hook.
    """

    kind = "abstract"

    def measure_at(self, i: int, head_len: int, space: CoordinateSpace) -> CoordinateMeasure:
        raise NotImplementedError

    def indicator_tail_product(self, targets: PeriodicStream, from_index: int,
                               head_len: int) -> ValueBounds:
        """Enclosure of prod_{i > from_index} weight_i(target_i)."""
        raise UnsupportedTailError(f"{self.kind}: no product closed form")

    def mean_tail_sum(self, coef: Fraction, ratio: Fraction, score_of,
                      from_index: int, head_len: int,
                      space: CoordinateSpace) -> ValueBounds:
        """Enclosure of sum_{i > from_index} coef*ratio**i * E_i[score]."""
        raise UnsupportedTailError(f"{self.kind}: no mean closed form")

    def disagreement_bound(self, targets: PeriodicStream, from_index: int,
                           head_len: int) -> Fraction:
        """Upper bound on P(some coordinate > from_index misses its target)."""
        raise UnsupportedTailError(f"{self.kind}: no disagreement bound")

    def sup_weight_beyond(self, from_index: int, head_len: int) -> Fraction:
        """Supremum over coordinates > from_index of the max symbol weight."""
        raise UnsupportedTailError(f"{self.kind}: no sup-weight closed form")


def _geometric_sum(coef: Fraction, ratio: Fraction, first: int, step: int) -> Fraction:
    """sum_{t >= 0} coef * ratio**(first + t*step), exact."""
    return coef * ratio**first / (1 - ratio**step)


@dataclass(frozen=True)
class PeriodicMeasuresTail(TailMeasureRule):
    kind = "periodic"
    templates: tuple

    def __post_init__(self):
        if not self.templates:
            raise ValidationError("periodic measure rule needs at least one measure")

    def _template_for(self, i: int, head_len: int) -> CoordinateMeasure:
        return self.templates[(i - head_len - 1) % len(self.templates)]

    def measure_at(self, i, head_len, space):
        m = self._template_for(i, head_len).at_index(i)
        _check_alignment(m, space)
        return m

    def _period_factors(self, targets, from_index, head_len):
        span = math.lcm(len(self.templates), len(targets.symbols))
        lo = max(from_index + 1, targets.start)
        return [
            self._template_for(i, head_len).weight_of(targets.symbol_at(i))
            for i in range(lo, lo + span)
        ]

    def indicator_tail_product(self, targets, from_index, head_len):
        factors = self._period_factors(targets, from_index, head_len)
        return ValueBounds.point(1 if all(f == 1 for f in factors) else 0)

    def mean_tail_sum(self, coef, ratio, score_of, from_index, head_len, space):
        p = len(self.templates)
        total = F0
        for offset in range(p):
            first = from_index + 1 + offset
            e = self._template_for(first, head_len).mean_score(score_of)
            total += e * _geometric_sum(coef, ratio, first, p)
        return ValueBounds.point(total)

    def disagreement_bound(self, targets, from_index, head_len):
        factors = self._period_factors(targets, from_index, head_len)
        return F0 if all(f == 1 for f in factors) else F1

    def sup_weight_beyond(self, from_index, head_len):
        return max(t.max_weight for t in self.templates)


class ConstantMeasureTail(PeriodicMeasuresTail):
    """The period-1 measure rule: every coordinate past the head follows
    `template`, re-indexed."""

    kind = "constant"

    def __init__(self, template: CoordinateMeasure):
        super().__init__((template,))

    @property
    def template(self) -> CoordinateMeasure:
        return self.templates[0]


@dataclass(frozen=True)
class GeometricBernoulliTail(TailMeasureRule):
    """Two-symbol rule whose weight on `one` at coordinate i is 1 - 2**-i."""

    kind = "geometric_bernoulli"
    zero: Symbol = 0
    one: Symbol = 1

    #: number of extra explicit factors used before bounding the remainder;
    #: the enclosure width is below 2**-60 of the value, far under 1e-12
    PRODUCT_TERMS = 64

    def weight_one(self, i: int) -> Fraction:
        return 1 - Fraction(1, 2**i)

    def measure_at(self, i, head_len, space):
        w1 = self.weight_one(i)
        weights = []
        for s in space.symbols:
            if s == self.one:
                weights.append(w1)
            elif s == self.zero:
                weights.append(1 - w1)
            else:
                raise ValidationError(
                    f"coordinate {i}: space symbol {s!r} unknown to "
                    f"geometric_bernoulli (expects {self.zero!r}/{self.one!r})"
                )
        m = CoordinateMeasure(i, space.symbols, tuple(weights))
        _check_alignment(m, space)
        return m

    def indicator_tail_product(self, targets, from_index, head_len):
        if any(t != self.one for t in targets.symbols):
            # infinitely many factors bounded by 2**-i: the product is 0
            return ValueBounds.point(0)
        last = from_index + self.PRODUCT_TERMS
        partial = F1
        for i in range(from_index + 1, last + 1):
            partial *= self.weight_one(i)
        # remaining factors lie in [1 - 2**-last, 1)
        return ValueBounds(partial * (1 - Fraction(1, 2**last)), partial)

    def mean_tail_sum(self, coef, ratio, score_of, from_index, head_len, space):
        s1, s0 = score_of(self.one), score_of(self.zero)
        base = s1 * _geometric_sum(coef, ratio, from_index + 1, 1)
        correction = (s0 - s1) * _geometric_sum(coef, ratio / 2, from_index + 1, 1)
        return ValueBounds.point(base + correction)

    def disagreement_bound(self, targets, from_index, head_len):
        if all(t == self.one for t in targets.symbols):
            return Fraction(1, 2**from_index) if from_index >= 1 else F1
        return F1

    def sup_weight_beyond(self, from_index, head_len):
        return F1  # sup of 1 - 2**-i, approached but not attained


FORMULA_FAMILIES = {
    "geometric_bernoulli": GeometricBernoulliTail,
}


def formula_tail(family: str, params: Optional[Mapping] = None) -> TailMeasureRule:
    """Instantiate a registered formula family tail rule."""
    try:
        cls = FORMULA_FAMILIES[family]
    except KeyError:
        raise UnsupportedTailError(f"unregistered formula family {family!r}") from None
    return cls(**dict(params or {}))


def _check_alignment(measure: CoordinateMeasure, space: CoordinateSpace) -> None:
    if measure.symbols != space.symbols:
        raise ValidationError(
            f"coordinate {space.index}: measure symbols {measure.symbols!r} "
            f"do not match space symbols {space.symbols!r}"
        )


# ---------------------------------------------------------------------------
# Product measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductMeasure:
    """Independent coordinates: explicit head measures plus a tail rule."""

    spaces: SpaceFamily
    head: tuple
    tail: TailMeasureRule
    _tail_measures: dict = field(default_factory=dict, repr=False, compare=False)

    #: no coordinate is pinned, as in a `HybridMeasure` that never switches
    switch_index = None

    def __post_init__(self):
        for pos, m in enumerate(self.head, start=1):
            if m.space_index != pos:
                raise ValidationError(
                    f"measure.head[{pos - 1}]: carries index {m.space_index}, "
                    f"expected {pos}"
                )
            _check_alignment(m, self.spaces.space_at(pos))
        # instantiate the rule once to validate it against the template space
        probe = len(self.head) + 1
        self.tail.measure_at(probe, len(self.head), self.spaces.space_at(probe))

    @property
    def head_len(self) -> int:
        return len(self.head)

    def coordinate_measure(self, i: int) -> CoordinateMeasure:
        if i < 1:
            raise ValidationError(f"coordinate index must be >= 1, got {i}")
        if i <= len(self.head):
            return self.head[i - 1]
        m = self._tail_measures.get(i)
        if m is None:
            m = self._tail_measures[i] = self.tail.measure_at(
                i, len(self.head), self.spaces.space_at(i))
        return m

    def assignment_at(self, i: int) -> "Assignment":
        """Coordinate i's measure, as `HybridMeasure.assignment_at` gives it."""
        return MeasureAssignment(self.coordinate_measure(i))


def resolve_coordinate_measure(sigma: ProductMeasure, i: int) -> CoordinateMeasure:
    """Measure of coordinate i: head lookup or tail rule instantiation."""
    return sigma.coordinate_measure(i)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class PointSpec:
    """A point of the product space with every coordinate resolvable."""

    kind = "abstract"

    def coordinate(self, i: int):
        raise NotImplementedError

    def eventual_stream(self) -> Optional[PeriodicStream]:
        """Periodic description of all large coordinates, if one exists."""
        return None


@dataclass(frozen=True)
class DescribedPoint(PointSpec):
    """Explicit head symbols plus a periodic/constant symbol tail rule."""

    head: tuple
    tail: SymbolRule
    kind = "described"

    def coordinate(self, i: int):
        if i < 1:
            raise ValidationError(f"coordinate index must be >= 1, got {i}")
        if i <= len(self.head):
            return self.head[i - 1]
        return self.tail.symbol_at(i, len(self.head))

    def eventual_stream(self) -> PeriodicStream:
        return self.tail.stream(len(self.head))

    def validate_against(self, spaces: SpaceFamily) -> None:
        for i, sym in enumerate(self.head, start=1):
            if sym not in spaces.space_at(i):
                raise ValidationError(
                    f"point head[{i - 1}]: symbol {sym!r} not in coordinate {i}"
                )
        stream = self.eventual_stream()
        for off, sym in enumerate(stream.symbols):
            if sym not in spaces.space_at(stream.start + off):
                raise ValidationError(
                    f"point tail: symbol {sym!r} not in coordinate {stream.start + off}"
                )


def constant_point(symbol, head: Sequence = ()) -> DescribedPoint:
    return DescribedPoint(tuple(head), ConstantSymbol(symbol))


@dataclass(frozen=True, eq=False)
class LazyPoint(PointSpec):
    """Point sampled from a product measure, realized on demand.

    Coordinate i is a pure function of (seed, i): the 64-bit uniform
    k = ``unit_bits(seed, "coord", i)``, digested by a copy of the point's
    one hasher (`seeds.unit_hasher`, rebuilt rather than pickled or copied)
    fed ``str(i)``, is inverted through coordinate i's CDF by comparing k
    with the integer thresholds ceil(cum * 2**64) of `sample_bits`.
    The cache is write-once per index and safe under concurrent readers
    because every writer computes the identical value.  The seed must lie
    in [0, 2**64), checked once here rather than on every draw.
    """

    seed: int
    measure: ProductMeasure
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    kind = "lazy"

    def __post_init__(self):
        object.__setattr__(self, "_hasher", unit_hasher(self.seed, "coord"))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hasher"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    def coordinate(self, i: int):
        hit = self._cache.get(i)
        if hit is not None:
            return hit
        h = self._hasher.copy()
        h.update(str(i).encode())
        sym = self.measure.coordinate_measure(i).sample_bits(
            int.from_bytes(h.digest(), "little"))
        self._cache[i] = sym
        return sym


_UNSET = object()


@dataclass(frozen=True, eq=False)
class ModifiedPoint(PointSpec):
    """A base point with finitely many coordinates overridden."""

    base: PointSpec
    overrides: tuple  # sorted ((index, symbol), ...)
    #: the overrides as {index: symbol}, for one lookup per coordinate
    _by_index: dict = field(init=False, repr=False)

    kind = "modified"

    def __post_init__(self):
        idxs = [i for i, _ in self.overrides]
        if idxs != sorted(set(idxs)):
            raise ValidationError("overrides must be sorted and unique by index")
        object.__setattr__(self, "_by_index", dict(self.overrides))

    def coordinate(self, i: int):
        sym = self._by_index.get(i, _UNSET)
        return self.base.coordinate(i) if sym is _UNSET else sym

    def eventual_stream(self) -> Optional[PeriodicStream]:
        inner = self.base.eventual_stream()
        if inner is None:
            return None
        last = max((i for i, _ in self.overrides), default=0)
        return inner.rebase(max(inner.start, last + 1))


def point_coordinate(x: PointSpec, i: int):
    """Symbol of x at coordinate i (realizing lazily sampled coordinates)."""
    if i < 1:
        raise ValidationError(f"coordinate index must be >= 1, got {i}")
    return x.coordinate(i)


def modify_point(x: PointSpec, overrides: Mapping[int, Symbol]) -> PointSpec:
    """Point equal to x except at the overridden coordinates.

    The result is a `ModifiedPoint` whatever x's kind (x itself when
    nothing is overridden; a modified x has its overrides merged).  It
    keeps every override, even one equal to its base's symbol, so a
    lazily sampled point is read as deep as each one.
    """
    if not overrides:
        return x
    clean = dict(overrides)
    for i in clean:
        if i < 1:
            raise ValidationError(f"override index must be >= 1, got {i}")
    if isinstance(x, ModifiedPoint):
        merged = dict(x.overrides)
        merged.update(clean)
        return ModifiedPoint(x.base, tuple(sorted(merged.items())))
    return ModifiedPoint(x, tuple(sorted(clean.items())))


def splice_prefix(x: PointSpec, y: PointSpec, k: int) -> PointSpec:
    """The point (y_1, ..., y_{k-1}, x_k, x_{k+1}, ...)."""
    return modify_point(x, {i: y.coordinate(i) for i in range(1, k)})


def _root_of(x: PointSpec):
    depth = 0
    while isinstance(x, ModifiedPoint):
        depth = max(depth, max((i for i, _ in x.overrides), default=0))
        x = x.base
    return x, depth


def agreement_index(x: PointSpec, y: PointSpec) -> int:
    """Smallest n >= 0 with x_i == y_i for every i > n.

    Works for pairs of eventually described points and for pairs sharing
    the same underlying lazy/described object up to finite modification.
    Raises NotTailEquivalentError otherwise.
    """
    if x is y:
        return 0
    rx, dx = _root_of(x)
    ry, dy = _root_of(y)
    if rx is ry:
        check_to = max(dx, dy)
    else:
        sx, sy = x.eventual_stream(), y.eventual_stream()
        if sx is None or sy is None:
            raise NotTailEquivalentError(
                "points share no base and are not eventually described"
            )
        if not streams_eventually_equal(sx, sy):
            raise NotTailEquivalentError("point tails differ at infinitely many indices")
        check_to = max(sx.start, sy.start) - 1
    n = 0
    for i in range(1, check_to + 1):
        if x.coordinate(i) != y.coordinate(i):
            n = i
    return n


# ---------------------------------------------------------------------------
# Hybrid measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureAssignment:
    measure: CoordinateMeasure
    is_dirac = False


@dataclass(frozen=True, eq=False)
class DiracAssignment:
    point: PointSpec
    is_dirac = True


Assignment = Union[MeasureAssignment, DiracAssignment]


@dataclass(frozen=True, eq=False)
class HybridMeasure:
    """Per-coordinate mix of measures and Dirac points, Dirac from switch_index on.

    Coordinates below switch_index follow `head` (measure or Dirac each);
    every coordinate >= switch_index is the Dirac measure on tail_point.
    """

    head: tuple
    switch_index: int
    tail_point: PointSpec

    def __post_init__(self):
        if self.switch_index < 1:
            raise ValidationError("switch index must be >= 1")
        if len(self.head) != self.switch_index - 1:
            raise ValidationError(
                f"{len(self.head)} head assignments for switch index "
                f"{self.switch_index}"
            )
        for pos, a in enumerate(self.head, start=1):
            if isinstance(a, MeasureAssignment) and a.measure.space_index != pos:
                raise ValidationError(
                    f"hybrid head[{pos - 1}]: measure carries index "
                    f"{a.measure.space_index}"
                )

    @classmethod
    def dirac(cls, x: PointSpec) -> "HybridMeasure":
        return cls((), 1, x)

    @classmethod
    def measures_then_point(cls, sigma: ProductMeasure, x: PointSpec,
                            n: int) -> "HybridMeasure":
        """sigma_1 x ... x sigma_{n-1} x x_n x x_{n+1} x ..."""
        head = tuple(
            MeasureAssignment(sigma.coordinate_measure(i)) for i in range(1, n)
        )
        return cls(head, n, x)

    def assignment_at(self, i: int) -> Assignment:
        if i < 1:
            raise ValidationError(f"coordinate index must be >= 1, got {i}")
        if i >= self.switch_index:
            return DiracAssignment(self.tail_point)
        return self.head[i - 1]
