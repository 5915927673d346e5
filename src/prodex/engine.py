"""Certified expectation engine.

`expect` encloses E_mu[f] for a product or hybrid measure in an exact
rational interval.  Two routes:

* exact oracles for all three built-in families.  Each reads the
  coordinates of a product or hybrid measure through one assignment
  per index (a coordinate measure or a Dirac point), so both kinds of
  measure share one loop.  Discounted sums and product indicators
  evaluate their tail contributions in closed form (width 0 or below
  1e-12).  A cylinder of depth d is a finite table sum: each row
  consistent with the Dirac coordinates is weighted by the measure of
  its free prefix, in O(|table| * d) integer operations over common
  denominators, so a g_n on a cylinder costs one pass over the table;
  a partial table raises;
* generic best-first refinement of the prefix tree (the paper's general
  case; no built-in scenario reaches it), for user-defined functions
  and tails without closed forms, each node scored by
  (cylinder measure x oscillation bound) and leaves pruned as soon as
  their enclosure width hits zero.  Dirac coordinates are substituted,
  never branched, so hybrid measures keep the tree narrow past the
  switch index.

Accumulation is exact: integers inside the discounted-sum, lazy-draw
and cylinder-table loops, rationals (Fractions) everywhere else, so
results are independent of evaluation order.  Results carry a residual
probability `eta`, nonzero only when an indicator verdict rests on the
unrealized tail of a lazily sampled point; how far that point is read
is set by `horizon` alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import UnsupportedTailError, ValidationError
from .functions import (
    DEFAULT_HORIZON,
    Cylinder,
    DiscountedSum,
    ProductIndicator,
    TailFunction,
    ValueBounds,
)
from .model import (
    DiracAssignment,
    HybridMeasure,
    LazyPoint,
    MeasureAssignment,
    ProductMeasure,
    _root_of,
)
from .numeric import F0, F1, Interval, Rational, as_fraction

Measure = Union[ProductMeasure, HybridMeasure]

CERTIFIED = "certified"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class ExpectationResult:
    """Certified enclosure of an expectation."""

    interval: Interval
    nodes_expanded: int
    status: str
    eta: Fraction = F0
    oracle_used: bool = False

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def midpoint(self) -> Fraction:
        return self.interval.midpoint

    @property
    def width(self) -> Fraction:
        return self.interval.width


def osc_bound(f: TailFunction, prefix) -> Fraction:
    """Sound upper bound on sup f - inf f over the cylinder of `prefix`."""
    return f.bounds_over(tuple(prefix)).width


def _switch_index(mu: Measure) -> Optional[int]:
    return mu.switch_index if isinstance(mu, HybridMeasure) else None


def _assignment(mu: Measure, i: int):
    if isinstance(mu, HybridMeasure):
        return mu.assignment_at(i)
    return MeasureAssignment(mu.coordinate_measure(i))


def _indicator_horizon(point, explicit: Optional[int]) -> int:
    """Realization depth for indicator verdicts on a pinned rest.

    The explicit horizon if one is given; otherwise DEFAULT_HORIZON,
    raised to cover the head of a lazily sampled root, so a miss among
    the head coordinates is read rather than charged to eta.  Modified
    coordinates and the targets' explicit prefix are always read
    (`ProductIndicator._read_depth`).
    """
    if explicit is not None:
        return explicit
    root = _root_of(point)[0]
    if isinstance(root, LazyPoint):
        return max(DEFAULT_HORIZON, root.measure.head_len)
    return DEFAULT_HORIZON


def exact_expectation_product_indicator(
        f: ProductIndicator, mu: Measure, horizon: Optional[int] = None) -> ValueBounds:
    """Closed-form E_mu[f] for a product indicator.

    Every head coordinate contributes its weight on the target symbol
    (Dirac coordinates contribute exactly 0 or 1); the infinite tail
    product is evaluated in closed form or enclosed to width below 1e-12,
    or is a hybrid's pinned point matched against the targets.  Raises
    UnsupportedTailError when the measure tail rule has no closed form.
    """
    if not isinstance(f, ProductIndicator):
        raise ValidationError("exact indicator oracle needs a ProductIndicator")
    targets = f.targets_stream()
    switch = _switch_index(mu)
    boundary = (max(mu.head_len, targets.start - 1) if switch is None
                else switch - 1)
    product = F1
    target = f._targets_through(boundary)
    for i in range(1, boundary + 1):
        a = _assignment(mu, i)
        if isinstance(a, DiracAssignment):
            if a.point.coordinate(i) != target[i - 1]:
                return ValueBounds.point(0)
        else:
            product *= a.measure.weight_of(target[i - 1])
            if product == 0:
                return ValueBounds.point(0)
    if switch is None:
        tail = mu.tail.indicator_tail_product(targets, boundary, mu.head_len)
        return ValueBounds(product * tail.lo, product * tail.hi)
    h = _indicator_horizon(mu.tail_point, horizon)
    return f._tail_match(mu.tail_point, switch, h).scaled(product)


def _discounted_oracle(f: DiscountedSum, mu: Measure,
                       horizon: Optional[int]) -> ValueBounds:
    """E_mu[f] = sum_i w_i E_i[score], coordinate by coordinate; the tail
    is a closed form, or a hybrid's pinned point summed as a pinned rest."""
    switch = _switch_index(mu)
    boundary = mu.head_len if switch is None else switch - 1
    head = F0
    for i in range(1, boundary + 1):
        a = _assignment(mu, i)
        w = f.weights.weight_at(i)
        if isinstance(a, DiracAssignment):
            head += w * f.score_of(a.point.coordinate(i))
        else:
            head += w * a.measure.mean_score(f.score_of)
    if switch is None:
        tail = mu.tail.mean_tail_sum(
            f.weights.coef, f.weights.ratio, f.score_of, boundary,
            mu.head_len, mu.spaces.space_at(boundary + 1))
        lo, hi = tail.lo, tail.hi
    else:
        lo, hi = f._rest_bounds(
            mu.tail_point, switch,
            DEFAULT_HORIZON if horizon is None else horizon)
    return ValueBounds(head + lo, head + hi)


def _cylinder_oracle(f: Cylinder, mu: Measure,
                     horizon: Optional[int]) -> ValueBounds:
    """E_mu[f] as an exact sum over the rows of the table.

    The first k = min(switch - 1, depth) coordinates are integrated out;
    the coordinates after them are Dirac, and the table is matched on
    them as `Cylinder.pinned_coordinates` reads them.  Rows that disagree
    with a read symbol drop out, the rest are grouped by their first k
    symbols, and each group adds weight(prefix) x [min, max] of its
    values.  The walk runs in integers: values over the table's common
    denominator V (`Cylinder._scaled_table`), the weights of coordinate i
    over theirs, D_i (`CoordinateMeasure._scaled_weights`), so a prefix
    weight is a product of numerators over prod D_i and each end of the
    enclosure becomes one Fraction over V * prod D_i.  Raises
    ValidationError naming the shortest prefix of positive mass that no
    row covers; zero-mass gaps are legal.
    """
    switch = _switch_index(mu)
    k = f.depth if switch is None else min(switch - 1, f.depth)
    pins = {}
    if k < f.depth:
        pins = f.pinned_coordinates(
            _assignment(mu, k + 1).point, k + 1,
            DEFAULT_HORIZON if horizon is None else horizon)
    # the pins are the coordinates k+1..top: a row keeps key[k:top] == block
    block = tuple(pins.values())
    top = k + len(block)
    den, rows = f._scaled_table
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
        a = _assignment(mu, i)
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


def _try_oracle(f: TailFunction, mu: Measure,
                horizon: Optional[int]) -> Optional[ValueBounds]:
    if isinstance(f, Cylinder):
        return _cylinder_oracle(f, mu, horizon)
    try:
        if isinstance(f, ProductIndicator):
            return exact_expectation_product_indicator(f, mu, horizon)
        if isinstance(f, DiscountedSum):
            return _discounted_oracle(f, mu, horizon)
    except UnsupportedTailError:
        return None
    return None


def _oracle_result(vb: ValueBounds, tol: Fraction) -> ExpectationResult:
    status = CERTIFIED if vb.width <= 2 * tol else BUDGET_EXHAUSTED
    return ExpectationResult(vb.interval, 0, status, vb.eta, True)


def _check_settings(tol: Rational, node_budget: int) -> Fraction:
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if node_budget < 1:
        raise ValidationError("node budget must be positive")
    return tol


def expect(f: TailFunction, mu: Measure, tol: Rational = Fraction(1, 10**9),
           node_budget: int = DEFAULT_NODE_BUDGET, use_oracle: bool = True,
           horizon: Optional[int] = None) -> ExpectationResult:
    """Certified enclosure of E_mu[f] of width at most 2*tol.

    `horizon` is the one realization-depth setting: how far a lazily
    sampled pinned point is read (default DEFAULT_HORIZON; indicators
    also read the sampled head, see `_indicator_horizon`).  `use_oracle`
    False forces the generic tree, the reference route of the tests.
    Returns status `budget_exhausted` (with a still-sound interval) when
    the node budget runs out, or when the best achievable enclosure at
    the realization horizon is wider than 2*tol.
    """
    tol = _check_settings(tol, node_budget)

    if use_oracle:
        vb = _try_oracle(f, mu, horizon)
        if vb is not None:
            return _oracle_result(vb, tol)

    switch = _switch_index(mu)
    h = horizon if horizon is not None else DEFAULT_HORIZON
    if isinstance(f, ProductIndicator) and switch is not None:
        h = _indicator_horizon(mu.tail_point, horizon)

    settled_lo = settled_hi = settled_eta = F0
    frontier_lo = frontier_hi = F0
    heap = []

    def place(prefix: tuple, rank: tuple, weight: Fraction):
        nonlocal settled_lo, settled_hi, settled_eta, frontier_lo, frontier_hi
        nxt = len(prefix) + 1
        pinned = switch is not None and nxt >= switch
        if pinned:
            vb = f.bounds_over(prefix, rest=mu.tail_point, rest_from=nxt,
                               horizon=h)
        else:
            vb = f.bounds_over(prefix)
        if pinned or vb.width == 0:
            settled_lo += weight * vb.lo
            settled_hi += weight * vb.hi
            # every leaf's eta bounds the same event (an unread coordinate
            # of the pinned point misses), so they do not add up
            settled_eta = max(settled_eta, vb.eta)
            return
        frontier_lo += weight * vb.lo
        frontier_hi += weight * vb.hi
        heapq.heappush(heap, (-(weight * vb.width), rank, prefix, weight, vb))

    place((), (), F1)
    nodes = 0
    status = CERTIFIED

    def total_width() -> Fraction:
        return (settled_hi + frontier_hi) - (settled_lo + frontier_lo)

    while heap and total_width() > 2 * tol:
        if nodes >= node_budget:
            status = BUDGET_EXHAUSTED
            break
        _, rank, prefix, weight, vb = heapq.heappop(heap)
        frontier_lo -= weight * vb.lo
        frontier_hi -= weight * vb.hi
        nodes += 1
        i = len(prefix) + 1
        a = _assignment(mu, i)
        if isinstance(a, DiracAssignment):
            sym = a.point.coordinate(i)
            place(prefix + (sym,), rank + (0,), weight)
        else:
            for pos, (sym, w) in enumerate(a.measure.items()):
                if w == 0:
                    continue
                place(prefix + (sym,), rank + (pos,), weight * w)

    if not heap and total_width() > 2 * tol:
        status = BUDGET_EXHAUSTED
    interval = Interval(settled_lo + frontier_lo, settled_hi + frontier_hi)
    return ExpectationResult(interval, nodes, status, settled_eta, False)
