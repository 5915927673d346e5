"""Certified expectation engine.

`expect` encloses E_mu[f] for a product or hybrid measure in an exact
rational interval.  Both kinds of measure give `switch_index` (None for
a product measure) and one assignment per index, `assignment_at(i)` (a
coordinate measure or a Dirac point), so every route reads them on one
code path.  Two routes:

* the function's own exact oracle, `f.expectation(mu, horizon)` (see
  `TailFunction`).  Discounted sums and product indicators evaluate
  their tail contributions in closed form (width 0 or below 1e-12); a
  cylinder of depth d is a table sum in O(|table| * d) integer
  operations, so a g_n on a cylinder costs one pass over the table;
* generic best-first refinement of the prefix tree (the paper's general
  case; no built-in scenario reaches it), when the oracle returns None
  or raises UnsupportedTailError: for user-defined functions and tails
  without closed forms, each node scored by (cylinder measure x
  oscillation bound) and leaves pruned as soon as their enclosure width
  hits zero.  Dirac coordinates are substituted, never branched, so
  hybrid measures keep the tree narrow past the switch index.  Its
  expansion limit, `node_budget`, is a keyword of `expect` alone; every
  other entry point runs the tree with `DEFAULT_NODE_BUDGET`.

Accumulation is exact: integers inside the discounted-sum, lazy-draw
and cylinder-table loops, rationals (Fractions) everywhere else, so
results are independent of evaluation order.  A result's `bounds` carry
a residual probability `eta`, nonzero only when an indicator verdict
rests on the unrealized tail of a lazily sampled point; how far that
point is read is set by `horizon` alone, through `f.read_horizon`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import UnsupportedTailError, ValidationError
from .functions import Measure, ProductIndicator, TailFunction
from .model import DiracAssignment
from .numeric import F0, F1, Rational, ValueBounds, as_fraction

CERTIFIED = "certified"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class ExpectationResult:
    """Certified enclosure of an expectation, its eta included."""

    bounds: ValueBounds
    nodes_expanded: int
    status: str
    oracle_used: bool = False

    @property
    def interval(self) -> ValueBounds:
        return self.bounds

    @property
    def eta(self) -> Fraction:
        return self.bounds.eta

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def midpoint(self) -> Fraction:
        return self.bounds.midpoint

    @property
    def width(self) -> Fraction:
        return self.bounds.width


def osc_bound(f: TailFunction, prefix) -> Fraction:
    """Sound upper bound on sup f - inf f over the cylinder of `prefix`."""
    return f.bounds_over(tuple(prefix)).width


def exact_expectation_product_indicator(
        f: ProductIndicator, mu: Measure, horizon: Optional[int] = None) -> ValueBounds:
    """Closed-form E_mu[f] for a product indicator
    (`ProductIndicator.expectation`).  Raises UnsupportedTailError when
    the measure tail rule has no closed form."""
    if not isinstance(f, ProductIndicator):
        raise ValidationError("exact indicator oracle needs a ProductIndicator")
    return f.expectation(mu, horizon)


def _oracle_result(vb: ValueBounds, tol: Fraction) -> ExpectationResult:
    status = CERTIFIED if vb.width <= 2 * tol else BUDGET_EXHAUSTED
    return ExpectationResult(vb, 0, status, True)


def _check_tol(tol: Rational) -> Fraction:
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    return tol


def expect(f: TailFunction, mu: Measure, tol: Rational = Fraction(1, 10**9),
           node_budget: int = DEFAULT_NODE_BUDGET, use_oracle: bool = True,
           horizon: Optional[int] = None) -> ExpectationResult:
    """Certified enclosure of E_mu[f] of width at most 2*tol.

    `horizon` is the one realization-depth setting: how far a lazily
    sampled pinned point is read (`f.read_horizon`: the default depth
    when None; indicators also read the sampled head).  `use_oracle` False
    forces the generic tree, the reference route of the tests.
    Returns status `budget_exhausted` (with a still-sound interval) when
    the node budget runs out, or when the best achievable enclosure at
    the realization horizon is wider than 2*tol.
    """
    tol = _check_tol(tol)
    if node_budget < 1:
        raise ValidationError("node budget must be positive")

    if use_oracle:
        try:
            vb = f.expectation(mu, horizon)
        except UnsupportedTailError:
            vb = None
        if vb is not None:
            return _oracle_result(vb, tol)

    switch = mu.switch_index
    h = None if switch is None else f.read_horizon(mu.tail_point, horizon)

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
        a = mu.assignment_at(i)
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
    bounds = ValueBounds(settled_lo + frontier_lo, settled_hi + frontier_hi,
                         settled_eta)
    return ExpectationResult(bounds, nodes, status)
