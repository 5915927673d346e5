"""The reverse-martingale sequence g_n and the strong approximation finder.

g_n(x) is the expectation of f when coordinates below n keep their
original measures and coordinates from n on are pinned to x.  For n = 1
every coordinate is pinned, so g_1(x) = f(x); as n grows the sequence
converges to E[f] for almost every sampled x, and `find_strong_approx`
searches for the first n where |g_n(x) - E[f]| <= epsilon is certified.

g_{n+1}(x) differs from g_n(x) only at coordinate n, which is
integrated out instead of pinned.  `trace`, `find_strong_approx` and
`games.purify` scan the indices through the function's own steps,
`f.martingale_steps(sigma, x, horizon)` (see `TailFunction`), which
read the point once up to its read limit.  `g_n` goes through
`engine.expect` on the hybrid measure, whose route is the first of the
steps from index n on (`start=n`).  Discounted sums and product
indicators take O(1) exact operations per further index, a scan to
n_max O(n_max + horizon); a cylinder of depth d extends its weighted
prefixes by one coordinate per index, against row aggregates built
once, about 2 |table| lookups for a whole trace, and g_n = E[f] for
n > d.  A function without steps (the hook returns None) evaluates
each index with `g_n` on the generic tree, which
`g_n(..., use_oracle=False)` also forces for every family.  All
routes give identical enclosures; a scan yields them as bare
`ValueBounds`.
`horizon` alone sets how far a lazily sampled x is read (`f.read_horizon`).

Comparisons are decided on interval separation only: a verdict is
issued when the two enclosures admit no other answer, otherwise the
index is reported undecided.  No membership claim ever rests on
numerical slack.  A scan moves the bounds of E[f] by epsilon once and
compares every g_n enclosure with those four bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import ExpectationResult, _check_tol, expect
from .errors import ToleranceConfigError, ValidationError
from .functions import TailFunction
from .model import HybridMeasure, PointSpec, ProductMeasure
from .numeric import F0, Rational, ValueBounds, as_fraction

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class TraceEntry:
    n: int
    bounds: ValueBounds

    @property
    def interval(self) -> ValueBounds:
        return self.bounds

    @property
    def eta(self) -> Fraction:
        return self.bounds.eta


@dataclass(frozen=True)
class MartingaleTrace:
    """Enclosures of g_1(x) .. g_N(x) plus the reference E[f]."""

    entries: tuple
    reference: ExpectationResult

    def __post_init__(self):
        for pos, e in enumerate(self.entries, start=1):
            if e.n != pos:
                raise ValidationError("trace entries must be indexed 1..N")


@dataclass(frozen=True)
class StrongApproxResult:
    """Outcome of scanning g_1 .. g_{n_max} against |g_n - E[f]| <= epsilon.

    `found` requires every smaller index to be certified violating; if
    any smaller index was undecided the scan reports `inconclusive`
    instead (with `first_certified` as a diagnostic), so no index is
    ever silently skipped.
    """

    outcome: str
    n: Optional[int]
    undecided: tuple
    eta: Fraction = F0
    first_certified: Optional[int] = None
    found_value: Optional[ValueBounds] = None

    @property
    def is_found(self) -> bool:
        return self.outcome == FOUND


def g_n(f: TailFunction, sigma: ProductMeasure, x: PointSpec, n: int,
        tol: Rational = Fraction(1, 10**9), *, use_oracle: bool = True,
        horizon: Optional[int] = None) -> ExpectationResult:
    """Enclosure of g_n(x) = E[f] under sigma_1 x .. x sigma_{n-1} x x_n x ..."""
    if n < 1:
        raise ValidationError("martingale index must be >= 1")
    hybrid = HybridMeasure.measures_then_point(sigma, x, n)
    return expect(f, hybrid, tol, use_oracle=use_oracle, horizon=horizon)


def _scan(f: TailFunction, sigma: ProductMeasure, x: PointSpec, n_max: int,
          tol: Rational, *, horizon: Optional[int]):
    """Enclosures of g_1(x) .. g_{n_max}(x), in order, each `g_n`'s bounds:
    the function's own steps (`f.martingale_steps`) when it has them,
    else one `g_n` per index."""
    tol = _check_tol(tol)
    steps = f.martingale_steps(sigma, x, horizon)
    if steps is None:
        steps = (g_n(f, sigma, x, n, tol, horizon=horizon).bounds
                 for n in itertools.count(1))
    yield from itertools.islice(steps, n_max)


def trace(f: TailFunction, sigma: ProductMeasure, x: PointSpec, n_max: int,
          tol: Rational = Fraction(1, 10**9), *,
          horizon: Optional[int] = None) -> MartingaleTrace:
    """Trace of g_n(x) for n = 1..n_max with the reference E[f]."""
    if n_max < 1:
        raise ValidationError("trace length must be >= 1")
    scan = _scan(f, sigma, x, n_max, tol, horizon=horizon)
    entries = [TraceEntry(n, value) for n, value in enumerate(scan, start=1)]
    reference = expect(f, sigma, tol, horizon=horizon)
    return MartingaleTrace(tuple(entries), reference)


def _epsilon_verdicts(reference: ValueBounds, epsilon: Fraction):
    """Verdict function on |v - reference| <= epsilon for an enclosure of v.

    The rule of `abs_difference`, with the reference's bounds moved by
    epsilon once: YES when [lo, hi] lies in [ref.hi - eps, ref.lo + eps],
    NO when it lies wholly above ref.hi + eps or below ref.lo - eps, so a
    scan compares each g_n enclosure with four fixed bounds and never
    subtracts.  No distance is below a negative epsilon: always NO.
    """
    if epsilon < 0:
        return lambda value: NO
    yes_lo, yes_hi = reference.hi - epsilon, reference.lo + epsilon
    no_above, no_below = reference.hi + epsilon, reference.lo - epsilon

    def verdict(value: ValueBounds) -> str:
        if value.lo >= yes_lo and value.hi <= yes_hi:
            return YES
        if value.lo > no_above or value.hi < no_below:
            return NO
        return UNDECIDED

    return verdict


def compare_to_epsilon(value: ExpectationResult, reference: ExpectationResult,
                       epsilon: Fraction) -> str:
    """Definite verdict on |value - reference| <= epsilon, if any."""
    return _epsilon_verdicts(reference.bounds,
                             as_fraction(epsilon))(value.bounds)


def _check_strong_args(epsilon: Fraction, tol: Rational, n_max: int
                       ) -> Fraction:
    """tol as a Fraction, once it leaves headroom below epsilon/4 and
    n_max >= 1; `find_strong_approx` and `games.purify` share the checks."""
    tol_f = as_fraction(tol)
    if epsilon > 0 and tol_f >= epsilon / 4:
        raise ToleranceConfigError(
            f"tol {float(tol_f)} leaves no certification headroom for "
            f"epsilon {float(epsilon)} (need tol < epsilon/4)"
        )
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    return tol_f


def find_strong_approx(f: TailFunction, sigma: ProductMeasure, x: PointSpec,
                       epsilon: Rational, n_max: int,
                       tol: Rational = Fraction(1, 10**9), *,
                       horizon: Optional[int] = None,
                       reference: Optional[ExpectationResult] = None
                       ) -> StrongApproxResult:
    """Smallest certified n <= n_max with |g_n(x) - E[f]| <= epsilon.

    `reference` may carry a precomputed enclosure of E[f] (verification
    campaigns share it across samples); when omitted it is computed here.
    """
    eps = as_fraction(epsilon)
    if eps < 0:
        raise ValidationError("epsilon must be nonnegative")
    tol_f = _check_strong_args(eps, tol, n_max)
    if reference is None:
        reference = expect(f, sigma, tol_f, horizon=horizon)
    return _first_certified(_scan(f, sigma, x, n_max, tol_f, horizon=horizon),
                            reference, eps)


def _first_certified(scan, reference: ExpectationResult, eps: Fraction
                     ) -> StrongApproxResult:
    """`find_strong_approx`'s verdict on the enclosures g_1, g_2, ... that
    `scan` yields, read up to the first certified index and no further."""
    undecided = []
    eta = reference.eta
    verdict_of = _epsilon_verdicts(reference.bounds, eps)
    for n, value in enumerate(scan, start=1):
        eta = max(eta, value.eta)
        verdict = verdict_of(value)
        if verdict == YES:
            if undecided:
                return StrongApproxResult(
                    INCONCLUSIVE, None, tuple(undecided), eta,
                    first_certified=n, found_value=value)
            return StrongApproxResult(FOUND, n, (), eta, first_certified=n,
                                      found_value=value)
        if verdict == UNDECIDED:
            undecided.append(n)
    if undecided:
        return StrongApproxResult(INCONCLUSIVE, None, tuple(undecided), eta)
    return StrongApproxResult(NOT_FOUND, None, (), eta)
