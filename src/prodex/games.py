"""Minmax evaluation and strategy purification for one player against
countably many independent opponents.

Player 0 picks an action from a finite set; the opponents jointly play a
product measure over the coordinate spaces.  `purify` turns a given
opponent profile sigma into a finitistic one that is certified not to
raise player 0's best payoff by more than epsilon per action: sample a
point x, find a common martingale index n where every action's payoff is
epsilon-close, and pin the tail there.  The profile it returns is the
`HybridMeasure` sigma_1 x .. x sigma_{n-1} x x_n x x_{n+1} x .., Dirac
from n on; `FinitisticProfile` is another name for that class.

The naming game (player 0 names an opponent and one of two actions,
winning when the named opponent plays it) has an infinite action set and
is handled in closed form; it separates the two values: v = 1/2 under
the uniform profile while every finitistic profile is exploitable for
payoff 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .engine import expect
from .errors import (
    NotFinitisticError,
    PurificationFailedError,
    ValidationError,
)
from .functions import Measure, TailFunction
from .martingale import (YES, _check_strong_args, _epsilon_verdicts,
                         _first_certified, _scan)
from .model import HybridMeasure, LazyPoint, ProductMeasure
from .numeric import F0, Rational, ValueBounds, as_fraction
from .seeds import derive_seed

DEFAULT_PURIFY_RETRIES = 8


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Finite action set for player 0, one payoff function per action."""

    actions: tuple
    payoffs: Mapping
    range_lo: Fraction
    range_hi: Fraction

    def __post_init__(self):
        if not self.actions:
            raise ValidationError("action set must be nonempty")
        if len(set(self.actions)) != len(self.actions):
            raise ValidationError("duplicate actions")
        for a in self.actions:
            if a not in self.payoffs:
                raise ValidationError(f"action {a!r} has no payoff function")
            fa = self.payoffs[a]
            if fa.range_lo < self.range_lo or fa.range_hi > self.range_hi:
                raise ValidationError(
                    f"action {a!r}: payoff range exceeds the declared bound"
                )

    def payoff(self, action) -> TailFunction:
        return self.payoffs[action]


#: another name for `HybridMeasure`, not a class of its own: an opponent
#: profile with a declared Dirac tail (all but finitely many coordinates
#: pure)
FinitisticProfile = HybridMeasure


@dataclass(frozen=True)
class BestResponseResult:
    """Sound enclosure of the max over actions, with the attaining action."""

    bounds: ValueBounds
    action: object
    per_action: tuple  # ((action, ExpectationResult), ...)

    @property
    def interval(self) -> ValueBounds:
        return self.bounds


def best_response_value(game: GameSpec, pi: Measure,
                        tol: Rational = Fraction(1, 10**9), *,
                        horizon: Optional[int] = None
                        ) -> BestResponseResult:
    """max over actions of E[payoff] under pi, as a sound enclosure.

    Each end is the max of the per-action ends, and eta the largest
    per-action eta; the action attaining the upper end is returned, ties
    broken by action order.
    """
    results = []
    for a in game.actions:
        res = expect(game.payoff(a), pi, tol, horizon=horizon)
        results.append((a, res))
    lo = max(res.bounds.lo for _, res in results)
    hi = max(res.bounds.hi for _, res in results)
    eta = max(res.bounds.eta for _, res in results)
    best = next(a for a, res in results if res.bounds.hi == hi)
    return BestResponseResult(ValueBounds(lo, hi, eta), best, tuple(results))


@dataclass(frozen=True)
class ActionCertification:
    action: object
    sigma_value: ValueBounds
    profile_value: ValueBounds


@dataclass(frozen=True, eq=False)
class PurifyResult:
    profile: HybridMeasure
    n: int
    attempt: int
    sample_seed: int
    per_action: tuple
    eta: Fraction = F0


def purify(game: GameSpec, sigma: ProductMeasure, epsilon: Rational,
           n_max: int, tol: Rational = Fraction(1, 10**10), seed: int = 0, *,
           retries: int = DEFAULT_PURIFY_RETRIES,
           horizon: Optional[int] = None) -> PurifyResult:
    """Finitistic profile certified epsilon-close to sigma for every action.

    Samples a point under sigma, finds for each action the smallest
    certified index, then re-certifies every action at the common index
    n = max of those (closeness is not monotone in n, so the common
    index is never assumed, always re-checked; on failure larger n are
    tried, then a fresh sample).  Each action's g_1, g_2, ... come from
    one lazy scan per attempt: the re-check reads on from the last
    value the search read, and keeps the last value it read itself.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValidationError("epsilon must be positive")
    tol = _check_strong_args(eps, tol, n_max)
    references = {
        a: expect(game.payoff(a), sigma, tol, horizon=horizon)
        for a in game.actions
    }
    diagnostics = []
    for attempt in range(retries):
        sample_seed = derive_seed(seed, "purify-sample", attempt)
        x = LazyPoint(sample_seed, sigma)
        scans, read = {}, {}  # per action: its scan, (n, g_n) read last
        failed = None
        for a in game.actions:
            scans[a] = _scan(game.payoff(a), sigma, x, n_max, tol,
                             horizon=horizon)
            res = _first_certified(scans[a], references[a], eps)
            if not res.is_found:
                failed = (a, res.outcome)
                break
            read[a] = (res.n, res.found_value)
        if failed is not None:
            diagnostics.append(
                f"attempt {attempt}: action {failed[0]!r} {failed[1]} "
                f"up to n_max={n_max}"
            )
            continue
        common = max(n for n, _ in read.values())
        for n in range(common, n_max + 1):
            certs = []
            eta = F0
            for a in game.actions:
                k, value = read[a]
                for _ in range(k, n):
                    value = next(scans[a])
                read[a] = (n, value)
                eta = max(eta, value.eta, references[a].eta)
                if _epsilon_verdicts(references[a].bounds, eps)(value) != YES:
                    certs = None
                    break
                certs.append(ActionCertification(
                    a, references[a].bounds, value))
            if certs is not None:
                return PurifyResult(
                    HybridMeasure.measures_then_point(sigma, x, n), n,
                    attempt, sample_seed, tuple(certs), eta)
        diagnostics.append(
            f"attempt {attempt}: no common index in [{common}, {n_max}] "
            f"certifies all actions"
        )
    raise PurificationFailedError(
        f"purification failed after {retries} samples", diagnostics)


def naming_game_value(sigma: ProductMeasure) -> Fraction:
    """sup over (coordinate, symbol) of P(that coordinate plays that symbol).

    All coordinates must be binary.  Evaluated in closed form over the
    head and the tail rule; the supremum may be a limit (e.g. weights
    approaching 1), in which case it is still returned exactly.
    """
    for i in range(1, len(sigma.spaces.head) + 1):
        if sigma.spaces.space_at(i).size != 2:
            raise ValidationError(f"coordinate {i} is not binary")
    if len(sigma.spaces.tail_symbols) != 2:
        raise ValidationError("tail coordinates are not binary")
    best = F0
    for i in range(1, sigma.head_len + 1):
        best = max(best, sigma.coordinate_measure(i).max_weight)
    tail_sup = sigma.tail.sup_weight_beyond()
    return max(best, tail_sup)


def naming_game_exploit(tau: Measure):
    """Action (coordinate, symbol) with certain payoff 1 against tau.

    The smallest coordinate of the declared Dirac tail is named together
    with the symbol it is pinned to.
    """
    if not isinstance(tau, HybridMeasure):
        raise NotFinitisticError("profile declares no Dirac tail")
    n = tau.switch_index
    return n, tau.tail_point.coordinate(n)
