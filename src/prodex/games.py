"""Minmax evaluation and strategy purification for one player against
countably many independent opponents.

Player 0 picks an action from a finite set; the opponents jointly play a
product measure over the coordinate spaces.  `purify` turns a given
opponent profile sigma into a finitistic one (Dirac from some index on)
that is certified not to raise player 0's best payoff by more than
epsilon per action: sample a point, find a common martingale index where
every action's payoff is epsilon-close, and pin the tail there.

The naming game (player 0 names an opponent and one of two actions,
winning when the named opponent plays it) has an infinite action set and
is handled in closed form; it separates the two values: v = 1/2 under
the uniform profile while every finitistic profile is exploitable for
payoff 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .engine import ExpectationResult, expect
from .errors import (
    NotFinitisticError,
    PurificationFailedError,
    ValidationError,
)
from .functions import TailFunction
from .martingale import YES, compare_to_epsilon, find_strong_approx, g_n
from .model import HybridMeasure, LazyPoint, ProductMeasure, SpaceFamily
from .numeric import F0, Rational, ValueBounds, as_fraction
from .seeds import derive_seed

DEFAULT_PURIFY_RETRIES = 8


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Finite action set for player 0, one payoff function per action."""

    actions: tuple
    opponents: SpaceFamily
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


@dataclass(frozen=True, eq=False)
class FinitisticProfile:
    """Opponent profile with a declared Dirac tail (all but finitely
    many coordinates pure)."""

    measure: HybridMeasure

    @property
    def switch_index(self) -> int:
        return self.measure.switch_index


Profile = Union[ProductMeasure, HybridMeasure, FinitisticProfile]


def _as_measure(pi: Profile):
    return pi.measure if isinstance(pi, FinitisticProfile) else pi


@dataclass(frozen=True)
class BestResponseResult:
    """Sound enclosure of the max over actions, with the attaining action."""

    bounds: ValueBounds
    action: object
    per_action: tuple  # ((action, ExpectationResult), ...)

    @property
    def interval(self) -> ValueBounds:
        return self.bounds


def best_response_value(game: GameSpec, pi: Profile,
                        tol: Rational = Fraction(1, 10**9), *,
                        horizon: Optional[int] = None
                        ) -> BestResponseResult:
    """max over actions of E[payoff] under pi, as a sound enclosure.

    Each end is the max of the per-action ends, and eta the largest
    per-action eta; the action attaining the upper end is returned, ties
    broken by action order.
    """
    mu = _as_measure(pi)
    results = []
    for a in game.actions:
        res = expect(game.payoff(a), mu, tol, horizon=horizon)
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
    found_n: int


@dataclass(frozen=True, eq=False)
class PurifyResult:
    profile: FinitisticProfile
    n: int
    epsilon: Fraction
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
    tried, then a fresh sample).
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValidationError("epsilon must be positive")
    references = {
        a: expect(game.payoff(a), sigma, tol, horizon=horizon)
        for a in game.actions
    }
    diagnostics = []
    for attempt in range(retries):
        sample_seed = derive_seed(seed, "purify-sample", attempt)
        x = LazyPoint(sample_seed, sigma)
        found = {}
        failed = None
        for a in game.actions:
            res = find_strong_approx(
                game.payoff(a), sigma, x, eps, n_max, tol, horizon=horizon,
                reference=references[a])
            if not res.is_found:
                failed = (a, res.outcome)
                break
            found[a] = res.n
        if failed is not None:
            diagnostics.append(
                f"attempt {attempt}: action {failed[0]!r} {failed[1]} "
                f"up to n_max={n_max}"
            )
            continue
        common = max(found.values())
        for n in range(common, n_max + 1):
            certs = []
            eta = F0
            for a in game.actions:
                res = g_n(game.payoff(a), sigma, x, n, tol, horizon=horizon)
                eta = max(eta, res.eta, references[a].eta)
                if compare_to_epsilon(res, references[a], eps) != YES:
                    certs = None
                    break
                certs.append(ActionCertification(
                    a, references[a].bounds, res.bounds, n))
            if certs is not None:
                profile = FinitisticProfile(
                    HybridMeasure.measures_then_point(sigma, x, n))
                return PurifyResult(profile, n, eps, attempt, sample_seed,
                                    tuple(certs), eta)
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
    tail_sup = sigma.tail.sup_weight_beyond(sigma.head_len, sigma.head_len)
    return max(best, tail_sup)


def naming_game_exploit(tau: Profile):
    """Action (coordinate, symbol) with certain payoff 1 against tau.

    The smallest coordinate of the declared Dirac tail is named together
    with the symbol it is pinned to.
    """
    if isinstance(tau, FinitisticProfile):
        tau = tau.measure
    if not isinstance(tau, HybridMeasure):
        raise NotFinitisticError("profile declares no Dirac tail")
    n = tau.switch_index
    return n, tau.tail_point.coordinate(n)
