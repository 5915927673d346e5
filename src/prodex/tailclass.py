"""Tail-equivalence machinery: hulls, class certification, mixing certificates.

Changing finitely many coordinates of a point keeps it in the same tail
class, so the span of f over depth-m modifications is an inner estimate
of the class hull.  `hull_estimate` spans them by one route, a
bound-guided search that builds a concrete witness for each endpoint;
for the built-in families, whose window bounds are attained, it returns
the exact span over all modifications.  The searches and both witness
values query one window over the base point, which reads the point
past m once: O(m * |space| + horizon) coordinate reads.  When that span
straddles a target value r, walking from the low witness to the high
witness one coordinate at a time must cross r between two adjacent
points that differ in a single coordinate; mixing those two symbols
with the right weight hits r exactly.  This is
the constructive content behind `construct_weak_zero`: the certificate
it returns realizes E[f] with a measure that randomizes in exactly one
coordinate and is Dirac everywhere else.  `weak_zero_from_sample` and
`harness.verify_weak` run each sample through one routine,
`_weak_sample`: its hull, then its certificate.

Certification is one-sided by design: a hull that straddles r certifies
membership, but no finite search can rule r out of the full hull over
unbounded-depth modifications, so the negative direction is reported as
undetermined rather than certified.

A `horizon` of None is resolved by `f.read_horizon`, once for each
window and once for each point that is read whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, gt, lt
from typing import Optional

from .engine import expect
from .errors import (
    NotStraddlingError,
    StraddleNotFoundError,
    UndeterminedValueError,
    ValidationError,
)
from .functions import TailFunction, ValueBounds
from .model import (
    CoordinateMeasure,
    LazyPoint,
    PointSpec,
    ProductMeasure,
    SpaceFamily,
    agreement_index,
    modify_point,
    splice_prefix,
)
from .numeric import DETERMINED_WIDTH, F0, F1, Rational, as_fraction, round_up
from .seeds import derive_seed

DEFAULT_RETRIES = 8

Z0_CERTIFIED = "z0_certified"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class HullEstimate:
    """Span of f over modifications of coordinates 1..depth of a base point.

    Both endpoints are attained: lo = f(witness_min), hi = f(witness_max),
    each witness differing from the base point only in 1..depth.  The span
    is therefore inner, and exact for the built-in families.
    """

    depth: int
    lo: Fraction
    hi: Fraction
    witness_min: PointSpec
    witness_max: PointSpec
    eta: Fraction = F0

    def contains(self, value: Rational) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class ClassVerdict:
    verdict: str
    depth: int
    reference: Fraction
    hull: HullEstimate

    @property
    def certified(self) -> bool:
        return self.verdict == Z0_CERTIFIED


@dataclass(frozen=True, eq=False)
class WeakApproxCertificate:
    """Single-coordinate mixing certificate achieving the value r.

    The measure that is Dirac on `point` everywhere except coordinate
    `coordinate`, where it mixes symbol_low (weight alpha) with
    symbol_high (weight 1 - alpha), has expectation exactly `achieved`.
    """

    point: PointSpec
    coordinate: int
    alpha: Fraction
    tau: CoordinateMeasure
    achieved: Fraction
    symbol_low: object
    symbol_high: object
    value_low: Fraction
    value_high: Fraction
    eta: Fraction = F0

    def __post_init__(self):
        if not (0 <= self.alpha <= 1):
            raise ValidationError(f"mixing weight {self.alpha} outside [0, 1]")

    def mixed_value(self, f: TailFunction,
                    horizon: Optional[int] = None) -> Fraction:
        """Re-evaluate alpha*f(z_low) + (1-alpha)*f(z_high) directly."""
        low = _determined_value(f, self.point, horizon)
        high_point = modify_point(self.point, {self.coordinate: self.symbol_high})
        high = _determined_value(f, high_point, horizon)
        return self.alpha * low.midpoint + (1 - self.alpha) * high.midpoint


def _determined_value(f: TailFunction, x: PointSpec,
                      horizon: Optional[int]) -> ValueBounds:
    return _determined(f.eval_soft(x, horizon), f.read_horizon(x, horizon))


def _determined(vb: ValueBounds, depth: int) -> ValueBounds:
    if vb.lo is not vb.hi and vb.width > DETERMINED_WIDTH:
        raise UndeterminedValueError(
            f"function value not determinable at horizon {depth} "
            f"(enclosure width {round_up(vb.width)})"
        )
    return vb


def hull_estimate(f: TailFunction, x: PointSpec, m: int, spaces: SpaceFamily,
                  *, horizon: Optional[int] = None) -> HullEstimate:
    """Span of f over modifications of coordinates 1..m of x.

    One bound-guided witness per endpoint (`_guided_witness`), at a cost
    of |space| window bounds per coordinate instead of a product over all
    |space|**m modifications.  The searches and both witness values
    share one window over x from m + 1 on, so x is read past m once
    there, and once more for the base point's own value.  Each endpoint
    is the value of its witness, so the span is inner; for the built-in
    families it is the exact span, because their window bounds are
    attained and the search never leaves an optimal completion.  Scoring
    compares enclosure ends in place, allocating nothing per candidate;
    ties keep the base point's own symbol, then space order.
    """
    if m < 0:
        raise ValidationError("hull depth must be >= 0")
    _determined_value(f, x, horizon)
    depth = f.read_horizon(x, horizon)
    window = f.window_bounds(x, m + 1, depth)
    ends = []
    for maximize in (False, True):
        prefix = _guided_witness(window, x, m, spaces, maximize)
        ends.append((modify_point(x, dict(enumerate(prefix, start=1))),
                     _determined(window(prefix), depth)))
    (wmin, vmin), (wmax, vmax) = ends
    return HullEstimate(m, vmin.midpoint, vmax.midpoint, wmin, wmax,
                        max(vmin.eta, vmax.eta))


def _guided_witness(window, x: PointSpec, m: int, spaces: SpaceFamily,
                    maximize: bool) -> tuple:
    """The witness's symbols at 1..m, chosen coordinate by coordinate.

    At coordinate i the symbol optimizing the enclosure of f over
    (chosen prefix, free window to m, base point beyond) is kept.  The
    own symbol is bounded first, then the others in space order, and a
    candidate replaces the best only with a strictly higher hi (max) or
    lower lo (min), compared in place and skipped when both ends are one
    object: ties keep the own symbol, then the first in space order.
    Every enclosure comes from `window`, one window over x from m + 1 on.
    """
    end, better = (attrgetter("hi"), gt) if maximize else (attrgetter("lo"), lt)
    prefix = ()
    for i in range(1, m + 1):
        own = x.coordinate(i)
        best_symbol, best = own, end(window(prefix + (own,)))
        for s in spaces.space_at(i).symbols:
            if s != own:
                e = end(window(prefix + (s,)))
                if e is not best and better(e, best):
                    best_symbol, best = s, e
        prefix += (best_symbol,)
    return prefix


def classify(f: TailFunction, sigma: ProductMeasure, x: PointSpec, r: Rational,
             m: int, *, horizon: Optional[int] = None) -> ClassVerdict:
    """Certify r inside the depth-m modification hull of x, if it is.

    Finite modifications never leave the tail class of x, so a hull
    containing r soundly certifies class membership of r's level.  The
    converse cannot be decided at finite depth: everything else is
    reported undetermined (never a negative certificate).
    """
    rv = as_fraction(r)
    hull = hull_estimate(f, x, m, sigma.spaces, horizon=horizon)
    verdict = Z0_CERTIFIED if hull.contains(rv) else UNDETERMINED
    return ClassVerdict(verdict, m, rv, hull)


def construct_weak_zero(f: TailFunction, sigma: ProductMeasure, x: PointSpec,
                        y: PointSpec, r: Rational,
                        horizon: Optional[int] = None
                        ) -> WeakApproxCertificate:
    """Single-coordinate mixing certificate from a straddling pair.

    Requires f(x) <= r <= f(y) and tail-equivalent x, y.  Walks the
    chain z_k = (y_1, .., y_{k-1}, x_k, x_{k+1}, ..) from z_1 = x to
    z_{n+1} = y, finds the first adjacent pair straddling r (they differ
    in exactly coordinate k) and solves the mixing weight exactly.  Each
    z_k is a prefix over x past the agreement index n of x and y, read
    from one window over x; only the chosen z_k is built as a point.
    """
    rv = as_fraction(r)
    n = agreement_index(x, y)
    depth = f.read_horizon(x, horizon)
    window = f.window_bounds(x, n + 1, depth)
    xs, ys = (tuple(p.coordinate(i) for i in range(1, n + 1))
              for p in (x, y))
    values = []
    eta = F0
    for k in range(1, n + 2):
        vb = _determined(window(ys[:k - 1] + xs[k - 1:]), depth)
        values.append(vb.lo if vb.lo is vb.hi else vb.midpoint)
        if vb.eta:
            eta = max(eta, vb.eta)
    fx, fy = values[0], values[-1]
    if not fx <= rv <= fy:
        raise NotStraddlingError(
            f"f(x) = {float(fx)}, f(y) = {float(fy)} do not straddle r = {float(rv)}"
        )
    if n == 0:
        k, v_low, v_high = 1, fx, fx
        sym_low = sym_high = x.coordinate(1)
    else:
        # f(x) <= r <= f(y), so the last walk value <= r before z_{n+1}
        # and its successor straddle r: some adjacent pair does, the first
        # whose sides of r (-1 below, 0 on, 1 above) are not one nonzero
        sides = [(v > rv) - (v < rv) for v in values]
        k = next(j for j in range(1, n + 1) if sides[j - 1] * sides[j] <= 0)
        v_low, v_high = values[k - 1], values[k]
        sym_low, sym_high = x.coordinate(k), y.coordinate(k)

    if v_high == v_low:
        alpha = F1
    else:
        alpha = (v_high - rv) / (v_high - v_low)
    achieved = alpha * v_low + (1 - alpha) * v_high
    if achieved != rv:
        raise ValidationError("mixing weight failed to reproduce r exactly")

    space = sigma.spaces.space_at(k)
    weights = []
    for s in space.symbols:
        w = F0
        if s == sym_low:
            w += alpha
        if s == sym_high:
            w += 1 - alpha
        weights.append(w)
    tau = CoordinateMeasure(k, space.symbols, tuple(weights))
    return WeakApproxCertificate(
        point=splice_prefix(x, y, k), coordinate=k, alpha=alpha, tau=tau,
        achieved=achieved, symbol_low=sym_low, symbol_high=sym_high,
        value_low=v_low, value_high=v_high, eta=eta)


def _weak_sample(f: TailFunction, sigma: ProductMeasure, r: Fraction, m: int,
                 x: LazyPoint, horizon: Optional[int]) -> tuple:
    """(depth-m hull, certificate) of the weak sample at point x.

    The certificate is None when the hull misses r; both are None when a
    value the sample reads (the base, a witness or a walk point) is
    undetermined at the horizon."""
    try:
        hull = hull_estimate(f, x, m, sigma.spaces, horizon=horizon)
        if not hull.contains(r):
            return hull, None
        return hull, construct_weak_zero(
            f, sigma, hull.witness_min, hull.witness_max, r, horizon)
    except UndeterminedValueError:
        return None, None


def weak_zero_from_sample(f: TailFunction, sigma: ProductMeasure,
                          tol: Rational = Fraction(1, 10**9),
                          m: int = 1, seed: int = 0, *,
                          retries: int = DEFAULT_RETRIES,
                          horizon: Optional[int] = None,
                          reference: Optional[Fraction] = None
                          ) -> WeakApproxCertificate:
    """The first certificate among weak samples 0..retries-1 under `seed`.

    The target r is the midpoint of the certified enclosure of E[f]
    (the certificate then achieves r exactly and the true expectation
    within the enclosure width).  It is the first sample that
    `verify_weak` certifies at the same seed, depth and horizon: a
    sample whose hull misses r, or that reads a value the horizon does
    not determine, is passed over.
    """
    if m < 1:
        raise ValidationError("hull depth must be >= 1")
    r = (expect(f, sigma, tol, horizon=horizon).midpoint
         if reference is None else as_fraction(reference))
    for j in range(retries):
        x = LazyPoint(derive_seed(seed, "weak-sample", j), sigma)
        cert = _weak_sample(f, sigma, r, m, x, horizon)[1]
        if cert is not None:
            return cert
    raise StraddleNotFoundError(m, retries)
