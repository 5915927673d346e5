"""Monte Carlo verification campaigns for the measure-1 statements.

The strong and weak approximation sets both carry full measure under
the sampling measure, an asymptotic claim a finite artifact can only
witness empirically: draw points, run the certified finder or
constructor on each, and report the certified fraction.  Sample j
always uses the substream seed ``derive_seed(master, "<campaign>-sample",
j)``, so campaigns are deterministic given (scenario, master seed,
sample count); samples run one after another and records come out in
sample order; a weak sample is `tailclass._weak_sample`, as in
`weak_zero_from_sample`.  Each decision, a strong scan at a ladder
rung or at the cap or a weak sample, reads its point's first k symbols
alone, k from `TailFunction.leading_coordinates` at the decision's
horizon (at least the hull depth m for a weak sample), so a campaign
decides each distinct (horizon, prefix) once and shares the verdict.  A
report holds the outcome counts and the per-sample records alone: its
caller knows which campaign it ran and at which master seed, and the
CLI's machine report carries the scenario's digest beside it.  A
campaign passes `horizon` on as given; None is the function's default
depth, which the library resolves through `f.read_horizon` wherever a
point is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import expect
from .errors import ValidationError
from .functions import TailFunction
from .martingale import FOUND, NOT_FOUND, find_strong_approx
from .model import LazyPoint, ProductMeasure, draw_table
from .numeric import F0, Rational, as_fraction
from .seeds import path_hasher
from .tailclass import _weak_sample

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"
#: a strong sample's outcome for each finder outcome but INCONCLUSIVE
_OUTCOMES = {FOUND: CERTIFIED, NOT_FOUND: FAILED}


@dataclass(frozen=True)
class SampleRecord:
    index: int
    substream: int
    outcome: str
    detail: Optional[int]  # found index n, or certificate coordinate k
    eta: Fraction = F0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome counts plus per-sample records for one campaign."""

    samples: int
    certified: int
    inconclusive: int
    failed: int
    records: tuple

    def __post_init__(self):
        if self.certified + self.inconclusive + self.failed != self.samples:
            raise ValidationError("sample outcome counts do not partition")

    @property
    def certified_fraction(self) -> Fraction:
        return Fraction(self.certified, self.samples)

    @property
    def inconclusive_fraction(self) -> Fraction:
        return Fraction(self.inconclusive, self.samples)

    @property
    def failed_fraction(self) -> Fraction:
        return Fraction(self.failed, self.samples)

    @property
    def max_eta(self) -> Fraction:
        return max((r.eta for r in self.records), default=F0)


def _campaign(label, f, sigma, seed, samples, decide, floor=0):
    """The report of samples 0..samples-1: sample j's point x is drawn at
    `derive_seed(seed, label, j)`, and its (outcome, detail, eta) is
    `decide(x, once)`.  `decide` runs each scan or hull at a horizon h as
    `once(x, h, run)`, which calls run() once per distinct (h, x_1..x_k),
    k the larger of `floor` and `f.leading_coordinates(x, h)` (every time
    if None), resolved once per h: each x is a fresh `LazyPoint` of sigma.
    Each seed is a copy of one hasher pre-fed ``<label>/`` (`path_hasher`),
    and each key is drawn by `LazyPoint.realize` in one loop over the
    `draw_table` of x_1..x_k, built once per h: the bits of `derive_seed`
    and `LazyPoint.coordinate`, without their per-call set-up."""
    tables, verdicts, records = {}, {}, []

    def once(x, horizon, run):
        if horizon not in tables:
            k = f.leading_coordinates(x, horizon)
            tables[horizon] = k if k is None else draw_table(
                sigma, range(1, max(k, floor) + 1))
        if tables[horizon] is None:
            return run()
        key = (horizon, x.realize(tables[horizon]))
        if key not in verdicts:
            verdicts[key] = run()
        return verdicts[key]

    hasher = path_hasher(seed, label)
    for j in range(samples):
        h = hasher.copy()
        h.update(str(j).encode())
        sub = int.from_bytes(h.digest(), "little")
        records.append(SampleRecord(j, sub, *decide(LazyPoint(sub, sigma),
                                                    once)))
    counts = [sum(r.outcome == outcome for r in records)
              for outcome in (CERTIFIED, INCONCLUSIVE, FAILED)]
    return VerificationReport(samples, *counts, tuple(records))


def _find_shallow_first(f, sigma, x, eps, n_max, tol, horizon, reference,
                        once):
    """`find_strong_approx` at `horizon`, reading x only as deep as its
    verdict needs: if `f.nested_steps`, a verdict decided with eta 0 at a
    depth 4, 8, 16, ... below `f.read_horizon(x, horizon)` is the cap's.
    Each scan, at a rung or the cap, runs through the campaign's `once`."""
    def scan(h):
        return find_strong_approx(f, sigma, x, eps, n_max, tol, horizon=h,
                                  reference=reference)

    if f.nested_steps:
        cap, depth = f.read_horizon(x, horizon), 4
        while depth < cap:
            try:
                res = once(x, depth, lambda: scan(depth))
            except ValidationError:  # a shallow scan may step further
                break
            if res.outcome in (FOUND, NOT_FOUND) and res.eta == 0:
                return res
            depth *= 2
    return once(x, horizon, lambda: scan(horizon))


def verify_strong(f: TailFunction, sigma: ProductMeasure, epsilon: Rational,
                  samples: int, n_max: int,
                  tol: Rational = Fraction(1, 10**9), seed: int = 0, *,
                  horizon: Optional[int] = None) -> VerificationReport:
    """Fraction of sampled points with a certified strong approximation.

    A sample is certified when the finder returns a definite smallest
    index n <= n_max, inconclusive when some index stayed undecided, and
    failed when every index was certified violating.
    """
    if samples < 1:
        raise ValidationError("sample count must be >= 1")
    eps = as_fraction(epsilon)
    reference = expect(f, sigma, tol, horizon=horizon)

    def decide(x: LazyPoint, once) -> tuple:
        res = _find_shallow_first(f, sigma, x, eps, n_max, tol, horizon,
                                  reference, once)
        return _OUTCOMES.get(res.outcome, INCONCLUSIVE), res.n, res.eta

    return _campaign("strong-sample", f, sigma, seed, samples, decide)


def verify_weak(f: TailFunction, sigma: ProductMeasure, m: int, samples: int,
                tol: Rational = Fraction(1, 10**9), seed: int = 0, *,
                horizon: Optional[int] = None) -> VerificationReport:
    """Fraction of sampled points whose depth-m hull certifies E[f].

    A sample is certified when its hull contains the target, with the
    single-coordinate certificate on the hull's witnesses; else it is
    inconclusive: its hull misses the target (a larger depth may not),
    or it reads a value the horizon does not determine.  A certificate
    on hull witnesses cannot fail, so no sample does.
    """
    if samples < 1:
        raise ValidationError("sample count must be >= 1")
    if m < 1:
        raise ValidationError("hull depth must be >= 1")
    r = expect(f, sigma, tol, horizon=horizon).midpoint

    def verdict(x: LazyPoint) -> tuple:
        hull, cert = _weak_sample(f, sigma, r, m, x, horizon)
        if cert is not None:
            return CERTIFIED, cert.coordinate, cert.eta
        return INCONCLUSIVE, m, F0 if hull is None else hull.eta

    return _campaign("weak-sample", f, sigma, seed, samples,
                     lambda x, once: once(x, horizon, lambda: verdict(x)),
                     floor=m)
