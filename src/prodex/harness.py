"""Monte Carlo verification campaigns for the measure-1 statements.

The strong and weak approximation sets both carry full measure under
the sampling measure, an asymptotic claim a finite artifact can only
witness empirically: draw points, run the certified finder or
constructor on each, and report the certified fraction.  Sample j
always uses the substream seed ``derive_seed(master, "<campaign>-sample",
j)``, so campaigns are deterministic given (scenario, master seed,
sample count); samples run one after another and records come out in
sample order.  A report names no scenario: the CLI's machine report
carries the scenario's digest beside it.  A campaign passes `horizon`
on as given; None is the function's default depth, which the library
resolves through `f.read_horizon` wherever a point is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import expect
from .errors import ProdexError, UndeterminedValueError, ValidationError
from .functions import TailFunction
from .martingale import FOUND, NOT_FOUND, find_strong_approx
from .model import LazyPoint, ProductMeasure
from .numeric import F0, Rational, as_fraction
from .seeds import derive_seed
from .tailclass import classify, construct_weak_zero

STRONG = "strong-epsilon"
WEAK = "weak-zero"

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"


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

    theorem: str
    samples: int
    certified: int
    inconclusive: int
    failed: int
    records: tuple
    master_seed: int

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


def _report(theorem, records, samples, seed) -> VerificationReport:
    counts = {CERTIFIED: 0, INCONCLUSIVE: 0, FAILED: 0}
    for r in records:
        counts[r.outcome] += 1
    return VerificationReport(
        theorem, samples, counts[CERTIFIED], counts[INCONCLUSIVE],
        counts[FAILED], tuple(records), seed)


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

    def worker(j: int) -> SampleRecord:
        sub = derive_seed(seed, "strong-sample", j)
        x = LazyPoint(sub, sigma)
        res = find_strong_approx(
            f, sigma, x, eps, n_max, tol, horizon=horizon,
            reference=reference)
        if res.outcome == FOUND:
            return SampleRecord(j, sub, CERTIFIED, res.n, res.eta)
        if res.outcome == NOT_FOUND:
            return SampleRecord(j, sub, FAILED, None, res.eta)
        return SampleRecord(j, sub, INCONCLUSIVE, None, res.eta)

    records = [worker(j) for j in range(samples)]
    return _report(STRONG, records, samples, seed)


def verify_weak(f: TailFunction, sigma: ProductMeasure, m: int, samples: int,
                tol: Rational = Fraction(1, 10**9), seed: int = 0, *,
                horizon: Optional[int] = None) -> VerificationReport:
    """Fraction of sampled points whose depth-m hull certifies E[f].

    A sample is certified only when classification succeeds and the
    constructed single-coordinate certificate reproduces the target
    exactly; hulls that miss the target are inconclusive (membership at
    larger depth remains possible), and so are samples whose value the
    horizon does not determine (`UndeterminedValueError`).
    """
    if samples < 1:
        raise ValidationError("sample count must be >= 1")
    if m < 1:
        raise ValidationError("hull depth must be >= 1")
    result = expect(f, sigma, tol, horizon=horizon)
    r = result.midpoint

    def worker(j: int) -> SampleRecord:
        sub = derive_seed(seed, "weak-sample", j)
        x = LazyPoint(sub, sigma)
        try:
            verdict = classify(f, sigma, x, r, m, horizon=horizon)
        except UndeterminedValueError:
            return SampleRecord(j, sub, INCONCLUSIVE, m)
        if not verdict.certified:
            return SampleRecord(j, sub, INCONCLUSIVE, m, verdict.hull.eta)
        try:
            cert = construct_weak_zero(
                f, sigma, verdict.hull.witness_min, verdict.hull.witness_max,
                r, horizon)
        except ProdexError:
            return SampleRecord(j, sub, FAILED, None, verdict.hull.eta)
        return SampleRecord(j, sub, CERTIFIED, cert.coordinate, cert.eta)

    records = [worker(j) for j in range(samples)]
    return _report(WEAK, records, samples, seed)
