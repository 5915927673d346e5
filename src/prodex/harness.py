"""Monte Carlo verification campaigns for the measure-1 statements.

The strong and weak approximation sets both carry full measure under
the sampling measure, an asymptotic claim a finite artifact can only
witness empirically: draw points, run the certified finder or
constructor on each, and report the certified fraction.  Sample j
always uses the substream seed ``derive_seed(master, "<campaign>-sample",
j)``, so campaigns are deterministic given (scenario, master seed,
sample count); samples run one after another and records come out in
sample order; a weak sample is `tailclass._weak_sample`, as in
`weak_zero_from_sample`.  When f depends on its first k coordinates
alone (`TailFunction.leading_coordinates`), a record depends only on the
sample's first k symbols, so each distinct prefix is decided once.  A
report names no scenario: the CLI's machine report carries the
scenario's digest beside it.  A campaign passes `horizon` on as given;
None is the function's default depth, which the library resolves
through `f.read_horizon` wherever a point is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import expect
from .errors import ValidationError
from .functions import TailFunction
from .martingale import FOUND, NOT_FOUND, find_strong_approx
from .model import LazyPoint, ProductMeasure
from .numeric import F0, Rational, as_fraction
from .seeds import derive_seed
from .tailclass import _weak_sample

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


def _campaign(theorem, label, f, sigma, seed, samples, decide):
    """The report of samples 0..samples-1: sample j's point x is drawn at
    `derive_seed(seed, label, j)`, and its (outcome, detail, eta) is
    `decide(j, x)`, taken once per distinct prefix of x's first
    `f.leading_coordinates` symbols (once per sample if None)."""
    k, verdicts, records = f.leading_coordinates, {}, []
    for j in range(samples):
        sub = derive_seed(seed, label, j)
        x = LazyPoint(sub, sigma)
        key = j if k is None else tuple(map(x.coordinate, range(1, k + 1)))
        if key not in verdicts:
            verdicts[key] = decide(j, x)
        records.append(SampleRecord(j, sub, *verdicts[key]))
    counts = [sum(r.outcome == outcome for r in records)
              for outcome in (CERTIFIED, INCONCLUSIVE, FAILED)]
    return VerificationReport(theorem, samples, *counts, tuple(records), seed)


def _find_shallow_first(f, sigma, x, eps, n_max, tol, horizon, reference):
    """`find_strong_approx` at `horizon`, reading x only as deep as its
    verdict needs: if `f.nested_steps`, a verdict decided with eta 0 at a
    depth 4, 8, 16, ... below `f.read_horizon(x, horizon)` is the cap's."""
    if f.nested_steps:
        cap, depth = f.read_horizon(x, horizon), 4
        while depth < cap:
            try:
                res = find_strong_approx(f, sigma, x, eps, n_max, tol,
                                         horizon=depth, reference=reference)
            except ValidationError:  # a shallow scan may step further
                break
            if res.outcome in (FOUND, NOT_FOUND) and res.eta == 0:
                return res
            depth *= 2
    return find_strong_approx(f, sigma, x, eps, n_max, tol, horizon=horizon,
                              reference=reference)


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

    def decide(j: int, x: LazyPoint) -> tuple:
        res = _find_shallow_first(f, sigma, x, eps, n_max, tol, horizon,
                                  reference)
        outcome = (CERTIFIED if res.outcome == FOUND else
                   FAILED if res.outcome == NOT_FOUND else INCONCLUSIVE)
        return outcome, res.n, res.eta

    return _campaign(STRONG, "strong-sample", f, sigma, seed, samples, decide)


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

    def decide(j: int, x: LazyPoint) -> tuple:
        hull, cert = _weak_sample(f, sigma, r, m, x, horizon)
        if cert is not None:
            return CERTIFIED, cert.coordinate, cert.eta
        return INCONCLUSIVE, m, F0 if hull is None else hull.eta

    return _campaign(WEAK, "weak-sample", f, sigma, seed, samples, decide)
