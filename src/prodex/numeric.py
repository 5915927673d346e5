"""Exact rational values and the one enclosure type, `ValueBounds`.

All certified quantities in prodex are carried as `fractions.Fraction`
so that interval endpoints, probability weights and mixing coefficients
never accumulate rounding error.  Floats entering through the public API
are converted exactly (a float is a binary rational); decimal strings
are converted with decimal semantics.

Reports and `repr` state an enclosure as floats by one rule, outward
rounding (`ValueBounds.outward`, and `round_up` for a width or an eta),
so the stated floats still enclose the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError

Rational = Union[int, float, str, Fraction]

F0 = Fraction(0)
F1 = Fraction(1)

#: construction-time tolerance for probability vectors: inputs whose sum
#: deviates from 1 by more than this are rejected, never renormalized
PROB_SUM_TOL = Fraction(1, 10**12)

#: a point evaluation is treated as determined when its enclosure is
#: narrower than this (covers closed-form tail remainders such as 2**-64)
DETERMINED_WIDTH = Fraction(1, 10**13)


def as_fraction(value: Rational) -> Fraction:
    """Convert a number to an exact Fraction.

    ints and Fractions pass through; floats convert to their exact binary
    value; strings use decimal semantics ("0.3" -> 3/10).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric weight")
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _around(x: Fraction) -> tuple:
    """The floats either side of x, (largest <= x, smallest >= x): one
    float division and one exact comparison, however long x is."""
    f = float(x)
    n, d = f.as_integer_ratio()
    below, above = x.numerator * d, n * x.denominator  # x and f, scaled
    if below == above:
        return f, f
    if below < above:
        return math.nextafter(f, -math.inf), f
    return f, math.nextafter(f, math.inf)


def round_up(x: Fraction) -> float:
    """An upper bound, width or eta as stated: the smallest float >= x."""
    return _around(x)[1]


@dataclass(frozen=True)
class ValueBounds:
    """Closed enclosure [lo, hi] with exact rational ends and residual
    risk eta, the one enclosure type of prodex.

    eta > 0 marks a soft verdict: the enclosure holds unless an event of
    probability at most eta occurs in the unrealized tail of a lazily
    sampled point.  Every other enclosure is hard (eta = 0).
    """

    lo: Fraction
    hi: Fraction
    eta: Fraction = F0

    def __post_init__(self):
        # a point enclosure holds one object at both ends; comparing long
        # exact rationals multiplies their big integers, so skip it then
        if self.lo is not self.hi and self.lo > self.hi:
            raise ValidationError(f"invalid bounds [{self.lo}, {self.hi}]")
        if self.eta < 0:
            raise ValidationError("eta must be nonnegative")

    @classmethod
    def point(cls, value: Rational, eta: Rational = 0) -> "ValueBounds":
        v = as_fraction(value)
        return cls(v, v, as_fraction(eta))

    def scaled(self, factor: Fraction) -> "ValueBounds":
        """[factor * lo, factor * hi] with the same eta, for factor >= 0."""
        lo = factor * self.lo
        hi = lo if self.lo is self.hi else factor * self.hi
        return ValueBounds(lo, hi, self.eta)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        # a point enclosure is its own midpoint: no sum over long rationals
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Rational) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi

    def outward(self) -> tuple:
        """(largest float <= lo, smallest float >= hi), still enclosing."""
        if self.lo is self.hi:  # a point: both ends from one rounding
            return _around(self.lo)
        return _around(self.lo)[0], _around(self.hi)[1]

    def __repr__(self) -> str:
        lo, hi = self.outward()
        return f"ValueBounds({lo!r}, {hi!r}, eta={round_up(self.eta)!r})"


#: another name for `ValueBounds`, not a class of its own
Interval = ValueBounds


def abs_difference(a: ValueBounds, b: ValueBounds) -> ValueBounds:
    """Enclosure of |x - y| for x in a, y in b."""
    lo = max(F0, a.lo - b.hi, b.lo - a.hi)
    hi = max(a.hi - b.lo, b.hi - a.lo)
    return ValueBounds(lo, hi)
