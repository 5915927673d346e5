"""Exact rational values and closed intervals.

All certified quantities in prodex are carried as `fractions.Fraction`
so that interval endpoints, probability weights and mixing coefficients
never accumulate rounding error.  Floats entering through the public API
are converted exactly (a float is a binary rational); decimal strings
are converted with decimal semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # a point enclosure holds one object at both ends; comparing long
        # exact rationals multiplies their big integers, so skip it then
        if self.lo is not self.hi and self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: Rational) -> "Interval":
        v = as_fraction(value)
        return cls(v, v)

    @classmethod
    def of(cls, lo: Rational, hi: Rational) -> "Interval":
        return cls(as_fraction(lo), as_fraction(hi))

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

    def __float__(self) -> float:
        return float(self.midpoint)

    def __repr__(self) -> str:
        return f"Interval({float(self.lo)!r}, {float(self.hi)!r})"


def abs_difference(a: Interval, b: Interval) -> Interval:
    """Enclosure of |x - y| for x in a, y in b."""
    lo = max(F0, a.lo - b.hi, b.lo - a.hi)
    hi = max(a.hi - b.lo, b.hi - a.lo)
    return Interval(lo, hi)
