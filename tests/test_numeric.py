"""The one enclosure type: `ValueBounds` (lo, hi, eta), alias `Interval`."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodex
import prodex.functions
from prodex.cli import _enclosure
from prodex.engine import expect
from prodex.errors import ValidationError
from prodex.martingale import trace
from prodex.model import HybridMeasure, LazyPoint
from prodex.numeric import Interval, ValueBounds

from conftest import geometric_sigma, indicator_all_ones

F = Fraction
TOL = F(1, 10**9)


def soft_hybrid():
    """Pins coordinates from 3 on to a lazy point: the all-ones verdict
    rests on its unread tail, so E[f] carries eta > 0."""
    return HybridMeasure.measures_then_point(
        geometric_sigma(), LazyPoint(2, geometric_sigma()), 3)


class TestOneType:
    def test_interval_is_value_bounds(self):
        assert prodex.Interval is prodex.ValueBounds
        assert Interval is ValueBounds

    def test_functions_module_still_exports_value_bounds(self):
        assert prodex.functions.ValueBounds is ValueBounds

    def test_reversed_ends_raise_validation_error(self):
        with pytest.raises(ValidationError):
            Interval(F(2), F(1))

    def test_negative_eta_raises_validation_error(self):
        with pytest.raises(ValidationError):
            ValueBounds(F(0), F(1), F(-1))

    def test_contains_both_ends(self):
        vb = ValueBounds(F(1, 3), F(2, 3))
        assert vb.contains(F(1, 3)) and vb.contains(F(2, 3))
        assert vb.contains("0.5")
        assert not vb.contains(F(1, 3) - F(1, 10**30))
        assert not vb.contains(F(2, 3) + F(1, 10**30))


class TestResultsCarryBounds:
    def test_expectation_interval_is_its_bounds(self):
        res = expect(indicator_all_ones(), soft_hybrid(), TOL)
        assert res.interval is res.bounds
        assert res.eta == res.bounds.eta > 0

    def test_trace_entry_eta_is_its_bounds_eta(self):
        sigma = geometric_sigma()
        tr = trace(indicator_all_ones(), sigma, LazyPoint(2, sigma), 4)
        assert all(e.eta > 0 for e in tr.entries)
        for e in tr.entries:
            assert e.eta == e.bounds.eta
            assert e.interval is e.bounds


def _is_floor(f: float, x: Fraction) -> bool:
    """f is the largest float <= x."""
    return F(f) <= x < F(math.nextafter(f, math.inf))


def _is_ceil(f: float, x: Fraction) -> bool:
    """f is the smallest float >= x."""
    return F(math.nextafter(f, -math.inf)) < x <= F(f)


#: short, long, tiny (about the smallest normal float, or subnormal) and
#: negative exact values
EXACT = st.one_of(
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(F, st.integers(-2**1000, 2**1000), st.integers(1, 2**1000)),
    st.builds(lambda k, e: F(k, 2**e), st.integers(-2**60, 2**60),
              st.integers(1000, 1100)),
)


@st.composite
def enclosures(draw):
    a, b, eta = draw(EXACT), draw(EXACT), abs(draw(EXACT))
    if draw(st.booleans()):
        return ValueBounds.point(a, eta)
    return ValueBounds(min(a, b), max(a, b), eta)


class TestOutwardRounding:
    @given(vb=enclosures())
    @settings(max_examples=40)
    def test_repr_states_the_nearest_outward_floats(self, vb):
        lo, hi, eta = map(float, re.fullmatch(
            r"ValueBounds\((\S+), (\S+), eta=(\S+)\)", repr(vb)).groups())
        assert _is_floor(lo, vb.lo)
        assert _is_ceil(hi, vb.hi)
        assert _is_ceil(eta, vb.eta)
        assert vb.outward() == (lo, hi)
        assert _enclosure(vb) == dict(zip(("lo", "hi"), vb.outward()))
