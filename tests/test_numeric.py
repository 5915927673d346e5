"""The one enclosure type: `ValueBounds` (lo, hi, eta), alias `Interval`."""

from fractions import Fraction

import pytest

import prodex
import prodex.functions
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
