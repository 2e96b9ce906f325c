"""Statistics tests (incl. hypothesis bounds)."""

import functools
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    Summary,
    mean,
    median,
    one_sample_form,
    trimmed_mean,
)


def test_trimmed_mean_drops_outliers():
    values = [1.0, 1.1, 1.05, 0.95, 100.0]
    assert trimmed_mean(values, 0.2) < 2.0


def test_trimmed_mean_plain_mean_when_small():
    assert trimmed_mean([3.0], 0.2) == 3.0
    assert trimmed_mean([1.0, 3.0], 0.2) == 2.0


def test_trimmed_mean_validation():
    with pytest.raises(ValueError):
        trimmed_mean([])
    with pytest.raises(ValueError):
        trimmed_mean([1.0], proportion=0.5)


def test_mean_median():
    assert mean([1, 2, 3]) == 2
    assert median([1, 2, 3]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        median([])


def test_summary():
    s = Summary.of([1.0, 2.0, 3.0])
    assert s.mean == 2.0 and s.minimum == 1.0 and s.maximum == 3.0
    assert s.n == 3 and s.std == pytest.approx(0.8164965809)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50),
    proportion=st.floats(0.0, 0.49),
)
def test_trimmed_mean_bounded_by_extremes(values, proportion):
    tm = trimmed_mean(values, proportion)
    eps = 1e-9 * max(abs(v) for v in values)
    assert min(values) - eps <= tm <= max(values) + eps


@pytest.mark.parametrize("statistic", [trimmed_mean, mean, median])
@pytest.mark.parametrize("value", [-0.0, 0.0, math.nan, 5e-324, 2.5e-310,
                                   -3.75, math.inf])
def test_one_sample_form_is_the_statistic_bit_for_bit(statistic, value):
    """``AnalysisPipeline.merge`` maps the one-sample form over a single
    run's columns; it must equal calling the statistic on ``[x]``."""
    form = one_sample_form(statistic)
    expected = statistic([value])
    assert struct.pack("<d", form(value)) == struct.pack("<d", expected)


def test_one_sample_form_moves_negative_zero_only_for_the_means():
    assert math.copysign(1.0, one_sample_form(mean)(-0.0)) == 1.0
    assert math.copysign(1.0, one_sample_form(trimmed_mean)(-0.0)) == 1.0
    assert math.copysign(1.0, one_sample_form(median)(-0.0)) == -1.0


def test_other_statistics_have_no_one_sample_form():
    assert one_sample_form(max) is None
    assert one_sample_form(lambda values: trimmed_mean(values)) is None
    assert one_sample_form(functools.partial(trimmed_mean,
                                             proportion=0.1)) is None
