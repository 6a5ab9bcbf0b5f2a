"""The percentile rule: a tail is reported only with 10 samples beyond it."""

from __future__ import annotations

import pytest

from benchlib.stats import MIN_BEYOND, InsufficientSamples, median, tail


def _beyond(values, value) -> int:
    return sum(v > value for v in values)


def test_p99_of_a_thousand_samples_has_ten_beyond():
    values = list(range(1, 1001))
    assert tail(values, 0.99) == 990.0
    assert _beyond(values, 990) == MIN_BEYOND


def test_p99_of_fewer_falls_back_to_ten_beyond():
    values = list(range(1, 1000))
    assert tail(values, 0.99) == 989.0
    assert _beyond(values, 989) == MIN_BEYOND


def test_p90_needs_a_hundred_samples():
    assert tail(range(100), 0.90) == 89.0
    assert tail(range(99), 0.90) == 88.0
    assert tail(range(1, 51), 0.9) == 40.0


def test_order_of_samples_does_not_matter():
    values = list(range(500))
    assert tail(values[::-1], 0.5) == tail(values, 0.5) == 249.0


def test_small_samples_report_the_median():
    assert tail(range(1, 6), 0.9) == 3.0 == median(range(1, 6))


def test_no_samples_and_bad_quantiles():
    with pytest.raises(InsufficientSamples):
        tail([], 0.5)
    with pytest.raises(InsufficientSamples):
        median([])
    with pytest.raises(ValueError):
        tail(range(100), 1.0)
