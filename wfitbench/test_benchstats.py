"""Edge cases of the benchmark's nearest-rank median and tail rule."""

from __future__ import annotations

import math

import pytest

from benchstats import median, nearest_rank, tail


def test_median_of_one_sample_is_that_sample():
    assert median([3.5]) == 3.5


def test_median_of_two_samples_is_the_lower_one():
    assert median([9.0, 1.0]) == 1.0


def test_median_of_odd_count_is_the_middle_sample():
    assert median([5.0, 1.0, 3.0]) == 3.0


def test_median_of_even_count_is_the_lower_middle_sample():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_nearest_rank_returns_a_measured_sample():
    samples = [0.1 * i for i in range(1, 21)]
    assert nearest_rank(samples, 0.95) == samples[18]
    assert nearest_rank(samples, 1.0) == samples[-1]


def test_nearest_rank_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert tail([float(i) for i in range(n)]) is None


def test_tail_with_exactly_ten_beyond_is_the_minimum_of_eleven():
    samples = [float(i) for i in range(11, 0, -1)]
    value, percentile, count = tail(samples)
    assert value == 1.0
    assert count == 11
    assert math.isclose(percentile, 100.0 / 11)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1000)]
    value, percentile, count = tail(samples)
    assert value == 989.0
    assert percentile == 99.0
    assert count == 1000
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_is_consistent_with_nearest_rank():
    samples = [float(i * 7 % 23) for i in range(57)]
    value, percentile, _ = tail(samples)
    assert nearest_rank(samples, percentile / 100.0) == value
