import pytest

from perfledger import stats


def test_percentile_is_nearest_rank():
    data = list(range(1, 41))  # 1..40
    assert stats.percentile(data, 50) == 20
    assert stats.percentile(data, 75) == 30
    assert stats.percentile(data, 100) == 40
    assert stats.percentile([3.0], 95) == 3.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_fixed_tail_leaves_ten_samples_beyond_it():
    assert stats.samples_needed(75) == 40
    assert stats.samples_needed(95) == 200
    data = [float(i) for i in range(200)]
    tail = stats.fixed_tail(data, 95)
    assert sum(1 for v in data if v > tail) == stats.MIN_BEYOND_TAIL
    assert stats.fixed_tail(data[:40], 75) == 29.0


def test_fixed_tail_refuses_a_run_that_is_too_short():
    with pytest.raises(stats.TooFewSamples):
        stats.fixed_tail([1.0] * 199, 95)
    with pytest.raises(stats.TooFewSamples):
        stats.fixed_tail([1.0] * 39, 75)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
