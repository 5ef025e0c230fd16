"""The benchmark's own statistics: percentiles, quartiles, pair wins,
verdicts, and the timing helpers the workloads measure with."""

import math
import statistics

import pytest

from perfbench import stats
from perfbench.common import Samples, repeat_for, timed_method


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.median([7.0]) == 7.0


def test_percentile_sorts_failures_last_and_rejects_bad_input():
    assert stats.median([1.0, 2.0, math.inf]) == 2.0
    assert stats.percentile([1.0, math.inf], 100) == math.inf
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartiles_match_the_statistics_module():
    values = [3.1, 2.7, 3.4, 2.9, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values,
                                                                 n=4))
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_relative_spread_is_interquartile_share_of_median():
    values = [9.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.relative_spread([2.0, 2.0, 2.0]) == 0.0


def test_pair_wins_pairs_by_seed_and_ties_count_for_neither():
    parent = {1: 10.0, 2: 10.0, 3: 10.0, 4: 10.0}
    change = {1: 9.0, 2: 10.0, 3: 11.0, 5: 1.0}
    assert stats.pair_wins(parent, change, "lower") == (1, 3)
    assert stats.pair_wins(parent, change, "higher") == (1, 3)


def _series(values):
    return dict(enumerate(values, start=1))


def test_verdict_better_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = _series([100.0 + i % 3 for i in range(10)])
    change = _series([80.0 + i % 3 for i in range(10)])
    assert stats.verdict(parent, change, "lower", 0.1) == "better"
    assert stats.verdict(change, parent, "higher", 0.1) == "better"
    # Wins 8 of 10 pairs only: not a gain, and within the bound.
    mixed = dict(change)
    mixed[1], mixed[2] = 150.0, 150.0
    assert stats.verdict(parent, mixed, "lower", 0.1) != "better"


def test_verdict_worse_beyond_the_bound_and_unchanged_within_it():
    parent = _series([100.0] * 5 + [101.0] * 5)
    assert stats.verdict(parent, _series([115.0] * 10), "lower",
                         0.1) == "worse"
    assert stats.verdict(parent, _series([85.0] * 10), "higher",
                         0.1) == "worse"
    assert stats.verdict(parent, _series([104.0] * 5 + [99.0] * 5),
                         "lower", 0.1) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    parent = _series([60.0, 80.0, 100.0, 120.0, 140.0] * 2)
    change = _series([65.0, 85.0, 95.0, 125.0, 135.0] * 2)
    assert stats.verdict(parent, change, "lower", 0.1) == "unresolved"
    assert stats.verdict({}, change, "lower", 0.1) == "unresolved"


def test_growth_ratio_compares_last_tenth_to_first_tenth():
    assert stats.growth_ratio([1.0] * 50) == 1.0
    assert stats.growth_ratio([1.0] * 10 + [2.0] * 10) == 2.0
    assert stats.growth_ratio([1.0] * 9) == 0.0


def test_timed_method_records_calls_and_failures_then_restores():
    class Thing:
        def work(self, value):
            if value < 0:
                raise ValueError("negative")
            return value * 2

    thing = Thing()
    samples = Samples()
    with timed_method(Thing, "work", samples):
        assert thing.work(2) == 4
        with pytest.raises(ValueError):
            thing.work(-1)
    assert len(samples) == 2 and math.isinf(samples.values[1])
    assert "work" in vars(Thing) and Thing.work.__name__ == "work"
    with timed_method(thing, "work", samples):
        assert thing.work(3) == 6
    assert "work" not in vars(thing) and len(samples) == 3


def test_repeat_for_runs_at_least_the_minimum_and_stops_on_budget():
    calls = []
    assert repeat_for(0, calls.append, minimum=3) == 3
    assert calls == [0, 1, 2]
    assert Samples().p(50) == 0.0


def test_fleet_windows_tile_the_job_wall_time():
    from perfbench.fleet_small_chunks import window_rates
    committed = [float(index) for index in range(1, 11)]   # 1 s apart
    # Windows of 4 commits: [0, 4], then commits 5-8 and the 2 leftover
    # commits share the last window, which closes with the curve at 12.
    rates = window_rates(0.0, committed, 12.0, window=4)
    assert rates == [1.0, 6 / 8.0]
    assert 4 / rates[0] + 6 / rates[1] == 12.0
    assert window_rates(0.0, committed[:8], 8.0, window=4) == [1.0, 1.0]
    assert window_rates(0.0, committed[:3], 6.0, window=4) == [0.5]
    assert window_rates(0.0, [], 1.0, window=4) == []
