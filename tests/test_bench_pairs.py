"""The summary of scripts/bench_pairs.py: quartiles, wins and the gain rule."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import quartiles, summarize  # noqa: E402  (from scripts/, on the path above)


def _pairs(metric, base, change):
    return [({metric: b}, {metric: c}) for b, c in zip(base, change)]


def test_quartiles_interpolate_between_samples():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([5.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.5)


def test_a_lower_is_better_metric_that_wins_nine_in_ten_beyond_the_spread_is_a_gain():
    base = [0.50, 0.51, 0.49, 0.50, 0.52, 0.50, 0.48, 0.51, 0.50, 0.49]
    change = [b - 0.04 for b in base[:9]] + [0.53]  # one loss
    [row] = summarize(_pairs("wall_s", base, change), {"wall_s": "lower"})
    assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
    assert row["base"] == quartiles(base) and row["change"] == quartiles(change)
    assert row["relative"] == pytest.approx((row["change"][1] - row["base"][1]) / row["base"][1])
    assert row["gain"]


def test_no_gain_below_nine_wins_in_ten_or_within_the_base_spread():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    within_spread = [b - 0.5 for b in base]  # wins every pair, but moves the median by less than the IQR
    [row] = summarize(_pairs("wall_s", base, within_spread), {"wall_s": "lower"})
    assert row["wins"] == 10 and not row["gain"]
    base = [1.0] * 10
    eight_wins = [0.5] * 8 + [1.0, 1.5]  # a tie counts for neither side
    [row] = summarize(_pairs("wall_s", base, eight_wins), {"wall_s": "lower"})
    assert (row["wins"], row["losses"], row["gain"]) == (8, 1, False)


def test_no_gain_from_fewer_than_ten_pairs():
    [row] = summarize(_pairs("wall_s", [0.50, 0.51, 0.49], [0.30, 0.31, 0.29]), {"wall_s": "lower"})
    assert (row["wins"], row["pairs"], row["gain"]) == (3, 3, False)  # far beyond the spread, still too few pairs
    [row] = summarize(_pairs("wall_s", [0.50], [0.30]), {"wall_s": "lower"})
    assert (row["wins"], row["gain"]) == (1, False)  # one pair's spread is 0


def test_a_higher_is_better_metric_wins_when_it_rises():
    base = [100.0] * 10
    [row] = summarize(_pairs("profiles_per_s", base, [110.0] * 10), {"profiles_per_s": "higher"})
    assert (row["wins"], row["losses"], row["gain"]) == (10, 0, True)
    [row] = summarize(_pairs("profiles_per_s", base, [90.0] * 10), {"profiles_per_s": "higher"})
    assert (row["wins"], row["losses"], row["gain"]) == (0, 10, False)


def test_rows_follow_the_given_order_and_skip_metrics_a_pair_lacks():
    pairs = [({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "b": 2.0})]
    rows = summarize(pairs, {"b": "lower", "c": "lower", "a": "higher"})
    assert [row["metric"] for row in rows] == ["b", "a"]
    assert summarize([], {"a": "lower"}) == []
