"""The summary of scripts/bench_pairs.py: quartiles, wins and the gain rule."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402  (from scripts/, on the path above)
from bench_pairs import (  # noqa: E402
    bytecode_cache,
    exact_metrics,
    fork_warning,
    machine,
    mismatches,
    quartiles,
    summarize,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


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


def test_per_layer_metrics_are_summarised_in_their_declared_direction():
    better = {metric["name"]: metric["better"] for metric in SPEC["per_layer"]}
    base = [0.077, 0.080, 0.075, 0.078, 0.079, 0.076, 0.081, 0.077, 0.078, 0.080]
    pairs = [
        (
            {"render.svg_s": b, "render.spec_s": 0.002, "render.vertices": 180043.0},
            {"render.svg_s": b - 0.015, "render.spec_s": 0.002, "render.vertices": 180043.0},
        )
        for b in base
    ]
    rows = {row["metric"]: row for row in summarize(pairs, better)}
    assert list(rows) == ["render.spec_s", "render.svg_s", "render.vertices"]  # BENCHMARK.json's order
    assert (rows["render.svg_s"]["wins"], rows["render.svg_s"]["gain"]) == (10, True)
    for flat in ("render.spec_s", "render.vertices"):
        assert (rows[flat]["wins"], rows[flat]["losses"], rows[flat]["gain"]) == (0, 0, False)


def test_counts_byte_totals_and_the_parsed_ratio_must_match_exactly():
    assert exact_metrics(SPEC["end_to_end"]) == []
    assert exact_metrics(SPEC["per_layer"]) == [
        "ingest.files", "ingest.bytes_in", "ingest.parsed_ratio", "ingest.bytes_out", "profile.works",
        "indices.reports", "collective.works_pooled", "render.svg_bytes", "render.vertices",
    ]
    same = {"ingest.files": 2000.0, "ingest.parsed_ratio": 1.0, "render.svg_s": 0.07}
    dropped = {"ingest.files": 1999.0, "ingest.parsed_ratio": 1.0, "render.svg_s": 0.06}  # a span lost
    doubled = {"ingest.files": 2000.0, "ingest.parsed_ratio": 2.0}  # and a metric this side lacks
    pairs = [(same, dict(same)), (same, dropped), (same, doubled)]
    # render.svg_s is a time, which may differ; metrics no side reports, such as render.vertices, are skipped
    assert mismatches(pairs, exact_metrics(SPEC["per_layer"])) == [
        "pair 2: ingest.files 2000 -> 1999",
        "pair 3: ingest.parsed_ratio 1 -> 2",
    ]
    assert mismatches([(same, dropped)], ["render.svg_s"]) == ["pair 1: render.svg_s 0.07 -> 0.06"]


def test_the_header_and_summary_say_whether_children_write_a_bytecode_cache():
    assert bytecode_cache({"PYTHONDONTWRITEBYTECODE": "1"}) == "no bytecode cache (PYTHONDONTWRITEBYTECODE is set)"
    for environ in ({}, {"PYTHONDONTWRITEBYTECODE": ""}):  # Python writes a cache when the variable is empty
        assert bytecode_cache(environ) == "children write a bytecode cache (PYTHONDONTWRITEBYTECODE is unset or empty)"


def test_the_header_and_summary_give_the_python_version_and_the_usable_cpus():
    assert machine("3.11.7", 2) == "Python 3.11.7, 2 usable CPUs"
    assert machine("3.13.0", 1) == "Python 3.13.0, 1 usable CPU"


def test_fewer_than_two_usable_cpus_warn_that_the_pairs_measure_one_process():
    assert fork_warning(1) == (
        "warning: 1 usable CPU, so the CLI never forks and the pairs measure the one-process path only"
    )
    assert fork_warning(2) is None and fork_warning(64) is None


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error_before_any_checkout(monkeypatch, capsys, pairs):
    # the command line is checked before git runs, so nothing is extracted and nothing measured
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: pytest.fail("git ran"))
    with pytest.raises(SystemExit) as raised:
        bench_pairs.main(["HEAD", "HEAD", "--workload", "corpus_table", "--pairs", pairs])
    assert raised.value.code == 2
    assert f"argument --pairs: must be at least 1, not {pairs}\n" in capsys.readouterr().err
