"""The summary arithmetic of ``tools/bench_pairs.py``, on canned results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"setup_s": "lower", "qe_per_s": "higher"}


def result(**values):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()}}


def rows_by_metric(parent, change, bounds=None):
    pairs = [(result(**p), result(**c)) for p, c in zip(parent, change)]
    return {row["metric"]: row for row in bench_pairs.summarize(pairs, BETTER, bounds)}


def test_medians_quartiles_wins_and_the_gain_rule():
    parent = [{"setup_s": s, "qe_per_s": q} for s, q in zip(range(10, 20), range(100, 110))]
    # The change wins every setup pair but one, by 5, and loses every qe_per_s pair.
    change = [{"setup_s": s - 5, "qe_per_s": q - 1} for s, q in zip(range(10, 20), range(100, 110))]
    change[9]["setup_s"] = 20
    rows = rows_by_metric(parent, change)
    setup, qe = rows["setup_s"], rows["qe_per_s"]
    # Inclusive quartiles of 10..19: 12.25, 14.5 and 16.75.
    assert (setup["parent_q1"], setup["parent_median"], setup["parent_q3"]) == (12.25, 14.5, 16.75)
    assert setup["change_median"] == 9.5 and setup["change_pct"] == pytest.approx(-100 * 5 / 14.5)
    assert (setup["wins"], setup["pairs"]) == (9, 10)
    # A gap of 5 is wider than the parent's spread of 4.5, in 9 of 10 pairs.
    assert setup["gain"]
    assert (qe["wins"], qe["gain"]) == (0, False)


def test_a_higher_is_better_metric_wins_when_it_rises():
    parent = [{"qe_per_s": 100.0 + i} for i in range(4)]
    change = [{"qe_per_s": 110.0 + i} for i in range(4)]
    row = rows_by_metric(parent, change)["qe_per_s"]
    # Inclusive quartiles of 100..103: 100.75 and 102.25, a spread of 1.5 against a gap of 10.
    assert (row["wins"], row["gain"]) == (4, True)


def test_the_gain_rule_needs_nine_of_ten_and_a_gap_wider_than_the_spread():
    parent = [{"setup_s": 10.0 + i} for i in range(10)]
    # Eight wins of ten are too few, however wide the gap.
    eight = [{"setup_s": 1.0 + i if i < 8 else 99.0} for i in range(10)]
    assert rows_by_metric(parent, eight)["setup_s"]["gain"] is False
    # Ten wins by a gap narrower than the parent's spread of 4.5 are too small.
    narrow = [{"setup_s": 10.0 + i - 1.0} for i in range(10)]
    row = rows_by_metric(parent, narrow)["setup_s"]
    assert (row["wins"], row["gain"]) == (10, False)


def test_one_pair_has_its_own_values_as_quartiles():
    row = rows_by_metric([{"setup_s": 2.0}], [{"setup_s": 1.0}])["setup_s"]
    assert (row["parent_q1"], row["parent_q3"], row["wins"], row["gain"]) == (2.0, 2.0, 1, True)
    assert "better in 1 of 1, gain rule met" in bench_pairs.format_row(row)


def test_a_median_worse_by_more_than_the_bound_is_worse():
    parent = [{"setup_s": 10.0 + 0.1 * i, "qe_per_s": 100.0 + i} for i in range(10)]
    # Medians 10.45 and 104.5; worse by 30% and by 20% against bounds of 25%.
    change = [{"setup_s": 1.3 * p["setup_s"], "qe_per_s": 0.8 * p["qe_per_s"]} for p in parent]
    rows = rows_by_metric(parent, change, {"setup_s": 0.25, "qe_per_s": 0.25})
    assert rows["setup_s"]["regression"] == "worse"
    assert rows["qe_per_s"]["regression"] == "within"
    assert rows["setup_s"]["bound"] == 0.25
    assert bench_pairs.format_row(rows["setup_s"]).endswith(", bound 25%: worse")
    # A higher-is-better metric is worse when it falls by more than the bound.
    falling = [{"setup_s": p["setup_s"], "qe_per_s": 0.7 * p["qe_per_s"]} for p in parent]
    assert rows_by_metric(parent, falling, {"qe_per_s": 0.25})["qe_per_s"]["regression"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_wins():
    # Inclusive quartiles of 4..13: 6.25 and 10.75, a spread of 4.5 against 25% of the
    # median 8.5, 2.125.
    parent = [{"setup_s": 4.0 + i} for i in range(10)]
    # The same runs: no median move, but the spread leaves it untold.
    same = rows_by_metric(parent, parent, {"setup_s": 0.25})["setup_s"]
    assert same["regression"] == "unresolved"
    # Every change run below every parent run resolves it, as a wider bound does.
    faster = [{"setup_s": 3.0 - 0.1 * i} for i in range(10)]
    assert rows_by_metric(parent, faster, {"setup_s": 0.25})["setup_s"]["regression"] == "within"
    assert rows_by_metric(parent, parent, {"setup_s": 0.6})["setup_s"]["regression"] == "within"
    # One change run that does not beat the slowest parent run is enough to leave it open.
    faster[3] = {"setup_s": 13.0}
    assert rows_by_metric(parent, faster, {"setup_s": 0.25})["setup_s"]["regression"] == "unresolved"


def test_a_metric_without_a_bound_gets_no_regression_verdict():
    row = rows_by_metric([{"setup_s": 2.0}], [{"setup_s": 9.0}])["setup_s"]
    assert (row["bound"], row["regression"]) == (None, None)
    assert "bound" not in bench_pairs.format_row(row)
