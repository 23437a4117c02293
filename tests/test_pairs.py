"""The summary of tools/pairs.py on a fixed, fake result set; no benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from pairs import summarize  # noqa: E402

SPEC = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p90_ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _run(workload, seed, side, first, ops, p90, setup=0.165, rss=20.0, correct=True):
    return {"workload": workload, "seed": seed, "side": side, "first": first, "correct": correct,
            "metrics": {"ops_per_s": ops, "op_p90_ms": p90, "setup_s": setup, "peak_rss_mb": rss}}


# Three minor_ladder pairs, the order flipped every pair: the change wins
# ops_per_s in seeds 1 and 2 and loses seed 3; its op_p90_ms ties seed 3.
# Seed 4 has no change run, and one cli_mix run is incorrect.
RUNS = [
    _run("minor_ladder", 1, "parent", True, 100.0, 4.0, rss=20.0),
    _run("minor_ladder", 1, "change", False, 150.0, 2.0, rss=21.0),
    _run("minor_ladder", 2, "change", True, 140.0, 3.0, rss=21.0),
    _run("minor_ladder", 2, "parent", False, 120.0, 5.0, rss=20.2),
    _run("minor_ladder", 3, "parent", True, 110.0, 3.0, rss=20.4),
    _run("minor_ladder", 3, "change", False, 90.0, 3.0, rss=20.4),
    _run("minor_ladder", 4, "parent", True, 999.0, 0.1),
    _run("cli_mix", 5, "parent", True, 10.0, 1.0),
    _run("cli_mix", 5, "change", False, 12.0, 1.0, correct=False),
]


def test_summary_of_fixed_pairs():
    out = summarize(RUNS, SPEC)
    assert list(out) == ["minor_ladder", "cli_mix"]
    ladder = out["minor_ladder"]
    assert (ladder["pairs"], ladder["seeds"], ladder["all_correct"]) == (3, [1, 2, 3], True)
    ops = ladder["metrics"]["ops_per_s"]
    assert ops["parent"] == [100.0, 120.0, 110.0]
    assert ops["change"] == [150.0, 140.0, 90.0]
    assert (ops["median_parent"], ops["median_change"]) == (110.0, 140.0)
    assert ops["parent_iqr"] == [105.0, 115.0]
    assert ops["median_gap_exceeds_parent_iqr"] is True
    assert ops["ratio_median"] == pytest.approx(140 / 120)
    assert ops["change_wins"] == 2
    # seed 1: change ran second and won; seed 2: parent second and lost;
    # seed 3: change second and lost
    assert ops["second_run_better"] == 1
    p90 = ladder["metrics"]["op_p90_ms"]
    assert (p90["change_wins"], p90["second_run_better"]) == (2, 1)
    assert p90["ratio_median"] == pytest.approx(0.6)
    assert p90["parent_iqr"] == [3.5, 4.5]
    assert p90["median_gap_exceeds_parent_iqr"] is False  # 4 -> 3 is no more than the IQR
    assert "quantized" in ladder["metrics"]["setup_s"]
    assert ladder["metrics"]["setup_s"]["change_wins"] == 0
    rss = ladder["metrics"]["peak_rss_mb"]
    assert rss["parent_spread"] == pytest.approx(0.02)
    assert rss["bound"] == 0.1
    assert "parent_spread" not in ops and "quantized" not in ops
    cli = out["cli_mix"]
    assert (cli["pairs"], cli["all_correct"]) == (1, False)
    assert cli["metrics"]["ops_per_s"]["parent_iqr"] == [10.0, 10.0]
    assert cli["metrics"]["op_p90_ms"]["median_gap_exceeds_parent_iqr"] is False
