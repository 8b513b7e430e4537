"""The comparison tool on synthetic result sets."""

import json

import pytest

from benchmarks.perf import compare
from benchmarks.perf.run import END_TO_END

BENCHMARK = json.loads((compare.ROOT / "BENCHMARK.json").read_text())

BASE = {"sessions_per_wall_s": 100.0, "setup_s": 0.5, "peak_rss_mb": 80.0,
        "op_ms_p50": 10.0}


def write_runs(directory, values, failed=0):
    """One ``--out`` file per run; ``values`` are sessions_per_wall_s."""
    directory.mkdir()
    for i, value in enumerate(values):
        # A 0.2% wobble keeps every other metric's spread well in bounds.
        record = {name: BASE[name] * (1 + 0.002 * (i % 3)) for name, _ in END_TO_END}
        record.update(workload="w", trace=False, attempted=100, failed=failed,
                      sessions_per_wall_s=value)
        (directory / f"run-{i:02d}.json").write_text(json.dumps({"runs": [record]}))
    return directory


def verdicts(tmp_path, parent, change, change_failed=0):
    rows = compare.compare(write_runs(tmp_path / "parent", parent),
                           write_runs(tmp_path / "change", change, change_failed),
                           BENCHMARK)
    return {row["metric"]: row for row in rows}


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_clear_win_is_improved(tmp_path):
    rows = verdicts(tmp_path, PARENT, [v * 1.2 for v in PARENT])
    assert rows["sessions_per_wall_s"]["verdict"] == "improved"
    assert rows["sessions_per_wall_s"]["wins"] == 10
    assert rows["op_ms_p50"]["verdict"] == "no-worse"


def test_loss_beyond_the_bound_is_regressed(tmp_path):
    rows = verdicts(tmp_path, PARENT, [v * 0.8 for v in PARENT])
    assert rows["sessions_per_wall_s"]["verdict"] == "regressed"


def test_loss_within_the_bound_is_no_worse(tmp_path):
    rows = verdicts(tmp_path, PARENT, [v * 0.97 for v in PARENT])
    assert rows["sessions_per_wall_s"]["verdict"] == "no-worse"


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    rows = verdicts(tmp_path, noisy, list(reversed(noisy)))
    assert rows["sessions_per_wall_s"]["verdict"] == "unresolved"


def test_wide_spread_but_every_change_run_better_is_no_worse(tmp_path):
    noisy = [60.0, 90.0, 70.0, 85.0, 80.0, 65.0, 88.0, 75.0, 82.0, 78.0]
    # Every change run beats every parent run, but by less than the
    # parent's interquartile range: not a claimable gain, not unresolved.
    change = [91.0, 92.0, 93.0, 94.0, 95.0, 91.5, 92.5, 93.5, 94.5, 95.5]
    rows = verdicts(tmp_path, noisy, change)
    assert rows["sessions_per_wall_s"]["verdict"] == "no-worse"


def test_rise_in_failed_ops_is_flagged(tmp_path):
    rows = verdicts(tmp_path, PARENT, PARENT, change_failed=1)
    assert rows["failed_frac"]["verdict"] == "failed-rise"


def test_fewer_than_ten_pairs_is_refused(tmp_path):
    with pytest.raises(ValueError, match="paired runs"):
        verdicts(tmp_path, PARENT[:9], PARENT[:9])


def test_exit_status_reports_a_regression(tmp_path):
    parent = write_runs(tmp_path / "parent", PARENT)
    assert compare.main([str(parent), str(parent)]) == 0
    change = write_runs(tmp_path / "change", [v * 0.8 for v in PARENT])
    assert compare.main([str(parent), str(change)]) == 1
