"""tools/bench_record.py summary: the medians and pairs that BENCH_*.json cites."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
MACHINE = {"nproc": 2, "python": "3.11.7"}
# The five end-to-end metrics BENCHMARK.json declares, parent then change:
# the change wins on call_p50_s and calls_per_s and loses on the rest.
METRICS = {
    "setup_s": (0.20, 0.21),
    "call_p50_s": (1e-4, 9e-5),
    "call_tail_s": (2e-4, 3e-4),
    "calls_per_s": (9000.0, 9500.0),
    "peak_rss_mb": (30.0, 31.0),
}


# Calls attempted per run, parent then change.
ATTEMPTED = (1000, 1150)


def write_record(records: Path, side: str, position: int, failed: int = 0, seed: int = 71,
                 scale: float = 1.0) -> None:
    """One run's record; ``scale`` multiplies its metrics."""
    record = {
        "workload": "faint_report", "seed": seed, "seconds": 18.0, "side": side,
        "position": position, "attempted": ATTEMPTED[side == "change"], "failed": failed,
        # Import times differ run to run; summary leaves them out of the machine block.
        "machine": {**MACHINE, "importtime_us": {"photonthin": position}},
        "metrics": {name: values[side == "change"] * scale for name, values in METRICS.items()},
    }
    (records / f"{side}_faint_report_seed{seed}_trace0.json").write_text(json.dumps(record))


def summary(tmp_path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "summary", "--records", str(tmp_path / "records"),
         "--out", str(tmp_path / "bench.json")],
        capture_output=True, text=True,
    )


def test_summary_medians_and_pairs_won(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    write_record(records, "parent", 0)
    write_record(records, "change", 1)
    assert summary(tmp_path).returncode == 0
    out = json.loads((tmp_path / "bench.json").read_text())
    assert out["machine"] == MACHINE
    entry = out["workloads"]["faint_report"]
    assert entry["pairs"] == 1
    assert entry["seeds"] == [71]
    assert entry["first"] == ["parent"]
    assert entry["seconds"] == 18.0
    assert set(entry["metrics"]) == set(METRICS)
    assert entry["attempted"] == {
        side: {"median": calls, "q1": calls, "q3": calls, "iqr": 0}
        for side, calls in zip(("parent", "change"), ATTEMPTED)
    }
    for name, (before, after) in METRICS.items():
        metric = entry["metrics"][name]
        assert metric["parent"] == {"median": before, "q1": before, "q3": before, "iqr": 0.0}
        assert metric["change"] == {"median": after, "q1": after, "q3": after, "iqr": 0.0}
        assert metric["change_won_pairs"] == int(name in ("call_p50_s", "calls_per_s"))
        assert metric["median_pair_change"] == after / before - 1.0


def test_summary_median_pair_change(tmp_path):
    # Three pairs whose change runs are 2, 1 and 1.1 times their parent runs
    # (on top of METRICS' ratio): the median pair change is 1.1 times it,
    # while the medians of the two sides stand in METRICS' ratio.
    records = tmp_path / "records"
    records.mkdir()
    for seed, parent, change in ((71, 1.0, 2.0), (72, 2.0, 2.0), (73, 4.0, 4.4)):
        write_record(records, "parent", 0, seed=seed, scale=parent)
        write_record(records, "change", 1, seed=seed, scale=change)
    assert summary(tmp_path).returncode == 0
    metrics = json.loads((tmp_path / "bench.json").read_text())["workloads"]["faint_report"]["metrics"]
    for name, (before, after) in METRICS.items():
        metric = metrics[name]
        assert metric["change"]["median"] / metric["parent"]["median"] == pytest.approx(after / before)
        assert metric["median_pair_change"] == pytest.approx(1.1 * after / before - 1.0, rel=1e-12)


def test_summary_refuses_a_record_with_failed_checks(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    write_record(records, "parent", 0)
    write_record(records, "change", 1, failed=3)
    result = summary(tmp_path)
    assert result.returncode == 1
    assert "change faint_report seed 71 failed checks or ran none" in result.stderr
    assert not (tmp_path / "bench.json").exists()
