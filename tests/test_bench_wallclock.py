"""Tests for the wall-clock benchmark harness and its JSON report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.wallclock import (
    REPORT_SCHEMA,
    BenchConfig,
    build_report,
    floor_failures,
    format_results,
    run_benchmarks,
    write_report,
)

TINY = BenchConfig(scale=0.05, repeats=1)


@pytest.fixture(scope="module")
def tiny_results():
    return run_benchmarks(TINY)


def test_scenarios_cover_the_advertised_shapes(tiny_results):
    names = {result.name for result in tiny_results}
    assert names == {
        "scan_filter",
        "full_scan_aggregate",
        "unindexed_join",
        "top_k",
        "group_by",
        "order_by_full",
        "sort_merge_join",
    }


def test_every_scenario_passes_parity_at_tiny_scale(tiny_results):
    for result in tiny_results:
        assert result.parity_ok, result.name
        assert result.rows_matched > 0 or result.name == "top_k"
        assert result.seconds > 0
        assert result.rows_per_s == result.rows_examined / result.seconds


def test_report_structure_and_round_trip(tiny_results, tmp_path):
    path = tmp_path / "BENCH_exec.json"
    report = write_report(tiny_results, TINY, str(path))
    assert report["schema"] == REPORT_SCHEMA
    on_disk = json.loads(path.read_text())
    assert on_disk == report
    assert set(on_disk["scenarios"]) == {r.name for r in tiny_results}
    summary = on_disk["summary"]
    assert summary["parity_ok"] is True
    assert set(summary["rows_per_s"]) == {r.name for r in tiny_results}
    assert on_disk["cpu_count"] >= 1
    for payload in on_disk["scenarios"].values():
        assert {
            "name",
            "rows_matched",
            "rows_examined",
            "pages_visited",
            "simulated_ms",
            "seconds",
            "rows_per_s",
            "parity_ok",
        } <= set(payload)


def test_floor_failures_gate_each_scenario(tiny_results):
    report = build_report(tiny_results, TINY)
    assert floor_failures(tiny_results, report, 0.5) == {}
    inflated = json.loads(json.dumps(report))
    inflated["summary"]["rows_per_s"]["group_by"] *= 1e6
    failures = floor_failures(tiny_results, inflated, 0.5)
    assert list(failures) == ["group_by"]
    assert failures["group_by"].startswith("group_by:")
    with pytest.raises(ValueError, match="schema"):
        floor_failures(tiny_results, {"schema": "repro-bench-exec/v1"}, 0.5)


def test_format_results_renders_one_line_per_scenario(tiny_results):
    text = format_results(tiny_results)
    for result in tiny_results:
        assert result.name in text


def test_cli_script_smoke(tmp_path):
    """scripts/bench_wallclock.py runs end to end and writes the report."""
    repo_root = Path(__file__).resolve().parent.parent
    output = tmp_path / "BENCH_exec.json"
    completed = subprocess.run(
        [
            sys.executable,
            str(repo_root / "scripts" / "bench_wallclock.py"),
            "--scale",
            "0.05",
            "--repeats",
            "1",
            "--scenario",
            "full_scan_aggregate",
            "--output",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert "full_scan_aggregate" in report["scenarios"]


def _run_cli(args, tmp_path):
    repo_root = Path(__file__).resolve().parent.parent
    output = tmp_path / "fresh.json"
    return subprocess.run(
        [
            sys.executable,
            str(repo_root / "scripts" / "bench_wallclock.py"),
            "--scale",
            "0.05",
            "--repeats",
            "1",
            "--scenario",
            "full_scan_aggregate",
            "--output",
            str(output),
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _committed(rows_per_s):
    return json.dumps(
        {
            "schema": REPORT_SCHEMA,
            "summary": {"rows_per_s": {"full_scan_aggregate": rows_per_s}},
        }
    )


def test_cli_floor_check_passes_against_a_low_committed_floor(tmp_path):
    committed = tmp_path / "committed.json"
    committed.write_text(_committed(1))
    completed = _run_cli(["--check-floor", str(committed)], tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert "floor check ok" in completed.stdout


def test_cli_floor_check_fails_on_regression(tmp_path):
    """An absurdly high committed floor must make the CLI exit non-zero."""
    committed = tmp_path / "committed.json"
    committed.write_text(_committed(1e12))
    completed = _run_cli(["--check-floor", str(committed)], tmp_path)
    assert completed.returncode == 1
    assert "throughput regressed" in completed.stderr


def test_cli_floor_check_reads_floor_before_overwriting(tmp_path):
    """--check-floor FILE with --output FILE: the floor is the *old* file's."""
    shared = tmp_path / "BENCH_exec.json"
    shared.write_text(_committed(1e12))
    repo_root = Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [
            sys.executable,
            str(repo_root / "scripts" / "bench_wallclock.py"),
            "--scale",
            "0.05",
            "--repeats",
            "1",
            "--scenario",
            "full_scan_aggregate",
            "--output",
            str(shared),
            "--check-floor",
            str(shared),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 1, "floor must come from the pre-run file"
    assert "throughput regressed" in completed.stderr
