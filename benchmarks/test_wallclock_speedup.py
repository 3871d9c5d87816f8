"""Acceptance guard: wall-clock throughput of the executor per query shape.

Each scenario's throughput (rows examined per wall-clock second) must keep
at least half of the figure recorded in the committed ``BENCH_exec.json``
-- the same 0.5 headroom the CI smoke applies through
``scripts/bench_wallclock.py --check-floor``.  The flagship scenarios are
the full-scan aggregate and the unindexed hash join; the columnar ones are
top-k and group-by, whose batch interiors used to walk rows one dict at a
time.  Simulated statistics must stay bit-identical between batch size 1
and the default batch size (asserted here and, structurally, in
``tests/engine/test_batched_executor.py``).

Wall-clock numbers are machine-sensitive, so each scenario gets best-of-N
timing inside the harness and up to four harness attempts here with
escalating repeat counts (longer best-of windows shrug off load spikes); a
scenario passes on its best attempt.  Parity failures, by contrast, fail
immediately: they are deterministic.
"""

import json
from pathlib import Path

from repro.bench.wallclock import (
    FLAGSHIP_SCENARIOS,
    FLOOR_HEADROOM,
    BenchConfig,
    floor_failures,
    run_benchmarks,
)

#: The committed report the floors come from.
COMMITTED_REPORT = Path(__file__).resolve().parent.parent / "BENCH_exec.json"

#: Scenarios of the columnar-kernel pass.
COLUMNAR_SCENARIOS = ("top_k", "group_by")

#: Timing repeats per attempt (re-run only while below a floor).
ATTEMPT_REPEATS = (5, 5, 7, 9)


def _assert_floors(names: tuple[str, ...]) -> None:
    committed = json.loads(COMMITTED_REPORT.read_text(encoding="utf-8"))
    best = {}
    for repeats in ATTEMPT_REPEATS:
        results = run_benchmarks(BenchConfig(repeats=repeats), names=names)
        assert {result.name for result in results} == set(names)
        for result in results:
            assert result.parity_ok, f"{result.name}: simulated statistics diverged"
            best[result.name] = max(
                best.get(result.name, result), result, key=lambda r: r.rows_per_s
            )
        failures = floor_failures(list(best.values()), committed, FLOOR_HEADROOM)
        if not failures:
            return
    raise AssertionError(
        f"throughput below {FLOOR_HEADROOM} x committed: {sorted(failures.values())}"
    )


def test_flagship_wallclock_speedup():
    _assert_floors(FLAGSHIP_SCENARIOS)


def test_columnar_wallclock_speedup():
    _assert_floors(COLUMNAR_SCENARIOS)


def test_all_scenarios_keep_simulated_statistics_identical():
    """Every bench scenario passes the batch-size parity check."""
    results = run_benchmarks(BenchConfig())
    assert results, "no scenarios ran"
    for result in results:
        assert result.parity_ok, f"{result.name}: simulated statistics diverged"
        assert result.rows_per_s == result.rows_examined / result.seconds
