"""Wall-clock benchmarks: executor throughput per query shape, in real seconds.

Every other benchmark in this repository measures *simulated* milliseconds
-- the paper's disk model, deliberately independent of the host machine.
This module measures the one thing the simulation cannot: the real CPU cost
of driving the interpreter.  Each scenario plans one query, executes it at
batch size 1 and at the configured batch size on the *same* database
instance, verifies that the simulated statistics are bit-identical (rows,
pages, I/O breakdown, simulated elapsed time -- the executor's parity
contract), and then times the configured batch size with best-of-N repeats.
Throughput is reported as rows examined per second.

:func:`run_benchmarks` returns the scenario results and
:func:`write_report` persists them as ``BENCH_exec.json`` so the wall-clock
trajectory is tracked across changes (CI uploads the file as an artifact);
:func:`floor_failures` compares a fresh run against a committed report.

Run from a checkout::

    PYTHONPATH=src python scripts/bench_wallclock.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from repro.bench.harness import build_tpch_join_database
from repro.engine.database import Database
from repro.engine.executor import DEFAULT_BATCH_SIZE
from repro.engine.predicates import Between
from repro.engine.query import Aggregate, Query, QueryResult

#: Schema tag written into BENCH_exec.json (bump on layout changes).
REPORT_SCHEMA = "repro-bench-exec/v2"

#: The scenarios the flagship throughput gate is asserted on.
FLAGSHIP_SCENARIOS = ("full_scan_aggregate", "unindexed_join")

#: Fraction of the committed rows/s a scenario must keep: regression means
#: losing more than half, which absorbs runner noise.
FLOOR_HEADROOM = 0.5


@dataclass(frozen=True)
class BenchConfig:
    """Knobs shared by every scenario of one benchmark run."""

    #: Multiplier on every scenario's row counts.
    scale: float = 1.0
    #: Timing repeats (best-of-N is reported).
    repeats: int = 3
    #: Rows per batch for the timed runs.
    batch_size: int = DEFAULT_BATCH_SIZE


@dataclass
class ScenarioResult:
    """One scenario's timing plus the parity evidence."""

    name: str
    description: str
    rows_matched: int
    rows_examined: int
    pages_visited: int
    simulated_ms: float
    #: Best-of-N wall-clock seconds of one cold-cache run.
    seconds: float
    #: ``rows_examined / seconds``: the floor-gated throughput.
    rows_per_s: float
    #: Batch size 1 and the configured batch size agree bit for bit.
    parity_ok: bool


@dataclass(frozen=True)
class _Scenario:
    name: str
    description: str
    database: Database
    query: Query
    run_kwargs: dict[str, Any]


def _build_items_database(scale: float, batch_size: int) -> Database:
    """A single clustered+indexed items table (the scan-shaped scenarios)."""
    rng = random.Random(7)
    rows = []
    for item_id in range(max(1_000, int(60_000 * scale))):
        price = rng.uniform(0, 100_000)
        rows.append({"itemid": item_id, "catid": int(price // 500), "price": price})
    db = Database(buffer_pool_pages=4_000, batch_size=batch_size)
    db.create_table("items", sample_row=rows[0], tups_per_page=50)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)
    db.create_secondary_index("items", "price")
    return db


def build_scenarios(config: BenchConfig) -> list[_Scenario]:
    """The benchmark suite: scan, filter, join, top-k and group-by shapes."""
    items = _build_items_database(config.scale, config.batch_size)
    join_db, _lineitem, _orders = build_tpch_join_database(
        num_orders=max(500, int(4_000 * config.scale)),
        cluster_orders_on=None,  # unindexed inner: the hash-join workload
    )
    join_db.batch_size = config.batch_size
    return [
        _Scenario(
            "scan_filter",
            "sequential scan with a range filter over every page",
            items,
            Query.select("items", Between("price", 25_000, 75_000)),
            {"force": "seq_scan"},
        ),
        _Scenario(
            "full_scan_aggregate",
            "SUM(price) over the whole table (no filter)",
            items,
            Query.select("items", aggregate=Aggregate.sum("price")),
            {"force": "seq_scan"},
        ),
        _Scenario(
            "unindexed_join",
            "filtered lineitem JOIN orders with an unindexed inner (hash join)",
            join_db,
            Query.select("lineitem", Between("shipdate", 60, 150)).join(
                "orders", on="orderkey"
            ),
            {"force": "seq_scan", "force_join": "hash_join"},
        ),
        _Scenario(
            "top_k",
            "ORDER BY price DESC LIMIT 10 through the bounded k-heap",
            items,
            Query.select("items", Between("price", 0, 100_000))
            .order_by("-price")
            .with_limit(10),
            {"force": "seq_scan"},
        ),
        _Scenario(
            "group_by",
            "COUNT(*) per category via hash aggregation",
            items,
            Query.select("items", aggregate=Aggregate.count(alias="n")).group_by(
                "catid"
            ),
            {"force": "seq_scan"},
        ),
        _Scenario(
            "order_by_full",
            "ORDER BY price DESC without LIMIT (full in-memory sort)",
            items,
            Query.select("items", Between("price", 25_000, 75_000)).order_by(
                "-price"
            ),
            {"force": "seq_scan"},
        ),
        _Scenario(
            "sort_merge_join",
            "filtered lineitem JOIN orders forced through the sort-merge merge",
            join_db,
            Query.select("lineitem", Between("shipdate", 60, 150)).join(
                "orders", on="orderkey"
            ),
            {"force": "seq_scan", "force_join": "sort_merge_join"},
        ),
    ]


def _time_best(run: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def run_scenario(scenario: _Scenario, config: BenchConfig) -> ScenarioResult:
    """Execute one scenario at two batch sizes: parity check, then timing.

    Every run is cold-cache (the paper's methodology), so the simulated
    statistics of the two batch sizes are directly comparable -- and
    compared before any timing is taken.
    """
    db = scenario.database

    def run(batch_size: int) -> QueryResult:
        db.batch_size = batch_size
        # Park the simulated disk head at a known position so the first
        # read of every run classifies identically, whatever ran before.
        db.reset_measurements()
        return db.run_query(scenario.query, cold_cache=True, **scenario.run_kwargs)

    single = run(1)
    batched = run(config.batch_size)
    parity_ok = (
        single.rows == batched.rows
        and single.value == batched.value
        and single.pages_visited == batched.pages_visited
        and single.rows_examined == batched.rows_examined
        and single.join_probes == batched.join_probes
        and single.io == batched.io
        and single.elapsed_ms == batched.elapsed_ms
    )
    seconds = _time_best(lambda: run(config.batch_size), config.repeats)
    return ScenarioResult(
        name=scenario.name,
        description=scenario.description,
        rows_matched=batched.rows_matched,
        rows_examined=batched.rows_examined,
        pages_visited=batched.pages_visited,
        simulated_ms=batched.elapsed_ms,
        seconds=seconds,
        rows_per_s=batched.rows_examined / seconds if seconds > 0 else float("inf"),
        parity_ok=parity_ok,
    )


def run_benchmarks(
    config: BenchConfig | None = None,
    *,
    names: Sequence[str] | None = None,
) -> list[ScenarioResult]:
    """Run the wall-clock suite (optionally a named subset)."""
    config = config or BenchConfig()
    results = []
    for scenario in build_scenarios(config):
        if names is not None and scenario.name not in names:
            continue
        results.append(run_scenario(scenario, config))
    return results


def build_report(
    results: Sequence[ScenarioResult], config: BenchConfig
) -> dict[str, Any]:
    """The BENCH_exec.json payload for one finished run."""
    return {
        "schema": REPORT_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "config": asdict(config),
        "scenarios": {result.name: asdict(result) for result in results},
        "summary": {
            "parity_ok": all(result.parity_ok for result in results),
            "rows_per_s": {
                result.name: round(result.rows_per_s) for result in results
            },
        },
    }


def floor_failures(
    results: Sequence[ScenarioResult],
    committed: dict[str, Any],
    headroom: float,
) -> dict[str, str]:
    """Scenarios whose throughput fell below ``headroom`` x the committed one.

    ``committed`` is a parsed ``BENCH_exec.json`` of this schema; scenarios
    it does not list are not gated.  Maps each failing scenario to a message.
    """
    if committed.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"committed report has schema {committed.get('schema')!r}, "
            f"expected {REPORT_SCHEMA!r}"
        )
    floors = committed["summary"]["rows_per_s"]
    failures = {}
    for result in results:
        if result.name not in floors:
            continue
        floor = floors[result.name] * headroom
        if result.rows_per_s < floor:
            failures[result.name] = (
                f"{result.name}: {result.rows_per_s:,.0f} rows/s < floor "
                f"{floor:,.0f} ({floors[result.name]:,} committed x {headroom})"
            )
    return failures


def write_report(
    results: Sequence[ScenarioResult], config: BenchConfig, path: str
) -> dict[str, Any]:
    """Serialise :func:`build_report` to ``path``; returns the payload."""
    report = build_report(results, config)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def format_results(results: Sequence[ScenarioResult]) -> str:
    """A fixed-width table of one run's results (for terminals and CI logs)."""
    header = (
        f"{'scenario':<20} {'rows':>8} {'examined':>9} {'pages':>7} "
        f"{'sim ms':>9} {'seconds':>9} {'rows/s':>11} {'parity':>7}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.name:<20} {result.rows_matched:>8} {result.rows_examined:>9} "
            f"{result.pages_visited:>7} {result.simulated_ms:>9.1f} "
            f"{result.seconds:>9.4f} {result.rows_per_s:>11,.0f} "
            f"{'ok' if result.parity_ok else 'FAIL':>7}"
        )
    return "\n".join(lines)
