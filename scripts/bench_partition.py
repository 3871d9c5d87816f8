#!/usr/bin/env python
"""Run the partitioning benchmarks and write BENCH_partition.json.

Measures the two claims of the partitioned-storage layer
(:mod:`repro.bench.partition`): partition pruning reads a fraction of the
unpartitioned scan's physical pages (simulated, machine-independent), and
process-parallel execution of the per-partition subtrees beats the serial
exchange on wall clock while every simulated statistic stays bit-identical.

Usage::

    PYTHONPATH=src python scripts/bench_partition.py [--smoke] [--check]
        [--scale X] [--repeats N] [--partitions N] [--workers N]
        [--output BENCH_partition.json] [--scenario NAME ...]

``--check`` turns the run into the CI gate: it fails on any parity
violation, on a pruning page ratio above the acceptance floor, on a
partitioned ORDER BY + LIMIT slower in wall clock than
``MERGE_WALLCLOCK_RATIO_FLOOR`` times the flat one (host-relative: both are
timed on the same runner), and -- only on runners with at least
``MIN_CORES_FOR_FLOOR`` cores -- on a parallel speedup below the floor.  On smaller runners the wall-clock floor is
skipped with an explicit message: a 1-2 core container cannot demonstrate
a 2x multi-core speedup, and a red build there would only measure the
runner, not the code.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.partition import (  # noqa: E402 (path bootstrap above)
    FLAGSHIP_SCENARIO,
    JOIN_SCENARIO,
    MERGE_SIMULATED_RATIO_FLOOR,
    MERGE_WALLCLOCK_RATIO_FLOOR,
    MIN_CORES_FOR_FLOOR,
    MIN_SERIAL_SECONDS,
    ORDERED_MERGE_SCENARIO,
    PARALLEL_SPEEDUP_FLOOR,
    PRUNING_PAGE_RATIO_FLOOR,
    PartitionBenchConfig,
    format_results,
    run_benchmarks,
    write_report,
)
from repro.engine.parallel import FORK_AVAILABLE  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, fewer repeats (the CI configuration)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on parity/pruning regressions (and the wall-clock floor "
        "on multi-core runners)",
    )
    parser.add_argument("--scale", type=float, default=None, help="row-count multiplier")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per mode")
    parser.add_argument(
        "--partitions", type=int, default=None, help="partition count (default 8)"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="fork-pool size (default: per core)"
    )
    parser.add_argument(
        "--output",
        default="BENCH_partition.json",
        help="report path (default: ./BENCH_partition.json)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only the named scenario (repeatable)",
    )
    args = parser.parse_args(argv)

    base = PartitionBenchConfig.smoke() if args.smoke else PartitionBenchConfig()
    config = PartitionBenchConfig(
        scale=args.scale if args.scale is not None else base.scale,
        repeats=args.repeats if args.repeats is not None else base.repeats,
        partitions=args.partitions if args.partitions is not None else base.partitions,
        workers=args.workers if args.workers is not None else base.workers,
        batch_size=base.batch_size,
    )

    results = run_benchmarks(config, names=args.scenario)
    if not results:
        parser.error(f"no scenario matched {args.scenario!r}")
    print(format_results(results))
    report = write_report(results, config, args.output)
    summary = report["summary"]
    print(
        f"\nwrote {args.output} (pruning ratio "
        f"{summary['pruning_page_ratio']}, parallel speedup "
        f"{summary['parallel_speedup']}x, join speedup "
        f"{summary['join_speedup']}x, merge simulated ratio "
        f"{summary['merge_simulated_ratio']}, merge wall-clock ratio "
        f"{summary['merge_wallclock_ratio']} on {report['cpu_count']} cores)"
    )

    if not args.check:
        return 0
    failed = False
    if not summary["parity_ok"]:
        print("ERROR: partitioned/parallel parity check failed", file=sys.stderr)
        failed = True
    ratio = summary["pruning_page_ratio"]
    if ratio is not None and ratio > PRUNING_PAGE_RATIO_FLOOR:
        print(
            f"ERROR: pruning page ratio {ratio} exceeds the acceptance "
            f"floor {PRUNING_PAGE_RATIO_FLOOR}",
            file=sys.stderr,
        )
        failed = True
    merge_ratio = summary["merge_simulated_ratio"]
    if merge_ratio is not None and merge_ratio > MERGE_SIMULATED_RATIO_FLOOR:
        print(
            f"ERROR: ordered-merge simulated cost ratio {merge_ratio} on "
            f"{ORDERED_MERGE_SCENARIO} exceeds the non-regression floor "
            f"{MERGE_SIMULATED_RATIO_FLOOR} (machine-independent)",
            file=sys.stderr,
        )
        failed = True
    merge_wallclock = summary["merge_wallclock_ratio"]
    if merge_wallclock is not None and merge_wallclock > MERGE_WALLCLOCK_RATIO_FLOOR:
        print(
            f"ERROR: {ORDERED_MERGE_SCENARIO} runs {merge_wallclock}x the flat "
            f"wall clock (serial_seconds / flat_seconds), above the "
            f"{MERGE_WALLCLOCK_RATIO_FLOOR}x floor (host-relative)",
            file=sys.stderr,
        )
        failed = True
    cores = os.cpu_count() or 1
    floors = [
        (FLAGSHIP_SCENARIO, summary["parallel_speedup"]),
        (JOIN_SCENARIO, summary["join_speedup"]),
    ]
    if not FORK_AVAILABLE:
        print(
            "skipping the parallel wall-clock floors: fork start method "
            "unavailable on this platform"
        )
    elif cores < MIN_CORES_FOR_FLOOR:
        names = ", ".join(name for name, _speedup in floors)
        print(
            f"skipping the parallel wall-clock floors ({PARALLEL_SPEEDUP_FLOOR}x "
            f"on {names}): runner has {cores} cores, "
            f"needs >= {MIN_CORES_FOR_FLOOR}"
        )
    else:
        for name, speedup in floors:
            scenario = report["scenarios"].get(name)
            serial_seconds = scenario["serial_seconds"] if scenario else None
            if scenario is None or speedup is None:
                continue
            if serial_seconds is not None and serial_seconds < MIN_SERIAL_SECONDS:
                print(
                    f"skipping the parallel wall-clock floor on {name}: serial "
                    f"run took {serial_seconds:.4f}s < {MIN_SERIAL_SECONDS}s, "
                    "too short to amortise pool startup -- raise --scale for "
                    "a meaningful gate"
                )
                continue
            if speedup < PARALLEL_SPEEDUP_FLOOR:
                print(
                    f"ERROR: parallel speedup {speedup}x on {name} is "
                    f"below the {PARALLEL_SPEEDUP_FLOOR}x floor on a "
                    f"{cores}-core runner",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
