#!/usr/bin/env python
"""Run the wall-clock executor benchmarks and write BENCH_exec.json.

Times the executor on the scan / filter / join / top-k / group-by scenarios
of :mod:`repro.bench.wallclock`, verifying on the way that batch size 1 and
the configured batch size report bit-identical simulated statistics.  The
JSON report tracks the wall-clock trajectory across changes; CI runs it with
``--check-floor`` and uploads the file as an artifact.

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py
        [--scale X] [--repeats N] [--batch-size N]
        [--output BENCH_exec.json] [--scenario NAME ...]
        [--check-floor COMMITTED.json] [--floor-headroom 0.5]

Exits non-zero if any scenario's parity check fails.  With ``--check-floor``
it also fails when any scenario's throughput (rows examined per second)
drops below the committed report's figure for that scenario scaled by
``--floor-headroom`` -- the CI regression smoke.  The headroom (default 0.5:
regression means losing more than half the committed throughput) absorbs
runner noise; raw wall-clock numbers are machine-dependent and never gate at
1:1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.wallclock import (  # noqa: E402 (path bootstrap above)
    FLOOR_HEADROOM,
    BenchConfig,
    floor_failures,
    format_results,
    run_benchmarks,
    write_report,
)
from repro.engine.executor import DEFAULT_BATCH_SIZE  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = BenchConfig()
    parser.add_argument(
        "--scale", type=float, default=defaults.scale, help="row-count multiplier"
    )
    parser.add_argument(
        "--repeats", type=int, default=defaults.repeats, help="timing repeats"
    )
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE, help="rows per batch"
    )
    parser.add_argument(
        "--output",
        default="BENCH_exec.json",
        help="report path (default: ./BENCH_exec.json)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only the named scenario (repeatable)",
    )
    parser.add_argument(
        "--check-floor",
        default=None,
        metavar="COMMITTED.json",
        help="fail if any scenario's rows/s regresses below this committed "
        "report's figure (scaled by --floor-headroom)",
    )
    parser.add_argument(
        "--floor-headroom",
        type=float,
        default=FLOOR_HEADROOM,
        help="fraction of the committed rows/s each scenario must keep "
        f"(default {FLOOR_HEADROOM}, absorbing runner noise)",
    )
    args = parser.parse_args(argv)

    # Read the committed floors before the run: --output may overwrite the
    # very file --check-floor points at.
    committed = None
    if args.check_floor is not None:
        with open(args.check_floor, encoding="utf-8") as handle:
            committed = json.load(handle)

    config = BenchConfig(
        scale=args.scale, repeats=args.repeats, batch_size=args.batch_size
    )

    results = run_benchmarks(config, names=args.scenario)
    if not results:
        parser.error(f"no scenario matched {args.scenario!r}")
    print(format_results(results))
    report = write_report(results, config, args.output)
    print(f"\nwrote {args.output}")
    if not report["summary"]["parity_ok"]:
        print("ERROR: batch-size parity check failed", file=sys.stderr)
        return 1
    if committed is not None:
        failures = floor_failures(results, committed, args.floor_headroom)
        for failure in failures.values():
            print(f"ERROR: throughput regressed: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"floor check ok: every scenario keeps >= {args.floor_headroom} x "
            f"its committed rows/s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
