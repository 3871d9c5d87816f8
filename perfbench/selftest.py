"""Self-test of the benchmark at a tiny data scale.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Every workload of ``BENCHMARK.json``
runs once untraced and once traced with the same seed at scale 0.05 (a few
thousand rows per table).  Each run must exit 0, answer every operation
correctly, print every metric of ``BENCHMARK.json`` with its unit, and
report the environment, the table, page and pool sizes and the workload's
"why".  The traced run also checks the untraced run's simulated counts
again, since both record them under the same seed.  Last, the benchmark
must fail without printing a result in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.05"
SEED = "7"


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess[str]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
        "--seconds", "1", "--trace", str(trace), "--scale", SCALE,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(workload: dict[str, str], trace: int, spec: dict) -> list[str]:
    done = run(workload["name"], trace, ROOT)
    where = f"{workload['name']} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-3000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} failed\n{done.stderr[-3000:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {sorted(set(printed) ^ set(expected))}")
    report = "\n".join(lines[:-1])
    for needle in ("cpu_count=", "python=", "platform=", "tables:", " pages", "pool", "why: "):
        if needle not in report:
            problems.append(f"{where}: report lacks {needle!r}")
    for name, unit in expected.items():
        if f"{name}: " not in report or unit not in report:
            problems.append(f"{where}: report lacks {name} [{unit}]")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: must fail cleanly."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(spec["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {done.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare_directory(spec)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
