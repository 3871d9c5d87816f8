"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the engine is imported from ``src/``.

``--trace 0`` builds the workload's database three times (``setup_s`` is the
median) and spreads the ``--seconds`` of measuring over the builds, so one
run samples the host over its whole length; every build that measures
replays the same passes.  It prints the end-to-end metrics.

``--trace 1`` makes one untraced pass on one build, then traced passes on a
second build for ``--seconds``, and prints the per-layer metrics; the spans
are written to ``.perfbench/spans/``.

Every answer is checked against the workload's reference.  The simulated
counts of the first pass must be equal on every build, with and without
tracing, and equal to those an earlier run of the same seed and code left in
``.perfbench/sim/``; any difference is counted as a failure.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics``, each with its value and unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

BUILDS_UNTRACED = 3


def code_digest() -> str:
    """Identifies the code under test, so recorded counts never outlive it."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py"), *BENCH_DIR.glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeats(kind: str, args: argparse.Namespace, fingerprint: dict[str, Any]) -> list[str]:
    """Compare ``fingerprint`` with the one an earlier run of the same
    workload, seed, scale and code recorded; record it if this is the first."""
    name = f"{args.workload}-seed{args.seed}-scale{args.scale:g}-{code_digest()}-{kind}.json"
    path = OUT_DIR / "sim" / name
    if path.exists():
        recorded = json.loads(path.read_text())
        return [
            f"{kind} count {key!r} drifted: {fingerprint.get(key)!r}, recorded {recorded.get(key)!r}"
            for key in sorted(set(recorded) | set(fingerprint))
            if recorded.get(key) != fingerprint.get(key)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(fingerprint, indent=1, sort_keys=True))
    scratch.replace(path)
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="data scale; the self-test runs tiny ones")
    args = parser.parse_args(argv)
    for required in (SRC / "repro" / "__init__.py", BENCHMARK_FILE):
        if not required.is_file():
            print(f"perfbench: {required} is missing; run from the root of a checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    from measure import run_passes
    from metrics import counted_fingerprint, end_to_end, per_layer, simulated_fingerprint
    from spans import Tracer
    from workloads import WORKLOADS, load_references

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_FILE.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed, args.scale, load_references())
    generated: dict[int, list[Any]] = {}
    setups: list[dict[str, float]] = []

    def ops_for(index: int) -> list[Any]:
        if index not in generated:
            generated[index] = workload.pass_ops(index)
        return generated[index]

    def build() -> Any:
        gc.collect()
        state, phases = workload.setup()
        setups.append(phases)
        return state

    problems: list[str] = []
    if args.trace:
        untraced = run_passes(build(), ops_for, 0.0)
        state = build()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(state, ops_for, args.seconds, tracer)
        finally:
            tracer.close()
        tracer.write(OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.json")
        metrics, notes = per_layer(untraced, traced, tracer, setups)
        runs = [untraced, traced]
        problems += check_repeats("counts", args, counted_fingerprint(metrics))
    else:
        runs = []
        for index in range(BUILDS_UNTRACED):
            state = None
            state = build()
            # A build gets its share of the measuring time, but no pass when
            # less than half of one fits: runs then last about as long
            # whether the host is fast or slow.
            budget = args.seconds * (index + 1) / BUILDS_UNTRACED - sum(run.wall for run in runs)
            if not runs or budget >= runs[0].first_wall / 2:
                runs.append(run_passes(state, ops_for, budget))
        metrics, notes = end_to_end(workload, runs, setups)
    sims = [simulated_fingerprint(run) for run in runs]
    if any(sim != sims[0] for sim in sims):
        problems.append("the first pass gave different simulated counts on two builds")
    problems += check_repeats("sim", args, sims[0])

    outcomes = [o for run in runs for one in run.outcomes for o in one]
    attempted = sum(o.weight for o in outcomes) + len(problems)
    failed = sum(o.weight for o in outcomes if o.error) + len(problems)
    messages = [f"{o.kind}/{o.shape}: {o.error}" for o in outcomes if o.error] + problems
    for message in messages[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in wanted}
    report = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}",
        f"why: {next(w['why'] for w in spec['workloads'] if w['name'] == args.workload)}",
        f"env: cpu_count={os.cpu_count()} python={platform.python_version()} platform={platform.platform()}",
        f"tables: {', '.join(f'{name} {pages} pages' for name, pages in state.tables.items())}",
        *workload.describe(),
        *notes,
        f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}",
        *(f"{name}: {metrics[name]:.6g} {unit}" for name, unit in units.items()),
    ]
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
