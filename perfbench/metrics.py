"""End-to-end and per-layer metrics from measured passes.

Wall-clock times are scaled to the reference host speed (see ``hostspeed``)
operation by operation.  Simulated figures and counts come from the first
pass of a build, which is the same on every build and every run of a seed,
so they can be checked for exact repeats.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from typing import Any, Callable

from measure import Outcome, Passes, Read
from spans import LAYERS, SpanSummary

#: Tail percentiles a run may fall back to when it has too few samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of already sorted ``values``."""
    if not values:
        return 0.0
    rank = (len(values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def tail_percentile(count: int, wanted: float) -> float:
    """``wanted``, or the next lower step of the ladder with at least ten
    samples beyond it."""
    return max(
        p for p in TAIL_LADDER if p <= wanted and (count * (100.0 - p) / 100.0 >= 10 or p == 50.0)
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reads_of(outcomes: list[Outcome]) -> list[Read]:
    return [read for o in outcomes for read in o.reads]


def writes_of(outcomes: list[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if o.kind in ("insert", "delete") and o.done]


def rate(outcomes: list[Outcome], kinds: tuple[str, ...], count: Callable[[Outcome], float]) -> float:
    """Work counted by ``count`` per scaled second spent in ``kinds``."""
    done = [o for o in outcomes if o.kind in kinds and o.done]
    return ratio(sum(count(o) for o in done), sum(o.wall * o.scale for o in done))


def simulated_fingerprint(passes: Passes) -> dict[str, Any]:
    """Every simulated count of a build's first pass; repeats exactly per seed."""
    first = passes.outcomes[0]
    per_op = [
        [o.kind, o.shape, o.done, repr(o.sim_ms), o.rows, o.pages_written, o.log_flushes,
         [[repr(r.sim_ms), r.pages_visited, r.rows_examined, r.pages_read, r.seeks] for r in o.reads]]
        for o in first
    ]
    reads, writes = reads_of(first), writes_of(first)
    return {
        "sim_io_ms_per_query": repr(ratio(sum(r.sim_ms for r in reads), len(reads))),
        "sim_io_ms_per_row_written": repr(ratio(sum(o.sim_ms for o in writes), sum(o.rows for o in writes))),
        "aux_bytes": list(passes.first_aux),
        "buffer_pool": passes.first_pool,
        "per_op_sha256": hashlib.sha256(json.dumps(per_op).encode()).hexdigest(),
    }


def end_to_end(workload: Any, runs: list[Passes], setups: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    everything = [o for run in runs for one in run.outcomes for o in one]
    first = runs[0].outcomes[0]
    latencies = sorted(r.latency * o.scale * 1000.0 for o in everything for r in o.reads)
    raw = sorted(r.latency * 1000.0 for r in reads_of(everything))
    tail = tail_percentile(len(latencies), workload.tail_pct)
    first_reads, first_writes = reads_of(first), writes_of(first)
    cm_bytes, btree_bytes, rows = runs[0].first_aux
    metrics = {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "query_p50_ms": percentile(latencies, 50.0),
        "query_tail_ms": percentile(latencies, tail),
        "queries_per_s": rate(everything, ("query", "group"), lambda o: len(o.reads)),
        "sim_io_ms_per_query": ratio(sum(r.sim_ms for r in first_reads), len(first_reads)),
        "insert_rows_per_s": statistics.median(
            [ratio(o.rows, o.wall * o.scale) for o in everything if o.kind == "insert" and o.done] or [0.0]
        ),
        "sim_io_ms_per_row_written": ratio(
            sum(o.sim_ms for o in first_writes), sum(o.rows for o in first_writes)
        ),
        "advise_s": ratio(1.0, rate(everything, ("advise",), lambda o: 1)),
        "aux_bytes_per_row": ratio(cm_bytes + btree_bytes, rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scales = sorted(o.scale for o in everything)
    passes = sum(len(run.outcomes) for run in runs)
    notes = [
        f"reads: {len(latencies)} queries in {passes} passes on {len(runs)} builds, "
        f"{sum(run.wall for run in runs):.2f} s measured; query_tail_ms is p{tail:g} "
        f"({len(latencies) - int(len(latencies) * tail / 100.0)} samples beyond it)",
        f"host speed: times scaled by a median factor of {percentile(scales, 50.0):.3f} "
        f"(range {scales[0]:.3f}-{scales[-1]:.3f}); unscaled query p50 {percentile(raw, 50.0):.3f} ms, "
        f"p{tail:g} {percentile(raw, tail):.3f} ms",
    ]
    return metrics, notes


def per_layer(untraced: Passes, traced: Passes, tracer: Any, setups: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of the traced passes.  Span times are scaled by the
    traced passes' median host-speed factor; counts come from the first pass."""
    everything = [o for one in traced.outcomes for o in one]
    first = traced.outcomes[0]
    spans = SpanSummary(tracer.spans, traced.span_marks[0], traced.span_marks[-1])
    first_spans = SpanSummary(tracer.spans, traced.span_marks[0], traced.span_marks[1])
    scale = statistics.median(o.scale for o in everything)
    reads, first_reads = reads_of(everything), reads_of(first)
    writes, first_writes = writes_of(everything), writes_of(first)
    written = sum(o.rows for o in writes)
    inserted = sum(o.rows for o in writes if o.kind == "insert")
    first_written = sum(o.rows for o in first_writes)

    def ms(seconds: float) -> float:
        return seconds * scale * 1000.0

    def per_call_ms(name: str) -> float:
        return ratio(ms(spans.outer_seconds[name]), spans.outer_calls[name])

    def us_per_row(seconds: float, rows: int) -> float:
        return ratio(seconds * scale * 1e6, rows)

    read_roots = spans.root_seconds("op.query") + spans.root_seconds("op.group")
    planner = spans.nested_seconds("op.query", "planner") + spans.nested_seconds("op.group", "planner")
    executor = read_roots - planner - spans.nested_seconds("op.query", "parallel")
    qerrors = sorted(
        max(r.est_ms / r.sim_ms, r.sim_ms / r.est_ms) for r in first_reads if r.est_ms > 0 and r.sim_ms > 0
    )
    by_shape: dict[str, list[float]] = {}
    for o in everything:
        for r in o.reads:
            by_shape.setdefault(o.shape, []).append(r.latency * o.scale * 1000.0)
    scheduled = [r for o in first if o.kind == "group" for r in o.reads]
    pool = traced.first_pool
    cm_bytes, btree_bytes, _ = traced.first_aux
    metrics: dict[str, float] = {
        "planner.ms_per_query": ratio(ms(spans.outer_seconds["planner"]), len(reads)),
        "planner.share": ratio(planner, read_roots),
        "planner.cost_qerror_p50": percentile(qerrors, 50.0),
        "executor.ms_per_query": ratio(ms(executor), len(reads)),
        "executor.rows_examined_per_row_returned": ratio(
            sum(r.rows_examined for r in first_reads), sum(r.rows_matched for r in first_reads)
        ),
        "executor.rows_examined_per_s": ratio(sum(r.rows_examined for r in reads), executor * scale),
    }
    for shape in ("range_agg", "group_by", "topk", "hash_join", "part_topk", "part_group_by"):
        metrics[f"shape.{shape}.p50_ms"] = percentile(sorted(by_shape.get(shape, [])), 50.0)
    metrics.update({
        "parallel.ms_per_call": per_call_ms("parallel"),
        "parallel.declined": float(traced.first_counts.get("parallel.declined", 0)),
        "scheduler.ms_per_query": ratio(
            ms(spans.outer_seconds["scheduler"]), sum(len(o.reads) for o in everything if o.kind == "group")
        ),
        "scheduler.quanta_per_query": ratio(sum(r.quanta for r in scheduled), len(scheduled)),
        "scheduler.queue_wait_sim_ms": ratio(sum(r.queue_sim_ms for r in scheduled), len(scheduled)),
        "cm.lookup_ms": per_call_ms("cm.lookup"),
        "cm.lookups_per_query": ratio(first_spans.outer_calls["cm.lookup"], len(first_reads)),
        "cm.maint_us_per_row": us_per_row(spans.outer_seconds["cm.maint"], written),
        "cm.bytes": float(cm_bytes),
        "btree.probe_ms": per_call_ms("btree.probe"),
        "btree.maint_us_per_row": us_per_row(spans.outer_seconds["btree.maint"], written),
        "btree.bytes": float(btree_bytes),
        "table.insert_us_per_row": us_per_row(spans.self_seconds["table.insert"], inserted),
        "table.delete_us_per_row": us_per_row(spans.self_seconds["table.delete"], written - inserted),
        "stats.observe_us_per_row": us_per_row(spans.outer_seconds["stats.observe"], written),
        "buffer_pool.hit_rate": ratio(pool["hits"], pool["hits"] + pool["misses"]),
        "buffer_pool.evictions": float(pool["dirty_evictions"] + pool["clean_evictions"]),
        "buffer_pool.dirty_evictions": float(pool["dirty_evictions"]),
        "disk.pages_read_per_query": ratio(sum(r.pages_read for r in first_reads), len(first_reads)),
        "disk.seeks_per_query": ratio(sum(r.seeks for r in first_reads), len(first_reads)),
        "disk.pages_written_per_row": ratio(sum(o.pages_written for o in first_writes), first_written),
        "disk.log_flushes": float(sum(o.log_flushes for o in first_writes)),
        "wal.flush_ms": per_call_ms("wal.flush"),
        "wal.flushes_per_row": ratio(first_spans.outer_calls["wal.flush"], first_written),
        "advisor.designs_evaluated": float(first_spans.calls["advisor.evaluate"]),
        "advisor.ms_per_design": per_call_ms("advisor.evaluate"),
        "estimator.ms": per_call_ms("estimator"),
        "estimator.calls": float(first_spans.calls["estimator"]),
        "composite.key_of_calls": float(traced.first_counts.get("composite.key_of", 0)),
    })
    for phase in setups[0]:
        metrics[f"setup.{phase}_s"] = statistics.median(s[phase] for s in setups)
    metrics["trace.overhead_share"] = ratio(traced.first_wall - untraced.first_wall, untraced.first_wall)
    attributed = 0.0
    for layer in LAYERS:
        share = ratio(spans.self_seconds[layer], traced.wall)
        metrics[f"self_share.{layer}"] = share
        attributed += share
    metrics["self_share.unattributed"] = 1.0 - attributed
    notes = [
        f"traced: {len(traced.outcomes)} passes over {traced.wall:.2f} s; first pass "
        f"{traced.first_wall:.3f} s traced vs {untraced.first_wall:.3f} s untraced",
        "self time per layer (share of traced wall-clock): "
        + ", ".join(f"{layer} {metrics[f'self_share.{layer}']:.3f}" for layer in LAYERS)
        + f", unattributed {metrics['self_share.unattributed']:.3f}",
    ]
    for flat, part in (("topk", "part_topk"), ("group_by", "part_group_by")):
        base = metrics[f"shape.{flat}.p50_ms"]
        if base and metrics[f"shape.{part}.p50_ms"]:
            notes.append(
                f"shape.{part}: {metrics[f'shape.{part}.p50_ms'] / base:.2f}x its flat twin "
                f"(base shape.{flat}.p50_ms = {base:.2f} ms)"
            )
    return metrics, notes


def counted_fingerprint(metrics: dict[str, float]) -> dict[str, str]:
    """The per-layer counts that must repeat exactly per seed."""
    counted = (
        "buffer_pool.", "disk.", "composite.", "advisor.designs", "estimator.calls",
        "cm.bytes", "btree.bytes", "cm.lookups", "wal.flushes", "parallel.declined",
        "scheduler.quanta", "scheduler.queue", "executor.rows_examined_per_row",
        "planner.cost_qerror",
    )
    return {name: repr(value) for name, value in metrics.items() if name.startswith(counted)}
