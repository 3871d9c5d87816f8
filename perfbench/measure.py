"""Executing operations and passes, keeping only small records of each.

An operation's engine call is timed alone: its inputs are copied and the
advisor is constructed before the clock starts, the answer is checked after
it stops.  Only the figures the metrics need are kept (not the result rows
or plan trees), so memory does not grow with the length of a run.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import hostspeed
from workloads import Op, State, TimedScheduler, aux_bytes, buffer_pools

#: Take a host-speed sample before an operation when the last one is older.
SAMPLE_EVERY_S = 0.2
#: Samples this close to an operation set its scale factor.
WINDOW_S = 2.0


@dataclass(slots=True)
class Read:
    """One read query: wall-clock latency and its simulated figures."""

    latency: float
    sim_ms: float
    est_ms: float
    pages_visited: int
    rows_examined: int
    rows_matched: int
    pages_read: int
    seeks: int
    quanta: int = 0
    queue_sim_ms: float = 0.0

    @classmethod
    def of(cls, latency: float, result: Any, entry: Any = None) -> "Read":
        read = cls(
            latency,
            result.elapsed_ms,
            result.estimated_cost_ms,
            result.pages_visited,
            result.rows_examined,
            result.rows_matched,
            result.io.pages_read,
            result.io.seeks,
        )
        if entry is not None:
            read.quanta = entry.quanta
            read.queue_sim_ms = entry.admitted_ms - entry.submitted_ms
        return read


@dataclass(slots=True)
class Outcome:
    """What one operation did.  ``wall`` is the engine call's wall-clock
    seconds and ``scale`` the factor to the reference host speed."""

    kind: str
    shape: str
    wall: float = 0.0
    scale: float = 1.0
    reads: list[Read] = field(default_factory=list)
    rows: int = 0
    sim_ms: float = 0.0
    pages_written: int = 0
    log_flushes: int = 0
    done: bool = False
    error: str | None = None
    #: Queries an operation stands for in the error count (a group has many).
    weight: int = 1


def execute(db: Any, op: Op, tracer: Any = None) -> Outcome:
    """Run one operation, timing only the engine call, then check it."""
    outcome = Outcome(op.kind, op.shape)
    root = None
    try:
        if op.kind == "insert":
            table, rows = op.payload
            rows = [dict(row) for row in rows]
            # Start every timed insert from an empty collector backlog, so a
            # full collection owed to earlier work does not land inside it.
            gc.collect()
        elif op.kind == "advise":
            make_advisor, training = op.payload
            advisor = make_advisor()
        elif op.kind == "group":
            scheduler = TimedScheduler(db, **op.kwargs)
            outcome.weight = len(op.payload)
        root = tracer.begin(f"op.{op.kind}") if tracer else None
        start = time.perf_counter()
        if op.kind == "query":
            answer = db.run_query(op.payload, **op.kwargs)
        elif op.kind == "group":
            for query in op.payload:
                scheduler.submit(query)
            answer = scheduler.run()
        elif op.kind == "insert":
            answer = db.insert(table, rows, **op.kwargs)
        elif op.kind == "delete":
            answer = db.delete(*op.payload)
        else:
            answer = advisor.recommend(training)
        outcome.wall = time.perf_counter() - start
        if root is not None:
            tracer.end(root)
            root = None
        outcome.error = op.check(answer)
        outcome.done = True
        if op.kind == "query":
            outcome.reads = [Read.of(outcome.wall, answer)]
        elif op.kind == "group":
            outcome.reads = [
                Read.of(scheduler.finished_at[entry.label] - start, entry.result, entry)
                for entry in answer
                if entry.result is not None
            ]
        elif op.kind in ("insert", "delete"):
            outcome.rows = answer.rows_affected
            outcome.sim_ms = answer.elapsed_ms
            outcome.pages_written = answer.pages_written
            outcome.log_flushes = answer.log_flushes
    except Exception as exc:  # a failed operation is counted, not fatal
        if root is not None:
            tracer.end(root)
        outcome.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return outcome


def pool_totals(db: Any) -> dict[str, int]:
    totals = {"hits": 0, "misses": 0, "dirty_evictions": 0, "clean_evictions": 0}
    for pool in buffer_pools(db):
        for key in totals:
            totals[key] += getattr(pool.stats, key)
    return totals


@dataclass
class Passes:
    """The passes made on one build, plus what the first pass left behind."""

    outcomes: list[list[Outcome]]
    wall: float
    first_wall: float
    span_marks: list[int]
    first_pool: dict[str, int]
    first_aux: tuple[int, int, int]
    first_counts: dict[str, int]


def run_pass(db: Any, ops: list[Op], tracer: Any = None) -> list[Outcome]:
    """One pass, with host-speed samples at most ``SAMPLE_EVERY_S`` apart.
    Each operation is scaled by the median of the samples taken within
    ``WINDOW_S`` of it: enough samples to smooth their jitter, near enough
    to follow the host's drift."""
    samples = [(time.perf_counter(), hostspeed.sample())]
    spans: list[tuple[float, float]] = []
    done = []
    for op in ops:
        if time.perf_counter() - samples[-1][0] >= SAMPLE_EVERY_S:
            samples.append((time.perf_counter(), hostspeed.sample()))
        start = time.perf_counter()
        done.append(execute(db, op, tracer))
        spans.append((start, time.perf_counter()))
    samples.append((time.perf_counter(), hostspeed.sample()))
    for outcome, (start, end) in zip(done, spans):
        outcome.scale = hostspeed.factor(
            [value for at, value in samples if start - WINDOW_S <= at <= end + WINDOW_S]
        )
    return done


def run_passes(state: State, ops_for: Callable[[int], list[Op]], seconds: float, tracer: Any = None) -> Passes:
    """Repeat passes on ``state`` while at least half a pass still fits in
    ``seconds`` (so at least one)."""
    db = state.db
    outcomes: list[list[Outcome]] = []
    marks: list[int] = []
    pool_before = pool_totals(db)
    start = time.perf_counter()
    while True:
        marks.append(len(tracer.spans) if tracer else 0)
        outcomes.append(run_pass(db, ops_for(len(outcomes)), tracer))
        if len(outcomes) == 1:
            first_wall = time.perf_counter() - start
            after = pool_totals(db)
            first_pool = {key: after[key] - pool_before[key] for key in after}
            first_aux = aux_bytes(db)
            first_counts = dict(tracer.counts) if tracer else {}
        if time.perf_counter() - start + first_wall / 2 >= seconds:
            break
    marks.append(len(tracer.spans) if tracer else 0)
    return Passes(outcomes, time.perf_counter() - start, first_wall, marks, first_pool, first_aux, first_counts)
