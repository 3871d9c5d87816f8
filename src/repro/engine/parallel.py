"""Process-parallel execution of partitioned exchange plans.

:func:`maybe_run_parallel` executes the per-partition subtrees of an
:class:`~repro.engine.plan.ExchangeNode` on a ``multiprocessing`` pool of
forked workers, then reassembles the plan's state in the parent so the
result -- rows, value, per-node counters, per-device I/O breakdowns, head
positions and simulated elapsed time -- is **bit-identical** to the serial
drain of the same plan.  The differential fuzzer asserts exactly that.

Why the parity holds:

* every partition subtree reads only through its partition's private
  :class:`~repro.storage.disk.DiskModel`, so its I/O classification is
  independent of what the other partitions (or the parent) do concurrently;
  the worker ships back the device's counter window and final head position
  and the parent replays both via :meth:`DiskModel.absorb`;
* per-node actual counters are shipped as plain tuples over the subtree's
  deterministic pre-order ``walk()`` and assigned onto the parent's nodes;
* aggregation merges *partial* per-partition accumulator states in
  ascending partition order.  Counts, distinct sets and integer sums merge
  exactly; a **float** sum/avg may differ from the serial fold in its last
  ulps, because ``(a+b)+c != a+(b+c)`` for floats -- the standard caveat
  of parallel aggregation in every real engine, and the one deliberate
  exception to bit-identity (every *counter* and I/O statistic still
  matches bit for bit; the fuzzer asserts exact values for integer
  aggregates and ulp-tolerance for float ones).

Plans are not picklable (compiled predicate kernels), so nothing is ever
pickled *into* a worker: the pool uses the ``fork`` start method and workers
find the plan in :data:`_WORKER_STATE`, a module global set just before the
fork.  Only the per-worker result payloads cross process boundaries.  A
worker that dies instead of returning (killed, ``os._exit``) breaks the pool:
the fan-out then raises a :class:`RuntimeError` naming the partitions that
were running, rather than waiting forever.

Three fan-out shapes are recognised:

* plan root is an ``AggregateNode`` directly over the exchange -- workers
  ship per-partition partial accumulator state (count, running sum or
  distinct set), the parent merges them and synthesises the single
  aggregate row;
* plan root is a ``GroupByNode`` directly over the exchange -- workers ship
  per-group partials in first-seen group order, the parent merges them
  partition by partition (reproducing the serial first-seen order);
* anything else -- workers ship their partition's matching rows, the parent
  hands them to the exchange as a replay (per-partition row lists for a
  :class:`~repro.engine.exchange.MergeExchangeNode`, which re-merges them
  exactly as it merged the live streams; one concatenation otherwise) and
  the ordinary drain runs the decorators above.

A ``LimitNode`` disables the parallel path -- early termination stops the
serial scan mid-partition, which full per-partition drains cannot reproduce
-- **except** above a merge exchange whose children are all blocking
Sort/TopK subtrees: the serial merge drains every child completely before
emitting its first row anyway, so full per-partition drains are exactly the
serial behaviour and the LIMIT only bounds the parent-side re-merge.

Partition-wise join subtrees fan out the same way: each surviving partition's
join (scan + hash/probe/merge operator) runs in one worker, with per-group
device windows shipped back (a co-partitioned join touches *two* private
devices per subtree).  Broadcast and repartition caches are filled in the
parent **before** the fork (:func:`repro.engine.exchange.prepare_plan`), so
every worker inherits the filled cache and the shared-device fill charges
happen exactly once, at the same point of the access sequence as the serial
first-pull fill.

One known divergence remains: workers warm their *forked* buffer pools, so
after a parallel run the parent's partition pools are colder than a serial
run would have left them.  Cold-cache methodology (the benchmarks and the
fuzzer) is unaffected.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.exchange import MergeExchangeNode, prepare_plan
from repro.engine.executor import ExecutionContext, PlanNode
from repro.engine.plan import (
    AggregateNode,
    ExchangeNode,
    GroupByNode,
    LimitNode,
    SortNode,
    TopKNode,
    find_node,
)
from repro.storage.disk import IOBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database
    from repro.engine.transactions import Snapshot

#: Whether this platform can fork workers that inherit the (unpicklable)
#: plan tree.  Without fork, execution silently stays serial.
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: State a forked worker inherits: the exchange node, the execution
#: snapshot, the batch size and the fan-out mode.  Set immediately before
#: the pool forks, cleared right after the fan-out completes.
_WORKER_STATE: dict[str, Any] = {}

#: Rows buffered per ``GroupedAccumulators.add_batch`` call in group-mode
#: workers (the same batched kernels the serial executor folds through).
_GROUP_CHUNK = 1024


@dataclass
class _ChildPayload:
    """Everything one worker ships back about its partition subtree."""

    #: Per-node counter tuples over the subtree's pre-order ``walk()``.
    counters: list[tuple[int, int, int, int, int]]
    #: The subtree's device group's I/O counter windows, as plain tuples in
    #: the order of ``exchange.device_groups[index]``.
    io: list[tuple[int, int, int, int, int, int, int]]
    #: The device group's final head positions, in the same order.
    head: list[tuple[str | None, int | None]]
    #: Mode-dependent result data (rows, value lists, or group partials).
    data: Any
    #: The CM scan's rewritten SQL, when the subtree produced one.
    rewritten_sql: str | None


def parallel_supported(plan: PlanNode) -> bool:
    """Whether :func:`maybe_run_parallel` would fan this plan out."""
    if not FORK_AVAILABLE:
        return False
    exchange = find_node(plan, ExchangeNode)
    if exchange is None or len(exchange.sources) < 2:
        return False
    limit = find_node(plan, LimitNode)
    if limit is not None:
        # Early termination is only reproducible when every child blocks:
        # the serial merge then drains each partition fully regardless of
        # the LIMIT, exactly what the workers do.  A LIMIT of zero never
        # pulls the exchange at all, so the children must stay undrained.
        if not isinstance(exchange, MergeExchangeNode) or limit.k < 1:
            return False
        if not all(
            isinstance(source, (SortNode, TopKNode))
            for source in exchange.sources
        ):
            return False
    return True


def _fanout_mode(plan: PlanNode, exchange: ExchangeNode) -> str:
    """Which reassembly shape applies: ``aggregate``, ``group`` or ``rows``."""
    if isinstance(plan, AggregateNode) and plan.source is exchange:
        return "aggregate"
    if isinstance(plan, GroupByNode) and plan.source is exchange:
        return "group"
    return "rows"


def _extract_values(rows: Iterable[dict[str, Any]], expression: Any) -> list[Any]:
    if callable(expression):
        return [expression(row) for row in rows]
    return [row[expression] for row in rows]


def _run_child(index: int) -> _ChildPayload:
    """Worker entry point: drain one partition subtree in the forked copy."""
    state = _WORKER_STATE
    exchange: ExchangeNode = state["exchange"]
    child = exchange.sources[index]
    devices = exchange.device_groups[index]
    snapshot: "Snapshot | None" = state["snapshot"]
    mode: str = state["mode"]
    context = ExecutionContext(snapshot=snapshot)
    befores = [device.snapshot() for device in devices]
    # Live heap-page dicts flow out unchanged; only the rows mode keeps
    # rows, and it copies them.
    rows = chain.from_iterable(child.iter_batches(context, state["batch_size"]))

    data: Any
    if mode == "aggregate":
        aggregate = state["aggregate"]
        if aggregate.kind == "count":
            data = (sum(1 for _row in rows), None)
        else:
            values = _extract_values(rows, aggregate.expression)
            if aggregate.kind == "count_distinct":
                data = (len(values), set(values))
            else:
                partial: Any = 0
                for item in values:
                    partial = partial + item
                data = (len(values), partial)
    elif mode == "group":
        aggregate = state["aggregate"]
        columns = state["group_columns"]
        key_of = itemgetter(*columns)
        grouped = aggregate.make_grouped()
        rows_in = 0
        chunk: list[dict[str, Any]] = []
        for row in rows:
            chunk.append(row)
            if len(chunk) >= _GROUP_CHUNK:
                grouped.add_batch(list(map(key_of, chunk)), chunk)
                rows_in += len(chunk)
                chunk = []
        if chunk:
            grouped.add_batch(list(map(key_of, chunk)), chunk)
            rows_in += len(chunk)
        data = (rows_in, grouped.partial_state())
    else:
        data = [dict(row) for row in rows]

    windows = [
        device.window_since(before)
        for device, before in zip(devices, befores)
    ]
    return _ChildPayload(
        counters=[
            (
                node.actual.rows_examined,
                node.actual.pages_visited,
                node.actual.lookups,
                node.actual.join_probes,
                node.actual.rows_out,
            )
            for node in child.walk()
        ],
        io=[
            (
                window.sequential_reads,
                window.random_reads,
                window.sequential_writes,
                window.random_writes,
                window.log_flushes,
                window.log_pages_written,
                window.cpu_tuples,
            )
            for window in windows
        ],
        head=[device.tracker.head_position() for device in devices],
        data=data,
        rewritten_sql=context.rewritten_sql,
    )


def _apply_payloads(
    exchange: ExchangeNode,
    payloads: list[_ChildPayload],
    context: ExecutionContext,
) -> None:
    """Replay the workers' counters, I/O windows and head positions."""
    for child, payload in zip(exchange.sources, payloads):
        for node, counters in zip(child.walk(), payload.counters):
            (
                node.actual.rows_examined,
                node.actual.pages_visited,
                node.actual.lookups,
                node.actual.join_probes,
                node.actual.rows_out,
            ) = counters
    for group, payload in zip(exchange.device_groups, payloads):
        for device, io, head in zip(group, payload.io, payload.head):
            device.absorb(IOBreakdown(*io), head)
    for payload in payloads:
        if payload.rewritten_sql is not None:
            context.shared.rewritten_sql = payload.rewritten_sql
            break


def _merge_aggregate(
    plan: AggregateNode, exchange: ExchangeNode, payloads: list[_ChildPayload]
) -> list[dict[str, Any]]:
    """Merge per-partition partials in partition order; one output row."""
    aggregate = plan.aggregate
    kind = aggregate.kind
    rows_in = sum(payload.data[0] for payload in payloads)
    value: Any
    if kind == "count":
        value = rows_in
    elif kind == "count_distinct":
        distinct: set[Any] = set()
        for payload in payloads:
            distinct |= payload.data[1]
        value = len(distinct)
    else:
        # Partial sums added in ascending partition order: exact for ints,
        # last-ulp drift from the serial fold possible for floats (the
        # module docstring's one documented exception to bit-identity).
        total: Any = 0
        for payload in payloads:
            total = total + payload.data[1]
        value = (total / rows_in if rows_in else None) if kind == "avg" else total
    plan.rows_in = rows_in
    plan.value = value
    plan._charge_cpu(rows_in)
    plan.actual.rows_out = 1
    exchange.actual.rows_out = rows_in
    exchange.partitions_scanned = len(exchange.sources)
    return [{aggregate.output_name: value}]


def _merge_groups(
    plan: GroupByNode, exchange: ExchangeNode, payloads: list[_ChildPayload]
) -> list[dict[str, Any]]:
    """Merge per-partition group partials in first-seen group order."""
    aggregate = plan.aggregate
    grouped = aggregate.make_grouped()
    rows_in = 0
    for payload in payloads:
        partition_rows, (counts, partials) = payload.data
        rows_in += partition_rows
        grouped.absorb_partial(counts, partials)
    columns = plan.group_columns
    single = columns[0] if len(columns) == 1 else None
    output_name = aggregate.output_name
    rows: list[dict[str, Any]] = []
    for key, value in grouped.results():
        merged = {single: key} if single is not None else dict(zip(columns, key))
        merged[output_name] = value
        rows.append(merged)
    plan.rows_in = rows_in
    plan.groups_out = len(rows)
    plan._charge_cpu(rows_in)
    plan.actual.rows_out = len(rows)
    exchange.actual.rows_out = rows_in
    exchange.partitions_scanned = len(exchange.sources)
    return rows


#: Per-partition progress marks in a worker's :data:`_WORKER_STATE`.
_RUNNING, _DONE = 1, 2


def _run_partition(index: int) -> _ChildPayload:
    """Pool entry point: :func:`_run_child`, bracketed by progress marks."""
    progress = _WORKER_STATE["progress"]
    progress[index] = _RUNNING
    payload = _run_child(index)
    progress[index] = _DONE
    return payload


def _fan_out(partitions: int, workers: int) -> list[_ChildPayload]:
    """Run every partition subtree on forked workers; payloads in order.

    A worker that dies without returning breaks the pool.  That surfaces as
    a :class:`RuntimeError` naming the partitions that were running when it
    happened (shared progress marks, inherited by fork), instead of a hang.
    """
    context = multiprocessing.get_context("fork")
    progress = context.Array("b", partitions, lock=False)
    _WORKER_STATE["progress"] = progress
    with ProcessPoolExecutor(min(workers, partitions), mp_context=context) as pool:
        futures = [pool.submit(_run_partition, index) for index in range(partitions)]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool:
            running = [str(i) for i in range(partitions) if progress[i] == _RUNNING]
            raise RuntimeError(
                "a parallel worker process died without returning a result "
                f"while running partition(s) {', '.join(running) or '?'} "
                f"of {partitions}"
            ) from None


def maybe_run_parallel(
    database: "Database",
    plan: PlanNode,
    context: ExecutionContext,
    *,
    workers: int,
) -> list[dict[str, Any]] | None:
    """Fan a partitioned plan out over forked workers, or decline.

    Returns the plan's final output rows (what ``Database._drain`` would
    have produced) with all plan/device state reassembled as-if serial, or
    ``None`` when the plan does not qualify -- the caller then drains
    serially.
    """
    if workers < 2 or not parallel_supported(plan):
        return None
    exchange = find_node(plan, ExchangeNode)
    mode = _fanout_mode(plan, exchange)
    # Broadcast/repartition caches fill in the parent before the fork, so
    # every worker inherits them and the shared-device fill charges happen
    # exactly once -- at the same point of the access sequence as the serial
    # first-pull fill.  report_rewritten_sql=False mirrors the hash build
    # context the fill runs under serially.
    batch_size = database.batch_size
    prepare_plan(
        plan,
        ExecutionContext(snapshot=context.snapshot, report_rewritten_sql=False),
        batch_size,
    )
    _WORKER_STATE.update(
        exchange=exchange,
        snapshot=context.snapshot,
        batch_size=batch_size,
        mode=mode,
        aggregate=getattr(plan, "aggregate", None),
        group_columns=getattr(plan, "group_columns", ()),
    )
    try:
        payloads = _fan_out(len(exchange.sources), workers)
    finally:
        _WORKER_STATE.clear()
    _apply_payloads(exchange, payloads, context)
    if mode == "aggregate":
        assert isinstance(plan, AggregateNode)
        return _merge_aggregate(plan, exchange, payloads)
    if mode == "group":
        assert isinstance(plan, GroupByNode)
        return _merge_groups(plan, exchange, payloads)
    if isinstance(exchange, MergeExchangeNode):
        # Per-partition ordered lists re-merge exactly as the live streams
        # would have; a LIMIT above then trims the re-merge identically.
        exchange.set_replay_parts([payload.data for payload in payloads])
    else:
        replay: list[dict[str, Any]] = []
        for payload in payloads:
            replay.extend(payload.data)
        exchange.set_replay(replay)
    return database._drain(plan, context)
