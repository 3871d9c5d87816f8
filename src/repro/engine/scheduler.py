"""Cooperative multi-query scheduling over one shared buffer pool.

The engine executes a query as a tree of batch-producing plan nodes
(:mod:`repro.engine.executor`); one ``RowBatch`` pull is therefore a natural
preemption point that needs no threads and no locks.  The
:class:`QueryScheduler` exploits it: it admits up to ``max_concurrent``
queries, gives each its own plan tree, :class:`ExecutionContext` and MVCC
snapshot (pinned at admission), and round-robins the *runnable* set one
scheduling quantum at a time.  A quantum pulls batches from one query's plan
until the query's per-turn budget -- heap pages visited and/or simulated
CPU-milliseconds -- is spent (one batch per turn without budgets); the query
then yields with all counters intact and resumes exactly where it stopped,
courtesy of the generator-based pipelines.

Everything physical is shared, so *cache interference is a first-class,
measurable effect*: all queries hit the same :class:`~repro.storage.
buffer_pool.BufferPool`, and each quantum's I/O window (a
:meth:`~repro.storage.disk.DiskModel.snapshot` diff) is attributed to the
query that ran it.  Interleaved readers of the same table advance through
the heap roughly in lockstep, so one query's physical page read serves the
others from cache -- the aggregate-throughput effect
``scripts/bench_concurrent.py`` measures.  Per-query latency is reported in
simulated milliseconds from submission to completion, so queueing delay and
interference are visible in the same unit as every other cost in the
repository.

Scheduling policies:

``fair``
    Strict round-robin over the runnable queries: the next query to run is
    always the one that has waited longest, so a long scan cannot starve a
    point lookup (it yields after every quantum).

``priority``
    The highest-priority runnable query runs next; ties rotate round-robin.
    Lower-priority queries run only when no higher-priority query is
    runnable, i.e. starvation of low priorities is accepted by design.

The scheduler is deterministic: no wall clock and no randomness influence
any decision, so a given submission sequence replays the exact same
interleaving -- which is what the isolation-anomaly suite builds on
(:mod:`tests.engine.test_snapshot_isolation` drives :meth:`QueryScheduler.
step` directly from seeded scripts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.engine.executor import ExecutionContext, RowBatch
from repro.engine.plan import exchange_devices
from repro.engine.query import Query, QueryResult
from repro.engine.transactions import Snapshot, Transaction
from repro.storage.disk import DiskModel, IOBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database

#: Scheduling policies :class:`QueryScheduler` understands.
POLICIES = ("fair", "priority")

def _window_since(
    devices: Sequence[DiskModel], snapshots: Sequence[IOBreakdown]
) -> IOBreakdown:
    """Sum the I/O windows of ``devices`` since their paired ``snapshots``.

    Partitioned plans charge their reads to per-partition devices, not the
    shared disk, so a quantum's window must fold every device the plan can
    touch to attribute interleaved I/O correctly.
    """
    window = IOBreakdown()
    for device, snapshot in zip(devices, snapshots):
        window = window.add(device.window_since(snapshot))
    return window


#: Lifecycle states of a :class:`ScheduledQuery`.
WAITING = "waiting"
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"


@dataclass
class QuantumReport:
    """What one :meth:`QueryScheduler.step` call did (telemetry/tests)."""

    label: str
    batches: int
    rows: int
    pages: int
    cpu_ms: float
    finished: bool
    failed: bool = False


class ScheduledQuery:
    """One query's scheduling state, from submission to its result.

    Exposes the admission-to-completion timeline in simulated milliseconds
    (``submitted_ms`` / ``admitted_ms`` / ``finished_ms``) plus per-query
    totals: ``io`` accumulates the quantum I/O windows attributed to this
    query, ``quanta`` counts its turns.  ``result`` is the ordinary
    :class:`~repro.engine.query.QueryResult` (built from this query's own
    counters and I/O) once the query finishes; ``error`` holds the raising
    exception if it failed.
    """

    def __init__(
        self,
        query: Query,
        *,
        label: str,
        priority: int,
        page_budget: int | None,
        cpu_ms_budget: float | None,
        run_kwargs: dict[str, Any],
        snapshot: Snapshot | None,
        transaction: Transaction | None,
    ) -> None:
        self.query = query
        self.label = label
        self.priority = priority
        self.page_budget = page_budget
        self.cpu_ms_budget = cpu_ms_budget
        self.run_kwargs = run_kwargs
        self.state = WAITING
        #: The snapshot pinned at admission (or the one explicitly passed).
        self.snapshot = snapshot
        self.transaction = transaction
        self.plan = None
        self.context: ExecutionContext | None = None
        self.rows: list[dict[str, Any]] = []
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        self.io = IOBreakdown()
        self.quanta = 0
        self.batches = 0
        self.submitted_ms: float = 0.0
        self.admitted_ms: float | None = None
        self.finished_ms: float | None = None
        self._iterator: Iterator[RowBatch] | None = None
        self._fresh_rows = False

    @property
    def finished(self) -> bool:
        return self.state in (FINISHED, FAILED)

    @property
    def latency_ms(self) -> float | None:
        """Simulated submission-to-completion latency (includes queueing)."""
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.submitted_ms

    @property
    def queue_ms(self) -> float | None:
        """Simulated time spent waiting for admission."""
        if self.admitted_ms is None:
            return None
        return self.admitted_ms - self.submitted_ms

    def describe(self) -> str:
        return f"{self.label}[{self.state}]"


class QueryScheduler:
    """Admits queries and round-robins them one batch quantum at a time.

    Parameters
    ----------
    database:
        The engine everything runs against; its buffer pool, disk model and
        transaction manager are shared by every admitted query.
    max_concurrent:
        Admission control: at most this many queries hold execution state at
        once; the rest wait in FIFO order and are admitted as slots free up
        (their snapshots are pinned at admission, not submission).
    policy:
        ``"fair"`` or ``"priority"`` (see the module docstring).
    batch_size:
        Rows per scheduling quantum pull; defaults to the database's batch
        size.
    """

    def __init__(
        self,
        database: "Database",
        *,
        max_concurrent: int = 4,
        policy: str = "fair",
        batch_size: int | None = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} (one of {POLICIES})")
        self.database = database
        self.max_concurrent = max_concurrent
        self.policy = policy
        self.batch_size = batch_size if batch_size is not None else database.batch_size
        self._waiting: deque[ScheduledQuery] = deque()
        self._runnable: deque[ScheduledQuery] = deque()
        self._all: list[ScheduledQuery] = []

    # -- submission and admission ---------------------------------------------

    def submit(
        self,
        query: Query,
        *,
        label: str | None = None,
        priority: int = 0,
        page_budget: int | None = None,
        cpu_ms_budget: float | None = None,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> ScheduledQuery:
        """Queue a query; it is admitted as soon as a slot is free.

        ``page_budget`` / ``cpu_ms_budget`` bound one scheduling *turn* (the
        query keeps pulling batches within a turn until either is spent);
        without them a turn is exactly one batch.  ``priority`` only matters
        under the priority policy.  ``snapshot``/``transaction`` override
        the snapshot otherwise pinned at admission.
        """
        if page_budget is not None and page_budget < 1:
            raise ValueError("page_budget must be positive")
        if cpu_ms_budget is not None and cpu_ms_budget <= 0:
            raise ValueError("cpu_ms_budget must be positive")
        entry = ScheduledQuery(
            query,
            label=label or f"q{len(self._all)}",
            priority=priority,
            page_budget=page_budget,
            cpu_ms_budget=cpu_ms_budget,
            run_kwargs={
                "force": force,
                "force_join": force_join,
                "limit": limit,
                "projection": projection,
            },
            snapshot=snapshot,
            transaction=transaction,
        )
        entry.submitted_ms = self.database.elapsed_ms()
        self._all.append(entry)
        self._waiting.append(entry)
        self._admit()
        return entry

    def _admit(self) -> None:
        db = self.database
        while self._waiting and len(self._runnable) < self.max_concurrent:
            entry = self._waiting.popleft()
            # Always pin a snapshot (unlike run_query's lazy attachment):
            # under concurrent writers the first row version may appear
            # *mid-scan*, and a reader admitted before it must not see it.
            if entry.snapshot is None:
                if entry.transaction is not None:
                    entry.snapshot = entry.transaction.snapshot
                else:
                    entry.snapshot = db.transactions.snapshot()
            entry.plan = db._prepare(entry.query, **entry.run_kwargs)
            entry.context = ExecutionContext(snapshot=entry.snapshot)
            entry._iterator = entry.plan.iter_batches(entry.context, self.batch_size)
            entry._fresh_rows = entry.plan.produces_fresh_rows
            entry.admitted_ms = db.elapsed_ms()
            entry.state = RUNNING
            self._runnable.append(entry)

    # -- the scheduling loop ----------------------------------------------------

    @property
    def active(self) -> int:
        """Queries currently holding an execution slot."""
        return len(self._runnable)

    @property
    def pending(self) -> int:
        """Queries waiting for admission."""
        return len(self._waiting)

    @property
    def queries(self) -> list[ScheduledQuery]:
        """Every submitted query, in submission order."""
        return list(self._all)

    def step(self) -> QuantumReport | None:
        """Run one scheduling quantum; ``None`` when nothing is runnable.

        Deterministic: which query runs is fully decided by the policy and
        the submission/yield history, so a scripted interleaving replays
        identically -- the property the anomaly tests rely on.
        """
        if not self._runnable:
            return None
        entry = self._pick()
        report = self._run_quantum(entry)
        if entry.finished:
            self._admit()
        else:
            self._runnable.append(entry)
        return report

    def run(self) -> list[ScheduledQuery]:
        """Drive :meth:`step` until every submitted query has finished."""
        while self._runnable or self._waiting:
            self.step()
        return list(self._all)

    def _pick(self) -> ScheduledQuery:
        if self.policy == "priority":
            best = max(range(len(self._runnable)), key=lambda i: self._runnable[i].priority)
            entry = self._runnable[best]
            del self._runnable[best]
            return entry
        return self._runnable.popleft()

    def _run_quantum(self, entry: ScheduledQuery) -> QuantumReport:
        """Pull batches from one query until its per-turn budget is spent.

        Each pull's I/O window is attributed to the query; the page meter
        counts *logical* pages visited (buffer-pool hits included), so a
        budget means the same amount of work whatever the cache holds.
        """
        db = self.database
        assert entry._iterator is not None and entry.plan is not None
        devices: tuple[DiskModel, ...] = (db.disk, *exchange_devices(entry.plan))
        entry.quanta += 1
        batches = rows = 0
        pages = 0
        cpu_ms = 0.0
        failed = finished = False
        collect = entry.rows.extend
        while True:
            pages_before = entry.plan.total_counters().pages_visited
            before = [device.snapshot() for device in devices]
            try:
                batch = next(entry._iterator)
            except StopIteration:
                entry.io = entry.io.add(_window_since(devices, before))
                finished = True
                break
            except Exception as exc:  # noqa: BLE001 - reported on the entry
                entry.io = entry.io.add(_window_since(devices, before))
                entry.error = exc
                failed = True
                break
            window = _window_since(devices, before)
            entry.io = entry.io.add(window)
            entry.batches += 1
            batches += 1
            rows += len(batch)
            collect(batch if entry._fresh_rows else map(dict, batch))
            pages += entry.plan.total_counters().pages_visited - pages_before
            cpu_ms += window.elapsed_ms(db.disk.params)
            if entry.page_budget is None and entry.cpu_ms_budget is None:
                break
            if entry.page_budget is not None and pages >= entry.page_budget:
                break
            if entry.cpu_ms_budget is not None and cpu_ms >= entry.cpu_ms_budget:
                break
        if finished:
            entry.result = db._build_result(
                entry.query, entry.plan, entry.rows, entry.context, entry.io
            )
            entry.rows = []
            entry.state = FINISHED
        elif failed:
            entry.state = FAILED
            if entry._iterator is not None:
                entry._iterator.close()
        if entry.finished:
            entry.finished_ms = db.elapsed_ms()
            entry._iterator = None
        return QuantumReport(
            label=entry.label,
            batches=batches,
            rows=rows,
            pages=pages,
            cpu_ms=cpu_ms,
            finished=finished,
            failed=failed,
        )
