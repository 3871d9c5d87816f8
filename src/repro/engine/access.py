"""Access paths: how a selection actually reads the table.

Four access methods are implemented, mirroring Sections 3 and 5 of the paper:

``SeqScan``
    Read every heap page sequentially and filter.

``PipelinedIndexScan``
    Probe the secondary B+Tree per predicated value and fetch each matching
    tuple immediately, in index order -- one random heap page read per tuple.
    This is the access pattern whose cost explodes without correlations.

``SortedIndexScan``
    PostgreSQL's bitmap heap scan (the paper's "sorted index scan"): probe the
    secondary B+Tree for all predicated values, collect the RIDs, sort them
    into a page bitmap and sweep the heap in page order.

``CorrelationMapScan``
    The CM-based plan: look up the predicated values in the CM, rewrite the
    query into clustered-index lookups on the returned clustered values (or
    clustered bucket ids), sweep those page ranges and re-apply the original
    predicate to drop false positives.

Every path streams batches: :meth:`AccessPath.iter_batches` is a generator
built on one shared scan kernel (:meth:`AccessPath._sweep`: page sweep +
compiled residual filter + counter charging) under an
:class:`~repro.engine.executor.ExecutionContext` that carries the counters.
The kernel filters a whole page per Python-level iteration and charges
counters per page run instead of per row; under a LIMIT demand, or beneath
an operator that interleaves its own I/O, it delivers rows exactly -- never
past the demand, never reading ahead -- and charges examined rows only
through the last row it delivered.  Each path contributes only its page
enumeration (:meth:`AccessPath._target_pages`).

Join operators reuse the same paths for their inner side:
:class:`InnerPathBuilder` binds one outer row's join-key values into
``Equals`` predicates and instantiates a fresh access path per probe, so an
index-nested-loop join is nothing more than a stream of tiny single-table
queries against the inner table.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from operator import is_
from typing import Any, Callable, Generator, Iterable, Iterator, Mapping, Sequence

from repro.core.correlation_map import CorrelationMap
from repro.core.rewriter import QueryRewriter
from repro.engine.executor import DEFAULT_BATCH_SIZE, ExecutionContext, RowBatch
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.table import BUCKET_COLUMN, Table
from repro.index.bitmap import PageBitmap
from repro.index.secondary import SecondaryIndex
from repro.storage.page import RID


class AccessPath:
    """Base class for executable access paths."""

    name = "access"

    def __init__(self, table: Table, predicates: PredicateSet) -> None:
        self.table = table
        self.predicates = predicates

    # -- streaming interface ----------------------------------------------------

    def iter_batches(
        self,
        context: ExecutionContext | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        demand: int | None = None,
        run_reads: bool = True,
    ) -> Generator[RowBatch, None, None]:
        """Stream matching rows as batches, charging ``context``'s counters.

        Semantics of ``demand`` and ``run_reads`` follow
        :meth:`repro.engine.executor.PlanNode.iter_batches`.  Scan batches
        hold the live heap-page dicts; copy before mutating.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if demand is not None and demand <= 0:
            return
        yield from self._stream_batches(
            context or ExecutionContext(), batch_size, demand, run_reads
        )

    def _stream_batches(
        self,
        context: ExecutionContext,
        batch_size: int,
        demand: int | None,
        run_reads: bool,
    ) -> Iterator[RowBatch]:
        yield from self._sweep(
            self._target_pages(context), context, batch_size, demand, run_reads
        )

    def _target_pages(self, context: ExecutionContext) -> Iterable[int]:
        """The heap pages this path sweeps, in sweep order.

        Any upfront work (index probes, CM rewrites, descent charges)
        happens here, once, when the sweep starts.
        """
        raise NotImplementedError

    def project_batches(
        self,
        context: ExecutionContext,
        batch_size: int,
        run_reads: bool,
        columns: Sequence[str],
    ) -> Iterator[RowBatch]:
        """Fused scan→filter→project batch production.

        Drives the sweep kernel with the projection folded into the compiled
        per-page kernel (see
        :meth:`~repro.engine.predicates.PredicateSet.batch_kernel`), so a
        ProjectNode sitting directly on a scan materialises no intermediate
        full-width batch.  Only for full drains with read-ahead (no demand,
        ``run_reads=True``): exact delivery locates rows by identity, which
        projected copies no longer have.
        """
        yield from self._sweep(
            self._target_pages(context),
            context,
            batch_size,
            None,
            run_reads,
            project=tuple(columns),
        )

    def output_ordering(self) -> tuple[tuple[str, bool], ...]:
        """Columns the emitted stream is sorted by, as ``(column, ascending)``.

        Every sweep-style path (sequential, sorted-index/bitmap, clustered,
        CM) visits heap pages in ascending page order, so its output carries
        the heap's :meth:`~repro.engine.table.Table.stream_ordering` -- the
        clustered attribute, while no unsorted tail has grown.  The planner
        uses this to plan ``ORDER BY`` sorts away (and
        :class:`PipelinedIndexScan` overrides it: that path emits in
        index-probe order, not heap order).
        """
        return self.table.stream_ordering()

    # -- the shared scan kernel -------------------------------------------------

    def _visibility(
        self, context: ExecutionContext
    ) -> Callable[[Mapping[str, Any]], bool] | None:
        """The MVCC row filter for this sweep, or ``None`` when not needed.

        ``None`` -- the pre-MVCC fast path -- whenever the context carries no
        snapshot, so existing workloads pay nothing (``Database.run_query``
        only attaches a snapshot once a table holds versioned rows; the
        scheduler always attaches one, because versions may first appear
        *mid-scan* under concurrent writers, and unversioned rows pass the
        filter trivially).  The kernels apply the filter *after* charging the
        row as examined and *before* the predicates: an invisible version
        costs exactly what a non-matching row costs, at every batch size.
        """
        snapshot = context.snapshot
        if snapshot is None:
            return None
        return snapshot.visible

    def _sweep(
        self,
        pages: Iterable[int],
        context: ExecutionContext,
        batch_size: int,
        demand: int | None,
        run_reads: bool,
        project: tuple[str, ...] | None = None,
    ) -> Iterator[RowBatch]:
        """Page sweep + compiled residual filter + counter charging.

        Every live tuple of a visited page is charged as examined and
        filtered with the full predicate set by one compiled filter(+project)
        kernel pass (``project`` makes each output a fresh dict of just those
        columns; predicates still see the full rows).  Two delivery modes:

        * **read-ahead** (no demand, ``run_reads=True``): pages are read in
          chunks that round ``batch_size`` up to whole pages, each chunk of
          consecutive pages charged through one
          :meth:`~repro.storage.heap.HeapFile.read_pages` run, and batches
          are page-aligned;
        * **exact** (a demand, or ``run_reads=False``): one page at a time; a
          batch holds at most ``batch_size`` rows and never more than the
          remaining demand, and is delivered as soon as it is full, the
          demand is met, or (``run_reads=False``) the page has no more
          matches -- before any further I/O.  Rows are examined only through
          the last row delivered; the rest of the page is examined when the
          consumer pulls again.  CPU is charged per page, or on close through
          the last row delivered, exactly as a row-at-a-time sweep charges.
        """
        heap = self.table.heap
        counters = context.counters
        visible = self._visibility(context)
        if self.predicates or project is not None:
            kernel = self.predicates.batch_kernel(project)
        else:
            kernel = None
        exact = demand is not None or not run_reads
        if exact:
            pages_per_chunk = 1
        else:
            pages_per_chunk = max(1, -(-batch_size // max(1, heap.tups_per_page)))
        remaining = demand
        page_numbers = iter(pages)
        batch = RowBatch()
        examined = 0  # rows examined whose CPU is not charged yet
        try:
            while True:
                chunk = list(islice(page_numbers, pages_per_chunk))
                if not chunk:
                    break
                for page in heap.read_pages(chunk):
                    counters.pages_visited += 1
                    live = [row for row in page.slots if row is not None]
                    if not exact:
                        counters.rows_examined += len(live)
                        examined += len(live)
                    rows = live if visible is None else [r for r in live if visible(r)]
                    matched = rows if kernel is None else kernel(rows)
                    if not exact:
                        batch.extend(matched)
                        continue
                    seen = 0  # rows of this page charged as examined
                    start = 0
                    while start < len(matched):
                        room = batch_size - len(batch)
                        if remaining is not None and remaining < room:
                            room = remaining
                        end = min(start + room, len(matched))
                        batch.extend(matched[start:end])
                        if remaining is not None:
                            remaining -= end - start
                        start = end
                        if len(batch) < batch_size and remaining != 0 and run_reads:
                            break
                        through = (
                            end
                            if matched is live
                            else _position_after(live, matched[end - 1], seen)
                        )
                        counters.rows_examined += through - seen
                        examined += through - seen
                        seen = through
                        yield batch
                        batch = RowBatch()
                        if remaining == 0:
                            return
                    counters.rows_examined += len(live) - seen
                    examined += len(live) - seen
                if examined:
                    self._charge_cpu(examined)
                    examined = 0
                if len(batch) >= batch_size or (batch and not run_reads):
                    yield batch
                    batch = RowBatch()
        finally:
            if examined:
                self._charge_cpu(examined)
        if batch:
            yield batch

    def _charge_cpu(self, rows_examined: int) -> None:
        self.table.buffer_pool.disk.charge_cpu_tuples(rows_examined)


def _position_after(rows: list[Any], target: Any, start: int) -> int:
    """One past the index of ``target`` in ``rows``, by identity, searching
    from ``start`` (kernel outputs are the page's own row objects)."""
    hits = map(is_, islice(rows, start, None), repeat(target))
    return next(compress(count(start + 1), hits))


class SeqScan(AccessPath):
    """Full sequential scan with a residual filter."""

    name = "seq_scan"

    def _target_pages(self, context: ExecutionContext) -> Iterable[int]:
        return range(self.table.heap.num_pages)


def _lookup_values_for_index(
    index: SecondaryIndex, predicates: PredicateSet
) -> tuple[list[Any], list[tuple[Any, Any]]]:
    """Values and ranges an index scan should probe for ``predicates``.

    Returns ``(point_keys, ranges)``.  For composite indexes only equality
    predicates over every attribute produce point keys; otherwise the scan
    falls back to a range over the first (prefix) attribute -- the limitation
    Experiment 5 highlights for B+Tree(ra, dec).
    """
    attrs = index.attributes
    # Most selective predicate per attribute: an inner-probe equality beats a
    # local range filter on the same column.
    predicates_by_attr = predicates.best_by_attribute()
    if all(
        isinstance(predicates_by_attr.get(attr), (Equals, InSet)) for attr in attrs
    ):
        from itertools import product

        value_lists = [list(predicates_by_attr[attr].lookup_values) for attr in attrs]
        keys = [
            combo[0] if len(attrs) == 1 else tuple(combo)
            for combo in product(*value_lists)
        ]
        return keys, []
    prefix = attrs[0]
    predicate = predicates_by_attr.get(prefix)
    if predicate is None:
        raise ValueError(
            f"index on {attrs} is not applicable: no predicate on prefix {prefix!r}"
        )
    if isinstance(predicate, (Equals, InSet)):
        if len(attrs) == 1:
            return list(predicate.lookup_values), []
        return [], [(value, value) for value in predicate.lookup_values]
    if isinstance(predicate, Between):
        return [], [(predicate.low, predicate.high)]
    raise ValueError(f"unsupported predicate {predicate!r} for an index scan")


def _probe_index(
    index: SecondaryIndex, predicates: PredicateSet
) -> tuple[list[RID], int]:
    """All RIDs matching the indexable predicates, plus the lookup count."""
    keys, ranges = _lookup_values_for_index(index, predicates)
    rids: list[RID] = []
    lookups = 0
    for key in keys:
        rids.extend(index.probe(key))
        lookups += 1
    for low, high in ranges:
        lookups += 1
        # Composite keys can only use their leading attribute for a range
        # predicate; the remaining attributes are residual filters.
        rids.extend(index.probe_prefix_range(low, high))
    return rids, lookups


class SortedIndexScan(AccessPath):
    """Bitmap heap scan driven by a secondary B+Tree (Section 3.2)."""

    name = "sorted_index_scan"

    def __init__(
        self, table: Table, index: SecondaryIndex, predicates: PredicateSet
    ) -> None:
        super().__init__(table, predicates)
        self.index = index

    def _target_pages(self, context: ExecutionContext) -> Iterable[int]:
        rids, lookups = _probe_index(self.index, self.predicates)
        context.counters.lookups += lookups
        bitmap = PageBitmap(rid.page_no for rid in rids)
        return bitmap.pages()


class PipelinedIndexScan(AccessPath):
    """Per-tuple random fetches in index order (Section 3.1)."""

    name = "pipelined_index_scan"

    def output_ordering(self) -> tuple[tuple[str, bool], ...]:
        """Rows come back in index-probe order, not heap (clustered) order."""
        return ()

    def __init__(
        self, table: Table, index: SecondaryIndex, predicates: PredicateSet
    ) -> None:
        super().__init__(table, predicates)
        self.index = index

    def _stream_batches(
        self,
        context: ExecutionContext,
        batch_size: int,
        demand: int | None,
        run_reads: bool,
    ) -> Iterator[RowBatch]:
        # Per-tuple random fetches have no page runs to exploit; batching only
        # amortises delivery and counter charging.  Every fetch is I/O, so
        # beneath an interleaving consumer (run_reads=False) each match
        # leaves before the next fetch, and a demand stops on its last match.
        rids, lookups = _probe_index(self.index, self.predicates)
        counters = context.counters
        counters.lookups += lookups
        heap = self.table.heap
        matches = self.predicates.matches
        visible = self._visibility(context)
        visited_pages: set[int] = set()
        remaining = demand
        batch = RowBatch()
        examined = 0
        try:
            for rid in rids:
                row = heap.fetch(rid)
                if rid.page_no not in visited_pages:
                    visited_pages.add(rid.page_no)
                    counters.pages_visited += 1
                if row is None:
                    continue
                examined += 1
                if (visible is None or visible(row)) and matches(row):
                    batch.append(row)
                    if remaining is not None:
                        remaining -= 1
                    if len(batch) >= batch_size or remaining == 0 or not run_reads:
                        counters.rows_examined += examined
                        self._charge_cpu(examined)
                        examined = 0
                        yield batch
                        batch = RowBatch()
                        if remaining == 0:
                            return
        finally:
            if examined:
                counters.rows_examined += examined
                self._charge_cpu(examined)
        if batch:
            yield batch

    def project_batches(
        self,
        context: ExecutionContext,
        batch_size: int,
        run_reads: bool,
        columns: Sequence[str],
    ) -> Iterator[RowBatch]:
        """Probe-order fetches have no page sweep to fuse the projection
        into: project each delivered batch with one comprehension instead
        (same accounting, still no full-width batch handed upward)."""
        columns = tuple(columns)
        for batch in self._stream_batches(context, batch_size, None, run_reads):
            yield RowBatch(
                [{column: row[column] for column in columns} for row in batch]
            )


class ClusteredIndexScan(AccessPath):
    """A range/equality scan on the clustered attribute itself."""

    name = "clustered_index_scan"

    def _target_pages(self, context: ExecutionContext) -> Iterable[int]:
        clustered_attr = self.table.clustered_attribute
        index = self.table.clustered_index
        if clustered_attr is None or index is None:
            raise RuntimeError("table is not clustered")
        predicate = self.predicates.on_attribute(clustered_attr)
        if predicate is None:
            raise ValueError(f"no predicate on the clustered attribute {clustered_attr!r}")
        pages: set[int] = set()
        if isinstance(predicate, Between):
            pages.update(index.pages_for_range(predicate.low, predicate.high))
            context.counters.lookups += 1
        else:
            for value in predicate.lookup_values or ():
                pages.update(index.pages_for_value(value))
                context.counters.lookups += 1
        pages.update(self.table.tail_pages())
        return sorted(pages)


class CorrelationMapScan(AccessPath):
    """The CM-driven plan (Section 5.2 and the Figure 4 walk-through)."""

    name = "cm_scan"

    def __init__(self, table: Table, cm: CorrelationMap, predicates: PredicateSet) -> None:
        super().__init__(table, predicates)
        self.cm = cm
        self.uses_buckets = table.cm_uses_buckets(cm.name)

    def _target_pages(self, context: ExecutionContext) -> Iterable[int]:
        clustered_column = BUCKET_COLUMN if self.uses_buckets else None
        rewriter = QueryRewriter(self.cm, clustered_column=clustered_column)
        constraints = self.predicates.constraints()
        rewritten = rewriter.rewrite(constraints)
        if context.report_rewritten_sql:
            context.rewritten_sql = rewritten.to_sql(self.table.name)
        context.counters.lookups += len(rewritten.clustered_values)
        if rewritten.is_empty:
            return ()
        pages = self.table.pages_for_targets(
            rewritten.clustered_values, uses_buckets=self.uses_buckets
        )
        # One clustered-index descent per contiguous group of targets.
        if self.table.clustered_index is not None:
            self.table.clustered_index.charge_descents(PageBitmap(pages).num_runs)
        return pages


#: Inner-path strategies a join planner may select (builder ``strategy=``).
INNER_STRATEGIES = (
    "seq_scan",
    "clustered_index_scan",
    "sorted_index_scan",
    "cm_scan",
)


class InnerPathBuilder:
    """Builds, per outer row, a fresh inner access path with join keys bound.

    A join operator calls :meth:`bind` once per outer row; the builder turns
    the outer row's join-key values into ``Equals`` predicates, appends them
    to the joined table's local predicates, and instantiates the access path
    the planner selected:

    * ``seq_scan`` -- a full inner sweep per probe (nested-loop join); the
      bound equalities act purely as residual filters;
    * ``clustered_index_scan`` -- the inner table is clustered on the join
      key, so each probe is a clustered-index range lookup;
    * ``sorted_index_scan`` -- probe a secondary B+Tree on the join key and
      sweep the matching pages in order;
    * ``cm_scan`` -- look the join value up in a correlation map and sweep
      the co-occurring clustered buckets (the CM-guided inner path; cheap
      when the join key correlates with the inner clustered key).

    Because the bound equalities are ordinary predicates, every strategy
    verifies the join condition itself -- false positives from a CM's bucket
    granularity are dropped by the shared residual filter, exactly as in the
    single-table case.
    """

    def __init__(
        self,
        table: Table,
        join_on: Sequence[tuple[str, str]],
        predicates: PredicateSet,
        strategy: str,
        *,
        index: SecondaryIndex | None = None,
        cm: CorrelationMap | None = None,
    ) -> None:
        if strategy not in INNER_STRATEGIES:
            raise ValueError(f"unknown inner strategy {strategy!r}")
        if strategy == "sorted_index_scan" and index is None:
            raise ValueError("sorted_index_scan inner paths need an index")
        if strategy == "cm_scan" and cm is None:
            raise ValueError("cm_scan inner paths need a correlation map")
        self.table = table
        self.join_on = tuple(join_on)
        self.predicates = predicates
        self.strategy = strategy
        self.index = index
        self.cm = cm

    def bind(self, outer_row: Mapping[str, Any]) -> AccessPath:
        """The inner access path for one outer row's join-key values."""
        bound = tuple(
            Equals(inner_column, outer_row[outer_column])
            for outer_column, inner_column in self.join_on
        )
        predicates = PredicateSet(tuple(self.predicates) + bound)
        if self.strategy == "clustered_index_scan":
            return ClusteredIndexScan(self.table, predicates)
        if self.strategy == "sorted_index_scan":
            assert self.index is not None
            return SortedIndexScan(self.table, self.index, predicates)
        if self.strategy == "cm_scan":
            assert self.cm is not None
            return CorrelationMapScan(self.table, self.cm, predicates)
        return SeqScan(self.table, predicates)

    def describe(self) -> str:
        keys = ", ".join(inner for _outer, inner in self.join_on)
        if self.strategy == "clustered_index_scan":
            via = f"clustered({self.table.clustered_attribute})"
        elif self.strategy == "sorted_index_scan":
            assert self.index is not None
            via = self.index.name
        elif self.strategy == "cm_scan":
            assert self.cm is not None
            via = self.cm.name
        else:
            via = "seq"
        return f"{self.table.name}({keys}) via {via}"
