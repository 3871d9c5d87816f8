"""Cost-based planning: physical operator trees for scans, joins and more.

The planner turns a declarative :class:`~repro.engine.query.Query` into an
executable tree of :class:`~repro.engine.executor.PlanNode` operators and
costs every candidate tree bottom-up from reservoir-sample statistics --
plan enumeration performs **zero heap page reads**.

For single-table queries the planner enumerates the applicable access paths
-- sequential scan, sorted secondary-index scan, clustered-index scan and
correlation-map scan -- estimates each with the correlation-aware cost model
of Section 4, and picks the cheapest.  Selection is LIMIT-aware: each
candidate's cost is split into an upfront part (index descents) and a
streaming part (the page sweep early termination cuts short), and candidates
are costed for ``min(limit, estimated_result_rows)`` output rows.

For multi-table queries the planner enumerates left-deep join orders over
the query's equi-join graph.  Each order starts from the cheapest access
path of its driving table and adds one pipelined join step per remaining
table; every step considers a naive nested-loop inner (sequential rescan),
every applicable index-nested-loop inner -- clustered index, secondary
B+Tree, or correlation map -- plus the set-at-a-time operators that cover
the unindexed case in O(N + M) pages: a streaming hash join (building the
sampled-smaller input's hash table) and a sort-merge join (merging for free
when an input already streams in join-key order, spilling to an explicit
sort charged from sampled row counts otherwise).  The CM inner path is the
paper's central idea applied across tables: when the join key is correlated
with the inner table's clustered key, each probe resolves through the tiny
memory-resident CM into a couple of clustered buckets instead of a B+Tree
descent per matching tuple.  Join cardinalities come from the tables'
reservoir samples (:func:`repro.core.statistics.join_fanout`).

On top of the scan/join input tree the planner stacks the pipeline
decorators of :mod:`repro.engine.plan`, bottom-up: GroupBy/Aggregate, then
Sort -- fused with a LIMIT into a bounded k-heap TopK -- then Limit and
Project.  Two ordering-aware rules matter:

* **free ORDER BY**: when the chosen input already streams in the requested
  order (any sweep path over a table clustered on the sort column, a merge
  join on it, probe/hash chains that preserve the driver's order), the Sort
  node is planned away entirely and the LIMIT keeps terminating the scan
  early;
* **blocking awareness**: a Sort/TopK/Aggregate consumes its whole input,
  so the LIMIT is *not* pushed into the scan/join costing beneath one --
  exactly as a hash build of the outer input already blocked the stream in
  the join costing.

A specific access method or join strategy can also be forced, which is how
the benchmarks compare plans against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.correlation_map import CorrelationMap
    from repro.storage.disk import DiskModel

from repro.core.cost import (
    CMCostInputs,
    CostSplit,
    broadcast_cost,
    cm_lookup_cost,
    cm_lookup_cost_split,
    hash_group_cost,
    hash_join_cost,
    index_nested_loop_join_cost,
    limited_cost,
    merge_exchange_cost,
    nested_loop_join_cost,
    pipelined_lookup_cost,
    repartition_cost,
    scalar_aggregate_cost,
    scan_cost,
    sort_cost,
    sort_merge_join_cost,
    sorted_lookup_cost,
    sorted_lookup_cost_split,
    top_k_cost,
)
from repro.core.model import HardwareParameters
from repro.core.statistics import join_fanout
from repro.engine.access import (
    AccessPath,
    ClusteredIndexScan,
    CorrelationMapScan,
    InnerPathBuilder,
    PipelinedIndexScan,
    SeqScan,
    SortedIndexScan,
)
from repro.engine.executor import (
    HashJoin,
    IndexNestedLoopJoin,
    JoinOperator,
    NestedLoopJoin,
    PlanNode,
    ScanNode,
    SortMergeJoin,
)
from repro.engine.exchange import (
    BroadcastNode,
    MergeExchangeNode,
    RepartitionNode,
    _BroadcastCache,
    _RepartitionCache,
)
from repro.engine.partition import PartitionedTable, PartitionSpec
from repro.engine.plan import (
    AggregateNode,
    ExchangeNode,
    GroupByNode,
    LimitNode,
    ProjectNode,
    SortNode,
    TopKNode,
    _ordering_text,
)
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Query
from repro.engine.table import Table

#: Anything the decorator layer can estimate groups over: a plain table or a
#: partitioned one (both expose schema, cardinalities and row estimates).
AnyTable = Table | PartitionedTable

#: Names accepted by ``force=`` arguments (single-table access methods).
FORCE_METHODS = (
    "seq_scan",
    "sorted_index_scan",
    "pipelined_index_scan",
    "clustered_index_scan",
    "cm_scan",
)

#: Names accepted by ``force_join=`` arguments.
FORCE_JOIN_METHODS = (
    "nested_loop_join",
    "index_nested_loop_join",
    "hash_join",
    "sort_merge_join",
)

#: Operator class implementing each forced join strategy.
_FORCE_JOIN_OPERATORS = {
    "nested_loop_join": NestedLoopJoin,
    "index_nested_loop_join": IndexNestedLoopJoin,
    "hash_join": HashJoin,
    "sort_merge_join": SortMergeJoin,
}


@dataclass(frozen=True)
class _RawScan:
    """One applicable access path before LIMIT-aware costing.

    The raw candidates are shared between single-table planning, join-driver
    selection and the decorator layer, so the Section 4 formulas are
    evaluated exactly once per path.
    """

    path: AccessPath
    structure: str
    split: CostSplit
    unlimited_ms: float


class Planner:
    """Chooses physical plan trees for queries over one database."""

    def __init__(self, hardware: HardwareParameters) -> None:
        self.hardware = hardware

    # -- lookup-count estimation --------------------------------------------------

    def _estimate_n_lookups(
        self, table: Table, predicates: PredicateSet, attributes: Sequence[str]
    ) -> int:
        """How many distinct values an index/CM will be probed with."""
        first = attributes[0]
        predicate = predicates.on_attribute(first)
        if predicate is None:
            return 1
        if isinstance(predicate, Equals):
            return 1
        if isinstance(predicate, InSet):
            return max(1, len(predicate.values))
        if isinstance(predicate, Between):
            # Approximate the number of distinct values inside the range from
            # the attribute's cardinality, assuming a roughly uniform domain.
            # Cardinality and domain bounds come from the incrementally
            # maintained statistics -- plan enumeration never scans the heap.
            cardinality = table.attribute_cardinality(first)
            bounds = table.attribute_range(first)
            if bounds is None:
                return 1
            lo, hi = bounds
            try:
                span = float(hi) - float(lo)
                width = float(predicate.high if predicate.high is not None else hi) - float(
                    predicate.low if predicate.low is not None else lo
                )
                fraction = min(1.0, max(0.0, width / span)) if span > 0 else 1.0
            except (TypeError, ValueError):
                fraction = 0.1
            return max(1, int(round(cardinality * fraction)))
        return 1

    # -- candidate enumeration (single table) -------------------------------------

    def _raw_scan_candidates(
        self, table: Table, predicates: PredicateSet
    ) -> list[_RawScan]:
        """Every applicable access path with its Section 4 cost split."""
        profile = table.table_profile()
        full_scan = scan_cost(profile, self.hardware)
        raws = [
            _RawScan(
                path=SeqScan(table, predicates),
                structure="heap",
                split=CostSplit(0.0, full_scan),
                unlimited_ms=full_scan,
            )
        ]

        predicate_attrs = {p.attribute for p in predicates.indexable_predicates()}

        if (
            table.clustered_attribute is not None
            and table.clustered_attribute in predicate_attrs
        ):
            n = self._estimate_n_lookups(table, predicates, [table.clustered_attribute])
            corr = table.correlation_profile(table.clustered_attribute)
            raws.append(
                _RawScan(
                    path=ClusteredIndexScan(table, predicates),
                    structure=f"clustered({table.clustered_attribute})",
                    split=sorted_lookup_cost_split(n, corr, profile, self.hardware),
                    unlimited_ms=sorted_lookup_cost(n, corr, profile, self.hardware),
                )
            )

        for name, index in table.secondary_indexes.items():
            if index.attributes[0] not in predicate_attrs:
                continue
            if table.clustered_attribute is None:
                continue
            n = self._estimate_n_lookups(table, predicates, index.attributes)
            corr = table.correlation_profile(list(index.attributes))
            raws.append(
                _RawScan(
                    path=SortedIndexScan(table, index, predicates),
                    structure=name,
                    split=sorted_lookup_cost_split(n, corr, profile, self.hardware),
                    unlimited_ms=sorted_lookup_cost(n, corr, profile, self.hardware),
                )
            )

        for name, cm in table.correlation_maps.items():
            if not any(attr in predicate_attrs for attr in cm.attributes):
                continue
            n = self._estimate_cm_lookups(cm, predicates)
            inputs = CMCostInputs(
                buckets_per_lookup=max(1.0, cm.measured_c_per_u()),
                pages_per_bucket=self._pages_per_target(table, cm),
                cm_pages=cm.size_pages(),
                cm_resident=True,
            )
            raws.append(
                _RawScan(
                    path=CorrelationMapScan(table, cm, predicates),
                    structure=name,
                    split=cm_lookup_cost_split(n, inputs, profile, self.hardware),
                    unlimited_ms=cm_lookup_cost(n, inputs, profile, self.hardware),
                )
            )
        return raws

    def _scan_node(
        self, table: Table, raw: _RawScan, est_rows: float, limit: int | None
    ) -> ScanNode:
        """An executable, costed leaf for one raw candidate.

        A limit only changes the costing when it actually bites: the
        full-result formulas clamp upfront+streaming jointly, so fall back
        to them whenever every matching row will be produced.
        """
        if limit is None or est_rows < 1.0 or limit >= est_rows:
            cost = raw.unlimited_ms
        else:
            cost = limited_cost(raw.split, est_rows, limit)
        node = ScanNode(raw.path)
        node.structure = raw.structure
        node.cost_split = raw.split
        node.est_cost_ms = cost
        node.est_rows = est_rows
        node.est_pages = self._est_pages(raw.split, table)
        return node

    def _est_pages(self, split: CostSplit, table: Table) -> float:
        """Rough page estimate: the streaming cost re-read as sequential pages."""
        if self.hardware.seq_page_cost_ms <= 0:
            return float(table.num_pages)
        return min(
            float(table.num_pages), split.streaming_ms / self.hardware.seq_page_cost_ms
        )

    def _candidate_scan_plans(
        self, table: Table, predicates: PredicateSet, *, limit: int | None = None
    ) -> list[ScanNode]:
        """Bare (undecorated) scan candidates -- also the join-driver pool."""
        est_rows = table.estimate_matching_rows(predicates)
        return [
            self._scan_node(table, raw, est_rows, limit)
            for raw in self._raw_scan_candidates(table, predicates)
        ]

    def candidate_plans(
        self,
        table: Table,
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """All applicable plan trees for ``query``, costed bottom-up.

        Each candidate is a full operator tree: the access path plus the
        Aggregate/GroupBy/Sort/TopK/Limit/Project decorators the query asks
        for.  With ``limit`` given, fully streaming candidates are costed
        for producing ``min(limit, estimated_result_rows)`` rows (see
        :func:`repro.core.cost.limited_cost`); a candidate whose tree blocks
        -- an aggregate, or an ORDER BY its stream does not already satisfy
        -- is costed for the full input drain instead.
        """
        if projection is None:
            projection = query.projection
        est_rows = table.estimate_matching_rows(query.predicates)
        plans = []
        for raw in self._raw_scan_candidates(table, query.predicates):
            ordering = raw.path.output_ordering()
            sort_needed = bool(query.ordering) and not self._ordering_satisfied(
                ordering, query.ordering
            )
            blocking = query.aggregate is not None or sort_needed
            node = self._scan_node(table, raw, est_rows, None if blocking else limit)
            plans.append(
                self._decorate(
                    node,
                    query,
                    limit=limit,
                    projection=projection,
                    input_rows=est_rows,
                    input_ordering=ordering,
                    tables=[table],
                    disk=table.buffer_pool.disk,
                )
            )
        return plans

    def _estimate_cm_lookups(self, cm: CorrelationMap, predicates: PredicateSet) -> int:
        """Number of CM keys (buckets) the query's constraints touch.

        The CM is memory resident, so counting its matching keys is cheap and
        is exactly what the front-end does while rewriting the query; using it
        keeps the planner's ``n_lookups`` at bucket granularity rather than
        value granularity for range predicates over bucketed attributes.
        """
        constraints = {
            attr: constraint
            for attr, constraint in predicates.constraints().items()
            if attr in cm.attributes
        }
        if not constraints:
            return 1
        bucket_constraints = cm.key_spec.bucket_constraints(constraints)
        from repro.core.composite import key_matches

        matching = sum(1 for key in cm.keys() if key_matches(key, bucket_constraints))
        return max(1, matching)

    def _pages_per_target(self, table: Table, cm: CorrelationMap) -> float:
        """Average heap pages covered by one CM target (bucket or value)."""
        if table.cm_uses_buckets(cm.name) and table.pages_per_bucket:
            return float(table.pages_per_bucket)
        profile = table.correlation_profile(table.clustered_attribute)
        return max(1.0, profile.c_pages(table.tups_per_page))

    # -- ordering analysis ---------------------------------------------------------

    @staticmethod
    def _ordering_satisfied(
        stream_ordering: Sequence[tuple[Any, bool]],
        required: Sequence[tuple[str, bool]],
    ) -> bool:
        """Whether a stream's known ordering covers the requested ORDER BY.

        ``stream_ordering`` entries are ``(column_or_column_set, ascending)``
        -- a merge join's output is simultaneously ordered under both join
        key names, hence the set form.  The requested order must be a
        direction-matching prefix of the stream's (a stream sorted by
        ``(a, b)`` satisfies ``ORDER BY a`` because the sort is stable).
        Heaps and indexes only flow forward, so their streams carry
        ascending entries and can never satisfy a descending request; a
        merge exchange, however, re-emits whatever order its per-partition
        sorts produced, descending included.
        """
        if len(required) > len(stream_ordering):
            return False
        for (column, ascending), entry in zip(required, stream_ordering):
            columns, stream_ascending = entry
            if isinstance(columns, str):
                columns = {columns}
            if ascending != stream_ascending or column not in columns:
                return False
        return True

    def _estimate_groups(
        self, tables: Sequence[AnyTable], grouping: Sequence[str], est_input_rows: float
    ) -> float:
        """Expected distinct group count, from the reservoir samples.

        When one table owns every group column its composite-key cardinality
        is used directly; otherwise (grouping across join sides) the
        per-column cardinalities multiply, capped by the input size -- the
        textbook independence assumption.
        """
        grouping = list(grouping)
        for table in tables:
            if all(table.schema.has_column(column) for column in grouping):
                distinct = float(table.key_cardinality(grouping))
                return max(0.0, min(est_input_rows, distinct))
        product = 1.0
        for column in grouping:
            owner = next(
                (t for t in tables if t.schema.has_column(column)), None
            )
            if owner is not None:
                product *= max(1.0, float(owner.attribute_cardinality(column)))
        return max(0.0, min(est_input_rows, product))

    # -- decorator layer -----------------------------------------------------------

    def _decorate(
        self,
        node: PlanNode,
        query: Query,
        *,
        limit: int | None,
        projection: Sequence[str] | None,
        input_rows: float,
        input_ordering: Sequence[tuple[Any, bool]],
        tables: Sequence[AnyTable],
        disk: DiskModel | None,
    ) -> PlanNode:
        """Stack Aggregate/GroupBy, Sort/TopK, Limit, Project over ``node``.

        Costs accumulate bottom-up: the input tree's ``est_cost_ms`` (already
        LIMIT-aware when the pipeline streams) plus each decorator's own
        :class:`CostSplit`.  The finished root carries the whole-tree cost
        and the pipeline ``structure`` string.
        """
        total = node.est_cost_ms if node.est_cost_ms is not None else 0.0
        structure = node.structure
        est = input_rows
        ordering = input_ordering
        current = node
        hw = self.hardware

        if query.aggregate is not None:
            if query.grouping:
                groups = self._estimate_groups(tables, query.grouping, est)
                split = hash_group_cost(est, groups, hw)
                current = GroupByNode(
                    current, query.grouping, query.aggregate, disk=disk
                )
                est = groups
                structure += (
                    f" -> hash_group({', '.join(query.grouping)}: "
                    f"{query.aggregate.output_name})"
                )
            else:
                split = scalar_aggregate_cost(est, hw)
                current = AggregateNode(current, query.aggregate, disk=disk)
                est = 1.0
                structure += f" -> aggregate({query.aggregate.output_name})"
            current.est_rows = est
            current.est_pages = 0.0
            current.cost_split = split
            total += split.total_ms
            ordering = ()  # hash aggregation scrambles any input order

        limit_fused = False
        if query.ordering:
            if self._ordering_satisfied(ordering, query.ordering):
                pass  # free ORDER BY: the stream already flows in order
            elif limit is not None:
                split = top_k_cost(est, limit, hw)
                current = TopKNode(current, query.ordering, limit, disk=disk)
                est = min(est, float(limit))
                current.est_rows = est
                current.est_pages = 0.0
                current.cost_split = split
                total += split.total_ms
                structure += f" -> topk({current.describe_detail()})"
                limit_fused = True
            else:
                split = sort_cost(est, hw)
                current = SortNode(current, query.ordering, disk=disk)
                current.est_rows = est
                current.est_pages = 0.0
                current.cost_split = split
                total += split.total_ms
                structure += f" -> sort({current.describe_detail()})"

        if limit is not None and not limit_fused:
            current = LimitNode(current, limit, disk=disk)
            est = min(est, float(limit))
            current.est_rows = est
            current.est_pages = 0.0

        if projection is not None:
            current = ProjectNode(current, projection, disk=disk)
            current.est_rows = est
            current.est_pages = 0.0

        current.est_cost_ms = total
        current.structure = structure
        return current

    # -- selection (single table) ---------------------------------------------------

    def choose(
        self,
        table: Table,
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Pick the cheapest applicable plan tree (or the forced one).

        ``limit``/``projection`` are the effective execution values; pass
        them so the tree's Limit/Project nodes and the LIMIT-aware costing
        match what the execution will run.
        """
        if force is not None and force not in FORCE_METHODS:
            raise ValueError(f"unknown access method {force!r}")
        if projection is None:
            projection = query.projection
        if force == "pipelined_index_scan":
            node = self._pipelined_plan(table, query.predicates)
            if node is None:
                raise ValueError("no secondary index available for a pipelined scan")
            return self._decorate(
                node,
                query,
                limit=limit,
                projection=projection,
                input_rows=node.est_rows or 0.0,
                input_ordering=node.path.output_ordering(),
                tables=[table],
                disk=table.buffer_pool.disk,
            )
        plans = self.candidate_plans(table, query, limit=limit, projection=projection)
        if force is not None:
            matching = [plan for plan in plans if plan.method == force]
            if not matching:
                raise ValueError(f"no applicable plan for forced method {force!r}")
            return min(matching, key=lambda plan: plan.estimated_cost_ms)
        return min(plans, key=self.plan_rank)

    def _pipelined_plan(self, table: Table, predicates: PredicateSet) -> ScanNode | None:
        """The pipelined variant of the cheapest applicable sorted-index plan.

        Pipelined scans are never chosen by cost (the paper's point is how
        badly they do), so they are synthesized on demand for ``force=``
        callers -- including as a join's driving path.  Costed per Section
        3.1; fully streaming, so the split has no upfront part.
        """
        for raw in self._raw_scan_candidates(table, predicates):
            if isinstance(raw.path, SortedIndexScan):
                profile = table.table_profile()
                corr = table.correlation_profile(list(raw.path.index.attributes))
                n = self._estimate_n_lookups(table, predicates, raw.path.index.attributes)
                cost = pipelined_lookup_cost(n, corr, profile, self.hardware)
                node = ScanNode(
                    PipelinedIndexScan(table, raw.path.index, predicates)
                )
                node.structure = raw.structure
                node.cost_split = CostSplit(0.0, cost)
                node.est_cost_ms = cost
                node.est_rows = table.estimate_matching_rows(predicates)
                return node
        return None

    # -- selection (partitioned table) ------------------------------------------------

    def _partition_scan(
        self, partition: Table, predicates: PredicateSet, force: str | None
    ) -> ScanNode:
        """The cheapest (or forced) bare scan over one partition child."""
        if force == "pipelined_index_scan":
            node = self._pipelined_plan(partition, predicates)
            if node is None:
                raise ValueError("no secondary index available for a pipelined scan")
            return node
        candidates = self._candidate_scan_plans(partition, predicates)
        if force is not None:
            candidates = [plan for plan in candidates if plan.method == force]
            if not candidates:
                raise ValueError(f"no applicable plan for forced method {force!r}")
        return min(candidates, key=self.plan_rank)

    def choose_partitioned(
        self,
        table: PartitionedTable,
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Prune partitions statically, then fan one scan subtree per survivor.

        Pruning consults only the partition spec and the predicate set (see
        :meth:`repro.engine.partition.PartitionSpec.prune`) -- zero heap
        reads, like the rest of plan enumeration.  Each surviving partition
        gets its own cheapest (or forced) access path, chosen from that
        partition's private statistics; the :class:`ExchangeNode` then
        concatenates the children in ascending partition order and the usual
        decorator stack goes on top, charged to the shared device.

        Under range partitioning the concatenation preserves an ORDER BY on
        the partition key for free whenever every child already streams in
        key order (partition *k*'s values all precede partition *k+1*'s).
        """
        if force is not None and force not in FORCE_METHODS:
            raise ValueError(f"unknown access method {force!r}")
        if projection is None:
            projection = query.projection
        spec = table.spec
        survivors = table.prune(query.predicates)
        children: list[PlanNode] = [
            self._partition_scan(table.partitions[index], query.predicates, force)
            for index in survivors
        ]
        key_order = ((spec.key, True),)
        ordering: Sequence[tuple[Any, bool]] = ()
        if spec.method == "range" and all(
            self._ordering_satisfied(child.path.output_ordering(), key_order)
            for child in children
        ):
            ordering = key_order
        child_structures = sorted({child.structure or "?" for child in children})
        body = (
            f"{spec.describe()}: {len(children)}/{spec.num_partitions} "
            f"scanned via {', '.join(child_structures) if child_structures else 'none'}"
        )
        devices = [table.devices[index] for index in survivors]
        exchange, input_ordering = self._assemble_exchange(
            children,
            devices,
            devices,
            spec=spec,
            shared_disk=table.disk,
            query=query,
            limit=limit,
            concat_ordering=ordering,
            structure_body=body,
        )
        return self._decorate(
            exchange,
            query,
            limit=limit,
            projection=projection,
            input_rows=exchange.est_rows or 0.0,
            input_ordering=input_ordering,
            tables=[table],
            disk=table.disk,
        )

    def _assemble_exchange(
        self,
        children: list[PlanNode],
        device_entries: Sequence["DiskModel | tuple[DiskModel, ...]"],
        sort_devices: Sequence["DiskModel"],
        *,
        spec: PartitionSpec,
        shared_disk: "DiskModel",
        query: Query,
        limit: int | None,
        concat_ordering: Sequence[tuple[Any, bool]],
        structure_body: str,
    ) -> tuple[ExchangeNode, Sequence[tuple[Any, bool]]]:
        """The exchange over per-partition subtrees: plain concat or k-way merge.

        When the query orders its rows, the concatenation does not already
        satisfy the ORDER BY, and at least two partitions survive, each child
        is wrapped in a per-partition Sort (or TopK when a LIMIT bounds the
        result -- partitioned ORDER BY + LIMIT becomes per-partition top-k)
        charged to that partition's private device, and a
        :class:`MergeExchangeNode` heap-merges the ordered streams instead of
        sorting the concatenation.  The returned ordering is what the
        exchange's output stream provides, for :meth:`_decorate` (a merge's
        output satisfies the ORDER BY outright, descending included).
        """
        hw = self.hardware
        est_rows = sum(child.est_rows or 0.0 for child in children)
        est_pages = sum(child.est_pages or 0.0 for child in children)
        base_cost = sum(child.est_cost_ms or 0.0 for child in children)
        want_merge = (
            bool(query.ordering)
            and query.aggregate is None
            and len(children) >= 2
            and not self._ordering_satisfied(concat_ordering, query.ordering)
        )
        if not want_merge:
            exchange = ExchangeNode(
                children,
                devices=device_entries,
                partition_key=spec.key,
                partition_method=spec.method,
                partitions_total=spec.num_partitions,
            )
            exchange.est_rows = est_rows
            exchange.est_pages = est_pages
            exchange.est_cost_ms = base_cost
            exchange.structure = f"exchange[{structure_body}]"
            return exchange, concat_ordering

        wrapped: list[PlanNode] = []
        extra_ms = 0.0
        out_rows = 0.0
        for child, device in zip(children, sort_devices):
            rows = child.est_rows or 0.0
            node: PlanNode
            if limit is not None:
                split = top_k_cost(rows, limit, hw)
                node = TopKNode(child, query.ordering, limit, disk=device)
                node.est_rows = min(rows, float(limit))
            else:
                split = sort_cost(rows, hw)
                node = SortNode(child, query.ordering, disk=device)
                node.est_rows = rows
            node.est_pages = 0.0
            node.cost_split = split
            extra_ms += split.total_ms
            out_rows += node.est_rows
            wrapped.append(node)
        merge_split = merge_exchange_cost(out_rows, len(wrapped), hw)
        merge = MergeExchangeNode(
            wrapped,
            devices=device_entries,
            partition_key=spec.key,
            partition_method=spec.method,
            partitions_total=spec.num_partitions,
            ordering=query.ordering,
            disk=shared_disk,
        )
        merge.est_rows = out_rows
        merge.est_pages = est_pages
        merge.cost_split = merge_split
        merge.est_cost_ms = base_cost + extra_ms + merge_split.total_ms
        kind = "topk" if limit is not None else "sort"
        merge.structure = (
            f"merge_exchange[{_ordering_text(tuple(query.ordering))}; "
            f"{structure_body}; per-partition {kind}]"
        )
        return merge, tuple(query.ordering)

    def candidate_partitioned_plans(
        self,
        table: PartitionedTable,
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """Every distinct partitioned plan shape, for ``Database.explain``.

        The unforced choice (which may mix access methods across partitions)
        comes first, followed by each uniformly-forced shape that applies;
        structurally identical trees are listed once.
        """
        plans = [
            self.choose_partitioned(table, query, limit=limit, projection=projection)
        ]
        seen = {plans[0].structure}
        for method in FORCE_METHODS:
            try:
                plan = self.choose_partitioned(
                    table, query, force=method, limit=limit, projection=projection
                )
            except ValueError:
                continue
            if plan.structure not in seen:
                seen.add(plan.structure)
                plans.append(plan)
        return plans

    # -- selection (partition-wise joins) ----------------------------------------------

    def _partition_join_layout(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        *,
        enable_repartition: bool = True,
    ) -> "_PartitionJoinLayout":
        """Classify a two-table join touching partitioned storage.

        The partitioned side is the *outer* of every per-partition subtree
        (the driving side when both are partitioned); static pruning runs on
        the outer side's local predicates only, so result rows match the
        flat join row for row.  Three exchange shapes can apply:

        * ``co_partitioned`` -- both sides partitioned with byte-identical
          layouts (:meth:`PartitionSpec.layout_compatible_with`) and the two
          partition keys equated in the join condition: partition *k* joins
          partition *k*, any per-partition operator applies.
        * ``broadcast`` -- a flat build side replicated to every partition's
          hash join through a shared cache, scanned once.
        * ``repartition`` -- the build side (flat, or partitioned with an
          incompatible layout) hash-split into the outer layout by the join
          column equated with the outer partition key; gated by
          ``enable_repartition`` (``Database.enable_repartition``).
        """
        names = list(query.tables)
        if len(names) != 2:
            raise ValueError(
                "joins over partitioned tables support exactly two tables; "
                f"{query.describe()!r} joins {len(names)}"
            )
        edges = self._join_edges(tables, query)
        driving, other = names
        outer_name = (
            driving
            if isinstance(tables[driving], PartitionedTable)
            else other
        )
        inner_name = other if outer_name == driving else driving
        pairs: list[tuple[str, str]] = []
        for a, ca, b, cb in edges:
            if a == outer_name and b == inner_name:
                pairs.append((ca, cb))
            elif a == inner_name and b == outer_name:
                pairs.append((cb, ca))
        if not pairs:
            raise ValueError(
                f"join graph of {query.describe()!r} is not connected: every "
                "joined table needs an equality linking it to the chain"
            )
        outer = tables[outer_name]
        assert isinstance(outer, PartitionedTable)
        inner = tables[inner_name]
        spec = outer.spec
        outer_local = self._local_predicates(query, outer_name)
        inner_local = self._local_predicates(query, inner_name)
        shapes: list[str] = []
        if (
            isinstance(inner, PartitionedTable)
            and spec.layout_compatible_with(inner.spec)
            and (spec.key, inner.spec.key) in pairs
        ):
            shapes.append("co_partitioned")
        if isinstance(inner, Table):
            shapes.append("broadcast")
        route_column = next(
            (ic for oc, ic in pairs if oc == spec.key), None
        )
        if (
            route_column is not None
            and "co_partitioned" not in shapes
            and enable_repartition
        ):
            shapes.append("repartition")
        if not shapes:
            if route_column is not None and not enable_repartition:
                raise ValueError(
                    f"cannot join partitioned table {outer_name!r} with "
                    f"{inner_name!r}: the partition layouts are incompatible "
                    "and repartitioning is disabled "
                    "(Database.enable_repartition)"
                )
            raise ValueError(
                f"cannot join partitioned table {outer_name!r} with "
                f"{inner_name!r}: the join condition equates neither "
                f"compatible partition keys nor the partition key "
                f"{spec.key!r}, and the build side is not a flat table"
            )
        return _PartitionJoinLayout(
            outer_name=outer_name,
            inner_name=inner_name,
            outer=outer,
            inner=inner,
            pairs=pairs,
            outer_local=outer_local,
            inner_local=inner_local,
            survivors=tuple(outer.prune(outer_local)),
            shapes=tuple(shapes),
        )

    @staticmethod
    def _filter_join_candidates(
        candidates: list["_StepCandidate"], force_join: str | None
    ) -> list["_StepCandidate"]:
        """The subset of step candidates a forced join method permits."""
        if force_join is None:
            return candidates
        if force_join == "nested_loop_join":
            return [c for c in candidates if c.strategy == "seq_scan"]
        if force_join == "index_nested_loop_join":
            return [
                c
                for c in candidates
                if c.kind == "probe" and c.strategy != "seq_scan"
            ]
        if force_join == "hash_join":
            return [c for c in candidates if c.kind == "hash"]
        if force_join == "sort_merge_join":
            return [c for c in candidates if c.kind == "merge"]
        raise ValueError(f"unknown join method {force_join!r}")

    def _partition_join_plan(
        self,
        layout: "_PartitionJoinLayout",
        shape: str,
        query: Query,
        *,
        force: str | None,
        force_join: str | None,
        limit: int | None,
        projection: Sequence[str] | None,
    ) -> PlanNode:
        """One decorated partition-wise join plan of the requested shape."""
        outer, inner = layout.outer, layout.inner
        spec = outer.spec
        hw = self.hardware
        pairs = layout.pairs
        outer_columns = [oc for oc, _ic in pairs]
        inner_columns = [ic for _oc, ic in pairs]
        key_order = ((spec.key, True),)

        if shape in ("broadcast", "repartition") and force_join not in (
            None,
            "hash_join",
        ):
            raise ValueError(
                f"the {shape} shape only supports hash_join, not {force_join!r}"
            )

        # The single fill plan (broadcast source, repartition source) plus
        # the shape-level cost paid once rather than per partition.
        fill: PlanNode | None = None
        extra_ms = 0.0
        broadcast_cache: "_BroadcastCache | None" = None
        repartition_cache: "_RepartitionCache | None" = None
        route_column: str | None = None
        est_fill_rows = 0.0
        if shape == "broadcast":
            assert isinstance(inner, Table)
            fill = min(
                self._candidate_scan_plans(inner, layout.inner_local),
                key=self.plan_rank,
            )
            est_fill_rows = fill.est_rows or 0.0
            extra_ms = broadcast_cost(
                fill.est_cost_ms or 0.0,
                est_fill_rows,
                max(1, len(layout.survivors)),
                hw,
            ).total_ms
            broadcast_cache = _BroadcastCache()
        elif shape == "repartition":
            route_column = next(ic for oc, ic in pairs if oc == spec.key)
            if isinstance(inner, PartitionedTable):
                inner_survivors = inner.prune(layout.inner_local)
                inner_children = [
                    self._partition_scan(
                        inner.partitions[index], layout.inner_local, None
                    )
                    for index in inner_survivors
                ]
                fill = ExchangeNode(
                    inner_children,
                    devices=[inner.devices[index] for index in inner_survivors],
                    partition_key=inner.spec.key,
                    partition_method=inner.spec.method,
                    partitions_total=inner.spec.num_partitions,
                )
                fill.est_rows = sum(c.est_rows or 0.0 for c in inner_children)
                fill.est_pages = sum(c.est_pages or 0.0 for c in inner_children)
                fill.est_cost_ms = sum(
                    c.est_cost_ms or 0.0 for c in inner_children
                )
            else:
                fill = min(
                    self._candidate_scan_plans(inner, layout.inner_local),
                    key=self.plan_rank,
                )
            est_fill_rows = fill.est_rows or 0.0
            extra_ms = repartition_cost(
                fill.est_cost_ms or 0.0,
                est_fill_rows,
                est_fill_rows / max(1, inner.tups_per_page),
                hw,
            ).total_ms
            repartition_cache = _RepartitionCache()

        selectivity = 1.0
        if layout.inner_local:
            selectivity = inner.statistics.match_fraction(layout.inner_local)
        children: list[PlanNode] = []
        device_entries: list["DiskModel | tuple[DiskModel, ...]"] = []
        sort_devices: list["DiskModel"] = []
        concat_ordered = spec.method == "range"
        for position, index in enumerate(layout.survivors):
            outer_scan = self._partition_scan(
                outer.partitions[index], layout.outer_local, force
            )
            est_rows = outer_scan.est_rows or 0.0
            outer_key_card = float(
                outer.partitions[index].key_cardinality(outer_columns)
            )
            operator: JoinOperator
            if shape == "co_partitioned":
                assert isinstance(inner, PartitionedTable)
                inner_child = inner.partitions[index]
                child_selectivity = (
                    inner_child.statistics.match_fraction(layout.inner_local)
                    if layout.inner_local
                    else 1.0
                )
                step = _JoinStep(
                    table=inner_child,
                    join_on=list(pairs),
                    local=layout.inner_local,
                    options=self._inner_strategy_options(
                        inner_child, inner_columns
                    ),
                    fanout=join_fanout(
                        inner_child.num_rows,
                        outer_key_card,
                        float(inner_child.key_cardinality(inner_columns)),
                    ),
                    selectivity=child_selectivity,
                    est_inner_rows=inner_child.num_rows * child_selectivity,
                    inner_sorted=(
                        len(inner_columns) == 1
                        and inner_child.clustered_attribute == inner_columns[0]
                        and not inner_child.tail_pages()
                    ),
                )
                outer_sorted = len(pairs) == 1 and self._ordering_satisfied(
                    outer_scan.path.output_ordering(), ((pairs[0][0], True),)
                )
                candidates = self._filter_join_candidates(
                    self._step_candidates(step, est_rows, outer_sorted),
                    force_join,
                )
                if not candidates:
                    raise ValueError(
                        "no applicable plan for forced join method "
                        f"{force_join!r}"
                    )
                chosen = min(candidates, key=lambda c: c.split.total_ms)
                rows_after = est_rows * step.fanout * step.selectivity
                operator = self._build_step_operator(
                    outer_scan, step, chosen, rows_after
                )
                split = chosen.split
                pages = float(inner_child.num_pages) if chosen.kind in (
                    "hash",
                    "merge",
                ) else 0.0
                # Probe-family steps and an inner-built hash preserve the
                # outer stream's order; a merge or an outer-built hash
                # scrambles the concatenation's partition-key order.
                if chosen.kind == "merge" or (
                    chosen.kind == "hash" and chosen.build_side == "outer"
                ):
                    concat_ordered = False
                device_entries.append(
                    (outer.devices[index], inner.devices[index])
                )
            else:
                fanout = join_fanout(
                    inner.num_rows,
                    outer_key_card,
                    float(inner.key_cardinality(inner_columns)),
                )
                rows_after = est_rows * fanout * selectivity
                if shape == "broadcast":
                    assert broadcast_cache is not None and fill is not None
                    build: PlanNode = BroadcastNode(
                        broadcast_cache,
                        cpu_disk=outer.devices[index],
                        table_name=inner.name,
                        source=fill if position == 0 else None,
                    )
                    build.est_rows = est_fill_rows
                    build.est_pages = 0.0
                    build_rows = est_fill_rows
                else:
                    assert repartition_cache is not None
                    assert fill is not None and route_column is not None
                    build = RepartitionNode(
                        repartition_cache,
                        partition_index=index,
                        spec=spec,
                        route_column=route_column,
                        table_name=inner.name,
                        cpu_disk=outer.devices[index],
                        disk=outer.disk,
                        tups_per_page=inner.tups_per_page,
                        source=fill if position == 0 else None,
                    )
                    build_rows = est_fill_rows / max(1, spec.num_partitions)
                    build.est_rows = build_rows
                    build.est_pages = 0.0
                operator = HashJoin(
                    outer_scan,
                    build,
                    pairs,
                    build_side="inner",
                    inner_label=f"{shape}({inner.name})",
                )
                split = CostSplit(
                    upfront_ms=build_rows * hw.cpu_tuple_cost_ms,
                    streaming_ms=est_rows * hw.cpu_tuple_cost_ms,
                )
                pages = 0.0
                device_entries.append(outer.devices[index])
            if concat_ordered and not self._ordering_satisfied(
                outer_scan.path.output_ordering(), key_order
            ):
                concat_ordered = False
            operator.est_rows = rows_after
            operator.cost_split = split
            operator.est_pages = (outer_scan.est_pages or 0.0) + pages
            operator.est_cost_ms = (
                (outer_scan.est_cost_ms or 0.0) + split.total_ms
            )
            operator.structure = (
                f"{outer_scan.structure} -> "
                f"{operator.name}({operator.describe_detail()})"
            )
            children.append(operator)
            sort_devices.append(outer.devices[index])

        child_structures = sorted(
            {child.structure or "?" for child in children}
        )
        shape_label = {
            "co_partitioned": f"co-partitioned with {inner.name}",
            "broadcast": f"broadcast {inner.name}",
            "repartition": f"repartition {inner.name}",
        }[shape]
        body = (
            f"{spec.describe()}: {len(children)}/{spec.num_partitions} "
            f"{shape_label} via "
            f"{', '.join(child_structures) if child_structures else 'none'}"
        )
        exchange, input_ordering = self._assemble_exchange(
            children,
            device_entries,
            sort_devices,
            spec=spec,
            shared_disk=outer.disk,
            query=query,
            limit=limit,
            concat_ordering=key_order if concat_ordered else (),
            structure_body=body,
        )
        exchange.est_cost_ms = (exchange.est_cost_ms or 0.0) + extra_ms
        return self._decorate(
            exchange,
            query,
            limit=limit,
            projection=projection,
            input_rows=exchange.est_rows or 0.0,
            input_ordering=input_ordering,
            tables=[outer, inner],
            disk=outer.disk,
        )

    def choose_partitioned_join(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        enable_repartition: bool = True,
    ) -> PlanNode:
        """The cheapest partition-wise join plan over partitioned storage.

        Every applicable exchange shape (co-partitioned, broadcast,
        repartition -- see :meth:`_partition_join_layout`) is built and
        costed; selection picks the cheapest by :meth:`plan_rank`, exactly
        as flat join planning picks among its strategy shapes.
        """
        if force is not None and force not in FORCE_METHODS:
            raise ValueError(f"unknown access method {force!r}")
        if force_join is not None and force_join not in FORCE_JOIN_METHODS:
            raise ValueError(f"unknown join method {force_join!r}")
        if projection is None:
            projection = query.projection
        layout = self._partition_join_layout(
            tables, query, enable_repartition=enable_repartition
        )
        plans: list[PlanNode] = []
        errors: list[str] = []
        for shape in layout.shapes:
            try:
                plans.append(
                    self._partition_join_plan(
                        layout,
                        shape,
                        query,
                        force=force,
                        force_join=force_join,
                        limit=limit,
                        projection=projection,
                    )
                )
            except ValueError as error:
                errors.append(str(error))
        if not plans:
            raise ValueError(
                errors[0] if errors else "no applicable partition-wise join plan"
            )
        return min(plans, key=self.plan_rank)

    def candidate_partitioned_join_plans(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        enable_repartition: bool = True,
    ) -> list[PlanNode]:
        """Every applicable partition-wise join shape, for ``Database.explain``."""
        layout = self._partition_join_layout(
            tables, query, enable_repartition=enable_repartition
        )
        plans: list[PlanNode] = []
        seen: set[str] = set()
        for shape in layout.shapes:
            try:
                plan = self._partition_join_plan(
                    layout,
                    shape,
                    query,
                    force=None,
                    force_join=None,
                    limit=limit,
                    projection=projection,
                )
            except ValueError:
                continue
            if plan.structure not in seen:
                seen.add(plan.structure)
                plans.append(plan)
        if not plans:
            raise ValueError("no applicable partition-wise join plan")
        return plans

    #: Tie-break order when estimated costs are equal (which happens when all
    #: alternatives clamp to the scan cost on small tables): prefer the more
    #: selective structure.
    _METHOD_PREFERENCE = {
        "clustered_index_scan": 0,
        "cm_scan": 1,
        "sorted_index_scan": 2,
        "seq_scan": 3,
    }

    def plan_rank(self, plan: PlanNode) -> tuple[float, int]:
        """The selection sort key: cost first, structure preference on ties.

        Public because ``Database.explain`` sorts its candidate listing with
        the same key, guaranteeing its first entry is the plan selection
        picks.  ``method`` looks through decorator nodes, so a decorated
        tree ranks by its underlying access structure.
        """
        return (plan.estimated_cost_ms, self._METHOD_PREFERENCE.get(plan.method, 9))

    # -- join planning ---------------------------------------------------------------

    def candidate_join_plans(
        self,
        tables: Mapping[str, Table],
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """Left-deep join plan trees, one per (order, strategy) shape.

        For every connected left-deep order of the join graph, up to five
        candidate shapes are produced: the cheapest strategy per step (which
        picks whichever of rescanning, index probes, a hash build or an
        ordered merge the cost model prefers), plus the four pure shapes --
        all-nested-loop (the quadratic baseline the benchmarks force),
        all-index-nested-loop (when every inner table offers a probe
        structure), all-hash and all-sort-merge (always applicable: the
        unindexed fallbacks).  ``force`` pins the driving table's access
        method.  Decorator nodes (GroupBy/Sort/TopK/Limit/Project) wrap
        every shape per the query.  All cardinalities come from reservoir
        samples; enumeration never reads a heap page.
        """
        if projection is None:
            projection = query.projection
        edges = self._join_edges(tables, query)
        orders = self._left_deep_orders(query.tables, edges)
        if not orders:
            raise ValueError(
                f"join graph of {query.describe()!r} is not connected: every "
                "joined table needs an equality linking it to the chain"
            )
        plans: list[PlanNode] = []
        seen: set[str] = set()
        selectors = ("best", *FORCE_JOIN_METHODS)
        for order in orders:
            analysis = self._analyze_order(
                tables, query, order, edges, force=force, limit=limit
            )
            if analysis is None:
                continue
            for selector in selectors:
                plan = self._build_order_plan(
                    analysis, selector, limit, query, projection
                )
                if plan is not None and plan.structure not in seen:
                    seen.add(plan.structure)
                    plans.append(plan)
        if not plans:
            raise ValueError(f"no applicable join plan for forced method {force!r}")
        return plans

    def choose_join(
        self,
        tables: Mapping[str, Table],
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Pick the cheapest join plan (or the cheapest with a forced strategy).

        ``force_join`` restricts plans by their *step composition*, not just
        the root operator: ``"nested_loop_join"`` keeps only plans whose
        every step rescans the inner sequentially, ``"index_nested_loop_
        join"`` only plans whose every step probes an access structure,
        ``"hash_join"``/``"sort_merge_join"`` only plans built entirely from
        that operator (so a mixed chain satisfies no baseline).  ``force``
        pins the driving table's access method, as for single-table queries.
        """
        if force_join is not None and force_join not in FORCE_JOIN_METHODS:
            raise ValueError(f"unknown join method {force_join!r}")
        plans = self.candidate_join_plans(
            tables, query, force=force, limit=limit, projection=projection
        )
        if force_join is not None:
            wanted = _FORCE_JOIN_OPERATORS[force_join]
            plans = [
                plan
                for plan in plans
                if all(type(step) is wanted for step in plan.join_steps())
            ]
            if not plans:
                raise ValueError(f"no applicable plan for forced join {force_join!r}")
        return min(plans, key=lambda plan: plan.estimated_cost_ms)

    def _join_edges(
        self, tables: Mapping[str, Table], query: Query
    ) -> list[tuple[str, str, str, str]]:
        """The equi-join graph as ``(table_a, column_a, table_b, column_b)``.

        Each :class:`JoinSpec` pair contributes one edge; the left column is
        resolved to its owning table by walking the chain prefix backwards
        (matching the merged-row semantics, where the latest table wins a
        name collision).
        """
        edges: list[tuple[str, str, str, str]] = []
        for position, spec in enumerate(query.joins):
            prefix = query.tables[: position + 1]
            for left, right in spec.on:
                owner = None
                for candidate in reversed(prefix):
                    if tables[candidate].schema.has_column(left):
                        owner = candidate
                        break
                if owner is None:
                    raise ValueError(
                        f"join column {left!r} not found in any of {prefix}"
                    )
                if not tables[spec.table].schema.has_column(right):
                    raise ValueError(
                        f"unknown column {right!r} in joined table {spec.table!r}"
                    )
                edges.append((owner, left, spec.table, right))
        return edges

    @staticmethod
    def _left_deep_orders(
        names: Sequence[str], edges: Sequence[tuple[str, str, str, str]]
    ) -> list[tuple[str, ...]]:
        """Every permutation in which each table connects to the prefix."""
        orders: list[tuple[str, ...]] = []

        def connected(name: str, prefix: tuple[str, ...]) -> bool:
            return any(
                (a == name and b in prefix) or (b == name and a in prefix)
                for a, _ca, b, _cb in edges
            )

        def extend(prefix: tuple[str, ...], remaining: frozenset[str]) -> None:
            if not remaining:
                orders.append(prefix)
                return
            for name in sorted(remaining):
                if connected(name, prefix):
                    extend(prefix + (name,), remaining - {name})

        for first in names:
            extend((first,), frozenset(names) - {first})
        return orders

    def _local_predicates(self, query: Query, name: str) -> PredicateSet:
        if name == query.table:
            return query.predicates
        for spec in query.joins:
            if spec.table == name:
                return spec.predicates
        raise KeyError(name)

    def _inner_strategy_options(
        self,
        table: Table,
        inner_columns: Sequence[str],
    ) -> list[tuple[str, float, object, object]]:
        """Applicable ``(strategy, per_probe_cost_ms, index, cm)`` tuples.

        Per-probe costs are the single-lookup (``n_lookups = 1``) variants of
        the Section 4 formulas.  Clustered-index and CM probes conservatively
        sweep the table's unclustered tail on *every* probe (rows inserted
        after the last CLUSTER are not covered by the clustered page ranges),
        so their per-probe price includes the tail pages -- as the tail grows
        the planner degrades them honestly and falls back to the rescan.  The
        sequential rescan is always applicable and anchors the nested-loop
        baseline; secondary-index probes reach tail rows through the index
        and pay no tail term.
        """
        profile = table.table_profile()
        options: list[tuple[str, float, object, object]] = [
            ("seq_scan", scan_cost(profile, self.hardware), None, None)
        ]
        inner_set = set(inner_columns)
        tail_ms = len(table.tail_pages()) * self.hardware.seq_page_cost_ms
        if table.clustered_attribute in inner_set:
            corr = table.correlation_profile(table.clustered_attribute)
            options.append(
                (
                    "clustered_index_scan",
                    sorted_lookup_cost(1, corr, profile, self.hardware) + tail_ms,
                    None,
                    None,
                )
            )
        if table.clustered_attribute is not None:
            for index in table.secondary_indexes.values():
                if index.attributes[0] not in inner_set:
                    continue
                corr = table.correlation_profile(list(index.attributes))
                options.append(
                    (
                        "sorted_index_scan",
                        sorted_lookup_cost(1, corr, profile, self.hardware),
                        index,
                        None,
                    )
                )
            for cm in table.correlation_maps.values():
                if not any(attr in inner_set for attr in cm.attributes):
                    continue
                inputs = CMCostInputs(
                    buckets_per_lookup=max(1.0, cm.measured_c_per_u()),
                    pages_per_bucket=self._pages_per_target(table, cm),
                    cm_pages=cm.size_pages(),
                    cm_resident=True,
                )
                options.append(
                    (
                        "cm_scan",
                        cm_lookup_cost(1, inputs, profile, self.hardware) + tail_ms,
                        None,
                        cm,
                    )
                )
        return options

    def _outer_key_cardinality(
        self, tables: Mapping[str, Table], pairs: Sequence[tuple[str, str, str]]
    ) -> float:
        """Distinct count of the outer join key (composite when one table owns it)."""
        owners = {owner for owner, _outer_col, _inner_col in pairs}
        if len(owners) == 1:
            owner = next(iter(owners))
            return float(
                tables[owner].key_cardinality([outer for _o, outer, _i in pairs])
            )
        return float(
            max(tables[o].attribute_cardinality(c) for o, c, _i in pairs)
        )

    def _analyze_order(
        self,
        tables: Mapping[str, Table],
        query: Query,
        order: Sequence[str],
        edges: Sequence[tuple[str, str, str, str]],
        *,
        force: str | None,
        limit: int | None,
    ) -> "_OrderAnalysis | None":
        """The selector-independent costing inputs for one left-deep order.

        Everything that touches the statistics sample -- driving-plan
        costing, result-size estimates, strategy options, fanouts -- is
        computed once here and shared by all strategy shapes built for the
        order, so planning cost does not scale with the number of shapes.
        """
        steps: list[_JoinStep] = []
        for position, name in enumerate(order[1:], start=1):
            prefix = tuple(order[:position])
            pairs = [
                (a, ca, cb) if b == name else (b, cb, ca)
                for a, ca, b, cb in edges
                if (b == name and a in prefix) or (a == name and b in prefix)
            ]
            if not pairs:
                return None
            table = tables[name]
            local = self._local_predicates(query, name)
            inner_columns = [inner for _owner, _outer, inner in pairs]
            fanout = join_fanout(
                table.num_rows,
                self._outer_key_cardinality(tables, pairs),
                float(table.key_cardinality(inner_columns)),
            )
            selectivity = (
                table.statistics.match_fraction(local)
                if local
                else 1.0
            )
            steps.append(
                _JoinStep(
                    table=table,
                    join_on=[(outer, inner) for _owner, outer, inner in pairs],
                    local=local,
                    options=self._inner_strategy_options(table, inner_columns),
                    fanout=fanout,
                    selectivity=selectivity,
                    est_inner_rows=table.num_rows * selectivity,
                    # Heap order *is* join-key order when the single join
                    # column is the clustered attribute and no unsorted tail
                    # has grown -- the case a sort-merge join merges for free.
                    inner_sorted=(
                        len(inner_columns) == 1
                        and table.clustered_attribute == inner_columns[0]
                        and not table.tail_pages()
                    ),
                )
            )

        # A join LIMIT terminates the driver early too: each outer row yields
        # about prod(fanout * selectivity) result rows, so the driver only
        # needs limit / that-product of its own rows.  Selecting (and
        # costing) the driving path with that budget keeps join selection as
        # LIMIT-aware as the single-table case.
        driver_limit = limit
        if limit is not None and limit >= 1:
            amplification = 1.0
            for step in steps:
                amplification *= step.fanout * step.selectivity
            if amplification > 0:
                driver_limit = max(1, math.ceil(limit / amplification))
        driving = tables[order[0]]
        driving_predicates = self._local_predicates(query, order[0])
        if force == "pipelined_index_scan":
            driving_plan = self._pipelined_plan(driving, driving_predicates)
            driving_unlimited = driving_plan
        else:

            def cheapest(effective_limit: int | None) -> ScanNode | None:
                return min(
                    (
                        plan
                        for plan in self._candidate_scan_plans(
                            driving, driving_predicates, limit=effective_limit
                        )
                        if force is None or plan.method == force
                    ),
                    key=self.plan_rank,
                    default=None,
                )

            driving_plan = cheapest(driver_limit)
            # A shape whose blocking step (hash build of the outer, explicit
            # merge sort, a Sort/TopK/Aggregate above the chain) drains the
            # whole outer cannot lean on the LIMIT-scaled driver: it gets
            # the honest full-drain plan.
            driving_unlimited = (
                driving_plan if driver_limit is None else cheapest(None)
            )
        if driving_plan is None or driving_unlimited is None:
            return None  # the forced method is inapplicable to this order's driver
        # Sweep-style driving paths emit rows in heap (= clustered) order, so
        # a first-step sort-merge join can skip its outer sort when the
        # driver is clustered on that step's single outer join column.
        outer_sorted = False
        if steps and len(steps[0].join_on) == 1:
            outer_column = steps[0].join_on[0][0]
            outer_sorted = self._ordering_satisfied(
                driving_plan.path.output_ordering(), ((outer_column, True),)
            )
        return _OrderAnalysis(
            driving_name=order[0],
            driving_plan=driving_plan,
            driving_unlimited=driving_unlimited,
            driving_rows=driving.estimate_matching_rows(driving_predicates),
            steps=steps,
            first_step_outer_sorted=outer_sorted,
        )

    def _step_candidates(
        self, step: "_JoinStep", est_rows: float, outer_sorted: bool
    ) -> list["_StepCandidate"]:
        """Every operator the cost model can run this step with, costed.

        Probe-family candidates (nested-loop rescan, index-nested-loop) are
        per-outer-row work, so their whole cost is streaming; the hash build
        and the explicit merge sorts are upfront (paid before the first
        merged row), which is exactly what lets a binding LIMIT steer
        selection back towards the probe operators for tiny result budgets.
        """
        candidates: list[_StepCandidate] = []
        for strategy, per_probe, index, cm in step.options:
            if strategy == "seq_scan":
                cost = nested_loop_join_cost(
                    0.0, est_rows, step.table.table_profile(), self.hardware
                )
            else:
                cost = index_nested_loop_join_cost(0.0, est_rows, per_probe)
            candidates.append(
                _StepCandidate(
                    kind="probe",
                    strategy=strategy,
                    split=CostSplit(0.0, cost),
                    index=index,
                    cm=cm,
                )
            )
        # Hash join: build the sampled-smaller input's hash table.  Building
        # the outer blocks its stream (LIMIT can no longer terminate the
        # inputs upstream of this step), which the shape costing accounts
        # for through ``blocks_outer``.
        build_side = "inner" if step.est_inner_rows <= est_rows else "outer"
        candidates.append(
            _StepCandidate(
                kind="hash",
                strategy="hash",
                split=hash_join_cost(
                    est_rows,
                    step.est_inner_rows,
                    step.table.table_profile(),
                    self.hardware,
                    build_side=build_side,
                ),
                build_side=build_side,
                blocks_outer=build_side == "outer",
            )
        )
        candidates.append(
            _StepCandidate(
                kind="merge",
                strategy="merge",
                split=sort_merge_join_cost(
                    est_rows,
                    step.est_inner_rows,
                    step.table.table_profile(),
                    self.hardware,
                    inner_sorted=step.inner_sorted,
                    outer_sorted=outer_sorted,
                ),
                outer_sorted=outer_sorted,
                blocks_outer=not outer_sorted,
            )
        )
        return candidates

    def _build_order_plan(
        self,
        analysis: "_OrderAnalysis",
        selector: str,
        limit: int | None,
        query: Query,
        projection: Sequence[str] | None,
    ) -> PlanNode | None:
        """One strategy shape over a pre-analyzed order (``selector`` picks)."""
        chosen_steps: list[_StepCandidate] = []
        #: Estimated rows flowing out of each step (last entry: chain result).
        step_rows: list[float] = []
        est_rows = analysis.driving_rows
        for position, step in enumerate(analysis.steps):
            outer_sorted = position == 0 and analysis.first_step_outer_sorted
            candidates = self._step_candidates(step, est_rows, outer_sorted)
            if selector == "nested_loop_join":
                candidates = [c for c in candidates if c.strategy == "seq_scan"]
            elif selector == "index_nested_loop_join":
                candidates = [
                    c for c in candidates if c.kind == "probe" and c.strategy != "seq_scan"
                ]
                if not candidates:
                    return None  # no probe structure on this inner table
            elif selector == "hash_join":
                candidates = [c for c in candidates if c.kind == "hash"]
            elif selector == "sort_merge_join":
                candidates = [c for c in candidates if c.kind == "merge"]
            chosen_steps.append(min(candidates, key=lambda c: c.split.total_ms))
            est_rows = est_rows * step.fanout * step.selectivity
            step_rows.append(est_rows)

        # The chain's output ordering follows from the chosen step kinds
        # alone: probe-family steps and an inner-built hash preserve the
        # outer order, an outer-built hash streams the inner's order, and a
        # merge join emits in join-key order under either key name.  (Every
        # driving candidate is a sweep path over the same table, so the
        # driver's ordering does not depend on which driving node is picked.)
        chain_ordering = analysis.driving_plan.path.output_ordering()
        for step, chosen in zip(analysis.steps, chosen_steps):
            if chosen.kind == "merge":
                chain_ordering = tuple(
                    (frozenset({outer, inner}), True)
                    for outer, inner in step.join_on
                )
            elif chosen.kind == "hash" and chosen.build_side == "outer":
                chain_ordering = step.table.stream_ordering()
        sort_needed = bool(query.ordering) and not self._ordering_satisfied(
            chain_ordering, query.ordering
        )

        # A blocking step (hash build of the outer, explicit merge sort)
        # drains everything upstream before the first merged row, so the
        # LIMIT-scaled driver only applies to fully streaming shapes, and
        # streaming work upstream of the last block is charged in full.  An
        # Aggregate or a needed Sort/TopK above the chain blocks the whole
        # pipeline the same way.
        last_block = max(
            (i for i, c in enumerate(chosen_steps) if c.blocks_outer), default=-1
        )
        blocked_above = query.aggregate is not None or sort_needed
        driving = (
            analysis.driving_plan
            if last_block < 0 and not blocked_above
            else analysis.driving_unlimited
        )

        parts = [f"{analysis.driving_name}[{driving.method}:{driving.structure}]"]
        source: PlanNode = driving
        for step, chosen, rows_after in zip(analysis.steps, chosen_steps, step_rows):
            source = self._build_step_operator(source, step, chosen, rows_after)
            source.est_rows = rows_after
            source.cost_split = chosen.split
            parts.append(f"{source.name}[{source.describe_detail()}]")

        upfront_ms = sum(c.split.upfront_ms for c in chosen_steps)
        if blocked_above:
            drained_ms = sum(c.split.streaming_ms for c in chosen_steps)
            streaming_ms = 0.0
        else:
            drained_ms = sum(
                c.split.streaming_ms for c in chosen_steps[: max(0, last_block)]
            )
            streaming_ms = sum(
                c.split.streaming_ms for c in chosen_steps[max(0, last_block):]
            )

        # Per-row streaming work downstream of the last block scales with
        # the emitted fraction under a LIMIT; upfront work (hash builds,
        # explicit sorts) is paid in full before the first row.
        fraction = 1.0
        if limit is not None and 1.0 <= limit < est_rows:
            fraction = limit / est_rows
        cost = (
            driving.estimated_cost_ms
            + upfront_ms
            + drained_ms
            + streaming_ms * fraction
        )
        assert isinstance(source, JoinOperator)
        source.est_cost_ms = cost
        source.structure = " -> ".join(parts)
        return self._decorate(
            source,
            query,
            limit=limit,
            projection=projection,
            input_rows=est_rows,
            input_ordering=chain_ordering,
            tables=[analysis.driving_plan.table, *(s.table for s in analysis.steps)],
            disk=analysis.driving_plan.table.buffer_pool.disk,
        )

    def _build_step_operator(
        self,
        source: PlanNode,
        step: "_JoinStep",
        chosen: "_StepCandidate",
        rows_after: float,
    ) -> JoinOperator:
        """Instantiate the executable operator for one chosen step candidate.

        ``rows_after`` is the estimated rows flowing out of this step; the
        probe leaf of a tuple-at-a-time join emits exactly the step's output
        rows (one merged row per probe match), so it carries that estimate.
        """
        if chosen.kind in ("hash", "merge"):
            inner = ScanNode(SeqScan(step.table, step.local))
            inner.structure = "heap"
            inner.est_rows = step.est_inner_rows
            inner.est_pages = float(step.table.num_pages)
            if chosen.kind == "hash":
                return HashJoin(
                    source,
                    inner,
                    step.join_on,
                    build_side=chosen.build_side,
                    inner_label=step.table.name,
                )
            return SortMergeJoin(
                source,
                inner,
                step.join_on,
                inner_sorted=step.inner_sorted,
                outer_sorted=chosen.outer_sorted,
                inner_label=step.table.name,
            )
        builder = InnerPathBuilder(
            step.table,
            step.join_on,
            step.local,
            chosen.strategy,
            index=chosen.index,
            cm=chosen.cm,
        )
        if chosen.strategy == "seq_scan":
            operator = NestedLoopJoin(source, builder)
        else:
            operator = IndexNestedLoopJoin(source, builder, chosen.strategy)
        operator.inner.est_rows = rows_after
        return operator


@dataclass
class _JoinStep:
    """Selector-independent inputs for one join step of one order."""

    table: Table
    join_on: list[tuple[str, str]]
    local: PredicateSet
    #: ``(strategy, per_probe_cost_ms, index, cm)`` probe-family candidates.
    options: list[tuple[str, float, object, object]]
    fanout: float
    selectivity: float
    #: Sampled estimate of inner rows surviving the local predicates.
    est_inner_rows: float
    #: Whether the inner heap already streams in join-key order.
    inner_sorted: bool


@dataclass
class _StepCandidate:
    """One costed way of executing one join step."""

    kind: str  # "probe" | "hash" | "merge"
    strategy: str
    split: CostSplit
    index: object = None
    cm: object = None
    build_side: str = "inner"
    outer_sorted: bool = False
    #: True when this step drains its whole outer input before emitting.
    blocks_outer: bool = False


@dataclass
class _OrderAnalysis:
    """One left-deep order, analyzed once and shared by its strategy shapes."""

    driving_name: str
    driving_plan: ScanNode
    #: The driver costed without the LIMIT, for shapes with a blocking step.
    driving_unlimited: ScanNode
    driving_rows: float
    steps: list[_JoinStep]
    #: Whether the driving path streams in the first step's join-key order.
    first_step_outer_sorted: bool = False


@dataclass
class _PartitionJoinLayout:
    """A two-table join touching partitioned storage, classified once.

    Shared by every shape built for the join (see
    :meth:`Planner._partition_join_layout`): the outer (partitioned,
    pruned) side, the build side, the normalized join pairs as
    ``(outer_column, inner_column)``, and which exchange shapes apply.
    """

    outer_name: str
    inner_name: str
    outer: PartitionedTable
    inner: AnyTable
    pairs: list[tuple[str, str]]
    outer_local: PredicateSet
    inner_local: PredicateSet
    survivors: tuple[int, ...]
    shapes: tuple[str, ...]
