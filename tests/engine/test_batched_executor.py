"""Tests for the batch-at-a-time executor.

The batched protocol's contract is *bit-identical simulated statistics*:
for any query, executing through ``iter_batches`` at batch size 1 (row-at-a-
time delivery) and at the default batch size must produce the same rows, the
same per-node actual counters, the same I/O breakdown and the same simulated
elapsed time -- and both must reproduce the committed golden record of the
scenario (``tests/golden.py``).  These tests pin that contract on every
access method, every join strategy, the decorator stack, and the batch-
boundary edge cases (LIMIT/TopK stopping mid-batch, empty batches from
selective filters, extreme batch sizes).
"""

import pytest

from repro.engine.executor import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    RowBatch,
)
from repro.engine.plan import LimitNode, SortNode
from repro.engine.predicates import Between, Equals
from repro.engine.query import Aggregate, Query
from tests.golden import assert_golden


ALL_METHODS = [
    "seq_scan",
    "sorted_index_scan",
    "pipelined_index_scan",
    "clustered_index_scan",
    "cm_scan",
]

JOIN_STRATEGIES = [
    "nested_loop_join",
    "index_nested_loop_join",
    "hash_join",
    "sort_merge_join",
]


def run_both(db, request, query, **kwargs):
    """Execute ``query`` at batch size 1 and batched; restore the default.

    Both runs must reproduce the golden entry named after the calling test.
    The disk head position is reset before each run: the classification of
    a run's *first* page read depends on wherever the previous query left
    the head, which would otherwise leak between the two runs and obscure
    the comparison.
    """
    original = db.batch_size
    results = []
    try:
        for batch_size in (1, DEFAULT_BATCH_SIZE):
            db.batch_size = batch_size
            db.reset_measurements()
            result = db.run_query(query, cold_cache=True, **kwargs)
            assert_golden(f"batched_executor/{request.node.name}", result)
            results.append(result)
    finally:
        db.batch_size = original
    return results


def assert_parity(single_result, batched_result):
    """The full parity contract between two batch sizes."""
    assert batched_result.rows == single_result.rows
    assert batched_result.value == single_result.value
    assert batched_result.rows_matched == single_result.rows_matched
    assert batched_result.rows_examined == single_result.rows_examined
    assert batched_result.pages_visited == single_result.pages_visited
    assert batched_result.join_probes == single_result.join_probes
    assert batched_result.rows_emitted == single_result.rows_emitted
    assert batched_result.io == single_result.io
    assert batched_result.elapsed_ms == pytest.approx(
        single_result.elapsed_ms, abs=1e-9
    )
    # Per-node actual counters (the EXPLAIN ANALYZE surface) match node by
    # node, not just in total.
    single_nodes = list(single_result.plan.walk())
    batched_nodes = list(batched_result.plan.walk())
    assert len(single_nodes) == len(batched_nodes)
    for single_node, batched_node in zip(single_nodes, batched_nodes):
        assert single_node.label() == batched_node.label()
        assert batched_node.actual.rows_out == single_node.actual.rows_out
        assert batched_node.actual.rows_examined == single_node.actual.rows_examined
        assert batched_node.actual.pages_visited == single_node.actual.pages_visited
        assert batched_node.actual.lookups == single_node.actual.lookups
        assert batched_node.actual.join_probes == single_node.actual.join_probes


class TestAccessMethodParity:
    @pytest.mark.parametrize("force", ALL_METHODS)
    def test_filtered_scan_parity(self, request, indexed_database, force):
        if force == "clustered_index_scan":
            query = Query.select("items", Equals("catid", 42))
        else:
            query = Query.select("items", Between("price", 1000, 2500))
        single_result, batched_result = run_both(
            indexed_database, request, query, force=force
        )
        assert single_result.rows_matched > 0
        assert_parity(single_result, batched_result)

    def test_unfiltered_scan_parity(self, request, indexed_database):
        query = Query.select("items")
        single_result, batched_result = run_both(indexed_database, request, query)
        assert batched_result.rows_matched == 5000
        assert_parity(single_result, batched_result)

    def test_projection_parity(self, request, indexed_database):
        query = Query.select(
            "items", Between("price", 1000, 2500), projection=("itemid", "price")
        )
        single_result, batched_result = run_both(indexed_database, request, query)
        assert all(set(row) == {"itemid", "price"} for row in batched_result.rows)
        assert_parity(single_result, batched_result)

    def test_batched_rows_are_private_copies(self, indexed_database):
        query = Query.select("items", Equals("catid", 42))
        result = indexed_database.run_query(query)
        result.rows[0]["itemid"] = -1
        again = indexed_database.run_query(query)
        assert again.rows[0]["itemid"] != -1


class TestDecoratorParity:
    @pytest.mark.parametrize(
        "query",
        [
            Query.select("items", Between("price", 0, 5000), limit=13),
            Query.select("items", Between("price", 1000, 2500), aggregate=Aggregate.count()),
            Query.select("items", aggregate=Aggregate.sum("price")),
            Query.select("items", aggregate=Aggregate.avg("price")),
            Query.select("items", aggregate=Aggregate.count_distinct("catid")),
            Query.select(
                "items", aggregate=Aggregate.count(alias="n")
            ).group_by("catid"),
            Query.select(
                "items", aggregate=Aggregate.sum("price", alias="s")
            ).group_by("cat2", "catid"),
            Query.select("items", Between("price", 4000, 4400)).order_by("-price"),
            Query.select("items", Between("price", 0, 5000))
            .order_by("-price")
            .with_limit(7),
            Query.select(
                "items", aggregate=Aggregate.count(alias="n")
            )
            .group_by("catid")
            .order_by("-n")
            .with_limit(3),
        ],
        ids=[
            "limit",
            "count",
            "sum",
            "avg",
            "count_distinct",
            "group_by",
            "group_by_multi",
            "order_by",
            "top_k",
            "group_order_limit",
        ],
    )
    def test_decorated_query_parity(self, request, indexed_database, query):
        single_result, batched_result = run_both(indexed_database, request, query)
        assert_parity(single_result, batched_result)


@pytest.fixture
def join_database(indexed_database, item_rows):
    """items plus a categories table joinable on catid."""
    categories = [
        {"catid": catid, "label": f"cat-{catid}", "floor": catid * 100.0}
        for catid in range(101)
    ]
    indexed_database.create_table(
        "categories", sample_row=categories[0], tups_per_page=50
    )
    indexed_database.load("categories", categories)
    return indexed_database


class TestJoinParity:
    @pytest.mark.parametrize("force_join", JOIN_STRATEGIES)
    def test_join_strategy_parity(self, request, join_database, force_join):
        query = Query.select("items", Between("price", 1000, 2500)).join(
            "categories", on="catid"
        )
        if force_join == "index_nested_loop_join":
            join_database.cluster("categories", "catid")
        single_result, batched_result = run_both(
            join_database, request, query, force_join=force_join
        )
        assert single_result.rows_matched > 0
        assert_parity(single_result, batched_result)

    @pytest.mark.parametrize("force_join", ["hash_join", "index_nested_loop_join"])
    def test_join_with_limit_parity(self, request, join_database, force_join):
        join_database.cluster("categories", "catid")
        query = Query.select("items", Between("price", 0, 5000)).join(
            "categories", on="catid"
        )
        single_result, batched_result = run_both(
            join_database, request, query, force_join=force_join, limit=9
        )
        assert batched_result.rows_matched == 9
        assert_parity(single_result, batched_result)

    def test_join_aggregate_parity(self, request, join_database):
        query = Query.select(
            "items", Between("price", 0, 5000), aggregate=Aggregate.count()
        ).join("categories", on="catid")
        single_result, batched_result = run_both(join_database, request, query)
        assert batched_result.value == single_result.value
        assert_parity(single_result, batched_result)


class TestBatchBoundaries:
    def test_limit_stops_mid_batch_without_extra_page_reads(self, indexed_database):
        """A LIMIT satisfied mid-batch reads exactly the pages up to the
        page holding the 5th match, and examines rows only up to that match."""
        table = indexed_database.table("items")
        low, high = 0, 10_000
        pages_needed = examined_needed = found = 0
        for page in table.heap.pages:
            pages_needed += 1
            for _slot, row in page.live_rows():
                examined_needed += 1
                found += low <= row["price"] <= high
                if found == 5:
                    break
            if found == 5:
                break
        query = Query.select("items", Between("price", low, high), limit=5)
        for batch_size in (1, DEFAULT_BATCH_SIZE):
            indexed_database.batch_size = batch_size
            before = table.heap.logical_page_reads
            result = indexed_database.run_query(
                query, force="seq_scan", cold_cache=True
            )
            assert result.rows_matched == 5
            assert table.heap.logical_page_reads - before == pages_needed
            assert result.pages_visited == pages_needed
            assert result.rows_examined == examined_needed
        assert pages_needed < table.num_pages

    def test_limit_zero_reads_nothing(self, indexed_database):
        query = Query.select("items", Between("price", 0, 10_000), limit=0)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 0
        assert result.pages_visited == 0

    def test_topk_reads_no_extra_pages_over_plain_scan(self, indexed_database):
        """The k-heap consumes batched input without extra page reads."""
        plain = indexed_database.run_query(
            Query.select("items", Between("price", 0, 10_000)),
            force="seq_scan",
            cold_cache=True,
        )
        topk = indexed_database.run_query(
            Query.select("items", Between("price", 0, 10_000))
            .order_by("-price")
            .with_limit(5),
            force="seq_scan",
            cold_cache=True,
        )
        assert topk.pages_visited == plain.pages_visited
        assert len(topk.rows) == 5

    def test_highly_selective_filter_yields_no_empty_batches(self, indexed_database):
        """Pages without matches contribute no batches, never empty ones."""
        query = Query.select("items", Equals("itemid", 4321))
        plan = indexed_database.planner.choose(
            indexed_database.table("items"), query, force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 64))
        assert all(len(batch) > 0 for batch in batches)
        assert sum(len(batch) for batch in batches) == 1

    def test_no_match_filter_yields_nothing_but_sweeps_all_pages(
        self, request, indexed_database
    ):
        query = Query.select("items", Equals("price", -1.0))
        single_result, batched_result = run_both(
            indexed_database, request, query, force="seq_scan"
        )
        assert batched_result.rows == []
        assert_parity(single_result, batched_result)

    @pytest.mark.parametrize("batch_size", [1, 7, 10_000])
    def test_batch_size_equivalence_on_joins_and_group_by(
        self, join_database, batch_size
    ):
        """Batch size 1 vs 10k: same rows, same counters, same simulated I/O."""
        join_query = Query.select("items", Between("price", 1000, 2500)).join(
            "categories", on="catid"
        )
        grouped = Query.select(
            "items", Between("price", 0, 3000), aggregate=Aggregate.count(alias="n")
        ).group_by("catid")
        for query in (join_query, grouped):
            join_database.batch_size = DEFAULT_BATCH_SIZE
            reference = join_database.run_query(query, cold_cache=True)
            join_database.batch_size = batch_size
            result = join_database.run_query(query, cold_cache=True)
            join_database.batch_size = DEFAULT_BATCH_SIZE
            assert result.rows == reference.rows
            assert result.pages_visited == reference.pages_visited
            assert result.rows_examined == reference.rows_examined
            assert result.io == reference.io
            assert result.elapsed_ms == pytest.approx(reference.elapsed_ms)

    def test_scan_batches_are_page_aligned(self, database):
        """Unfiltered scan batches cover whole pages (50 tuples each here)."""
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 256))
        tups_per_page = database.table("items").tups_per_page
        for batch in batches[:-1]:
            assert len(batch) % tups_per_page == 0


class TestBatchProtocol:
    def test_iter_batches_rejects_bad_batch_size(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        with pytest.raises(ValueError):
            next(plan.iter_batches(ExecutionContext(), 0))

    def test_database_rejects_bad_batch_size(self):
        from repro.engine.database import Database

        with pytest.raises(ValueError):
            Database(batch_size=0)
        with pytest.raises(ValueError):
            Database(batch_size=None)

    def test_demand_truncates_and_stops(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 64, demand=10))
        assert sum(len(batch) for batch in batches) == 10
        assert plan.actual.rows_out == 10

    def test_limit_over_sort_truncates_blocking_output(self, database):
        """A blocking Sort under a Limit emits exactly k rows in both modes.

        The planner fuses ORDER BY + LIMIT into a TopK, so the Limit-over-
        Sort shape is exercised on a hand-built tree: the Sort must drain
        and sort its whole input, yet report only the consumed rows out.
        """
        from repro.engine.access import SeqScan
        from repro.engine.executor import ScanNode
        from repro.engine.predicates import PredicateSet

        table = database.table("items")

        def build():
            scan = ScanNode(SeqScan(table, PredicateSet()))
            sort = SortNode(scan, (("price", True),))
            return sort, LimitNode(sort, 4)

        sort, limit = build()
        batched_rows = [
            dict(row)
            for batch in limit.iter_batches(ExecutionContext(), 32)
            for row in batch
        ]
        assert len(batched_rows) == 4
        assert limit.actual.rows_out == 4
        assert sort.actual.rows_out == 4
        assert sort.rows_in == table.num_rows

        row_sort, row_limit = build()
        row_rows = [dict(row) for row in row_limit.iter_rows(ExecutionContext())]
        assert row_rows == batched_rows
        assert row_sort.actual.rows_out == 4

    def test_batches_are_row_batches(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batch = next(plan.iter_batches(ExecutionContext()))
        assert isinstance(batch, RowBatch)
        assert isinstance(batch, list)

    def test_stream_batches_surface(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1500))
        streamed = [
            row
            for batch in indexed_database.stream_batches(query)
            for row in batch
        ]
        reference = indexed_database.run_query(query)
        assert streamed == reference.rows

    def test_stream_batches_abandoned_early_stops_reading(self, indexed_database):
        table = indexed_database.table("items")
        before = table.heap.logical_page_reads
        batches = indexed_database.stream_batches(
            Query.select("items", Between("price", 0, 10_000)), force="seq_scan",
            batch_size=50,
        )
        next(batches)
        batches.close()
        assert table.heap.logical_page_reads - before < table.num_pages

    def test_stream_batches_rejects_scalar_aggregates(self, indexed_database):
        query = Query.select("items", aggregate=Aggregate.count())
        with pytest.raises(ValueError):
            indexed_database.stream_batches(query)

    def test_add_batch_matches_per_row_adds(self):
        rows = [{"x": value} for value in (1.5, 2.25, -3.0, 0.125)]
        for aggregate in (
            Aggregate.count(),
            Aggregate.sum("x"),
            Aggregate.avg("x"),
            Aggregate.count_distinct("x"),
        ):
            per_row = aggregate.make_accumulator()
            for row in rows:
                per_row.add(row)
            batched = aggregate.make_accumulator()
            batched.add_batch(rows[:2])
            batched.add_batch(rows[2:])
            assert batched.result() == per_row.result()
