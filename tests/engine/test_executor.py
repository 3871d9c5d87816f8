"""Tests for the streaming executor: iter_rows, LIMIT early termination,
projection, and the Database.run_query / stream entry points."""

import pytest

from repro.engine.executor import ExecutionContext, RowBatch, ScanNode
from repro.engine.plan import LimitNode, ProjectNode
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Aggregate, Query


ALL_METHODS = ["seq_scan", "sorted_index_scan", "pipelined_index_scan", "cm_scan"]


def planned_path(db, query, force):
    table = db.table(query.table)
    return db.planner.choose(table, query, force=force).path


class TestIterRows:
    @pytest.mark.parametrize("force", ALL_METHODS + ["clustered_index_scan"])
    def test_iter_rows_agrees_with_execute(self, indexed_database, force):
        if force == "clustered_index_scan":
            query = Query.select("items", Equals("catid", 42))
        else:
            query = Query.select("items", Between("price", 1000, 1100))
        path = planned_path(indexed_database, query, force)
        streamed = sorted(r["itemid"] for r in ScanNode(path).iter_rows())
        executed = indexed_database.run_query(query, force=force)
        assert streamed == sorted(r["itemid"] for r in executed.rows)
        assert streamed

    def test_execute_counters_match_context(self, indexed_database):
        # A bare access path charges the context it runs under; executing
        # the same plan through the database reports the same counters.
        query = Query.select("items", Between("price", 1000, 1100))
        path = planned_path(indexed_database, query, "sorted_index_scan")
        context = ExecutionContext()
        rows = [row for batch in path.iter_batches(context) for row in batch]
        result = indexed_database.run_query(query, force="sorted_index_scan")
        assert len(rows) == result.rows_matched > 0
        assert context.counters.rows_examined == result.rows_examined
        assert context.counters.pages_visited == result.pages_visited
        assert context.counters.lookups > 0


class TestLimit:
    def test_seq_scan_limit_stops_sweeping(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 0, 20_000), limit=5)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 5
        assert result.pages_visited < table.num_pages
        assert result.rows_examined < table.num_rows

    @pytest.mark.parametrize("force", ALL_METHODS)
    def test_limit_caps_rows_for_every_method(self, indexed_database, force):
        query = Query.select("items", Between("price", 1000, 1100))
        full = indexed_database.run_query(query, force=force, cold_cache=True)
        assert full.rows_matched > 3
        limited = indexed_database.run_query(
            query, force=force, cold_cache=True, limit=3
        )
        assert limited.rows_matched == 3
        assert limited.pages_visited <= full.pages_visited

    def test_limit_zero_reads_nothing(self, indexed_database):
        query = Query.select("items", Between("price", 0, 20_000), limit=0)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 0
        assert result.pages_visited == 0

    def test_limit_beyond_matches_returns_all(self, indexed_database):
        query = Query.select("items", Equals("catid", 42))
        full = indexed_database.run_query(query)
        limited = indexed_database.run_query(query, limit=10_000_000)
        assert limited.rows_matched == full.rows_matched

    def test_query_level_limit_and_describe(self, indexed_database):
        query = Query.select("items", Equals("catid", 42), limit=2)
        assert query.describe().endswith("LIMIT 2")
        result = indexed_database.run_query(query)
        assert result.rows_matched == 2

    def test_limit_with_aggregate_rejected(self):
        with pytest.raises(ValueError):
            Query.select("items", Equals("catid", 1), aggregate=Aggregate.count(), limit=3)

    def test_run_query_override_with_aggregate_rejected(self, indexed_database):
        query = Query.select("items", Equals("catid", 1), aggregate=Aggregate.count())
        with pytest.raises(ValueError):
            indexed_database.run_query(query, limit=3)
        with pytest.raises(ValueError):
            indexed_database.run_query(query, projection=("catid",))


class TestProjection:
    def test_projection_trims_columns(self, indexed_database):
        query = Query.select(
            "items", Between("price", 1000, 1100), projection=("itemid", "price")
        )
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched > 0
        assert all(set(row) == {"itemid", "price"} for row in result.rows)

    def test_unknown_projection_column_rejected_up_front(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        with pytest.raises(ValueError, match="unknown column"):
            indexed_database.run_query(query, projection=("pricee",))
        with pytest.raises(ValueError, match="unknown column"):
            indexed_database.stream(query, projection=("nope",))

    def test_residual_predicates_see_unprojected_columns(self, indexed_database):
        # The predicate is on price, the projection drops it.
        query = Query.select("items", Between("price", 1000, 1100), projection=("itemid",))
        result = indexed_database.run_query(query, force="cm_scan")
        reference = indexed_database.run_query(
            Query.select("items", Between("price", 1000, 1100)), force="cm_scan"
        )
        assert result.rows_matched == reference.rows_matched
        assert all(set(row) == {"itemid"} for row in result.rows)


class TestStream:
    def test_stream_yields_matching_rows(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        streamed = sorted(r["itemid"] for r in indexed_database.stream(query))
        reference = indexed_database.run_query(query)
        assert streamed == sorted(r["itemid"] for r in reference.rows)

    def test_abandoned_stream_reads_fewer_pages(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 0, 20_000))
        before = table.heap.logical_page_reads
        iterator = indexed_database.stream(query, force="seq_scan")
        for _ in range(3):
            next(iterator)
        iterator.close()
        assert table.heap.logical_page_reads - before < table.num_pages

    def test_abandoned_stream_still_charges_cpu_for_examined_rows(self, indexed_database):
        db = indexed_database
        query = Query.select("items", Between("price", 0, 20_000))
        before = db.disk.snapshot()
        iterator = db.stream(query, force="seq_scan")
        for _ in range(3):
            next(iterator)
        iterator.close()
        window = db.disk.window_since(before)
        assert window.cpu_tuples >= 3

    def test_abandoned_stream_charges_exactly_through_last_row(
        self, indexed_database
    ):
        # Stopping after the 3rd match examines (and charges CPU for) the
        # rows up to that match and no further, like a LIMIT 3 would.
        db = indexed_database
        predicate = Between("price", 0, 20_000)
        heap_order = [
            row for page in db.table("items").heap.pages for row in page.slots
            if row is not None
        ]
        matches = [i for i, row in enumerate(heap_order) if predicate.matches(row)]
        through_third = matches[2] + 1
        query = Query.select("items", predicate)
        node = ScanNode(planned_path(db, query, "seq_scan"))
        before = db.disk.snapshot()
        rows = node.iter_rows()
        for _ in range(3):
            next(rows)
        rows.close()
        assert node.actual.rows_examined == through_third
        assert db.disk.window_since(before).cpu_tuples == through_third
        limited = db.run_query(query, force="seq_scan", limit=3)
        assert limited.rows_examined == through_third

    def test_stream_rejects_aggregates(self, indexed_database):
        query = Query.select("items", Equals("catid", 1), aggregate=Aggregate.count())
        with pytest.raises(ValueError):
            indexed_database.stream(query)


class _Rows(ScanNode):
    """A leaf emitting fixed rows (no table behind it)."""

    def __init__(self, rows):
        super().__init__(path=None)
        self.rows = rows

    @property
    def name(self):
        return "rows"

    def _stream_batches(self, context, batch_size, demand, run_reads):
        yield RowBatch(self.rows)


class TestContext:
    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            LimitNode(_Rows([]), -1)
        with pytest.raises(ValueError):
            Query.select("items", limit=-1)

    def test_emit_counts_and_projects(self):
        # Projection and LIMIT are plan nodes: each counts what it emits.
        source = _Rows([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        limit = LimitNode(source, 1)
        project = ProjectNode(limit, ("a",))
        assert list(project.iter_rows(ExecutionContext())) == [{"a": 1}]
        assert project.actual.rows_out == limit.actual.rows_out == 1
