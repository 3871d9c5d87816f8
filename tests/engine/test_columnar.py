"""Tests for the columnar batch kernels.

The columnar pass replaced per-row interior loops with compiled/C-driven
batch kernels: ``PredicateSet.batch_kernel`` (one eval-compiled
filter+project comprehension), ``columnar_sort`` (multi-pass
decorate-sort-undecorate), the top-k candidate merge, the grouped
aggregation kernels of ``GroupedAccumulators``, and the sort-merge join's
vectorized merge.  These tests pin each kernel against its row-at-a-time
reference -- same survivors, same order, same values (bit-identical floats)
-- and whole queries against the reference evaluator of ``tests/oracle.py``
at batch sizes 1 and up, including the edge cases: empty predicate sets, all-rows-filtered
batches, NULLs in predicate and sort columns, and descending non-negatable
types.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.executor import DEFAULT_BATCH_SIZE, _ordering_key_getter, _sorted_with_keys
from repro.engine.plan import (
    SortKey,
    _encode_sort_column,
    columnar_sort,
    sort_key_function,
)
from repro.engine.predicates import (
    Between,
    Equals,
    ExpressionPredicate,
    InSet,
    PredicateSet,
)
from repro.engine.query import Aggregate, Query

from test_batched_executor import assert_parity
from tests import oracle


def run_both(db, query, tables, **kwargs):
    """``query`` at batch size 1 and at the database's batch size; both
    must be correct answers over ``tables`` (name -> loaded rows)
    according to the reference evaluator."""
    original = db.batch_size
    results = []
    try:
        for batch_size in (1, original):
            db.batch_size = batch_size
            db.reset_measurements()
            result = db.run_query(query, cold_cache=True, **kwargs)
            oracle.check(query, tables, result)
            results.append(result)
    finally:
        db.batch_size = original
    return results


def _rows_with_nulls(n=200, seed=3):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "id": i,
                "name": rng.choice(["ada", "bob", "cid", "dot"]),
                "price": None if rng.random() < 0.2 else rng.uniform(0, 100),
                "qty": rng.randrange(5),
            }
        )
    return rows


class TestBatchFilter:
    def test_empty_predicate_set_returns_rows_unchanged(self):
        rows = [{"a": 1}, {"a": 2}]
        assert PredicateSet().batch_filter(rows) is rows

    def test_all_rows_filtered(self):
        rows = [{"a": value} for value in range(10)]
        assert PredicateSet.of(Equals("a", -1)).batch_filter(rows) == []

    def test_null_values_in_predicate_columns(self):
        rows = [{"a": None}, {"a": 1}, {"a": None}, {"a": 2}]
        assert PredicateSet.of(Equals("a", 1)).batch_filter(rows) == [{"a": 1}]
        assert PredicateSet.of(Equals("a", None)).batch_filter(rows) == [
            {"a": None},
            {"a": None},
        ]
        assert PredicateSet.of(InSet("a", [2, None])).batch_filter(rows) == [
            {"a": None},
            {"a": None},
            {"a": 2},
        ]

    @pytest.mark.parametrize(
        "predicates",
        [
            (Equals("name", "ada"),),
            (InSet("name", ["bob", "cid"]),),
            (Between("qty", 1, 3),),
            (Between("qty", None, 2),),
            (Between("qty", 2, None),),
            (ExpressionPredicate("qty+id", lambda row: (row["qty"] + row["id"]) % 3 == 0),),
            (Between("qty", 1, 4), InSet("name", ["ada", "dot"]), Equals("qty", 2)),
        ],
    )
    def test_compiled_kernel_matches_selectors_and_matches(self, predicates):
        rows = [
            {key: value for key, value in row.items() if key != "price"}
            for row in _rows_with_nulls()
        ]
        predicate_set = PredicateSet(predicates)
        expected = [row for row in rows if predicate_set.matches(row)]
        via_selectors = rows
        for predicate in predicates:
            select = predicate.selector()
            via_selectors = [row for row in via_selectors if select(row)]
        assert predicate_set.batch_filter(rows) == expected
        assert via_selectors == expected

    def test_kernel_with_projection_filters_then_projects(self):
        rows = [{"a": i, "b": i * 10, "c": i * 100} for i in range(6)]
        kernel = PredicateSet.of(Between("a", 2, 4)).batch_kernel(("b", "c"))
        assert kernel(rows) == [
            {"b": 20, "c": 200},
            {"b": 30, "c": 300},
            {"b": 40, "c": 400},
        ]

    def test_projection_only_kernel_from_empty_set(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        assert PredicateSet().batch_kernel(("a",))(rows) == [{"a": 1}, {"a": 3}]

    def test_kernels_are_cached_per_projection(self):
        predicate_set = PredicateSet.of(Equals("a", 1))
        assert predicate_set.batch_kernel() is predicate_set.batch_kernel()
        assert predicate_set.batch_kernel(("a",)) is predicate_set.batch_kernel(("a",))
        assert predicate_set.batch_kernel() is not predicate_set.batch_kernel(("a",))


ORDERINGS = [
    (("price", True),),
    (("price", False),),
    (("name", False),),
    (("name", True), ("price", False)),
    (("qty", False), ("name", True), ("id", True)),
]


class TestColumnarSort:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_matches_sortkey_reference(self, ordering):
        rows = _rows_with_nulls()
        reference = sorted(rows, key=sort_key_function(ordering))
        columnar = list(rows)
        columnar_sort(columnar, ordering)
        assert columnar == reference

    def test_stability_on_ties(self):
        rows = [{"k": value % 2, "seq": i} for i, value in enumerate(range(20))]
        for ascending in (True, False):
            ordered = list(rows)
            columnar_sort(ordered, [("k", ascending)])
            expected = sorted(rows, key=sort_key_function([("k", ascending)]))
            assert ordered == expected

    def test_encode_column_orders_like_sortkey(self):
        for values in ([3, 1, 2], [3.5, None, 1.0], ["b", "a", "c"], [True, False]):
            for ascending in (True, False):
                encoded = _encode_sort_column(list(values), ascending)
                wrapped = [SortKey(value, ascending) for value in values]
                # Compare pairwise ordering decisions instead of sharing a
                # sort: encodings must rank every pair exactly as SortKey.
                for i in range(len(values)):
                    for j in range(len(values)):
                        assert (encoded[i] == encoded[j]) == (wrapped[i] == wrapped[j])
                        assert (encoded[i] < encoded[j]) == (wrapped[i] < wrapped[j])

    def test_sorted_with_keys_matches_ordering_key_getter(self):
        rows = _rows_with_nulls()
        for columns in (["price"], ["name", "qty"], ["price", "id"]):
            keys, ordered = _sorted_with_keys(list(rows), columns)
            key_of = _ordering_key_getter(columns)
            assert ordered == sorted(rows, key=key_of)
            assert keys == [key_of(row) for row in ordered]
        assert _sorted_with_keys([], ["price"]) == ([], [])


def _null_database(batch_size=DEFAULT_BATCH_SIZE):
    rows = _rows_with_nulls(400)
    db = Database(buffer_pool_pages=200, batch_size=batch_size)
    db.create_table("t", sample_row=rows[0], tups_per_page=16)
    db.load("t", rows)
    return db, rows


class TestEndToEndColumnarParity:
    """Whole-query parity on shapes the columnar kernels own, with NULLs."""

    @pytest.mark.parametrize(
        "order_by", [("price",), ("-price",), ("name", "-price"), ("-name", "qty", "id")]
    )
    def test_order_by_with_nulls(self, order_by):
        db, rows = _null_database()
        query = Query.select("t").order_by(*order_by)
        single_result, batched_result = run_both(db, query, {"t": rows})
        assert_parity(single_result, batched_result)

    @pytest.mark.parametrize("limit", [1, 7, 100, 1000])
    def test_top_k_with_nulls_and_duplicate_keys(self, limit):
        db, rows = _null_database()
        query = Query.select("t").order_by("-price", "name").with_limit(limit)
        single_result, batched_result = run_both(db, query, {"t": rows})
        assert_parity(single_result, batched_result)

    @pytest.mark.parametrize("batch_size", [1, 7, DEFAULT_BATCH_SIZE])
    def test_top_k_across_batch_boundaries(self, batch_size):
        db, rows = _null_database(batch_size=batch_size)
        query = Query.select("t").order_by("qty", "-id").with_limit(13)
        single_result, batched_result = run_both(db, query, {"t": rows})
        assert_parity(single_result, batched_result)

    @pytest.mark.parametrize(
        "aggregate",
        [
            Aggregate.count(alias="v"),
            Aggregate.sum("price", alias="v"),
            Aggregate.avg("price", alias="v"),
            Aggregate.count_distinct("price", alias="v"),
        ],
    )
    def test_grouped_aggregates_bit_identical(self, aggregate):
        # price has no NULLs here (sum over None raises in both paths);
        # float sums must come out bit-identical, so == not approx.
        rows = [
            {"id": i, "g": i % 7, "h": i % 3, "price": (i * 0.17) % 13.0}
            for i in range(500)
        ]
        db = Database(buffer_pool_pages=200)
        db.create_table("t", sample_row=rows[0], tups_per_page=16)
        db.load("t", rows)
        for grouping in (["g"], ["g", "h"]):
            query = Query.select("t", aggregate=aggregate).group_by(*grouping)
            single_result, batched_result = run_both(db, query, {"t": rows})
            assert_parity(single_result, batched_result)
            assert batched_result.rows == single_result.rows

    def test_fused_projection_over_each_scan_shape(self, indexed_database, item_rows):
        for force in ("seq_scan", "sorted_index_scan", "pipelined_index_scan"):
            query = Query.select(
                "items", Between("price", 1000, 2500), projection=("itemid", "price")
            )
            single_result, batched_result = run_both(
                indexed_database, query, {"items": item_rows}, force=force
            )
            assert single_result.rows_matched > 0
            assert all(set(row) == {"itemid", "price"} for row in batched_result.rows)
            assert_parity(single_result, batched_result)


class TestSortMergeJoinVectorized:
    def _join_db(self, n_outer=300, n_inner=120, batch_size=DEFAULT_BATCH_SIZE):
        rng = random.Random(11)
        outer = [
            {"okey": rng.randrange(60), "opayload": i} for i in range(n_outer)
        ]
        inner = [
            {"ikey": rng.randrange(60), "ipayload": i} for i in range(n_inner)
        ]
        db = Database(buffer_pool_pages=200, batch_size=batch_size)
        db.create_table("outer_t", sample_row=outer[0], tups_per_page=16)
        db.load("outer_t", outer)
        db.create_table("inner_t", sample_row=inner[0], tups_per_page=16)
        db.load("inner_t", inner)
        return db, {"outer_t": outer, "inner_t": inner}

    def test_duplicate_key_cross_products(self):
        db, tables = self._join_db()
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        single_result, batched_result = run_both(
            db, query, tables, force="seq_scan", force_join="sort_merge_join"
        )
        assert single_result.rows_matched > 0
        assert_parity(single_result, batched_result)

    def test_inner_exhausted_before_outer(self):
        # All inner keys sort below the tail of the outer key range, so the
        # row merge abandons the remaining outer groups mid-stream; the
        # vectorized merge must charge identically.
        outer = [{"okey": i % 50, "opayload": i} for i in range(200)]
        inner = [{"ikey": i % 10, "ipayload": i} for i in range(80)]
        db = Database(buffer_pool_pages=200)
        db.create_table("outer_t", sample_row=outer[0], tups_per_page=16)
        db.load("outer_t", outer)
        db.create_table("inner_t", sample_row=inner[0], tups_per_page=16)
        db.load("inner_t", inner)
        tables = {"outer_t": outer, "inner_t": inner}
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        single_result, batched_result = run_both(
            db, query, tables, force="seq_scan", force_join="sort_merge_join"
        )
        assert_parity(single_result, batched_result)

    def test_empty_outer_never_reads_inner(self):
        db, tables = self._join_db()
        query = Query.select("outer_t", Equals("okey", -1)).join(
            "inner_t", on=("okey", "ikey")
        )
        single_result, batched_result = run_both(
            db, query, tables, force="seq_scan", force_join="sort_merge_join"
        )
        assert single_result.rows_matched == 0
        assert_parity(single_result, batched_result)

    def test_null_join_keys_match_like_row_path(self):
        outer = [{"okey": None if i % 4 == 0 else i % 9, "o": i} for i in range(80)]
        inner = [{"ikey": None if i % 5 == 0 else i % 9, "i": i} for i in range(60)]
        db = Database(buffer_pool_pages=200)
        db.create_table("outer_t", sample_row={"okey": 0, "o": 0}, tups_per_page=16)
        db.load("outer_t", outer)
        db.create_table("inner_t", sample_row={"ikey": 0, "i": 0}, tups_per_page=16)
        db.load("inner_t", inner)
        tables = {"outer_t": outer, "inner_t": inner}
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        single_result, batched_result = run_both(
            db, query, tables, force="seq_scan", force_join="sort_merge_join"
        )
        assert_parity(single_result, batched_result)
