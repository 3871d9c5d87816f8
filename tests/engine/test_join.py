"""Tests for the pipelined join layer: operators, planning and edge cases.

A small orders/customers pair keeps the reference joins checkable by hand;
the conftest ``items`` fixtures stay single-table.  Counter assertions lean
on ``HeapFile.logical_page_reads`` (per-input reads) versus the shared
``ExecutionCounters`` (whole-plan totals).
"""

import pytest

from repro.engine.database import Database
from repro.engine.predicates import Equals, Between
from repro.engine.query import Aggregate, JoinSpec, Query


def reference_join(outer_rows, inner_rows, key):
    merged = []
    for outer in outer_rows:
        for inner in inner_rows:
            if outer[key] == inner[key]:
                merged.append({**outer, **inner})
    return merged


@pytest.fixture
def join_db():
    db = Database(buffer_pool_pages=200)
    db.create_table("orders", columns=["orderid", "custid", "amount"], tups_per_page=10)
    db.create_table("customers", columns=["custid", "name", "region"], tups_per_page=10)
    orders = [
        {"orderid": i, "custid": i % 25, "amount": float(i)} for i in range(200)
    ]
    customers = [
        {"custid": c, "name": f"c{c}", "region": f"r{c % 4}"} for c in range(25)
    ]
    db.load("orders", orders)
    db.load("customers", customers)
    return db, orders, customers


class TestJoinCorrectness:
    def test_unindexed_join_picks_hash_join_and_matches_reference(self, join_db):
        # Neither table offers a probe structure; the planner used to fall
        # back to the quadratic nested-loop rescan, now it hashes one side.
        db, orders, customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query)
        expected = reference_join(orders, customers, "custid")
        assert result.access_method == "hash_join"
        assert result.rows_matched == len(expected)
        assert sorted(r["orderid"] for r in result.rows) == sorted(
            r["orderid"] for r in expected
        )
        assert all("name" in row and "amount" in row for row in result.rows)

    def test_nested_loop_join_matches_reference(self, join_db):
        db, orders, customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, force_join="nested_loop_join")
        expected = reference_join(orders, customers, "custid")
        assert result.access_method == "nested_loop_join"
        assert result.rows_matched == len(expected)
        assert sorted(r["orderid"] for r in result.rows) == sorted(
            r["orderid"] for r in expected
        )

    def test_hash_and_sort_merge_agree_with_nested_loop(self, join_db):
        db, orders, customers = join_db
        query = Query.select("orders", Between("orderid", 0, 99)).join(
            "customers", on="custid"
        )
        reference = db.run_query(query, force_join="nested_loop_join")
        for strategy in ("hash_join", "sort_merge_join"):
            result = db.run_query(query, force_join=strategy)
            assert result.access_method == strategy
            assert sorted(r["orderid"] for r in result.rows) == sorted(
                r["orderid"] for r in reference.rows
            )

    def test_index_nested_loop_agrees_with_nested_loop(self, join_db):
        db, orders, customers = join_db
        db.cluster("customers", "custid")
        query = Query.select("orders", Between("orderid", 0, 99)).join(
            "customers", on="custid"
        )
        inl = db.run_query(query, force_join="index_nested_loop_join")
        nl = db.run_query(query, force_join="nested_loop_join")
        assert inl.access_method == "index_nested_loop_join"
        assert sorted(r["orderid"] for r in inl.rows) == sorted(
            r["orderid"] for r in nl.rows
        )
        assert inl.rows_matched == 100

    def test_local_range_on_the_join_key_does_not_shadow_the_probe(self, join_db):
        # A local Between on the inner clustered join key must not hijack the
        # clustered-index lookup: the bound per-row equality is tighter and
        # drives the probe, the range stays a residual filter.
        db, orders, customers = join_db
        db.cluster("customers", "custid")
        inner_heap = db.table("customers").heap
        query = Query.select("orders").join(
            "customers", "custid", Between("custid", 5, 14)
        )
        before = inner_heap.logical_page_reads
        result = db.run_query(query, force_join="index_nested_loop_join")
        probe_pages = inner_heap.logical_page_reads - before
        expected = [o for o in orders if 5 <= o["custid"] <= 14]
        assert result.rows_matched == len(expected)
        # One probe per outer row, each touching ~1 page -- not a range sweep
        # of the whole customers band per probe.
        assert probe_pages <= len(orders) * 2

    def test_joined_table_predicates_filter_inner_rows(self, join_db):
        db, orders, customers = join_db
        query = Query.select("orders").join(
            "customers", "custid", Equals("region", "r1")
        )
        result = db.run_query(query)
        expected = [
            row
            for row in reference_join(orders, customers, "custid")
            if row["region"] == "r1"
        ]
        assert result.rows_matched == len(expected) > 0

    def test_explicit_pair_and_mapping_forms(self, join_db):
        db, orders, customers = join_db
        by_pair = Query.select("orders").join("customers", on=("custid", "custid"))
        by_map = Query.select("orders").join("customers", on={"custid": "custid"})
        assert (
            db.run_query(by_pair).rows_matched
            == db.run_query(by_map).rows_matched
            == len(orders)
        )

    def test_two_element_list_keeps_using_semantics(self):
        # Only a *tuple* of two strings is a (left, right) pair; a list of
        # two names means two same-named join keys, like any other arity.
        as_pair = Query.select("orders").join("lineitem", on=("orderkey", "linenumber"))
        assert as_pair.joins[0].on == (("orderkey", "linenumber"),)
        as_using = Query.select("orders").join("lineitem", on=["orderkey", "linenumber"])
        assert as_using.joins[0].on == (
            ("orderkey", "orderkey"),
            ("linenumber", "linenumber"),
        )


class TestJoinEdgeCases:
    def test_empty_inner_table_produces_no_rows(self, join_db):
        db, orders, _customers = join_db
        db.create_table("coupons", columns=["custid", "percent"], tups_per_page=10)
        query = Query.select("orders").join("coupons", on="custid")
        result = db.run_query(query)
        assert result.rows_matched == 0
        assert result.rows == []

    def test_empty_outer_never_probes_the_inner(self, join_db):
        db, _orders, _customers = join_db
        inner_heap = db.table("customers").heap
        before = inner_heap.logical_page_reads
        query = Query.select("orders", Equals("custid", 999)).join(
            "customers", on="custid"
        )
        result = db.run_query(query)
        assert result.rows_matched == 0
        assert inner_heap.logical_page_reads == before

    def test_duplicate_join_keys_fan_out(self, join_db):
        db, orders, _customers = join_db
        db.create_table("payments", columns=["custid", "method"], tups_per_page=10)
        payments = [
            {"custid": c, "method": m} for c in range(25) for m in ("card", "cash")
        ]
        db.load("payments", payments)
        query = Query.select("orders", Between("orderid", 0, 49)).join(
            "payments", on="custid"
        )
        result = db.run_query(query)
        assert result.rows_matched == 50 * 2
        methods = {row["method"] for row in result.rows}
        assert methods == {"card", "cash"}

    def test_join_limit_stops_the_outer_sweep(self, join_db):
        db, _orders, _customers = join_db
        outer_heap = db.table("orders").heap
        before = outer_heap.logical_page_reads
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, limit=3)
        outer_pages_read = outer_heap.logical_page_reads - before
        assert result.rows_matched == 3
        assert outer_pages_read < db.table("orders").num_pages

    def test_counters_account_for_both_inputs(self, join_db):
        db, orders, customers = join_db
        orders_heap = db.table("orders").heap
        customers_heap = db.table("customers").heap
        before_orders = orders_heap.logical_page_reads
        before_customers = customers_heap.logical_page_reads
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, force_join="nested_loop_join")
        orders_delta = orders_heap.logical_page_reads - before_orders
        customers_delta = customers_heap.logical_page_reads - before_customers
        # Every page read by either input lands in the one shared counter set.
        assert result.pages_visited == orders_delta + customers_delta
        # The planner reorders the chain so the small table drives: customers
        # is swept once, orders is rescanned once per customer.
        assert customers_delta == db.table("customers").num_pages
        assert orders_delta == len(customers) * db.table("orders").num_pages
        assert result.rows_examined == len(customers) + len(customers) * len(orders)

    def test_limit_zero_join_reads_nothing(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, limit=0)
        assert result.rows_matched == 0
        assert result.pages_visited == 0


class TestJoinQuerySurface:
    def test_projection_spans_both_tables(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        rows = list(db.stream(query, projection=["orderid", "name"]))
        assert rows and all(set(row) == {"orderid", "name"} for row in rows)

    def test_unknown_projection_column_rejected(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        with pytest.raises(ValueError, match="unknown column"):
            db.run_query(query, projection=["orderid", "nachname"])

    def test_aggregate_over_join(self, join_db):
        db, orders, customers = join_db
        query = Query.select(
            "orders", aggregate=Aggregate.sum("amount")
        ).join("customers", "custid", Equals("region", "r0"))
        result = db.run_query(query)
        expected = sum(
            row["amount"]
            for row in reference_join(orders, customers, "custid")
            if row["region"] == "r0"
        )
        assert result.value == pytest.approx(expected)

    def test_three_table_chain(self, join_db):
        db, orders, customers = join_db
        db.create_table("regions", columns=["region", "zone"], tups_per_page=10)
        db.load("regions", [{"region": f"r{i}", "zone": i % 2} for i in range(4)])
        query = (
            Query.select("orders", Between("orderid", 0, 19))
            .join("customers", on="custid")
            .join("regions", on="region")
        )
        result = db.run_query(query)
        assert result.rows_matched == 20
        assert all("zone" in row for row in result.rows)

    def test_join_returns_a_new_query(self):
        base = Query.select("orders")
        joined = base.join("customers", on="custid")
        assert base.joins == ()
        assert [spec.table for spec in joined.joins] == ["customers"]
        assert joined.tables == ("orders", "customers")

    def test_duplicate_table_in_chain_rejected(self):
        query = Query.select("orders").join("customers", on="custid")
        with pytest.raises(ValueError, match="already appears"):
            query.join("customers", on="custid")
        with pytest.raises(ValueError, match="already appears"):
            query.join("orders", on="custid")

    def test_describe_renders_joins(self):
        query = Query.select("orders", Equals("custid", 7)).join(
            "customers", on="custid"
        )
        assert (
            query.describe()
            == "SELECT * FROM orders JOIN customers USING (custid) WHERE custid = 7"
        )
        renamed = Query.select("orders").join("customers", on=("custid", "id"))
        assert "JOIN customers ON custid = customers.id" in renamed.describe()

    def test_join_spec_requires_keys(self):
        with pytest.raises(ValueError, match="at least one key"):
            JoinSpec(table="customers", on=())

    def test_malformed_key_pairs_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            Query.select("orders").join("customers", on=[("custid", "id", "region")])
        with pytest.raises(ValueError, match="exactly"):
            Query.select("orders").join("customers", on=[("custid",)])


class TestJoinPlanningErrors:
    def test_unknown_join_column_rejected(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="kundennummer")
        with pytest.raises(ValueError, match="kundennummer"):
            db.run_query(query)

    def test_unknown_joined_table_rejected(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("invoices", on="custid")
        with pytest.raises(KeyError):
            db.run_query(query)

    def test_force_join_without_joins_rejected(self, join_db):
        db, _orders, _customers = join_db
        with pytest.raises(ValueError, match="force_join"):
            db.run_query(Query.select("orders"), force_join="nested_loop_join")

    def test_force_join_unknown_method_rejected(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        with pytest.raises(ValueError, match="unknown join method"):
            db.run_query(query, force_join="grace_hash_join")

    def test_force_index_join_without_structures_rejected(self, join_db):
        db, _orders, _customers = join_db
        # Neither table is clustered or indexed: no probe structure exists.
        query = Query.select("orders").join("customers", on="custid")
        with pytest.raises(ValueError, match="index_nested_loop_join"):
            db.run_query(query, force_join="index_nested_loop_join")

    def test_force_pipelined_driver_for_a_join(self, join_db):
        db, orders, _customers = join_db
        db.cluster("orders", "orderid")
        db.create_secondary_index("orders", "custid")
        query = Query.select("orders", Equals("custid", 3)).join(
            "customers", on="custid"
        )
        plan = db.planner.choose_join(db.tables, query, force="pipelined_index_scan")
        assert "pipelined_index_scan" in plan.structure
        result = db.run_query(query, force="pipelined_index_scan")
        assert result.rows_matched == sum(1 for o in orders if o["custid"] == 3)

    def test_join_limit_flips_the_driving_path(self):
        from repro.bench.harness import ExperimentScale, build_ebay_database

        db, _rows = build_ebay_database(ExperimentScale(0.25))
        db.create_secondary_index("items", "price")
        db.create_table("cats", columns=["catid", "zone"], tups_per_page=50)
        db.load("cats", [{"catid": c, "zone": c % 4} for c in range(100)])
        query = Query.select("items", Between("price", 100_000, 110_000)).join(
            "cats", on="catid"
        )
        unlimited = db.planner.choose_join(db.tables, query)
        limited = db.planner.choose_join(db.tables, query, limit=1)
        # Same flip as the single-table regression: the index driver's
        # upfront descents lose to limit-terminated streaming for one row
        # (today the winner is a cats-driven hash join whose probe sweep of
        # items stops at the first match).
        assert "items[sorted_index_scan" in unlimited.structure
        assert "sorted_index_scan" not in limited.structure
        assert limited.estimated_cost_ms < unlimited.estimated_cost_ms

    def test_tail_pages_priced_into_probe_options(self, join_db):
        db, _orders, _customers = join_db
        db.cluster("customers", "custid")
        table = db.table("customers")

        def clustered_probe_cost():
            options = db.planner._inner_strategy_options(table, ["custid"])
            return next(cost for s, cost, _i, _c in options if s == "clustered_index_scan")

        before = clustered_probe_cost()
        for i in range(500):
            table.insert_row(
                {"custid": 25 + i, "name": "x", "region": "r0"}, charge_io=False
            )
        # Every probe resweeps the unclustered tail, so the per-probe price
        # must grow with it (and eventually lose to the rescan baseline).
        assert clustered_probe_cost() > before

    def test_force_join_filters_by_step_composition_not_root(self, join_db):
        from repro.engine.executor import NestedLoopJoin

        db, _orders, _customers = join_db
        db.cluster("customers", "custid")  # probe structure on one inner only
        db.create_table("regions", columns=["region", "zone"], tups_per_page=10)
        db.load("regions", [{"region": f"r{i}", "zone": i % 2} for i in range(4)])
        query = (
            Query.select("orders")
            .join("customers", on="custid")
            .join("regions", on="region")
        )
        # The forced nested-loop baseline must not smuggle in probe steps,
        # even when a mixed chain happens to end in a nested-loop root.
        forced = db.planner.choose_join(db.tables, query, force_join="nested_loop_join")
        assert all(type(step) is NestedLoopJoin for step in forced.join_steps())
        # regions offers no probe structure, so a pure index-NLJ is impossible.
        with pytest.raises(ValueError, match="index_nested_loop_join"):
            db.planner.choose_join(db.tables, query, force_join="index_nested_loop_join")


class TestHashAndSortMergeOperators:
    """Edge cases of the set-at-a-time operators (ISSUE satellite)."""

    def test_empty_build_side_never_reads_the_probe_side(self, join_db):
        db, _orders, _customers = join_db
        db.create_table("coupons", columns=["custid", "percent"], tups_per_page=10)
        outer_heap = db.table("orders").heap
        before = outer_heap.logical_page_reads
        query = Query.select("orders").join("coupons", on="custid")
        result = db.run_query(query, force_join="hash_join")
        assert result.rows_matched == 0
        # The inner (build) side is empty, so not one probe row is pulled.
        assert outer_heap.logical_page_reads == before
        assert result.join_probes == 0

    def test_sort_merge_empty_outer_never_reads_the_inner(self, join_db):
        # Operator-level (the planner is free to reorder the chain): an
        # outer that produces no rows must not trigger the inner read, in
        # either the materialised-sort or the lazy pre-sorted outer path.
        from repro.engine.access import SeqScan
        from repro.engine.executor import SortMergeJoin
        from repro.engine.predicates import PredicateSet

        db, _orders, _customers = join_db
        inner_heap = db.table("customers").heap
        outer = SeqScan(db.table("orders"), PredicateSet((Equals("custid", 999),)))
        for outer_sorted in (False, True):
            before = inner_heap.logical_page_reads
            operator = SortMergeJoin(
                outer,
                SeqScan(db.table("customers"), PredicateSet()),
                [("custid", "custid")],
                outer_sorted=outer_sorted,
            )
            assert list(operator.iter_rows()) == []
            assert inner_heap.logical_page_reads == before

    def test_all_duplicate_keys_produce_the_full_cross_block(self, join_db):
        db, _orders, _customers = join_db
        db.create_table("lhs", columns=["k", "a"], tups_per_page=10)
        db.create_table("rhs", columns=["k", "b"], tups_per_page=10)
        db.load("lhs", [{"k": 7, "a": i} for i in range(30)])
        db.load("rhs", [{"k": 7, "b": i} for i in range(20)])
        query = Query.select("lhs").join("rhs", on="k")
        reference = db.run_query(query, force_join="nested_loop_join")
        assert reference.rows_matched == 30 * 20
        for strategy in ("hash_join", "sort_merge_join"):
            result = db.run_query(query, force_join=strategy)
            assert result.rows_matched == 30 * 20
            assert sorted((r["a"], r["b"]) for r in result.rows) == sorted(
                (r["a"], r["b"]) for r in reference.rows
            )

    def test_hash_join_limit_stops_mid_probe(self, join_db):
        db, _orders, _customers = join_db
        outer_heap = db.table("orders").heap
        before = outer_heap.logical_page_reads
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, force_join="hash_join", limit=3)
        # customers (25 rows) is the build side; orders streams as the probe
        # side and the satisfied LIMIT stops the probe sweep mid-table.
        assert result.rows_matched == 3
        assert result.rows_emitted == 3
        assert outer_heap.logical_page_reads - before < db.table("orders").num_pages

    def test_sort_merge_limit_stops_the_presorted_inner_sweep(self, join_db):
        db, _orders, _customers = join_db
        db.create_table("ledger", columns=["custid", "balance"], tups_per_page=10)
        db.load("ledger", [{"custid": c, "balance": float(c)} for c in range(200)])
        db.cluster("ledger", "custid")
        inner_heap = db.table("ledger").heap
        before = inner_heap.logical_page_reads
        query = Query.select("orders").join("ledger", on="custid")
        result = db.run_query(query, force_join="sort_merge_join", limit=2)
        assert result.rows_matched == 2
        # The inner is pre-sorted on the join key, so the merge pulls its
        # pages lazily and the LIMIT leaves most of them unread.
        assert inner_heap.logical_page_reads - before < db.table("ledger").num_pages

    def test_null_join_keys_match_consistently_across_strategies(self, join_db):
        # None == None matches under Python equality; the merge's ordering
        # comparisons must not crash on NULL keys and must agree with the
        # equality-based operators.
        db, _orders, _customers = join_db
        db.create_table("lhs", columns=["k", "a"], tups_per_page=10)
        db.create_table("rhs", columns=["k", "b"], tups_per_page=10)
        db.load("lhs", [{"k": 1, "a": 1}, {"k": None, "a": 2}, {"k": 2, "a": 3}])
        db.load("rhs", [{"k": None, "b": 10}, {"k": 2, "b": 20}, {"k": 3, "b": 30}])
        query = Query.select("lhs").join("rhs", on="k")
        reference = db.run_query(query, force_join="nested_loop_join")
        assert reference.rows_matched == 2  # (None, None) and (2, 2)
        for strategy in ("hash_join", "sort_merge_join"):
            result = db.run_query(query, force_join=strategy)
            assert sorted((r["a"], r["b"]) for r in result.rows) == sorted(
                (r["a"], r["b"]) for r in reference.rows
            )

    def test_counters_are_shared_across_build_and_probe_inputs(self, join_db):
        db, orders, customers = join_db
        orders_heap = db.table("orders").heap
        customers_heap = db.table("customers").heap
        before_orders = orders_heap.logical_page_reads
        before_customers = customers_heap.logical_page_reads
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, force_join="hash_join")
        orders_delta = orders_heap.logical_page_reads - before_orders
        customers_delta = customers_heap.logical_page_reads - before_customers
        # Each input is read exactly once and both land in one counter set.
        assert result.pages_visited == orders_delta + customers_delta
        assert result.rows_examined == len(orders) + len(customers)
        # One probe per probe-side row of the streamed input.
        assert result.join_probes == len(orders)

    def test_join_counters_thread_through_materialisation(self, join_db):
        # QueryResult reports the join's probes and emitted rows (they were
        # once dropped on the way, under-reporting the join's work).
        db, orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        result = db.run_query(query, force_join="hash_join")
        assert result.join_probes == len(orders)
        assert result.rows_emitted == result.rows_matched == len(orders)
        assert f"{result.join_probes} probes" in result.summary()
        single = db.run_query(Query.select("orders"))
        assert single.join_probes == 0
        assert "probes" not in single.summary()

    def test_forced_strategies_appear_in_explain_structures(self, join_db):
        db, _orders, _customers = join_db
        query = Query.select("orders").join("customers", on="custid")
        structures = [plan["structure"] for plan in db.explain(query)]
        assert any("hash build=" in s for s in structures)
        assert any("merge sort=" in s for s in structures)


class TestAmbiguousColumnDetection:
    """Non-join-key column collisions must fail loudly, not 'inner wins'."""

    @pytest.fixture
    def collision_db(self):
        db = Database(buffer_pool_pages=100)
        db.create_table("events", columns=["id", "ts", "region"], tups_per_page=10)
        db.create_table("users", columns=["uid", "region", "name"], tups_per_page=10)
        db.load("events", [{"id": i, "ts": i * 10, "region": f"r{i % 3}"} for i in range(30)])
        db.load("users", [{"uid": i, "region": f"r{i % 3}", "name": f"u{i}"} for i in range(9)])
        return db

    def test_non_key_collision_rejected_with_column_names(self, collision_db):
        query = Query.select("events").join("users", on=("id", "uid"))
        with pytest.raises(ValueError, match=r"ambiguous columns \['region'\]"):
            collision_db.run_query(query)
        with pytest.raises(ValueError, match="region"):
            list(collision_db.stream(query))

    def test_same_named_join_key_is_not_ambiguous(self, collision_db):
        query = Query.select("events").join("users", on="region")
        result = collision_db.run_query(query)
        assert result.rows_matched == 30 * 3  # 3 users per region

    def test_pair_join_on_the_shared_column_still_collides_elsewhere(self, collision_db):
        # Joining ("region", "region") as an explicit pair is same-named, so
        # it is exempt...
        ok = Query.select("events").join("users", on=[("region", "region")])
        assert collision_db.run_query(ok).rows_matched == 90
        # ...but a pair join on *different* names leaves 'region' ambiguous
        # even though it participates in the equality on one side.
        bad = Query.select("events").join("users", on=[("region", "uid")])
        with pytest.raises(ValueError, match=r"ambiguous columns \['region'\]"):
            collision_db.run_query(bad)

    def test_internal_bucket_column_is_exempt(self):
        db = Database(buffer_pool_pages=200)
        db.create_table("a", columns=["k", "x"], tups_per_page=10)
        db.create_table("b", columns=["k", "y"], tups_per_page=10)
        db.load("a", [{"k": i, "x": i} for i in range(100)])
        db.load("b", [{"k": i, "y": i} for i in range(100)])
        # Clustering with buckets adds the _cm_bucket column to both tables;
        # that engine-internal collision must not trip the check.
        db.cluster("a", "k", pages_per_bucket=2)
        db.cluster("b", "k", pages_per_bucket=2)
        query = Query.select("a").join("b", on="k")
        assert db.run_query(query).rows_matched == 100

    def test_third_table_collision_against_earlier_chain_member(self, collision_db):
        collision_db.create_table("audits", columns=["aid", "ts"], tups_per_page=10)
        collision_db.load("audits", [{"aid": i, "ts": i} for i in range(5)])
        query = (
            Query.select("events")
            .join("users", on="region")
            .join("audits", on=("id", "aid"))
        )
        # audits.ts collides with events.ts two steps back.
        with pytest.raises(ValueError, match=r"ambiguous columns \['ts'\]"):
            collision_db.run_query(query)

    def test_user_underscore_columns_are_not_exempt(self):
        # Only the engine's own bucket column is exempt; a user column that
        # happens to start with an underscore still collides loudly.
        db = Database(buffer_pool_pages=100)
        db.create_table("a", columns=["k", "_note"], tups_per_page=10)
        db.create_table("b", columns=["k", "_note"], tups_per_page=10)
        db.load("a", [{"k": i, "_note": f"a{i}"} for i in range(10)])
        db.load("b", [{"k": i, "_note": f"b{i}"} for i in range(10)])
        query = Query.select("a").join("b", on="k")
        with pytest.raises(ValueError, match=r"ambiguous columns \['_note'\]"):
            db.run_query(query)
