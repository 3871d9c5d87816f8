"""Plan enumeration must never touch the heap (counter-based, no wall clock).

The paper's point is that a CM keeps *lookups* cheap because the map is tiny
and memory-resident; a planner that scans the table to cost its candidates
defeats that on the hot path.  These guards assert -- via the heap's logical
page-read counter, which counts even accounting-free reads -- that
``Planner.candidate_plans`` and ``Planner.choose`` perform zero heap page
reads, including right after inserts and deletes invalidate the cached
statistics -- and that the re-derived selectivities come from compiled count
kernels over the sample's column vectors, never from per-row
``Predicate.matches`` calls.
"""

import pytest

from repro.bench.harness import ExperimentScale, build_ebay_database
from repro.engine.predicates import Between, Equals, ExpressionPredicate, InSet, Predicate
from repro.engine.query import Query


@pytest.fixture()
def planner_database():
    """A fresh (mutable) eBay-style database with an index and a CM on price."""
    db, rows = build_ebay_database(ExperimentScale(0.25))
    db.create_secondary_index("items", "price")
    db.create_correlation_map("items", ["price"], name="cm_price")
    return db, rows


QUERIES = [
    Query.select("items", Between("price", 1000, 1100)),
    Query.select("items", Equals("price", 1234.5)),
    Query.select("items", InSet("catid", [3, 57, 91])),
    Query.select("items", Equals("cat2", "group4")),
    Query.select("items", Between("price", 0, 9_000)),
]


@pytest.fixture()
def matches_calls(monkeypatch):
    """A list that grows by one on every ``Predicate.matches`` call."""
    calls = []
    for cls in (Predicate, *Predicate.__subclasses__()):
        original = cls.__dict__.get("matches")
        if original is None:
            continue

        def counted(self, row, _original=original):
            calls.append(self)
            return _original(self, row)

        monkeypatch.setattr(cls, "matches", counted)
    return calls


def heap_reads(db):
    return db.table("items").heap.logical_page_reads


def plan_everything(db):
    table = db.table("items")
    for query in QUERIES:
        db.planner.candidate_plans(table, query)
        db.planner.choose(table, query)
        db.planner.choose(table, query, force="seq_scan")
        # LIMIT-aware selection estimates result sizes from the sample, so
        # it must stay off the heap too.
        db.planner.choose(table, query, limit=5)
    db.planner.choose(
        table, Query.select("items", Between("price", 1000, 1100)),
        force="pipelined_index_scan",
    )


def test_planning_performs_zero_heap_page_reads(planner_database):
    db, _rows = planner_database
    before_reads = heap_reads(db)
    before_io = db.disk.snapshot()
    plan_everything(db)
    assert heap_reads(db) == before_reads
    assert db.disk.window_since(before_io).pages_read == 0


def test_planning_after_updates_stays_off_the_heap(planner_database, matches_calls):
    """Inserts/deletes invalidate cached statistics; replanning must still be
    served from the incrementally-maintained sample, not a heap scan, and
    without evaluating any predicate row by row."""
    assert not any(
        isinstance(predicate, ExpressionPredicate)
        for query in QUERIES
        for predicate in query.predicates
    )
    db, rows = planner_database
    table = db.table("items")
    template = dict(rows[0])
    inserted = []
    for i in range(25):
        row = dict(template)
        row["itemid"] = 90_000_000 + i
        inserted.append(table.insert_row(row, charge_io=False))
    before = heap_reads(db)
    plan_everything(db)
    assert heap_reads(db) == before
    assert matches_calls == []

    for rid in inserted[:5]:
        table.delete_row(rid, charge_io=False)
    before = heap_reads(db)
    plan_everything(db)
    assert heap_reads(db) == before
    assert matches_calls == []
