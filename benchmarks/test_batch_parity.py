"""Page-parity guard: the batched executor on the Fig. 1 access patterns.

Figure 1 is about *which heap pages* an access method touches -- correlated
lookups sweep a few sequential runs, uncorrelated ones scatter across the
file.  Batching must not change a single one of those numbers: page reads,
sequential/random classification, lookups and simulated elapsed time have to
be bit-identical between batch size 1 (row-at-a-time delivery) and the
default batch size on exactly these scenarios (the correlated and
uncorrelated shipdate/suppkey lookups, under every applicable access
method) -- and, at the default experiment scale, equal to the committed
golden record (``tests/golden.py``), so a change that moved both modes
together is caught too.  This is the structural invariant CI smoke-checks
alongside the planner's zero-heap-read guarantee.
"""

import random

import pytest

from repro.engine.executor import DEFAULT_BATCH_SIZE
from repro.engine.predicates import InSet
from repro.engine.query import Query
from tests.golden import assert_golden, has_golden


def _pick_values(rows, attribute, count, seed):
    rng = random.Random(seed)
    return rng.sample(sorted({row[attribute] for row in rows}), count)


def _run_both(db, query, force, key):
    """Batch size 1 vs the default batch size of one lookup, head reset
    between; both must match the golden entry ``key`` when one exists."""
    original = db.batch_size
    results = []
    try:
        for batch_size in (1, DEFAULT_BATCH_SIZE):
            db.batch_size = batch_size
            db.reset_measurements()
            result = db.run_query(query, force=force, cold_cache=True)
            if has_golden(key):
                assert_golden(key, result)
            results.append(result)
    finally:
        db.batch_size = original
    return results


def _golden_key(name, experiment_scale):
    return f"fig1/{name}@scale={experiment_scale.factor}"


@pytest.mark.parametrize("attribute", ["shipdate", "suppkey"])
@pytest.mark.parametrize(
    "layout", ["tpch_correlated", "tpch_uncorrelated"]
)
@pytest.mark.parametrize(
    "force", ["seq_scan", "sorted_index_scan", "pipelined_index_scan"]
)
def test_fig1_lookup_page_parity(request, experiment_scale, layout, attribute, force):
    """Every batch size touches identical pages on the Fig. 1 lookup patterns."""
    db, rows = request.getfixturevalue(layout)
    values = _pick_values(rows, attribute, 3, seed=1 if attribute == "shipdate" else 2)
    query = Query.select("lineitem", InSet(attribute, values))
    key = _golden_key(f"{layout}/{attribute}/{force}", experiment_scale)
    single_result, batched_result = _run_both(db, query, force, key)

    assert single_result.rows_matched > 0
    assert batched_result.rows_matched == single_result.rows_matched
    assert batched_result.rows == single_result.rows
    assert batched_result.pages_visited == single_result.pages_visited
    assert batched_result.rows_examined == single_result.rows_examined
    assert batched_result.io == single_result.io  # incl. sequential/random split
    assert batched_result.elapsed_ms == pytest.approx(
        single_result.elapsed_ms, abs=1e-9
    )


def test_fig1_cm_lookup_page_parity(experiment_scale):
    """The CM-guided scan keeps page parity too (the paper's central plan).

    Builds its own database: adding a correlation map to the shared
    session-scoped fixture would change which plans later benchmarks get.
    """
    from repro.bench.harness import build_tpch_database

    db, rows = build_tpch_database(experiment_scale, cluster_on="receiptdate")
    db.create_correlation_map("lineitem", ["shipdate"], name="cm_shipdate")
    values = _pick_values(rows, "shipdate", 3, seed=1)
    query = Query.select("lineitem", InSet("shipdate", values))
    key = _golden_key("cm_scan", experiment_scale)
    single_result, batched_result = _run_both(db, query, "cm_scan", key)
    assert single_result.rows_matched > 0
    assert batched_result.rows == single_result.rows
    assert batched_result.pages_visited == single_result.pages_visited
    assert batched_result.io == single_result.io
    assert batched_result.rewritten_sql == single_result.rewritten_sql
