"""Differential fuzzer: every batch size gives the same, correct answer.

Each seed derives one random query -- conjunctive predicates, an optional
equi-join, one of three output shapes (plain rows with projection / ORDER BY /
LIMIT, a scalar aggregate, or a grouped aggregate) -- and executes it at batch
size 1 (row-at-a-time delivery) and several batch sizes up to 4096.  Three
independent checks apply:

* every batch size must produce identical rows (same order), the same
  aggregate value and *bit-identical* simulated counters: rows examined,
  pages visited, join probes, the full I/O breakdown and the simulated
  elapsed time;
* the rows and value must be a correct answer according to the reference
  evaluator of ``tests/oracle.py``, which shares no code with the engine;
* for the CI corpus (seeds below :data:`tests.golden.GOLDEN_FUZZ_SEEDS`) the
  counters, per-node actuals and a digest of the rows must reproduce the
  committed golden fixture (``tests/golden.py``).

This is the engine's central parity contract (see
``benchmarks/test_batch_parity.py`` for the curated Figure 1 scenarios); the
fuzzer guards the long tail of shape combinations no curated test enumerates.

The tier-1 corpus is small (see ``--fuzz-iterations`` in the root
``conftest.py``); soak runs widen it::

    PYTHONPATH=src python -m pytest tests/engine/test_fuzz_parity.py --fuzz-iterations 500
"""

import math
import random

import pytest

from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Between, Equals, InSet
from repro.engine.query import Aggregate, Query
from tests import oracle
from tests.golden import GOLDEN_FUZZ_SEEDS, assert_golden

#: Batch sizes the fuzzer samples from -- degenerate (1-row batches), odd
#: (never page-aligned), the default-ish, and larger-than-the-table.
BATCH_SIZES = (1, 2, 3, 7, 32, 64, 256, 1024, 4096)

NUM_CATEGORIES = 80
NUM_ROWS = 2400


def build_fuzz_rows():
    rng = random.Random(1234)
    rows = []
    for i in range(NUM_ROWS):
        price = rng.uniform(0, 10_000)
        catid = int(price // (10_000 / NUM_CATEGORIES))
        rows.append(
            {
                "itemid": i,
                "catid": catid,
                "cat2": f"group{catid // 10}",
                "price": price,
                "qty": rng.randrange(0, 20),
            }
        )
    return rows


@pytest.fixture(scope="module")
def fuzz_database():
    """items (clustered, price index) plus a cats dimension table for joins."""
    rows = build_fuzz_rows()
    db = Database(buffer_pool_pages=400)
    db.create_table("items", sample_row=rows[0], tups_per_page=40)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=4)
    db.create_secondary_index("items", "price")
    cat_rows = build_cat_rows()
    db.create_table("cats", sample_row=cat_rows[0], tups_per_page=40)
    db.load("cats", cat_rows)
    db.create_table("catsf", sample_row=cat_rows[0], tups_per_page=40)
    db.load("catsf", cat_rows)
    return db


def build_cat_rows():
    return [
        {"catid": c, "label": f"cat{c}", "region": f"r{c % 5}"}
        for c in range(NUM_CATEGORIES)
    ]


@pytest.fixture(scope="module")
def oracle_tables():
    """The fuzz tables as plain row lists, for the reference evaluator."""
    cat_rows = build_cat_rows()
    return {"items": build_fuzz_rows(), "cats": cat_rows, "catsf": cat_rows}


def modes_of(batch_sizes):
    """Batch size 1 (the reference) followed by the sampled sizes."""
    return [1] + [size for size in batch_sizes if size != 1]


# ---------------------------------------------------------------------------
# Seeded query generation
# ---------------------------------------------------------------------------

def _random_predicates(rng):
    predicates = []
    for _ in range(rng.randrange(0, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            predicates.append(Equals("catid", rng.randrange(NUM_CATEGORIES)))
        elif kind == 1:
            low = rng.uniform(0, 9_000)
            predicates.append(Between("price", low, low + rng.uniform(100, 4_000)))
        elif kind == 2:
            values = rng.sample(range(NUM_CATEGORIES), rng.randrange(1, 6))
            predicates.append(InSet("catid", sorted(values)))
        elif kind == 3:
            low = rng.randrange(0, 15)
            predicates.append(Between("qty", low, low + rng.randrange(1, 6)))
        else:
            predicates.append(Equals("cat2", f"group{rng.randrange(8)}"))
    return predicates


def _random_aggregate(rng):
    return rng.choice(
        [
            Aggregate.count(),
            Aggregate.sum("price"),
            Aggregate.avg("price"),
            Aggregate.count_distinct("catid"),
        ]
    )


def generate_query(seed):
    """One random query (and an optional forced access method) per seed."""
    rng = random.Random(seed)
    predicates = _random_predicates(rng)
    joined = rng.random() < 0.35
    shape = rng.choice(["plain", "plain", "scalar", "grouped"])

    kwargs = {}
    if shape == "scalar":
        kwargs["aggregate"] = _random_aggregate(rng)
    elif shape == "grouped":
        group = rng.choice([("catid",), ("cat2",), ("catid", "cat2")])
        kwargs["aggregate"] = rng.choice(
            [Aggregate.count(), Aggregate.avg("price"), Aggregate.sum("qty")]
        )
        kwargs["group_by"] = group
        if rng.random() < 0.5:
            kwargs["order_by"] = [rng.choice([col, f"-{col}"]) for col in group]
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 3, 10])
        if rng.random() < 0.3:
            kwargs["projection"] = group  # drop the aggregate column
    else:
        columns = ["itemid", "catid", "cat2", "price", "qty"]
        if joined:
            columns += ["label", "region"]
        if rng.random() < 0.4:
            kwargs["projection"] = rng.sample(columns, rng.randrange(1, 4))
        if rng.random() < 0.5:
            order_columns = rng.sample(["price", "itemid", "catid", "qty"], 2)
            kwargs["order_by"] = [
                column if rng.random() < 0.5 else f"-{column}"
                for column in order_columns
            ]
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 5, 37, 500])

    query = Query.select("items", *predicates, name=f"fuzz_{seed}", **kwargs)
    if joined:
        local = [Equals("region", f"r{rng.randrange(5)}")] if rng.random() < 0.5 else []
        query = query.join("cats", "catid", *local)

    force = "seq_scan" if rng.random() < 0.25 else None
    batch_sizes = rng.sample(BATCH_SIZES, 3)
    return query, force, batch_sizes


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------

def run_mode(db, query, batch_size, force):
    """Execute under one batching mode from an identical cold start."""
    db.batch_size = batch_size
    db.reset_measurements()
    return db.run_query(query, force=force, cold_cache=True)


def assert_bit_identical(reference, candidate, *, context):
    """Rows AND every simulated counter must match exactly -- no tolerance."""
    assert candidate.access_method == reference.access_method, context
    assert candidate.rows == reference.rows, context
    assert candidate.value == reference.value, context
    assert candidate.rows_examined == reference.rows_examined, context
    assert candidate.rows_matched == reference.rows_matched, context
    assert candidate.rows_emitted == reference.rows_emitted, context
    assert candidate.pages_visited == reference.pages_visited, context
    assert candidate.join_probes == reference.join_probes, context
    assert candidate.io == reference.io, context  # incl. sequential/random split
    assert candidate.elapsed_ms == reference.elapsed_ms, context
    assert candidate.rewritten_sql == reference.rewritten_sql, context


def pytest_generate_tests(metafunc):
    if "fuzz_seed" in metafunc.fixturenames:
        iterations = metafunc.config.getoption("--fuzz-iterations")
        metafunc.parametrize("fuzz_seed", range(iterations))


def test_fuzz_batch_parity(fuzz_database, oracle_tables, fuzz_seed):
    db = fuzz_database
    query, force, batch_sizes = generate_query(fuzz_seed)
    original = db.batch_size
    try:
        reference = None
        for batch_size in modes_of(batch_sizes):
            result = run_mode(db, query, batch_size, force)
            context = (
                f"seed={fuzz_seed} batch_size={batch_size} "
                f"force={force} query={query.describe()}"
            )
            if reference is None:
                reference = result
                oracle.check(query, oracle_tables, result)
            else:
                assert_bit_identical(reference, result, context=context)
            if fuzz_seed < GOLDEN_FUZZ_SEEDS:
                assert_golden(f"fuzz/flat/{fuzz_seed}", result)
    finally:
        db.batch_size = original


# ---------------------------------------------------------------------------
# Partitioned storage: the same contract across layouts and execution modes
# ---------------------------------------------------------------------------

#: Partition layouts the partition fuzzer samples -- including the
#: degenerate single partition, on both methods.
PARTITION_LAYOUTS = tuple(
    f"{method}{count}" for method in ("hash", "range") for count in (1, 2, 4, 8)
)


def _partition_spec(label):
    method, count = label.rstrip("0123456789"), int(label.lstrip("hasrnge"))
    if method == "hash":
        return PartitionSpec.by_hash("catid", count)
    boundaries = [NUM_CATEGORIES * i // count for i in range(1, count)]
    return PartitionSpec.by_range("catid", boundaries)


@pytest.fixture(scope="module")
def partitioned_databases():
    """The fuzz tables under every partition layout (plus price index).

    ``cats`` is co-partitioned with ``items`` on ``catid`` (partition-wise
    joins pick the co-partitioned shape); ``catsf`` holds the same rows in a
    single flat heap (joins against it plan broadcast or repartition).  The
    flat reference database carries both names as ordinary flat tables, so
    any generated query runs unchanged on both sides of the differential.
    """
    rows = build_fuzz_rows()
    cat_rows = build_cat_rows()
    databases = {}
    for label in PARTITION_LAYOUTS:
        db = Database(buffer_pool_pages=400)
        db.create_table(
            "items",
            sample_row=rows[0],
            tups_per_page=40,
            partition_by=_partition_spec(label),
        )
        db.load("items", rows)
        db.create_secondary_index("items", "price")
        db.create_table(
            "cats",
            sample_row=cat_rows[0],
            tups_per_page=40,
            partition_by=_partition_spec(label),
        )
        db.load("cats", cat_rows)
        db.create_table("catsf", sample_row=cat_rows[0], tups_per_page=40)
        db.load("catsf", cat_rows)
        databases[label] = db
    return databases


def generate_partition_query(seed):
    """One random query (possibly a join) plus a layout and execution modes."""
    rng = random.Random(seed + 777_000)
    predicates = _random_predicates(rng)
    joined = rng.random() < 0.35
    join_target = rng.choice(["cats", "catsf"])
    shape = rng.choice(["plain", "plain", "scalar", "grouped"])
    kwargs = {}
    if shape == "scalar":
        kwargs["aggregate"] = _random_aggregate(rng)
    elif shape == "grouped":
        group = rng.choice([("catid",), ("cat2",), ("catid", "cat2")])
        kwargs["aggregate"] = rng.choice(
            [Aggregate.count(), Aggregate.avg("price"), Aggregate.sum("qty")]
        )
        kwargs["group_by"] = group
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 3, 10])
    else:
        columns = ["itemid", "catid", "cat2", "price", "qty"]
        if joined:
            columns += ["label", "region"]
        if rng.random() < 0.4:
            kwargs["projection"] = rng.sample(columns, rng.randrange(1, 4))
        if rng.random() < 0.5:
            order_columns = rng.sample(["price", "itemid", "catid", "qty"], 2)
            kwargs["order_by"] = [
                column if rng.random() < 0.5 else f"-{column}"
                for column in order_columns
            ]
            # Half the ordered queries get a unique tiebreaker so the order
            # is total and LIMITed rows compare across layouts.
            if "itemid" not in order_columns and rng.random() < 0.5:
                kwargs["order_by"].append("itemid")
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 5, 37, 500])
    query = Query.select("items", *predicates, name=f"pfuzz_{seed}", **kwargs)
    if joined:
        local = [Equals("region", f"r{rng.randrange(5)}")] if rng.random() < 0.5 else []
        query = query.join(join_target, "catid", *local)
    label = rng.choice(PARTITION_LAYOUTS)
    batch_sizes = rng.sample(BATCH_SIZES, 2)
    workers = rng.choice([None, 2, 3])
    return query, label, batch_sizes, workers


def _values_close(left, right):
    """Exact for ints/strings/None; last-ulp tolerance for float sums.

    Partitioning (and parallel partial merging) reorders float additions,
    so sums/averages may drift in the last ulps across layouts and
    execution modes -- every *counter* still matches bit for bit.
    """
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
    return left == right


def _user_columns(row):
    """Drop internal bookkeeping columns (e.g. the clustering ``_cm_bucket``)."""
    return {key: value for key, value in row.items() if not key.startswith("_")}


def _stable_key(row):
    """Deterministic sort key over all columns.

    Non-float columns come first so possibly ulp-drifted float aggregates
    never decide the primary order (grouped rows are already unique on
    their group keys); the float tiebreaker only matters for plain rows,
    whose stored float values are bit-exact across layouts.
    """
    exact = tuple(
        (key, value)
        for key, value in sorted(row.items())
        if not isinstance(value, float)
    )
    floats = tuple(
        (key, repr(value))
        for key, value in sorted(row.items())
        if isinstance(value, float)
    )
    return exact, floats


def _rows_close(left_rows, right_rows, *, same_order):
    if len(left_rows) != len(right_rows):
        return False
    left_rows = [_user_columns(row) for row in left_rows]
    right_rows = [_user_columns(row) for row in right_rows]
    if not same_order:
        left_rows = sorted(left_rows, key=_stable_key)
        right_rows = sorted(right_rows, key=_stable_key)
    for left, right in zip(left_rows, right_rows):
        if sorted(left) != sorted(right):
            return False
        if not all(_values_close(left[column], right[column]) for column in left):
            return False
    return True


def assert_layouts_equivalent(flat, part, *, context):
    """Partitioned result content matches the single-heap run.

    Physical page counts legitimately differ (per-partition heaps round up
    to whole pages; pruning *reduces* rows examined), and row order under a
    partial ORDER BY or no ORDER BY differs, so this asserts result
    equivalence: matched-row count, aggregate value (float-tolerant), and
    the full sorted row multiset.  Under a LIMIT the kept subset is
    layout-dependent *unless* the ordering is total (it names the unique
    ``itemid``), in which case the merged partitioned rows must equal the
    flat rows exactly and in order.
    """
    assert part.rows_matched == flat.rows_matched, context
    assert part.rewritten_sql == flat.rewritten_sql, context
    if flat.query.aggregate is not None and not flat.query.grouping:
        assert _values_close(part.value, flat.value), context
        return
    if flat.query.limit is not None:
        total_order = any(
            column == "itemid" for column, _ascending in flat.query.ordering
        )
        if total_order:
            assert _rows_close(part.rows, flat.rows, same_order=True), context
        return
    assert _rows_close(part.rows, flat.rows, same_order=False), context


def assert_modes_identical(reference, candidate, *, context):
    """Serial/batched/parallel runs of one partitioned layout: bit-identical.

    Everything simulated must match exactly -- counters, the full I/O
    breakdown including the sequential/random split, and elapsed time.
    The single tolerated drift is float aggregate values under parallel
    partial merging (see :func:`_values_close`); rows keep their order.
    """
    assert candidate.access_method == reference.access_method, context
    assert candidate.rows_examined == reference.rows_examined, context
    assert candidate.rows_matched == reference.rows_matched, context
    assert candidate.rows_emitted == reference.rows_emitted, context
    assert candidate.pages_visited == reference.pages_visited, context
    assert candidate.join_probes == reference.join_probes, context
    assert candidate.io == reference.io, context
    assert candidate.elapsed_ms == reference.elapsed_ms, context
    assert candidate.rewritten_sql == reference.rewritten_sql, context
    assert _values_close(candidate.value, reference.value), context
    assert _rows_close(candidate.rows, reference.rows, same_order=True), context


def run_partitioned(db, query, batch_size, *, parallel=None):
    """Execute one partitioned mode from an identical cold start."""
    db.batch_size = batch_size
    db.reset_measurements()
    return db.run_query(query, cold_cache=True, parallel=parallel)


def test_fuzz_partition_parity(
    fuzz_database, partitioned_databases, oracle_tables, fuzz_seed
):
    query, label, batch_sizes, workers = generate_partition_query(fuzz_seed)
    flat = fuzz_database
    part = partitioned_databases[label]
    golden = fuzz_seed < GOLDEN_FUZZ_SEEDS
    key = f"fuzz/part/{fuzz_seed}"
    flat_original, part_original = flat.batch_size, part.batch_size
    try:
        modes = modes_of(batch_sizes)
        flat_reference = run_mode(flat, query, modes[0], None)
        reference = run_partitioned(part, query, modes[0])
        context = (
            f"seed={fuzz_seed} layout={label} workers={workers} "
            f"query={query.describe()}"
        )
        assert_layouts_equivalent(flat_reference, reference, context=context)
        oracle.check(query, oracle_tables, reference)
        if golden:
            assert_golden(f"{key}/flat", flat_reference)
            assert_golden(key, reference)
        for batch_size in modes[1:]:
            candidate = run_partitioned(part, query, batch_size)
            assert_modes_identical(
                reference, candidate, context=f"{context} batch_size={batch_size}"
            )
            if golden:
                assert_golden(key, candidate)
        if workers is not None:
            for batch_size in modes[:2]:
                candidate = run_partitioned(
                    part, query, batch_size, parallel=workers
                )
                assert_modes_identical(
                    reference,
                    candidate,
                    context=f"{context} parallel batch_size={batch_size}",
                )
                if golden:
                    assert_golden(key, candidate, rows=False)
    finally:
        flat.batch_size = flat_original
        part.batch_size = part_original


def test_partition_corpus_covers_every_shape():
    """The partition corpus keeps exercising layouts, parallelism and shapes."""
    counters = {
        "hash": 0,
        "range": 0,
        "multiway": 0,
        "parallel": 0,
        "scalar": 0,
        "grouped": 0,
        "pruning_predicate": 0,
        "join_co_partitioned": 0,
        "join_flat_build": 0,
        "ordered": 0,
        "ordered_total_limit": 0,
    }
    for seed in range(24):
        query, label, _batch_sizes, workers = generate_partition_query(seed)
        if label.startswith("hash"):
            counters["hash"] += 1
        if label.startswith("range"):
            counters["range"] += 1
        if int(label.lstrip("hasrnge")) > 1:
            counters["multiway"] += 1
        if workers is not None:
            counters["parallel"] += 1
        if query.aggregate is not None and not query.grouping:
            counters["scalar"] += 1
        if query.grouping:
            counters["grouped"] += 1
        if query.predicates.on_attribute("catid"):
            counters["pruning_predicate"] += 1
        targets = {spec.table for spec in query.joins}
        if "cats" in targets:
            counters["join_co_partitioned"] += 1
        if "catsf" in targets:
            counters["join_flat_build"] += 1
        if query.ordering:
            counters["ordered"] += 1
        if query.limit is not None and any(
            column == "itemid" for column, _ascending in query.ordering
        ):
            counters["ordered_total_limit"] += 1
    missing = [shape for shape, count in counters.items() if count == 0]
    assert not missing, f"partition corpus never generates: {missing}"


def test_corpus_covers_every_shape():
    """The default corpus must keep exercising joins, aggregates and sorts.

    Guards the generator itself: a refactor that silently degenerates the
    corpus (e.g. every seed producing a bare scan) would leave the parity
    contract unguarded while the suite stays green.
    """
    shapes = {"join": 0, "scalar": 0, "grouped": 0, "ordered": 0, "limited": 0}
    for seed in range(24):
        query, _force, _batch_sizes = generate_query(seed)
        if query.joins:
            shapes["join"] += 1
        if query.aggregate is not None and not query.grouping:
            shapes["scalar"] += 1
        if query.grouping:
            shapes["grouped"] += 1
        if query.ordering:
            shapes["ordered"] += 1
        if query.limit is not None:
            shapes["limited"] += 1
    missing = [shape for shape, count in shapes.items() if count == 0]
    assert not missing, f"default corpus never generates: {missing}"
