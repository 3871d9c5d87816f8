"""The benchmark workloads: data, set-up, a seeded operation stream, and
the reference answer every operation is checked against.

Each workload builds its tables from the repository's dataset generators
(fixed data seeds, so table and page counts are the paper-scale ones), and
draws its operations from ``--seed``: which keys are hot (Zipf-skewed), which
ranges are asked for, which rows are inserted, and the advisor's sampling
seed.  The engine only ever receives the generated rows, ``Query`` objects,
predicates and ``TrainingQuery`` objects.

The reference answers never come from the engine: they are computed in plain
Python from the generated rows (per-key sum/count dicts, a sorted price array
with bisect, plain group-by, top-k and join), or for the advisor read from
``reference_advise.json``, recorded by ``record_reference.py``.

Every workload is a closed loop with one client.  A *pass* is one seeded
list of operations; the runner repeats passes until the measuring time is
up.  Every pass writes (which invalidates the planner's cached statistics),
reads and asks the advisor, so the passes are alike and a run's figures do
not depend on how many it made.  The kinds, popularity ranks and widths of
a pass's operations come from a seed-independent stream; the seed picks the
keys, window positions, inserted rows and the advisor's sample, so that
every seed asks for about the same amount of work.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import json
import math
import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import (
    Aggregate,
    Between,
    CMAdvisor,
    Database,
    PartitionSpec,
    Query,
    TableProfile,
    TrainingQuery,
    WidthBucketer,
)
from repro.bench.harness import (
    EBAY_SEEK_SCALE,
    TPCH_SEEK_SCALE,
    ExperimentScale,
    scaled_disk_parameters,
)
from repro.datasets.ebay import EbayConfig, generate_items
from repro.datasets.tpch import TPCHConfig, generate_lineitem, generate_orders
from repro.datasets.workloads import (
    ebay_category_query,
)
from repro.engine.scheduler import QueryScheduler

import hostspeed

REFERENCE_FILE = Path(__file__).with_name("reference_advise.json")

#: The advisor's sampling seed is ``seed % ADVISOR_SEEDS``; the reference
#: recommendation is recorded for each of these.
ADVISOR_SEEDS = 8

#: Set-up phases, in order; their sum is ``setup_s``.
SETUP_PHASES = ("generate", "load", "cluster", "index_build", "cm_build", "warmup")

CATEGORY_ATTRS = ("cat3", "cat4", "cat5", "cat6")

#: Planner statistics sample of the analytics tables.
ANALYTICS_STATS_SAMPLE = 10_000

#: Insert calls per pass; ``insert_rows_per_s`` is their median rate, which
#: a pause of the host or the collector inside one call does not move.
CHURN_BATCHES = 4


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    """One client request: what to run, and how to judge its answer.

    ``kind`` is ``query`` (one ``run_query``), ``group`` (a list of queries
    served by a ``QueryScheduler``), ``insert``, ``delete`` or ``advise``.
    ``check`` receives the engine's answer (a ``QueryResult``, a
    ``MaintenanceResult``, a ``Recommendation`` or, for a group, the list
    of ``ScheduledQuery`` entries) and returns an error message or ``None``.
    """

    kind: str
    shape: str
    payload: Any
    check: Check
    kwargs: dict[str, Any] = field(default_factory=dict)


def _close(actual: Any, expected: Any) -> bool:
    """Equality, with a relative tolerance for floating-point aggregates
    (the engine and the reference add in different orders)."""
    if isinstance(actual, float) or isinstance(expected, float):
        return (
            actual is not None
            and expected is not None
            and math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-6)
        )
    return actual == expected


def expect_value(expected: Any) -> Check:
    def check(result: Any) -> str | None:
        if _close(result.value, expected):
            return None
        return f"value {result.value!r}, expected {expected!r}"

    return check


def expect_groups(group_column: str, value_column: str, expected: dict[Any, Any]) -> Check:
    def check(result: Any) -> str | None:
        actual = {row[group_column]: row[value_column] for row in result.rows}
        if len(actual) != len(result.rows):
            return "duplicate groups"
        if actual.keys() != expected.keys():
            return f"groups {sorted(actual)}, expected {sorted(expected)}"
        wrong = [key for key in expected if not _close(actual[key], expected[key])]
        return f"wrong totals for groups {wrong}" if wrong else None

    return check


def expect_keys(columns: Sequence[str], expected: list[tuple[Any, ...]]) -> Check:
    def check(result: Any) -> str | None:
        actual = [tuple(row[c] for c in columns) for row in result.rows]
        return None if actual == expected else f"ordered keys differ ({len(actual)} rows)"

    return check


def expect_affected(expected: int) -> Check:
    def check(result: Any) -> str | None:
        if result.rows_affected == expected:
            return None
        return f"{result.rows_affected} rows affected, expected {expected}"

    return check


def expect_group(checks: Sequence[Check]) -> Check:
    def check(entries: Any) -> str | None:
        if len(entries) != len(checks):
            return f"{len(entries)} scheduled results, expected {len(checks)}"
        for entry, inner in zip(entries, checks):
            if entry.error is not None:
                return f"{entry.label}: {entry.error!r}"
            problem = inner(entry.result)
            if problem:
                return f"{entry.label}: {problem}"
        return None

    return check


def recommendation_digest(recommendation: Any) -> dict[str, Any]:
    """What the advise reference pins: the pick, the count and the ranking."""
    ranking = [
        [
            design.describe(),
            f"{design.slowdown:.6g}",
            f"{design.estimated_size_bytes:.6g}",
            f"{design.estimated_c_per_u:.6g}",
        ]
        for design in recommendation.designs_by_slowdown()
    ]
    recommended = recommendation.recommended
    return {
        "recommended": recommended.describe() if recommended is not None else None,
        "designs": len(recommendation.designs),
        "ranking_sha256": hashlib.sha256(json.dumps(ranking).encode()).hexdigest(),
    }


def reference_key(workload: str, query: str, advisor_seed: int, scale: float) -> str:
    return f"{workload}/{query}/seed{advisor_seed}/scale{scale:g}"


def expect_recommendation(key: str, references: Mapping[str, Any]) -> Check:
    def check(recommendation: Any) -> str | None:
        expected = references.get(key)
        if expected is None:
            return f"no recorded reference {key!r}"
        actual = recommendation_digest(recommendation)
        return None if actual == expected else f"{key}: {actual} != recorded {expected}"

    return check


def load_references() -> dict[str, Any]:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# seeded choices
# ---------------------------------------------------------------------------

class Zipf:
    """Zipf-skewed popularity: rank ``r`` is drawn with weight ``1 / r**skew``.

    Ranks map to keys so that every seed asks for about the same amount of
    work: the keys are sorted by ``size`` into classes of ``CLASS_SIZE``
    neighbours, a fixed shuffle gives each class its block of ranks, and the
    seed only orders the keys inside each block.  Which keys are hot changes
    with the seed; how large the hot keys are does not.
    """

    CLASS_SIZE = 8

    def __init__(self, items: Sequence[Any], size: Callable[[Any], float], rng: random.Random, skew: float = 1.1) -> None:
        ordered = sorted(items, key=size)
        classes = [ordered[i: i + self.CLASS_SIZE] for i in range(0, len(ordered), self.CLASS_SIZE)]
        random.Random("zipf-classes").shuffle(classes)
        for members in classes:
            rng.shuffle(members)
        self.items = [item for members in classes for item in members]
        self.cum_weights = list(
            itertools.accumulate(1.0 / (rank ** skew) for rank in range(1, len(self.items) + 1))
        )

    def draw(self, rng: random.Random) -> Any:
        return rng.choices(self.items, cum_weights=self.cum_weights)[0]


def shape_rng(pass_index: int) -> random.Random:
    """The seed-independent stream of a pass: query kinds, popularity ranks,
    widths and strata, so every seed runs the same mix of work."""
    return random.Random(f"shape-{pass_index}")


def pass_rng(seed: int, pass_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + pass_index)


class TimedScheduler(QueryScheduler):
    """A ``QueryScheduler`` that notes the wall-clock time each query ends,
    so a scheduled query's latency can be measured from outside."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.finished_at: dict[str, float] = {}

    def step(self) -> Any:
        report = super().step()
        if report is not None and report.finished:
            self.finished_at[report.label] = time.perf_counter()
        return report


# ---------------------------------------------------------------------------
# set-up bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class State:
    """A freshly built database plus what the passes need next to it."""

    db: Database
    tables: dict[str, int] = field(default_factory=dict)


class Phases:
    """Seconds per set-up phase, scaled to the reference host speed."""

    def __init__(self) -> None:
        self.seconds = {phase: 0.0 for phase in SETUP_PHASES}

    @contextmanager
    def __call__(self, phase: str) -> Iterator[None]:
        samples = [hostspeed.sample() for _ in range(3)]
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            samples += [hostspeed.sample() for _ in range(3)]
            self.seconds[phase] += elapsed * hostspeed.factor(samples)


def aux_bytes(db: Database) -> tuple[int, int, int]:
    """(CM bytes, secondary B+Tree bytes, live heap rows) over every table."""
    cm_bytes = btree_bytes = rows = 0
    for table in db.tables.values():
        for part in getattr(table, "partitions", (table,)):
            cm_bytes += sum(cm.size_bytes() for cm in part.correlation_maps.values())
            btree_bytes += sum(ix.size_bytes() for ix in part.secondary_indexes.values())
            rows += part.num_rows
    return cm_bytes, btree_bytes, rows


def buffer_pools(db: Database) -> list[Any]:
    pools = [db.buffer_pool]
    for table in db.tables.values():
        pools.extend(part.buffer_pool for part in getattr(table, "partitions", ()))
    return pools


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    #: The percentile reported as ``query_tail_ms``: the highest one with at
    #: least ten samples beyond it in every run of ``run_seconds``.  It is
    #: fixed per workload so that a run that fits one pass more or less
    #: still reports the same percentile.
    tail_pct = 75.0

    def __init__(self, seed: int, scale: float, references: Mapping[str, Any]) -> None:
        self.seed = seed
        self.scale = ExperimentScale(scale)
        self.scale_factor = scale
        self.references = references
        self.advisor_seed = seed % ADVISOR_SEEDS
        self.rows: list[dict[str, Any]] = []

    def setup(self) -> tuple[State, dict[str, float]]:
        """Build a fresh database; the reference structures are built once,
        untimed, after the first generation (the data never changes)."""
        phases = Phases()
        with phases("generate"):
            self.generate()
        state = self.build(phases)
        if not self.prepared:
            self.prepare()
            self.prepared = True
        with phases("warmup"):
            # The same for every seed, so every seed's first pass starts
            # from the same buffer pool.
            for op in self.warmup_ops(random.Random("warmup")):
                state.db.run_query(op.payload, **op.kwargs)
        return state, phases.seconds

    prepared = False

    # hooks --------------------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def build(self, phases: Phases) -> State:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        """Read queries run once after a build (the first query after a build
        is several times slower, so warming up is part of set-up).  They
        must not advance the seeded operation stream."""
        raise NotImplementedError

    def pass_ops(self, pass_index: int) -> list[Op]:
        """The operations of pass ``pass_index``; called once per index, in
        order (a workload's reference model may advance with its writes)."""
        raise NotImplementedError

    def describe(self) -> list[str]:
        return []

    # shared pieces ---------------------------------------------------------------
    def training(self) -> list[TrainingQuery]:
        """The training queries this workload asks the advisor about."""
        raise NotImplementedError

    def advisor(self) -> CMAdvisor:
        raise NotImplementedError

    def advise_ops(self) -> list[Op]:
        ops = []
        for query in self.training():
            key = reference_key(self.name, query.name, self.advisor_seed, self.scale_factor)
            ops.append(Op("advise", query.name, (self.advisor, query), expect_recommendation(key, self.references)))
        return ops

    def churn_ops(self, table: str, key: str, new_rows: list[dict[str, Any]]) -> list[Op]:
        """Insert fresh rows in ``CHURN_BATCHES`` calls, then delete exactly
        them again: the writes are measured and maintained by every
        structure, and the table's content returns to what the read
        references were computed on."""
        size = len(new_rows) // CHURN_BATCHES
        ops = [
            Op("insert", "insert", (table, new_rows[i: i + size]), expect_affected(size))
            for i in range(0, len(new_rows), size)
        ]
        low, high = new_rows[0][key], new_rows[-1][key]
        ops.append(Op("delete", "delete", (table, [Between(key, low, high)]), expect_affected(len(new_rows))))
        return ops


class _EbayBase(Workload):
    """ITEMS (paper Exp. 1-4): 80,674 rows on 1,614 pages at scale 1."""

    pool_pages = 0

    def generate(self) -> None:
        config = EbayConfig(
            num_categories=self.scale.rows(400), items_per_category=(150, 250), seed=42
        )
        self.rows = generate_items(config)

    def load(self, phases: Phases) -> Database:
        with phases("load"):
            db = Database(
                buffer_pool_pages=self.pool_pages,
                disk_params=scaled_disk_parameters(EBAY_SEEK_SCALE),
            )
            db.create_table("items", sample_row=self.rows[0], tups_per_page=50)
            db.load("items", self.rows)
        with phases("cluster"):
            db.cluster("items", "catid", pages_per_bucket=10)
        return db

    def prepare_streams(self) -> None:
        rng = random.Random(self.seed)
        prices = sorted(row["price"] for row in self.rows)

        def neighbours(row: Mapping[str, Any]) -> int:
            price = row["price"]
            return bisect.bisect_right(prices, price + 100.0) - bisect.bisect_left(prices, price - 100.0)

        self.hot_items = Zipf(self.rows, neighbours, rng)
        sizes = Counter((attr, row[attr]) for row in self.rows for attr in CATEGORY_ATTRS)
        self.hot_values = {
            attr: Zipf(
                sorted({row[attr] for row in self.rows if row[attr]}),
                lambda value, attr=attr: sizes[(attr, value)],
                rng,
            )
            for attr in CATEGORY_ATTRS
        }
        self.next_itemid = max(row["itemid"] for row in self.rows) + 1

    def new_items(self, shape: random.Random, rng: random.Random, count: int) -> list[dict[str, Any]]:
        batch = []
        for _ in range(count):
            template = self.hot_items.draw(shape)
            row = {key: template[key] for key in ("catid", *(f"cat{i}" for i in range(1, 7)))}
            row["itemid"] = self.next_itemid
            row["price"] = round(max(0.0, rng.gauss(template["price"], 100.0)), 2)
            self.next_itemid += 1
            batch.append(row)
        return batch

    def training(self) -> list[TrainingQuery]:
        return [
            TrainingQuery.over_attributes("price", name="price"),
            TrainingQuery.over_attributes("price", "cat4", name="price_cat4"),
            TrainingQuery.over_attributes("price", "cat5", name="price_cat5"),
            TrainingQuery.over_attributes("price", "cat6", name="price_cat6"),
        ]

    def advisor(self) -> CMAdvisor:
        return CMAdvisor(
            self.rows,
            "catid",
            table_profile=TableProfile(total_tups=len(self.rows), tups_per_page=50),
            sample_size=2_000,
            seed=self.advisor_seed,
        )

    def describe(self) -> list[str]:
        return [f"items: {len(self.rows)} rows, pool {self.pool_pages} pages"]


class Lookup(_EbayBase):
    name = "lookup"
    pool_pages = 4_000
    reads_per_pass = 60
    #: Not 90: a run replays one pass of 60 queries on two builds, so only
    #: about six distinct queries lie beyond the 90th percentile, too few
    #: for it to repeat between runs (its spread over ten seeds was 0.29).
    tail_pct = 75.0
    churn_rows = 2_000

    def build(self, phases: Phases) -> State:
        db = self.load(phases)
        with phases("index_build"):
            db.create_secondary_index("items", "price")
        with phases("cm_build"):
            for attr in CATEGORY_ATTRS:
                db.create_correlation_map("items", [attr])
            db.create_correlation_map(
                "items", ["price"], bucketers={"price": WidthBucketer(1024.0)}
            )
        return State(db, {"items": db.table("items").num_pages})

    def prepare(self) -> None:
        """Reference structures: per-key sum/count and a sorted price array."""
        self.prepare_streams()
        self.key_totals: dict[tuple[str, Any], list[float]] = defaultdict(lambda: [0, 0.0])
        for row in self.rows:
            for attr in CATEGORY_ATTRS:
                totals = self.key_totals[(attr, row[attr])]
                totals[0] += 1
                totals[1] += row["price"]
        self.prices = sorted(row["price"] for row in self.rows)

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        return [self.read_op(rng) for _ in range(10)]

    def read_op(self, shape: random.Random) -> Op:
        if shape.random() < 0.5:
            attr = shape.choice(CATEGORY_ATTRS)
            value = self.hot_values[attr].draw(shape)
            count, total = self.key_totals[(attr, value)]
            return Op("query", "category", ebay_category_query(attr, value), expect_value(total / count))
        low = float(int(self.hot_items.draw(shape)["price"]) // 10 * 10)
        high = low + shape.choice((50.0, 100.0, 200.0))
        expected = bisect.bisect_right(self.prices, high) - bisect.bisect_left(self.prices, low)
        query = Query.select("items", Between("price", low, high), aggregate=Aggregate.count(), name="price_range")
        return Op("query", "price_range", query, expect_value(expected))

    def pass_ops(self, pass_index: int) -> list[Op]:
        shape, rng = shape_rng(pass_index), pass_rng(self.seed, pass_index)
        ops = self.churn_ops("items", "itemid", self.new_items(shape, rng, self.churn_rows))
        ops += [self.read_op(shape) for _ in range(self.reads_per_pass)]
        ops += self.advise_ops()
        return ops


class Mixed(_EbayBase):
    name = "mixed"
    pool_pages = 400
    inserts_per_round = 500
    deletes_per_round = 25
    selects_per_round = 20
    tail_pct = 90.0
    rounds_per_pass = 2

    def build(self, phases: Phases) -> State:
        db = self.load(phases)
        with phases("index_build"):
            db.create_secondary_index("items", "price")
        with phases("cm_build"):
            for attr in CATEGORY_ATTRS:
                db.create_correlation_map("items", [attr])
        return State(db, {"items": db.table("items").num_pages})

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        return [
            Op("query", "category", ebay_category_query(attr, self.hot_values[attr].draw(rng)), expect_value(None))
            for attr in CATEGORY_ATTRS
        ]

    def prepare(self) -> None:
        """The reference is a per-key sum/count model replaying every write."""
        self.prepare_streams()
        self.live: dict[int, dict[str, Any]] = {}
        self.key_totals: dict[tuple[str, Any], list[float]] = defaultdict(lambda: [0, 0.0])
        for row in self.rows:
            self._apply(row, +1)

    def _apply(self, row: Mapping[str, Any], sign: int) -> None:
        for attr in CATEGORY_ATTRS:
            totals = self.key_totals[(attr, row[attr])]
            totals[0] += sign
            totals[1] += sign * row["price"]

    def pass_ops(self, pass_index: int) -> list[Op]:
        shape, rng = shape_rng(pass_index), pass_rng(self.seed, pass_index)
        ops: list[Op] = []
        for _ in range(self.rounds_per_pass):
            batch = self.new_items(shape, rng, self.inserts_per_round)
            for row in batch:
                self._apply(row, +1)
            ops.append(Op("insert", "insert", ("items", batch), expect_affected(len(batch)), {"batch_size": len(batch)}))
            victims = batch[: self.deletes_per_round]
            for row in victims:
                self._apply(row, -1)
            ops.append(
                Op(
                    "delete",
                    "delete",
                    ("items", [Between("itemid", victims[0]["itemid"], victims[-1]["itemid"])]),
                    expect_affected(len(victims)),
                )
            )
            queries, checks = [], []
            for _ in range(self.selects_per_round):
                attr = shape.choice(CATEGORY_ATTRS)
                value = self.hot_values[attr].draw(shape)
                count, total = self.key_totals[(attr, value)]
                queries.append(ebay_category_query(attr, value))
                checks.append(expect_value(total / count))
            ops.append(Op("group", "category", queries, expect_group(checks), {"max_concurrent": 4}))
        ops += self.advise_ops()
        return ops


class Analytics(Workload):
    name = "analytics"
    #: Fewer than elsewhere: deleting a row costs the planner statistics
    #: about a millisecond here, and the reads need the time.
    churn_rows = 600

    def generate(self) -> None:
        orders = self.scale.rows(20_000)
        config = TPCHConfig(
            num_orders=orders,
            num_parts=max(200, orders // 5),
            num_suppliers=max(40, orders // 100),
            orderdate_span_days=365,
            seed=7,
        )
        self.rows = generate_lineitem(config)
        self.orders = generate_orders(config)

    def build(self, phases: Phases) -> State:
        with phases("load"):
            # Planner statistics from a 10,000-row sample (estimated, not
            # exact): planning stays the small share of an analytic query
            # that this workload is meant to have, so the executor, the
            # exchange and the fork pool do the work.
            db = Database(
                buffer_pool_pages=1_000,
                disk_params=scaled_disk_parameters(TPCH_SEEK_SCALE),
                stats_sample_size=ANALYTICS_STATS_SAMPLE,
            )
            db.create_table("lineitem", sample_row=self.rows[0], tups_per_page=60)
            db.load("lineitem", self.rows)
            db.create_table("orders", sample_row=self.orders[0], tups_per_page=60)
            db.load("orders", self.orders)
            db.create_table(
                "lineitem_p",
                sample_row=self.rows[0],
                tups_per_page=60,
                partition_by=PartitionSpec.by_hash("orderkey", 4),
            )
            db.load("lineitem_p", self.rows)
        with phases("cluster"):
            db.cluster("lineitem", "receiptdate", pages_per_bucket=10)
            db.cluster("lineitem_p", "receiptdate", pages_per_bucket=10)
        with phases("cm_build"):
            db.create_correlation_map("lineitem", ["shipdate"])
            db.create_correlation_map("lineitem_p", ["shipdate"])
        return State(
            db,
            {name: db.table(name).num_pages for name in ("lineitem", "orders", "lineitem_p")},
        )

    def warmup_ops(self, rng: random.Random) -> list[Op]:
        return self.read_ops(rng, rng, list(self.WIDTH))

    def prepare(self) -> None:
        """Reference structures: lineitem sorted by shipdate (bisect slices),
        per-day price sums and the orders' total prices."""
        self.by_ship = sorted(self.rows, key=lambda row: row["shipdate"])
        self.ship_days = [row["shipdate"] for row in self.by_ship]
        self.day_price: dict[int, float] = defaultdict(float)
        for row in self.rows:
            self.day_price[row["shipdate"]] += row["extendedprice"]
        self.order_total = {row["orderkey"]: row["totalprice"] for row in self.orders}
        self.first_day, self.last_day = self.ship_days[0], self.ship_days[-1]
        self.next_orderkey = max(self.order_total) + 1

    def _slice(self, low: int, high: int) -> list[dict[str, Any]]:
        return self.by_ship[
            bisect.bisect_left(self.ship_days, low): bisect.bisect_right(self.ship_days, high)
        ]

    def _range_agg(self, low: int, high: int) -> Op:
        query = Query.select("lineitem", Between("shipdate", low, high), aggregate=Aggregate.sum("extendedprice"), name="range_agg")
        expected = sum(self.day_price.get(day, 0.0) for day in range(low, high + 1))
        return Op("query", "range_agg", query, expect_value(expected))

    def _group_by(self, low: int, high: int, table: str, shape: str, kwargs: dict[str, Any]) -> Op:
        query = Query.select(
            table, Between("shipdate", low, high), aggregate=Aggregate.sum("quantity"), group_by=["shipmode"], name=shape
        )
        expected: dict[str, int] = defaultdict(int)
        for row in self._slice(low, high):
            expected[row["shipmode"]] += row["quantity"]
        return Op("query", shape, query, expect_groups("shipmode", "sum_quantity", dict(expected)), kwargs)

    def _topk(self, low: int, high: int, table: str, shape: str, kwargs: dict[str, Any]) -> Op:
        order = ("-extendedprice", "orderkey", "linenumber")
        query = Query.select(table, Between("shipdate", low, high), name=shape).order_by(*order).with_limit(100)
        best = heapq.nsmallest(
            100, self._slice(low, high), key=lambda r: (-r["extendedprice"], r["orderkey"], r["linenumber"])
        )
        expected = [(r["extendedprice"], r["orderkey"], r["linenumber"]) for r in best]
        return Op("query", shape, query, expect_keys(("extendedprice", "orderkey", "linenumber"), expected), kwargs)

    def _hash_join(self, low: int, high: int) -> Op:
        query = Query.select(
            "lineitem", Between("shipdate", low, high), aggregate=Aggregate.sum("totalprice"), name="hash_join"
        ).join("orders", on="orderkey")
        expected = sum(self.order_total[row["orderkey"]] for row in self._slice(low, high))
        return Op("query", "hash_join", query, expect_value(expected))

    def new_lineitems(self, rng: random.Random) -> list[dict[str, Any]]:
        batch = []
        for _ in range(self.churn_rows):
            row = dict(rng.choice(self.rows))
            row["orderkey"] = self.next_orderkey
            self.next_orderkey += 1
            batch.append(row)
        return batch

    #: The read queries of one pass.  The composition places the median
    #: latency inside the range aggregates' cluster (16 of 26) and the
    #: 75th percentile, the tail, inside the hash joins' (queries 18-22 of
    #: 26 when sorted by latency), not in a gap between two shapes.
    PASS = (
        "range_agg", "hash_join", "range_agg", "group_by", "range_agg", "hash_join",
        "range_agg", "part_topk", "range_agg", "topk", "range_agg", "hash_join",
        "range_agg", "part_group_by", "range_agg", "range_agg", "hash_join", "range_agg",
        "part_topk", "range_agg", "range_agg", "hash_join", "range_agg", "range_agg",
        "range_agg", "range_agg",
    )
    #: Shipdate window per shape, in days.
    WIDTH = {"range_agg": 14, "group_by": 60, "topk": 60, "hash_join": 7, "part_topk": 60, "part_group_by": 60}

    def read_ops(self, shape: random.Random, rng: random.Random, names: Sequence[str]) -> list[Op]:
        """One query per entry of ``names``.  Widths are fixed; the k-th of a
        shape's n windows falls in the k-th of n equal strata of the
        shipdate span (stratum order from ``shape``), at a seeded offset
        inside it -- so every seed scans about the same number of rows."""
        parallel = {"parallel": 2}
        builders: dict[str, Callable[[int, int], Op]] = {
            "range_agg": self._range_agg,
            "group_by": lambda lo, hi: self._group_by(lo, hi, "lineitem", "group_by", {}),
            "topk": lambda lo, hi: self._topk(lo, hi, "lineitem", "topk", {}),
            "hash_join": self._hash_join,
            "part_topk": lambda lo, hi: self._topk(lo, hi, "lineitem_p", "part_topk", parallel),
            "part_group_by": lambda lo, hi: self._group_by(lo, hi, "lineitem_p", "part_group_by", parallel),
        }
        strata = {}
        for name in dict.fromkeys(names):
            order = list(range(names.count(name)))
            shape.shuffle(order)
            strata[name] = order
        ops = []
        for name in names:
            width, count = self.WIDTH[name], names.count(name)
            span = self.last_day - width - self.first_day
            low = self.first_day + int((strata[name].pop() + rng.random()) * span / count)
            ops.append(builders[name](low, low + width))
        return ops

    def pass_ops(self, pass_index: int) -> list[Op]:
        shape, rng = shape_rng(pass_index), pass_rng(self.seed, pass_index)
        ops = self.churn_ops("lineitem", "orderkey", self.new_lineitems(rng))
        ops += self.read_ops(shape, rng, self.PASS * 2)
        ops += self.advise_ops()
        return ops

    def training(self) -> list[TrainingQuery]:
        return [
            TrainingQuery.over_attributes("shipdate", "shipmode", name="shipdate_shipmode"),
            TrainingQuery.over_attributes("orderkey", name="orderkey"),
            TrainingQuery.over_attributes("commitdate", name="commitdate"),
        ]

    def advisor(self) -> CMAdvisor:
        return CMAdvisor(
            self.rows,
            "receiptdate",
            table_profile=TableProfile(total_tups=len(self.rows), tups_per_page=60),
            sample_size=2_000,
            seed=self.advisor_seed,
        )

    def describe(self) -> list[str]:
        return [
            f"lineitem: {len(self.rows)} rows; orders: {len(self.orders)} rows; "
            "lineitem_p: hash(orderkey) x 4 partitions; shared pool 1000 pages"
        ]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Lookup, Analytics, Mixed)
}
