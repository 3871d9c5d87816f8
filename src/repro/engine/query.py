"""Query descriptions and results: the engine's declarative surface.

A :class:`Query` is a declarative description of what to compute -- a base
table, a conjunction of predicates, an optional chain of equi-joins, an
optional aggregate, LIMIT and projection.  It carries no execution state:
the planner (:mod:`repro.engine.planner`) chooses access paths and join
strategies for it, and the executor (:mod:`repro.engine.executor`) streams
its rows.  :class:`QueryResult` is the materialised outcome of one
execution: the rows (or the aggregate value) together with the simulated
I/O statistics that the paper's experiments measure.

Joins are expressed as left-deep chains: ``Query.select(...)`` names the
driving table and :meth:`Query.join` appends one joined table at a time,
each connected to the tables before it by one or more equality pairs
(:class:`JoinSpec`).  The textual rendering follows SQL::

    SELECT * FROM lineitem JOIN orders USING (orderkey)
        WHERE shipdate BETWEEN 100 AND 120

Queries, join specs and predicates are all plain immutable values, so one
query object can be planned and executed many times (the benchmarks rely on
this to compare access methods against each other).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.engine.predicates import Predicate, PredicateSet
from repro.storage.disk import IOBreakdown


class AggregateAccumulator:
    """Running state of one streaming aggregate computation.

    The executor's aggregation nodes feed rows in one at a time and read the
    result once the input is exhausted -- nothing but the accumulator state
    (a counter, a running sum, or the distinct-value set for
    ``count_distinct``) is ever buffered.
    """

    def __init__(self, aggregate: "Aggregate") -> None:
        self._aggregate = aggregate
        self._count = 0
        self._sum: Any = 0
        self._distinct: set[Any] | None = (
            set() if aggregate.kind == "count_distinct" else None
        )

    def add(self, row: Mapping[str, Any]) -> None:
        kind = self._aggregate.kind
        self._count += 1
        if kind == "count":
            return
        value = self._aggregate._value(row)
        if self._distinct is not None:
            self._distinct.add(value)
        else:
            self._sum = self._sum + value

    def add_batch(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Fold a whole batch into the running state.

        Equivalent to calling :meth:`add` once per row, with the per-row
        dispatch hoisted out of the loop: ``count`` reduces to one integer
        addition per batch, value extraction runs through a C-level
        ``map``/comprehension, and ``count_distinct`` updates its set in one
        call.  Sums accumulate left to right exactly as repeated :meth:`add`
        calls would, so floating-point results stay bit-identical at every
        batch size.
        """
        aggregate = self._aggregate
        kind = aggregate.kind
        self._count += len(rows)
        if kind == "count":
            return
        expression = aggregate.expression
        if callable(expression):
            values = map(expression, rows)
        else:
            values = map(itemgetter(expression), rows)
        if self._distinct is not None:
            self._distinct.update(values)
        else:
            total = self._sum
            for value in values:
                total = total + value
            self._sum = total

    def result(self) -> Any:
        kind = self._aggregate.kind
        if kind == "count":
            return self._count
        if kind == "count_distinct":
            assert self._distinct is not None
            return len(self._distinct)
        if kind == "sum":
            return self._sum
        if kind == "avg":
            return self._sum / self._count if self._count else None
        raise AssertionError("unreachable")


class GroupedAccumulators:
    """Columnar hash-aggregation state: one running value per group key.

    The batched twin of a ``dict`` of per-group
    :class:`AggregateAccumulator` objects, with the per-row dispatch hoisted
    into per-kind batch kernels: ``count`` folds a whole batch through one
    ``Counter``; ``sum``/``avg`` add each value into its group's running
    total in stream order (value-at-a-time, so floating-point results stay
    bit-identical to per-row accumulation); ``count_distinct`` grows
    per-group value sets.  Group output order is first-seen input order --
    every kernel inserts keys into its dict in stream order, as a dict of
    per-group :class:`AggregateAccumulator` objects would.
    """

    __slots__ = ("_aggregate", "_kind", "_counts", "_sums", "_distinct")

    def __init__(self, aggregate: "Aggregate") -> None:
        self._aggregate = aggregate
        self._kind = aggregate.kind
        self._counts: dict[Any, int] = {}
        self._sums: dict[Any, Any] = {}
        self._distinct: defaultdict[Any, set[Any]] = defaultdict(set)

    def __len__(self) -> int:
        if self._kind == "count":
            return len(self._counts)
        if self._kind == "count_distinct":
            return len(self._distinct)
        return len(self._sums)

    def add_batch(
        self, keys: Sequence[Any], rows: Sequence[Mapping[str, Any]]
    ) -> None:
        """Fold one batch of ``(group key, row)`` pairs into the state."""
        kind = self._kind
        if kind == "count":
            counts = self._counts
            get = counts.get
            # Counter iterates keys in first-occurrence order, so new groups
            # enter ``counts`` exactly when their first row arrives.
            for key, count in Counter(keys).items():
                counts[key] = get(key, 0) + count
            return
        expression = self._aggregate.expression
        if callable(expression):
            values = map(expression, rows)
        else:
            values = map(itemgetter(expression), rows)
        if kind == "count_distinct":
            distinct = self._distinct
            for key, value in zip(keys, values):
                distinct[key].add(value)
            return
        sums = self._sums
        get = sums.get
        for key, value in zip(keys, values):
            sums[key] = get(key, 0) + value
        if kind == "avg":
            counts = self._counts
            cget = counts.get
            for key, count in Counter(keys).items():
                counts[key] = cget(key, 0) + count

    def partial_state(self) -> tuple[dict[Any, int], dict[Any, Any]]:
        """The mergeable state for partition-parallel aggregation.

        Returns the per-group counts plus the per-group running sums (or
        the per-group distinct-value sets for ``count_distinct``) -- plain
        dicts that cross a process boundary and merge via
        :meth:`absorb_partial`.
        """
        if self._kind == "count_distinct":
            return dict(self._counts), {
                key: set(values) for key, values in self._distinct.items()
            }
        return dict(self._counts), dict(self._sums)

    def absorb_partial(
        self, counts: Mapping[Any, int], partials: Mapping[Any, Any]
    ) -> None:
        """Merge one partition's :meth:`partial_state` into this state.

        Absorbing partitions in ascending order reproduces the serial
        first-seen group order.  Count and distinct merges are exact;
        per-group *float* sums may differ from the serial fold in their
        last ulps (the standard parallel-aggregation caveat).
        """
        own_counts = self._counts
        for key, count in counts.items():
            own_counts[key] = own_counts.get(key, 0) + count
        if self._kind == "count_distinct":
            distinct = self._distinct
            for key, values in partials.items():
                distinct[key].update(values)
        else:
            sums = self._sums
            for key, partial in partials.items():
                sums[key] = sums.get(key, 0) + partial

    def results(self) -> Sequence[tuple[Any, Any]]:
        """``(group key, aggregate value)`` pairs in first-seen key order."""
        kind = self._kind
        if kind == "count":
            return list(self._counts.items())
        if kind == "count_distinct":
            return [(key, len(values)) for key, values in self._distinct.items()]
        if kind == "sum":
            return list(self._sums.items())
        counts = self._counts
        return [(key, total / counts[key]) for key, total in self._sums.items()]


@dataclass(frozen=True)
class Aggregate:
    """An aggregate over the selected rows.

    ``kind`` is one of ``count``, ``count_distinct``, ``sum``, ``avg``.
    ``expression`` is a column name or a callable computing a value per row
    (e.g. ``extendedprice * discount`` from the paper's Figure 3 query).
    ``alias`` names the output column of grouped queries (and of the
    aggregation node in EXPLAIN); it defaults to ``kind`` or
    ``kind_expression`` for string expressions.
    """

    kind: str
    expression: str | Callable[[Mapping[str, Any]], Any] | None = None
    alias: str | None = None

    _KINDS = ("count", "count_distinct", "sum", "avg")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.expression is None:
            raise ValueError(f"aggregate {self.kind!r} needs an expression")

    @property
    def output_name(self) -> str:
        """The column name the aggregate value appears under in grouped rows."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, str):
            return f"{self.kind}_{self.expression}"
        return self.kind

    def _value(self, row: Mapping[str, Any]) -> Any:
        if callable(self.expression):
            return self.expression(row)
        return row[self.expression]

    def make_accumulator(self) -> AggregateAccumulator:
        """Fresh running state for one streaming computation of this aggregate."""
        return AggregateAccumulator(self)

    def make_grouped(self) -> GroupedAccumulators:
        """Fresh columnar per-group state for one hash aggregation."""
        return GroupedAccumulators(self)

    def compute(self, rows: Sequence[Mapping[str, Any]]) -> Any:
        """Evaluate the aggregate over already-materialised rows.

        Kept as the reference implementation (and for callers holding a row
        list); query execution streams through :meth:`make_accumulator`
        instead of materialising the input.
        """
        accumulator = self.make_accumulator()
        for row in rows:
            accumulator.add(row)
        return accumulator.result()

    @classmethod
    def count(cls, *, alias: str | None = None) -> "Aggregate":
        return cls("count", alias=alias)

    @classmethod
    def count_distinct(
        cls, expression: str | Callable[[Mapping[str, Any]], Any], *, alias: str | None = None
    ) -> "Aggregate":
        return cls("count_distinct", expression, alias=alias)

    @classmethod
    def avg(
        cls, expression: str | Callable[[Mapping[str, Any]], Any], *, alias: str | None = None
    ) -> "Aggregate":
        return cls("avg", expression, alias=alias)

    @classmethod
    def sum(
        cls, expression: str | Callable[[Mapping[str, Any]], Any], *, alias: str | None = None
    ) -> "Aggregate":
        return cls("sum", expression, alias=alias)


def _normalize_on(
    on: str | tuple[str, str] | Mapping[str, str] | Sequence[Any],
) -> tuple[tuple[str, str], ...]:
    """Normalise a join condition into ``((left_column, right_column), ...)``.

    Accepted forms:

    * ``"orderkey"`` -- same column name on both sides (SQL's ``USING``);
    * ``("custid", "id")`` -- one explicit ``(left, right)`` pair.  Only a
      *tuple* of exactly two strings is read this way, so a *list* of names
      keeps its ``USING`` meaning at every arity: ``["orderkey",
      "linenumber"]`` is two same-named keys, not a cross-column pair;
    * ``{"custid": "id", "region": "region"}`` -- several explicit pairs;
    * a list mixing column names and ``(left, right)`` tuples, e.g.
      ``[("custid", "id"), "region"]``.
    """
    if isinstance(on, str):
        return ((on, on),)
    if isinstance(on, Mapping):
        pairs = tuple((left, right) for left, right in on.items())
    elif (
        isinstance(on, tuple)
        and len(on) == 2
        and all(isinstance(item, str) for item in on)
    ):
        pairs = ((on[0], on[1]),)
    else:
        normalized = []
        for item in on:
            if isinstance(item, str):
                normalized.append((item, item))
                continue
            pair = tuple(item)
            if len(pair) != 2:
                raise ValueError(
                    f"a join key pair needs exactly (left, right) columns, got {item!r}"
                )
            normalized.append((pair[0], pair[1]))
        pairs = tuple(normalized)
    if not pairs:
        raise ValueError("a join needs at least one key pair")
    for left, right in pairs:
        if not isinstance(left, str) or not isinstance(right, str):
            raise TypeError("join keys must be column names")
    return pairs


def _normalize_ordering(
    columns: Sequence[Any],
) -> tuple[tuple[str, bool], ...]:
    """Normalise ORDER BY columns into ``((column, ascending), ...)``.

    Accepted forms per entry: a plain column name (ascending), a name
    prefixed with ``-`` (descending, SQL's ``DESC``), or an explicit
    ``(column, ascending)`` pair.
    """
    normalized: list[tuple[str, bool]] = []
    for item in columns:
        if isinstance(item, str):
            if item.startswith("-"):
                normalized.append((item[1:], False))
            else:
                normalized.append((item, True))
            continue
        pair = tuple(item)
        if len(pair) != 2 or not isinstance(pair[0], str):
            raise ValueError(
                f"an ORDER BY entry is a column name or (column, ascending), got {item!r}"
            )
        normalized.append((pair[0], bool(pair[1])))
    for column, _ascending in normalized:
        if not column:
            raise ValueError("ORDER BY column names must be non-empty")
    return tuple(normalized)


@dataclass(frozen=True)
class JoinSpec:
    """One step of a left-deep equi-join chain.

    ``table`` is the joined (right-hand) table.  ``on`` holds the equality
    pairs ``(left_column, right_column)``: the left column comes from any
    table already in the chain, the right column from ``table``.
    ``predicates`` are local filters on the joined table; the planner pushes
    them into the inner access path, where they double as residual filters.
    """

    table: str
    on: tuple[tuple[str, str], ...]
    predicates: PredicateSet = field(default_factory=PredicateSet)

    def __post_init__(self) -> None:
        object.__setattr__(self, "on", _normalize_on(self.on))
        if isinstance(self.predicates, (list, tuple)):
            object.__setattr__(self, "predicates", PredicateSet(self.predicates))

    @property
    def left_columns(self) -> tuple[str, ...]:
        return tuple(left for left, _right in self.on)

    @property
    def right_columns(self) -> tuple[str, ...]:
        return tuple(right for _left, right in self.on)

    def describe(self) -> str:
        """The SQL rendering of this join step (``USING`` when names agree)."""
        if all(left == right for left, right in self.on):
            return f"JOIN {self.table} USING ({', '.join(self.left_columns)})"
        condition = " AND ".join(
            f"{left} = {self.table}.{right}" for left, right in self.on
        )
        return f"JOIN {self.table} ON {condition}"


@dataclass
class Query:
    """A declarative query: one driving table plus an optional join chain.

    ``limit`` caps the number of rows produced; the streaming executor stops
    sweeping heap pages (and, under a join, stops pulling outer rows) as soon
    as the cap is met.  ``projection`` names the columns kept in the output
    rows -- under a join they may come from any table in the chain (residual
    predicates still see every column).  ``ordering`` (built with
    :meth:`order_by`) sorts the output; combined with ``limit`` it executes
    as a bounded k-heap top-k instead of a full sort.  ``grouping`` (built
    with :meth:`group_by`) turns the aggregate into a hash aggregation with
    one output row per group; grouped queries may carry a LIMIT (it caps the
    number of groups) and a projection over the group columns and the
    aggregate's output column.  A *scalar* aggregate still combines with
    neither: it reduces the full matching stream to a single value.

    A worked two-table example, end to end::

        >>> from repro.engine.database import Database
        >>> from repro.engine.predicates import Equals
        >>> from repro.engine.query import Query
        >>> db = Database()
        >>> _ = db.create_table("orders", columns=["orderid", "custid", "amount"])
        >>> _ = db.create_table("customers", columns=["custid", "name"])
        >>> _ = db.load("orders", [
        ...     {"orderid": 1, "custid": 7, "amount": 30.0},
        ...     {"orderid": 2, "custid": 8, "amount": 12.5},
        ...     {"orderid": 3, "custid": 7, "amount": 99.0},
        ... ])
        >>> _ = db.load("customers", [
        ...     {"custid": 7, "name": "ada"},
        ...     {"custid": 8, "name": "bob"},
        ... ])
        >>> query = Query.select("orders", Equals("custid", 7)).join(
        ...     "customers", on="custid")
        >>> query.describe()
        'SELECT * FROM orders JOIN customers USING (custid) WHERE custid = 7'
        >>> sorted(row["orderid"] for row in db.stream(query))
        [1, 3]
        >>> [row["name"] for row in db.stream(query, projection=["name"])]
        ['ada', 'ada']

    :meth:`join` returns a *new* query, so partially-built queries can be
    shared and extended (multi-way joins are left-deep chains of such steps).
    """

    table: str
    predicates: PredicateSet
    aggregate: Aggregate | None = None
    name: str = ""
    limit: int | None = None
    projection: tuple[str, ...] | None = None
    joins: tuple[JoinSpec, ...] = ()
    #: ORDER BY as ``((column, ascending), ...)`` -- see :meth:`order_by`.
    ordering: tuple[tuple[str, bool], ...] = ()
    #: GROUP BY columns -- see :meth:`group_by`.
    grouping: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.predicates, (list, tuple)):
            self.predicates = PredicateSet(self.predicates)
        self.ordering = _normalize_ordering(self.ordering)
        self.grouping = tuple(self.grouping)
        if self.grouping and self.aggregate is None:
            raise ValueError("GROUP BY needs an aggregate to compute per group")
        scalar_aggregate = self.aggregate is not None and not self.grouping
        if self.limit is not None:
            if self.limit < 0:
                raise ValueError("limit must be non-negative")
            if scalar_aggregate:
                raise ValueError(
                    "LIMIT cannot be combined with a scalar aggregate "
                    "(group the query to cap the number of groups)"
                )
        if self.projection is not None:
            if scalar_aggregate:
                raise ValueError(
                    "a projection cannot be combined with a scalar aggregate"
                )
            self.projection = tuple(self.projection)
        if self.grouping and self.aggregate.output_name in self.grouping:
            raise ValueError(
                f"aggregate output column {self.aggregate.output_name!r} "
                "collides with a GROUP BY column; set a different alias"
            )
        if self.grouping and self.projection is not None:
            allowed = set(self.grouping) | {self.aggregate.output_name}
            unknown = [c for c in self.projection if c not in allowed]
            if unknown:
                raise ValueError(
                    f"projection columns {unknown} are not in the GROUP BY "
                    f"output (group columns plus {self.aggregate.output_name!r})"
                )
        if self.ordering and self.aggregate is not None and not self.grouping:
            raise ValueError("ORDER BY is meaningless for a scalar aggregate")
        self.joins = tuple(self.joins)

    @classmethod
    def select(
        cls,
        table: str,
        *predicates: Predicate,
        aggregate: Aggregate | None = None,
        name: str = "",
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        order_by: Sequence[Any] | None = None,
        group_by: Sequence[str] | None = None,
    ) -> "Query":
        """Build a query over ``table`` with ``predicates`` ANDed together."""
        return cls(
            table=table,
            predicates=PredicateSet(predicates),
            aggregate=aggregate,
            name=name,
            limit=limit,
            projection=tuple(projection) if projection is not None else None,
            ordering=_normalize_ordering(order_by) if order_by is not None else (),
            grouping=tuple(group_by) if group_by is not None else (),
        )

    def order_by(self, *columns: Any) -> "Query":
        """A new query sorting the output by ``columns``.

        Each entry is a column name (ascending), a ``-``-prefixed name
        (descending), or an explicit ``(column, ascending)`` pair.  NULLs
        sort last ascending and first descending, as in PostgreSQL.
        Combined with a LIMIT (see :meth:`with_limit`) the plan uses a
        bounded k-heap top-k instead of a full sort; when the chosen stream
        already flows in the requested order (a scan of a table clustered on
        the sort column, a merge join on it) the sort is planned away
        entirely.

            >>> Query.select("items").order_by("price", "-catid").describe()
            'SELECT * FROM items WHERE TRUE ORDER BY price, catid DESC'
        """
        return replace(self, ordering=_normalize_ordering(columns))

    def group_by(self, *columns: str) -> "Query":
        """A new query hash-aggregating per distinct ``columns`` combination.

        The query must carry an aggregate; each output row holds the group
        columns plus the aggregate value under
        :attr:`Aggregate.output_name`.

            >>> Query.select("items", aggregate=Aggregate.count()).group_by(
            ...     "catid").describe()
            'SELECT catid, COUNT(*) FROM items WHERE TRUE GROUP BY catid'
        """
        return replace(self, grouping=tuple(columns))

    def with_limit(self, limit: int | None) -> "Query":
        """A new query capped at ``limit`` rows (``None`` removes the cap).

        (A ``limit()`` builder method would collide with the ``limit``
        field, which the rest of the engine reads directly.)
        """
        return replace(self, limit=limit)

    def join(
        self,
        table: str,
        on: str | tuple[str, str] | Mapping[str, str] | Sequence[Any],
        *predicates: Predicate,
    ) -> "Query":
        """A new query extending this one with an equi-join against ``table``.

        ``on`` names the join keys (see :func:`_normalize_on` for the accepted
        forms); ``predicates`` are local filters on the joined table, pushed
        down into whichever inner access path the planner picks.  Each table
        may appear once per chain -- self-joins would need column aliasing,
        which the row-merging executor does not provide.

        Because merged rows are plain ``{**outer, **inner}`` dicts, two
        tables sharing a column name that is *not* a same-named join key
        would silently resolve "inner wins".  The query object cannot see
        the table schemas, so :class:`~repro.engine.database.Database`
        performs that check when the join is planned for execution and
        raises a :class:`ValueError` naming the ambiguous columns.
        """
        if table == self.table or any(spec.table == table for spec in self.joins):
            raise ValueError(f"table {table!r} already appears in the join chain")
        spec = JoinSpec(table=table, on=on, predicates=PredicateSet(predicates))
        return replace(self, joins=self.joins + (spec,))

    @property
    def tables(self) -> tuple[str, ...]:
        """Every table in the chain, driving table first."""
        return (self.table, *(spec.table for spec in self.joins))

    def describe(self) -> str:
        """An SQL rendering (joins, WHERE, GROUP BY, ORDER BY, LIMIT)."""
        select_list = "*"
        if self.aggregate is not None:
            expression = self.aggregate.expression
            if expression is None:
                expr = "*"
            elif isinstance(expression, str):
                expr = expression
            else:
                expr = "expr"
            select_list = f"{self.aggregate.kind.upper()}({expr})"
            if self.grouping:
                select_list = f"{', '.join(self.grouping)}, {select_list}"
        elif self.projection is not None:
            select_list = ", ".join(self.projection)
        from_clause = " ".join(
            [self.table, *(spec.describe() for spec in self.joins)]
        )
        conditions = [
            predicate_set.describe()
            for predicate_set in (self.predicates, *(s.predicates for s in self.joins))
            if predicate_set
        ]
        where = " AND ".join(conditions) if conditions else "TRUE"
        sql = f"SELECT {select_list} FROM {from_clause} WHERE {where}"
        if self.grouping:
            sql += f" GROUP BY {', '.join(self.grouping)}"
        if self.ordering:
            rendered = ", ".join(
                column if ascending else f"{column} DESC"
                for column, ascending in self.ordering
            )
            sql += f" ORDER BY {rendered}"
        if self.limit is not None:
            sql += f" LIMIT {self.limit}"
        return sql


@dataclass
class QueryResult:
    """The outcome of executing one query.

    ``access_method`` names the plan root: one of the access-path names for
    single-table queries (``seq_scan``, ``cm_scan``, ...) or a join operator
    name (``nested_loop_join``, ``index_nested_loop_join``) for joins.  The
    counters (``rows_examined``, ``pages_visited``) aggregate over *every*
    input of the plan -- under a join they include both the outer sweep and
    all inner probes.
    """

    query: Query
    access_method: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    value: Any = None
    rows_examined: int = 0
    rows_matched: int = 0
    pages_visited: int = 0
    #: Inner-input probes performed by join operators (0 for scans): one per
    #: probe-side row per join step, whichever operator family ran.
    join_probes: int = 0
    #: Rows the plan root emitted -- equals ``rows_matched`` for a drained
    #: result, but is the honest count when a LIMIT stopped the pipeline.
    rows_emitted: int = 0
    io: IOBreakdown = field(default_factory=IOBreakdown)
    elapsed_ms: float = 0.0
    estimated_cost_ms: float | None = None
    rewritten_sql: str | None = None
    #: One-line description of the Sort/TopK work the plan performed, e.g.
    #: ``"top-5 heap over 1203 rows"`` or ``"sort buffered 1203 rows"``
    #: (``None`` when the plan sorted nothing).
    sort_stats: str | None = None
    #: The executed physical plan tree (a PlanNode), for EXPLAIN
    #: ANALYZE-style inspection of per-node counters.
    plan: Any = field(default=None, repr=False)

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ms / 1000.0

    @property
    def false_positive_rows(self) -> int:
        """Rows fetched but discarded by the residual filter."""
        return max(0, self.rows_examined - self.rows_matched)

    def summary(self) -> str:
        probes = f", {self.join_probes} probes" if self.join_probes else ""
        value = ""
        if self.query.aggregate is not None and not self.query.grouping:
            value = f", value={self.value}"
        sort = f", {self.sort_stats}" if self.sort_stats else ""
        return (
            f"[{self.access_method}] {self.query.describe()} -> "
            f"{self.rows_matched} rows, {self.pages_visited} pages"
            f"{probes}{value}{sort}, {self.elapsed_ms:.1f} ms simulated"
        )
