"""An independent reference evaluator for the engine's query surface.

It shares no code with the engine: it works over plain lists of dicts and
evaluates a :class:`~repro.engine.query.Query` the way the SQL text reads --
filter the driving table, equi-join each joined table (filtered by its local
predicates), group and aggregate, order with PostgreSQL's NULL rules (NULLs
last ascending, first descending), cut at the LIMIT and project.  Differential
tests compare engine results against it, so a bug the planner, the compiled
kernels and the accumulators happen to share cannot hide behind engine-vs-
engine agreement.

:func:`check` knows which parts of a result are defined by the query: row
order only under a total ORDER BY, the kept subset under a LIMIT only up to
ties.  Floats are compared with :func:`math.isclose`, since summation order
is an engine choice.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.engine.predicates import Between, Equals, InSet

Row = dict[str, Any]


def _holds(predicate: Any, row: Mapping[str, Any]) -> bool:
    value = row[predicate.attribute]
    if isinstance(predicate, Equals):
        return value == predicate.value
    if isinstance(predicate, InSet):
        return any(value == candidate for candidate in predicate.values)
    if isinstance(predicate, Between):
        if value is None:
            return False
        low_ok = predicate.low is None or value >= predicate.low
        return low_ok and (predicate.high is None or value <= predicate.high)
    raise TypeError(f"the oracle does not evaluate {predicate!r}")


def _filtered(rows: Sequence[Mapping[str, Any]], predicates: Any) -> list[Row]:
    return [_user_row(row) for row in rows if all(_holds(p, row) for p in predicates)]


def _aggregate(aggregate: Any, rows: Sequence[Row]) -> Any:
    if aggregate.kind == "count":
        return len(rows)
    values = [row[aggregate.expression] for row in rows]
    if aggregate.kind == "count_distinct":
        return len(set(values))
    total = math.fsum(values) if any(isinstance(v, float) for v in values) else sum(values)
    if aggregate.kind == "sum":
        return total
    return total / len(values) if values else None


def _ordered(rows: list[Row], ordering: Sequence[tuple[str, bool]]) -> list[Row]:
    # One stable pass per column, least significant first; NULLs sort as if
    # larger than every value, so they land last ascending, first descending.
    for column, ascending in reversed(ordering):
        rows = sorted(
            rows,
            key=lambda row: (row[column] is None, row[column] if row[column] is not None else 0),
            reverse=not ascending,
        )
    return rows


def evaluate(query: Any, tables: Mapping[str, Sequence[Mapping[str, Any]]]) -> tuple[list[Row], Any]:
    """``(rows, value)`` of ``query``: rows ordered but neither cut nor
    projected; ``value`` is the scalar aggregate (``None`` otherwise)."""
    rows = _filtered(tables[query.table], query.predicates)
    for spec in query.joins:
        inner = _filtered(tables[spec.table], spec.predicates)
        rows = [
            {**outer, **match}
            for outer in rows
            for match in inner
            if all(outer[left] == match[right] for left, right in spec.on)
        ]
    aggregate = query.aggregate
    if aggregate is not None and not query.grouping:
        return [], _aggregate(aggregate, rows)
    if query.grouping:
        groups: dict[tuple[Any, ...], list[Row]] = {}
        for row in rows:
            groups.setdefault(tuple(row[c] for c in query.grouping), []).append(row)
        rows = [
            {**dict(zip(query.grouping, key)), aggregate.output_name: _aggregate(aggregate, members)}
            for key, members in groups.items()
        ]
    return _ordered(rows, query.ordering), None


def _close(left: Any, right: Any) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right


def _rows_equal(left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
    return left.keys() == right.keys() and all(_close(left[k], right[k]) for k in left)


def _exact_part(row: Mapping[str, Any]) -> tuple[Any, ...]:
    return tuple((k, repr(v)) for k, v in sorted(row.items()) if not isinstance(v, float))


def _contained(found: Sequence[Row], pool: Sequence[Row]) -> bool:
    """Whether ``found`` is a sub-multiset of ``pool`` (floats isclose)."""
    buckets: dict[tuple[Any, ...], list[Row]] = {}
    for row in pool:
        buckets.setdefault(_exact_part(row), []).append(row)
    for row in found:
        candidates = buckets.get(_exact_part(row), [])
        match = next((i for i, c in enumerate(candidates) if _rows_equal(row, c)), None)
        if match is None:
            return False
        candidates.pop(match)
    return True


def _user_row(row: Mapping[str, Any]) -> Row:
    """Drop engine bookkeeping columns (clustering bucket ids, MVCC stamps)."""
    return {k: v for k, v in row.items() if not k.startswith("_")}


def check(query: Any, tables: Mapping[str, Sequence[Mapping[str, Any]]], result: Any) -> None:
    """Assert that an engine ``QueryResult`` is a correct answer to ``query``."""
    expected, value = evaluate(query, tables)
    if query.aggregate is not None and not query.grouping:
        assert _close(result.value, value), (result.value, value)
        return
    ordering = query.ordering
    keys = [tuple(row[c] for c, _ in ordering) for row in expected]
    total = bool(ordering) and all(a != b for a, b in zip(keys, keys[1:]))
    columns = query.projection
    projected = [{c: row[c] for c in columns} if columns else row for row in expected]
    found = [_user_row(row) for row in result.rows]
    count = len(expected) if query.limit is None else min(query.limit, len(expected))
    assert len(found) == count, (len(found), count)
    if total:
        assert all(map(_rows_equal, found, projected)), "rows differ from the oracle's order"
        return
    assert _contained(found, projected), "rows are not a subset of the oracle's answer"
    if ordering and (columns is None or all(c in columns for c, _ in ordering)):
        found_keys = [tuple(row[c] for c, _ in ordering) for row in found]
        assert all(
            len(a) == len(b) and all(map(_close, a, b))
            for a, b in zip(found_keys, keys[:count])
        ), "ordering keys differ from the oracle's first rows"
