"""Span tracing from outside the program.

The traced run wraps the public entry points of each module in place (a
plain attribute swap, undone by :meth:`Tracer.close`), records one span per
call -- name, start, end, the enclosing span and the request it belongs to --
and keeps them in memory until the run writes them out.  Counters that are
too hot for a span (``CompositeKeySpec.key_of``) are counted only.  Nothing
in the program itself changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

from repro.core.advisor import CMAdvisor
from repro.core.composite import CompositeKeySpec
from repro.core.correlation_map import CorrelationMap
from repro.core.statistics import IncrementalTableStatistics, StatisticsCollector
from repro.engine import parallel
from repro.engine.database import Database
from repro.engine.planner import Planner
from repro.engine.scheduler import QueryScheduler
from repro.engine.table import Table
from repro.index.secondary import SecondaryIndex
from repro.storage.wal import WriteAheadLog

#: (owner, attribute, span name) for every traced entry point.
SPAN_POINTS: tuple[tuple[Any, str, str], ...] = (
    (Database, "run_query", "db.run_query"),
    (Database, "insert", "db.insert"),
    (Database, "delete", "db.delete"),
    (Planner, "choose", "planner"),
    (Planner, "choose_join", "planner"),
    (Planner, "choose_partitioned", "planner"),
    (Planner, "choose_partitioned_join", "planner"),
    (parallel, "maybe_run_parallel", "parallel"),
    (QueryScheduler, "run", "scheduler"),
    (CorrelationMap, "lookup_constraints", "cm.lookup"),
    (CorrelationMap, "lookup", "cm.lookup"),
    (CorrelationMap, "insert", "cm.maint"),
    (CorrelationMap, "delete", "cm.maint"),
    (SecondaryIndex, "probe", "btree.probe"),
    (SecondaryIndex, "probe_range", "btree.probe"),
    (SecondaryIndex, "probe_prefix_range", "btree.probe"),
    (SecondaryIndex, "insert", "btree.maint"),
    (SecondaryIndex, "delete", "btree.maint"),
    (Table, "insert_row", "table.insert"),
    (Table, "delete_row", "table.delete"),
    (IncrementalTableStatistics, "observe_insert", "stats.observe"),
    (IncrementalTableStatistics, "observe_delete", "stats.observe"),
    (WriteAheadLog, "flush", "wal.flush"),
    (CMAdvisor, "recommend", "advisor.recommend"),
    (CMAdvisor, "evaluate_design", "advisor.evaluate"),
    (StatisticsCollector, "estimated_correlation_profile", "estimator"),
)

#: Entry points that are only counted.
COUNT_POINTS: tuple[tuple[Any, str, str], ...] = (
    (CompositeKeySpec, "key_of", "composite.key_of"),
)

#: Every library span name, in report order.
LAYERS = tuple(dict.fromkeys(name for _, _, name in SPAN_POINTS))

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory spans and counters around the patched entry points."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in SPAN_POINTS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        for owner, attr, name in COUNT_POINTS:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        declines = name == "parallel"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self._request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if declines and result is None:
                self.counts["parallel.declined"] += 1
            return result

        return wrapper

    def _counted(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- request roots -------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open the root span of one benchmark request."""
        self._request += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, self._request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    # -- output --------------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, out)


class SpanSummary:
    """Totals over the spans ``start:stop``: time, calls and self time per name.

    ``outer_*`` counts a span only when its parent has another name, so a
    layer that re-enters itself (a planner entry calling another) is not
    counted twice.  Self time is a span's duration minus the time its
    direct children cover.
    """

    def __init__(self, all_spans: list[list[Any]], start: int, stop: int) -> None:
        self.calls: Counter[str] = Counter()
        self.outer_calls: Counter[str] = Counter()
        self.outer_seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        #: Outermost time of each name nested under each root request name.
        self.under_root: defaultdict[tuple[str, str], float] = defaultdict(float)
        by_index = {index: all_spans[index] for index in range(start, stop)}
        child_seconds: defaultdict[int, float] = defaultdict(float)
        for index, span in by_index.items():
            if span[PARENT] >= 0:
                child_seconds[span[PARENT]] += span[END] - span[START]
        roots: dict[int, int] = {}
        for index, span in by_index.items():
            name, duration, parent = span[NAME], span[END] - span[START], span[PARENT]
            self.calls[name] += 1
            self.self_seconds[name] += duration - child_seconds[index]
            parent_span = by_index.get(parent)
            root = index if parent_span is None else roots[parent]
            roots[index] = root
            if parent_span is None or parent_span[NAME] != name:
                self.outer_calls[name] += 1
                self.outer_seconds[name] += duration
                self.under_root[(by_index[root][NAME], name)] += duration

    def root_seconds(self, prefix: str) -> float:
        """Total duration of the request roots whose name starts with ``prefix``."""
        return sum(
            seconds for (root, name), seconds in self.under_root.items()
            if root == name and root.startswith(prefix)
        )

    def nested_seconds(self, root_prefix: str, name: str) -> float:
        return sum(
            seconds for (root, inner), seconds in self.under_root.items()
            if inner == name and root != inner and root.startswith(root_prefix)
        )
