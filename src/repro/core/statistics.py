"""Computing the correlation statistics of the cost model (Section 4.2).

The central statistic is ``c_per_u``: the average number of distinct
clustered-attribute values that co-occur with each unclustered value::

    c_per_u = D(Au, Ac) / D(Au)

where ``D(.)`` counts distinct values.  The collector computes these counts
either exactly (one pass over the rows) or from estimators:

* Distinct Sampling (Gibbons) for single-attribute cardinalities, which needs
  a full scan but is highly accurate;
* the Adaptive Estimator (Charikar et al.) over an in-memory random sample,
  used by the CM Advisor when it must evaluate hundreds of candidate
  composite keys quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Protocol, Sequence

from repro.core.bucketing import IdentityBucketer
from repro.core.composite import CompositeKeySpec
from repro.core.model import CorrelationProfile
from repro.sampling.adaptive import adaptive_estimate
from repro.sampling.distinct import DistinctSampler
from repro.sampling.reservoir import ReservoirSampler


#: A compiled selectivity counter: the columns it reads (attribute names, or
#: ``None`` for the rows themselves) and a function taking one sequence per
#: column that returns how many positions match.
CountKernel = tuple[tuple[str | None, ...], Callable[[Sequence[Sequence[Any]]], int]]


class CountablePredicates(Protocol):
    """A conjunction :meth:`IncrementalTableStatistics.match_fraction` can
    count: its hashable terms (the memo key) and a compiled count kernel."""

    def __iter__(self) -> Iterator[Hashable]: ...

    def count_kernel(self) -> CountKernel: ...


def c_per_u_from_cardinalities(distinct_uc: float, distinct_u: float) -> float:
    """``c_per_u = D(Au, Ac) / D(Au)`` (Section 4.2)."""
    if distinct_u <= 0:
        raise ValueError("distinct count of the unclustered attribute must be positive")
    return distinct_uc / distinct_u


@dataclass(frozen=True)
class AttributeSummary:
    """Exact summary of one attribute (or composite key)."""

    distinct_values: int
    total_rows: int

    @property
    def tuples_per_value(self) -> float:
        """Average number of tuples carrying each value (``u_tups``/``c_tups``)."""
        if self.distinct_values == 0:
            return 0.0
        return self.total_rows / self.distinct_values


class StatisticsCollector:
    """Computes Table 1 / Table 2 statistics over a collection of rows.

    The collector works on plain row dictionaries so that it can be used both
    by the engine (exact statistics at clustering time) and by the advisor
    (estimates over samples).
    """

    def __init__(self, rows: Sequence[Mapping[str, Any]]) -> None:
        self._rows = rows

    @property
    def total_rows(self) -> int:
        return len(self._rows)

    # -- exact statistics -------------------------------------------------------

    def summarize(self, key_spec: CompositeKeySpec | str) -> AttributeSummary:
        """Exact distinct count for an attribute or bucketed composite key."""
        spec = self._as_spec(key_spec)
        seen = {spec.key_of(row) for row in self._rows}
        return AttributeSummary(distinct_values=len(seen), total_rows=len(self._rows))

    def correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
    ) -> CorrelationProfile:
        """Exact Table 2 statistics for the pair (Au, Ac)."""
        u_spec = self._as_spec(unclustered)
        c_spec = self._as_spec(clustered)
        return exact_profile_of_keys(
            [u_spec.key_of(row) for row in self._rows],
            [c_spec.key_of(row) for row in self._rows],
        )

    # -- estimated statistics -----------------------------------------------------

    def distinct_sampling_estimate(
        self, attribute: str, *, sample_size: int = 4096, seed: int = 0
    ) -> float:
        """Single-attribute cardinality via Gibbons' Distinct Sampling."""
        sampler = DistinctSampler(sample_size, seed=seed)
        for row in self._rows:
            sampler.add(row[attribute])
        return sampler.estimate()

    def collect_sample(
        self, *, sample_size: int = 30_000, seed: int = 0
    ) -> list[Mapping[str, Any]]:
        """A uniform random row sample (collected during the same scan)."""
        reservoir = ReservoirSampler(sample_size, seed=seed)
        reservoir.extend(self._rows)
        return reservoir.sample

    def estimated_correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
        sample: Sequence[Mapping[str, Any]] | None = None,
        *,
        sample_size: int = 30_000,
        seed: int = 0,
        total_rows: int | None = None,
    ) -> CorrelationProfile:
        """Table 2 statistics estimated with the Adaptive Estimator.

        ``sample`` may be supplied so that the advisor can reuse one sample
        across hundreds of candidate designs (as in Section 6.1.3).
        ``total_rows`` overrides the population size the sample is scaled to;
        this lets the advisor treat the rows it was given as a sample of a
        larger deployed table.
        """
        u_spec = self._as_spec(unclustered)
        c_spec = self._as_spec(clustered)
        if sample is None:
            sample = self.collect_sample(sample_size=sample_size, seed=seed)
        return estimated_profile_of_keys(
            [u_spec.key_of(row) for row in sample],
            [c_spec.key_of(row) for row in sample],
            total_rows or len(self._rows),
        )

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _as_spec(key: CompositeKeySpec | str) -> CompositeKeySpec:
        if isinstance(key, CompositeKeySpec):
            return key
        return CompositeKeySpec.build([key])


def exact_profile_of_keys(
    u_keys: Sequence[Hashable], c_keys: Sequence[Hashable]
) -> CorrelationProfile:
    """Exact Table 2 statistics from the rows' ``Au`` and ``Ac`` keys.

    ``u_keys[i]`` and ``c_keys[i]`` are row ``i``'s keys; a key may be a
    bare value or any tuple holding it -- only which keys are equal counts.
    """
    total = len(u_keys)
    if not total:
        return CorrelationProfile(c_per_u=0.0, c_tups=0.0, u_tups=0.0)
    distinct_u = len(set(u_keys))
    return CorrelationProfile(
        c_per_u=c_per_u_from_cardinalities(len(set(zip(u_keys, c_keys))), distinct_u),
        c_tups=total / len(set(c_keys)),
        u_tups=total / distinct_u,
    )


def estimated_profile_of_keys(
    u_keys: Sequence[Hashable], c_keys: Sequence[Hashable], total_rows: int
) -> CorrelationProfile:
    """Table 2 statistics estimated with the Adaptive Estimator from the
    ``Au`` and ``Ac`` keys of a sample of ``total_rows`` rows."""
    if not u_keys:
        return CorrelationProfile(c_per_u=0.0, c_tups=0.0, u_tups=0.0)
    total = max(total_rows, len(u_keys))
    d_u = adaptive_estimate(u_keys, total)
    d_c = adaptive_estimate(c_keys, total)
    d_uc = adaptive_estimate(list(zip(u_keys, c_keys)), total)
    # A pair cannot be rarer than either of its parts.
    d_uc = max(d_uc, d_u, d_c)
    return CorrelationProfile(
        c_per_u=c_per_u_from_cardinalities(d_uc, d_u),
        c_tups=total / max(d_c, 1.0),
        u_tups=total / max(d_u, 1.0),
    )


#: Default reservoir capacity for incremental table statistics.  Large enough
#: that every bundled data set (<= ~100 k rows) keeps a *complete* sample --
#: exact statistics, bit-identical plans -- while genuinely large tables
#: degrade gracefully to sample-based estimates.
DEFAULT_STATS_SAMPLE_SIZE = 100_000


class IncrementalTableStatistics:
    """Planner statistics maintained incrementally, never scanning the heap.

    The paper's planner needs three families of statistics: distinct counts
    (for ``n_lookups`` and cardinalities), correlation profiles (``c_per_u``,
    ``c_tups``, ``u_tups`` of Table 2), and attribute min/max (range
    selectivity).  All three are served from state maintained as rows flow
    through the table:

    * a reservoir row sample (:class:`~repro.sampling.reservoir.ReservoirSampler`)
      updated on every insert and delete -- exact while it still holds every
      live row, estimated (Adaptive Estimator) beyond that;
    * per-attribute min/max updated on insert; a delete cannot cheaply tell
      whether it removed an extreme value, so the bounds stay conservatively
      wide until ``bounds_rebuild_deletes`` deletes have accumulated *and*
      the reservoir still holds every live row, at which point they are
      recomputed from it exactly.  Without that rebuild a shrinking table's
      range selectivity would over-estimate forever; without the
      completeness gate a subsample's interior extremes would clip the
      bounds below the live domain and flip the error to under-estimation;
    * the live row count.

    Derived profiles are cached until the next insert/delete, so repeated
    planning between updates is O(1) and planning after an update is bounded
    by the sample size -- independent of the heap.
    """

    def __init__(
        self,
        *,
        sample_capacity: int = DEFAULT_STATS_SAMPLE_SIZE,
        seed: int = 0,
        bounds_rebuild_deletes: int | None = None,
        refresh_ops: int | None = None,
    ) -> None:
        if sample_capacity <= 0:
            raise ValueError("sample_capacity must be positive")
        if bounds_rebuild_deletes is not None and bounds_rebuild_deletes <= 0:
            raise ValueError("bounds_rebuild_deletes must be positive")
        if refresh_ops is not None and refresh_ops <= 0:
            raise ValueError("refresh_ops must be positive")
        self.sample_capacity = sample_capacity
        self.bounds_rebuild_deletes = (
            bounds_rebuild_deletes
            if bounds_rebuild_deletes is not None
            else max(64, sample_capacity // 100)
        )
        #: Periodic re-seeding policy: after this many observed inserts +
        #: deletes the owner should call :meth:`rebuild` with a fresh scan
        #: (see :attr:`refresh_due`).  ``None`` disables the policy.  This
        #: is the full-refresh complement of the bounds-only rebuild above:
        #: once the reservoir is a *subsample*, deletes erode it (discarded
        #: rows are not replaced) and its distribution slowly drifts from
        #: the live table; a periodic re-seed restores an exactly uniform --
        #: or, for small tables, complete -- sample.
        self.refresh_ops = refresh_ops
        self._seed = seed
        self._reset()

    def _reset(self) -> None:
        self._reservoir = ReservoirSampler(self.sample_capacity, seed=self._seed)
        self._total_rows = 0
        self._minmax: dict[str, tuple[Any, Any]] = {}
        #: Attributes whose values turned out not to be mutually comparable.
        self._untracked: set[str] = set()
        self._deletes_since_bounds_rebuild = 0
        #: Whether any delete since the last rebuild hit a min/max value.
        self._bounds_possibly_stale = False
        self._ops_since_refresh = 0
        self._profile_cache: dict[tuple, CorrelationProfile] = {}
        self._cardinality_cache: dict[tuple, int] = {}
        self._selectivity_cache: dict[Any, float] = {}
        #: Attribute -> its values over the reservoir, in reservoir order.
        #: Tuples, not lists: the collector untracks a tuple of atomic
        #: values, so full collections do not re-walk every vector.
        self._columns: dict[str, tuple[Any, ...]] = {}
        #: Set by every insert/delete.  The next :meth:`_column` call drops
        #: the stale vectors, so freeing them (milliseconds for 80k-row
        #: vectors) is paid by the next plan, not by the write.
        self._columns_stale = False

    # -- maintenance ------------------------------------------------------------

    @property
    def refresh_due(self) -> bool:
        """True once ``refresh_ops`` maintenance operations have accumulated.

        The statistics object cannot scan the heap itself; the owning table
        checks this after each insert/delete and calls :meth:`rebuild` with
        a fresh row scan when it trips.
        """
        return (
            self.refresh_ops is not None
            and self._ops_since_refresh >= self.refresh_ops
        )

    def observe_insert(self, row: Mapping[str, Any]) -> None:
        self._total_rows += 1
        self._ops_since_refresh += 1
        self._reservoir.add(row)
        for attribute, value in row.items():
            self._observe_value(attribute, value)
        self._invalidate()

    def observe_delete(self, row: Mapping[str, Any]) -> None:
        self._total_rows = max(0, self._total_rows - 1)
        self._ops_since_refresh += 1
        self._reservoir.discard(row)
        # A single delete leaves min/max conservatively wide (we cannot know
        # cheaply whether duplicates of an extreme remain), but enough churn
        # re-derives them from the reservoir so Between selectivity tracks a
        # shrinking domain.  Three gates keep the rebuild exact and cheap:
        # the delete *count* threshold rate-limits the O(sample) pass, the
        # *touched-a-bound* flag skips it entirely for interior-only churn
        # (whose rebuild would be a no-op), and the *completeness* check
        # refuses to clip bounds from a subsample whose extremes can sit
        # strictly inside the live domain (that would turn the safe
        # over-estimate into an under-estimate).
        self._deletes_since_bounds_rebuild += 1
        if not self._bounds_possibly_stale:
            self._bounds_possibly_stale = self._touches_bound(row)
        if (
            self._bounds_possibly_stale
            and self._deletes_since_bounds_rebuild >= self.bounds_rebuild_deletes
            and self.sample_is_complete
        ):
            self._rebuild_bounds_from_sample()
        self._invalidate()

    def _touches_bound(self, row: Mapping[str, Any]) -> bool:
        """Whether deleting ``row`` may have shrunk any attribute's bounds."""
        for attribute, value in row.items():
            bounds = self._minmax.get(attribute)
            if bounds is not None and (value == bounds[0] or value == bounds[1]):
                return True
        return False

    def _rebuild_bounds_from_sample(self) -> None:
        """Recompute per-attribute min/max from the (complete) reservoir.

        Only called while the sample holds every live row, so the rebuilt
        bounds are exact.  Attributes flagged as non-comparable stay
        untracked.
        """
        self._minmax = {}
        for row in self._reservoir.view:
            for attribute, value in row.items():
                self._observe_value(attribute, value)
        self._deletes_since_bounds_rebuild = 0
        self._bounds_possibly_stale = False

    def rebuild(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Recompute from scratch: re-seed the reservoir, bounds and caches.

        Called by DDL that rewrites the heap anyway (clustering) and by the
        periodic :attr:`refresh_due` policy; also resets the refresh clock.
        """
        self._reset()
        for row in rows:
            self._total_rows += 1
            self._reservoir.add(row)
            for attribute, value in row.items():
                self._observe_value(attribute, value)

    def _observe_value(self, attribute: str, value: Any) -> None:
        if attribute in self._untracked:
            return
        bounds = self._minmax.get(attribute)
        if bounds is None:
            self._minmax[attribute] = (value, value)
            return
        low, high = bounds
        try:
            if value < low:
                low = value
            elif value > high:
                high = value
        except TypeError:
            self._untracked.add(attribute)
            self._minmax.pop(attribute, None)
            return
        self._minmax[attribute] = (low, high)

    def _invalidate(self) -> None:
        self._profile_cache.clear()
        self._cardinality_cache.clear()
        self._selectivity_cache.clear()
        self._columns_stale = True

    # -- views ------------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return self._total_rows

    @property
    def sample_rows(self) -> list[Mapping[str, Any]]:
        return self._reservoir.sample

    @property
    def sample_is_complete(self) -> bool:
        """True while the reservoir still holds every live row (exact mode)."""
        return len(self._reservoir) == self._total_rows

    def attribute_range(self, attribute: str) -> tuple[Any, Any] | None:
        """Incrementally-maintained ``(min, max)``; ``None`` when unknown."""
        return self._minmax.get(attribute)

    def match_fraction(self, predicates: CountablePredicates) -> float:
        """Fraction of live rows satisfying every predicate, from the sample.

        The reservoir is a uniform sample of the live rows, so the sample
        match rate is an unbiased selectivity estimate (exact while the
        sample is complete).  The predicates' compiled count kernel runs over
        the sample's column vectors (:meth:`_column`), which this layer
        builds without knowing the engine's predicate types.  An empty table
        estimates 0.0; an empty conjunction 1.0, with nothing compiled.

        The result is memoised under the predicates' terms, when hashable,
        until the next insert or delete -- replanning an unchanged query
        then skips the sweep entirely.
        """
        terms = tuple(predicates)
        key: tuple[Hashable, ...] | None = terms
        try:
            return self._selectivity_cache[key]
        except KeyError:
            pass
        except TypeError:
            key = None
        rows = self._reservoir.view
        if not rows:
            fraction = 0.0
        elif not terms:
            fraction = 1.0
        else:
            columns, count = predicates.count_kernel()
            fraction = count([self._column(column) for column in columns]) / len(rows)
        if key is not None:
            self._selectivity_cache[key] = fraction
        return fraction

    def _column(self, attribute: str | None) -> Sequence[Any]:
        """The sample's values of ``attribute`` (``None``: the rows), in
        reservoir order.  Built on first use and invalidated by the next
        insert or delete, so only attributes planned on since the last
        write are kept."""
        if attribute is None:
            return self._reservoir.view
        if self._columns_stale:
            self._columns.clear()
            self._columns_stale = False
        column = self._columns.get(attribute)
        if column is None:
            column = self._columns[attribute] = tuple(
                map(itemgetter(attribute), self._reservoir.view)
            )
        return column

    def _key_vector(self, spec: CompositeKeySpec) -> Sequence[Hashable]:
        """Every sample row's ``spec`` key, in reservoir order.

        Identity-bucketed keys come straight from the column vectors -- the
        bare value for one attribute, a tuple of values for several; both
        are equal exactly when the ``key_of`` tuples are, so distinct counts
        agree.  Bucketed specs go through ``key_of``.
        """
        if self._spec_cache_key(spec) is None:
            return [spec.key_of(row) for row in self._reservoir.view]
        columns = [self._column(attribute) for attribute in spec.attributes]
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    # -- derived statistics ------------------------------------------------------

    def cardinality(self, key: CompositeKeySpec | str) -> int:
        """Distinct-value count of an attribute or composite key.

        Exact while the sample is complete; otherwise the Adaptive Estimator
        scaled to the live row count.
        """
        spec = StatisticsCollector._as_spec(key)
        cache_key = self._spec_cache_key(spec)
        if cache_key is not None and cache_key in self._cardinality_cache:
            return self._cardinality_cache[cache_key]
        if not self._reservoir.view:
            return 0
        keys = self._key_vector(spec)
        if self.sample_is_complete:
            estimate = len(set(keys))
        else:
            estimate = int(round(adaptive_estimate(keys, max(self._total_rows, len(keys)))))
        if cache_key is not None:
            self._cardinality_cache[cache_key] = estimate
        return estimate

    def correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
    ) -> CorrelationProfile:
        """Table 2 statistics for (Au, Ac), exact or sample-estimated."""
        u_spec = StatisticsCollector._as_spec(unclustered)
        c_spec = StatisticsCollector._as_spec(clustered)
        u_key = self._spec_cache_key(u_spec)
        c_key = self._spec_cache_key(c_spec)
        cache_key = (u_key, c_key) if u_key is not None and c_key is not None else None
        if cache_key is not None and cache_key in self._profile_cache:
            return self._profile_cache[cache_key]
        u_keys = self._key_vector(u_spec)
        c_keys = self._key_vector(c_spec)
        if self.sample_is_complete:
            profile = exact_profile_of_keys(u_keys, c_keys)
        else:
            profile = estimated_profile_of_keys(u_keys, c_keys, self._total_rows)
        if cache_key is not None:
            self._profile_cache[cache_key] = profile
        return profile

    @staticmethod
    def _spec_cache_key(spec: CompositeKeySpec) -> tuple | None:
        """A hashable cache key for unbucketed specs (the planner's case)."""
        if any(not isinstance(part.bucketer, IdentityBucketer) for part in spec.parts):
            return None
        return tuple(spec.attributes)


def join_fanout(
    inner_rows: float, outer_key_cardinality: float, inner_key_cardinality: float
) -> float:
    """Expected inner matches per outer row for an equi-join.

    The textbook containment-of-values estimate: the join produces
    ``T(R) * T(S) / max(V(R, a), V(S, b))`` rows, so each outer (``R``) row
    matches ``T(S) / max(V(R, a), V(S, b))`` inner rows.  Both cardinalities
    come from the tables' reservoir samples, so join planning -- like
    single-table planning -- never scans a heap.  A foreign-key join onto a
    key column gives the familiar special case of one match per outer row.
    """
    distinct = max(outer_key_cardinality, inner_key_cardinality, 1.0)
    return max(0.0, inner_rows) / distinct


def exact_c_per_u(
    rows: Iterable[Mapping[str, Any]],
    unclustered: CompositeKeySpec | str,
    clustered: CompositeKeySpec | str,
) -> float:
    """Convenience function: exact ``c_per_u`` over an iterable of rows.

    Both sides accept either a plain attribute name or a (possibly bucketed)
    :class:`CompositeKeySpec`.
    """
    collector = StatisticsCollector(list(rows))
    return collector.correlation_profile(unclustered, clustered).c_per_u
