"""Tests for correlation-statistics collection (Section 4.2)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bucketing import WidthBucketer
from repro.core.composite import CompositeKeySpec
from repro.core.model import CorrelationProfile
from repro.core.statistics import (
    IncrementalTableStatistics,
    StatisticsCollector,
    c_per_u_from_cardinalities,
    exact_c_per_u,
)
from repro.engine.predicates import (
    Between,
    Equals,
    ExpressionPredicate,
    InSet,
    PredicateSet,
)
from repro.sampling.adaptive import adaptive_estimate


def city_state_rows():
    """The paper's running example: city soft-determines state."""
    pairs = [
        ("Boston", "MA"),
        ("Boston", "MA"),
        ("Boston", "NH"),
        ("Springfield", "MA"),
        ("Springfield", "OH"),
        ("Cambridge", "MA"),
        ("Toledo", "OH"),
        ("Jackson", "MS"),
        ("Manchester", "NH"),
        ("Manchester", "MN"),
    ]
    return [{"city": c, "state": s, "salary": i} for i, (c, s) in enumerate(pairs)]


def test_c_per_u_from_cardinalities():
    assert c_per_u_from_cardinalities(distinct_uc=9, distinct_u=6) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        c_per_u_from_cardinalities(1, 0)


def test_exact_correlation_profile_city_state():
    collector = StatisticsCollector(city_state_rows())
    profile = collector.correlation_profile("city", "state")
    # 9 distinct (city, state) pairs over 6 distinct cities.
    assert profile.c_per_u == pytest.approx(9 / 6)
    # 10 rows over 5 states and 6 cities.
    assert profile.c_tups == pytest.approx(10 / 5)
    assert profile.u_tups == pytest.approx(10 / 6)


def test_perfect_functional_dependency_has_c_per_u_one():
    rows = [{"zip": i, "state": "MA" if i < 50 else "NH"} for i in range(100)]
    collector = StatisticsCollector(rows)
    assert collector.correlation_profile("zip", "state").c_per_u == pytest.approx(1.0)


def test_uncorrelated_attributes_have_high_c_per_u():
    rng = random.Random(0)
    rows = [{"a": rng.randrange(20), "b": rng.randrange(20)} for _ in range(5000)]
    collector = StatisticsCollector(rows)
    profile = collector.correlation_profile("a", "b")
    # Nearly every (a, b) combination appears: c_per_u approaches |b| = 20.
    assert profile.c_per_u > 15


def test_summarize_single_and_composite():
    collector = StatisticsCollector(city_state_rows())
    city = collector.summarize("city")
    assert city.distinct_values == 6
    assert city.tuples_per_value == pytest.approx(10 / 6)
    pair = collector.summarize(CompositeKeySpec.build(["city", "state"]))
    assert pair.distinct_values == 9


def test_composite_key_is_stronger_determinant():
    """(city, state) determines zip better than city alone (Section 1)."""
    rows = []
    for i in range(200):
        state = "MA" if i % 2 == 0 else "OH"
        rows.append({"city": "Springfield", "state": state, "zip": f"{state}-1"})
    rows += [{"city": f"c{i}", "state": "MA", "zip": f"z{i}"} for i in range(50)]
    collector = StatisticsCollector(rows)
    single = collector.correlation_profile("city", "zip")
    composite = collector.correlation_profile(
        CompositeKeySpec.build(["city", "state"]), "zip"
    )
    assert composite.c_per_u < single.c_per_u


def test_bucketed_key_reduces_distinct_count_not_below_targets():
    rows = [{"price": float(i), "cat": i // 100} for i in range(1000)]
    collector = StatisticsCollector(rows)
    bucketed = CompositeKeySpec.build(["price"], {"price": WidthBucketer(100)})
    profile = collector.correlation_profile(bucketed, "cat")
    # Buckets align exactly with categories: perfect correlation.
    assert profile.c_per_u == pytest.approx(1.0)
    unbucketed = collector.correlation_profile("price", "cat")
    assert unbucketed.c_per_u == pytest.approx(1.0)
    assert collector.summarize(bucketed).distinct_values == 10


def test_distinct_sampling_estimate_close_to_truth():
    rng = random.Random(3)
    rows = [{"v": rng.randrange(2000)} for _ in range(30_000)]
    collector = StatisticsCollector(rows)
    estimate = collector.distinct_sampling_estimate("v", sample_size=512, seed=1)
    truth = len({row["v"] for row in rows})
    assert 0.7 * truth <= estimate <= 1.3 * truth


def test_estimated_profile_matches_exact_on_strong_correlation():
    rng = random.Random(5)
    rows = []
    for i in range(20_000):
        c = rng.randrange(500)
        rows.append({"u": c * 2 + rng.randrange(2), "c": c})
    collector = StatisticsCollector(rows)
    exact = collector.correlation_profile("u", "c")
    estimated = collector.estimated_correlation_profile("u", "c", sample_size=5000, seed=2)
    assert exact.c_per_u == pytest.approx(1.0)
    assert estimated.c_per_u < 2.5


def test_estimated_profile_reuses_provided_sample():
    rows = [{"u": i % 10, "c": i % 5} for i in range(1000)]
    collector = StatisticsCollector(rows)
    sample = collector.collect_sample(sample_size=200, seed=7)
    a = collector.estimated_correlation_profile("u", "c", sample)
    b = collector.estimated_correlation_profile("u", "c", sample)
    assert a == b


def test_empty_rows_profile_is_zero():
    collector = StatisticsCollector([])
    profile = collector.correlation_profile("a", "b")
    assert profile.c_per_u == 0.0
    assert collector.total_rows == 0


def test_exact_c_per_u_helper():
    rows = city_state_rows()
    assert exact_c_per_u(rows, "city", "state") == pytest.approx(9 / 6)
    assert exact_c_per_u([], "city", "state") == 0.0


class TestDeleteHeavyBoundsRebuild:
    """`observe_delete` churn must re-tighten per-attribute min/max."""

    def _stats(self, threshold):
        from repro.core.statistics import IncrementalTableStatistics

        return IncrementalTableStatistics(
            sample_capacity=10_000, bounds_rebuild_deletes=threshold
        )

    def test_bounds_tighten_after_enough_deletes(self):
        stats = self._stats(threshold=50)
        rows = [{"v": i} for i in range(1000)]
        for row in rows:
            stats.observe_insert(row)
        assert stats.attribute_range("v") == (0, 999)
        # Delete the top half; the 500th delete crosses the threshold well
        # past the removed maximum, so the bounds come back from the sample.
        for row in rows[500:]:
            stats.observe_delete(row)
        assert stats.attribute_range("v") == (0, 499)
        assert stats.total_rows == 500

    def test_bounds_stay_wide_below_the_threshold(self):
        stats = self._stats(threshold=100)
        rows = [{"v": i} for i in range(200)]
        for row in rows:
            stats.observe_insert(row)
        for row in rows[150:]:  # 50 deletes < threshold
            stats.observe_delete(row)
        # Conservatively wide until enough churn accumulates.
        assert stats.attribute_range("v") == (0, 199)

    def test_inserts_after_rebuild_keep_widening(self):
        stats = self._stats(threshold=10)
        rows = [{"v": i} for i in range(100)]
        for row in rows:
            stats.observe_insert(row)
        for row in rows[90:]:
            stats.observe_delete(row)
        assert stats.attribute_range("v") == (0, 89)
        stats.observe_insert({"v": 500})
        assert stats.attribute_range("v") == (0, 500)

    def test_subsampled_reservoir_keeps_conservative_bounds(self):
        # With an incomplete sample the reservoir's extremes can lie strictly
        # inside the live domain; rebuilding from it would flip the safe
        # over-estimate into an under-estimate, so the rebuild must not fire.
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics(
            sample_capacity=100, bounds_rebuild_deletes=50
        )
        rows = [{"v": i} for i in range(10_000)]
        for row in rows:
            stats.observe_insert(row)
        assert not stats.sample_is_complete
        for row in rows[4_000:4_200]:  # interior deletes only
            stats.observe_delete(row)
        # 0 and 9999 are both still live; the bounds must not clip inward.
        assert stats.attribute_range("v") == (0, 9_999)

    def test_rebuild_threshold_validation(self):
        import pytest as _pytest

        from repro.core.statistics import IncrementalTableStatistics

        with _pytest.raises(ValueError):
            IncrementalTableStatistics(bounds_rebuild_deletes=0)

    def test_between_lookup_estimate_tracks_a_shrinking_domain(self):
        """The planner's range lookup count follows the rebuilt bounds."""
        from repro.engine.database import Database
        from repro.engine.predicates import Between
        from repro.engine.query import Query

        db = Database(buffer_pool_pages=200, stats_sample_size=10_000)
        db.create_table("t", columns=["k", "v"], tups_per_page=20)
        db.load("t", [{"k": i, "v": i % 7} for i in range(1000)])
        db.cluster("t", "k")
        table = db.table("t")
        table.statistics.bounds_rebuild_deletes = 50
        query = Query.select("t", Between("k", 0, 99))

        before = db.planner._estimate_n_lookups(table, query.predicates, ["k"])
        db.delete("t", [Between("k", 500, 999)])
        after = db.planner._estimate_n_lookups(table, query.predicates, ["k"])
        # The rebuilt bounds shrink the assumed domain to the live one, so
        # the 100-wide window keeps estimating ~100 predicated values.  With
        # the stale (0, 999) bounds the halved cardinality would cut the
        # estimate to ~50 -- the systematic mis-estimate this fix removes.
        assert table.attribute_range("k") == (0, 499)
        assert 90 <= before <= 110
        assert 90 <= after <= 110


class TestPeriodicStatisticsRefresh:
    """The ``stats_refresh_ops`` re-seeding policy (ISSUE satellite)."""

    def test_refresh_due_counts_inserts_and_deletes(self):
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics(sample_capacity=4, refresh_ops=5)
        rows = [{"v": i} for i in range(3)]
        for row in rows:
            stats.observe_insert(row)
        assert not stats.refresh_due
        stats.observe_delete(rows[0])
        stats.observe_delete(rows[1])
        assert stats.refresh_due
        stats.rebuild([rows[2]])  # a rebuild resets the refresh clock
        assert not stats.refresh_due

    def test_refresh_ops_validation(self):
        import pytest as _pytest

        from repro.core.statistics import IncrementalTableStatistics

        with _pytest.raises(ValueError):
            IncrementalTableStatistics(refresh_ops=0)

    def test_disabled_by_default(self):
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics(sample_capacity=2)
        for i in range(1000):
            stats.observe_insert({"v": i})
        assert not stats.refresh_due

    def test_table_reseeds_after_enough_dml(self):
        """Delete erosion on a subsampled reservoir heals at the refresh.

        200 loaded rows overflow the 120-row reservoir, so the sample is a
        subsample and the delete-churn bounds rebuild (which requires a
        *complete* sample) can never clip the stale bounds.  The periodic
        re-seed scans the heap instead: ``refresh_ops=33`` makes the 100th
        delete trip the fourth refresh (200 load ops trip one immediately,
        then every 33 deletes: 34, 67, 100), at which point the 100
        survivors fit the reservoir again -- complete sample, exact bounds.
        """
        from repro.engine.database import Database
        from repro.engine.predicates import Between

        def build(refresh_ops):
            db = Database(
                buffer_pool_pages=200,
                stats_sample_size=120,
                stats_refresh_ops=refresh_ops,
            )
            db.create_table("t", columns=["k"], tups_per_page=20)
            db.load("t", [{"k": i} for i in range(200)])
            return db

        # Without the policy, deleting half the table erodes the subsampled
        # reservoir (discarded sample rows are never replaced) and the
        # bounds stay conservatively wide forever.
        eroded = build(None)
        eroded.delete("t", [Between("k", 100, 199)])
        eroded_stats = eroded.table("t").statistics
        assert not eroded_stats.sample_is_complete
        assert len(eroded_stats.sample_rows) < eroded.table("t").num_rows
        assert eroded.table("t").attribute_range("k") == (0, 199)

        refreshed = build(33)
        refreshed.delete("t", [Between("k", 100, 199)])
        stats = refreshed.table("t").statistics
        assert stats.sample_is_complete
        assert len(stats.sample_rows) == refreshed.table("t").num_rows == 100
        assert refreshed.table("t").attribute_range("k") == (0, 99)


# -- columnar planner statistics vs the per-row definitions ---------------------

NAN = float("nan")


def _row_match_fraction(stats, predicates):
    """The per-row selectivity definition: ``PredicateSet.matches`` per row."""
    rows = stats.sample_rows
    return sum(1 for row in rows if predicates.matches(row)) / len(rows) if rows else 0.0


def _row_cardinality(stats, spec):
    """The per-row cardinality definition: ``key_of`` on every sample row."""
    keys = [spec.key_of(row) for row in stats.sample_rows]
    if not keys:
        return 0
    if stats.sample_is_complete:
        return len(set(keys))
    return int(round(adaptive_estimate(keys, max(stats.total_rows, len(keys)))))


def _row_correlation_profile(stats, u_spec, c_spec):
    """The per-row Table 2 definition, exact or Adaptive-Estimator-scaled."""
    rows = stats.sample_rows
    if not rows:
        return CorrelationProfile(c_per_u=0.0, c_tups=0.0, u_tups=0.0)
    u_keys = [u_spec.key_of(row) for row in rows]
    c_keys = [c_spec.key_of(row) for row in rows]
    pairs = list(zip(u_keys, c_keys))
    total = len(rows)
    if stats.sample_is_complete:
        return CorrelationProfile(
            c_per_u=len(set(pairs)) / len(set(u_keys)),
            c_tups=total / len(set(c_keys)),
            u_tups=total / len(set(u_keys)),
        )
    total = max(stats.total_rows, total)
    d_u = adaptive_estimate(u_keys, total)
    d_c = adaptive_estimate(c_keys, total)
    d_uc = max(adaptive_estimate(pairs, total), d_u, d_c)
    return CorrelationProfile(
        c_per_u=d_uc / d_u, c_tups=total / max(d_c, 1.0), u_tups=total / max(d_u, 1.0)
    )


def _outcome(compute):
    """A result, or the type and message of the ``TypeError`` it raised."""
    try:
        return ("value", compute())
    except TypeError as error:
        return ("TypeError", str(error))


_numbers = st.one_of(
    st.integers(-3, 3), st.floats(-3, 3, allow_nan=False), st.just(NAN), st.none()
)
_mixed = st.one_of(st.integers(0, 3), st.sampled_from(["x", "y"]), st.just(NAN), st.none())
_rows = st.lists(
    st.fixed_dictionaries({"a": _numbers, "b": st.integers(0, 4), "m": _mixed}),
    max_size=40,
)
_predicates = st.lists(
    st.one_of(
        st.builds(Between, st.just("a"), st.integers(-2, 0), st.integers(0, 2)),
        st.builds(Between, st.just("a"), st.none(), st.floats(-2, 2, allow_nan=False)),
        st.builds(Equals, st.just("a"), _numbers),
        st.builds(InSet, st.just("b"), st.lists(st.integers(0, 4), max_size=3)),
        st.builds(Between, st.just("m"), st.just(1), st.just(2)),
        st.builds(Equals, st.just("m"), _mixed),
        st.just(ExpressionPredicate("b_even", lambda row: row["b"] % 2 == 0)),
    ),
    max_size=3,
)
_SPECS = [
    CompositeKeySpec.build(["a"]),
    CompositeKeySpec.build(["m"]),
    CompositeKeySpec.build(["a", "m"]),
    CompositeKeySpec.build(["b"], {"b": WidthBucketer(2)}),
]
_CLUSTERED = [CompositeKeySpec.build(["b"]), CompositeKeySpec.build(["m"])]


@given(
    rows=_rows,
    predicates=_predicates,
    capacity=st.integers(1, 50),
    deletes=st.integers(0, 5),
)
@example(  # NaN, and two predicates on one attribute
    rows=[{"a": NAN, "b": 1, "m": 0}, {"a": 1, "b": 2, "m": 0}, {"a": 1.5, "b": 2, "m": 0}],
    predicates=[Between("a", 0, 2), Equals("a", 1)],
    capacity=50,
    deletes=0,
)
@example(  # None raises the same TypeError on the first row that reaches it
    rows=[{"a": 1, "b": 1, "m": 0}, {"a": None, "b": 2, "m": 0}],
    predicates=[Between("a", 0, 2)],
    capacity=50,
    deletes=0,
)
@example(  # mixed types, an expression predicate, a subsampled reservoir
    rows=[{"a": i, "b": i % 5, "m": ["x", 1, None, NAN][i % 4]} for i in range(40)],
    predicates=[ExpressionPredicate("b_even", lambda row: row["b"] % 2 == 0), Equals("m", "x")],
    capacity=10,
    deletes=2,
)
@example(rows=[{"a": 1, "b": 1, "m": 0}], predicates=[], capacity=50, deletes=0)
@settings(max_examples=200, deadline=None)
def test_columnar_statistics_match_per_row_definitions(rows, predicates, capacity, deletes):
    """Column vectors + count kernels give exactly the per-row results."""
    stats = IncrementalTableStatistics(sample_capacity=capacity, seed=3)
    for row in rows:
        stats.observe_insert(row)
    for row in rows[:deletes]:
        stats.observe_delete(row)
    predicate_set = PredicateSet(predicates)
    assert _outcome(lambda: stats.match_fraction(predicate_set)) == _outcome(
        lambda: _row_match_fraction(stats, predicate_set)
    )
    for spec in _SPECS:
        assert stats.cardinality(spec) == _row_cardinality(stats, spec)
        for clustered in _CLUSTERED:
            if clustered.attributes[0] in spec.attributes:
                continue
            assert stats.correlation_profile(spec, clustered) == _row_correlation_profile(
                stats, spec, clustered
            )


def test_empty_predicate_set_compiles_nothing():
    stats = IncrementalTableStatistics()
    stats.observe_insert({"a": 1})
    predicate_set = PredicateSet()
    assert stats.match_fraction(predicate_set) == 1.0
    assert predicate_set._count_kernel is None
    # The kernel itself also treats the empty conjunction as TRUE.
    columns, count = predicate_set.count_kernel()
    assert columns == (None,)
    assert count([[{"a": 1}, {"a": 2}]]) == 2
