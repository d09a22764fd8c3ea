"""Incremental ≡ batch: property tests for the streaming clustering pipeline.

The contract under test: for **any** prefix of a modification stream, a
single-stream :class:`~repro.core.sharded.ShardedPipeline` (no shard
prefixes: one catch-all shard) that consumed the prefix through journal
cursors produces exactly the clusters the batch
:func:`~repro.core.pipeline.cluster_settings` computes from scratch over the
same store — same key sets, same order, same parameters.  The acceptance
bar for this PR is ≥ 200 random prefixes checked; the hypothesis suites and
the per-profile trace sweep below together run well past that.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import DELETED, TTKV
from repro.workload.machines import PROFILES
from repro.workload.tracegen import generate_trace


def _sorted_stream(events):
    """Events ordered the way a live deployment would append them."""
    return [e for _, e in sorted(enumerate(events), key=lambda p: (p[1][0], p[0]))]


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def assert_stream_equivalence(events, rng, cuts=4, **params):
    """Feed ``events`` in random chunks; compare to batch at every cut."""
    stream = _sorted_stream(events)
    live = TTKV()
    pipeline = ShardedPipeline(live, **params)
    positions = sorted(rng.sample(range(len(stream) + 1), min(cuts, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    checked = 0
    for position in positions:
        live.record_events(stream[consumed:position])
        consumed = position
        incremental = pipeline.update()
        batch = cluster_settings(live, **params)
        assert _key_sets(incremental) == _key_sets(batch), (
            f"divergence at prefix {position}/{len(stream)} with {params}"
        )
        checked += 1
    return checked


# -- hypothesis suites -------------------------------------------------------

_timestamps = st.floats(min_value=0, max_value=2000, allow_nan=False)

_mixed_events = st.lists(
    st.tuples(
        _timestamps,
        st.sampled_from(["k0", "k1", "k2", "k3", "k4"]),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=50,
)

# DELETED-heavy: ~75% of modifications are deletions.
_deleted_heavy_events = st.lists(
    st.tuples(
        _timestamps,
        st.sampled_from(["k0", "k1", "k2"]),
        st.one_of(
            st.just(DELETED), st.just(DELETED), st.just(DELETED),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    min_size=1,
    max_size=40,
)

# Single-key traces: the degenerate one-component, no-pairs case.
_single_key_events = st.lists(
    st.tuples(_timestamps, st.just("only"), st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=25,
)


@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_equivalence_mixed_streams(events, rng):
    assert_stream_equivalence(events, rng)


@given(
    _mixed_events,
    st.randoms(use_true_random=False),
    st.sampled_from([0.0, 1.0, 30.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_equivalence_across_windows_and_thresholds(events, rng, window, threshold):
    assert_stream_equivalence(
        events, rng, window=window, correlation_threshold=threshold
    )


@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_equivalence_bucket_grouping(events, rng):
    assert_stream_equivalence(events, rng, window=10.0, grouping="buckets")


@given(_deleted_heavy_events, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_equivalence_deleted_heavy(events, rng):
    assert_stream_equivalence(events, rng)


@given(_single_key_events, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_equivalence_single_key(events, rng):
    assert_stream_equivalence(events, rng)


# -- generated traces across every workload profile --------------------------

def _scaled(profile):
    """A fast, small variant of a Table I machine profile."""
    return dataclasses.replace(
        profile,
        days=2,
        noise_keys=min(profile.noise_keys, 25),
        noise_writes_per_day=min(profile.noise_writes_per_day, 60),
        reads_per_day=min(profile.reads_per_day, 100),
    )


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_equivalence_on_generated_profile_traces(profile):
    trace = generate_trace(_scaled(profile))
    events = trace.ttkv.write_events()
    assert events, f"profile {profile.name} generated no modifications"
    rng = random.Random(profile.seed)
    checked = assert_stream_equivalence(events, rng, cuts=8)
    assert checked >= 2


# -- incremental-specific behaviours -----------------------------------------

class TestIncrementalBehaviour:
    def test_component_reuse_reported(self):
        store = TTKV()
        pipeline = ShardedPipeline(store)
        for t in (10.0, 200.0):
            store.record_write("a", t, t)
            store.record_write("b", t, t)
        pipeline.update()
        # a distant, unrelated pair must not re-agglomerate {a, b}
        store.record_write("x", 1, 900.0)
        store.record_write("y", 1, 900.0)
        pipeline.update()
        stats = pipeline.last_stats
        assert stats.components_reused >= 1
        assert stats.components_reclustered >= 1

    def test_no_new_events_is_a_no_op(self):
        store = TTKV()
        store.record_write("a", 1, 1.0)
        pipeline = ShardedPipeline(store)
        first = pipeline.update()
        second = pipeline.update()
        assert second is first
        assert pipeline.last_stats.events_consumed == 0
        assert pipeline.last_stats.components_reclustered == 0

    def test_same_tick_writes_do_not_rebuild(self):
        # with 1-second timestamp quantisation, two keys writing within the
        # same tick in "wrong" key order is routine and must stay on the
        # incremental path (regression: this used to force a full rebuild)
        store = TTKV()
        store.record_write("a", 1, 10.0)
        store.record_write("b", 1, 10.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        store.record_write("b", 2, 20.0)
        pipeline.update()
        store.record_write("a", 2, 20.0)  # same tick, non-first-seen order
        result = pipeline.update()
        assert not pipeline.last_stats.rebuilt
        assert _key_sets(result) == _key_sets(cluster_settings(store))

    def test_reorder_within_trailing_group_is_absorbed(self):
        store = TTKV()
        store.record_write("a", 1, 100.0)
        store.record_write("b", 1, 100.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        # the reordered suffix is still inside the provisional trailing
        # write group: the engine rewinds and re-feeds instead of
        # rebuilding (the bounded reorder buffer)
        store.record_write("early", 1, 5.0)
        incremental = pipeline.update()
        assert not pipeline.last_stats.rebuilt
        assert pipeline.last_stats.reorders_absorbed == 2
        assert _key_sets(incremental) == _key_sets(cluster_settings(store))

    def test_reorder_into_closed_group_triggers_rebuild(self):
        store = TTKV()
        # five write groups: four closed, one provisional
        for t in (100.0, 900.0, 1700.0, 2500.0, 3300.0):
            store.record_write(f"k{t:.0f}a", 1, t)
            store.record_write(f"k{t:.0f}b", 1, t)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        # the insertion lands before the oldest closed group, which is
        # past the retractable horizon, so the session must rebuild
        store.record_write("early", 1, 5.0)
        incremental = pipeline.update()
        assert pipeline.last_stats.rebuilt
        assert pipeline.last_stats.reorders_absorbed == 0
        assert pipeline.last_stats.reorders_repaired == 0
        assert _key_sets(incremental) == _key_sets(cluster_settings(store))

    def test_reorder_into_retained_closed_group_is_repaired(self):
        store = TTKV()
        store.record_write("a", 1, 100.0)
        store.record_write("b", 1, 100.0)
        store.record_write("c", 1, 900.0)  # closes the {a, b} group
        pipeline = ShardedPipeline(store)
        pipeline.update()
        # the insertion lands before the closed {a, b} group, which is
        # still retained: the engine re-feeds from its start instead of
        # rebuilding (all three consumed events are re-delivered)
        store.record_write("early", 1, 5.0)
        incremental = pipeline.update()
        assert not pipeline.last_stats.rebuilt
        assert pipeline.last_stats.reorders_absorbed == 0
        assert pipeline.last_stats.reorders_repaired == 3
        assert _key_sets(incremental) == _key_sets(cluster_settings(store))

    def test_reorder_at_pending_group_boundary_repairs(self):
        # the insertion re-delivers the *entire* pending group: its first
        # event is what closed the previous group, a decision the
        # extractor cannot retract.  Absorbing here used to split the
        # closed group and silently diverge from batch; the repair
        # re-extracts from the closed group's start instead.
        store = TTKV()
        store.record_write("a", 1, 10.0)
        store.record_write("b", 1, 100.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        store.record_write("race", 1, 10.0)  # joins the closed {a} group
        incremental = pipeline.update()
        assert not pipeline.last_stats.rebuilt
        assert pipeline.last_stats.reorders_absorbed == 0
        assert pipeline.last_stats.reorders_repaired == 1
        assert _key_sets(incremental) == _key_sets(cluster_settings(store))

    def test_insert_bridging_two_closed_groups_is_repaired(self):
        store = TTKV()
        store.record_write("a", 1, 0.0)
        store.record_write("b", 1, 100.0)  # closes {a}
        store.record_write("c", 1, 500.0)  # closes {b}
        pipeline = ShardedPipeline(store, window=60.0)
        pipeline.update()
        (engine,) = pipeline._engines.values()
        structure = engine._matrix.structure_version
        # within the window of both closed neighbours: {a} and {b}
        # become one group {a, x, b}
        store.record_write("x", 1, 50.0)
        incremental = pipeline.update()
        stats = pipeline.last_stats
        assert not stats.rebuilt
        assert stats.reorders_repaired == 2
        # growth only: the repair stays on the dirty-region splice path
        assert engine._matrix.structure_version == structure
        assert ("a", "b", "x") in _key_sets(incremental)
        assert _key_sets(incremental) == _key_sets(
            cluster_settings(store, window=60.0)
        )

    def test_bridging_repair_shrinks_the_horizon_and_round_trips(self):
        store = TTKV()
        for t in (0.0, 1000.0, 2000.0, 3000.0, 3100.0, 3500.0):
            store.record_write(f"k{t:.0f}", 1, t)
        pipeline = ShardedPipeline(store, window=60.0)
        pipeline.update()
        # bridges the closed {k3000} and {k3100}: one fewer closed group,
        # so only two closed groups stay retained until more close
        store.record_write("x", 1, 3050.0)
        pipeline.update()
        assert pipeline.last_stats.reorders_repaired == 2
        (shard,) = pipeline.to_state()["shards"].values()
        assert shard["starts"] == [2, 3]
        resumed = ShardedPipeline.from_state(
            store, json.loads(json.dumps(pipeline.to_state()))
        )
        # reaches back into {k2000}: still retained, so both sessions
        # repair rather than rebuild
        store.record_write("y", 1, 2010.0)
        for session in (pipeline, resumed):
            clusters = session.update()
            assert session.last_stats.reorders_repaired == 4
            assert not session.last_stats.rebuilt
            assert _key_sets(clusters) == _key_sets(
                cluster_settings(store, window=60.0)
            )
        resumed.close()

    def test_duplicate_inside_the_horizon_repairs_nothing(self):
        store = TTKV()
        store.record_write("a", 1, 100.0)
        store.record_write("b", 1, 100.0)
        store.record_write("c", 1, 900.0)
        store.record_write("d", 1, 1700.0)
        pipeline = ShardedPipeline(store)
        before = pipeline.update()
        (engine,) = pipeline._engines.values()
        structure = engine._matrix.structure_version
        # a retransmitted write lands inside the closed {a, b} group and
        # leaves every write group's key set as it was
        store.record_write("a", 1, 100.0)
        after = pipeline.update()
        stats = pipeline.last_stats
        assert not stats.rebuilt
        assert stats.reorders_repaired == 2
        assert stats.dirty_keys == 0
        assert stats.components_reclustered == 0
        assert engine._matrix.structure_version == structure
        assert _key_sets(after) == _key_sets(before)
        assert _key_sets(after) == _key_sets(cluster_settings(store))

    def test_reorder_absorption_matches_batch_when_group_merges(self):
        # the inserted event falls within the trailing group's window, so
        # re-feeding extends the provisional group to include it
        store = TTKV()
        store.record_write("a", 1, 100.0)
        store.record_write("b", 1, 100.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        store.record_write("mid", 1, 99.0)  # same window as the tail
        incremental = pipeline.update()
        assert not pipeline.last_stats.rebuilt
        assert pipeline.last_stats.reorders_absorbed == 2
        assert _key_sets(incremental) == _key_sets(cluster_settings(store))

    def test_key_filter_equivalence(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, key_filter="app/")
        for t in (10.0, 20.0, 400.0):
            store.record_write("app/a", t, t)
            store.record_write("app/b", t, t)
            store.record_write("sys/noise", t, t + 0.5)
        incremental = pipeline.update()
        batch = cluster_settings(store, key_filter="app/")
        assert _key_sets(incremental) == _key_sets(batch)
        assert all(key.startswith("app/") for keys in _key_sets(incremental) for key in keys)

    def test_matrix_property_is_a_read_only_snapshot(self):
        # regression: the matrix accessor used to leak the live mutable
        # matrix, so a caller could silently corrupt the incremental state
        store = TTKV()
        store.record_write("a", 1, 1.0)
        store.record_write("b", 1, 1.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        view = pipeline.matrix_for(CATCH_ALL)
        assert view.correlation_of("a", "b") == 2.0
        assert sorted(view.keys) == ["a", "b"]
        with pytest.raises(TypeError):
            view.observe_group(99, {"mallory"})
        with pytest.raises(TypeError):
            view.update_groups(added=[(99, {"mallory"})])
        # the failed mutation must not have touched the session
        assert _key_sets(pipeline.update()) == _key_sets(cluster_settings(store))

    def test_cluster_set_property_tracks_latest(self):
        store = TTKV()
        pipeline = ShardedPipeline(store)
        assert pipeline.cluster_set is None
        store.record_write("a", 1, 1.0)
        result = pipeline.update()
        assert pipeline.cluster_set is result

    def test_retuned_parameters_restart_the_session(self):
        store = TTKV()
        # two components with 50% correlation each
        store.record_events([
            (0.0, "a", 1), (0.0, "b", 1), (100.0, "a", 2),
            (200.0, "c", 1), (200.0, "d", 1), (300.0, "c", 2),
        ])
        pipeline = ShardedPipeline(store)  # threshold 2.0
        pipeline.update()
        pipeline.correlation_threshold = 0.5
        # dirty only one component; the cached other must still be re-cut
        store.record_write("a", 3, 400.0)
        result = pipeline.update()
        assert pipeline.last_stats.rebuilt
        batch = cluster_settings(store, correlation_threshold=0.5)
        assert _key_sets(result) == _key_sets(batch)
        assert result.correlation_threshold == 0.5

    def test_invalid_parameters_rejected(self):
        store = TTKV()
        with pytest.raises(ValueError):
            ShardedPipeline(store, correlation_threshold=0.0)
        with pytest.raises(ValueError):
            ShardedPipeline(store, linkage="ward")
        with pytest.raises(ValueError):
            ShardedPipeline(store, window=-1.0)
        with pytest.raises(ValueError):
            ShardedPipeline(store, grouping="hourly")
