"""``ShardedPipeline.needs_update()``: an O(1) flag ≡ polling every shard.

The shard router sets a flag whenever an event lands in a shard and
``update()`` clears it before reading the shards.  The oracle is the
O(shards) definition the flag replaced: a retune, or any engine that has
not produced clusters yet or whose journal moved past its cursor.  The
same op sequences checkpoint in every state — over an unread reorder and
between a retune and the next update too — and end on the batch
clusters.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import TTKV

#: (shard_prefixes, catch_all, key_filter): "c/" keys land in the catch-all
#: shard only in the first session; the other two drop them (and the
#: third drops "b/" keys too).
SESSIONS = (
    (("a/", "b/"), True, None),
    (("a/", "b/"), False, None),
    ((), True, "a/"),
)
_KEYS = ("a/x", "a/y", "b/z", "c/w")


def polled_needs_update(pipeline: ShardedPipeline) -> bool:
    """The O(shards) definition of staleness the flag replaced."""
    if pipeline._params() != pipeline._active_params:
        return True
    return any(
        not engine.ready or engine.needs_update()
        for engine in pipeline._engines.values()
    )


def batch_key_sets(store, pipeline) -> list[list[str]]:
    """Every shard's batch clusters (filter, then extract), sorted."""
    sets = []
    for shard_id in pipeline.shard_ids:
        source, key_filter = store, shard_id
        if shard_id == CATCH_ALL:
            source = TTKV.from_events(
                e
                for e in store.write_events()
                if not any(e[1].startswith(p) for p in pipeline.shard_prefixes)
            )
            key_filter = pipeline.key_filter
        sets.extend(
            sorted(cluster.keys)
            for cluster in cluster_settings(
                source, key_filter=key_filter, window=pipeline.window
            )
        )
    return sorted(sets)


def _session(store, config):
    prefixes, catch_all, key_filter = config
    return ShardedPipeline(
        store, shard_prefixes=prefixes, catch_all=catch_all, key_filter=key_filter
    )


def _fail():
    raise RuntimeError("engine update failed")


def _update_with_failure(pipeline, shard_index):
    """Update with one engine's update raising (before it reads anything)."""
    engines = list(pipeline._engines.values())
    engine = engines[shard_index % len(engines)]
    engine.update = _fail
    try:
        pipeline.update()
    except RuntimeError:
        return True
    finally:
        del engine.update
    return False


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(_KEYS), st.floats(0.5, 200)),
        st.tuples(st.just("late"), st.sampled_from("abc"), st.floats(0, 300)),
        st.tuples(st.just("duplicate"), st.sampled_from(_KEYS)),
        st.tuples(st.just("update")),
        st.tuples(st.just("retune")),
        st.tuples(st.just("restore"), st.booleans()),
        st.tuples(st.just("fail"), st.integers(0, 2)),
    ),
    max_size=30,
)


@given(st.sampled_from(SESSIONS), _ops)
@settings(max_examples=150, deadline=None)
def test_flag_equals_polling_every_shard(config, ops):
    store = TTKV()
    pipeline = _session(store, config)
    last: dict[str, float] = {}
    clock = 0.0
    late = 0
    assert pipeline.needs_update() is True  # a fresh session starts stale
    for op in ops:
        kind = op[0]
        if kind == "append":
            _, key, step = op
            clock += step
            store.record_write(key, clock, clock)
            last[key] = clock
        elif kind == "late":
            # a fresh key keeps per-key time order while landing behind
            # the stream's head: an out-of-order insert into its shard
            _, prefix, back = op
            late += 1
            key = f"{prefix}/late{late}"
            timestamp = max(0.0, clock - back)
            store.record_write(key, "late", timestamp)
            last[key] = timestamp
        elif kind == "duplicate":
            key = op[1]
            if key in last:
                # the key's latest event delivered again
                store.record_write(key, last[key], last[key])
        elif kind == "update":
            pipeline.update()
            assert pipeline.needs_update() is False
        elif kind == "retune":
            pipeline.window = 30.0 if pipeline.window != 30.0 else 60.0
        elif kind == "restore":
            state = json.loads(json.dumps(pipeline.to_state()))
            pipeline.close()
            if op[1]:  # the journal runs ahead of the checkpoint
                clock += 1.0
                store.record_write("a/x", clock, clock)
                last["a/x"] = clock
            pipeline = ShardedPipeline.from_state(store, state)
            assert pipeline.needs_update() is True  # a restored one too
        elif kind == "fail":
            if _update_with_failure(pipeline, op[1]):
                assert pipeline.needs_update() is True
        assert pipeline.needs_update() == polled_needs_update(pipeline)
    clusters = pipeline.update()
    assert pipeline.needs_update() is False is polled_needs_update(pipeline)
    assert sorted(sorted(c.keys) for c in clusters) == batch_key_sets(store, pipeline)
    pipeline.close()


@pytest.mark.parametrize("config", SESSIONS[1:])
def test_dropped_keys_leave_the_session_current(config):
    store = TTKV()
    pipeline = _session(store, config)
    store.record_write("a/x", 1, 10.0)
    pipeline.update()
    store.record_write("c/w", 1, 20.0)  # dropped by the filter or routing
    store.record_write("c/w", 2, 5000.0)
    assert pipeline.needs_update() is False
    assert polled_needs_update(pipeline) is False
    assert pipeline.pending_events == 0
    pipeline.close()


def test_retune_makes_the_session_stale():
    store = TTKV()
    pipeline = _session(store, SESSIONS[0])
    store.record_write("a/x", 1, 10.0)
    pipeline.update()
    pipeline.correlation_threshold = 1.0
    assert pipeline.needs_update() is True
    pipeline.update()
    assert pipeline.needs_update() is False
    pipeline.close()


@pytest.mark.parametrize("ahead", (False, True))
def test_restored_session_starts_stale(ahead):
    store = TTKV()
    pipeline = _session(store, SESSIONS[0])
    store.record_write("a/x", 1, 10.0)
    pipeline.update()
    state = json.loads(json.dumps(pipeline.to_state()))
    pipeline.close()
    if ahead:
        store.record_write("b/z", 1, 900.0)
    resumed = ShardedPipeline.from_state(store, state)
    assert resumed.needs_update() is True
    assert polled_needs_update(resumed) is True
    resumed.update()
    assert resumed.needs_update() is False
    assert resumed.last_stats.events_consumed == int(ahead)
    resumed.close()


def test_engine_failure_mid_loop_keeps_the_session_stale():
    # shard "a/" updates, then "b/" raises: the session must still read
    # stale, and the next update must not lose the "a/" shard's delta
    store = TTKV()
    pipeline = _session(store, SESSIONS[0])
    pipeline.update()
    store.record_write("a/x", 1, 10.0)
    store.record_write("a/y", 1, 10.0)
    store.record_write("b/z", 1, 10.0)
    assert _update_with_failure(pipeline, 1)  # the "b/" engine
    assert pipeline.needs_update() is True
    assert polled_needs_update(pipeline) is True
    clusters = pipeline.update()
    assert pipeline.needs_update() is False
    expected = sorted(
        sorted(cluster.keys)
        for prefix in ("a/", "b/")
        for cluster in cluster_settings(store, key_filter=prefix)
    )
    assert sorted(sorted(cluster.keys) for cluster in clusters) == expected
    pipeline.close()
