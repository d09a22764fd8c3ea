"""Columnar pipeline ≡ list pipeline ≡ batch, end to end.

The journal backend is an acceleration choice, never a semantic one: for
any prefix of any modification stream — including out-of-order arrivals
that force reorder absorption or rebuilds — a pipeline running on columnar
journal segments produces exactly the clusters of the list-journal pipeline
and of the batch :func:`~repro.core.pipeline.cluster_settings`.  Checkpoints
record their backend and may resume under the other one; version-2 states,
which carry no backend, are refused.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import STATE_VERSION, ShardedPipeline
from repro.exceptions import CheckpointError
from repro.core.windowing import (
    FEED_VECTOR_MIN,
    GROUPING_BUCKETS,
    GROUPING_SLIDING,
    StreamingGroupExtractor,
)
from repro.ttkv.columnar import columnar_available
from repro.ttkv.store import DELETED, TTKV
from repro.workload.machines import PROFILES
from repro.workload.tracegen import generate_trace

needs_numpy = pytest.mark.skipif(
    not columnar_available(), reason="columnar backend needs numpy"
)

BACKENDS = ("list", "columnar") if columnar_available() else ("list",)


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def _assert_backend_equivalence(events, rng, cuts=4, shard_prefixes=(), **params):
    """Feed the same chunks to one pipeline per backend; compare at each cut."""
    stores = {b: TTKV(journal_backend=b) for b in BACKENDS}
    pipelines = {
        b: ShardedPipeline(
            stores[b],
            shard_prefixes=shard_prefixes,
            catch_all=True,
            journal_backend=b,
            **params,
        )
        for b in BACKENDS
    }
    positions = sorted(rng.sample(range(len(events) + 1), min(cuts, len(events) + 1)))
    if len(events) not in positions:
        positions.append(len(events))
    consumed = 0
    for position in positions:
        chunk = events[consumed:position]
        consumed = position
        results = {}
        for backend, store in stores.items():
            store.record_events(chunk)
            results[backend] = _key_sets(pipelines[backend].update())
        for backend, result in results.items():
            assert result == results["list"], (
                f"{backend} diverged from the list backend at prefix {position}"
            )
        if not shard_prefixes:
            # sharded sessions cluster per shard; only the unsharded
            # (catch-all) session is comparable to the global batch
            batch = _key_sets(cluster_settings(stores["list"], **params))
            assert results["list"] == batch, f"divergence at prefix {position}"
    for pipeline in pipelines.values():
        pipeline.close()


# -- hypothesis suites --------------------------------------------------------

_timestamps = st.floats(min_value=0, max_value=2000, allow_nan=False)

_mixed_events = st.lists(
    st.tuples(
        _timestamps,
        st.sampled_from(["app/k0", "app/k1", "sys/k2", "sys/k3"]),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=50,
)


def _per_key_interleave(events, rng):
    """Per-key time order (as loggers guarantee), global order shuffled.

    This produces streams where later-key events arrive before earlier
    ones — the out-of-order appends that trigger reorder absorption or
    full rebuilds in the journal consumers.
    """
    streams = {}
    for index, (t, key, value) in enumerate(
        sorted(events, key=lambda e: e[0])
    ):
        streams.setdefault(key, []).append((t, key, value))
    out = []
    keys = list(streams)
    while keys:
        key = rng.choice(keys)
        out.append(streams[key].pop(0))
        if not streams[key]:
            keys.remove(key)
    return out


@needs_numpy
@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_backend_equivalence_ordered_streams(events, rng):
    stream = sorted(events, key=lambda e: e[0])
    _assert_backend_equivalence(stream, rng)


@needs_numpy
@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_backend_equivalence_out_of_order_streams(events, rng):
    """Reordered arrivals: absorption and rebuilds agree across backends."""
    stream = _per_key_interleave(events, rng)
    _assert_backend_equivalence(stream, rng)


@needs_numpy
@given(
    _mixed_events,
    st.randoms(use_true_random=False),
    st.sampled_from([0.0, 1.0, 30.0]),
)
@settings(max_examples=20, deadline=None)
def test_backend_equivalence_across_windows(events, rng, window):
    stream = sorted(events, key=lambda e: e[0])
    _assert_backend_equivalence(stream, rng, window=window)


@needs_numpy
@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_backend_equivalence_sharded(events, rng):
    stream = sorted(events, key=lambda e: e[0])
    _assert_backend_equivalence(stream, rng, shard_prefixes=("app/", "sys/"))


# -- generated traces across every workload profile ---------------------------

def _scaled(profile):
    return dataclasses.replace(
        profile,
        days=2,
        noise_keys=min(profile.noise_keys, 25),
        noise_writes_per_day=min(profile.noise_writes_per_day, 60),
        reads_per_day=min(profile.reads_per_day, 100),
    )


@needs_numpy
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_backend_equivalence_on_generated_profile_traces(profile):
    trace = generate_trace(_scaled(profile))
    events = trace.ttkv.write_events()
    assert events, f"profile {profile.name} generated no modifications"
    _assert_backend_equivalence(events, random.Random(profile.seed), cuts=6)


# -- checkpoint migration -----------------------------------------------------

def _session_state(backend, events):
    store = TTKV(journal_backend=backend)
    pipeline = ShardedPipeline(store, shard_prefixes=(), journal_backend=backend)
    store.record_events(events)
    clusters = _key_sets(pipeline.update())
    state = json.loads(json.dumps(pipeline.to_state()))
    pipeline.close()
    return store, clusters, state


_EVENTS = [
    (10.0, "a/x", 1), (10.2, "a/y", 1),
    (400.0, "a/x", 2), (400.3, "a/y", 2),
    (900.0, "b/z", DELETED),
]


class TestCheckpointMigration:
    def test_v3_round_trip_preserves_backend(self):
        store, clusters, state = _session_state("list", _EVENTS)
        assert state["version"] == STATE_VERSION == 3
        assert state["params"]["journal_backend"] == "list"
        resumed = ShardedPipeline.from_state(store, state)
        assert resumed.journal_backend == "list"
        assert _key_sets(resumed.update()) == clusters
        resumed.close()

    def test_v2_checkpoint_rejected(self):
        store, _, state = _session_state("list", _EVENTS)
        del state["params"]["journal_backend"]
        state["version"] = 2
        with pytest.raises(CheckpointError, match="unsupported .* version 2"):
            ShardedPipeline.from_state(store, state)

    @needs_numpy
    def test_backend_override_on_resume(self):
        store, clusters, state = _session_state("columnar", _EVENTS)
        assert state["params"]["journal_backend"] == "columnar"
        resumed = ShardedPipeline.from_state(
            store, state, journal_backend="list"
        )
        assert resumed.journal_backend == "list"
        assert _key_sets(resumed.update()) == clusters
        resumed.close()

    @needs_numpy
    def test_cross_backend_resume_equivalence(self):
        """A checkpoint from one backend resumes correctly under the other."""
        for write_backend, resume_backend in (
            ("list", "columnar"), ("columnar", "list")
        ):
            _, clusters, state = _session_state(write_backend, _EVENTS)
            # the deployment re-opens its store under the other backend
            store = TTKV(journal_backend=resume_backend)
            store.record_events(_EVENTS)
            resumed = ShardedPipeline.from_state(
                store, state, journal_backend=resume_backend
            )
            assert _key_sets(resumed.update()) == clusters
            resumed.close()


# -- windowing fast path ------------------------------------------------------

@needs_numpy
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=300, allow_nan=False).map(
                lambda t: round(t * 2) / 2
            ),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=FEED_VECTOR_MIN,
        max_size=FEED_VECTOR_MIN + 60,
    ),
    st.sampled_from([GROUPING_SLIDING, GROUPING_BUCKETS]),
    st.sampled_from([0.0, 0.5, 2.0, 10.0]),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_feed_many_columnar_fast_path_matches_loop(events, grouping, window, pre):
    """Vectorised boundary detection ≡ event-by-event feeding."""
    from repro.ttkv.columnar import ColumnarJournal

    events = sorted(events, key=lambda e: e[0])
    journal = ColumnarJournal(segment_size=16)
    for event in events:
        journal.append(*event)
    fast = StreamingGroupExtractor(window, grouping=grouping)
    slow = StreamingGroupExtractor(window, grouping=grouping)
    for event in events[:pre]:
        fast.feed(event)
        slow.feed(event)
    view = journal.events_from(pre)
    assert len(view) >= FEED_VECTOR_MIN - pre
    closed_fast = fast.feed_many(view)
    closed_slow = [g for g in map(slow.feed, events[pre:]) if g is not None]
    assert closed_fast == closed_slow
    assert fast.pending_events == slow.pending_events
    assert fast.flush() == slow.flush()


@needs_numpy
def test_feed_many_rejects_unsorted_columnar_chunk():
    from repro.ttkv.columnar import ColumnarJournal

    journal = ColumnarJournal()
    for t in range(FEED_VECTOR_MIN + 1):
        journal.append(float(t), "k", 1)
    extractor = StreamingGroupExtractor(1.0)
    extractor.feed((1e6, "z", 1))  # pending group far in the future
    with pytest.raises(ValueError):
        extractor.feed_many(journal.events_from(0))
