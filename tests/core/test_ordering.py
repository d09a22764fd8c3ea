"""Incremental cluster-order maintenance ≡ a full re-sort.

The contracts under test:

- :class:`~repro.core.ordering.SortedKeySets` keeps exactly the order a
  wholesale ``sorted(key_sets, key=order_key)`` produces through any
  add/remove sequence;
- after any prefix of any event stream, every engine's incrementally
  maintained cluster order — and the pipeline's merged order — equal the
  rebuilt reference over its component caches;
- the per-update deltas (``last_order_delta``) replay the previous list
  into the current one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ordering import SortedKeySets, diff_sorted, order_key
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.store import DELETED, TTKV


def _sorted_stream(events):
    return [e for _, e in sorted(enumerate(events), key=lambda p: (p[1][0], p[0]))]


def _reference(key_sets):
    return sorted(key_sets, key=order_key)


def _engine_reference(engine):
    return _reference(
        key_set
        for clusters in engine._model._component_cache.values()
        for key_set in clusters
    )


class TestSortedKeySets:
    def test_initial_order_matches_a_sort(self):
        sets = [frozenset({"b"}), frozenset({"a", "c"}), frozenset({"a"})]
        container = SortedKeySets(sets)
        assert container.as_key_sets() == _reference(sets)

    def test_add_remove_random_sequences(self):
        rng = random.Random(20260729)
        for _ in range(50):
            live: set[frozenset[str]] = set()
            container = SortedKeySets()
            for _ in range(60):
                if live and rng.random() < 0.4:
                    victim = rng.choice(sorted(live, key=order_key))
                    live.discard(victim)
                    container.remove(victim)
                else:
                    fresh = frozenset(
                        f"k{rng.randint(0, 99):02d}"
                        for _ in range(rng.randint(1, 4))
                    )
                    if fresh in live:
                        continue
                    live.add(fresh)
                    container.add(fresh)
                assert container.as_key_sets() == _reference(live)

    def test_remove_missing_raises(self):
        container = SortedKeySets([frozenset({"a"})])
        with pytest.raises(KeyError):
            container.remove(frozenset({"b"}))

    def test_diff_sorted_replays_old_into_new(self):
        rng = random.Random(5)
        for _ in range(60):
            universe = [
                frozenset(
                    f"k{rng.randint(0, 30):02d}" for _ in range(rng.randint(1, 3))
                )
                for _ in range(20)
            ]
            old = _reference({s for s in universe if rng.random() < 0.5})
            new = _reference({s for s in universe if rng.random() < 0.5})
            removed, added = diff_sorted(old, new)
            replay = set(old) - set(removed) | set(added)
            assert _reference(replay) == new
            assert not set(removed) & set(added)


_events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=2000, allow_nan=False),
        st.sampled_from(
            ["a/k0", "a/k1", "a/k2", "b/k0", "b/k1", "c/k0", "c/k1"]
        ),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=50,
)


@given(_events, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_incremental_order_equals_rebuilt_order(events, rng):
    stream = _sorted_stream(events)
    live = TTKV()
    pipeline = ShardedPipeline(live, shard_prefixes=("a/", "b/"))
    positions = sorted(rng.sample(range(len(stream) + 1), min(5, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    previous_merged: list = []
    for position in positions:
        live.record_events(stream[consumed:position])
        consumed = position
        merged = pipeline.update()
        for shard_id in pipeline.shard_ids:
            engine = pipeline._engines[shard_id]
            assert engine.cluster_key_sets == _engine_reference(engine)
        combined = _reference(
            key_set
            for shard_id in pipeline.shard_ids
            for key_set in pipeline._engines[shard_id].cluster_key_sets
        )
        merged_sets = [cluster.keys for cluster in merged]
        assert merged_sets == combined
        # deltas replay the previous merged list into the current one;
        # only shards that ran this update carry fresh deltas
        deltas_removed: set = set()
        deltas_added: set = set()
        for shard_id in pipeline.last_stats.shard_timings:
            removed, added = pipeline._engines[shard_id].last_order_delta
            deltas_removed.update(removed)
            deltas_added.update(added)
        replayed = (set(previous_merged) - deltas_removed) | deltas_added
        assert _reference(replayed) == merged_sets
        previous_merged = merged_sets


@given(_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_merged_cluster_set_still_equals_batch(events, rng):
    stream = _sorted_stream(events)
    live = TTKV()
    pipeline = ShardedPipeline(live)
    positions = sorted(rng.sample(range(len(stream) + 1), min(4, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    for position in positions:
        live.record_events(stream[consumed:position])
        consumed = position
        merged = pipeline.update()
        batch = cluster_settings(live)
        assert [c.sorted_keys() for c in merged] == [
            c.sorted_keys() for c in batch
        ]
