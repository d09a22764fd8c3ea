"""Spliced dendrogram repair ≡ wholesale re-agglomeration ≡ batch.

The contracts under test:

- a splicing pipeline produces *bit-identical* clusters to the batch
  :func:`~repro.core.pipeline.cluster_settings` reference (a wholesale
  agglomeration of the whole trace), for any prefix of any event stream
  (hypothesis + a sweep over every workload profile);
- :func:`~repro.core.dendro_repair.splice_dendrogram` reproduces the
  wholesale dendrogram merge-for-merge, including at distance ties (where
  merges at the splice line must be conservatively re-derived);
- unusable caches (components that shrank after a retraction, average
  linkage, malformed inputs) fall back to the wholesale rebuild rather
  than guessing;
- the per-component dendrogram cache survives JSON checkpoints, so
  resumed sessions keep splicing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import CorrelationMatrix
from repro.core.clustering import agglomerate_clusters
from repro.core.dendro_repair import (
    block_affected_distance,
    build_dendrogram,
    dendrogram_from_state,
    dendrogram_to_state,
    first_affected_distance,
    splice_dendrogram,
    surviving_clusters,
)
from repro.core.hac_kernel import numpy_available
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.exceptions import CorruptCheckpointError
from repro.ttkv.store import DELETED, TTKV
from repro.workload.machines import PROFILES
from repro.workload.tracegen import generate_trace


def _sorted_stream(events):
    """Events ordered the way a live deployment would append them."""
    return [e for _, e in sorted(enumerate(events), key=lambda p: (p[1][0], p[0]))]


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def assert_splice_equivalence(events, rng, cuts=4, **params):
    """Feed a splicing pipeline the stream in chunks.

    At every cut it must agree with the batch reference — bit-identical
    key sets in identical order.
    """
    stream = _sorted_stream(events)
    live = TTKV()
    spliced = ShardedPipeline(live, **params)
    positions = sorted(rng.sample(range(len(stream) + 1), min(cuts, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    for position in positions:
        live.record_events(stream[consumed:position])
        consumed = position
        spliced_sets = _key_sets(spliced.update())
        batch = cluster_settings(live, **params)
        assert spliced_sets == _key_sets(batch), (
            f"splice diverged from batch at prefix "
            f"{position}/{len(stream)} with {params}"
        )


# -- hypothesis suites -------------------------------------------------------

_timestamps = st.floats(min_value=0, max_value=2000, allow_nan=False)

_mixed_events = st.lists(
    st.tuples(
        _timestamps,
        st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5"]),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=50,
)

# Coarse integer timestamps force equal-distance ties and same-tick
# straddles — the regime where splicing must conservatively re-derive.
_tie_heavy_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30).map(float),
        st.sampled_from(["k0", "k1", "k2", "k3"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_splice_equals_wholesale_equals_batch(events, rng):
    assert_splice_equivalence(events, rng)


@given(_tie_heavy_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_splice_equivalence_under_distance_ties(events, rng):
    assert_splice_equivalence(events, rng)


@given(
    _mixed_events,
    st.randoms(use_true_random=False),
    st.sampled_from(["complete", "single", "average"]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_splice_equivalence_across_linkages_and_thresholds(
    events, rng, linkage, threshold
):
    assert_splice_equivalence(
        events, rng, linkage=linkage, correlation_threshold=threshold
    )


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
def test_splice_equivalence_on_generated_profile_traces(profile):
    trace = generate_trace(_scaled(profile))
    events = trace.ttkv.write_events()
    assert events, f"profile {profile.name} generated no modifications"
    rng = random.Random(profile.seed)
    assert_splice_equivalence(events, rng, cuts=8)


# -- splice_dendrogram directly ----------------------------------------------

def _chain_matrix(n: int) -> CorrelationMatrix:
    """One n-key component with distinct pairwise distances (no ties)."""
    return CorrelationMatrix(
        {f"k{i:03d}": set(range(max(i, 1), n)) for i in range(n)}
    )


class TestSpliceDendrogram:
    def test_reuses_the_clean_prefix(self):
        matrix = _chain_matrix(40)
        component = frozenset(matrix.keys)
        cached = build_dendrogram(matrix, component, "complete")
        matrix.observe_group(100, ["k039"])
        outcome = splice_dendrogram(matrix, component, {"k039"}, [cached], "complete")
        assert outcome.spliced
        assert outcome.merges_reused > 0
        reference = build_dendrogram(matrix, component, "complete")
        assert outcome.dendrogram.merges == reference.merges
        assert (
            outcome.merges_reused + outcome.merges_recomputed
            == len(reference.merges)
        )

    def test_suffix_invalidated_at_distance_ties(self):
        # All pairs in the cached component tie at distance 0.5; a dirty
        # key's new pair lands exactly on that line, so *no* cached merge
        # may be trusted — ties at the splice line re-derive.
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {0, 1}})
        component = frozenset("abc")
        cached = build_dendrogram(matrix, component, "complete")
        assert {m.distance for m in cached.merges} == {0.5}
        matrix.observe_group(7, ["a", "b", "c", "d"])
        grown = frozenset("abcd")
        outcome = splice_dendrogram(
            matrix, grown, {"a", "b", "c", "d"}, [cached], "complete"
        )
        assert outcome.merges_reused == 0
        reference = build_dendrogram(matrix, grown, "complete")
        assert outcome.dendrogram.merges == reference.merges

    def test_merges_strictly_below_the_splice_line_survive(self):
        matrix = _chain_matrix(40)
        component = frozenset(matrix.keys)
        cached = build_dendrogram(matrix, component, "complete")
        matrix.observe_group(100, ["k039"])
        # the documented splice line: the smallest new affected-pair
        # distance, lowered to the first cached merge touching the dirty key
        line = first_affected_distance(matrix, component, {"k039"})
        line = min(
            [line]
            + [m.distance for m in cached.merges if "k039" in m.members]
        )
        expected = [
            m
            for m in cached.merges
            if m.distance < line
            and not math.isclose(m.distance, line)
            and "k039" not in m.members
        ]
        outcome = splice_dendrogram(matrix, component, {"k039"}, [cached], "complete")
        assert outcome.merges_reused == len(expected)
        assert outcome.dendrogram.merges[: len(expected)] == expected

    def test_bridged_components_splice_both_caches(self):
        matrix = CorrelationMatrix(
            {
                "a0": {0, 1}, "a1": {0, 1}, "a2": {1, 2}, "a3": {2},
                "b0": {10, 11}, "b1": {10, 11}, "b2": {11, 12}, "b3": {12},
            }
        )
        caches = [
            build_dendrogram(matrix, frozenset(c), "complete")
            for c in matrix.connected_components()
        ]
        assert len(caches) == 2
        matrix.observe_group(50, ["a3", "b3"])  # bridges the components
        component = frozenset(matrix.keys)
        outcome = splice_dendrogram(
            matrix, component, {"a3", "b3"}, caches, "complete"
        )
        assert outcome.spliced
        assert outcome.merges_reused > 0
        reference = build_dendrogram(matrix, component, "complete")
        assert outcome.dendrogram.merges == reference.merges

    def test_cross_cache_tie_keeps_the_merge_set_and_every_cut(self):
        # Two bridged caches each holding a merge at the same distance:
        # the spliced list keeps tied merges grouped per source cache
        # (deterministically — caches are consumed in sorted order) while
        # a from-scratch run may interleave them; the merge *set* and the
        # cut at every threshold must still be identical.
        matrix = CorrelationMatrix({
            "a": {0, 1}, "y": {0, 1, 2}, "z": {0, 1, 2},   # (y, z) at 0.5
            "w": {10, 11}, "b": {11, 12}, "c": {11, 12},   # (b, c) at 0.5
        })
        caches = sorted(
            (
                build_dendrogram(matrix, frozenset(c), "complete")
                for c in matrix.connected_components()
            ),
            key=lambda d: min(d.items),
        )
        matrix.observe_group(50, ["a", "w"])   # bridge outside both ties
        component = frozenset(matrix.keys)
        outcome = splice_dendrogram(
            matrix, component, {"a", "w"}, caches, "complete"
        )
        reference = build_dendrogram(matrix, component, "complete")
        assert outcome.spliced and outcome.merges_reused == 2
        assert set(outcome.dendrogram.merges) == set(reference.merges)
        for threshold in (0.3, 0.5, 0.75, 1.0, 1.2, 5.0):
            assert outcome.dendrogram.cut(threshold) == reference.cut(threshold)

    def test_cache_straddling_the_component_falls_back(self):
        # a cached dendrogram covering keys outside the component means
        # the component shrank (retraction) — never splice from it
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}})
        stale = build_dendrogram(
            CorrelationMatrix({"a": {0}, "b": {0}, "c": {0}}),
            frozenset("abc"),
            "complete",
        )
        outcome = splice_dendrogram(
            matrix, frozenset("ab"), {"a"}, [stale], "complete"
        )
        assert not outcome.spliced
        assert outcome.merges_reused == 0
        reference = build_dendrogram(matrix, frozenset("ab"), "complete")
        assert outcome.dendrogram.merges == reference.merges

    def test_average_linkage_always_rebuilds(self):
        # Lance–Williams average accumulates float rounding along the
        # merge path; a seeded continuation is only ulp-close, so the
        # splice path refuses it to keep the bit-identical guarantee.
        matrix = _chain_matrix(10)
        component = frozenset(matrix.keys)
        cached = build_dendrogram(matrix, component, "average")
        matrix.observe_group(100, ["k009"])
        outcome = splice_dendrogram(matrix, component, {"k009"}, [cached], "average")
        assert not outcome.spliced
        reference = build_dendrogram(matrix, component, "average")
        assert outcome.dendrogram.merges == reference.merges

    def test_randomised_splice_matches_wholesale(self):
        rng = random.Random(20260729)
        for _ in range(150):
            nkeys = rng.randint(2, 12)
            keys = [f"k{i}" for i in range(nkeys)]
            matrix = CorrelationMatrix()
            gid = 0
            for _ in range(rng.randint(1, 8)):
                matrix.observe_group(
                    gid, rng.sample(keys, rng.randint(1, min(4, nkeys)))
                )
                gid += 1
            linkage = rng.choice(["complete", "single"])
            cached = {
                frozenset(c): build_dendrogram(matrix, frozenset(c), linkage)
                for c in matrix.connected_components()
            }
            dirty = set(
                matrix.update_groups(
                    added=[(gid, rng.sample(keys, rng.randint(1, min(4, nkeys))))]
                )
            )
            for root in {matrix.find(k) for k in dirty if k in matrix}:
                component = matrix.component_members(root)
                old = [d for c, d in cached.items() if c <= component]
                outcome = splice_dendrogram(matrix, component, dirty, old, linkage)
                reference = build_dendrogram(matrix, component, linkage)
                assert outcome.dendrogram.merges == reference.merges


class TestSeededAgglomeration:
    def test_seed_order_is_validated(self):
        matrix = CorrelationMatrix({"a": {0}, "b": {0}})
        with pytest.raises(ValueError, match="sorted by their smallest key"):
            agglomerate_clusters(
                matrix, [frozenset("b"), frozenset("a")], "complete"
            )

    def test_surviving_clusters_partition_and_order(self):
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {1}})
        dendrogram = build_dendrogram(matrix, frozenset("abc"), "complete")
        clusters = surviving_clusters(frozenset("abc"), dendrogram.merges[:1])
        assert clusters == [frozenset("ab"), frozenset("c")]



# -- splice floor from the distance block ------------------------------------

_FLOOR_KEYS = [f"k{i}" for i in range(10)]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.skipif(not numpy_available(), reason="the distance block needs numpy")
@given(
    st.dictionaries(
        st.sampled_from(_FLOOR_KEYS),
        st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
        min_size=2,
    ),
    st.lists(
        st.lists(st.sampled_from(_FLOOR_KEYS), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_block_floor_is_bit_equal_to_first_affected_distance(
    key_groups, growth, rng
):
    """Growth-only updates refresh the cached block incrementally; after
    every one, the block-row minimum is the Python floor, bit for bit."""
    matrix = CorrelationMatrix({key: set(groups) for key, groups in key_groups.items()})
    for component in matrix.connected_components():
        if len(component) > 1:
            matrix.component_distance_block(component)  # prime the cache
    for offset, keys in enumerate(growth):
        dirty = matrix.update_groups(added=[(100 + offset, keys)])
        for component in matrix.connected_components():
            component = frozenset(component)
            if len(component) < 2:
                continue
            block = matrix.component_distance_block(component)
            touched = dirty & component
            candidates = [touched] if touched else []
            size = rng.randint(1, min(3, len(component)))
            candidates.append(set(rng.sample(sorted(component), size)))
            for affected in candidates:
                expected = first_affected_distance(matrix, component, affected)
                assert _bits(block_affected_distance(block, affected)) == _bits(
                    expected
                )


# -- engine integration ------------------------------------------------------

def _hot_component_store(groups: int = 50, keys: int = 30) -> TTKV:
    """A store whose writes build one large, tie-poor component."""
    store = TTKV()
    events = []
    for g in range(groups):
        t = g * 100.0
        for k in range(g % keys, min(g % keys + 4, keys)):
            events.append((t, f"app/k{k:02d}", g))
    store.record_events(events)
    return store


class TestEngineRepair:
    def test_splice_reuses_merges_on_hot_component(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        pipeline.update()
        store.record_write("app/k00", "new", 50 * 100.0 + 1500)
        store.record_write("app/k01", "new", 50 * 100.0 + 1500)
        pipeline.update()
        stats = pipeline.last_stats
        assert stats.merges_reused > 0
        assert stats.merges_recomputed > 0

    def test_reorder_into_closed_group_rebuild_resets_cache(self):
        store = TTKV()
        for t in (100.0, 900.0, 1700.0, 2500.0, 3300.0):
            store.record_write(f"k{t:.0f}a", 1, t)
            store.record_write(f"k{t:.0f}b", 1, t)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        # lands before the oldest of four closed groups: past the
        # retractable horizon
        store.record_write("early", 1, 5.0)
        result = pipeline.update()
        assert pipeline.last_stats.rebuilt
        assert pipeline.last_stats.merges_reused == 0
        assert _key_sets(result) == _key_sets(cluster_settings(store))

    def test_lossy_rescan_keeps_clean_component_dendrograms(self):
        # a structural loss (retraction) voids splicing for the dirty
        # region, but components disjoint from it were untouched — their
        # dendrograms must survive the rescan like their flat clusters
        from repro.core.sharded import ShardEngine
        from repro.ttkv.journal import EventJournal

        journal = EventJournal()
        for t, key in (
            (10.0, "a"), (10.0, "b"),
            (500.0, "x"), (500.0, "y"),
            (900.0, "z"),
        ):
            journal.append_event((t, key, 1))
        engine = ShardEngine(journal)
        engine.update()
        model = engine._model
        hot = frozenset({"a", "b"})
        clean = frozenset({"x", "y"})
        assert hot in model._dendro_cache and clean in model._dendro_cache
        kept = model._dendro_cache[clean]
        reclustered, reused, recomputed, kernel_components = (
            model._rescan_components({"a"}, splice_ok=False)
        )
        assert model._dendro_cache[clean] is kept
        assert hot in model._dendro_cache  # rebuilt, not spliced
        assert reused == 0

    def test_checkpoint_round_trip_preserves_the_dendrogram_cache(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        pipeline.update()
        blob = json.dumps(pipeline.to_state())
        resumed = ShardedPipeline.from_state(store, json.loads(blob))
        store.record_write("app/k00", "new", 50 * 100.0 + 1500)
        store.record_write("app/k01", "new", 50 * 100.0 + 1500)
        clusters = resumed.update()
        assert resumed.last_stats.merges_reused > 0
        assert _key_sets(clusters) == _key_sets(cluster_settings(store))

    def test_checkpoint_without_dendrograms_rejected(self):
        # every current checkpoint carries the dendrogram cache; a shard
        # state without it is truncated, not an older format to accept
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        pipeline.update()
        state = pipeline.to_state()
        for shard_state in state["shards"].values():
            assert shard_state.pop("dendrograms")
        with pytest.raises(CorruptCheckpointError, match="dendrograms"):
            ShardedPipeline.from_state(store, state)

    def test_checkpoint_rejects_foreign_dendrogram_keys(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        pipeline.update()
        state = pipeline.to_state()
        for shard_state in state["shards"].values():
            shard_state["dendrograms"] = [
                {"items": ["not", "recorded"], "merges": [[0, 1, 1.0]]}
            ]
        with pytest.raises(ValueError, match="dendrogram covers keys absent"):
            ShardedPipeline.from_state(store, state)



# -- state encoding ----------------------------------------------------------

class TestDendrogramState:
    def test_round_trip_is_exact(self):
        matrix = _chain_matrix(25)
        dendrogram = build_dendrogram(matrix, frozenset(matrix.keys), "complete")
        restored = dendrogram_from_state(
            json.loads(json.dumps(dendrogram_to_state(dendrogram)))
        )
        assert restored.items == dendrogram.items
        assert restored.merges == dendrogram.merges

    def test_encoding_is_compact(self):
        matrix = _chain_matrix(25)
        dendrogram = build_dendrogram(matrix, frozenset(matrix.keys), "complete")
        state = dendrogram_to_state(dendrogram)
        assert len(state["items"]) == 25
        for left, right, distance in state["merges"]:
            assert isinstance(left, int) and isinstance(right, int)
            assert 0 <= left < 25 + len(state["merges"])
            assert 0 <= right < 25 + len(state["merges"])
            assert distance > 0

    def test_singleton_dendrogram(self):
        dendrogram = build_dendrogram(CorrelationMatrix({"a": {0}}), {"a"}, "complete")
        state = dendrogram_to_state(dendrogram)
        assert state == {"items": ["a"], "merges": []}
        assert dendrogram_from_state(state).cut(1.0) == [frozenset("a")]
