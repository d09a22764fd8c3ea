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

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.hac_kernel as hk
from repro.core.correlation import CorrelationMatrix
from repro.core.clustering import agglomerate_clusters, flat_clusters
from repro.core.dendro_repair import (
    build_dendrogram,
    dendrogram_from_state,
    dendrogram_to_state,
    splice_dendrogram,
    surviving_clusters,
)
from repro.core.hac_kernel import KERNEL_AUTO, numpy_available
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ComponentModel, ShardedPipeline
from repro.exceptions import CheckpointError, CorruptCheckpointError
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
        line = matrix.nearest_distance({"k039"}, component)
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



# -- the splice line ----------------------------------------------------------

_FLOOR_KEYS = [f"k{i}" for i in range(10)]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _pair_minimum(matrix, component, keys) -> float:
    """Brute force: the smallest ``distance_of`` from ``keys`` into ``component``."""
    return min(
        (
            matrix.distance_of(key, other)
            for key in keys
            for other in component
            if other != key
        ),
        default=math.inf,
    )


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
def test_nearest_distance_is_bit_equal_to_the_pair_minimum_and_the_block_rows(
    key_groups, growth, rng
):
    """After every growth-only update the splice line is the per-pair
    minimum, bit for bit — and, where numpy imports, the minimum over the
    affected rows of the incrementally refreshed distance block, so the
    line and the kernel's seed matrix come from the same numbers."""
    with_block = numpy_available()
    matrix = CorrelationMatrix({key: set(groups) for key, groups in key_groups.items()})
    if with_block:
        for component in matrix.connected_components():
            if len(component) > 1:
                matrix.component_distance_block(component)  # prime the cache
    for offset, keys in enumerate(growth):
        dirty = matrix.update_groups(added=[(100 + offset, keys)])
        for component in matrix.connected_components():
            component = frozenset(component)
            if len(component) < 2:
                continue
            block = matrix.component_distance_block(component) if with_block else None
            touched = dirty & component
            candidates = [touched] if touched else []
            size = rng.randint(1, min(3, len(component)))
            candidates.append(set(rng.sample(sorted(component), size)))
            for affected in candidates:
                line = matrix.nearest_distance(affected, component)
                assert _bits(line) == _bits(_pair_minimum(matrix, component, affected))
                if block is not None:
                    rows = block.square[block.positions(affected)]
                    assert _bits(line) == _bits(float(rows.min()))


def test_nearest_distance_ignores_neighbours_outside_the_component():
    matrix = CorrelationMatrix({"a": {0, 1}, "b": {0}, "c": {1, 2}})
    assert matrix.nearest_distance(["a"], {"a", "c"}) == 1.0
    assert matrix.nearest_distance(["b"], {"b", "c"}) == math.inf
    assert matrix.nearest_distance([], {"a", "b"}) == math.inf
    with pytest.raises(KeyError):
        matrix.nearest_distance(["missing"], {"a"})


def _counting_block_fills():
    return mock.patch.object(
        CorrelationMatrix,
        "_fill_block_rows",
        autospec=True,
        side_effect=CorrelationMatrix._fill_block_rows,
    )


@pytest.mark.skipif(not numpy_available(), reason="the distance block needs numpy")
class TestLazyDistanceBlock:
    """The block is read, and its dirty rows refreshed, only for a kernel
    agglomeration: splices that keep their cached merges never touch it."""

    HORIZON = 0.75

    def test_short_circuits_defer_the_refresh_to_one_agglomeration(self):
        matrix = _chain_matrix(120)
        matrix.observe_group(499, ["k119"])  # k119's merges now lie above τ
        component = frozenset(matrix.keys)
        cached = build_dendrogram(
            matrix, component, "complete", max_distance=self.HORIZON
        )
        matrix.component_distance_block(component)  # a cached block to go stale
        with (
            mock.patch.object(hk, "KERNEL_SIZE_THRESHOLD", 0),
            _counting_block_fills() as fills,
        ):
            for index in range(500, 505):
                # k119's distances only grow: the line stays above τ
                matrix.observe_group(index, ["k119"])
                outcome = splice_dendrogram(
                    matrix, component, {"k119"}, [cached], "complete",
                    kernel=KERNEL_AUTO, max_distance=self.HORIZON,
                )
                assert outcome.dendrogram is cached
                assert outcome.merges_recomputed == 0
                assert outcome.kernel is None  # no kernel ran
            assert fills.call_count == 0
            # k000 and k001 now always move together: a merge at 0.5, far
            # below the cached ones, so the splice re-agglomerates
            matrix.observe_group(600, ["k000", "k001"])
            outcome = splice_dendrogram(
                matrix, component, {"k000", "k001"}, [cached], "complete",
                kernel=KERNEL_AUTO, max_distance=self.HORIZON,
            )
            assert outcome.merges_recomputed > 0
            assert fills.call_count == 1  # every deferred row, refreshed once
        reference = build_dendrogram(
            matrix, component, "complete", max_distance=self.HORIZON
        )
        assert outcome.dendrogram.merges == reference.merges
        fresh = CorrelationMatrix()
        for index, members in matrix.observed_groups().items():
            fresh.observe_group(index, members)
        block = matrix.component_distance_block(component)
        assert (block.square == fresh.component_distance_block(component).square).all()

    @pytest.mark.parametrize("linkage", ("complete", "single"))
    def test_pipeline_equals_batch_at_every_prefix(self, linkage):
        # At the default threshold only keys that always move together
        # merge.  Lone writes of unmerged hot keys short-circuit; a fresh
        # pair joining the component merges (a kernel agglomeration), and
        # a lone write to one of the pair splits it again.
        events = list(_hot_component_store().journal.events())
        rng = random.Random(7)
        pairs: list[tuple[str, str]] = []
        for step in range(60):
            t = 10_000.0 + step * 500
            hot = f"app/k{rng.randrange(30):02d}"
            choice = rng.random()
            if choice < 0.25:
                pair = (f"app/n{step}a", f"app/n{step}b")
                pairs.append(pair)
                keys = [hot, *pair]
            elif choice < 0.4 and pairs:
                keys = [rng.choice(rng.choice(pairs))]
            else:
                keys = [hot]
            events.extend((t, key, step) for key in keys)
        live = TTKV()
        pipeline = ShardedPipeline(live, linkage=linkage)
        updates = 0
        with (
            mock.patch.object(hk, "KERNEL_SIZE_THRESHOLD", 0),
            _counting_block_fills() as fills,
        ):
            for start in range(0, len(events), 5):
                live.record_events(events[start : start + 5])
                updates += 1
                assert _key_sets(pipeline.update()) == _key_sets(
                    cluster_settings(live, linkage=linkage)
                )
        pipeline.close()
        # the block was refreshed for some updates, not for every one
        assert 0 < fills.call_count < updates


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


#: A correlation threshold at which the hot component's dendrogram, bounded
#: at the cut, holds merges (at the default 2.0 it holds none: no two of
#: its keys share every write group).
HOT_THRESHOLD = 1.0


class TestEngineRepair:
    def test_splice_reuses_merges_on_hot_component(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
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

    def test_retraction_rebuilds_only_the_dirty_component(self):
        # A real retraction loses key c and its edges: the loss voids
        # splicing for the dirty region, but the clean component {x, y}
        # was untouched and keeps its dendrogram and flat clusters.
        matrix = CorrelationMatrix()
        matrix.update_groups(
            added=[(0, "ab"), (1, "ab"), (2, "abc"), (3, "xy")]
        )
        model = ComponentModel(matrix, 60.0, 1.0, "complete")
        model.refresh(set(matrix.keys))
        clean = model._dendro_cache[frozenset("xy")]
        dirty = matrix.update_groups(removed=[(2, "abc")])
        reclustered, reused, _, _ = model.refresh(dirty)
        assert model._dendro_cache[frozenset("xy")] is clean
        assert frozenset("xy") in model.key_sets
        assert frozenset("xy") not in model.last_order_delta[0]
        assert (reclustered, reused) == (1, 0)
        assert model.key_sets == flat_clusters(matrix, 1.0)

    def test_checkpoint_round_trip_preserves_the_dendrogram_cache(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        blob = json.dumps(pipeline.to_state())
        resumed = ShardedPipeline.from_state(store, json.loads(blob))
        store.record_write("app/k00", "new", 50 * 100.0 + 1500)
        store.record_write("app/k01", "new", 50 * 100.0 + 1500)
        clusters = resumed.update()
        assert resumed.last_stats.merges_reused > 0
        assert _key_sets(clusters) == _key_sets(
            cluster_settings(store, correlation_threshold=HOT_THRESHOLD)
        )

    def test_checkpoint_dendrograms_carry_the_threshold_horizon(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        (shard,) = pipeline.to_state()["shards"].values()
        assert shard["dendrograms"]
        # one horizon per shard, none repeated per entry
        assert shard["horizon"] == 1.0 / HOT_THRESHOLD
        for entry in shard["dendrograms"]:
            assert "horizon" not in entry
            assert all(distance <= shard["horizon"] for *_, distance in entry["merges"])

    def test_checkpoint_keeps_no_single_key_dendrograms(self):
        store = _hot_component_store()
        store.record_write("lone", 1, 50 * 100.0 + 9000)
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        model = pipeline._engines[""]._model
        assert frozenset({"lone"}) in model._dendro_cache
        (shard,) = pipeline.to_state()["shards"].values()
        assert shard["dendrograms"]
        assert all(len(entry["items"]) > 1 for entry in shard["dendrograms"])

    def test_average_linkage_checkpoint_records_no_horizon(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, linkage="average")
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        (shard,) = state["shards"].values()
        assert shard["horizon"] is None
        resumed = ShardedPipeline.from_state(store, state)
        assert _key_sets(resumed.update()) == _key_sets(pipeline.cluster_set)

    def test_v8_round_trip_continues_identically(self):
        # the uninterrupted session caches single-key dendrograms the
        # checkpoint leaves out: the resumed one rebuilds them, with the
        # same clusters, merge counts and next checkpoint.  Its first
        # update walks every component (the flat clusters are not
        # checkpointed), so only that update counts the clean "lone"
        # component as reclustered rather than reused.
        store = _hot_component_store()
        store.record_write("lone", 1, 50 * 100.0 + 9000)
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        resumed = ShardedPipeline.from_state(
            store, json.loads(json.dumps(pipeline.to_state()))
        )
        steps = (("app/k00", "app/k01"), ("app/k05",), ("x",), ("lone", "x"))
        for step, keys in enumerate(steps):
            for key in keys:
                store.record_write(key, step, 50 * 100.0 + 10000 + step * 500)
            expected = pipeline.update()
            assert _key_sets(resumed.update()) == _key_sets(expected)
            walked = {}
            if step == 0:
                total = pipeline.last_stats.components_total
                walked = {"components_reclustered": total, "components_reused": 0}
            assert dataclasses.replace(
                resumed.last_stats, shard_timings={}
            ) == dataclasses.replace(pipeline.last_stats, shard_timings={}, **walked)
            assert resumed.to_state() == pipeline.to_state()

    def test_checkpoint_rejects_a_merge_above_the_horizon(self):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        (shard,) = state["shards"].values()
        entry = next(e for e in shard["dendrograms"] if e["merges"])
        entry["merges"][-1][2] = shard["horizon"] * 2
        with pytest.raises(CorruptCheckpointError, match="above the horizon"):
            ShardedPipeline.from_state(store, state)

    @pytest.mark.parametrize("horizon", (None, 0.5, 2.0))
    def test_checkpoint_rejects_another_horizon(self, horizon):
        store = _hot_component_store()
        pipeline = ShardedPipeline(store, correlation_threshold=HOT_THRESHOLD)
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        (shard,) = state["shards"].values()
        shard["horizon"] = horizon  # None: full dendrograms
        with pytest.raises(CheckpointError, match="horizon"):
            ShardedPipeline.from_state(store, state)

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
                {"items": ["not", "recorded"], "merges": [[0, 1, 0.0]]}
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
