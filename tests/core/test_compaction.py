"""Checkpoint compaction: bounded state with bit-identical clusters.

The contracts under test:

- a :class:`CorrelationMatrix` that compacts its closed groups after
  every registration answers every query — counts, correlations, finite
  pairs, components — exactly like one that never compacts, including
  across provisional-tail retractions (the only retraction the streaming
  engine ever performs);
- compacted group indices are hard guardrails: they can be neither
  retracted nor reused;
- the compacted baseline round-trips through
  ``compacted_state()``/``install_compacted()`` observationally intact;
- a streaming :class:`ShardedPipeline` (which compacts after every
  update) stays equal to the batch ``cluster_settings`` reference across
  every Table I machine profile, checkpoint round-trips included, while
  an engine with compaction disabled produces the identical clusters —
  compacted ≡ uncompacted ≡ batch;
- a long-deployment checkpoint plateaus: ``len(json.dumps(to_state()))``
  stops growing once the live key population saturates, where the
  uncompacted equivalent grows with every consumed group; on the seeded
  3-week × 600-event deployment profile the final week stays within 25%
  of its recorded size.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import CorrelationMatrix
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.store import TTKV
from repro.workload.machines import PROFILES
from repro.workload.tracegen import generate_trace

_KEYS = ("a", "b", "c", "d", "e")


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def _assert_matrices_agree(plain: CorrelationMatrix, compacted: CorrelationMatrix):
    assert sorted(plain.keys) == sorted(compacted.keys)
    for key in plain.keys:
        assert plain.group_count(key) == compacted.group_count(key), key
    plain_pairs = {(a, b): c for a, b, c in plain.finite_pairs()}
    compact_pairs = {(a, b): c for a, b, c in compacted.finite_pairs()}
    assert plain_pairs.keys() == compact_pairs.keys()
    for pair, value in plain_pairs.items():
        other = compact_pairs[pair]
        # identical integer counts feed the same IEEE-754 operations, so
        # the correlations must be bit-identical, not merely close
        assert value == other or (math.isnan(value) and math.isnan(other))
    assert sorted(
        sorted(c) for c in plain.connected_components()
    ) == sorted(sorted(c) for c in compacted.connected_components())


_group_streams = st.lists(
    st.frozensets(st.sampled_from(_KEYS), min_size=1, max_size=4),
    min_size=1,
    max_size=24,
)


class TestMatrixCompaction:
    @given(_group_streams)
    @settings(max_examples=60, deadline=None)
    def test_always_compacting_matrix_equals_plain(self, groups):
        plain = CorrelationMatrix()
        compacted = CorrelationMatrix()
        for index, keys in enumerate(groups):
            plain.update_groups(added=[(index, keys)])
            compacted.update_groups(added=[(index, keys)])
            # keep exactly the newest group retractable — the streaming
            # engine's provisional-tail policy
            compacted.compact(index)
        _assert_matrices_agree(plain, compacted)
        assert compacted.compacted_groups == len(groups) - 1
        assert len(compacted.observed_groups()) == 1

    @given(_group_streams, st.frozensets(st.sampled_from(_KEYS), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_provisional_tail_retraction_edge(self, groups, replacement):
        """The newest group is retracted and replaced after compaction —
        the exact shape of a provisional write group growing in place."""
        plain = CorrelationMatrix()
        compacted = CorrelationMatrix()
        for index, keys in enumerate(groups):
            for matrix in (plain, compacted):
                matrix.update_groups(added=[(index, keys)])
            compacted.compact(index)
            for matrix in (plain, compacted):
                matrix.update_groups(
                    added=[(index, keys | replacement)],
                    removed=[(index, keys)],
                )
        _assert_matrices_agree(plain, compacted)

    def test_compacted_index_cannot_be_retracted(self):
        matrix = CorrelationMatrix()
        matrix.update_groups(added=[(0, frozenset("ab")), (1, frozenset("bc"))])
        matrix.compact(1)
        with pytest.raises(ValueError, match="can no longer be retracted"):
            matrix.update_groups(removed=[(0, frozenset("ab"))])
        # the provisional tail above the floor stays retractable
        matrix.update_groups(removed=[(1, frozenset("bc"))])

    def test_compacted_index_cannot_be_reused(self):
        matrix = CorrelationMatrix()
        matrix.update_groups(added=[(0, frozenset("ab"))])
        matrix.compact(1)
        with pytest.raises(ValueError, match="below the compaction floor"):
            matrix.update_groups(added=[(0, frozenset("xy"))])

    def test_compact_is_idempotent(self):
        matrix = CorrelationMatrix()
        matrix.update_groups(added=[(i, frozenset("ab")) for i in range(4)])
        assert matrix.compact(3) == 3
        assert matrix.compact(3) == 0
        assert matrix.compacted_groups == 3

    @given(_group_streams)
    @settings(max_examples=40, deadline=None)
    def test_compacted_state_round_trip(self, groups):
        source = CorrelationMatrix()
        for index, keys in enumerate(groups):
            source.update_groups(added=[(index, keys)])
        source.compact(len(groups) - 1)

        restored = CorrelationMatrix()
        retained = sorted(source.observed_groups().items())
        if retained:
            restored.update_groups(added=retained)
        state = source.compacted_state()
        if state is not None:
            restored.install_compacted(json.loads(json.dumps(state)))
        _assert_matrices_agree(source, restored)
        assert restored.compact_floor == source.compact_floor


# -- streaming engine: compacted ≡ uncompacted ≡ batch ------------------------


def _scaled(profile):
    """A fast, small variant of a Table I machine profile."""
    return dataclasses.replace(
        profile,
        days=2,
        noise_keys=min(profile.noise_keys, 25),
        noise_writes_per_day=min(profile.noise_writes_per_day, 60),
        reads_per_day=min(profile.reads_per_day, 100),
    )


def _disable_compaction(pipeline: ShardedPipeline) -> None:
    """Pin the engines' matrices to uncompacted behaviour."""
    for engine in pipeline._engines.values():
        engine._matrix.compact = lambda keep_from: 0


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_compacted_equals_uncompacted_equals_batch(profile):
    trace = generate_trace(_scaled(profile))
    events = sorted(trace.ttkv.write_events())
    assert events, f"profile {profile.name} generated no modifications"
    rng = random.Random(profile.seed)
    positions = sorted(rng.sample(range(len(events) + 1), 6)) + [len(events)]

    compacting_store, plain_store = TTKV(), TTKV()
    compacting = ShardedPipeline(compacting_store, shard_prefixes=("app/",))
    plain = ShardedPipeline(plain_store, shard_prefixes=("app/",))
    _disable_compaction(plain)
    consumed = 0
    for position in positions:
        for store in (compacting_store, plain_store):
            store.record_events(events[consumed:position])
        consumed = position
        got = _key_sets(compacting.update())
        assert got == _key_sets(plain.update())
        assert got == _key_sets(cluster_settings(compacting_store))
        # the compacted checkpoint resumes into the identical session
        blob = json.dumps(compacting.to_state())
        resumed = ShardedPipeline.from_state(compacting_store, json.loads(blob))
        assert _key_sets(resumed.update()) == got
        resumed.close()
    # compaction actually happened: retained registrations stay at most
    # the provisional group while the baseline absorbed the rest
    state = compacting.to_state()
    for shard_state in state["shards"].values():
        assert len(shard_state["groups"]) <= 1
    compacting.close()
    plain.close()


def test_long_deployment_checkpoint_size_plateaus():
    rng = random.Random(7)
    keys = [f"app/k{i:02d}" for i in range(12)]
    store = TTKV()
    pipeline = ShardedPipeline(store, shard_prefixes=("app/",), catch_all=False)
    plain_store = TTKV()
    plain = ShardedPipeline(plain_store, shard_prefixes=("app/",), catch_all=False)
    _disable_compaction(plain)
    t = 0.0
    sizes: list[int] = []
    plain_sizes: list[int] = []
    for week in range(6):
        for _ in range(250):
            t += rng.choice((0.2, 0.3, 120.0))
            event = (t, rng.choice(keys), week)
            store.record_events([event])
            plain_store.record_events([event])
        assert _key_sets(pipeline.update()) == _key_sets(plain.update())
        sizes.append(len(json.dumps(pipeline.to_state())))
        plain_sizes.append(len(json.dumps(plain.to_state())))
    # compacted: flat once the 12-key population saturated
    assert sizes[-1] <= sizes[1]
    # uncompacted: grows every week, forever
    assert all(a < b for a, b in zip(plain_sizes, plain_sizes[1:]))
    assert plain_sizes[-1] > 2 * sizes[-1]
    pipeline.close()
    plain.close()


#: Final-week checkpoint size of the deployment profile below, as first
#: recorded; the test allows 25% of growth before it fails.
DEPLOYMENT_CHECKPOINT_BYTES = 25345


def test_deployment_profile_checkpoint_plateaus():
    """Three weeks of 600 writes over 40 keys: the checkpoint stays flat.

    Mostly tight co-write bursts with an occasional long gap that closes
    the open write group; the session checkpoints after each week.  Once
    the key/pair population saturates (week two) the checkpoint must stop
    growing, and the final week must stay near its recorded size.
    """
    rng = random.Random(2024)
    keys = [f"app/k{i:03d}" for i in range(40)]
    store = TTKV()
    pipeline = ShardedPipeline(store, shard_prefixes=("app/",), catch_all=False)
    t = 0.0
    sizes: list[int] = []
    for week in range(3):
        for _ in range(600):
            t += rng.choice((0.2, 0.3, 0.4, 120.0))
            store.record_write(rng.choice(keys), week, t)
        pipeline.update()
        sizes.append(len(json.dumps(pipeline.to_state())))
    pipeline.close()
    assert sizes[-1] <= sizes[1] * 1.05, sizes
    assert sizes[-1] <= 1.25 * DEPLOYMENT_CHECKPOINT_BYTES, sizes
