"""Sharded ≡ unsharded ≡ batch, and checkpoint/resume round-trips.

The contracts under test:

- for every shard prefix, the :class:`ShardedPipeline`'s per-shard
  clusters equal both the batch ``cluster_settings(store,
  key_filter=prefix)`` reference and an unsharded (one catch-all shard)
  :class:`ShardedPipeline` with the same ``key_filter`` — for **any**
  prefix of a multi-application stream, including same-tick writes that
  straddle prefixes;
- the merged cluster set is exactly the per-shard sets re-sorted;
- a session checkpointed with ``to_state()`` and resumed with
  ``from_state()`` on a re-opened store yields a byte-identical cluster
  set while consuming **zero** already-read journal events;
- per-shard wall times are reported for exactly the shards that ran
  (``UpdateStats.shard_timings``/``slowest_shard``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import STATE_VERSION, ShardedPipeline
from repro.exceptions import CheckpointError, CorruptCheckpointError
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import DELETED, TTKV

PREFIXES = ("app_a/", "app_b/", "app_c/")

_KEYS = (
    "app_a/k0", "app_a/k1", "app_a/k2",
    "app_b/k0", "app_b/k1",
    "app_c/k0",
    "sys/noise0", "sys/noise1",
)


def _sorted_stream(events):
    """Events ordered the way a live deployment would append them."""
    return [e for _, e in sorted(enumerate(events), key=lambda p: (p[1][0], p[0]))]


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def _batch_for_shard(store, shard_id, **params):
    """The batch reference for one shard: filter-then-extract."""
    if shard_id != CATCH_ALL:
        return cluster_settings(store, key_filter=shard_id, **params)
    leftover = TTKV.from_events(
        [
            e
            for e in store.write_events()
            if not any(e[1].startswith(p) for p in PREFIXES)
        ]
    )
    return cluster_settings(leftover, **params)


# Small integer timestamps force same-tick ties, routinely straddling
# prefixes — the case where a global window would bridge applications but
# the sharded (filter-then-extract) semantics must not.
_multi_prefix_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(float),
        st.sampled_from(_KEYS),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=60,
)


@given(_multi_prefix_events, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sharded_equals_unsharded_equals_batch(events, rng):
    stream = _sorted_stream(events)
    live = TTKV()
    sharded = ShardedPipeline(live, shard_prefixes=PREFIXES)
    unsharded = {
        prefix: ShardedPipeline(live, key_filter=prefix)
        for prefix in PREFIXES
    }
    positions = sorted(rng.sample(range(len(stream) + 1), min(4, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    for position in positions:
        live.record_events(stream[consumed:position])
        consumed = position
        merged = sharded.update()
        for prefix in PREFIXES:
            shard_sets = _key_sets(sharded.cluster_set_for(prefix))
            batch_sets = _key_sets(_batch_for_shard(live, prefix))
            assert shard_sets == batch_sets, (
                f"shard {prefix} diverged from batch at prefix "
                f"{position}/{len(stream)}"
            )
            assert shard_sets == _key_sets(unsharded[prefix].update()), (
                f"shard {prefix} diverged from the unsharded pipeline at "
                f"prefix {position}/{len(stream)}"
            )
        assert _key_sets(sharded.cluster_set_for(CATCH_ALL)) == _key_sets(
            _batch_for_shard(live, CATCH_ALL)
        )
        # the merged set is exactly the per-shard sets re-sorted
        combined = [
            frozenset(keys)
            for shard_id in sharded.shard_ids
            for keys in _key_sets(sharded.cluster_set_for(shard_id))
        ]
        combined.sort(key=lambda c: (-len(c), tuple(sorted(c))))
        assert _key_sets(merged) == [tuple(sorted(c)) for c in combined]


@given(
    _multi_prefix_events,
    st.randoms(use_true_random=False),
    st.sampled_from([0.0, 1.0, 10.0]),
    st.sampled_from([0.5, 2.0]),
)
@settings(max_examples=25, deadline=None)
def test_sharded_equals_batch_across_parameters(events, rng, window, threshold):
    stream = _sorted_stream(events)
    cut = rng.randrange(len(stream) + 1)
    live = TTKV()
    live.record_events(stream[:cut])
    sharded = ShardedPipeline(
        live,
        shard_prefixes=PREFIXES,
        window=window,
        correlation_threshold=threshold,
    )
    sharded.update()
    live.record_events(stream[cut:])
    sharded.update()
    for prefix in PREFIXES:
        assert _key_sets(sharded.cluster_set_for(prefix)) == _key_sets(
            _batch_for_shard(
                live, prefix, window=window, correlation_threshold=threshold
            )
        )


@given(_multi_prefix_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_checkpoint_resume_round_trip(events, rng):
    stream = _sorted_stream(events)
    cut = rng.randrange(len(stream) + 1)

    live = TTKV()
    live.record_events(stream[:cut])
    original = ShardedPipeline(live, shard_prefixes=PREFIXES)
    before = original.update()

    # checkpoint through an actual JSON round trip (the state must be
    # JSON-safe), restart the deployment, re-open the same store
    blob = json.dumps(original.to_state())
    reopened = TTKV()
    reopened.record_events(stream[:cut])
    resumed = ShardedPipeline.from_state(reopened, json.loads(blob))

    after = resumed.update()
    assert resumed.last_stats.events_consumed == 0, (
        "resume must not re-read consumed journal events"
    )
    assert _key_sets(after) == _key_sets(before)
    assert after.window == before.window
    assert after.correlation_threshold == before.correlation_threshold

    # both sessions must agree with batch as the streams keep growing
    live.record_events(stream[cut:])
    reopened.record_events(stream[cut:])
    assert _key_sets(original.update()) == _key_sets(resumed.update())
    for prefix in PREFIXES:
        assert _key_sets(resumed.cluster_set_for(prefix)) == _key_sets(
            _batch_for_shard(reopened, prefix)
        )


class TestShardedBehaviour:
    def test_only_advanced_shards_update(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=("a/", "b/"))
        store.record_write("a/x", 1, 10.0)
        store.record_write("b/y", 1, 10.0)
        pipeline.update()
        assert pipeline.last_stats.shards_updated == 3  # first run: all
        store.record_write("a/x", 2, 500.0)
        first = pipeline.update()
        assert pipeline.last_stats.shards_updated == 1
        assert pipeline.last_stats.shards_total == 3
        second = pipeline.update()  # nothing advanced at all
        assert pipeline.last_stats.shards_updated == 0
        assert pipeline.last_stats.events_consumed == 0
        assert second is first

    def test_catch_all_disabled_drops_unmatched_keys(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",), catch_all=False)
        store.record_write("a/x", 1, 10.0)
        store.record_write("sys/noise", 1, 10.0)
        clusters = pipeline.update()
        assert _key_sets(clusters) == [("a/x",)]
        assert pipeline.shard_ids == ("a/",)

    def test_retuned_parameters_restart_the_session(self):
        store = TTKV()
        store.record_events([
            (0.0, "a/x", 1), (0.0, "a/y", 1), (100.0, "a/x", 2),
        ])
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        pipeline.correlation_threshold = 0.5
        result = pipeline.update()
        assert pipeline.last_stats.rebuilt
        assert _key_sets(result) == _key_sets(
            cluster_settings(store, key_filter="a/", correlation_threshold=0.5)
        )

    def test_retuned_shard_prefixes_restart_the_session(self):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        store.record_write("b/y", 1, 10.0)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        pipeline.shard_prefixes = ("a/", "b/")
        pipeline.update()
        assert pipeline.last_stats.rebuilt
        assert pipeline.shard_ids == ("a/", "b/", CATCH_ALL)

    def test_matrix_for_is_read_only(self):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        view = pipeline.matrix_for("a/")
        assert "a/x" in view
        with pytest.raises(TypeError):
            view.observe_group(99, {"mallory"})

    def test_unknown_shard_raises(self):
        pipeline = ShardedPipeline(TTKV(), shard_prefixes=("a/",))
        with pytest.raises(KeyError):
            pipeline.cluster_set_for("ghost/")

    def test_close_detaches_from_the_store(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        pipeline.close()
        store.record_write("a/x", 1, 10.0)
        # the detached session no longer sees new events
        assert pipeline.last_stats.events_consumed == 0
        assert len(pipeline._engines["a/"].journal) == 0

    def test_reorders_are_absorbed_per_shard(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=("a/", "b/"))
        store.record_write("a/x", 1, 100.0)
        store.record_write("b/y", 1, 100.0)
        pipeline.update()
        # lands before b/'s consumed tail but inside its trailing group;
        # shard a/ is untouched entirely
        store.record_write("b/early", 1, 50.0)
        result = pipeline.update()
        stats = pipeline.last_stats
        assert not stats.rebuilt
        assert stats.reorders_absorbed == 1
        assert stats.shards_updated == 1
        assert _key_sets(pipeline.cluster_set_for("b/")) == _key_sets(
            _batch_for_shard(store, "b/")
        )
        assert ("a/x",) in _key_sets(result)


class TestTimingStats:
    def _pipeline(self):
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=PREFIXES)
        return store, pipeline

    def test_timings_cover_exactly_the_updated_shards(self):
        store, pipeline = self._pipeline()
        store.record_write("app_a/k0", 1, 10.0)
        pipeline.update()
        first = pipeline.last_stats
        # first update touches every shard (all cursors fresh)
        assert sorted(first.shard_timings) == sorted(pipeline.shard_ids)
        assert all(seconds >= 0.0 for seconds in first.shard_timings.values())
        assert first.slowest_shard in first.shard_timings

        store.record_write("app_b/k0", 1, 20.0)
        pipeline.update()
        second = pipeline.last_stats
        assert list(second.shard_timings) == ["app_b/"]
        assert second.slowest_shard == "app_b/"
        pipeline.close()

    def test_no_op_update_reports_no_timings(self):
        store, pipeline = self._pipeline()
        store.record_write("app_a/k0", 1, 10.0)
        pipeline.update()
        pipeline.update()  # nothing advanced
        stats = pipeline.last_stats
        assert stats.shard_timings == {}
        assert stats.slowest_shard is None
        pipeline.close()


class TestCheckpointValidation:
    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError):
            ShardedPipeline.from_state(TTKV(), {"version": 99})

    def test_checkpoints_are_written_at_version_6(self):
        pipeline = ShardedPipeline(TTKV(), shard_prefixes=("a/",))
        assert pipeline.to_state()["version"] == STATE_VERSION == 6
        pipeline.close()

    def _relabelled(self, version, **params):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        pipeline.close()
        state["version"] = version
        state["params"].update(params)
        return store, state

    def test_v5_checkpoint_rejected(self):
        # version 5 kept no retained-group start positions, so a resumed
        # session could not repair a reorder where a live one would
        store, state = self._relabelled(5)
        for shard in state["shards"].values():
            del shard["starts"]
        with pytest.raises(CheckpointError, match="unsupported .* version 5"):
            ShardedPipeline.from_state(store, state)

    def test_v4_checkpoint_rejected(self):
        # version 4 also recorded the repair mode and kernel in its params
        store, state = self._relabelled(4, kernel="auto")
        with pytest.raises(CheckpointError, match="unsupported .* version 4"):
            ShardedPipeline.from_state(store, state)

    def test_v3_checkpoint_rejected(self):
        # version 3 also recorded the shard-journal backend in its params
        store, state = self._relabelled(3, journal_backend="list")
        with pytest.raises(CheckpointError, match="unsupported .* version 3"):
            ShardedPipeline.from_state(store, state)

    def test_legacy_v1_checkpoint_rejected(self):
        # versions 1 to 4 are no longer loaded (1 kept the full group
        # history and no compacted baseline)
        store, legacy = self._relabelled(1)
        with pytest.raises(CheckpointError, match="unsupported .* version 1"):
            ShardedPipeline.from_state(store, legacy)

    def test_mismatched_store_rejected(self):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        state = pipeline.to_state()
        # resume over an EMPTY store: the cursor points past the journal
        with pytest.raises(ValueError):
            ShardedPipeline.from_state(TTKV(), state)

    def test_different_stream_same_length_rejected(self):
        # a checkpoint from one deployment must not resume over another
        # store that merely happens to be long enough (regression: only
        # the cursor position used to be validated)
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        store.record_write("a/y", 1, 700.0)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        other = TTKV()
        other.record_write("a/completely", 9, 1.0)
        other.record_write("a/different", 9, 2.0)
        with pytest.raises(ValueError):
            ShardedPipeline.from_state(other, state)

    def test_fresh_session_round_trips(self):
        # checkpointing before any update() must also work
        store = TTKV()
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        state = json.loads(json.dumps(pipeline.to_state()))
        resumed = ShardedPipeline.from_state(TTKV(), state)
        assert len(resumed.update()) == 0

    def test_deleted_values_survive_the_state_round_trip(self):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        store.record_delete("a/x", 10.5)  # deletion inside the trailing group
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        before = pipeline.update()
        blob = json.dumps(pipeline.to_state())
        reopened = TTKV()
        reopened.record_write("a/x", 1, 10.0)
        reopened.record_delete("a/x", 10.5)
        resumed = ShardedPipeline.from_state(reopened, json.loads(blob))
        assert _key_sets(resumed.update()) == _key_sets(before)
        assert resumed.last_stats.events_consumed == 0


class TestRestoreMismatchErrors:
    """A checkpoint that does not match the store is a CheckpointError.

    Every per-shard restore failure surfaces typed: a mismatch between
    the checkpoint and the store's journal raises
    :class:`~repro.exceptions.CheckpointError` (and is *not* reported as
    corruption), a malformed value raises
    :class:`~repro.exceptions.CorruptCheckpointError`.
    """

    def _state(self):
        store = TTKV()
        for t in range(3):
            store.record_write("a/x", t, t * 100.0)
            store.record_write("a/y", t, t * 100.0 + 0.2)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        pipeline.close()
        return store, state

    def _assert_mismatch(self, store, state, match):
        with pytest.raises(CheckpointError, match=match) as caught:
            ShardedPipeline.from_state(store, state)
        assert not isinstance(caught.value, CorruptCheckpointError)

    def test_store_with_a_different_stream(self):
        _, state = self._state()
        other = TTKV()
        for t in range(3):
            other.record_write("a/p", t, t * 100.0)
            other.record_write("a/q", t, t * 100.0 + 0.2)
        self._assert_mismatch(other, state, "different stream")

    def test_cursor_past_the_journal(self):
        _, state = self._state()
        self._assert_mismatch(TTKV(), state, "only holds 0 events")

    def test_group_index_past_the_closed_count(self):
        store, state = self._state()
        shard = state["shards"]["a/"]
        shard["groups"].append([shard["closed_count"] + 5, ["a/x"]])
        self._assert_mismatch(store, state, "exceeds the closed count")

    def test_provisional_group_mismatch(self):
        store, state = self._state()
        shard = state["shards"]["a/"]
        shard["groups"] = [[shard["closed_count"], ["a/elsewhere"]]]
        self._assert_mismatch(store, state, "provisional group")

    def test_retained_group_starts_missing(self):
        store, state = self._state()
        state["shards"]["a/"]["starts"] = []
        self._assert_mismatch(store, state, "start position")

    def test_retained_group_starts_off_the_journal(self):
        store, state = self._state()
        shard = state["shards"]["a/"]
        assert shard["starts"] == [0, 2]
        shard["starts"] = [0, 1]
        self._assert_mismatch(store, state, "retained groups do not match")

    def test_foreign_dendrogram(self):
        store, state = self._state()
        state["shards"]["a/"]["dendrograms"] = [
            {"items": ["b/foreign", "b/other"], "merges": [[0, 1, 0.0]]}
        ]
        self._assert_mismatch(store, state, "dendrogram covers keys absent")

    def test_malformed_value_is_corrupt(self):
        store, state = self._state()
        state["shards"]["a/"]["pending"] = [{"t": 1.0, "k": "a/x", "op": "?"}]
        with pytest.raises(CorruptCheckpointError, match="a/"):
            ShardedPipeline.from_state(store, state)


class TestTypedCheckpointErrors:
    """Damaged checkpoints raise typed errors, never bare KeyError/TypeError.

    At the current state version a truncated or corrupted checkpoint —
    missing fields, wrong-typed sections, mangled shard entries — must
    surface as :class:`~repro.exceptions.CorruptCheckpointError` with the
    faulty field named.  A damaged checkpoint of the retired version 5 is
    refused as unsupported, a :class:`~repro.exceptions.CheckpointError`,
    before any of its fields is read.  Both subclass ``ValueError``, so
    pre-existing callers keep working.
    """

    VERSIONS = (5, STATE_VERSION)

    @staticmethod
    def _raises(version, match):
        if version == STATE_VERSION:
            return pytest.raises(CorruptCheckpointError, match=match)
        return pytest.raises(
            CheckpointError, match=f"unsupported .* version {version}"
        )

    def _state(self, version):
        store = TTKV()
        store.record_write("a/x", 1, 10.0)
        store.record_write("a/y", 1, 10.2)
        pipeline = ShardedPipeline(store, shard_prefixes=("a/",))
        pipeline.update()
        state = json.loads(json.dumps(pipeline.to_state()))
        state["version"] = version
        pipeline.close()
        return store, state

    def test_unsupported_version_is_a_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="version"):
            ShardedPipeline.from_state(TTKV(), {"version": 99})

    @pytest.mark.parametrize("version", VERSIONS)
    @pytest.mark.parametrize("missing", ("params", "shards"))
    def test_missing_section_raises_corrupt_error(self, version, missing):
        store, state = self._state(version)
        del state[missing]
        with self._raises(version, "truncated or corrupt"):
            ShardedPipeline.from_state(store, state)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_missing_param_raises_corrupt_error(self, version):
        store, state = self._state(version)
        del state["params"]["key_filter"]
        with self._raises(version, "key_filter"):
            ShardedPipeline.from_state(store, state)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_wrong_typed_params_raise_corrupt_error(self, version):
        store, state = self._state(version)
        state["params"] = "not-a-dict"
        with self._raises(version, "truncated or corrupt"):
            ShardedPipeline.from_state(store, state)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_mangled_shard_entry_names_the_shard(self, version):
        store, state = self._state(version)
        state["shards"]["a/"] = {"truncated": True}
        with self._raises(version, "a/"):
            ShardedPipeline.from_state(store, state)

    def test_typed_errors_remain_valueerrors(self):
        store, state = self._state(STATE_VERSION)
        del state["shards"]
        with pytest.raises(ValueError):
            ShardedPipeline.from_state(store, state)
