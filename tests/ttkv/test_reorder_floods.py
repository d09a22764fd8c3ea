"""Reorder handling under duplicate/late-event floods (property suite).

:func:`repro.scenarios.regimes.flooded_delivery` models the hostile
collection path of the clock-skew scenarios: a bounded window of the
stream arrives shuffled, some events twice — with per-key timestamp
order preserved, exactly what real loggers guarantee.  These properties
pin the whole reorder stack against it:

- the flood itself is sound (a permutation plus duplicates, per-key
  monotone) — so every downstream guarantee is tested against a
  *legal* hostile stream, not one the TTKV would reject;
- the streaming pipeline's clusters equal the batch model over the
  journal so far at every prefix of the flood;
- the engines' ``reorders_absorbed``/``reorders_repaired``/``rebuilt``
  accounting stays *exact*: each update's stats are predicted beforehand
  from the journal's ``reorder_depth`` and the shard checkpoint's
  provisional group and retained-group starts — the absorb / repair /
  rebuild decision rule itself — not merely summed;
- a session checkpointed and resumed mid-flood takes the same path on
  every update as one that ran uninterrupted.
"""

import json
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.scenarios.regimes import flooded_delivery, skew_timestamps
from repro.ttkv.journal import JournalCursor
from repro.ttkv.store import TTKV

_KEYS = ("mail/a", "mail/b", "mail/c", "edit/x", "edit/y", "sys/z")

_streams = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=400, allow_nan=False),
        st.sampled_from(_KEYS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=40,
)

_flood_params = st.tuples(
    st.floats(min_value=0.0, max_value=0.5),  # duplicate_fraction
    st.floats(min_value=0.0, max_value=0.6),  # late_fraction
    st.integers(min_value=1, max_value=12),   # max_displacement
    st.integers(min_value=0, max_value=2**32 - 1),  # delivery seed
)


def _journal_order(stream):
    return sorted(stream, key=lambda event: event[0])


def _flood(events, params):
    duplicate_fraction, late_fraction, max_displacement, seed = params
    return flooded_delivery(
        events,
        duplicate_fraction=duplicate_fraction,
        late_fraction=late_fraction,
        max_displacement=max_displacement,
        rng=random.Random(seed),
    )


def _key_sets(cluster_set):
    return sorted(tuple(cluster.sorted_keys()) for cluster in cluster_set)


@given(_streams, _flood_params)
@settings(max_examples=60, deadline=None)
def test_flood_is_a_legal_per_key_monotone_shuffle(stream, params):
    """The flood permutes + duplicates, never bending per-key time order."""
    events = _journal_order(stream)
    delivered = _flood(events, params)

    # every original event is delivered; extras are exact duplicates
    extras = Counter(delivered) - Counter(events)
    assert not Counter(events) - Counter(delivered)
    assert set(extras) <= set(events)

    # per-key timestamps never regress in delivery order
    last_seen: dict[str, float] = {}
    for timestamp, key, _value in delivered:
        assert timestamp >= last_seen.get(key, float("-inf"))
        last_seen[key] = timestamp

    # a TTKV accepts the delivery verbatim (per-key monotonicity holds)
    store = TTKV()
    store.record_events(delivered)
    assert len(store.write_events()) == len(delivered)


@given(_streams, _flood_params, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_pipeline_and_batch_agree_at_every_prefix(stream, params, chunks):
    """streaming ≡ batch clusters after every delivered chunk."""
    delivered = _flood(_journal_order(stream), params)
    size = max(1, -(-len(delivered) // chunks))
    store = TTKV()
    pipeline = ShardedPipeline(store)
    try:
        for start in range(0, len(delivered), size):
            chunk = delivered[start : start + size]
            store.record_events(chunk)
            model = _key_sets(pipeline.update())
            reference_store = TTKV()
            reference_store.record_events(delivered[: start + len(chunk)])
            assert model == _key_sets(cluster_settings(reference_store))
    finally:
        pipeline.close()


def _expected_outcome(snapshot, journal):
    """(absorbed, repaired, rebuilt) the decision rule predicts.

    ``snapshot`` is the shard's checkpoint taken before the append: its
    cursor, the provisional group's events, the closed-group count and
    the retained closed groups' journal start positions.
    """
    if snapshot["cursor"] is None:
        return 0, 0, False
    cursor = JournalCursor.from_state(snapshot["cursor"])
    rewound = journal.reorder_depth(cursor)
    pending = len(snapshot["pending"])
    if rewound == 0:
        return 0, 0, False
    if rewound < pending or (rewound == pending and snapshot["closed_count"] == 0):
        return rewound, 0, False
    # repair from the group holding the event just before the earliest
    # insertion (group 0 when the insertion lands at the very front)
    held = max(cursor.position - rewound - 1, 0)
    if snapshot["starts"] and snapshot["starts"][0] <= held:
        return 0, rewound, False
    return 0, 0, True


@given(_streams, _flood_params, st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_reorder_accounting_is_exact(stream, params, chunks):
    """Each update's absorbed/repaired/rebuilt stats match the rule oracle.

    Before every update the expected outcome is derived from first
    principles: ``reorder_depth`` says how far re-delivery reaches into
    the consumed prefix; a rewind that fits inside the provisional
    trailing group (or swallows exactly the whole pending buffer before
    any group has closed) is absorbed; one whose preceding event lies in
    a retained closed group — per the start positions snapshotted before
    the append — is repaired; anything deeper rebuilds.
    """
    delivered = _flood(_journal_order(stream), params)
    store = TTKV()
    pipeline = ShardedPipeline(store)
    (engine,) = pipeline._engines.values()
    (shard_id,) = pipeline.shard_ids
    size = max(1, -(-len(delivered) // chunks))
    try:
        for start in range(0, len(delivered), size):
            snapshot = pipeline.to_state()["shards"][shard_id]
            store.record_events(delivered[start : start + size])
            absorbed, repaired, rebuilt = _expected_outcome(snapshot, engine.journal)
            pipeline.update()
            stats = pipeline.last_stats
            assert stats.reorders_absorbed == absorbed
            assert stats.reorders_repaired == repaired
            assert stats.rebuilt == rebuilt
    finally:
        pipeline.close()


def _path_stats(stats):
    """The update's stats that must not depend on a checkpoint round trip."""
    return (
        stats.events_consumed,
        stats.groups_closed,
        stats.dirty_keys,
        stats.rebuilt,
        stats.reorders_absorbed,
        stats.reorders_repaired,
    )


@given(_streams, _flood_params, st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_checkpoint_mid_flood_repairs_where_a_live_session_does(
    stream, params, chunks, data
):
    """streaming ≡ batch at every prefix across a mid-flood round trip.

    One session runs uninterrupted; its twin is checkpointed through JSON
    and resumed at a drawn chunk boundary.  Both must equal batch after
    every chunk and report identical per-update paths — the resumed
    engine absorbs, repairs and rebuilds exactly where the live one does.
    Both grouping modes are drawn: a repair restarts the extractor at a
    group boundary, which must be exact for sliding windows and buckets.
    """
    delivered = _flood(_journal_order(stream), params)
    size = max(1, -(-len(delivered) // chunks))
    starts = list(range(0, len(delivered), size))
    cut = data.draw(st.integers(min_value=0, max_value=len(starts)), label="cut")
    grouping = data.draw(st.sampled_from(("sliding", "buckets")), label="grouping")
    window = data.draw(st.sampled_from((1.0, 10.0, 60.0)), label="window")
    session = {"window": window, "grouping": grouping}
    live_store, twin_store = TTKV(), TTKV()
    live = ShardedPipeline(live_store, **session)
    twin = ShardedPipeline(twin_store, **session)
    try:
        for step, start in enumerate(starts):
            if step == cut:
                blob = json.dumps(twin.to_state())
                twin.close()
                twin = ShardedPipeline.from_state(twin_store, json.loads(blob))
            chunk = delivered[start : start + size]
            live_store.record_events(chunk)
            twin_store.record_events(chunk)
            got = _key_sets(live.update())
            assert _key_sets(twin.update()) == got
            assert _path_stats(twin.last_stats) == _path_stats(live.last_stats)
            assert got == _key_sets(cluster_settings(live_store, **session))
    finally:
        live.close()
        twin.close()


@given(
    _streams,
    st.floats(min_value=0, max_value=90, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_skew_preserves_order_and_clusters(stream, max_skew, seed):
    """A constant clock offset never changes the cluster model."""
    events = _journal_order(stream)
    skewed = skew_timestamps(
        events, max_skew_seconds=max_skew, rng=random.Random(seed)
    )
    assert [event[0] for event in skewed] == sorted(
        event[0] for event in skewed
    )
    base = TTKV()
    base.record_events(events)
    shifted = TTKV()
    shifted.record_events(skewed)
    # flooring at zero can merge the earliest groups, so the cluster
    # equality only holds when no timestamp was clamped (a uniform shift)
    offset = skewed[0][0] - events[0][0] if events else 0.0
    unclamped = all(
        abs((skewed[i][0] - events[i][0]) - offset) < 1e-9
        for i in range(len(events))
    )
    if unclamped:
        assert _key_sets(cluster_settings(base)) == _key_sets(
            cluster_settings(shifted)
        )


def test_worked_flood_example_absorbs_and_rebuilds():
    """A deterministic flood walks the absorb, repair and rebuild paths."""
    rng = random.Random(20140623)
    # bursts of five 1s-apart events, 20s between bursts: with window 5
    # each burst is one write group that closes at the next burst.  A
    # displaced event lands in the open trailing burst (absorb), in one
    # of the last REORDER_HORIZON closed bursts (repair) or further back
    # (rebuild).  Forty keys, each written once every eight bursts, let
    # the per-key-monotone flood displace an event past the horizon.
    keys = [f"app/k{i:02d}" for i in range(40)]
    events = _journal_order(
        [
            (burst * 20.0 + position, keys[(burst * 5 + position) % len(keys)], burst)
            for burst in range(24)
            for position in range(5)
        ]
    )
    delivered = flooded_delivery(
        events,
        duplicate_fraction=0.2,
        late_fraction=0.4,
        max_displacement=20,
        rng=rng,
    )
    store = TTKV()
    pipeline = ShardedPipeline(store, window=5.0)
    absorbed = repaired = rebuilds = 0
    try:
        for start in range(0, len(delivered), 7):
            store.record_events(delivered[start : start + 7])
            pipeline.update()
            absorbed += pipeline.last_stats.reorders_absorbed
            repaired += pipeline.last_stats.reorders_repaired
            rebuilds += int(pipeline.last_stats.rebuilt)
        final = _key_sets(pipeline.update())
    finally:
        pipeline.close()
    assert absorbed > 0, "flood never exercised the absorb path"
    assert repaired > 0, "flood never exercised the repair path"
    assert rebuilds > 0, "flood never exercised the rebuild path"
    assert final == _key_sets(cluster_settings(store, window=5.0))
