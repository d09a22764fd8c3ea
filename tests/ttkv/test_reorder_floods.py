"""Reorder buffer under duplicate/late-event floods (property suite).

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
- the engines' ``reorders_absorbed``/``rebuilt`` accounting stays
  *exact*: each update's stats are predicted beforehand from the
  journal's ``reorder_depth`` and the extractor's provisional state —
  the absorb-vs-rebuild decision rule itself — not merely summed.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.scenarios.regimes import flooded_delivery, skew_timestamps
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


@given(_streams, _flood_params, st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_reorder_accounting_is_exact(stream, params, chunks):
    """Each update's absorbed/rebuilt stats match the decision-rule oracle.

    Before every update the expected outcome is derived from first
    principles: ``reorder_depth`` says how far re-delivery reaches into
    the consumed prefix, and the absorb rule (rewind fits inside the
    provisional trailing group, or swallows exactly the whole pending
    buffer before any group has closed) picks absorb vs rebuild.
    """
    delivered = _flood(_journal_order(stream), params)
    store = TTKV()
    pipeline = ShardedPipeline(store)
    (engine,) = pipeline._engines.values()
    size = max(1, -(-len(delivered) // chunks))
    try:
        for start in range(0, len(delivered), size):
            store.record_events(delivered[start : start + size])
            cursor = engine._cursor
            rewound = (
                0 if cursor is None else engine.journal.reorder_depth(cursor)
            )
            pending = len(engine._extractor.pending_events)
            closed = engine._closed_count
            if rewound == 0:
                expect_absorbed, expect_rebuilt = 0, False
            elif rewound < pending or (rewound == pending and closed == 0):
                expect_absorbed, expect_rebuilt = rewound, False
            else:
                expect_absorbed, expect_rebuilt = 0, True
            pipeline.update()
            stats = pipeline.last_stats
            assert stats.reorders_absorbed == expect_absorbed
            assert stats.rebuilt == expect_rebuilt
    finally:
        pipeline.close()


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
    """A deterministic flood hits both the absorb and the rebuild paths."""
    rng = random.Random(20140623)
    # bursts of five 1s-apart events, 20s between bursts: with window 5
    # each burst is one write group that closes at the next burst, so a
    # displaced event lands either in the open trailing burst (absorb)
    # or across the boundary into a closed one (rebuild) — the example
    # must walk both paths
    events = _journal_order(
        [
            (burst * 20.0 + position, _KEYS[(burst + position) % len(_KEYS)], burst)
            for burst in range(24)
            for position in range(5)
        ]
    )
    delivered = flooded_delivery(
        events,
        duplicate_fraction=0.2,
        late_fraction=0.4,
        max_displacement=10,
        rng=rng,
    )
    store = TTKV()
    pipeline = ShardedPipeline(store, window=5.0)
    absorbed = rebuilds = 0
    try:
        for start in range(0, len(delivered), 7):
            store.record_events(delivered[start : start + 7])
            pipeline.update()
            absorbed += pipeline.last_stats.reorders_absorbed
            rebuilds += int(pipeline.last_stats.rebuilt)
        final = _key_sets(pipeline.update())
    finally:
        pipeline.close()
    assert absorbed > 0, "flood never exercised the absorb path"
    assert rebuilds > 0, "flood never exercised the rebuild path"
    assert final == _key_sets(cluster_settings(store, window=5.0))
