"""FleetCorrelationMerge: summed evidence ≡ one concatenated batch run."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.correlation import CorrelationMatrix
from repro.core.sharded import ShardedPipeline
from repro.fleet.merge import FleetCorrelationMerge, concatenated_batch_clusters
from repro.ttkv.store import TTKV

# Per-machine modification streams over app-prefixed key alphabets.  The
# alphabets deliberately overlap across machines: fleet identity is the
# canonical key, so "mail/a" written on two machines is one fleet key.
_KEYS = ("mail/a", "mail/b", "mail/c", "edit/x", "edit/y", "misc")
_PREFIXES = ("mail/", "edit/")

_machine_events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=600, allow_nan=False),
        st.sampled_from(_KEYS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=40,
)

_fleets = st.lists(_machine_events, min_size=1, max_size=3)


def _sorted_events(events):
    return sorted(events, key=lambda event: event[0])


def _machine_counts(events):
    """One machine's evidence snapshot via a real sharded pipeline."""
    store = TTKV.from_events(events) if events else TTKV()
    pipeline = ShardedPipeline(store, _PREFIXES)
    pipeline.update()
    counts = pipeline.pairwise_counts()
    pipeline.close()
    return counts


def _cluster_sets(cluster_set):
    return sorted(tuple(sorted(cluster.keys)) for cluster in cluster_set)


def _reference(machine_events):
    key_sets = concatenated_batch_clusters(
        machine_events,
        {machine_id: _PREFIXES for machine_id in machine_events},
    )
    return sorted(tuple(sorted(keys)) for keys in key_sets)


@given(_fleets)
@settings(max_examples=40, deadline=None)
def test_merge_equals_concatenated_batch(machine_streams):
    """Summing machine snapshots reproduces the one-big-batch clusters."""
    machine_events = {
        f"m{i}": _sorted_events(events)
        for i, events in enumerate(machine_streams)
    }
    merge = FleetCorrelationMerge()
    for machine_id, events in machine_events.items():
        merge.ingest(machine_id, *_machine_counts(events))
    assert _cluster_sets(merge.clusters()) == _reference(machine_events)


@given(_fleets, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_incremental_ingest_equals_one_shot(machine_streams, cuts):
    """Re-ingesting growing prefixes of each stream converges identically.

    Each machine reports its evidence after every prefix of its stream —
    the merge applies only the diffs — and the final model must equal a
    single ingest of the full snapshots.
    """
    machine_events = {
        f"m{i}": _sorted_events(events)
        for i, events in enumerate(machine_streams)
    }
    incremental = FleetCorrelationMerge()
    for machine_id, events in machine_events.items():
        store = TTKV()
        pipeline = ShardedPipeline(store, _PREFIXES)
        step = max(1, -(-len(events) // cuts))
        for start in range(0, max(len(events), 1), step):
            store.record_events(events[start : start + step])
            pipeline.update()
            incremental.ingest(machine_id, *pipeline.pairwise_counts())
            incremental.clusters()  # interleave refreshes with ingests
        pipeline.close()
    one_shot = FleetCorrelationMerge()
    for machine_id, events in machine_events.items():
        one_shot.ingest(machine_id, *_machine_counts(events))
    assert _cluster_sets(incremental.clusters()) == _cluster_sets(
        one_shot.clusters()
    )
    assert _cluster_sets(incremental.clusters()) == _reference(machine_events)


@given(_fleets)
@settings(max_examples=25, deadline=None)
def test_retire_subtracts_a_machine(machine_streams):
    """Ingesting then retiring a machine leaves the others' model."""
    machine_events = {
        f"m{i}": _sorted_events(events)
        for i, events in enumerate(machine_streams)
    }
    merge = FleetCorrelationMerge()
    for machine_id, events in machine_events.items():
        merge.ingest(machine_id, *_machine_counts(events))
    extra = _sorted_events(
        [(t, key, 9) for t, key, _ in machine_events["m0"]][:20]
    )
    merge.ingest("departing", *_machine_counts(extra))
    merge.clusters()
    merge.retire("departing")
    assert "departing" not in merge.machine_ids
    assert _cluster_sets(merge.clusters()) == _reference(machine_events)


def test_reingesting_identical_snapshot_dirties_nothing():
    events = [(0.0, "mail/a", 1), (0.0, "mail/b", 1), (5.0, "edit/x", 2)]
    merge = FleetCorrelationMerge()
    snapshot = _machine_counts(events)
    assert merge.ingest("m0", *snapshot)
    merge.clusters()
    assert merge.ingest("m0", *snapshot) == set()
    stats_before = merge.last_stats
    merge.clusters()
    # nothing dirty: the refresh was the cached model, stats untouched
    assert merge.last_stats is stats_before


def test_clean_components_are_reused_not_reclustered():
    merge = FleetCorrelationMerge()
    merge.ingest(
        "m0", *_machine_counts([(0.0, "mail/a", 1), (0.0, "mail/b", 1)])
    )
    merge.clusters()
    # a second machine touching only the edit app leaves mail clean
    merge.ingest(
        "m1", *_machine_counts([(0.0, "edit/x", 1), (0.0, "edit/y", 1)])
    )
    merge.clusters()
    assert merge.last_stats.components_reused == 1
    assert merge.last_stats.components_reclustered == 1


def test_growth_splices_and_retraction_rebuilds_only_the_dirty_component(
    monkeypatch,
):
    """The merge repairs dirty components through the engines' core.

    Growth-only evidence splices the component's cached dendrogram and
    keeps its clean merges; a retire that zeroes a pair rebuilds the
    dirty component from singletons while a clean component keeps its
    dendrogram object.
    """
    from repro.core import sharded

    spliced, rebuilt = [], []
    real_splice, real_rebuild = sharded.splice_dendrogram, sharded.rebuild_outcome

    def splice(*args, **kwargs):
        outcome = real_splice(*args, **kwargs)
        spliced.append(outcome)
        return outcome

    def rebuild(matrix, component, *args, **kwargs):
        rebuilt.append(component)
        return real_rebuild(matrix, component, *args, **kwargs)

    monkeypatch.setattr(sharded, "splice_dendrogram", splice)
    monkeypatch.setattr(sharded, "rebuild_outcome", rebuild)

    first = [(0.0, "mail/a", 1), (0.0, "mail/b", 1)]
    first += [(0.0, "edit/x", 1), (0.0, "edit/y", 1)]
    second = [(9.0, "mail/a", 2), (9.0, "mail/b", 2), (9.0, "mail/c", 2)]
    machine_events = {"m0": first}
    merge = FleetCorrelationMerge()

    def step(machine_id, events):
        machine_events[machine_id] = events
        merge.ingest(machine_id, *_machine_counts(events))
        assert _cluster_sets(merge.clusters()) == _reference(machine_events)

    step("m0", first)
    step("m0", first + second)  # round two: {a, b, c} is one component
    spliced.clear()
    step("m1", [(0.0, "mail/c", 1), (0.0, "mail/d", 1)])  # growth only
    assert spliced and spliced[0].spliced
    assert spliced[0].merges_reused > 0  # the clean a/b merge survives

    clean = frozenset({"edit/x", "edit/y"})
    kept = merge._model._dendro_cache[clean]
    spliced.clear()
    rebuilt.clear()
    merge.retire("m1")  # c/d reaches zero: a lossy delta
    del machine_events["m1"]
    assert _cluster_sets(merge.clusters()) == _reference(machine_events)
    assert not spliced
    assert rebuilt == [frozenset({"mail/a", "mail/b", "mail/c"})]
    assert merge._model._dendro_cache[clean] is kept


def test_duplicate_keys_on_different_machines_sum():
    """Two machines writing the same canonical keys add evidence."""
    events = [(0.0, "mail/a", 1), (0.0, "mail/b", 1)]
    merge = FleetCorrelationMerge()
    merge.ingest("m0", *_machine_counts(events))
    merge.ingest("m1", *_machine_counts(events))
    counts, common = merge.matrix.pairwise_counts()
    assert counts == {"mail/a": 2, "mail/b": 2}
    assert common == {("mail/a", "mail/b"): 2}
    # correlation stays 2.0 — both machines agree the pair co-writes
    assert merge.matrix.correlation_of("mail/a", "mail/b") == 2.0


def test_retire_unknown_machine_raises():
    with pytest.raises(KeyError, match="no machine 'ghost'"):
        FleetCorrelationMerge().retire("ghost")


def test_threshold_validation():
    with pytest.raises(ValueError, match="correlation threshold"):
        FleetCorrelationMerge(correlation_threshold=0.0)


def test_view_refuses_fleet_mutation():
    merge = FleetCorrelationMerge()
    merge.ingest("m0", *_machine_counts([(0.0, "mail/a", 1)]))
    with pytest.raises(TypeError, match="read-only"):
        merge.matrix.apply_count_deltas({"mail/a": 1}, {})


def test_count_deltas_roundtrip_matches_fresh_matrix():
    """apply_count_deltas rebuilds a matrix equal to the original."""
    events = [
        (0.0, "mail/a", 1),
        (0.0, "mail/b", 1),
        (10.0, "mail/a", 2),
        (10.0, "edit/x", 1),
    ]
    source = ShardedPipeline(TTKV.from_events(events), _PREFIXES)
    source.update()
    counts, common = source.pairwise_counts()
    rebuilt = CorrelationMatrix()
    rebuilt.apply_count_deltas(counts, common)
    assert rebuilt.pairwise_counts() == (counts, common)
    source.close()
