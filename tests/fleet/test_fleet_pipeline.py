"""FleetPipeline: the asyncio driver against the concatenated-batch reference."""

import asyncio

from hypothesis import given, settings, strategies as st

import pytest

from repro.fleet import (
    FleetCorrelationMerge,
    FleetPipeline,
    concatenated_batch_clusters,
)
from repro.ttkv.store import TTKV
from repro.workload.machines import PROFILES, profile_by_name
from repro.workload.tracegen import generate_trace

_KEYS = ("mail/a", "mail/b", "mail/c", "edit/x", "edit/y", "misc")
_PREFIXES = ("mail/", "edit/")

_machine_events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=600, allow_nan=False),
        st.sampled_from(_KEYS),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=30,
)


def _cluster_sets(cluster_set):
    return sorted(tuple(sorted(cluster.keys)) for cluster in cluster_set)


def _reference(machine_events, machine_prefixes=None):
    key_sets = concatenated_batch_clusters(
        machine_events,
        machine_prefixes
        or {machine_id: _PREFIXES for machine_id in machine_events},
    )
    return sorted(tuple(sorted(keys)) for keys in key_sets)


def _chunked(events, chunks):
    size = max(1, -(-len(events) // max(1, chunks)))
    return [events[start : start + size] for start in range(0, len(events), size)]


def _drive(fleet, feeds, **kwargs):
    return asyncio.run(fleet.drive(feeds, **kwargs))


@given(
    st.lists(_machine_events, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_drive_equals_concatenated_batch(machine_streams, chunks):
    """Driving chunked feeds lands on the one-big-batch cluster model."""
    machine_events = {
        f"m{i}": sorted(events, key=lambda e: e[0])
        for i, events in enumerate(machine_streams)
    }
    fleet = FleetPipeline()
    for machine_id in machine_events:
        fleet.add_machine(machine_id, TTKV(), _PREFIXES)
    feeds = {
        machine_id: _chunked(events, chunks)
        for machine_id, events in machine_events.items()
    }

    checked = []

    def from_scratch_merge(report):
        # the incremental merge must equal a fresh merge of every
        # attached machine's current evidence after every round
        fresh = FleetCorrelationMerge()
        for machine_id in fleet.machine_ids:
            fresh.ingest(machine_id, *fleet.machine(machine_id).pairwise_counts())
        assert _cluster_sets(report.clusters) == _cluster_sets(fresh.clusters())
        checked.append(report.index)

    rounds = _drive(fleet, feeds, on_round=from_scratch_merge)
    assert checked == [report.index for report in rounds]
    assert _cluster_sets(fleet.clusters()) == _reference(machine_events)
    fleet.close()


@given(
    _machine_events,
    _machine_events,
    _machine_events,
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_machines_joining_and_leaving_mid_stream(first, second, late, chunks):
    """Members change between drives; the model tracks the live fleet."""
    streams = {
        "m0": sorted(first, key=lambda e: e[0]),
        "m1": sorted(second, key=lambda e: e[0]),
        "late": sorted(late, key=lambda e: e[0]),
    }
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    fleet.add_machine("m1", TTKV(), _PREFIXES)
    half = {
        machine_id: _chunked(streams[machine_id][: len(streams[machine_id]) // 2], chunks)
        for machine_id in ("m0", "m1")
    }
    _drive(fleet, half)
    # late joiner arrives mid-stream; m1 departs with its evidence
    fleet.add_machine("late", TTKV(), _PREFIXES)
    rest = {
        "m0": _chunked(streams["m0"][len(streams["m0"]) // 2 :], chunks),
        "m1": _chunked(streams["m1"][len(streams["m1"]) // 2 :], chunks),
        "late": _chunked(streams["late"], chunks),
    }
    _drive(fleet, rest)
    fleet.remove_machine("m1")
    live = {"m0": streams["m0"], "late": streams["late"]}
    assert _cluster_sets(fleet.update()) == _reference(live)
    fleet.close()


@given(
    _machine_events,
    _machine_events,
    _machine_events,
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_schedule_hook_joins_and_leaves_within_one_drive(
    first, second, late, chunks
):
    """The driver's ``schedule`` hook churns membership inside one drive.

    ``late`` joins at round 2 with its own feed, ``m1`` is removed at
    round 3 (its evidence retired, its remaining buffered feed dropped);
    the final model must equal the batch reference over the machines
    still attached, fed exactly what they delivered.
    """
    streams = {
        "m0": sorted(first, key=lambda e: e[0]),
        "m1": sorted(second, key=lambda e: e[0]),
        "late": sorted(late, key=lambda e: e[0]),
    }
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    fleet.add_machine("m1", TTKV(), _PREFIXES)

    def schedule(round_index):
        if round_index == 2:
            fleet.add_machine("late", TTKV(), _PREFIXES)
            return {"late": _chunked(streams["late"], chunks)}
        if round_index == 3:
            fleet.remove_machine("m1")
            return {}
        if round_index > 3:
            return None
        return {}

    feeds = {
        machine_id: _chunked(streams[machine_id], chunks)
        for machine_id in ("m0", "m1")
    }
    rounds = asyncio.run(fleet.drive(feeds, schedule=schedule))
    live = {"m0": streams["m0"], "late": streams["late"]}
    assert "m1" not in fleet.machine_ids
    assert "late" in fleet.machine_ids
    assert _cluster_sets(fleet.clusters()) == _reference(live)
    # membership totals step with the schedule
    if len(rounds) >= 3:
        assert rounds[1].machines_total == 3
        assert rounds[2].machines_total == 2
    fleet.close()


def _profile_fleet(profile_name, *, machines=2, days=1, max_lag=None):
    """A fleet of same-profile machines with per-machine seeded traces."""
    profile = profile_by_name(profile_name)
    fleet = FleetPipeline(max_lag=max_lag)
    machine_events, machine_prefixes = {}, {}
    for index in range(machines):
        machine_id = f"m{index}"
        trace = generate_trace(profile, days=days, seed=11 + index)
        machine_events[machine_id] = trace.ttkv.write_events()
        machine_prefixes[machine_id] = tuple(
            app.key_prefix for app in trace.apps.values()
        )
        fleet.add_machine(machine_id, TTKV(), machine_prefixes[machine_id])
    return fleet, machine_events, machine_prefixes


@pytest.mark.parametrize("profile", [p.name for p in PROFILES])
def test_profile_fleets_equal_concatenated_batch(profile):
    """Every machine profile's fleet matches the batch reference.

    Two machines run the *same* profile with different seeds, so every
    app prefix exists on both machines — the duplicate-prefix case is
    exercised for each profile's real workload mix.
    """
    fleet, machine_events, machine_prefixes = _profile_fleet(profile)
    feeds = {
        machine_id: _chunked(events, 3)
        for machine_id, events in machine_events.items()
    }
    _drive(fleet, feeds)
    assert _cluster_sets(fleet.clusters()) == _reference(
        machine_events, machine_prefixes
    )
    fleet.close()


def test_backpressure_bounds_per_round_feed():
    fleet, machine_events, _ = _profile_fleet("Linux-1", max_lag=25)
    feeds = {
        machine_id: _chunked(events, 2)
        for machine_id, events in machine_events.items()
    }
    rounds = _drive(fleet, feeds)
    assert all(r.events_fed <= 25 * len(machine_events) for r in rounds)
    # throttled rounds still converge to the reference model
    assert _cluster_sets(fleet.clusters()) == _reference(
        machine_events,
        {m: fleet.machine(m).shard_prefixes for m in machine_events},
    )
    fleet.close()


def test_checkpoint_resume_consumes_nothing_and_matches(tmp_path):
    fleet, machine_events, machine_prefixes = _profile_fleet("Linux-2")
    feeds = {
        machine_id: _chunked(events, 3)
        for machine_id, events in machine_events.items()
    }
    _drive(fleet, feeds)
    before = _cluster_sets(fleet.clusters())
    rounds = fleet.rounds
    fleet.to_state_dir(tmp_path / "state")
    fleet.close()

    stores = {}
    for machine_id, events in machine_events.items():
        store = TTKV()
        store.record_events(events)
        stores[machine_id] = store
    resumed = FleetPipeline.from_state_dir(tmp_path / "state", stores)
    assert resumed.rounds == rounds
    clusters = resumed.update()
    assert resumed.last_stats.events_consumed == 0
    assert _cluster_sets(clusters) == before
    resumed.close()


def test_resume_then_new_events_still_match_reference(tmp_path):
    """A resumed fleet keeps tracking the batch reference as events arrive."""
    fleet, machine_events, machine_prefixes = _profile_fleet("Linux-1")
    half = {
        machine_id: [events[: len(events) // 2]]
        for machine_id, events in machine_events.items()
    }
    _drive(fleet, half)
    fleet.to_state_dir(tmp_path / "state")
    fleet.close()

    stores = {}
    for machine_id, events in machine_events.items():
        store = TTKV()
        store.record_events(events[: len(events) // 2])
        stores[machine_id] = store
    resumed = FleetPipeline.from_state_dir(tmp_path / "state", stores)
    rest = {
        machine_id: [events[len(events) // 2 :]]
        for machine_id, events in machine_events.items()
    }
    _drive(resumed, rest)
    assert _cluster_sets(resumed.clusters()) == _reference(
        machine_events, machine_prefixes
    )
    resumed.close()


def test_duplicate_machine_and_bad_ids_rejected():
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    with pytest.raises(ValueError, match="already attached"):
        fleet.add_machine("m0", TTKV(), _PREFIXES)
    with pytest.raises(ValueError, match="path-safe"):
        fleet.add_machine("../evil", TTKV(), _PREFIXES)
    with pytest.raises(KeyError, match="no machine"):
        fleet.machine("ghost")
    fleet.close()


def test_drive_rejects_feeds_for_unknown_machines():
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    with pytest.raises(KeyError, match="unattached"):
        asyncio.run(fleet.drive({"ghost": [[]]}))
    fleet.close()


def test_max_lag_validation():
    with pytest.raises(ValueError, match="max_lag"):
        FleetPipeline(max_lag=0)


@pytest.mark.parametrize(
    "params,message",
    [
        ({"linkage": "bogus"}, "unknown linkage"),
        ({"window": -1}, "window must be non-negative"),
    ],
)
def test_clustering_params_validated_at_construction(params, message):
    # a bad parameter must fail here, not at the first merge after
    # evidence arrives
    with pytest.raises(ValueError, match=message):
        FleetPipeline(**params)
