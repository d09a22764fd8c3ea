"""A fleet round touches only the machines that changed.

The driver reads each machine's O(1) ``needs_update()`` flag and refreshes
status only for the machines a round updated, attached or restarted.  The
reference drive restores the old polling: ``needs_update`` is the
O(shards) definition, and every machine's status is rebuilt after every
round.  Both drives must report the same rounds and the same status for
every machine, round by round.
"""

import asyncio

import pytest

from repro.core.sharded import ShardedPipeline
from repro.fleet import FleetPipeline, concatenated_batch_clusters
from repro.fleet.resilience import (
    POINT_SNAPSHOT_LOSS,
    POINT_UPDATE_CRASH,
    POINT_UPDATE_HANG,
    FaultInjector,
    FaultSpec,
    FleetResilience,
    ResilienceConfig,
    ScheduledFault,
)
from repro.ttkv.store import TTKV

_PREFIXES = ("mail/", "edit/")
_KEYS = ("mail/a", "mail/b", "mail/c", "edit/x", "edit/y", "misc")


def _polled_needs_update(pipeline):
    """The O(shards) definition of staleness the flag replaced."""
    if pipeline._params() != pipeline._active_params:
        return True
    return any(
        not engine.ready or engine.needs_update()
        for engine in pipeline._engines.values()
    )


def _events(seed, count=24):
    """A deterministic per-machine stream: bursts that group, gaps that split."""
    events = []
    t = float(seed)
    for index in range(count):
        t += 0.4 if index % 3 else 120.0 + 7 * seed
        events.append((t, _KEYS[(seed + index * (seed + 1)) % len(_KEYS)], index))
    return events


def _chunked(events, chunks):
    size = max(1, -(-len(events) // max(1, chunks)))
    return [events[start : start + size] for start in range(0, len(events), size)]


def _round_record(fleet, report):
    return (
        report.index,
        report.events_fed,
        report.events_consumed,
        report.machines_updated,
        report.machines_total,
        sorted(sorted(cluster.keys) for cluster in report.clusters),
        report.faults_injected,
        report.machines_restarted,
        {m: fleet.machine_status(m) for m in fleet.machine_ids},
    )


def _run(build, monkeypatch, *, reference):
    """Drive the fleet ``build`` returns; one record per round."""
    fleet, feeds, kwargs = build()
    records = []

    def on_round(report):
        if reference:
            for machine_id in fleet.machine_ids:
                fleet._refresh_status(machine_id)
        records.append(_round_record(fleet, report))

    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(ShardedPipeline, "needs_update", _polled_needs_update)
        asyncio.run(fleet.drive(feeds, on_round=on_round, **kwargs))
    final = sorted(sorted(cluster.keys) for cluster in fleet.clusters())
    fleet.close()
    return records, final


def _churn():
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    fleet.add_machine("m1", TTKV(), _PREFIXES)
    fleet.add_machine("quiet", TTKV(), _PREFIXES)

    def schedule(round_index):
        if round_index == 2:
            fleet.add_machine("late", TTKV(), _PREFIXES)
            return {"late": _chunked(_events(3), 3)}
        if round_index == 4:
            fleet.remove_machine("m1")
            return {}
        return None if round_index > 5 else {}

    feeds = {
        "m0": _chunked(_events(0), 6),
        "m1": _chunked(_events(1), 6),
        # one early chunk, then silence: untouched for the rest of the drive
        "quiet": [_events(2, count=4)],
    }
    return fleet, feeds, {"schedule": schedule}


def _throttled():
    fleet = FleetPipeline(max_lag=5)
    for machine_id in ("m0", "m1", "m2"):
        fleet.add_machine(machine_id, TTKV(), _PREFIXES)
    # retuned to drop unrouted keys: its "misc" events reach no shard
    fleet.machine("m2").catch_all = False
    feeds = {
        "m0": _chunked(_events(0, count=30), 2),
        "m1": _chunked(_events(1, count=12), 4),
        "m2": [[(t, "misc", v) for t, _, v in _events(2, count=6)]]
        + [[(t + 1000.0, k, v) for t, k, v in _events(5, count=6)]],
    }
    return fleet, feeds, {}


def _faulted():
    spec = FaultSpec(
        seed=17,
        hang_seconds=0.3,
        scheduled=(
            ScheduledFault(round_index=2, machine_id="m0", point=POINT_UPDATE_CRASH),
            ScheduledFault(round_index=3, machine_id="m1", point=POINT_UPDATE_HANG),
            ScheduledFault(round_index=4, machine_id="m2", point=POINT_SNAPSHOT_LOSS),
        ),
    )
    resilience = FleetResilience(
        injector=FaultInjector(spec),
        config=ResilienceConfig(
            round_timeout=0.1, failure_threshold=1, backoff_base=0.0
        ),
    )
    fleet = FleetPipeline()
    for machine_id in ("m0", "m1", "m2", "m3"):
        fleet.add_machine(machine_id, TTKV(), _PREFIXES)
    feeds = {
        machine_id: _chunked(_events(seed), 6)
        for seed, machine_id in enumerate(("m0", "m1", "m2"))
    }
    feeds["m3"] = [_events(3, count=3)]  # quiet after round 1
    return fleet, feeds, {"resilience": resilience}


@pytest.mark.parametrize("build", (_churn, _throttled, _faulted))
def test_rounds_and_status_match_polling_every_machine(build, monkeypatch):
    records, final = _run(build, monkeypatch, reference=False)
    expected, expected_final = _run(build, monkeypatch, reference=True)
    assert len(records) == len(expected) > 3
    for got, want in zip(records, expected):
        assert got == want
    assert final == expected_final
    # the drives really skipped machines: some round updated fewer than all
    assert any(record[3] < record[4] for record in records)


def test_faulted_drive_reports_the_faults():
    fleet, feeds, kwargs = _faulted()
    rounds = asyncio.run(fleet.drive(feeds, **kwargs))
    supervisor = kwargs["resilience"].supervisor
    assert sum(r.faults_injected for r in rounds) == 3
    assert supervisor.report("m1")["timeouts"] == 1
    assert sum(r.machines_restarted for r in rounds) >= 3
    assert fleet.machine_status("m1")["supervision"]["timeouts"] == 1
    fleet.close()


def test_unsupervised_update_failure_propagates_and_recovers():
    """An update raising inside the round's one executor call.

    It propagates out of the drive; the failing machine still reads
    stale, the machine updated before it in the same call is swept again,
    a synchronous ``update()`` failing the same way leaves the same sweep
    behind, and the next one converges to the batch reference.
    """
    machine_events = {m: _events(seed) for seed, m in enumerate(("m0", "m1", "m2"))}
    fleet = FleetPipeline()
    for machine_id in machine_events:
        fleet.add_machine(machine_id, TTKV(), _PREFIXES)
    failing = fleet.machine("m1")
    calls = []

    def update_that_fails_in_round_two():
        calls.append(None)
        if len(calls) in (2, 3):
            raise RuntimeError("m1 update failed")
        return ShardedPipeline.update(failing)

    failing.update = update_that_fails_in_round_two
    feeds = {m: _chunked(events, 4) for m, events in machine_events.items()}
    with pytest.raises(RuntimeError, match="m1 update failed"):
        asyncio.run(fleet.drive(feeds))
    assert fleet.rounds == 1
    assert failing.needs_update() is True
    assert fleet.machine("m2").needs_update() is True  # not reached
    # m0 updated in the failed call, but its evidence never reached the merge
    assert fleet.machine("m0").needs_update() is False
    with pytest.raises(RuntimeError, match="m1 update failed"):
        fleet.update()
    fleet.update()
    # m0's evidence is ingested although its own update had nothing to do
    assert fleet.last_stats.machines_updated == 3
    fed = {m: fleet.machine(m).store.write_events() for m in machine_events}
    assert sorted(sorted(c.keys) for c in fleet.clusters()) == sorted(
        sorted(keys)
        for keys in concatenated_batch_clusters(
            fed, {m: _PREFIXES for m in machine_events}
        )
    )
    assert all(not fleet.machine(m).needs_update() for m in machine_events)
    fleet.close()
