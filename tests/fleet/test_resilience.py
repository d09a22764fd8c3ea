"""Fault injection + supervised recovery: faulted fleets still ≡ batch.

The headline property: drive a fleet under an arbitrary seeded fault
schedule (crashes, hangs, slow rounds, snapshot loss, torn/corrupt
checkpoint writes) and the final fleet cluster model must equal the
concatenated-batch reference — recovery loses nothing.  The same seed
must also reproduce the identical fault sequence byte-for-byte.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sharded import ShardedPipeline
from repro.fleet import FleetPipeline, concatenated_batch_clusters
from repro.fleet.resilience import (
    ACTION_RESTART,
    ACTION_RETRY,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_UNHEALTHY,
    POINT_SNAPSHOT_LOSS,
    POINT_UPDATE_CRASH,
    POINT_UPDATE_HANG,
    FaultInjector,
    FaultSpec,
    FleetResilience,
    MachineSupervisor,
    ResilienceConfig,
    ScheduledFault,
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
    max_size=25,
)

_fault_specs = st.builds(
    FaultSpec,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    crash_rate=st.floats(min_value=0.0, max_value=0.4),
    slow_rate=st.floats(min_value=0.0, max_value=0.3),
    snapshot_loss_rate=st.floats(min_value=0.0, max_value=0.3),
    torn_write_rate=st.floats(min_value=0.0, max_value=0.3),
    corrupt_rate=st.floats(min_value=0.0, max_value=0.3),
    slow_seconds=st.just(0.0),
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


def _faulted_run(machine_events, chunks, spec, *, state_dir=None, config=None):
    """One full drive under ``spec``; returns (fleet clusters, injector)."""
    injector = FaultInjector(spec)
    resilience = FleetResilience(
        injector=injector,
        config=config or ResilienceConfig(),
        state_dir=state_dir,
    )
    fleet = FleetPipeline()
    for machine_id in machine_events:
        fleet.add_machine(machine_id, TTKV(), _PREFIXES)
    feeds = {
        machine_id: _chunked(events, chunks)
        for machine_id, events in machine_events.items()
    }
    rounds = _drive(fleet, feeds, resilience=resilience)
    clusters = _cluster_sets(fleet.clusters())
    fleet.close()
    return clusters, injector, rounds


class TestHeadlineProperty:
    @given(
        machine_streams=st.lists(_machine_events, min_size=1, max_size=3),
        chunks=st.integers(min_value=1, max_value=3),
        spec=_fault_specs,
    )
    @settings(max_examples=25, deadline=None)
    def test_faulted_drive_equals_batch_and_replays_byte_identically(
        self, machine_streams, chunks, spec, tmp_path_factory
    ):
        """Arbitrary seeded fault schedules: clusters ≡ batch, seed replays."""
        machine_events = {
            f"m{i}": sorted(events, key=lambda e: e[0])
            for i, events in enumerate(machine_streams)
        }
        state = tmp_path_factory.mktemp("faulted")
        clusters, injector, _ = _faulted_run(
            machine_events, chunks, spec, state_dir=state
        )
        assert clusters == _reference(machine_events)
        # the identical spec over a fresh run reproduces the identical
        # fault sequence, byte for byte
        replay = tmp_path_factory.mktemp("replay")
        clusters2, injector2, _ = _faulted_run(
            machine_events, chunks, spec, state_dir=replay
        )
        assert clusters2 == clusters
        assert injector2.signature() == injector.signature()

    @pytest.mark.parametrize("profile", [p.name for p in PROFILES])
    def test_profile_fleets_recover_to_batch(self, profile, tmp_path):
        """Every machine profile's real workload survives injected faults."""
        prof = profile_by_name(profile)
        machine_events, machine_prefixes = {}, {}
        fleet = FleetPipeline()
        for index in range(2):
            machine_id = f"m{index}"
            trace = generate_trace(prof, days=1, seed=31 + index)
            machine_events[machine_id] = trace.ttkv.write_events()
            machine_prefixes[machine_id] = tuple(
                app.key_prefix for app in trace.apps.values()
            )
            fleet.add_machine(machine_id, TTKV(), machine_prefixes[machine_id])
        spec = FaultSpec(
            seed=77,
            crash_rate=0.3,
            snapshot_loss_rate=0.2,
            torn_write_rate=0.3,
            corrupt_rate=0.3,
        )
        resilience = FleetResilience(
            injector=FaultInjector(spec), state_dir=tmp_path
        )
        feeds = {
            machine_id: _chunked(events, 4)
            for machine_id, events in machine_events.items()
        }
        rounds = _drive(fleet, feeds, resilience=resilience)
        assert _cluster_sets(fleet.clusters()) == _reference(
            machine_events, machine_prefixes
        )
        assert sum(r.faults_injected for r in rounds) > 0
        fleet.close()


class TestScheduledFaults:
    def _machines(self):
        return {
            "m0": [(1.0, "mail/a", 1), (1.2, "mail/b", 1), (40.0, "edit/x", 2)],
            "m1": [(2.0, "mail/a", 2), (2.3, "mail/c", 1), (50.0, "edit/y", 1)],
        }

    def test_scheduled_crash_restarts_and_retracts(self):
        """An injected crash restarts the machine; the model still ≡ batch."""
        machine_events = self._machines()
        spec = FaultSpec(
            seed=5,
            scheduled=(
                ScheduledFault(round_index=2, machine_id="m0",
                               point=POINT_UPDATE_CRASH),
            ),
        )
        clusters, injector, rounds = _faulted_run(
            machine_events, 3, spec,
            config=ResilienceConfig(failure_threshold=1),
        )
        assert clusters == _reference(machine_events)
        assert injector.faults_fired == 1
        assert sum(r.machines_restarted for r in rounds) >= 1

    def test_circuit_breaker_trips_at_threshold(self):
        """``times=threshold`` holds the machine down until UNHEALTHY."""
        machine_events = self._machines()
        threshold = 3
        spec = FaultSpec(
            seed=6,
            scheduled=(
                ScheduledFault(round_index=1, machine_id="m1",
                               point=POINT_UPDATE_CRASH, times=threshold),
            ),
        )
        injector = FaultInjector(spec)
        resilience = FleetResilience(
            injector=injector,
            config=ResilienceConfig(failure_threshold=threshold),
        )
        fleet = FleetPipeline()
        for machine_id in machine_events:
            fleet.add_machine(machine_id, TTKV(), _PREFIXES)
        feeds = {
            machine_id: _chunked(events, 2)
            for machine_id, events in machine_events.items()
        }
        _drive(fleet, feeds, resilience=resilience)
        report = resilience.supervisor.report("m1")
        assert report["times_unhealthy"] == 1
        assert report["restarts"] >= 1
        # recovery succeeded after the breaker tripped
        assert report["health"] == HEALTH_HEALTHY
        assert _cluster_sets(fleet.clusters()) == _reference(machine_events)
        fleet.close()

    def test_hang_recovered_via_round_timeout(self):
        """A wedged update is abandoned (not cancelled) and restarted."""
        machine_events = self._machines()
        spec = FaultSpec(
            seed=7,
            hang_seconds=1.5,
            scheduled=(
                ScheduledFault(round_index=1, machine_id="m0",
                               point=POINT_UPDATE_HANG),
            ),
        )
        injector = FaultInjector(spec)
        resilience = FleetResilience(
            injector=injector,
            config=ResilienceConfig(round_timeout=0.2, failure_threshold=2),
        )
        fleet = FleetPipeline()
        for machine_id in machine_events:
            fleet.add_machine(machine_id, TTKV(), _PREFIXES)
        feeds = {
            machine_id: _chunked(events, 2)
            for machine_id, events in machine_events.items()
        }
        _drive(fleet, feeds, resilience=resilience)
        report = resilience.supervisor.report("m0")
        assert report["timeouts"] >= 1
        assert report["restarts"] >= 1
        assert _cluster_sets(fleet.clusters()) == _reference(machine_events)
        fleet.close()

    def test_snapshot_loss_restarts_at_round_start(self):
        machine_events = self._machines()
        spec = FaultSpec(
            seed=8,
            scheduled=(
                ScheduledFault(round_index=2, machine_id="m1",
                               point=POINT_SNAPSHOT_LOSS),
            ),
        )
        clusters, injector, rounds = _faulted_run(machine_events, 3, spec)
        assert clusters == _reference(machine_events)
        assert any(
            e.point == POINT_SNAPSHOT_LOSS for e in injector.sequence()
        )
        assert sum(r.machines_restarted for r in rounds) >= 1

    def test_unrecoverable_schedule_raises_instead_of_livelocking(self):
        """A fault held past max_round_attempts surfaces as an error."""
        machine_events = self._machines()
        spec = FaultSpec(
            seed=9,
            scheduled=(
                ScheduledFault(round_index=1, machine_id="m0",
                               point=POINT_UPDATE_CRASH, times=99),
            ),
        )
        injector = FaultInjector(spec)
        resilience = FleetResilience(
            injector=injector,
            config=ResilienceConfig(max_round_attempts=4),
        )
        fleet = FleetPipeline()
        for machine_id in machine_events:
            fleet.add_machine(machine_id, TTKV(), _PREFIXES)
        feeds = {
            machine_id: _chunked(events, 2)
            for machine_id, events in machine_events.items()
        }
        with pytest.raises(RuntimeError, match="m0"):
            _drive(fleet, feeds, resilience=resilience)
        fleet.close()


class TestCheckpointRecovery:
    def test_restart_resumes_from_generation_checkpoint(self, tmp_path):
        """With a state dir, restarts load the last good generation."""
        machine_events = {
            "m0": [(1.0, "mail/a", 1), (30.0, "mail/b", 1), (60.0, "edit/x", 1)],
            "m1": [(2.0, "mail/a", 2), (35.0, "edit/y", 1), (70.0, "mail/c", 1)],
        }
        spec = FaultSpec(
            seed=11,
            scheduled=(
                ScheduledFault(round_index=3, machine_id="m0",
                               point=POINT_UPDATE_CRASH),
            ),
        )
        clusters, _, rounds = _faulted_run(
            machine_events, 4, spec, state_dir=tmp_path,
            config=ResilienceConfig(failure_threshold=1),
        )
        assert clusters == _reference(machine_events)
        assert sum(r.machines_restarted for r in rounds) >= 1
        # generations were written each round and pruned to keep-last-K
        generations = sorted(p.name for p in tmp_path.glob("gen-*"))
        assert generations
        assert len(generations) <= ResilienceConfig().keep_generations
        assert (tmp_path / "fleet.json").exists()

    def test_resumed_fleet_matches_faulted_original(self, tmp_path):
        """A fleet checkpointed under faults resumes to the same model."""
        machine_events = {
            "m0": [(1.0, "mail/a", 1), (30.0, "mail/b", 1)],
            "m1": [(2.0, "mail/a", 2), (40.0, "edit/x", 1)],
        }
        spec = FaultSpec(seed=13, crash_rate=0.25)
        clusters, _, _ = _faulted_run(
            machine_events, 3, spec, state_dir=tmp_path
        )
        stores = {machine_id: TTKV() for machine_id in machine_events}
        for machine_id, store in stores.items():
            store.record_events(machine_events[machine_id])
        resumed = FleetPipeline.from_state_dir(tmp_path, stores)
        assert _cluster_sets(resumed.update()) == clusters
        resumed.close()


    def _restart_with_state(self, state):
        """Restart one machine whose last checkpoint is ``state``."""
        events = [(1.0, "mail/a", 1), (1.2, "mail/b", 1)]
        store = TTKV()
        store.record_events(events)
        fleet = FleetPipeline()
        fleet.add_machine("m0", store, _PREFIXES)
        fleet.update()
        resilience = FleetResilience()
        resilience.load_machine_state = lambda machine_id: state
        return fleet, fleet._restart_machine("m0", resilience, close_old=True)

    def test_restart_over_a_mismatched_checkpoint_starts_fresh(self):
        """A checkpoint of another stream is refused; the machine rebuilds."""
        foreign = TTKV()
        foreign.record_events([(5.0, "edit/x", 9), (5.1, "edit/y", 9)])
        other = ShardedPipeline(foreign, shard_prefixes=_PREFIXES)
        other.update()
        fleet, fresh = self._restart_with_state(other.to_state())
        other.close()
        assert fresh.pending_events == 2  # cursor 0: nothing restored
        assert _cluster_sets(fleet.update()) == _reference(
            {"m0": [(1.0, "mail/a", 1), (1.2, "mail/b", 1)]}
        )
        fleet.close()

    def test_restart_does_not_swallow_other_errors(self, monkeypatch):
        """Only checkpoint errors fall back to a fresh pipeline."""

        def broken(cls, store, state, **overrides):
            raise ValueError("not a checkpoint problem")

        monkeypatch.setattr(ShardedPipeline, "from_state", classmethod(broken))
        with pytest.raises(ValueError, match="not a checkpoint problem"):
            self._restart_with_state({"version": 3})


class TestHealthReporting:
    def test_health_and_machine_status_carry_supervision(self):
        machine_events = {
            "m0": [(1.0, "mail/a", 1), (1.2, "mail/b", 1)],
            "m1": [(2.0, "mail/a", 2), (2.5, "edit/x", 1)],
        }
        spec = FaultSpec(
            seed=15,
            scheduled=(
                ScheduledFault(round_index=1, machine_id="m0",
                               point=POINT_UPDATE_CRASH),
            ),
        )
        injector = FaultInjector(spec)
        resilience = FleetResilience(
            injector=injector,
            config=ResilienceConfig(failure_threshold=1),
        )
        fleet = FleetPipeline()
        for machine_id in machine_events:
            fleet.add_machine(machine_id, TTKV(), _PREFIXES)
        feeds = {
            machine_id: [events]
            for machine_id, events in machine_events.items()
        }
        _drive(fleet, feeds, resilience=resilience)
        health = fleet.health()
        assert health["resilience"]["restarts"] >= 1
        assert health["resilience"]["faults_injected"] == injector.faults_fired
        status = fleet.machine_status("m0")
        assert status["supervision"]["restarts"] >= 1
        assert status["health"] in (
            HEALTH_HEALTHY, HEALTH_DEGRADED, HEALTH_UNHEALTHY
        )
        fleet.close()


class TestSupervisorUnit:
    def test_state_machine_and_breaker(self):
        supervisor = MachineSupervisor(failure_threshold=2)
        assert supervisor.record_failure("m0", "boom") == ACTION_RETRY
        assert supervisor.record("m0").health == HEALTH_DEGRADED
        assert supervisor.record_failure("m0", "boom") == ACTION_RESTART
        assert supervisor.record("m0").health == HEALTH_UNHEALTHY
        supervisor.record_restart("m0")
        assert supervisor.record("m0").health == HEALTH_DEGRADED
        assert supervisor.stale_machines() == ["m0"]
        supervisor.record_success("m0")
        supervisor.mark_synced("m0")
        assert supervisor.record("m0").health == HEALTH_HEALTHY
        assert supervisor.stale_machines() == []
        report = supervisor.fleet_report()
        assert report["status"] == "ok"
        assert report["restarts"] == 1
        assert report["failures"] == 2

    def test_timeout_always_restarts(self):
        supervisor = MachineSupervisor(failure_threshold=5)
        action = supervisor.record_failure("m0", "hang", timeout=True)
        assert action == ACTION_RESTART

    def test_fault_spec_rejects_certain_faults(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultSpec(crash_rate=1.0)
        with pytest.raises(ValueError, match="injection point"):
            ScheduledFault(round_index=1, machine_id="m0", point="meteor")

    def test_injector_decisions_are_pure(self):
        spec = FaultSpec(seed=21, crash_rate=0.5, slow_rate=0.5)
        first = FaultInjector(spec)
        second = FaultInjector(spec)
        for machine_id in ("m0", "m1"):
            for round_index in range(1, 5):
                for attempt in range(3):
                    assert first.decide_update(
                        machine_id, round_index, attempt
                    ) == second.decide_update(machine_id, round_index, attempt)
        assert first.signature() == second.signature()

    def test_legacy_drive_without_resilience_unchanged(self):
        """``resilience=None`` is byte-identical to the old driver path."""
        machine_events = {
            "m0": [(1.0, "mail/a", 1), (1.5, "mail/b", 1)],
        }
        fleet = FleetPipeline()
        fleet.add_machine("m0", TTKV(), _PREFIXES)
        rounds = _drive(fleet, {"m0": [machine_events["m0"]]})
        assert all(r.faults_injected == 0 for r in rounds)
        assert all(r.machines_restarted == 0 for r in rounds)
        assert "resilience" not in fleet.health()
        fleet.close()
