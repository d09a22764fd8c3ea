"""Scenario runners: built scenarios → fleet / single-machine executions.

:func:`run_fleet_scenario` drives a :class:`~repro.fleet.FleetPipeline`
with the scenario's per-machine feeds, honouring the population's
join/leave schedule via the driver's ``schedule`` hook, and (by default)
gates the run on the fleet model equalling the independent
concatenated-batch reference — the same bit-identical guarantee every
other tier ships with, extended to hostile regimes.

:func:`run_stream_scenario` runs one machine of the scenario through a
single :class:`~repro.core.sharded.ShardedPipeline` incrementally and
gates on incremental ≡ batch.  Both back the CLI's ``--scenario`` flag.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.cluster_model import ClusterSet
from repro.core.sharded import ShardedPipeline
from repro.fleet.merge import concatenated_batch_clusters
from repro.fleet.pipeline import FleetPipeline, FleetRound
from repro.fleet.resilience import (
    POINT_UPDATE_CRASH,
    FaultInjector,
    FaultSpec,
    FleetResilience,
    ResilienceConfig,
    ScheduledFault,
)
from repro.scenarios.build import (
    BuiltMachine,
    BuiltScenario,
    correlated_crash_machines,
    derive_seed,
)
from repro.scenarios.config import CorrelatedFaultsRegime
from repro.ttkv.store import TTKV


class ScenarioGateError(AssertionError):
    """An equality gate failed: the scenario eroded a guarantee."""


def _chunked(events: Sequence, pieces: int) -> list[list]:
    """Split ``events`` into up to ``pieces`` contiguous, non-empty chunks."""
    if not events:
        return []
    pieces = max(1, min(pieces, len(events)))
    size = -(-len(events) // pieces)
    return [
        list(events[offset : offset + size])
        for offset in range(0, len(events), size)
    ]


def _key_sets(cluster_set: ClusterSet) -> list[tuple[str, ...]]:
    return sorted(tuple(cluster.sorted_keys()) for cluster in cluster_set)


def _reference_key_sets(
    machines: Iterable[BuiltMachine],
    stores: dict[str, TTKV],
    config,
) -> list[tuple[str, ...]]:
    machine_events = {}
    machine_prefixes = {}
    for machine in machines:
        machine_events[machine.machine_id] = stores[
            machine.machine_id
        ].write_events()
        machine_prefixes[machine.machine_id] = machine.shard_prefixes
    return sorted(
        tuple(sorted(keys))
        for keys in concatenated_batch_clusters(
            machine_events,
            machine_prefixes,
            window=config.pipeline.window,
            correlation_threshold=config.pipeline.correlation_threshold,
            linkage=config.pipeline.linkage,
        )
    )


@dataclass
class FleetScenarioResult:
    """Outcome of one scenario-driven fleet run."""

    scenario_name: str
    rounds: list[FleetRound]
    clusters: ClusterSet
    machines_final: tuple[str, ...]
    events_fed: int
    events_consumed: int
    #: ``None`` when the gate was skipped, else the verdict (a failed
    #: gate raises :class:`ScenarioGateError` instead of returning).
    equal_to_batch: bool | None
    #: Injected faults / supervised restarts across the drive (0 when
    #: the scenario ran without a resilience bundle).
    faults_injected: int = 0
    machines_restarted: int = 0


def scenario_resilience(built: BuiltScenario) -> FleetResilience | None:
    """The resilience bundle a scenario's regime implies (``None``: none).

    The correlated-faults regime schedules one injected crash per
    covered machine (:func:`~repro.scenarios.build.
    correlated_crash_machines`) in its ``crash_round``, with a
    failure-threshold-1 circuit breaker so every crash exercises the
    full restart-and-retract recovery path.  All decisions derive from
    the scenario seed, so two runs inject byte-identical schedules.
    """
    regime = built.config.regime
    if not isinstance(regime, CorrelatedFaultsRegime):
        return None
    scheduled = tuple(
        ScheduledFault(
            round_index=regime.crash_round,
            machine_id=machine_id,
            point=POINT_UPDATE_CRASH,
        )
        for machine_id in correlated_crash_machines(built)
    )
    spec = FaultSpec(
        seed=derive_seed(built.config.seed, "fault-injector"),
        scheduled=scheduled,
    )
    return FleetResilience(
        injector=FaultInjector(spec),
        config=ResilienceConfig(failure_threshold=1),
    )


def run_fleet_scenario(
    built: BuiltScenario,
    *,
    on_round: Callable[[FleetRound], None] | None = None,
    check_equality: bool = True,
    resilience: FleetResilience | None = None,
) -> FleetScenarioResult:
    """Drive the full fleet scenario; gate against the batch reference.

    Machines join and leave on the population schedule: a group with
    ``join_round`` *n* is attached (and its feed started) when round *n*
    begins; a group with ``leave_round`` *m* is detached — evidence
    retired from the fleet model — once round *m* has completed.  The
    equality gate compares the final fleet model against
    :func:`~repro.fleet.merge.concatenated_batch_clusters` over the
    machines still attached (departed machines' evidence is gone from
    both sides, which is the semantics of ``retire``).

    ``resilience`` defaults to whatever the regime implies
    (:func:`scenario_resilience`) — for the correlated-faults regime the
    drive therefore runs under supervised recovery with the scheduled
    machine crashes injected, and the unchanged equality gate is the
    proof that recovery lost nothing.
    """
    config = built.config
    if resilience is None:
        resilience = scenario_resilience(built)
    stores: dict[str, TTKV] = {}
    feeds_by_machine: dict[str, list[list]] = {}
    for machine in built.machines:
        last_round = (
            machine.leave_round
            if machine.leave_round is not None
            else config.fleet.rounds
        )
        feeds_by_machine[machine.machine_id] = _chunked(
            machine.delivery, last_round - machine.join_round + 1
        )

    fleet = FleetPipeline(
        window=config.pipeline.window,
        correlation_threshold=config.pipeline.correlation_threshold,
        linkage=config.pipeline.linkage,
        max_lag=config.fleet.max_lag,
    )

    def attach(machine: BuiltMachine) -> None:
        store = TTKV()
        stores[machine.machine_id] = store
        fleet.add_machine(machine.machine_id, store, machine.shard_prefixes)

    initial_feeds: dict[str, list[list]] = {}
    for machine in built.machines:
        if machine.join_round == 1:
            attach(machine)
            initial_feeds[machine.machine_id] = feeds_by_machine[
                machine.machine_id
            ]

    # The last round at which the schedule still has something to do.
    last_scheduled = max(
        [machine.join_round for machine in built.machines]
        + [
            machine.leave_round + 1
            for machine in built.machines
            if machine.leave_round is not None
        ]
    )

    def schedule(round_index: int):
        if round_index > last_scheduled:
            return None
        for machine in built.machines:
            if (
                machine.leave_round is not None
                and round_index == machine.leave_round + 1
                and machine.machine_id in fleet.machine_ids
            ):
                fleet.remove_machine(machine.machine_id)
        joins = {}
        for machine in built.machines:
            if machine.join_round == round_index and round_index > 1:
                attach(machine)
                joins[machine.machine_id] = feeds_by_machine[
                    machine.machine_id
                ]
        return joins

    try:
        rounds = asyncio.run(
            fleet.drive(
                initial_feeds,
                on_round=on_round,
                schedule=schedule,
                resilience=resilience,
            )
        )
        clusters = fleet.clusters()
        machines_final = fleet.machine_ids
        equal: bool | None = None
        if check_equality:
            live = [
                machine
                for machine in built.machines
                if machine.machine_id in machines_final
            ]
            equal = _key_sets(clusters) == _reference_key_sets(
                live, stores, config
            )
            if not equal:
                raise ScenarioGateError(
                    f"scenario {config.name!r}: fleet merge diverged from "
                    "the concatenated-batch reference"
                )
    finally:
        fleet.close()

    return FleetScenarioResult(
        scenario_name=config.name,
        rounds=rounds,
        clusters=clusters,
        machines_final=machines_final,
        events_fed=sum(r.events_fed for r in rounds),
        events_consumed=sum(r.events_consumed for r in rounds),
        equal_to_batch=equal,
        faults_injected=sum(r.faults_injected for r in rounds),
        machines_restarted=sum(r.machines_restarted for r in rounds),
    )


@dataclass
class StreamScenarioResult:
    """Outcome of one scenario machine run through a single pipeline."""

    scenario_name: str
    machine_id: str
    events: int
    updates: int
    reorders_absorbed: int
    rebuilds: int
    clusters: ClusterSet
    equal_to_batch: bool | None


def run_stream_scenario(
    built: BuiltScenario,
    machine_id: str | None = None,
    *,
    chunk_events: int = 500,
    check_equality: bool = True,
    on_update: Callable[[int, int], None] | None = None,
) -> StreamScenarioResult:
    """Run one scenario machine incrementally; gate incremental ≡ batch.

    Feeds the machine's *delivery* stream (hostile order, duplicates and
    all) in ``chunk_events`` slices through a
    :class:`~repro.core.sharded.ShardedPipeline`, updating after each
    slice, then compares the final model against the batch reference
    over the store's journal.  ``on_update(events_so_far, clusters)`` is
    called after every update for progress reporting.
    """
    machine = (
        built.machines[0] if machine_id is None else built.machine(machine_id)
    )
    config = built.config
    store = TTKV()
    pipeline = ShardedPipeline(
        store,
        shard_prefixes=machine.shard_prefixes,
        window=config.pipeline.window,
        correlation_threshold=config.pipeline.correlation_threshold,
        linkage=config.pipeline.linkage,
    )
    updates = reorders = rebuilds = fed = 0
    try:
        for chunk in _chunked(
            machine.delivery,
            max(1, -(-len(machine.delivery) // max(1, chunk_events))),
        ):
            store.record_events(chunk)
            fed += len(chunk)
            pipeline.update()
            updates += 1
            stats = pipeline.last_stats
            if stats is not None:
                reorders += stats.reorders_absorbed
                rebuilds += int(stats.rebuilt)
            if on_update is not None:
                clusters = pipeline.cluster_set
                on_update(fed, 0 if clusters is None else len(clusters))
        clusters = pipeline.update()
        equal: bool | None = None
        if check_equality:
            equal = _key_sets(clusters) == _reference_key_sets(
                [machine], {machine.machine_id: store}, config
            )
            if not equal:
                raise ScenarioGateError(
                    f"scenario {config.name!r} machine "
                    f"{machine.machine_id}: incremental clusters diverged "
                    "from the batch reference"
                )
    finally:
        pipeline.close()

    return StreamScenarioResult(
        scenario_name=config.name,
        machine_id=machine.machine_id,
        events=len(machine.delivery),
        updates=updates,
        reorders_absorbed=reorders,
        rebuilds=rebuilds,
        clusters=clusters,
        equal_to_batch=equal,
    )
