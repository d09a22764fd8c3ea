"""FleetPipeline: many machines' sharded pipelines behind one asyncio driver.

One :class:`~repro.core.sharded.ShardedPipeline` per machine, one
:class:`~repro.fleet.merge.FleetCorrelationMerge` summing their evidence.
The synchronous :meth:`FleetPipeline.update` sweeps the fleet once in the
calling thread; the asyncio :meth:`FleetPipeline.drive` runs the full
ingest loop — feed each machine's next slice of events (the logging I/O),
update every machine whose journal advanced (CPU work, pushed onto the
event loop's default thread pool so queries stay responsive; each
machine walks its own shards serially), merge the changed machines'
evidence, and repeat.

Determinism: rounds are barriers.  Every machine's feed for a round is
appended before any update starts, all updates finish before the merge,
and the merge runs on the event-loop thread — so the per-round event
counts, cluster models and progress lines are byte-identical however
the machine updates interleave on the pool.

Backpressure: ``max_lag`` bounds how many journaled-but-unconsumed
events a machine may accumulate.  The feed stage stops pulling from a
machine's chunk iterator once its backlog would exceed the bound; the
leftover events are buffered and drain over subsequent rounds, so a slow
machine throttles its own feed instead of growing without bound.

Checkpoints are crash-safe generations
(:class:`~repro.fleet.checkpointing.FleetCheckpointStore`):
:meth:`to_state_dir` writes one ``machine-<id>.json`` per machine (its
full :meth:`~repro.core.sharded.ShardedPipeline.to_state`) into a new
``gen-<n>/`` directory — every file atomic (tmp+fsync+rename), SHA-256
checksums in the manifest, the root ``fleet.json`` committed last —
and :meth:`from_state_dir` restores from the newest verifiable
generation, quarantining damaged ones.

Resilience: :meth:`drive` optionally takes a
:class:`~repro.fleet.resilience.FleetResilience` bundle — a seeded
:class:`~repro.fleet.resilience.FaultInjector` plus supervision policy.
Each machine's update then runs under a per-attempt timeout with
bounded, deterministically backed-off retries; a circuit breaker
restarts the machine from its last good checkpoint after N consecutive
failures, and the restart immediately re-ingests the restored snapshot
so the merge *retracts* whatever evidence the machine lost — fleet
clusters stay ≡ the concatenated batch reference at every round.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.cluster_model import ClusterSet
from repro.core.clustering import LINKAGE_COMPLETE
from repro.core.pipeline import DEFAULT_CORRELATION_THRESHOLD, DEFAULT_WINDOW
from repro.core.sharded import ShardedPipeline
from repro.exceptions import CheckpointError, CorruptCheckpointError
from repro.fleet.checkpointing import (
    DEFAULT_KEEP_GENERATIONS,
    FleetCheckpointStore,
    load_json_checkpoint,
)
from repro.fleet.merge import FleetCorrelationMerge, MergeStats
from repro.fleet.resilience import (
    ACTION_RESTART,
    CRASH_AFTER,
    CRASH_BEFORE,
    FleetResilience,
    InjectedCrash,
    InjectedFault,
    UpdatePlan,
)
from repro.ttkv.store import TTKV

#: Fleet manifest format; version 4 dropped the kernel that version 3
#: recorded in its params (machine checkpoints are sharded version 5).
STATE_VERSION = 4
SUPPORTED_STATE_VERSIONS = (4,)

#: Machine ids become checkpoint file names, so keep them path-safe.
_MACHINE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_state_version(manifest: dict) -> None:
    version = manifest.get("version")
    if version not in SUPPORTED_STATE_VERSIONS:
        raise CheckpointError(
            f"unsupported fleet state version {version!r} "
            f"(expected one of {SUPPORTED_STATE_VERSIONS})"
        )


@dataclass(frozen=True)
class FleetUpdateStats:
    """What one synchronous :meth:`FleetPipeline.update` sweep did."""

    events_consumed: int
    machines_updated: int
    machines_total: int
    merge: MergeStats | None


@dataclass(frozen=True)
class FleetRound:
    """One round of the asyncio driver (passed to ``on_round``)."""

    index: int
    events_fed: int
    events_consumed: int
    machines_updated: int
    machines_total: int
    clusters: ClusterSet
    merge: MergeStats | None
    #: Faults the injector fired during this round (0 without resilience).
    faults_injected: int = 0
    #: Machine restarts the supervisor performed during this round.
    machines_restarted: int = 0


class FleetPipeline:
    """A fleet of per-machine pipelines plus the fleet-level merge.

    Parameters mirror the per-machine pipelines (``window``,
    ``correlation_threshold``, ``linkage``) and apply to every machine;
    they are validated at construction, by the fleet merge.  ``max_lag``
    is the per-machine backpressure bound used by :meth:`drive`
    (``None``: unbounded).
    """

    def __init__(
        self,
        *,
        window: float = DEFAULT_WINDOW,
        correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
        linkage: str = LINKAGE_COMPLETE,
        max_lag: int | None = None,
    ) -> None:
        if max_lag is not None and max_lag < 1:
            raise ValueError(f"max_lag must be at least 1, got {max_lag}")
        self.window = window
        self.correlation_threshold = correlation_threshold
        self.linkage = linkage
        self.max_lag = max_lag
        self._machines: dict[str, ShardedPipeline] = {}
        self._merge = FleetCorrelationMerge(
            window=window,
            correlation_threshold=correlation_threshold,
            linkage=linkage,
        )
        self._status: dict[str, dict] = {}
        self._rounds = 0
        self.last_stats: FleetUpdateStats | None = None
        #: The resilience bundle of the last/current :meth:`drive` run —
        #: kept so health queries keep answering after the drive ends.
        self._resilience: FleetResilience | None = None
        #: Machines restarted since the last merge: swept even when their
        #: journal is quiet, so the merge re-syncs to their restored state.
        self._forced_sweeps: set[str] = set()

    # -- membership ----------------------------------------------------------

    @property
    def machine_ids(self) -> tuple[str, ...]:
        return tuple(self._machines)

    @property
    def rounds(self) -> int:
        """Completed driver rounds (survives checkpoints)."""
        return self._rounds

    def machine(self, machine_id: str) -> ShardedPipeline:
        try:
            return self._machines[machine_id]
        except KeyError:
            raise KeyError(
                f"no machine {machine_id!r}; machines: {list(self._machines)}"
            ) from None

    def add_machine(
        self,
        machine_id: str,
        store: TTKV,
        shard_prefixes: Sequence[str] = (),
    ) -> ShardedPipeline:
        """Attach a machine's store; its evidence joins the next update."""
        if not _MACHINE_ID.match(machine_id):
            raise ValueError(
                f"machine id {machine_id!r} is not path-safe "
                "(letters, digits, dot, underscore, dash)"
            )
        if machine_id in self._machines:
            raise ValueError(f"machine {machine_id!r} already attached")
        pipeline = ShardedPipeline(
            store,
            shard_prefixes=tuple(shard_prefixes),
            window=self.window,
            correlation_threshold=self.correlation_threshold,
            linkage=self.linkage,
        )
        self._machines[machine_id] = pipeline
        self._refresh_status(machine_id)
        return pipeline

    def remove_machine(self, machine_id: str) -> None:
        """Detach a machine and subtract its evidence from the fleet model."""
        pipeline = self.machine(machine_id)
        pipeline.close()
        del self._machines[machine_id]
        self._status.pop(machine_id, None)
        self._forced_sweeps.discard(machine_id)
        if self._resilience is not None:
            self._resilience.supervisor.forget(machine_id)
        if machine_id in self._merge.machine_ids:
            self._merge.retire(machine_id)

    def close(self) -> None:
        """Detach every machine."""
        for pipeline in self._machines.values():
            pipeline.close()

    # -- querying ------------------------------------------------------------

    @property
    def cluster_set(self) -> ClusterSet | None:
        """The last merged fleet cluster model, without recomputing."""
        return self._merge.last_clusters

    def clusters(self) -> ClusterSet:
        """The fleet cluster model, refreshing dirty components."""
        return self._merge.clusters()

    def machine_status(self, machine_id: str) -> dict | None:
        """The machine's last status snapshot (``None``: unknown machine).

        Snapshots are (re)written on the driver thread after each round,
        so readers on the event loop never race an in-flight update.
        """
        return self._status.get(machine_id)

    def health(self) -> dict:
        """Fleet-level liveness summary for the query API.

        Without resilience the status is always ``"ok"``.  Under a
        supervised drive the status reflects the worst machine health
        (``ok``/``degraded``/``unhealthy``) and a ``resilience`` section
        carries the health counts, total restarts/failures, the
        stale-evidence machine list and the injected-fault count.
        """
        clusters = self._merge.last_clusters
        payload = {
            "status": "ok",
            "machines": len(self._machines),
            "rounds": self._rounds,
            "fleet_keys": len(self._merge.matrix),
            "clusters": None if clusters is None else len(clusters),
        }
        if self._resilience is not None:
            report = self._resilience.supervisor.fleet_report()
            payload["status"] = report["status"]
            if self._resilience.injector is not None:
                report["faults_injected"] = self._resilience.injector.faults_fired
            payload["resilience"] = report
        return payload

    def machines_payload(self) -> dict:
        """JSON-safe body for ``GET /machines`` (ids + health at a glance)."""
        machines = []
        for machine_id in self._machines:
            status = self._status.get(machine_id, {})
            machines.append(
                {
                    "machine": machine_id,
                    "health": status.get("health", "HEALTHY"),
                    "clusters": status.get("clusters"),
                }
            )
        return {"machines": machines, "count": len(machines)}

    def clusters_payload(self) -> dict:
        """JSON-safe body for ``GET /clusters`` (last coherent model)."""
        clusters = self._merge.last_clusters
        return {
            "machines": len(self._machines),
            "rounds": self._rounds,
            "count": 0 if clusters is None else len(clusters),
            "multi": 0 if clusters is None else len(clusters.multi_clusters()),
            "clusters": (
                []
                if clusters is None
                else [cluster.sorted_keys() for cluster in clusters]
            ),
        }

    def _refresh_status(self, machine_id: str) -> None:
        pipeline = self._machines[machine_id]
        clusters = pipeline.cluster_set
        stats = pipeline.last_stats
        status = {
            "machine": machine_id,
            "shards": len(pipeline.shard_ids),
            "pending_events": pipeline.pending_events,
            "needs_update": pipeline.needs_update(),
            "clusters": None if clusters is None else len(clusters),
            "events_consumed": None if stats is None else stats.events_consumed,
        }
        if self._resilience is not None:
            report = self._resilience.supervisor.report(machine_id)
            if report is not None:
                status["health"] = report["health"]
                status["supervision"] = report
        self._status[machine_id] = status

    # -- updating ------------------------------------------------------------

    def _sweep(self) -> tuple[int, int]:
        """Update machines that need it; ingest their evidence.

        Returns ``(events_consumed, machines_updated)``.  A machine not
        yet represented in the merge (fresh attach, or a resume — the
        merge rebuilds from live snapshots rather than being
        checkpointed) is swept even if its journal is quiet, so its
        evidence always reaches the fleet model.
        """
        consumed = updated = 0
        merged = set(self._merge.machine_ids)
        for machine_id, pipeline in self._machines.items():
            if pipeline.needs_update() or machine_id not in merged:
                pipeline.update()
                consumed += pipeline.last_stats.events_consumed
                updated += 1
                self._merge.ingest(machine_id, *pipeline.pairwise_counts())
            self._refresh_status(machine_id)
        return consumed, updated

    def update(self) -> ClusterSet:
        """One synchronous fleet sweep; returns the merged cluster model."""
        consumed, updated = self._sweep()
        clusters = self._merge.clusters()
        self.last_stats = FleetUpdateStats(
            events_consumed=consumed,
            machines_updated=updated,
            machines_total=len(self._machines),
            merge=self._merge.last_stats,
        )
        return clusters

    # -- supervised recovery -------------------------------------------------

    @staticmethod
    def _planned_update(pipeline: ShardedPipeline, plan: UpdatePlan | None):
        """The callable one update attempt runs on the pool thread."""
        if plan is None or (
            plan.slow_seconds == 0.0
            and plan.hang_seconds == 0.0
            and plan.crash is None
        ):
            return pipeline.update

        def attempt() -> None:
            if plan.slow_seconds:
                time.sleep(plan.slow_seconds)
            if plan.crash == CRASH_BEFORE:
                raise InjectedCrash("injected crash before update")
            if plan.hang_seconds:
                time.sleep(plan.hang_seconds)
            pipeline.update()
            if plan.crash == CRASH_AFTER:
                raise InjectedCrash("injected crash after update")

        return attempt

    def _restart_machine(
        self,
        machine_id: str,
        resilience: FleetResilience,
        *,
        close_old: bool,
    ) -> ShardedPipeline:
        """Replace a machine's pipeline from its last good checkpoint.

        Falls back to a from-scratch pipeline (cursor 0 — the store's
        journal survives the crash, so re-reading it converges to the
        same evidence) when no verifiable checkpoint exists.  The
        restored snapshot is re-ingested immediately, so the merge
        *retracts* (via ``apply_count_deltas``) whatever evidence the
        restart lost; the machine's next successful update then catches
        it back up.  ``close_old=False`` is for timeouts: the wedged
        update thread cannot be cancelled, so the orphaned pipeline is
        abandoned un-closed rather than racing its in-flight update.
        """
        old = self._machines[machine_id]
        if close_old:
            old.close()
        fresh: ShardedPipeline | None = None
        state = resilience.load_machine_state(machine_id)
        if state is not None:
            try:
                fresh = ShardedPipeline.from_state(old.store, state)
            except CheckpointError:
                fresh = None  # damaged/incompatible: rebuild from scratch
        if fresh is None:
            fresh = ShardedPipeline(
                old.store,
                shard_prefixes=old.shard_prefixes,
                window=old.window,
                correlation_threshold=old.correlation_threshold,
                linkage=old.linkage,
                key_filter=old.key_filter,
                grouping=old.grouping,
                catch_all=old.catch_all,
            )
        self._machines[machine_id] = fresh
        self._forced_sweeps.add(machine_id)
        resilience.supervisor.record_restart(machine_id)
        if machine_id in self._merge.machine_ids:
            # the retraction: evidence drops back to the restored snapshot
            self._merge.ingest(machine_id, *fresh.pairwise_counts())
        self._refresh_status(machine_id)
        return fresh

    async def _supervised_update(
        self,
        machine_id: str,
        resilience: FleetResilience,
        round_index: int,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """One machine's update under timeout/retry/circuit-breaker rules."""
        config = resilience.config
        supervisor = resilience.supervisor
        attempt = 0
        while True:
            pipeline = self._machines[machine_id]
            plan = (
                resilience.injector.decide_update(
                    machine_id, round_index, attempt
                )
                if resilience.injector is not None
                else None
            )
            call = self._planned_update(pipeline, plan)
            try:
                if config.round_timeout is not None:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, call), config.round_timeout
                    )
                else:
                    await loop.run_in_executor(None, call)
            except asyncio.TimeoutError:
                # the wedged thread cannot be cancelled: always abandon
                # the pipeline object and restart from the checkpoint
                supervisor.record_failure(machine_id, "timeout", timeout=True)
                self._restart_machine(machine_id, resilience, close_old=False)
            except InjectedFault as fault:
                action = supervisor.record_failure(machine_id, str(fault))
                if action == ACTION_RESTART:
                    self._restart_machine(
                        machine_id, resilience, close_old=True
                    )
            except Exception as error:  # real failures, same supervision
                action = supervisor.record_failure(
                    machine_id, f"{type(error).__name__}: {error}"
                )
                if action == ACTION_RESTART:
                    self._restart_machine(
                        machine_id, resilience, close_old=True
                    )
            else:
                supervisor.record_success(machine_id)
                return
            attempt += 1
            if attempt >= config.max_round_attempts:
                raise RuntimeError(
                    f"machine {machine_id!r} could not complete round "
                    f"{round_index} after {attempt} attempts (last fault: "
                    f"{supervisor.record(machine_id).last_fault})"
                )
            await asyncio.sleep(config.backoff_seconds(attempt))

    async def drive(
        self,
        feeds: Mapping[str, Iterable[Sequence[tuple]]],
        *,
        on_round: Callable[[FleetRound], None] | None = None,
        schedule: Callable[
            [int], Mapping[str, Iterable[Sequence[tuple]]] | None
        ] | None = None,
        resilience: FleetResilience | None = None,
    ) -> list[FleetRound]:
        """Drive the fleet until every feed is exhausted.

        ``feeds`` maps machine ids to iterables of event chunks (each a
        sequence of ``(timestamp, key, value)`` modification events for
        that machine's store).  Per round: append each machine's next
        slice — throttled to ``max_lag`` un-consumed events per machine —
        then update every machine whose journal advanced concurrently on
        the event loop's executor, then merge on the loop thread.
        ``on_round`` (and the returned list) observe every round.

        ``schedule`` models fleet churn: it is called on the loop thread
        at the start of each round with the upcoming round index and may
        mutate membership — :meth:`add_machine` for arrivals (returning
        their feeds, merged into the drive) and :meth:`remove_machine`
        for departures (their remaining buffered feed is dropped, their
        evidence retired).  Returning ``None`` retires the hook: the
        drive then ends once the remaining feeds drain.

        ``resilience`` turns on supervised recovery (and, when its
        bundle carries a :class:`~repro.fleet.resilience.FaultInjector`,
        deterministic fault injection): every machine update runs under
        the configured per-attempt timeout with bounded deterministic
        backoff; timeouts and circuit-breaker trips restart the machine
        from its last good checkpoint generation; snapshot-loss faults
        reboot machines at round start; and a crash-safe checkpoint
        generation is written every ``checkpoint_every`` rounds when the
        bundle has a state dir.  Without it the drive is byte-identical
        to earlier releases.
        """
        unknown = set(feeds) - set(self._machines)
        if unknown:
            raise KeyError(
                f"feeds for unattached machine(s) {sorted(unknown)}; "
                f"machines: {list(self._machines)}"
            )
        if resilience is not None:
            self._resilience = resilience
        loop = asyncio.get_running_loop()
        iterators: dict[str, Iterator] = {
            machine_id: iter(chunks) for machine_id, chunks in feeds.items()
        }
        buffers: dict[str, list] = {machine_id: [] for machine_id in feeds}

        def refill(machine_id: str, buffer: list) -> None:
            """Pull chunks until the buffer is non-empty or the feed ends."""
            while not buffer and machine_id in iterators:
                chunk = next(iterators[machine_id], None)
                if chunk is None:
                    del iterators[machine_id]
                else:
                    buffer.extend(chunk)

        rounds: list[FleetRound] = []
        while schedule is not None or iterators or any(buffers.values()):
            if schedule is not None:
                arrivals = schedule(self._rounds + 1)
                if arrivals is None:
                    schedule = None
                    if not iterators and not any(buffers.values()):
                        break  # nothing left to feed: no trailing no-op round
                else:
                    late = set(arrivals) - set(self._machines)
                    if late:
                        raise KeyError(
                            f"scheduled feeds for unattached machine(s) "
                            f"{sorted(late)}; machines: {list(self._machines)}"
                        )
                    for machine_id, chunks in arrivals.items():
                        iterators[machine_id] = iter(chunks)
                        buffers.setdefault(machine_id, [])
            faults_before = restarts_before = 0
            if resilience is not None:
                if resilience.injector is not None:
                    faults_before = resilience.injector.faults_fired
                restarts_before = resilience.supervisor.fleet_report()[
                    "restarts"
                ]
                # snapshot loss: the machine reboots at round start, its
                # in-memory state gone; restart it from the checkpoint
                if resilience.injector is not None:
                    for machine_id in list(self._machines):
                        if resilience.injector.decide_snapshot_loss(
                            machine_id, self._rounds + 1
                        ):
                            self._restart_machine(
                                machine_id, resilience, close_old=True
                            )
            fed = 0
            for machine_id in list(buffers):
                if machine_id not in self._machines:
                    # removed mid-drive: drop its remaining feed
                    buffers.pop(machine_id)
                    iterators.pop(machine_id, None)
                    continue
                buffer = buffers[machine_id]
                refill(machine_id, buffer)
                if not buffer:
                    buffers.pop(machine_id)
                    continue
                pipeline = self._machines[machine_id]
                if self.max_lag is None:
                    take = len(buffer)
                else:
                    take = min(
                        len(buffer),
                        max(0, self.max_lag - pipeline.pending_events),
                    )
                if take:
                    # the logging I/O: journal appends interleave with
                    # any in-flight query handlers at this await point
                    pipeline.store.record_events(buffer[:take])
                    del buffer[:take]
                    fed += take
                await asyncio.sleep(0)
                # eager refill so an exhausted feed ends the drive this
                # round instead of adding a trailing no-op round
                refill(machine_id, buffer)
                if not buffer and machine_id not in iterators:
                    buffers.pop(machine_id)
            merged = set(self._merge.machine_ids)
            pending = [
                machine_id
                for machine_id, pipeline in self._machines.items()
                if pipeline.needs_update()
                or machine_id not in merged
                or machine_id in self._forced_sweeps
            ]
            # CPU stage: machine updates run concurrently on the loop's
            # default thread pool; the barrier before the merge keeps
            # rounds deterministic.  Restarts may swap a machine's
            # pipeline object mid-round, so everything downstream
            # re-reads self._machines by id.
            if resilience is None:
                await asyncio.gather(
                    *(
                        loop.run_in_executor(
                            None, self._machines[machine_id].update
                        )
                        for machine_id in pending
                    )
                )
            else:
                await asyncio.gather(
                    *(
                        self._supervised_update(
                            machine_id, resilience, self._rounds + 1, loop
                        )
                        for machine_id in pending
                    )
                )
            consumed = updated = 0
            for machine_id in pending:
                pipeline = self._machines[machine_id]
                stats = pipeline.last_stats
                consumed += 0 if stats is None else stats.events_consumed
                updated += 1
                self._merge.ingest(machine_id, *pipeline.pairwise_counts())
                if resilience is not None:
                    resilience.supervisor.mark_synced(machine_id)
            self._forced_sweeps.clear()
            for machine_id in self._machines:
                self._refresh_status(machine_id)
            clusters = self._merge.clusters()
            self._rounds += 1
            faults = restarts = 0
            if resilience is not None:
                if resilience.injector is not None:
                    faults = (
                        resilience.injector.faults_fired - faults_before
                    )
                restarts = (
                    resilience.supervisor.fleet_report()["restarts"]
                    - restarts_before
                )
                if resilience.should_checkpoint(self._rounds):
                    self._write_checkpoint(
                        resilience.store,
                        payload_filter=resilience.payload_filter(
                            self._rounds
                        ),
                    )
            self.last_stats = FleetUpdateStats(
                events_consumed=consumed,
                machines_updated=updated,
                machines_total=len(self._machines),
                merge=self._merge.last_stats,
            )
            report = FleetRound(
                index=self._rounds,
                events_fed=fed,
                events_consumed=consumed,
                machines_updated=updated,
                machines_total=len(self._machines),
                clusters=clusters,
                merge=self._merge.last_stats,
                faults_injected=faults,
                machines_restarted=restarts,
            )
            rounds.append(report)
            if on_round is not None:
                on_round(report)
        return rounds

    # -- checkpointing -------------------------------------------------------

    def _write_checkpoint(
        self,
        store: FleetCheckpointStore,
        *,
        payload_filter=None,
    ) -> int:
        manifest = {
            "version": STATE_VERSION,
            "rounds": self._rounds,
            "params": {
                "window": self.window,
                "correlation_threshold": self.correlation_threshold,
                "linkage": self.linkage,
                "max_lag": self.max_lag,
            },
        }
        return store.write(
            manifest,
            {
                machine_id: pipeline.to_state()
                for machine_id, pipeline in self._machines.items()
            },
            payload_filter=payload_filter,
        )

    def to_state_dir(
        self,
        path: str | Path,
        *,
        keep: int = DEFAULT_KEEP_GENERATIONS,
    ) -> int:
        """Write one crash-safe checkpoint generation; returns its number.

        One ``machine-<id>.json`` per machine plus a checksummed
        manifest land in a fresh ``gen-<n>/`` directory — every file
        written atomically (tmp+fsync+rename) and the root ``fleet.json``
        committed last, so a crash at any instant leaves the previous
        generation loadable.  The oldest generations beyond ``keep`` are
        pruned.  The merge itself is not persisted — it is a pure
        function of the machines' evidence and is rebuilt from their
        snapshots on the first post-resume update.
        """
        return self._write_checkpoint(FleetCheckpointStore(path, keep=keep))

    @classmethod
    def from_state_dir(
        cls,
        path: str | Path,
        stores: Mapping[str, TTKV],
        *,
        max_lag: int | None = None,
    ) -> "FleetPipeline":
        """Restore a fleet over re-opened per-machine stores.

        ``stores`` must provide a store for every machine named in the
        manifest, each holding (at least) the journal that machine's
        checkpoint had consumed.  ``max_lag`` overrides the checkpointed
        backpressure bound.

        Restores from the newest checkpoint generation that verifies
        (checksums + parse); damaged generations are quarantined and
        older ones tried, and only when none survives does this raise
        :class:`~repro.exceptions.CorruptCheckpointError`.
        """
        directory = Path(path)
        try:
            root = load_json_checkpoint(
                directory / "fleet.json", kind="fleet manifest"
            )
        except CorruptCheckpointError:
            # torn root manifest: the generation directories are the
            # real source of truth, fall back to scanning them
            root = None
        if root is not None:
            _check_state_version(root)
        manifest, machine_states = FleetCheckpointStore(directory).load()
        # the manifest actually restored: with a torn root it is the
        # newest generation's, which the root check above never saw
        _check_state_version(manifest)
        try:
            params = manifest["params"]
            machine_ids = manifest["machines"]
            rounds = manifest["rounds"]
            window = params["window"]
            correlation_threshold = params["correlation_threshold"]
            linkage = params["linkage"]
            state_max_lag = params["max_lag"]
        except (KeyError, TypeError) as error:
            raise CorruptCheckpointError(
                f"fleet manifest under {directory} is missing field "
                f"{error!r}"
            ) from error
        missing = [m for m in machine_ids if m not in stores]
        if missing:
            raise CheckpointError(
                f"no store was provided for checkpointed machine(s) {missing}"
            )
        fleet = cls(
            window=window,
            correlation_threshold=correlation_threshold,
            linkage=linkage,
            max_lag=max_lag if max_lag is not None else state_max_lag,
        )
        for machine_id in machine_ids:
            fleet._machines[machine_id] = ShardedPipeline.from_state(
                stores[machine_id],
                machine_states[machine_id],
            )
            fleet._refresh_status(machine_id)
        fleet._rounds = rounds
        return fleet
