"""The four end-to-end workloads: inputs, set-up, timed phase, gate.

Each workload is driven only through the public API with production
defaults — ``TTKV()``, ``ShardedPipeline(store, prefixes)``,
``FleetPipeline()`` — from a single closed-loop caller; only the fleet's
``GET /clusters`` load is open loop, from one client thread.

A workload object holds its sizes.  :meth:`prepare` turns a seed and a
run length into concrete inputs (generating and caching traces as
needed, never timed); :meth:`run` sets up several times, runs the timed
phase once and checks the final clusters against the batch oracle.
Every set-up and operation time is scaled to the reference host speed
by the probes run between them (:class:`measure.HostSpeed`).

``seconds`` fixes the *amount of work*, not a deadline: each workload
scales its operation count (or simulated span) so that its timed passes
together last about that long on a 2-core reference host.  The same ``seconds`` gives
the same inputs on every commit, so a faster commit finishes sooner
rather than doing different work.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import gc
import hashlib
import http.client
import itertools
import json
import math
import random
import resource
import statistics
import threading
import time
import traceback
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from inputs import (
    FLOOD_SEED,
    Trace,
    TraceCache,
    desktop_part,
    fleet_rollout,
    hot_component,
    stream_sha256,
)
from measure import PROBE_WINDOW, HostSpeed, percentile
from repro.common.format import SECONDS_PER_DAY
from repro.common.hashing import stable_hash
from repro.core.sharded import ShardedPipeline
from repro.fleet.api import FleetQueryServer
from repro.fleet.merge import concatenated_batch_clusters
from repro.fleet.pipeline import FleetPipeline
from repro.scenarios.regimes import flooded_delivery
from repro.ttkv.store import TTKV
from tracing import ROUND, Tracer

#: Seconds a single ``GET /clusters`` may take before it counts as failed.
QUERY_TIMEOUT = 5.0

#: Timed passes per run, each from fresh set-ups over the same inputs.  An
#: operation's time is that of its fastest pass, so a stall of the host
#: shows only if it hits the same operation in every pass.  Over six
#: reruns of one ``hot_component`` seed, p99 spread by 13% with two
#: passes and by 5% with three.
PASSES = 3

#: Desktop micro-batch size, and micro-batches per second of run length.
DESKTOP_BATCH = 100
DESKTOP_UPDATES_PER_SECOND = 88.0
#: Hot-component updates (one two-event write each) per second of run length.
HOT_UPDATES_PER_SECOND = 100.0
#: The flood's shape: ``clock_skew.yaml``'s duplicate and late fractions,
#: how far a late delivery may slip, and deliveries per micro-batch.
FLOOD_DUPLICATE_FRACTION = 0.08
FLOOD_LATE_FRACTION = 0.15
FLOOD_MAX_DISPLACEMENT = 3
FLOOD_BATCH = 5
#: Events of one flooded episode (see :class:`FloodedStream`).
FLOOD_EPISODE_EVENTS = 1500
#: Simulated seconds per fleet round, the share of the simulated span fed
#: as the set-up's catch-up round, and the open-loop query rate (req/s).
FLEET_SLICE_SECONDS = 60.0
FLEET_WARM_FRACTION = 1 / 16
FLEET_QUERY_RATE = 50.0


@dataclass
class Result:
    """What one run measured, plus the identity of what it fed.

    ``latencies`` and ``setup`` are scaled to the reference host speed;
    ``raw_seconds`` is the unscaled wall time of all the operations.
    """

    latencies: list[float]
    events: int
    raw_seconds: float
    setup: list[float]
    peak_rss_mb: float
    attempted: int
    failed: int
    trace_sha256: str
    #: median probe time over the run (the reference is
    #: ``measure.REFERENCE_PROBE_S``)
    probe_s: float
    clusters_sha256: str = ""
    correct: bool = False
    #: fleet only: ``(due, sent, done, ok)`` per ``GET /clusters``
    queries: list = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        latencies_ms = [seconds * 1e3 for seconds in self.latencies]
        return {
            "events_per_s": self.events / sum(self.latencies),
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p99_ms": percentile(latencies_ms, 99),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def unscaled(self) -> dict[str, float]:
        """Facts that read the wall clock as is, for the printed report."""
        return {
            "events_per_s": self.events / self.raw_seconds,
            "probe_s": self.probe_s,
        }

    def query_metrics(self) -> dict[str, float]:
        """Query latency from each request's due time, and generator lag."""
        served = [(done - due) * 1e3 for due, _, done, ok in self.queries if ok]
        late = [(sent - due) * 1e3 for due, sent, _, _ in self.queries]
        return {
            "fleet.api.query_p50_ms": percentile(served, 50) if served else 0.0,
            "fleet.api.query_p99_ms": percentile(served, 99) if served else 0.0,
            "fleet.api.generator_late_max_ms": max(late, default=0.0),
            "fleet.api.generator_late_p99_ms": percentile(late, 99) if late else 0.0,
        }


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def key_sets(clusters) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(keys)) for keys in clusters)


def clusters_sha256(sets: list[tuple[str, ...]]) -> str:
    return hashlib.sha256(repr(sets).encode("utf-8")).hexdigest()


def _chunks(events: list, size: int) -> list[list]:
    return [events[start : start + size] for start in range(0, len(events), size)]


@contextmanager
def frozen_heap():
    """Keep everything allocated so far out of the cyclic collector.

    The interpreter's modules and the pre-generated inputs then never take
    part in a collection, so collector pauses during set-up and the timed
    phase scale with the system's own state, not with the benchmark's.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


#: A cached trace's name and the generator that builds it on a miss.
Source = tuple[str, Callable[[], Trace]]


def desktop_sources(days: float, parts: int) -> list[Source]:
    """The desktop pool, shared by the desktop and flooded workloads."""
    return [
        (f"desktop-d{days:g}-p{part}", functools.partial(desktop_part, part, days))
        for part in range(parts)
    ]


def pool_order(seed: int, parts: int) -> list[int]:
    """The order ``seed`` lays the pool's parts out in (seed 0: as generated)."""
    order = list(range(parts))
    if seed:
        random.Random(stable_hash(f"pool-order:{seed}")).shuffle(order)
    return order


def fastest(passes: list[list], sizes: list[int]) -> tuple[list[float], float, int]:
    """Fold the passes' ``(raw, scaled)`` times per operation.

    Each pass lists one entry per operation, ``None`` where it failed.
    An operation that succeeded in every pass counts with its fastest
    pass.  Returns the scaled times, their unscaled sum and the events
    those operations delivered (``sizes`` gives each one's count).
    """
    latencies, raw, events = [], 0.0, 0
    for index, times in enumerate(itertools.zip_longest(*passes)):
        if None in times:
            continue
        best = min(times, key=lambda pair: pair[1])
        raw += best[0]
        latencies.append(best[1])
        events += sizes[index]
    return latencies, raw, events


# -- stream workloads ---------------------------------------------------------


@dataclass
class StreamInputs:
    warm: list
    batches: Sequence[list]
    prefixes: tuple[str, ...]

    def sha256(self) -> str:
        return stream_sha256([self.warm, *self.batches])


def _stream_setup(inputs: StreamInputs) -> tuple[TTKV, ShardedPipeline]:
    store = TTKV()
    pipeline = ShardedPipeline(store, inputs.prefixes)
    store.record_events(inputs.warm)
    pipeline.update()
    return store, pipeline


def run_stream(inputs: StreamInputs, *, setups: int, tracer: Tracer | None) -> Result:
    """Closed loop: one micro-batch per ``record_events`` + ``update()``.

    Each of the :data:`PASSES` passes follows ``setups`` timed set-ups
    and ends with the clusters it reached; the last one's are checked
    against the batch oracle, and every pass must reach the same.
    """
    speed = HostSpeed()
    setup_times: list[float] = []
    passes: list[list] = []
    finals = []
    failed = 0
    for number in range(PASSES):
        pipeline = None
        for _ in range(setups):
            if pipeline is not None:
                pipeline.close()
            store = pipeline = None
            gc.collect()  # the previous set-up's garbage, outside the timing
            (store, pipeline), seconds = speed.timed(lambda: _stream_setup(inputs))
            setup_times.append(seconds)
        gc.collect()

        timings: list = []  # (seconds, probe mark) per batch, None if it failed
        if tracer is not None:
            tracer.active = True
        speed.sample(PROBE_WINDOW)
        for batch in inputs.batches:
            if tracer is not None:
                tracer.begin("stream.batch")
            started = time.perf_counter()
            try:
                store.record_events(batch)
                pipeline.update()
            except Exception:
                traceback.print_exc()
                failed += 1
                timings.append(None)
            else:
                timings.append((time.perf_counter() - started, speed.mark()))
            if tracer is not None:
                tracer.end()
            speed.sample()
        speed.sample(PROBE_WINDOW)
        if tracer is not None:
            tracer.active = False
        passes.append(timings)
        finals.append(key_sets(c.keys for c in pipeline.cluster_set))
        if number < PASSES - 1:
            pipeline.close()

    latencies, raw, events = fastest(
        [[t and (t[0], speed.scale(*t)) for t in timings] for timings in passes],
        [len(batch) for batch in inputs.batches],
    )
    result = Result(
        latencies=latencies,
        events=events,
        raw_seconds=raw,
        setup=setup_times,
        peak_rss_mb=peak_rss_mb(),
        attempted=len(inputs.batches) * PASSES,
        failed=failed,
        trace_sha256=inputs.sha256(),
        probe_s=statistics.median(speed.samples),
    )
    expected = key_sets(
        concatenated_batch_clusters(
            {"m": store.write_events()}, {"m": inputs.prefixes}
        )
    )
    result.correct = all(final == expected for final in finals)
    result.clusters_sha256 = clusters_sha256(finals[-1])
    if tracer is not None:
        tracer.counters["sharded.state_bytes"] = len(json.dumps(pipeline.to_state()))
    pipeline.close()
    return result


def combine(results: list[Result]) -> Result:
    """One result for several independent streams run in turn."""
    return Result(
        latencies=[latency for result in results for latency in result.latencies],
        events=sum(result.events for result in results),
        raw_seconds=sum(result.raw_seconds for result in results),
        setup=[seconds for result in results for seconds in result.setup],
        peak_rss_mb=max(result.peak_rss_mb for result in results),
        attempted=sum(result.attempted for result in results),
        failed=sum(result.failed for result in results),
        trace_sha256=stream_sha256([[result.trace_sha256 for result in results]]),
        probe_s=statistics.median(result.probe_s for result in results),
        clusters_sha256=stream_sha256([[result.clusters_sha256 for result in results]]),
        correct=all(result.correct for result in results),
    )


def lay_out(parts: list[list], start: float, total: int) -> list[tuple[int, list, float]]:
    """Copies of ``parts`` in turn, laid end to end from ``start``.

    Returns ``(first stream index, part, time shift)`` per copy, enough
    copies to hold ``total`` events.  Each copy starts a day after the
    previous one ends, so every key keeps writing forward in time.
    """
    copies = []
    index, begin = 0, start
    for part in itertools.cycle(parts):
        if index >= total:
            break
        shift = begin - part[0][0]
        copies.append((index, part, shift))
        index += len(part)
        begin = part[-1][0] + shift + SECONDS_PER_DAY
    return copies


class Tiled(Sequence):
    """``count`` batches of ``size`` events from :func:`lay_out`.

    Batches are built on access, so the inputs never hold the whole
    months-long stream.
    """

    def __init__(self, parts: list[list], start: float, size: int, count: int) -> None:
        self.size = size
        self.count = count
        self._copies = lay_out(parts, start, size * count)
        self._firsts = [first for first, _, _ in self._copies]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> list:
        if not 0 <= index < self.count:
            raise IndexError(index)
        batch = []
        for position in range(index * self.size, (index + 1) * self.size):
            first, part, shift = self._copies[bisect.bisect_right(self._firsts, position) - 1]
            t, key, value = part[position - first]
            batch.append((t + shift, key, value))
        return batch


class StreamWorkload:
    def run(self, inputs: StreamInputs, *, setups: int, tracer: Tracer | None = None) -> Result:
        return run_stream(inputs, setups=setups, tracer=tracer)


@dataclass
class DesktopStream(StreamWorkload):
    """A pool of desktop traces laid end to end: a months-long deployment.

    ``seed`` picks the order: its first part is the warm prefix, and the
    rest follow in turn, each shifted to start a day after the previous
    one ends.  Every seed feeds the same pool, so seeds differ in order,
    not in how much heavy work the stream holds.
    """

    name: ClassVar[str] = "desktop_stream"
    days: float = 4.0
    parts: int = 20

    def sources(self, seed: int, seconds: float) -> list[Source]:
        return desktop_sources(self.days, self.parts)

    def prepare(self, cache: TraceCache, seed: int, seconds: float) -> StreamInputs:
        traces = [cache.get(*source) for source in self.sources(seed, seconds)]
        warm, *rest = [
            traces[part].streams["events"] for part in pool_order(seed, self.parts)
        ]
        return StreamInputs(
            warm=warm,
            batches=Tiled(
                rest or [warm],
                start=warm[-1][0] + SECONDS_PER_DAY,
                size=DESKTOP_BATCH,
                count=max(1, round(DESKTOP_UPDATES_PER_SECOND * seconds)),
            ),
            prefixes=tuple(traces[0].meta["prefixes"]),
        )


@dataclass
class HotComponent(StreamWorkload):
    """One 400-key component repaired by every two-event update."""

    name: ClassVar[str] = "hot_component"
    blocks: int = 100
    churn: int = 8
    rounds: int = 24

    def sources(self, seed: int, seconds: float) -> list[Source]:
        tail = max(1, round(HOT_UPDATES_PER_SECOND * seconds))
        return [
            (
                f"hot-b{self.blocks}-c{self.churn}-r{self.rounds}-t{tail}-s{seed}",
                lambda: hot_component(
                    seed,
                    blocks=self.blocks,
                    churn=self.churn,
                    rounds=self.rounds,
                    tail=tail,
                ),
            )
        ]

    def prepare(self, cache: TraceCache, seed: int, seconds: float) -> StreamInputs:
        (trace,) = [cache.get(*source) for source in self.sources(seed, seconds)]
        return StreamInputs(
            warm=trace.streams["warm"],
            batches=_chunks(trace.streams["tail"], 2),
            prefixes=(),
        )


@dataclass
class FloodedStream(StreamWorkload):
    """Desktop traces delivered late, duplicated and out of order, in episodes.

    Episode *k* floods the first :data:`FLOOD_EPISODE_EVENTS` events of
    part *k* of the desktop pool with ``flooded_delivery`` and an rng
    seeded from ``seed`` and *k*, and runs from a fresh set-up over its
    first ``warm`` deliveries.  A rebuild re-feeds its shard's whole
    journal, so a run's cost grows with the square of one stream's
    length but only linearly with the number of streams: many short
    episodes average over many more floods, and so over many more
    rebuilds, in the same time as one long stream.
    """

    name: ClassVar[str] = "flooded_stream"
    days: float = 4.0
    parts: int = 20
    events_per_second: float = 1000.0
    warm: int = 300

    def sources(self, seed: int, seconds: float) -> list[Source]:
        return desktop_sources(self.days, self.parts)

    def prepare(self, cache: TraceCache, seed: int, seconds: float) -> list[StreamInputs]:
        traces = [cache.get(*source) for source in self.sources(seed, seconds)]
        total = max(self.warm + 1, round(self.events_per_second * seconds))
        size = min(FLOOD_EPISODE_EVENTS, total)
        episodes = []
        for index in range(max(1, round(total / size))):
            events = traces[index % self.parts].streams["events"][:size]
            delivery = flooded_delivery(
                events,
                duplicate_fraction=FLOOD_DUPLICATE_FRACTION,
                late_fraction=FLOOD_LATE_FRACTION,
                max_displacement=FLOOD_MAX_DISPLACEMENT,
                rng=random.Random(stable_hash(f"flood:{FLOOD_SEED + seed}:{index}")),
            )
            episodes.append(
                StreamInputs(
                    warm=delivery[: self.warm],
                    batches=_chunks(delivery[self.warm :], FLOOD_BATCH),
                    prefixes=tuple(traces[0].meta["prefixes"]),
                )
            )
        return episodes

    def run(
        self, inputs: list[StreamInputs], *, setups: int, tracer: Tracer | None = None
    ) -> Result:
        return combine(
            [run_stream(episode, setups=setups, tracer=tracer) for episode in inputs]
        )


# -- fleet workload -----------------------------------------------------------


@dataclass
class Round:
    """One fleet round: membership changes, then each machine's slice."""

    joins: list[str] = field(default_factory=list)
    leaves: list[str] = field(default_factory=list)
    feeds: dict[str, list] = field(default_factory=dict)


@dataclass
class FleetInputs:
    prefixes: dict[str, tuple[str, ...]]
    initial: list[str]
    warm: dict[str, list]
    plan: list[Round]

    def sha256(self) -> str:
        chunks = [[(machine, *event) for event in self.warm[machine]] for machine in self.initial]
        for index, step in enumerate(self.plan):
            chunks.append([("round", index, tuple(step.joins), tuple(step.leaves))])
            chunks.extend(
                [(machine, *event) for event in events]
                for machine, events in step.feeds.items()
            )
        return stream_sha256(chunks)


class QueryClient:
    """Open-loop ``GET /clusters`` at a fixed rate, one connection at a time.

    Request *i* is due at ``start + i / rate`` whether or not earlier
    ones have returned; latency is measured from the due time, so a stall
    on the server also counts against the requests queued behind it.
    Requests due after :meth:`stop`'s end time are never sent.
    """

    def __init__(self, host: str, port: int, rate: float) -> None:
        self.host = host
        self.port = port
        self.period = 1.0 / rate
        self.samples: list[tuple[float, float, float, bool]] = []
        self._start = threading.Event()
        self._stop = threading.Event()
        self._origin = 0.0
        self._end = math.inf

    def start(self, origin: float) -> None:
        self._origin = origin
        self._start.set()

    def stop(self, end: float) -> None:
        self._end = end
        self._stop.set()
        self._start.set()

    def run(self) -> None:
        self._start.wait()
        index = 0
        while True:
            due = self._origin + index * self.period
            index += 1
            wait = due - time.perf_counter()
            if wait > 0:
                self._stop.wait(wait)
            if self._stop.is_set() and due > self._end:
                return
            sent = time.perf_counter()
            ok = self._get()
            self.samples.append((due, sent, time.perf_counter(), ok))

    def _get(self) -> bool:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=QUERY_TIMEOUT
        )
        try:
            connection.request("GET", "/clusters")
            response = connection.getresponse()
            return response.status == 200 and bool(response.read())
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()


@dataclass
class FleetRollout:
    """The flash-crowd scenario fed as simulated-time slices, one per round.

    The scenario keeps its committed seed; ``seed`` sets the phase of the
    slice grid, so seeds differ in which writes share a round.
    """

    name: ClassVar[str] = "fleet_rollout"
    population: tuple[int, int, int] = (50, 15, 35)
    days_per_second: float = 0.115

    def sources(self, seed: int, seconds: float) -> list[Source]:
        days = round(self.days_per_second * seconds, 6)
        population = ".".join(str(count) for count in self.population)
        return [
            (
                f"fleet-p{population}-d{days:g}",
                lambda: fleet_rollout(population=self.population, days=days),
            )
        ]

    def prepare(self, cache: TraceCache, seed: int, seconds: float) -> FleetInputs:
        (trace,) = [cache.get(*source) for source in self.sources(seed, seconds)]
        phase = 0.0
        if seed:
            phase = stable_hash(f"fleet-phase:{seed}") % 1000 / 1000 * FLEET_SLICE_SECONDS
        return self._plan(trace, phase)

    def _plan(self, trace: Trace, phase: float) -> FleetInputs:
        """Cut every machine's delivery into simulated-time slices.

        Of *R* YAML rounds, a ``join_round`` *r* maps to simulated time
        ``(r - 1) / R * span``, the start of round *r*, and a
        ``leave_round`` *r* to ``r / R * span``, its end, because
        ``run_fleet_scenario`` detaches a machine after its leave round
        completes.  A joining machine delivers its backlog in the slice
        holding its join time.  A departing machine delivers what it
        wrote before its leave time and is detached at the start of the
        first slice after it; every group writes for the whole span, so
        a departing machine's later events are never fed.  The first
        :data:`FLEET_WARM_FRACTION` of the span is the set-up's one
        catch-up round.  Slice boundaries lie ``phase`` seconds before
        multiples of the slice width past the warm end; empty slices are
        skipped.
        """
        span = trace.meta["span"]
        total = trace.meta["rounds"]
        warm_end = span * FLEET_WARM_FRACTION
        origin = warm_end - phase
        width = FLEET_SLICE_SECONDS
        rounds: dict[int, Round] = {}
        prefixes: dict[str, tuple[str, ...]] = {}
        initial: list[str] = []
        warm: dict[str, list] = {}
        for machine in trace.meta["machines"]:
            machine_id = machine["id"]
            prefixes[machine_id] = tuple(machine["prefixes"])
            joins = (machine["join_round"] - 1) / total * span
            leaves = (
                None
                if machine["leave_round"] is None
                else machine["leave_round"] / total * span
            )
            if joins < warm_end:
                initial.append(machine_id)
                warm[machine_id] = []
            else:
                slot = math.floor((joins - origin) / width)
                rounds.setdefault(slot, Round()).joins.append(machine_id)
            if leaves is not None:
                slot = max(0, math.ceil((leaves - origin) / width))
                rounds.setdefault(slot, Round()).leaves.append(machine_id)
            for event in trace.streams[machine_id]:
                if leaves is not None and event[0] >= leaves:
                    break
                at = max(event[0], joins)
                if at < warm_end:
                    warm[machine_id].append(event)
                else:
                    slot = math.floor((at - origin) / width)
                    feeds = rounds.setdefault(slot, Round()).feeds
                    feeds.setdefault(machine_id, []).append(event)
        return FleetInputs(
            prefixes=prefixes,
            initial=initial,
            warm=warm,
            plan=[rounds[slot] for slot in sorted(rounds)],
        )

    def _setup(self, inputs: FleetInputs) -> tuple[FleetPipeline, dict[str, TTKV]]:
        fleet = FleetPipeline()
        stores: dict[str, TTKV] = {}
        for machine_id in inputs.initial:
            stores[machine_id] = TTKV()
            fleet.add_machine(machine_id, stores[machine_id], inputs.prefixes[machine_id])
        asyncio.run(
            fleet.drive(
                {machine: [events] for machine, events in inputs.warm.items() if events}
            )
        )
        return fleet, stores

    def _timed_pass(
        self,
        fleet: FleetPipeline,
        stores: dict[str, TTKV],
        inputs: FleetInputs,
        speed: HostSpeed,
        tracer: Tracer | None,
    ) -> tuple[list, list, list]:
        """Drive every planned round with the query server up.

        Returns ``(seconds, probe mark)`` per completed round, the
        round reports and the query samples.  A round runs from the end
        of one schedule-hook call's probe to the start of the next call:
        membership changes, feed, machine updates, merge, status refresh.
        """
        plan = inputs.plan
        timings: list[tuple[float, int]] = []
        opened: list[float] = []
        closed: list[float] = []
        reports: list = []
        queries: list = []

        async def drive() -> None:
            async with FleetQueryServer(fleet) as server:
                client = QueryClient(*server.address, FLEET_QUERY_RATE)
                thread = threading.Thread(target=client.run, name="query-client")
                thread.start()

                def schedule(_round_index: int):
                    ended = time.perf_counter()
                    if tracer is not None:
                        tracer.end()  # the probe below is no part of a round
                    if opened:
                        timings.append((ended - opened.pop(), speed.mark()))
                    index = len(timings)
                    if index == len(plan):
                        closed.append(ended)
                        return None
                    if index == 0:
                        speed.sample(PROBE_WINDOW)
                        client.start(time.perf_counter())
                    else:
                        speed.sample()
                    opened.append(time.perf_counter())
                    if tracer is not None:
                        tracer.begin(ROUND)
                    step = plan[index]
                    for machine_id in step.leaves:
                        fleet.remove_machine(machine_id)
                    for machine_id in step.joins:
                        stores[machine_id] = TTKV()
                        fleet.add_machine(
                            machine_id, stores[machine_id], inputs.prefixes[machine_id]
                        )
                    return {machine: [events] for machine, events in step.feeds.items()}

                def on_round(report) -> None:
                    reports.append(report)
                    if tracer is not None:
                        tracer.count(
                            "fleet.pipeline.machines_updated", report.machines_updated
                        )

                try:
                    await fleet.drive({}, schedule=schedule, on_round=on_round)
                finally:
                    if tracer is not None:
                        tracer.end()
                    # only queries due while the rounds ran are sent
                    client.stop(closed[0] if closed else time.perf_counter())
                    speed.sample(PROBE_WINDOW)
                    # the in-flight request needs the loop: never block it
                    while thread.is_alive():
                        await asyncio.sleep(0.005)
                    queries.extend(client.samples)

        if tracer is not None:
            tracer.active = True
        try:
            asyncio.run(drive())
        except Exception:
            traceback.print_exc()
        if tracer is not None:
            tracer.active = False
        return timings[: len(reports)], reports, queries

    def run(self, inputs: FleetInputs, *, setups: int, tracer: Tracer | None = None) -> Result:
        """Each of the :data:`PASSES` passes follows ``setups`` timed set-ups."""
        speed = HostSpeed()
        setup_times: list[float] = []
        passes: list[list] = []
        finals = []
        queries: list = []
        failed_rounds = failed_queries = 0
        sizes: list[int] = []
        for number in range(PASSES):
            fleet = None
            for _ in range(setups):
                if fleet is not None:
                    fleet.close()
                fleet = stores = None
                gc.collect()  # the previous set-up's garbage, outside the timing
                (fleet, stores), seconds = speed.timed(lambda: self._setup(inputs))
                setup_times.append(seconds)
            gc.collect()
            timings, reports, samples = self._timed_pass(
                fleet, stores, inputs, speed, tracer
            )
            failed_rounds += len(inputs.plan) - len(reports)
            failed_queries += sum(1 for sample in samples if not sample[3])
            queries.extend(samples)
            passes.append(timings)
            if len(reports) > len(sizes):
                sizes = [report.events_fed for report in reports]
            finals.append(key_sets(c.keys for c in fleet.clusters()))
            if number < PASSES - 1:
                fleet.close()

        latencies, raw, events = fastest(
            [[(seconds, speed.scale(seconds, mark)) for seconds, mark in timings]
             for timings in passes],
            sizes,
        )
        result = Result(
            latencies=latencies,
            events=events,
            raw_seconds=raw,
            setup=setup_times,
            peak_rss_mb=peak_rss_mb(),
            attempted=len(inputs.plan) * PASSES + len(queries),
            failed=failed_rounds + failed_queries,
            trace_sha256=inputs.sha256(),
            probe_s=statistics.median(speed.samples),
            queries=queries,
        )
        live = fleet.machine_ids
        expected = key_sets(
            concatenated_batch_clusters(
                {machine: stores[machine].write_events() for machine in live},
                {machine: inputs.prefixes[machine] for machine in live},
            )
        )
        result.correct = failed_rounds == 0 and all(final == expected for final in finals)
        result.clusters_sha256 = clusters_sha256(finals[-1])
        if tracer is not None:
            tracer.counters["sharded.state_bytes"] = sum(
                len(json.dumps(fleet.machine(machine).to_state())) for machine in live
            )
        fleet.close()
        return result


#: Every workload, in report order, at its benchmark size.
WORKLOADS = {
    workload.name: workload
    for workload in (DesktopStream(), HotComponent(), FloodedStream(), FleetRollout())
}
