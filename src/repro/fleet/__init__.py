"""Fleet aggregation tier: many machines' evidence, one cluster model.

Everything below :mod:`repro.core` clusters one machine's event stream in
one process.  This package is the deployment story the paper implies — a
fleet of machines whose configuration-correlation evidence is aggregated
into fleet-level cluster models and served over a query API while ingest
continues:

- :class:`FleetCorrelationMerge` (:mod:`repro.fleet.merge`) sums
  per-machine pairwise evidence keyed by canonical app/key identity and
  repairs only the fleet components whose evidence changed, through the
  same :class:`~repro.core.sharded.ComponentModel` the shard engines use
  (growth-only evidence splices cached dendrograms).  It is
  property-tested equal to concatenating all machines' write groups into
  one batch matrix (:func:`repro.fleet.merge.concatenated_batch_clusters`).
- :class:`FleetPipeline` (:mod:`repro.fleet.pipeline`) owns one
  :class:`~repro.core.sharded.ShardedPipeline` per machine behind an
  asyncio driver: poll ``needs_update()``, interleave machine updates
  (on the event loop's default thread pool via ``run_in_executor``) with
  logging I/O, apply per-machine backpressure, checkpoint per machine.
- :class:`FleetQueryServer` (:mod:`repro.fleet.api`) serves
  ``GET /clusters``, ``GET /machines``, ``GET /machines/<id>/status``
  and ``GET /health`` from asyncio streams while the driver keeps
  ingesting.
- :mod:`repro.fleet.resilience` makes the tier fault-tolerant: a seeded
  deterministic :class:`FaultInjector` (crash/hang/slow/torn-write/
  corrupt-checkpoint/snapshot-loss injection points), the
  :class:`MachineSupervisor` health state machine with circuit-breaker
  restarts, and the :class:`FleetResilience` bundle
  :meth:`FleetPipeline.drive` takes.  Checkpoints are crash-safe
  generations (:mod:`repro.fleet.checkpointing`): atomic writes,
  SHA-256 checksums, keep-last-K, quarantine-then-fallback on damage.

``python -m repro fleet`` wires them together from the command line.
"""

from repro.fleet.api import FleetQueryServer
from repro.fleet.checkpointing import (
    FleetCheckpointStore,
    atomic_write_json,
    atomic_write_text,
    load_json_checkpoint,
)
from repro.fleet.merge import (
    FleetCorrelationMerge,
    MergeStats,
    concatenated_batch_clusters,
)
from repro.fleet.pipeline import (
    FleetPipeline,
    FleetRound,
    FleetUpdateStats,
)
from repro.fleet.resilience import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FleetResilience,
    MachineSupervisor,
    ResilienceConfig,
    ScheduledFault,
)

__all__ = [
    "FleetCorrelationMerge",
    "MergeStats",
    "concatenated_batch_clusters",
    "FleetPipeline",
    "FleetRound",
    "FleetUpdateStats",
    "FleetQueryServer",
    "FleetCheckpointStore",
    "atomic_write_json",
    "atomic_write_text",
    "load_json_checkpoint",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "FleetResilience",
    "MachineSupervisor",
    "ResilienceConfig",
    "ScheduledFault",
]
