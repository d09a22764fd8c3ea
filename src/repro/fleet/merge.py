"""Fleet-level correlation merge: sum machine evidence, recluster dirty.

Every correlation Ocasta computes is a pure function of two aggregates —
per-key write-group counts and per-pair intersection counts — so a
machine's entire contribution to the fleet model is the snapshot
:meth:`repro.core.sharded.ShardedPipeline.pairwise_counts` returns.
:class:`FleetCorrelationMerge` keeps one
:class:`~repro.core.correlation.CorrelationMatrix` holding the *sum* of
all machines' snapshots, keyed by canonical app/key identity (two
machines writing ``mail/zoom`` contribute to the same fleet key).  When a
machine reports again, only the *diff* against its previous snapshot is
applied (:meth:`~repro.core.correlation.CorrelationMatrix.apply_count_deltas`),
and only fleet components touched by the diff are repaired — by the same
:class:`~repro.core.sharded.ComponentModel` the shard engines use, so a
growing component splices its cached dendrogram instead of
re-agglomerating from singletons.

The independent reference is :func:`concatenated_batch_clusters`: extract
every machine's write groups with the batch extractor (respecting the
same longest-prefix shard routing), feed all groups into one fresh
matrix, and cut.  The property suite in ``tests/fleet/`` asserts the
merge equals this reference across profiles, machines joining and
leaving mid-stream, and duplicate app prefixes on different machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.cluster_model import ClusterSet
from repro.core.clustering import (
    LINKAGE_COMPLETE,
    check_clustering_params,
    component_clusters,  # noqa: F401 -- benchmarks/e2e/tracing.py wraps it by name
    flat_clusters,
)
from repro.core.correlation import CorrelationMatrix, CorrelationMatrixView
from repro.core.pipeline import DEFAULT_CORRELATION_THRESHOLD, DEFAULT_WINDOW
from repro.core.sharded import ComponentModel
from repro.core.windowing import extract_write_groups
from repro.ttkv.sharding import CATCH_ALL

#: One machine's evidence snapshot: (per-key counts, per-pair counts).
Snapshot = tuple[dict[str, int], dict[tuple[str, str], int]]


@dataclass(frozen=True)
class MergeStats:
    """What one :meth:`FleetCorrelationMerge.clusters` refresh did."""

    machines: int
    dirty_keys: int
    components_total: int
    components_reclustered: int
    components_reused: int


def _delta(new: Mapping, old: Mapping) -> dict:
    """Per-entry difference ``new - old`` (zero entries omitted)."""
    deltas = {}
    for key, count in new.items():
        diff = count - old.get(key, 0)
        if diff:
            deltas[key] = diff
    for key, count in old.items():
        if key not in new:
            deltas[key] = -count
    return deltas


class FleetCorrelationMerge:
    """Aggregate per-machine pairwise evidence into fleet clusters.

    Feed it machine snapshots with :meth:`ingest` (idempotent per
    snapshot: the diff against the machine's previous report is applied),
    drop a machine with :meth:`retire` (its evidence is subtracted), and
    read the fleet model with :meth:`clusters` — which repairs only
    components whose evidence changed since the last read.
    """

    def __init__(
        self,
        *,
        window: float = DEFAULT_WINDOW,
        correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
        linkage: str = LINKAGE_COMPLETE,
    ) -> None:
        check_clustering_params(window, correlation_threshold, linkage)
        self.window = window
        self.correlation_threshold = correlation_threshold
        self.linkage = linkage
        self._matrix = CorrelationMatrix()
        self._model = ComponentModel(
            self._matrix, window, correlation_threshold, linkage
        )
        self._snapshots: dict[str, Snapshot] = {}
        self._dirty: set[str] = set()
        self.last_stats: MergeStats | None = None

    # -- inspection ----------------------------------------------------------

    @property
    def machine_ids(self) -> tuple[str, ...]:
        """Machines currently contributing evidence (insertion order)."""
        return tuple(self._snapshots)

    @property
    def matrix(self) -> CorrelationMatrixView:
        """Read-only view of the summed fleet matrix."""
        return CorrelationMatrixView(self._matrix)

    @property
    def last_clusters(self) -> ClusterSet | None:
        """The most recently refreshed cluster model, without refreshing.

        The query API serves this snapshot so a ``GET /clusters`` during
        a heavy merge reads the last coherent model instead of blocking
        the event loop on a re-agglomeration.
        """
        return self._model.cluster_set() if self._model.ready else None

    # -- evidence ------------------------------------------------------------

    def ingest(
        self,
        machine_id: str,
        counts: Mapping[str, int],
        common: Mapping[tuple[str, str], int],
    ) -> set[str]:
        """Replace ``machine_id``'s evidence snapshot; apply the diff.

        Returns the fleet keys whose evidence changed (empty when the
        machine reported nothing new).  Cheap to call unconditionally
        after every machine update: the cost is one dict diff plus work
        proportional to the *changed* entries only.
        """
        old_counts, old_common = self._snapshots.get(machine_id, ({}, {}))
        dirty = self._matrix.apply_count_deltas(
            _delta(counts, old_counts), _delta(common, old_common)
        )
        self._snapshots[machine_id] = (dict(counts), dict(common))
        self._dirty |= dirty
        return dirty

    def retire(self, machine_id: str) -> set[str]:
        """Subtract a departed machine's evidence from the fleet model."""
        if machine_id not in self._snapshots:
            raise KeyError(
                f"no machine {machine_id!r}; machines: {list(self._snapshots)}"
            )
        dirty = self.ingest(machine_id, {}, {})
        del self._snapshots[machine_id]
        return dirty

    # -- clustering ----------------------------------------------------------

    def clusters(self) -> ClusterSet:
        """The fleet cluster model (largest clusters first).

        Components whose members don't intersect the keys dirtied since
        the previous call keep their cached clusters; only dirty
        components are repaired, splicing their cached dendrograms when
        the evidence only grew (:meth:`ComponentModel.refresh`).  Sound
        because the fleet matrix is mutated exclusively through
        :meth:`ingest`/:meth:`retire`, whose delta application reports
        every key whose evidence (or component membership) could have
        changed, and bumps ``structure_version`` on any loss.
        """
        if self._model.ready and not self._dirty:
            return self._model.cluster_set()
        reclustered = self._model.refresh(self._dirty)[0]
        total = self._model.component_count
        self.last_stats = MergeStats(
            machines=len(self._snapshots),
            dirty_keys=len(self._dirty),
            components_total=total,
            components_reclustered=reclustered,
            components_reused=total - reclustered,
        )
        self._dirty = set()
        return self._model.cluster_set()


def _route(key: str, ordered_prefixes: Sequence[str], catch_all: bool) -> str | None:
    for prefix in ordered_prefixes:
        if key.startswith(prefix):
            return prefix
    return CATCH_ALL if catch_all else None


def concatenated_batch_clusters(
    machine_events: Mapping[str, Sequence[tuple]],
    machine_prefixes: Mapping[str, Sequence[str]],
    *,
    window: float = DEFAULT_WINDOW,
    correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
    linkage: str = LINKAGE_COMPLETE,
    catch_all: bool = True,
) -> list[frozenset[str]]:
    """Independent reference: all machines' write groups, one batch matrix.

    For each machine, partition its events by the same longest-prefix
    routing the sharded journal uses, batch-extract each shard's write
    groups (:func:`~repro.core.windowing.extract_write_groups` — groups
    never span machines or shards), then feed every group into one fresh
    matrix and cut.  This is what "concatenate all machines' events into
    one batch run" means under sharding, and it is the equality target
    the fleet merge is property-tested against.
    """
    matrix = CorrelationMatrix()
    offset = 0
    for machine_id in sorted(machine_events):
        prefixes = sorted(
            set(machine_prefixes.get(machine_id, ())), key=lambda p: (-len(p), p)
        )
        by_shard: dict[str, list] = {}
        for event in machine_events[machine_id]:
            shard = _route(event[1], prefixes, catch_all)
            if shard is not None:
                by_shard.setdefault(shard, []).append(event)
        for shard_id in sorted(by_shard):
            groups = extract_write_groups(by_shard[shard_id], window)
            added = [(offset + i, group.keys) for i, group in enumerate(groups)]
            matrix.update_groups(added=added)
            offset += len(groups)
    return flat_clusters(
        matrix, correlation_threshold=correlation_threshold, linkage=linkage
    )
