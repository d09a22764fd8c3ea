"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`Tracer` wraps the public calls of each layer (see :data:`WRAPPED`)
for the lifetime of a ``with`` block and restores the originals on exit.
While :attr:`Tracer.active` is set, every wrapped call records a span
``[id, name, start, end, parent, op, thread]`` in memory:

- ``parent`` is the innermost open span on the same thread.  A span that
  opens on a thread with nothing open — a fleet machine update on an
  executor thread — takes the current operation's root span instead;
- ``op`` is the number of the operation (one stream micro-batch, one
  fleet round) shared by every span recorded during it; the operation's
  own root span is opened by :meth:`Tracer.begin`.

Self time is a span's duration minus the union of its children's
intervals (:func:`measure.self_times`).  Per-layer metrics are the self
times summed per span name plus the counters the wrappers collect.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from measure import self_times

#: Columns of one span row.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "thread")


def _count_events(tracer, args, result) -> None:
    tracer.count("ttkv.events_appended", len(args[1]))


def _groups_closed(tracer, args, result) -> None:
    tracer.count("windowing.groups_closed", len(result))


def _repair_outcome(tracer, args, result) -> None:
    tracer.count("dendro_repair.merges_reused", result.merges_reused)
    tracer.count("dendro_repair.merges_recomputed", result.merges_recomputed)


def _pipeline_stats(tracer, args, result) -> None:
    stats = args[0].last_stats
    tracer.count("sharded.rebuilds", int(stats.rebuilt))
    tracer.count("sharded.reorders_absorbed", stats.reorders_absorbed)


def _merge_stats(tracer, args, result) -> None:
    stats = args[0].last_stats
    with tracer.lock:
        if stats is None or stats is tracer.last_merge_stats:
            return
        # clusters() only refreshes (and replaces last_stats) when dirty
        tracer.last_merge_stats = stats
        tracer.counters["fleet.merge.components_reclustered"] += (
            stats.components_reclustered
        )
        tracer.counters["fleet.merge.components_total"] += stats.components_total


def _wrapped():
    """(owner, attribute, span name, counter hook) for every traced call."""
    from repro.core import clustering, dendro_repair, hac_kernel, sharded
    from repro.core.correlation import CorrelationMatrix
    from repro.core.dendrogram import Dendrogram
    from repro.core.windowing import StreamingGroupExtractor
    from repro.fleet import merge
    from repro.fleet.pipeline import FleetPipeline
    from repro.ttkv.columnar import ColumnarJournal
    from repro.ttkv.journal import EventJournal
    from repro.ttkv.store import TTKV

    return [
        (TTKV, "record_events", "ttkv.record_events", _count_events),
        (EventJournal, "read_flexible", "ttkv.read_flexible", None),
        (ColumnarJournal, "read_flexible", "ttkv.read_flexible", None),
        (StreamingGroupExtractor, "feed_many", "windowing.feed_many", _groups_closed),
        (StreamingGroupExtractor, "rewind", "windowing.rewind", None),
        (CorrelationMatrix, "update_groups", "correlation.fold", None),
        (CorrelationMatrix, "observe_groups_batch", "correlation.fold", None),
        (CorrelationMatrix, "compact", "correlation.compact", None),
        (CorrelationMatrix, "connected_components", "correlation.components", None),
        (CorrelationMatrix, "component_members", "correlation.components", None),
        (
            CorrelationMatrix,
            "component_distance_block",
            "correlation.distance_block",
            None,
        ),
        (CorrelationMatrix, "pairwise_counts", "correlation.pairwise_counts", None),
        (
            CorrelationMatrix,
            "apply_count_deltas",
            "correlation.apply_count_deltas",
            None,
        ),
        # looked up where the engine calls them, so splice's own internal
        # fallback rebuilds stay inside the splice span
        (sharded, "splice_dendrogram", "dendro_repair.splice", _repair_outcome),
        (sharded, "rebuild_outcome", "dendro_repair.rebuild", _repair_outcome),
        (clustering, "agglomerate_clusters", "clustering.agglomerate", None),
        (dendro_repair, "agglomerate_clusters", "clustering.agglomerate", None),
        (hac_kernel, "agglomerate_square", "clustering.kernel", None),
        (merge, "component_clusters", "clustering.component_clusters", None),
        (Dendrogram, "cut", "dendrogram.cut", None),
        (sharded.ShardEngine, "update", "sharded.engine_update", None),
        (
            sharded.ShardedPipeline,
            "update",
            "sharded.pipeline_update",
            _pipeline_stats,
        ),
        (sharded.ShardedPipeline, "needs_update", "sharded.needs_update", None),
        (sharded.ShardedPipeline, "pairwise_counts", "sharded.pairwise_counts", None),
        (merge.FleetCorrelationMerge, "ingest", "fleet.merge.ingest", None),
        (merge.FleetCorrelationMerge, "retire", "fleet.merge.retire", None),
        (merge.FleetCorrelationMerge, "clusters", "fleet.merge.clusters", _merge_stats),
        (FleetPipeline, "clusters_payload", "fleet.api.clusters_payload", None),
    ]


#: Span names whose summed self time is reported as ``<name>.self_s``.
SELF_TIMED = (
    "ttkv.record_events",
    "ttkv.read_flexible",
    "windowing.feed_many",
    "correlation.fold",
    "correlation.compact",
    "correlation.components",
    "correlation.distance_block",
    "correlation.pairwise_counts",
    "correlation.apply_count_deltas",
    "dendro_repair.splice",
    "clustering.agglomerate",
    "clustering.kernel",
    "clustering.component_clusters",
    "dendrogram.cut",
    "sharded.engine_update",
    "sharded.pipeline_update",
    "sharded.needs_update",
    "sharded.pairwise_counts",
    "fleet.merge.ingest",
    "fleet.merge.clusters",
    "fleet.pipeline.round",
    "fleet.api.clusters_payload",
)

#: Span names whose call count is reported as ``<name>.calls``.
COUNTED = (
    "windowing.rewind",
    "dendro_repair.splice",
    "dendro_repair.rebuild",
    "clustering.kernel",
    "fleet.merge.retire",
)

#: The root span of one fleet round.
ROUND = "fleet.pipeline.round"


class Tracer:
    """In-memory span recorder over the wrapped layer calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: Guards :attr:`counters`: hooks also run on executor threads.
        self.lock = threading.Lock()
        self.active = False
        self.last_merge_stats = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list | None = None
        self._op = 0
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to the counter ``name``, from any thread."""
        with self.lock:
            self.counters[name] += amount

    def _open(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1][0]
        else:
            parent = None if self._root is None else self._root[0]
        row = [
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            parent,
            self._op,
            threading.get_ident(),
        ]
        stack.append(row)
        return row

    def _close(self, row: list) -> None:
        row[3] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(row)

    def begin(self, name: str) -> None:
        """End the current operation (if any) and open the next one's root."""
        self.end()
        self._op += 1
        self._root = [
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            None,
            self._op,
            threading.get_ident(),
        ]

    def end(self) -> None:
        """Close the current operation's root span."""
        if self._root is not None:
            self._root[3] = time.perf_counter()
            self.spans.append(self._root)
            self._root = None

    # -- patching ------------------------------------------------------------

    def _wrap(self, owner, attribute: str, name: str, hook) -> None:
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            row = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(row)
            if hook is not None:
                hook(tracer, args, result)
            return result

        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, traced)

    def __enter__(self) -> "Tracer":
        try:
            for owner, attribute, name, hook in _wrapped():
                self._wrap(owner, attribute, name, hook)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.active = False
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is None:
                delattr(owner, attribute)  # the original lives on a base class
            else:
                setattr(owner, attribute, own)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times, call counts and counters, keyed by metric name."""
        self.end()
        own = self_times(self.spans)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for row in self.spans:
            self_s[row[1]] += own[row[0]]
            calls[row[1]] += 1
        counters = self.counters
        metrics: dict[str, float] = {
            f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED
        }
        metrics.update({f"{name}.calls": calls[name] for name in COUNTED})
        for name in (
            "ttkv.events_appended",
            "windowing.groups_closed",
            "dendro_repair.merges_reused",
            "dendro_repair.merges_recomputed",
            "sharded.rebuilds",
            "sharded.reorders_absorbed",
            "sharded.state_bytes",
        ):
            metrics[name] = counters[name]
        merges = counters["dendro_repair.merges_reused"] + counters[
            "dendro_repair.merges_recomputed"
        ]
        metrics["dendro_repair.reuse_ratio"] = (
            counters["dendro_repair.merges_reused"] / merges if merges else 0.0
        )
        components = counters["fleet.merge.components_total"]
        metrics["fleet.merge.recluster_ratio"] = (
            counters["fleet.merge.components_reclustered"] / components
            if components
            else 0.0
        )
        rounds = calls[ROUND]
        metrics["fleet.pipeline.machines_updated"] = (
            counters["fleet.pipeline.machines_updated"] / rounds if rounds else 0.0
        )
        metrics["fleet.pipeline.update_overlap"] = self._update_overlap()
        metrics["fleet.api.requests"] = calls["fleet.api.clusters_payload"]
        return metrics

    def _update_overlap(self) -> float:
        """Busy ÷ wall of the machine-update phase, over all fleet rounds."""
        rounds = {row[0]: row for row in self.spans if row[1] == ROUND}
        phases: dict[int, list[float]] = {}
        for row in self.spans:
            parent = rounds.get(row[4])
            if (
                row[1] == "sharded.pipeline_update"
                and parent is not None
                and row[6] != parent[6]
            ):
                busy, first, last = phases.get(row[4], (0.0, row[2], row[3]))
                phases[row[4]] = (
                    busy + row[3] - row[2],
                    min(first, row[2]),
                    max(last, row[3]),
                )
        busy = sum(phase[0] for phase in phases.values())
        wall = sum(phase[2] - phase[1] for phase in phases.values())
        return busy / wall if wall else 0.0

    def write(self, path: Path, workload: str) -> None:
        """Dump every recorded span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"workload": workload, "fields": SPAN_FIELDS, "spans": self.spans},
                separators=(",", ":"),
            ),
            encoding="utf-8",
        )
