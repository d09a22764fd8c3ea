"""Sharded streaming clustering: one engine per application prefix.

Ocasta runs on end-user machines that host many applications at once, and
clusters *per application* — the repair tool always restricts the trace to
one ``key_prefix``.  A single global session therefore does redundant
work: every update re-scans state belonging to applications that did not
write anything.  The sharded architecture splits the stream instead:

- a :class:`~repro.ttkv.sharding.ShardedJournal` routes the store's
  append-ordered journal into one per-prefix journal (longest prefix
  wins; unmatched keys go to a catch-all shard, or are dropped when the
  deployment is filtered);
- each shard is owned by a :class:`ShardEngine` — the per-stream logic of
  the original incremental pipeline: a journal cursor, a streaming write
  group extractor, an in-place :class:`~repro.core.correlation.
  CorrelationMatrix`, and a :class:`ComponentModel` — the per-component
  cluster and dendrogram cache the fleet merge reuses.  Components are
  tracked by the matrix's incremental union-find, so an update touches
  only the *dirty region*: the components containing keys of the write
  groups that actually changed;
- the :class:`ShardedPipeline` updates only shards whose journals
  advanced, and merges the per-shard cluster sets and
  :class:`UpdateStats` into the session-level view.

Each shard's clusters are exactly what the batch
:func:`~repro.core.pipeline.cluster_settings` produces with
``key_filter=prefix`` — filter-then-extract, so a write group never spans
applications.  With no ``shard_prefixes`` the session is one catch-all
shard: a single live stream over the whole store.

Example — one stream, updated as events arrive::

    >>> from repro.ttkv.store import TTKV
    >>> from repro.core.sharded import ShardedPipeline
    >>> store = TTKV()
    >>> live = ShardedPipeline(store)
    >>> store.record_write("app/feature_on", True, 10.0)
    >>> store.record_write("app/feature_level", 3, 10.0)
    >>> [c.sorted_keys() for c in live.update()]
    [['app/feature_level', 'app/feature_on']]
    >>> store.record_write("app/theme", "dark", 500.0)
    >>> [c.sorted_keys() for c in live.update()]
    [['app/feature_level', 'app/feature_on'], ['app/theme']]

Example — two applications, updated and checkpointed::

    >>> import json
    >>> store = TTKV()
    >>> pipeline = ShardedPipeline(store, shard_prefixes=("mail/", "editor/"))
    >>> store.record_write("mail/signature", "plain", 10.0)
    >>> store.record_write("mail/font", "mono", 10.0)
    >>> store.record_write("editor/theme", "dark", 10.5)
    >>> [c.sorted_keys() for c in pipeline.update()]
    [['mail/font', 'mail/signature'], ['editor/theme']]
    >>> store.record_write("editor/theme", "light", 700.0)
    >>> clusters = pipeline.update()          # only the editor shard moved
    >>> pipeline.last_stats.shards_updated, pipeline.last_stats.shards_total
    (1, 3)

    A session checkpoints to a JSON-safe dict and resumes without
    re-reading a single consumed event:

    >>> blob = json.dumps(pipeline.to_state())
    >>> resumed = ShardedPipeline.from_state(store, json.loads(blob))
    >>> [c.sorted_keys() for c in resumed.update()] == \\
    ...     [c.sorted_keys() for c in clusters]
    True
    >>> resumed.last_stats.events_consumed
    0
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.clustering import (
    LINKAGE_AVERAGE,
    LINKAGE_COMPLETE,
    check_clustering_params,
)
from repro.core.cluster_model import ClusterSet
from repro.core.correlation import (
    CorrelationMatrix,
    CorrelationMatrixView,
    correlation_to_distance,
)
from repro.core.dendro_repair import (
    SeedDistanceCache,
    SpliceOutcome,
    dendrogram_from_state,
    dendrogram_to_state,
    rebuild_outcome,
    splice_dendrogram,
)
from repro.core.dendrogram import Dendrogram
from repro.core.hac_kernel import KERNEL_AUTO, KERNEL_NUMPY
from repro.core.ordering import SortedKeySets
from repro.core.pipeline import DEFAULT_CORRELATION_THRESHOLD, DEFAULT_WINDOW
from repro.core.windowing import (
    GROUPING_SLIDING,
    StreamingGroupExtractor,
    WriteGroup,
)
from repro.exceptions import CheckpointError, CorruptCheckpointError
from repro.ttkv.journal import EventJournal, JournalCursor, decode_event, encode_event
from repro.ttkv.sharding import ShardedJournal, shard_ids_for
from repro.ttkv.store import TTKV

#: Checkpoint format version written by :meth:`ShardedPipeline.to_state`.
#: Shard states carry a ``"compacted"`` aggregate baseline, their
#: ``"groups"`` list holds only the retractable tail, their ``"starts"``
#: list the journal position of each retained closed group's first event,
#: and their ``"dendrograms"`` list is required.  Version 8 records the
#: ``"horizon"`` once per shard and drops single-key dendrograms; version
#: 7 bounded each dendrogram at the threshold distance and recorded that
#: horizon in every entry; version 6 added ``"starts"`` (the
#: bounded-suffix reorder repair);
#: version 5 dropped the repair mode and kernel that version 4 recorded in
#: its params.  A shard that must re-read its journal on resume is just
#: ``{"cursor": None}``.
STATE_VERSION = 8

#: Checkpoint versions :meth:`ShardedPipeline.from_state` accepts.
SUPPORTED_STATE_VERSIONS = (8,)

#: Minimum closed groups one update folds through the matrix's bulk-ingest
#: path (:meth:`ShardEngine._register_stream`); the routine
#: one-group-closed update stays on the single ``update_groups`` call.
STREAM_BATCH_MIN = 4

#: Closed write groups each shard engine keeps retractable behind its
#: provisional group, so that a late event landing in one of them is
#: repaired by re-feeding that short journal suffix instead of rebuilding
#: the shard from its whole journal.  Set from a measured histogram: on the
#: ``flooded_stream`` benchmark (seed 0, 549 rebuild batches under the
#: provisional-group-only rule) a reorder reached back 1 closed group 310
#: times, 2 groups 178 times and 3 groups 61 times; seed 3 gave
#: 346 / 165 / 60 of 571.  None went deeper than 3.
REORDER_HORIZON = 3


@dataclass(frozen=True)
class UpdateStats:
    """What one pipeline ``update()`` call actually did.

    For a :class:`ShardedPipeline` the counters aggregate over the shards
    that were updated; ``shards_updated`` / ``shards_total`` say how many
    engines ran versus were skipped because their journals had not
    advanced.  ``reorders_absorbed`` counts already-consumed events that
    were re-delivered after an out-of-order append and absorbed in place
    (rewound within the provisional trailing group); ``reorders_repaired``
    counts those handled by the bounded-suffix repair (the reorder reached
    into one of the last :data:`REORDER_HORIZON` closed groups, which were
    retracted and re-fed).  Anything deeper forces the full rebuild that
    ``rebuilt`` reports.

    ``shard_timings`` maps each updated shard id to the wall-clock seconds
    its engine's ``update()`` took; ``slowest_shard`` is the id with the
    largest timing (``None`` when nothing ran).

    ``merges_reused`` / ``merges_recomputed`` account for the spliced
    dendrogram repair (:mod:`repro.core.dendro_repair`): of all the
    agglomeration merges backing this update's reclustered components,
    how many were kept verbatim from cached dendrograms versus re-derived
    by agglomeration.

    ``kernel_components`` counts the reclustered components whose merges
    the numpy HAC kernel (:mod:`repro.core.hac_kernel`) agglomerated,
    rather than the pure-Python reference path.  It reflects the
    per-component dispatch by size, linkage and whether numpy imports —
    small components stay on the Python path even when numpy is
    installed — and counts no component whose repair agglomerated
    nothing (its cached merges stood).
    """

    events_consumed: int
    groups_closed: int
    dirty_keys: int
    components_total: int
    components_reclustered: int
    components_reused: int
    rebuilt: bool
    reorders_absorbed: int = 0
    reorders_repaired: int = 0
    shards_updated: int = 0
    shards_total: int = 1
    shard_timings: dict[str, float] = field(default_factory=dict)
    slowest_shard: str | None = None
    merges_reused: int = 0
    merges_recomputed: int = 0
    kernel_components: int = 0


@dataclass(frozen=True)
class ShardUpdate:
    """Result of one :meth:`ShardEngine.update`: stats plus a change flag.

    ``seconds`` is the wall-clock cost of the engine's own ``update()``.
    """

    stats: UpdateStats
    changed: bool
    seconds: float = 0.0


class ComponentModel:
    """Flat clusters of one live matrix, repaired one dirty region at a time.

    The one dirty-component repair core: every :class:`ShardEngine` holds
    one over its shard matrix, and the fleet merge
    (:class:`~repro.fleet.merge.FleetCorrelationMerge`) holds one over the
    summed fleet matrix.  The owner mutates the matrix, then passes the
    keys the mutation dirtied to :meth:`refresh`, whose one walk visits
    only the components holding them — every component on the first
    refresh, the one that also picks up a restored checkpoint.

    Each reclustered component's dendrogram is cached alongside its flat
    clusters.  For complete and single linkage it is bounded at the
    model's threshold distance: the model only ever cuts there (a new
    threshold is a new model), so merges above it are never built.
    Average linkage, which always rebuilds, keeps full dendrograms.  A
    dirty component is repaired by keeping the cached merge prefix below
    the first affected linkage distance and re-agglomerating only the
    surviving sub-clusters up to the bound
    (:mod:`repro.core.dendro_repair`); when that line lies above the
    bound the cached dendrogram, and the component's flat clusters, are
    kept as they are.  The code falls back to a wholesale
    re-agglomeration from singletons when it cannot prove the cache
    valid: nothing cached, a lossy update, average linkage, a cache
    straddling the component, or a failed order check.  Both paths
    produce identical clusters — the cache only changes how much work a
    refresh does, and it survives checkpoints (:meth:`to_state`).
    """

    def __init__(
        self,
        matrix: CorrelationMatrix,
        window: float,
        correlation_threshold: float,
        linkage: str,
    ) -> None:
        self._matrix = matrix
        self._window = window
        self._correlation_threshold = correlation_threshold
        self._max_distance = correlation_to_distance(correlation_threshold)
        # the dendrograms' horizon: the cut distance, except for average
        # linkage, which never splices and keeps the full history
        self._horizon = math.inf if linkage == LINKAGE_AVERAGE else self._max_distance
        self._linkage = linkage
        self._component_cache: dict[frozenset[str], list[frozenset[str]]] = {}
        self._dendro_cache: dict[frozenset[str], Dendrogram] = {}
        self._seed_cache: dict[frozenset[str], SeedDistanceCache] = {}
        self._component_of_key: dict[str, frozenset[str]] = {}
        self._seen_structure = matrix.structure_version
        self._ready = False
        self._order = SortedKeySets()
        self._last_removed: list[frozenset[str]] = []
        self._last_added: list[frozenset[str]] = []
        self._cluster_set: ClusterSet | None = None

    @property
    def ready(self) -> bool:
        """Whether :meth:`refresh` has produced clusters at least once."""
        return self._ready

    @property
    def component_count(self) -> int:
        return len(self._component_cache)

    @property
    def key_sets(self) -> list[frozenset[str]]:
        """Current clusters as key sets, largest first (a fresh list)."""
        return self._order.as_key_sets()

    @property
    def last_order_delta(
        self,
    ) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
        """(removed, added) cluster key sets of the most recent refresh."""
        return list(self._last_removed), list(self._last_added)

    def cluster_set(self) -> ClusterSet:
        """Current clusters as a :class:`ClusterSet` (cached per refresh)."""
        if self._cluster_set is None:
            self._cluster_set = ClusterSet.from_key_sets(
                self.key_sets,
                window=self._window,
                correlation_threshold=self._correlation_threshold,
            )
        return self._cluster_set

    def refresh(
        self, dirty: set[str], *, shown: Sequence[frozenset[str]] = ()
    ) -> tuple[int, int, int, int]:
        """Recluster what the matrix mutations since the last call dirtied.

        One walk over the dirty region: keys are grouped by union-find
        root, each dirty key's cached component is evicted, and each
        visited component is repaired (:meth:`_repair_component`) with
        the cluster order kept up to date one component at a time.  Sound
        because between structural losses components only ever grow: when
        components merge, the group (or pair delta) that bridged them puts
        a key of each old component into ``dirty``, so evicting every
        dirty key's cached component removes exactly the entries the merge
        invalidated — and a component's dirty keys find every cached
        dendrogram it absorbed.

        Two cases differ from that growth walk:

        - Before the first refresh (a fresh model, or one :meth:`restore`
          filled) every matrix key is visited, not just the dirty ones.  A
          component whose cached dendrogram covers it exactly and holds no
          dirty key (a restored checkpoint's) is only cut, and its merges
          count as reused; other restored dendrograms are found by key and
          spliced like live ones.
        - After a lossy mutation bumped ``structure_version``, components
          may have shrunk, which voids the splice argument: each dirty
          key's old dendrogram and seed cache are dropped, so its
          component re-agglomerates.  A component holding no dirty key is
          left alone: lost edges and bridges only touch dirty keys.

        ``shown`` holds clusters an owner displayed from a model it
        discarded (a rebuild): they enter the removal delta.  Returns
        ``(components_reclustered, merges_reused, merges_recomputed,
        kernel_components)``.
        """
        self._last_removed = list(shown)
        self._last_added = []
        if not dirty and self._ready:
            return 0, 0, 0, 0
        matrix = self._matrix
        lossy = matrix.structure_version != self._seen_structure
        roots: dict[str, list[str]] = {}
        for key in dirty if self._ready else matrix.keys:
            if key in matrix:
                roots.setdefault(matrix.find(key), []).append(key)
        evicted: dict[frozenset[str], list[frozenset[str]]] = {}
        for key in dirty:
            stale = self._component_of_key.get(key)
            if stale is None:
                continue
            old_clusters = self._component_cache.pop(stale, None)
            if old_clusters is not None:
                evicted[stale] = old_clusters
            if lossy:
                self._dendro_cache.pop(stale, None)
                self._seed_cache.pop(stale, None)
                if key not in matrix:
                    del self._component_of_key[key]
        merges_reused = merges_recomputed = kernel_components = 0
        for root, keys in roots.items():
            component = matrix.component_members(root)
            kept = self._dendro_cache.get(component)
            if kept is not None and component.isdisjoint(dirty):
                # restored merges of an untouched component: only the
                # flat cut is missing
                dendrogram = kept
                merges_reused += len(kept.merges)
            else:
                outcome = self._repair_component(component, dirty, keys)
                dendrogram = outcome.dendrogram
                self._dendro_cache[component] = dendrogram
                if outcome.seed_cache is not None:
                    self._seed_cache[component] = outcome.seed_cache
                merges_reused += outcome.merges_reused
                merges_recomputed += outcome.merges_recomputed
                if outcome.kernel == KERNEL_NUMPY:
                    kernel_components += 1
            old_clusters = evicted.pop(component, None)
            if dendrogram is kept and old_clusters is not None:
                # the repair kept the component's dendrogram: its flat
                # clusters and key mapping stand, no cut to redo
                self._component_cache[component] = old_clusters
                continue
            clusters = dendrogram.cut(self._max_distance)
            self._component_cache[component] = clusters
            for key in component:
                self._component_of_key[key] = component
            if old_clusters == clusters:
                continue  # identical result: the order needs no touch
            if old_clusters is not None:
                for key_set in old_clusters:
                    self._order.remove(key_set)
                self._last_removed.extend(old_clusters)
            for key_set in clusters:
                self._order.add(key_set)
            self._last_added.extend(clusters)
        # components that merged into a larger one, or (after a loss) split
        # or left the matrix
        for old_clusters in evicted.values():
            for key_set in old_clusters:
                self._order.remove(key_set)
            self._last_removed.extend(old_clusters)
        self._seen_structure = matrix.structure_version
        self._ready = True

        if self._last_removed and self._last_added:
            # Net out clusters that were evicted and re-added unchanged
            # (e.g. two components bridged into one holding the same
            # clusters): the delta — and the changed flag — reflect only
            # real differences in the cluster list.
            removed_counts = Counter(self._last_removed)
            added_counts = Counter(self._last_added)
            common = removed_counts & added_counts
            if common:
                self._last_removed = list((removed_counts - common).elements())
                self._last_added = list((added_counts - common).elements())
        if self._last_removed or self._last_added:
            self._cluster_set = None
        return len(roots), merges_reused, merges_recomputed, kernel_components

    def _repair_component(
        self,
        component: frozenset[str],
        dirty: set[str],
        probe: Iterable[str],
    ) -> SpliceOutcome:
        """Dendrogram for one dirty component — spliced when possible.

        ``probe`` holds at least one key of every cached-dendrogram
        component inside ``component`` (found through the key mapping as
        it stood before the update).  Those dendrograms are popped from
        the cache (they are consumed either way; the caller re-caches the
        repaired result) and spliced; with none cached the component
        re-agglomerates from singletons.  Each agglomeration runs on the
        kernel :func:`~repro.core.hac_kernel.resolve_kernel` picks for the
        component.
        """
        cached: list[Dendrogram] = []
        seed_caches: list[SeedDistanceCache] = []
        seen: set[frozenset[str]] = set()
        for key in probe:
            old = self._component_of_key.get(key)
            if old is None or old in seen:
                continue
            seen.add(old)
            dendrogram = self._dendro_cache.pop(old, None)
            if dendrogram is not None:
                cached.append(dendrogram)
            seed_cache = self._seed_cache.pop(old, None)
            if seed_cache is not None:
                seed_caches.append(seed_cache)
        # ``component`` iterates in hash order; sort the collected caches
        # so the spliced merge list (and its checkpoint encoding) is a
        # deterministic function of the session state.
        cached.sort(key=lambda dendrogram: min(dendrogram.items))
        if cached:
            return splice_dendrogram(
                self._matrix,
                component,
                dirty,
                cached,
                self._linkage,
                kernel=KERNEL_AUTO,
                seed_caches=seed_caches,
                max_distance=self._horizon,
            )
        return rebuild_outcome(
            self._matrix,
            component,
            self._linkage,
            kernel=KERNEL_AUTO,
            max_distance=self._horizon,
        )

    # -- checkpointing -------------------------------------------------------

    def to_state(self) -> dict:
        """The dendrogram cache, compactly encoded, in a stable order.

        One ``"horizon"`` for the whole cache (the model's threshold
        distance; ``None`` for average linkage's full dendrograms) and one
        ``"dendrograms"`` entry per multi-key component.  A single key's
        dendrogram holds no merge, so the next refresh rebuilds it for
        nothing.
        """
        multi = [component for component in self._dendro_cache if len(component) > 1]
        entries = []
        for component in sorted(multi, key=sorted):
            entry = dendrogram_to_state(self._dendro_cache[component])
            entry.pop("horizon", None)
            entries.append(entry)
        horizon = None if math.isinf(self._horizon) else self._horizon
        return {"horizon": horizon, "dendrograms": entries}

    def restore(self, horizon: float | None, entries: list[dict]) -> None:
        """Install a :meth:`to_state` cache over the restored matrix.

        Flat clusters are re-derived by the next :meth:`refresh`, which
        finds these dendrograms by key, as it does live ones: it reuses the
        merges of a component the update left alone and redoes only the
        threshold cut, and splices the others.  A cache
        bounded at another horizon than this model's would cut or splice
        wrongly and is refused; a dendrogram with a merge above the
        horizon fails to decode (:class:`ValueError`).
        """
        recorded = math.inf if horizon is None else float(horizon)
        if recorded != self._horizon:
            raise CheckpointError(
                f"checkpoint dendrogram horizon {recorded} "
                f"differs from the session's {self._horizon}"
            )
        known = set(self._matrix.keys)
        for entry in entries:
            dendrogram = dendrogram_from_state(entry, horizon=recorded)
            if not dendrogram.items <= known:
                raise CheckpointError(
                    "checkpoint dendrogram covers keys absent from the "
                    "checkpointed groups"
                )
            if dendrogram.horizon != self._horizon:
                raise CheckpointError(
                    f"checkpoint dendrogram horizon {dendrogram.horizon} "
                    f"differs from the session's {self._horizon}"
                )
            self._dendro_cache[dendrogram.items] = dendrogram
            for key in dendrogram.items:
                self._component_of_key[key] = dendrogram.items
        self._seen_structure = self._matrix.structure_version


class ShardEngine:
    """Streaming clustering over one shard's journal.

    This is the per-stream half of the original incremental pipeline,
    extracted so a sharded session can own many of them.  The engine holds
    a cursor into its :class:`~repro.ttkv.journal.EventJournal`, closes
    write groups as the stream advances, folds them into its correlation
    matrix in place, and hands the keys the fold dirtied to its
    :class:`ComponentModel`, which re-agglomerates (or splices) only the
    connected components those keys belong to.

    Late events are handled at three depths.  One that lands inside the
    still-open trailing write group is absorbed by rewinding the extractor
    and re-feeding the re-sorted tail.  One that lands in, or just after,
    one of the last :data:`REORDER_HORIZON` closed groups is repaired: the
    engine keeps those groups retractable and remembers where each starts
    in the journal, so it retracts them with the provisional group and
    re-extracts the journal suffix from the group holding the event just
    before the insertion (an insert can bridge that group to the next).
    Anything older forces the rebuild from the whole journal.
    """

    def __init__(
        self,
        journal: EventJournal,
        *,
        window: float = DEFAULT_WINDOW,
        correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
        linkage: str = LINKAGE_COMPLETE,
        grouping: str = GROUPING_SLIDING,
    ) -> None:
        check_clustering_params(window, correlation_threshold, linkage)
        self._journal = journal
        self._window = window
        self._correlation_threshold = correlation_threshold
        self._linkage = linkage
        self._grouping = grouping
        self._reset_state()

    def _reset_state(self) -> None:
        # grouping is validated by the extractor
        self._extractor = StreamingGroupExtractor(
            self._window, grouping=self._grouping
        )
        self._cursor: JournalCursor | None = None
        self._matrix = CorrelationMatrix()
        self._closed_count = 0
        self._pending_keys: frozenset[str] = frozenset()
        # (journal position of the first event, keys) of each retained
        # closed group: the last REORDER_HORIZON ones (fewer for a while
        # after a repair bridged two of them)
        self._retained: list[tuple[int, frozenset[str]]] = []
        self._model = ComponentModel(
            self._matrix, self._window, self._correlation_threshold, self._linkage
        )

    # -- inspection ----------------------------------------------------------

    @property
    def journal(self) -> EventJournal:
        return self._journal

    @property
    def cursor_position(self) -> int:
        """Journal position of the consumed prefix (0 when fresh)."""
        return 0 if self._cursor is None else self._cursor.position

    @property
    def matrix(self) -> CorrelationMatrixView:
        """Read-only view of the engine's live correlation matrix."""
        return CorrelationMatrixView(self._matrix)

    @property
    def ready(self) -> bool:
        """Whether the engine has produced clusters at least once."""
        return self._model.ready

    @property
    def component_count(self) -> int:
        return self._model.component_count

    @property
    def cluster_key_sets(self) -> list[frozenset[str]]:
        """Current clusters as key sets, largest first (a fresh list).

        The order is maintained incrementally
        (:class:`~repro.core.ordering.SortedKeySets`) as components are
        repaired, so reading it never re-sorts.
        """
        return self._model.key_sets

    @property
    def last_order_delta(
        self,
    ) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
        """(removed, added) cluster key sets of the most recent update.

        The exact difference between the previous and current cluster
        lists — what the owning pipeline applies to its merged order so
        session-level assembly is also incremental.
        """
        return self._model.last_order_delta

    def cluster_set(self) -> ClusterSet:
        """Current clusters as a :class:`ClusterSet` (cached per update)."""
        return self._model.cluster_set()

    def needs_update(self) -> bool:
        """O(1): did this shard's journal move since the engine last read?"""
        if self._cursor is None:
            return True
        return (
            len(self._journal) != self._cursor.position
            or self._journal.epoch != self._cursor.epoch
        )

    # -- updating ------------------------------------------------------------

    def update(self) -> ShardUpdate:
        """Consume newly journaled events; recluster the dirty region."""
        started = time.perf_counter()
        rebuilt = False
        absorbed = repaired = reopen = 0
        shown: list[frozenset[str]] = []
        rewound, events, cursor = self._journal.read_flexible(self._cursor)
        if rewound:
            pending = len(self._extractor.pending_events)
            if rewound < pending or (
                rewound == pending and self._closed_count == 0
            ):
                # The reordered suffix is still inside the provisional
                # trailing group: drop it from the extractor and re-feed
                # the re-sorted tail.  The group registrations diff below
                # picks up any resulting changes.  Rewinding the *whole*
                # pending group is only sound while no group has closed
                # yet: the first pending event is what closed the previous
                # group, and the extractor cannot retract that decision.
                self._extractor.rewind(rewound)
                absorbed = rewound
            else:
                reopen = self._reopen_depth(self._cursor.position - rewound)
                if reopen:
                    # Re-extract from the first reopened group's start: at
                    # a group boundary a fresh extractor holds exactly the
                    # state the old one did.
                    self._extractor = StreamingGroupExtractor(
                        self._window, grouping=self._grouping
                    )
                    events = self._journal.events_from(self._retained[-reopen][0])
                    repaired = rewound
                else:
                    # The reorder reaches past the retractable horizon —
                    # the incremental state no longer matches the stream.
                    # Rebuild.  The old clusters enter the fresh model's
                    # removal delta; its refresh nets out the survivors.
                    shown = self._model.key_sets
                    self._reset_state()
                    rebuilt = True
                    rewound, events, cursor = self._journal.read_flexible(None)
        self._cursor = cursor

        closed_count, dirty = self._register_stream(events, reopen)
        reclustered, merges_reused, merges_recomputed, kernel_components = (
            self._model.refresh(dirty, shown=shown)
        )
        removed, added = self._model.last_order_delta
        total = self._model.component_count
        return ShardUpdate(
            stats=UpdateStats(
                events_consumed=len(events),
                groups_closed=closed_count,
                dirty_keys=len(dirty),
                components_total=total,
                components_reclustered=reclustered,
                components_reused=total - reclustered,
                rebuilt=rebuilt,
                reorders_absorbed=absorbed,
                reorders_repaired=repaired,
                shards_updated=1,
                merges_reused=merges_reused,
                merges_recomputed=merges_recomputed,
                kernel_components=kernel_components,
            ),
            changed=bool(removed or added),
            seconds=time.perf_counter() - started,
        )

    def _reopen_depth(self, position: int) -> int:
        """Retained closed groups a reorder at journal ``position`` reopens.

        The repair restarts at the group holding event ``position - 1``
        (group 0 when ``position`` is 0): the inserted events can join that
        group, or bridge it to the next, but cannot reach anything older —
        every earlier group boundary is decided by unchanged events.
        Returns 0 when that group is no longer retained (a rebuild).
        """
        starts = [first for first, _ in self._retained]
        held = bisect.bisect_right(starts, max(position - 1, 0)) - 1
        return 0 if held < 0 else len(starts) - held

    def _register_stream(
        self, events: Sequence, reopen: int = 0
    ) -> tuple[int, set[str]]:
        """Fold a sorted event run into the extractor and matrix.

        The stream half of an update: close write groups, register them
        (and the provisional trailing group) with the matrix, then compact
        every closed group older than the last :data:`REORDER_HORIZON` into
        the matrix's aggregate baseline.  ``reopen`` retained closed groups
        (a bounded-suffix repair, whose extractor was reset to the first
        one's start) are retracted with the provisional group.  Returns
        ``(groups_closed, dirty_keys)``.
        """
        base = self._closed_count - reopen
        kept = len(self._retained) - reopen
        removed = [
            (base + offset, members)
            for offset, (_, members) in enumerate(self._retained[kept:])
        ]
        if self._pending_keys:
            removed.append((self._closed_count, self._pending_keys))
        del self._retained[kept:]
        closed = self._extractor.feed_many(events)
        new_pending = self._extractor.pending_keys

        # Desired registrations for group indices >= base.  The matrix
        # nets retracted against registered key sets, so a group that
        # closed or was re-extracted unchanged dirties nothing, whatever
        # index it moved to.
        desired = [(base + offset, group.keys) for offset, group in enumerate(closed)]
        closed_through = base + len(closed)
        if new_pending:
            desired.append((closed_through, new_pending))
        # The retracted groups held indices base .. base + span - 1.
        span = len(removed)
        folded = len(closed) - REORDER_HORIZON
        if folded - span >= STREAM_BATCH_MIN and desired[:span] == removed:
            # The retracted groups came back unchanged at their own
            # indices (the usual case: the provisional group closed as it
            # was), so nothing is retracted.  Count the bulk run of final
            # groups after them, all but the retained ones, straight into
            # the matrix's aggregate baseline (vectorized when numpy is
            # present).  With a real retraction the step stays one netted
            # update_groups call, so no transient pair loss bumps
            # structure_version and voids caches.
            dirty = self._matrix.observe_groups_batch(
                base + span, [members for _, members in desired[span:folded]]
            )
            dirty |= self._matrix.update_groups(added=desired[folded:])
        else:
            dirty = self._matrix.update_groups(added=desired, removed=removed)
        # the stream is fed up to the cursor, so the last closed group ends
        # where the extractor's buffered events begin
        self._retained.extend(
            _located(
                closed[-REORDER_HORIZON:],
                self._cursor.position - len(self._extractor.pending_events),
            )
        )
        del self._retained[:-REORDER_HORIZON]
        self._closed_count = closed_through
        self._pending_keys = new_pending
        self._matrix.compact(closed_through - REORDER_HORIZON)
        return len(closed), dirty

    # -- checkpointing -------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-safe snapshot: cursor, group registrations, pending events.

        Values inside pending events must be JSON-serialisable (the same
        contract the persistence log imposes); deletions are encoded via
        their op tag.  The first and last consumed events are recorded as
        a fingerprint of the consumed prefix, so :meth:`restore` can
        refuse a store holding a different stream.

        The per-component dendrogram cache rides along (compactly encoded
        via :func:`~repro.core.dendro_repair.dendrogram_to_state`), so a
        resumed session keeps splicing instead of paying one wholesale
        re-agglomeration per component to rebuild it.

        An engine that has read nothing, or whose consumed prefix an
        unread out-of-order event has since reached into, is written as
        ``{"cursor": None}``: the fingerprint and retained groups would
        describe the reordered journal, not the stream the engine folded.
        :meth:`restore` then re-reads the whole journal, which is exact.
        """
        if self._cursor is None or self._journal.reorder_depth(self._cursor):
            return {"cursor": None}
        position = self._cursor.position
        return {
            "cursor": self._cursor.to_state(),
            "closed_count": self._closed_count,
            "head": (
                encode_event(self._journal.event_at(0)) if position else None
            ),
            "tail": (
                encode_event(self._journal.event_at(position - 1))
                if position
                else None
            ),
            "pending": [
                encode_event(event) for event in self._extractor.pending_events
            ],
            # older closed groups live compacted in the aggregate baseline;
            # "groups" holds only the retractable tail (the retained closed
            # groups and the provisional one), so the checkpoint is
            # O(live keys) however long the session ran
            "compacted": self._matrix.compacted_state(),
            "groups": [
                [index, sorted(members)]
                for index, members in sorted(self._matrix.observed_groups().items())
            ],
            "starts": [first for first, _ in self._retained],
            **self._model.to_state(),
        }

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`to_state` snapshot.

        The shard journal must hold the same consumed prefix the snapshot
        was taken over (a deployment re-opening its persisted store does);
        the cursor's epoch is re-based onto the journal's current one, so
        only *future* reorders can disturb the session.  Clusters are
        re-derived from the restored matrix on the next :meth:`update` —
        no consumed event is ever read again.

        A snapshot that does not match the journal raises
        :class:`~repro.exceptions.CheckpointError`; a malformed value
        surfaces as the parse's own ``KeyError``/``TypeError``/
        ``ValueError``, which :meth:`ShardedPipeline.from_state` reports
        as :class:`~repro.exceptions.CorruptCheckpointError`.
        """
        cursor_state = state["cursor"]
        if cursor_state is None:
            self._reset_state()
            return
        cursor = JournalCursor.from_state(cursor_state)
        if cursor.position > len(self._journal):
            raise CheckpointError(
                f"checkpoint cursor at {cursor.position} but the shard "
                f"journal only holds {len(self._journal)} events; the "
                "store does not match the checkpointed deployment"
            )
        if cursor.position:
            for label, index in (("head", 0), ("tail", cursor.position - 1)):
                recorded = state[label]
                if decode_event(recorded) != self._journal.event_at(index):
                    raise CheckpointError(
                        f"checkpoint {label} event {recorded!r} does not "
                        "match the store's journal; the store holds a "
                        "different stream than the checkpointed deployment"
                    )
        self._reset_state()
        self._cursor = JournalCursor(cursor.position, self._journal.epoch)
        self._closed_count = int(state["closed_count"])
        pending_events = [decode_event(entry) for entry in state["pending"]]
        self._extractor.feed_many(pending_events)
        self._pending_keys = self._extractor.pending_keys
        groups = [(int(index), members) for index, members in state["groups"]]
        for index, members in groups:
            if index > self._closed_count:
                raise CheckpointError(
                    f"checkpoint group index {index} exceeds the closed "
                    f"count {self._closed_count}"
                )
            if index == self._closed_count and frozenset(members) != self._pending_keys:
                raise CheckpointError(
                    "checkpoint provisional group does not match its "
                    "pending events"
                )
        self._retained = self._restore_retained(
            [int(first) for first in state["starts"]],
            {index: frozenset(members) for index, members in groups},
            cursor.position - len(pending_events),
        )
        if groups:
            self._matrix.update_groups(added=groups)
        compacted = state["compacted"]
        if compacted is not None:
            self._matrix.install_compacted(compacted)
        self._model.restore(state["horizon"], state["dendrograms"])

    def _restore_retained(
        self,
        starts: list[int],
        groups: dict[int, frozenset[str]],
        pending_start: int,
    ) -> list[tuple[int, frozenset[str]]]:
        """Check a checkpoint's retained closed groups against the journal.

        A live engine retains the last closed groups — at most
        :data:`REORDER_HORIZON`, fewer after a repair bridged two of them —
        and re-extracting the journal from the first one's start reproduces
        them at their recorded starts.  A resumed session whose checkpoint
        passes both checks repairs exactly where the live one would.
        """
        first = self._closed_count - len(starts)
        closed = sorted(index for index in groups if index < self._closed_count)
        if len(starts) > REORDER_HORIZON or closed != list(
            range(first, self._closed_count)
        ):
            raise CheckpointError(
                f"checkpoint keeps {len(closed)} closed group(s) with "
                f"{len(starts)} start position(s); expected one start per "
                f"retained group, at most {REORDER_HORIZON}"
            )
        if not starts:
            return []
        replay = StreamingGroupExtractor(self._window, grouping=self._grouping)
        span = self._journal.events_from(starts[0])[: max(0, pending_start - starts[0])]
        replayed = replay.feed_many(span)
        trailing = replay.flush()
        if trailing is not None:
            replayed.append(trailing)
        retained = [(start, groups[first + offset]) for offset, start in enumerate(starts)]
        if _located(replayed, pending_start) != retained:
            raise CheckpointError(
                "checkpoint retained groups do not match the store's journal"
            )
        return retained


def _located(
    groups: list[WriteGroup], end: int
) -> list[tuple[int, frozenset[str]]]:
    """``(journal position of the first event, keys)`` of consecutive
    groups whose last one ends just before journal position ``end``."""
    located = []
    for group in reversed(groups):
        end -= len(group.events)
        located.append((end, group.keys))
    located.reverse()
    return located


class ShardedPipeline:
    """Live clustering session sharded by application key prefix.

    Construct it over a store with the application prefixes to shard on,
    then call :meth:`update` whenever new modifications may have been
    recorded.  Only shards whose journals advanced do any work; the merged
    :class:`ClusterSet` over all shards is returned (largest clusters
    first, deterministic order), and per-shard results are available via
    :meth:`cluster_set_for`.

    Every shard's clusters equal the batch reference restricted to that
    prefix: ``cluster_settings(store, key_filter=prefix, ...)``.  Keys
    matching no prefix belong to the catch-all shard (disable it with
    ``catch_all=False`` to drop them, reproducing a filtered deployment).

    Parameters mirror ``cluster_settings``; ``window``,
    ``correlation_threshold``, ``linkage``, ``key_filter``, ``grouping``,
    ``shard_prefixes`` and ``catch_all`` may all be reassigned between
    updates — the change is detected and the session restarts over the
    full stream.

    Each engine splices dirty components' cached dendrograms
    (:mod:`repro.core.dendro_repair`) and picks the agglomeration kernel
    per component (:mod:`repro.core.hac_kernel`); ``last_stats`` reports
    the merges reused and recomputed and the kernel dispatch.

    Sessions checkpoint to JSON-safe dicts (:meth:`to_state`) and resume
    (:meth:`from_state`) without re-reading consumed journal events.
    """

    def __init__(
        self,
        store: TTKV,
        shard_prefixes: tuple[str, ...] | list[str] = (),
        *,
        window: float = DEFAULT_WINDOW,
        correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
        linkage: str = LINKAGE_COMPLETE,
        key_filter: str | None = None,
        grouping: str = GROUPING_SLIDING,
        catch_all: bool = True,
    ) -> None:
        self.store = store
        self.shard_prefixes = tuple(shard_prefixes)
        self.catch_all = catch_all
        self.window = window
        self.correlation_threshold = correlation_threshold
        self.linkage = linkage
        self.key_filter = key_filter
        self.grouping = grouping
        self.last_stats: UpdateStats | None = None
        self._journal_view: ShardedJournal | None = None
        self._reset()

    def _params(self) -> tuple:
        return (
            self.window,
            self.correlation_threshold,
            self.linkage,
            self.key_filter,
            self.grouping,
            tuple(self.shard_prefixes),
            self.catch_all,
        )

    def _check_params(self) -> tuple[str, ...]:
        """Validate the current parameters; return the shard ids they give."""
        check_clustering_params(
            self.window, self.correlation_threshold, self.linkage
        )
        StreamingGroupExtractor(self.window, grouping=self.grouping)
        return shard_ids_for(self.shard_prefixes, self.catch_all)

    def _reset(self) -> None:
        # every parameter is validated before any journal is attached
        self._check_params()
        if self._journal_view is not None:
            self._journal_view.detach()
        self._journal_view = ShardedJournal(
            self.store.journal,
            self.shard_prefixes,
            catch_all=self.catch_all,
            key_filter=self.key_filter,
        )
        self._engines = {
            shard_id: ShardEngine(
                self._journal_view.shard(shard_id),
                window=self.window,
                correlation_threshold=self.correlation_threshold,
                linkage=self.linkage,
                grouping=self.grouping,
            )
            for shard_id in self._journal_view.shard_ids
        }
        self._active_params = self._params()
        # a fresh session has read nothing, even from an empty journal
        self._journal_view.advanced = True
        self._order = SortedKeySets()
        self._cluster_set: ClusterSet | None = None

    # -- public API ----------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """All shard ids (the prefixes, plus ``""`` for the catch-all)."""
        return tuple(self._engines)

    @property
    def cluster_set(self) -> ClusterSet | None:
        """Merged clusters from the most recent :meth:`update`."""
        return self._cluster_set

    def cluster_set_for(self, shard_id: str) -> ClusterSet:
        """One shard's clusters (equal to batch with ``key_filter=prefix``)."""
        return self._engine(shard_id).cluster_set()

    def matrix_for(self, shard_id: str) -> CorrelationMatrixView:
        """Read-only view of one shard's live correlation matrix."""
        return self._engine(shard_id).matrix

    def needs_update(self) -> bool:
        """O(1): would :meth:`update` do any work right now?

        True when a parameter was retuned (the next update restarts the
        session), when an event landed in a shard since the last update
        read them, or when the session has not produced clusters yet (a
        fresh or restored session starts stale).  The shard router sets
        the flag on every routed append; dropped keys leave it alone.
        The fleet driver reads this to skip machines whose streams are
        quiet.
        """
        return (
            self._journal_view.advanced or self._params() != self._active_params
        )

    @property
    def pending_events(self) -> int:
        """Journaled events not yet consumed by any shard engine."""
        return sum(
            len(engine.journal) - engine.cursor_position
            for engine in self._engines.values()
        )

    def pairwise_counts(
        self,
    ) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """This machine's correlation evidence, summed over all shards.

        The union of every shard matrix's
        :meth:`~repro.core.correlation.CorrelationMatrix.pairwise_counts`
        — shards partition the key space, so the per-shard dicts are
        disjoint and the sum is a plain merge.  This is the snapshot a
        :class:`~repro.fleet.merge.FleetCorrelationMerge` diffs between
        updates to produce count deltas.
        """
        counts: dict[str, int] = {}
        common: dict[tuple[str, str], int] = {}
        for engine in self._engines.values():
            shard_counts, shard_common = engine.matrix.pairwise_counts()
            for key, count in shard_counts.items():
                counts[key] = counts.get(key, 0) + count
            for pair, count in shard_common.items():
                common[pair] = common.get(pair, 0) + count
        return counts, common

    def _engine(self, shard_id: str) -> ShardEngine:
        try:
            return self._engines[shard_id]
        except KeyError:
            raise KeyError(
                f"no shard {shard_id!r}; shards: {list(self._engines)}"
            ) from None

    def close(self) -> None:
        """Detach from the store's journal (the session stops tracking it)."""
        if self._journal_view is not None:
            self._journal_view.detach()

    def update(self) -> ClusterSet:
        """Consume newly journaled events and return the merged clusters.

        Shards whose journals did not advance are skipped entirely — their
        engines are not even asked to read.  The shards that did advance
        are updated in order in the calling thread; per-shard wall times
        land in ``last_stats.shard_timings``.  Retuning any constructor parameter
        between calls restarts the session over the full stream, exactly
        like the unsharded pipeline.  When an engine update raises, the
        shards updated before it keep their results, :attr:`cluster_set`
        reflects them, and :meth:`needs_update` stays true.
        """
        session_rebuilt = False
        if self._params() != self._active_params:
            self._reset()
            session_rebuilt = True
        events = groups = dirty = total = reclustered = reused = absorbed = 0
        repaired = 0
        merges_reused = merges_recomputed = kernel_components = 0
        engine_rebuilt = False
        changed = False
        # cleared before any shard is read, so an append racing this
        # update marks the session stale again; a failed engine update
        # sets it back (its shard is still unread)
        self._journal_view.advanced = False
        pending: list[tuple[str, ShardEngine]] = []
        for shard_id, engine in self._engines.items():
            if engine.ready and not engine.needs_update():
                count = engine.component_count
                total += count
                reused += count
            else:
                pending.append((shard_id, engine))
        shard_timings: dict[str, float] = {}
        try:
            for shard_id, engine in pending:
                result = engine.update()
                shard_timings[shard_id] = result.seconds
                events += result.stats.events_consumed
                groups += result.stats.groups_closed
                dirty += result.stats.dirty_keys
                total += result.stats.components_total
                reclustered += result.stats.components_reclustered
                reused += result.stats.components_reused
                absorbed += result.stats.reorders_absorbed
                repaired += result.stats.reorders_repaired
                merges_reused += result.stats.merges_reused
                merges_recomputed += result.stats.merges_recomputed
                kernel_components += result.stats.kernel_components
                engine_rebuilt = engine_rebuilt or result.stats.rebuilt
                changed = changed or result.changed
                # applied per engine: a later engine's failure must not
                # lose the delta of one that already moved its cursor
                removed, added = engine.last_order_delta
                for key_set in removed:
                    self._order.remove(key_set)
                for key_set in added:
                    self._order.add(key_set)
        except BaseException:
            self._journal_view.advanced = True
            if changed:
                self._assemble()
            raise
        if changed or self._cluster_set is None:
            self._assemble()
        self.last_stats = UpdateStats(
            events_consumed=events,
            groups_closed=groups,
            dirty_keys=dirty,
            components_total=total,
            components_reclustered=reclustered,
            components_reused=reused,
            rebuilt=session_rebuilt or engine_rebuilt,
            reorders_absorbed=absorbed,
            reorders_repaired=repaired,
            shards_updated=len(pending),
            shards_total=len(self._engines),
            shard_timings=shard_timings,
            slowest_shard=(
                max(shard_timings, key=shard_timings.__getitem__)
                if shard_timings
                else None
            ),
            merges_reused=merges_reused,
            merges_recomputed=merges_recomputed,
            kernel_components=kernel_components,
        )
        return self._cluster_set

    def _assemble(self) -> None:
        # the merged order is maintained incrementally from the engines'
        # deltas — no cross-shard re-sort per update
        self._cluster_set = ClusterSet.from_key_sets(
            self._order.as_key_sets(),
            window=self.window,
            correlation_threshold=self.correlation_threshold,
        )

    # -- checkpointing -------------------------------------------------------

    def to_state(self) -> dict:
        """The whole session as a JSON-safe dict (parameters + per-shard).

        Pair with :meth:`from_state` to survive a deployment restart: the
        restarted process re-opens its persisted store, restores the
        session, and the next :meth:`update` consumes only events the
        checkpointed session had not read.

        Between a retune and the next :meth:`update` the shards still hold
        state built under the old parameters, and that update would
        restart the session.  The checkpoint records that restart: the new
        parameters (validated as :meth:`update` would) over shards that
        have read nothing.
        """
        if self._params() != self._active_params:
            shards = {
                shard_id: {"cursor": None}
                for shard_id in self._check_params()
            }
        else:
            shards = {
                shard_id: engine.to_state()
                for shard_id, engine in self._engines.items()
            }
        return {
            "version": STATE_VERSION,
            "params": {
                "window": self.window,
                "correlation_threshold": self.correlation_threshold,
                "linkage": self.linkage,
                "key_filter": self.key_filter,
                "grouping": self.grouping,
                "shard_prefixes": list(self.shard_prefixes),
                "catch_all": self.catch_all,
            },
            "shards": shards,
        }

    @classmethod
    def from_state(cls, store: TTKV, state: dict) -> "ShardedPipeline":
        """Rebuild a session over ``store`` from :meth:`to_state` output.

        ``store`` must hold (at least) the journal the checkpointed
        session had consumed — a deployment re-opening its persisted TTKV
        satisfies this.  Always returns a :class:`ShardedPipeline`, with
        the checkpoint's parameters (not the defaults of ``cls``).

        Every failure is a :class:`~repro.exceptions.CheckpointError`: an
        unsupported version or a checkpoint that does not match ``store``
        raises it directly, a truncated or malformed one raises its
        :class:`~repro.exceptions.CorruptCheckpointError` subclass.
        """
        version = state.get("version")
        if version not in SUPPORTED_STATE_VERSIONS:
            raise CheckpointError(
                f"unsupported session state version {version!r} "
                f"(expected one of {SUPPORTED_STATE_VERSIONS})"
            )
        try:
            params = state["params"]
            pipeline = ShardedPipeline(
                store,
                shard_prefixes=tuple(params["shard_prefixes"]),
                window=params["window"],
                correlation_threshold=params["correlation_threshold"],
                linkage=params["linkage"],
                key_filter=params["key_filter"],
                grouping=params["grouping"],
                catch_all=params["catch_all"],
            )
            shards = state["shards"]
        except (KeyError, TypeError, AttributeError, ValueError) as error:
            # a truncated/hand-damaged checkpoint loses fields: surface
            # one typed error instead of the parse's bare KeyError
            raise CorruptCheckpointError(
                f"session checkpoint (version {version}) is truncated or "
                f"corrupt: missing/invalid field {error!r}"
            ) from error
        if set(shards) != set(pipeline._engines):
            raise CheckpointError(
                f"checkpoint shards {sorted(shards)} do not match the "
                f"configured shards {sorted(pipeline._engines)}"
            )
        for shard_id, shard_state in shards.items():
            try:
                pipeline._engines[shard_id].restore(shard_state)
            except CheckpointError:
                raise
            except (KeyError, TypeError, AttributeError, ValueError) as error:
                raise CorruptCheckpointError(
                    f"shard {shard_id!r} checkpoint (version {version}) is "
                    f"truncated or corrupt: missing/invalid field {error!r}"
                ) from error
        return pipeline
