"""Incremental clustering: stream events into live clusters.

Ocasta runs clustering *continuously* alongside logging; recomputing the
whole pipeline per update would be O(trace) every time.  An
:class:`IncrementalPipeline` instead keeps the full pipeline state live —
it is the single-stream specialisation of the sharded engine in
:mod:`repro.core.sharded` (one catch-all shard), so one ``update()`` costs:

1. O(new events) ingestion — modifications are pulled from the TTKV's
   append-ordered journal via a cursor (no re-sort, no re-scan of consumed
   events); an out-of-order logger race that lands inside the still-open
   trailing write group is absorbed by rewinding that group (an O(buffer)
   fixup), and only older reorders force a rebuild;
2. a :class:`~repro.core.windowing.StreamingGroupExtractor` closes write
   groups as the stream advances, keeping the trailing group *provisional*
   (a future event may still extend it);
3. the :class:`~repro.core.correlation.CorrelationMatrix` is updated in
   place — only pairs involving keys of touched groups change — and its
   incremental union-find keeps connected components maintained at O(α)
   per co-occurrence;
4. only components containing a *dirty* key are re-agglomerated, found
   directly through the union-find instead of a scan over all live keys;
   every other component's flat clusters are reused from cache.

The result after every :meth:`IncrementalPipeline.update` equals what the
batch :func:`~repro.core.pipeline.cluster_settings` would produce from the
same store — the property-based equivalence tests pin this for arbitrary
prefixes of arbitrary event streams.  Deployments hosting several
applications should use :class:`~repro.core.sharded.ShardedPipeline`
directly: one engine per application prefix, updates only where the
journal advanced, and JSON checkpoint/resume.

Example::

    >>> from repro.ttkv.store import TTKV
    >>> from repro.core.incremental import IncrementalPipeline
    >>> store = TTKV()
    >>> live = IncrementalPipeline(store)
    >>> store.record_write("app/feature_on", True, 10.0)
    >>> store.record_write("app/feature_level", 3, 10.0)
    >>> [c.sorted_keys() for c in live.update()]
    [['app/feature_level', 'app/feature_on']]
    >>> store.record_write("app/theme", "dark", 500.0)
    >>> [c.sorted_keys() for c in live.update()]
    [['app/feature_level', 'app/feature_on'], ['app/theme']]
"""

from __future__ import annotations

from repro.core.clustering import LINKAGE_COMPLETE
from repro.core.correlation import CorrelationMatrixView
from repro.core.dendro_repair import REPAIR_SPLICE
from repro.core.hac_kernel import KERNEL_AUTO
from repro.core.sharded import ShardedPipeline, UpdateStats
from repro.core.windowing import GROUPING_SLIDING
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import TTKV

__all__ = ["ClusterSession", "IncrementalPipeline", "UpdateStats"]


class IncrementalPipeline(ShardedPipeline):
    """Live clustering session over a growing TTKV (single stream).

    Construct it once over a store, then call :meth:`update` whenever new
    modifications may have been recorded; it returns the current
    :class:`~repro.core.cluster_model.ClusterSet`, identical to a batch
    :func:`~repro.core.pipeline.cluster_settings` run over the store's full
    event stream with the same parameters.

    This is a :class:`~repro.core.sharded.ShardedPipeline` with exactly one
    catch-all shard — the right tool when the store effectively holds one
    application (possibly selected via ``key_filter``).  Machines hosting
    many applications should shard per application prefix instead.

    Parameters mirror ``cluster_settings``: ``window`` (seconds),
    ``correlation_threshold`` (in ``(0, 2]``), ``linkage``, an optional
    ``key_filter`` prefix, and ``grouping`` (``sliding`` or ``buckets``).

    >>> from repro.ttkv.store import TTKV
    >>> store = TTKV()
    >>> live = IncrementalPipeline(store, window=1.0, correlation_threshold=2.0)
    >>> for t in (10.0, 75.0, 300.0):
    ...     store.record_write("editor/font", f"serif@{t}", t)
    ...     store.record_write("editor/size", t, t)
    >>> [c.sorted_keys() for c in live.update()]
    [['editor/font', 'editor/size']]
    >>> live.last_stats.components_reclustered
    1
    """

    def __init__(
        self,
        store: TTKV,
        window: float = 1.0,
        correlation_threshold: float = 2.0,
        linkage: str = LINKAGE_COMPLETE,
        key_filter: str | None = None,
        grouping: str = GROUPING_SLIDING,
        repair_mode: str = REPAIR_SPLICE,
        kernel: str = KERNEL_AUTO,
    ) -> None:
        super().__init__(
            store,
            shard_prefixes=(),
            window=window,
            correlation_threshold=correlation_threshold,
            linkage=linkage,
            key_filter=key_filter,
            grouping=grouping,
            catch_all=True,
            repair_mode=repair_mode,
            kernel=kernel,
        )

    @property
    def matrix(self) -> CorrelationMatrixView:
        """Read-only view of the live correlation matrix.

        Mutators raise: the matrix is owned by the session, and mutating
        it directly would silently desynchronise the incremental state
        from the journal cursor.
        """
        return self.matrix_for(CATCH_ALL)


#: Back-compat-friendly alias: an :class:`IncrementalPipeline` *is* the
#: live clustering session the paper's recording mode maintains.
ClusterSession = IncrementalPipeline
