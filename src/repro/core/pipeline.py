"""End-to-end **batch** clustering pipeline: TTKV -> ClusterSet.

This is the one-shot entry point for the paper's contribution::

    from repro import cluster_settings
    clusters = cluster_settings(ttkv)                 # paper defaults
    clusters = cluster_settings(ttkv, window=30.0,    # tuned, as for
                                correlation_threshold=1.0)  # error #2

For clustering that runs continuously alongside logging, use
:class:`repro.core.sharded.ShardedPipeline`, which produces identical
clusters while consuming only newly appended events per update;
this batch function is kept as the independent reference implementation the
incremental path is property-tested against.
"""

from __future__ import annotations

from repro.core.clustering import LINKAGE_COMPLETE, flat_clusters
from repro.core.cluster_model import Cluster, ClusterSet
from repro.core.correlation import CorrelationMatrix
from repro.core.windowing import (
    extract_fixed_buckets,
    extract_write_groups,
    key_group_sets,
)
from repro.ttkv.store import TTKV

#: The paper's defaults: 1-second sliding window, correlation threshold 2.
DEFAULT_WINDOW = 1.0
DEFAULT_CORRELATION_THRESHOLD = 2.0


def cluster_settings(
    store: TTKV,
    window: float = DEFAULT_WINDOW,
    correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
    linkage: str = LINKAGE_COMPLETE,
    key_filter: str | None = None,
    grouping: str = "sliding",
) -> ClusterSet:
    """Cluster an application's configuration settings from its TTKV trace.

    Parameters
    ----------
    store:
        The TTKV holding the recorded modification history.
    window:
        Sliding time window in seconds (default 1, the paper's minimum —
        also the collector's timestamp precision).
    correlation_threshold:
        Stop clustering once the correlation between clusters drops below
        this value; 2 clusters only keys *always* modified together.
    linkage:
        ``complete`` (paper), ``single`` or ``average`` (ablations).
    key_filter:
        Optional prefix; only keys starting with it are clustered.  Used to
        restrict a shared trace to a single application's settings.
    grouping:
        ``sliding`` (paper) or ``buckets`` (ablation).

    Keys that were never modified are excluded — they cannot cause a
    configuration error (§III-A).
    """
    events = store.write_events()
    if key_filter is not None:
        events = [e for e in events if e[1].startswith(key_filter)]
    if grouping == "sliding":
        groups = extract_write_groups(events, window)
    elif grouping == "buckets":
        groups = extract_fixed_buckets(events, window)
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    key_groups = key_group_sets(groups)
    matrix = CorrelationMatrix(key_groups)
    key_sets = flat_clusters(
        matrix, correlation_threshold=correlation_threshold, linkage=linkage
    )
    return ClusterSet.from_key_sets(
        key_sets, window=window, correlation_threshold=correlation_threshold
    )


def singleton_clusters(store: TTKV, key_filter: str | None = None) -> ClusterSet:
    """The Ocasta-NoClust baseline: every modified key is its own cluster.

    This is the comparison system of Table IV — it "rolls back a single
    configuration setting at a time", so it cannot fix errors that require
    changing several settings together.
    """
    keys = store.modified_keys()
    if key_filter is not None:
        keys = [k for k in keys if k.startswith(key_filter)]
    key_sets = [frozenset((key,)) for key in sorted(keys)]
    return ClusterSet.from_key_sets(
        key_sets, window=0.0, correlation_threshold=2.0
    )


def rebuild_cluster(cluster_set: ClusterSet, keys: frozenset[str]) -> Cluster:
    """Utility for tests/tools: find the cluster equal to ``keys``."""
    for cluster in cluster_set:
        if cluster.keys == keys:
            return cluster
    raise LookupError(f"no cluster with keys {sorted(keys)}")
