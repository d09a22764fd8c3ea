"""Ocasta's core: write-group extraction, correlation, clustering, search.

The high-level entry point is :func:`repro.core.pipeline.cluster_settings`,
which turns a TTKV into a :class:`~repro.core.cluster_model.ClusterSet`
using the paper's defaults (1-second sliding window, complete-linkage HAC,
correlation threshold 2).
"""

from repro.core.windowing import (
    StreamingGroupExtractor,
    WriteGroup,
    extract_write_groups,
    key_group_sets,
)
from repro.core.correlation import (
    CorrelationMatrix,
    CorrelationMatrixView,
    correlation,
    correlation_to_distance,
    distance_to_correlation,
)
from repro.core.unionfind import UnionFind
from repro.core.dendrogram import Dendrogram, Merge
from repro.core.clustering import (
    agglomerate_clusters,
    component_clusters,
    hac_complete_linkage,
)
from repro.core.dendro_repair import (
    SpliceOutcome,
    build_dendrogram,
    splice_dendrogram,
)
from repro.core.hac_kernel import (
    KERNEL_AUTO,
    KERNEL_NAMES,
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    check_kernel,
    numpy_available,
)
from repro.core.cluster_model import (
    Cluster,
    ClusterSet,
    ClusterVersion,
    cluster_versions,
)
from repro.core.pipeline import cluster_settings, singleton_clusters
from repro.core.sharded import ShardEngine, ShardedPipeline, UpdateStats
from repro.core.sorting import sort_clusters_for_search
from repro.core.search import Candidate, SearchStrategy, search_order
from repro.core.accuracy import (
    ClusterVerdict,
    classify_cluster,
    evaluate_clustering,
)
from repro.core.repair import RepairEngine, RepairOutcome

__all__ = [
    "StreamingGroupExtractor",
    "WriteGroup",
    "extract_write_groups",
    "key_group_sets",
    "CorrelationMatrix",
    "CorrelationMatrixView",
    "UnionFind",
    "correlation",
    "correlation_to_distance",
    "distance_to_correlation",
    "Dendrogram",
    "Merge",
    "hac_complete_linkage",
    "agglomerate_clusters",
    "component_clusters",
    "SpliceOutcome",
    "build_dendrogram",
    "splice_dendrogram",
    "KERNEL_AUTO",
    "KERNEL_NAMES",
    "KERNEL_NUMPY",
    "KERNEL_PYTHON",
    "check_kernel",
    "numpy_available",
    "UpdateStats",
    "ShardEngine",
    "ShardedPipeline",
    "Cluster",
    "ClusterSet",
    "ClusterVersion",
    "cluster_versions",
    "cluster_settings",
    "singleton_clusters",
    "sort_clusters_for_search",
    "Candidate",
    "SearchStrategy",
    "search_order",
    "ClusterVerdict",
    "classify_cluster",
    "evaluate_clustering",
    "RepairEngine",
    "RepairOutcome",
]
