"""Hierarchical agglomerative clustering with the maximum linkage criterion.

From-scratch implementation (the paper used the de Hoon C clustering
library; tests validate this implementation against SciPy on dense inputs).

Ocasta's distance structure is sparse — a pair of keys that never
co-modified has infinite distance — so complete-linkage merges can never
cross connected components of the finite-distance graph.  The implementation
exploits this: it finds components first and runs the O(n²·log n)-ish
agglomeration inside each, which keeps whole-application clustering fast
even with hundreds of keys.

Linkage updates use the Lance–Williams rule for complete linkage::

    d(k, i ∪ j) = max(d(k, i), d(k, j))

with the convention that a missing entry means infinite distance, so the
``max`` with a missing entry is infinite and the pair simply never merges.

Agglomeration is *deterministic under distance ties*: when two candidate
merges have equal linkage distance, the pair whose clusters contain the
lexicographically smallest keys wins.  The tie-break depends only on the
current partition and the distance structure — not on the order in which
clusters were created — so continuing an agglomeration from a partially
merged state (:func:`agglomerate_clusters`, the basis of the spliced
dendrogram repair in :mod:`repro.core.dendro_repair`) reproduces exactly
the merges a from-scratch run performs.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

from repro.core.correlation import CorrelationMatrix, correlation_to_distance
from repro.core.dendrogram import Dendrogram, Merge
from repro.core.hac_kernel import (
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    resolve_kernel,
)
from repro.core import hac_kernel

#: maximum-linkage a.k.a. complete linkage (the paper's choice)
LINKAGE_COMPLETE = "complete"
LINKAGE_SINGLE = "single"
LINKAGE_AVERAGE = "average"

_LINKAGES = (LINKAGE_COMPLETE, LINKAGE_SINGLE, LINKAGE_AVERAGE)


def check_linkage(linkage: str) -> str:
    """Validate a linkage name (returns it unchanged)."""
    if linkage not in _LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; options: {_LINKAGES}")
    return linkage


def check_clustering_params(
    window: float, correlation_threshold: float, linkage: str
) -> None:
    """Validate the parameters every clustering session is built from.

    The one check shared by the per-machine engines and pipelines and the
    fleet merge.  The window rule is the one
    :class:`~repro.core.windowing.StreamingGroupExtractor` applies; the
    threshold is the paper's correlation scale, where 2 means "always
    modified together".
    """
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    check_correlation_threshold(correlation_threshold)
    check_linkage(linkage)


def check_correlation_threshold(correlation_threshold: float) -> None:
    """The paper's correlation scale: a threshold must lie in ``(0, 2]``."""
    if not 0.0 < correlation_threshold <= 2.0:
        raise ValueError(
            "correlation threshold must lie in (0, 2], "
            f"got {correlation_threshold}"
        )


def hac_complete_linkage(matrix: CorrelationMatrix) -> Dendrogram:
    """Cluster the matrix's keys with complete linkage; full dendrogram.

    Only merges at finite distance are recorded; cutting the dendrogram at
    any threshold therefore never joins keys with zero correlation paths.
    """
    return hac(matrix, linkage=LINKAGE_COMPLETE)


def hac(
    matrix: CorrelationMatrix,
    linkage: str = LINKAGE_COMPLETE,
    *,
    kernel: str = KERNEL_PYTHON,
) -> Dendrogram:
    """Agglomerate with the requested linkage criterion.

    ``single`` and ``average`` exist for the linkage ablation benchmark;
    the paper (and all defaults in this library) use ``complete``.

    ``kernel`` selects the agglomeration implementation per component
    (see :mod:`repro.core.hac_kernel`): the default keeps this function
    the pure-Python reference; ``"auto"``/``"numpy"`` dispatch large
    components to the numpy kernel, which produces bit-identical merges.
    """
    check_linkage(linkage)
    merges: list[Merge] = []
    for component in matrix.connected_components():
        if len(component) > 1:
            merges.extend(
                agglomerate_component(matrix, component, linkage, kernel=kernel)
            )
    merges.sort(key=lambda merge: merge.distance)
    return Dendrogram(frozenset(matrix.keys), merges)


def component_clusters(
    matrix: CorrelationMatrix,
    component: frozenset[str] | set[str],
    correlation_threshold: float,
    linkage: str = LINKAGE_COMPLETE,
    *,
    kernel: str = KERNEL_PYTHON,
) -> list[frozenset[str]]:
    """Flat clusters of one connected component at a correlation threshold.

    Complete/single/average-linkage merges never cross components of the
    finite-distance graph, so clustering a component in isolation yields
    exactly the clusters a whole-matrix :func:`flat_clusters` run would
    produce for those keys.  It is the wholesale reference for the
    streaming tiers, which repair dirty components through
    :class:`~repro.core.sharded.ComponentModel` instead.

    >>> from repro.core.correlation import CorrelationMatrix
    >>> matrix = CorrelationMatrix({
    ...     "a": {0, 1}, "b": {0, 1},   # always together: correlation 2
    ...     "c": {2},                   # co-modified with nothing
    ... })
    >>> [sorted(c) for c in component_clusters(matrix, {"a", "b"}, 2.0)]
    [['a', 'b']]
    >>> [sorted(c) for c in component_clusters(matrix, {"c"}, 2.0)]
    [['c']]
    """
    check_linkage(linkage)
    if len(component) == 1:
        return [frozenset(component)]
    merges = agglomerate_component(matrix, set(component), linkage, kernel=kernel)
    merges.sort(key=lambda merge: merge.distance)
    dendrogram = Dendrogram(frozenset(component), merges)
    return dendrogram.cut(correlation_to_distance(correlation_threshold))


def agglomerate_component(
    matrix: CorrelationMatrix,
    component: set[str],
    linkage: str,
    *,
    kernel: str = KERNEL_PYTHON,
) -> list[Merge]:
    """HAC restricted to one connected component (singleton seeds)."""
    return agglomerate_clusters(
        matrix,
        [frozenset((key,)) for key in sorted(component)],
        linkage,
        kernel=kernel,
    )


def seed_distances(
    matrix: CorrelationMatrix,
    clusters: Sequence[frozenset[str]],
    linkage: str,
) -> dict[frozenset[int], float]:
    """Inter-cluster linkage distances for an arbitrary starting partition.

    Cluster ids are positions in ``clusters``.  The returned sparse dict
    (missing pair = infinite) equals what the Lance–Williams recursion
    would have produced had the clusters been built up from singletons:
    ``complete`` is the maximum pairwise distance (infinite when any cross
    pair never co-modified), ``single`` the minimum, and ``average`` the
    plain mean of all cross pairs (infinite when any is missing, matching
    the sparse convention of :func:`_combine`).
    """
    key_to_id: dict[str, int] = {}
    for cluster_id, members in enumerate(clusters):
        for key in members:
            key_to_id[key] = cluster_id
    # Per cross-cluster pair: finite-edge count, max, min and sum of the
    # pairwise distances, aggregated over one sweep of the finite edges.
    stats: dict[frozenset[int], list] = {}
    for key_a, id_a in key_to_id.items():
        for key_b in matrix.neighbors(key_a):
            id_b = key_to_id.get(key_b)
            if id_b is None or id_b == id_a or key_b < key_a:
                continue
            d = correlation_to_distance(matrix.correlation_of(key_a, key_b))
            pair = frozenset((id_a, id_b))
            entry = stats.get(pair)
            if entry is None:
                stats[pair] = [1, d, d, d]
            else:
                entry[0] += 1
                entry[1] = max(entry[1], d)
                entry[2] = min(entry[2], d)
                entry[3] += d
    dist: dict[frozenset[int], float] = {}
    for pair, (count, d_max, d_min, d_sum) in stats.items():
        if linkage == LINKAGE_SINGLE:
            dist[pair] = d_min
            continue
        id_a, id_b = pair
        cross_pairs = len(clusters[id_a]) * len(clusters[id_b])
        if count < cross_pairs:
            continue  # some cross pair never co-modified: infinite
        dist[pair] = d_max if linkage == LINKAGE_COMPLETE else d_sum / cross_pairs
    return dist


def agglomerate_clusters(
    matrix: CorrelationMatrix,
    clusters: Sequence[frozenset[str]],
    linkage: str,
    *,
    kernel: str = KERNEL_PYTHON,
    max_distance: float = math.inf,
) -> list[Merge]:
    """Heap-driven HAC continued from an arbitrary disjoint partition.

    ``clusters`` seed the agglomeration as super-nodes; their pairwise
    linkage distances are derived from the matrix (:func:`seed_distances`),
    so the run is indistinguishable from a from-scratch agglomeration that
    already performed the merges building those clusters.  The spliced
    dendrogram repair (:mod:`repro.core.dendro_repair`) relies on this to
    re-agglomerate only the merge suffix an update invalidated.

    Determinism under ties: every cluster is identified by the rank of its
    lexicographically smallest key among the seeds, and a merged cluster
    takes the smaller of its halves' ids — so the heap's ``(distance,
    id, id)`` ordering is a function of cluster *contents*, independent of
    creation order.

    ``kernel`` dispatches the work to the numpy kernel
    (:mod:`repro.core.hac_kernel`) when it resolves to ``"numpy"`` for
    this component's size and linkage; the merges are bit-identical
    either way, only the cost differs.

    ``max_distance`` bounds the run: only merges at or below it are
    performed.  For complete and single linkage, whose merge distances
    never decrease, those are exactly the full run's first merges — the
    ones a cut at ``max_distance`` reads.  The default keeps the full
    history (batch :func:`hac`, the threshold sweeps).
    """
    members: dict[int, frozenset[str]] = dict(enumerate(clusters))
    if len(members) > 1 and sorted(members.values(), key=min) != list(clusters):
        raise ValueError("seed clusters must be sorted by their smallest key")

    component_keys = frozenset().union(*clusters) if clusters else frozenset()
    if (
        resolve_kernel(kernel, linkage, len(component_keys)) == KERNEL_NUMPY
        and len(clusters) > 1
    ):
        block = matrix.component_distance_block(component_keys)
        if len(clusters) == len(component_keys):
            # singleton seeds in sorted-key order: the block *is* the
            # seed matrix (copied — the kernel mutates it)
            square = block.square.copy()
        else:
            square = hac_kernel.seed_matrix(block, clusters, linkage)
        return hac_kernel.agglomerate_square(
            square, clusters, linkage, max_distance
        )

    dist = seed_distances(matrix, clusters, linkage)
    # Entries above the bound stay in ``dist`` (the Lance–Williams updates
    # read them) but never enter the heap: the run stops when it drains.
    heap: list[tuple[float, int, int]] = [
        (d, *sorted(pair)) for pair, d in dist.items() if d <= max_distance
    ]
    heapq.heapify(heap)
    merges: list[Merge] = []

    while heap:
        distance, id_a, id_b = heapq.heappop(heap)
        if id_a not in members or id_b not in members:
            continue  # stale entry: one side already merged away
        pair = frozenset((id_a, id_b))
        if dist.get(pair) != distance:
            # Stale entry: the distance was updated.  Exact comparison is
            # required, not isclose — merged clusters reuse their smaller
            # half's id, so a stale entry can name a *live* pair whose
            # distance moved to a nearby-but-different value; accepting it
            # would merge at the wrong recorded distance and break the
            # determinism the spliced repair relies on.  Exact equality is
            # sound because heap entries are pushed verbatim from ``dist``.
            continue
        left = members.pop(id_a)
        right = members.pop(id_b)
        merged_id = min(id_a, id_b)
        merged = left | right
        merges.append(Merge(left=left, right=right, distance=distance, members=merged))

        # Lance–Williams update against every other active cluster.
        for other_id in list(members):
            d_a = dist.pop(frozenset((id_a, other_id)), math.inf)
            d_b = dist.pop(frozenset((id_b, other_id)), math.inf)
            new_distance = _combine(linkage, d_a, d_b, left, right, members[other_id])
            if not math.isinf(new_distance):
                new_pair = frozenset((merged_id, other_id))
                dist[new_pair] = new_distance
                if new_distance <= max_distance:
                    heapq.heappush(
                        heap, (new_distance, *sorted((merged_id, other_id)))
                    )
        dist.pop(pair, None)
        members[merged_id] = merged

    return merges


def _combine(
    linkage: str,
    d_a: float,
    d_b: float,
    left: frozenset[str],
    right: frozenset[str],
    other: frozenset[str],
) -> float:
    if linkage == LINKAGE_COMPLETE:
        return max(d_a, d_b)
    if linkage == LINKAGE_SINGLE:
        return min(d_a, d_b)
    # Average linkage: size-weighted mean.  An infinite side means some
    # pair across the clusters has no correlation at all; the average is
    # then infinite too under our sparse convention (conservative: keeps
    # average-linkage from bridging unconnected keys).
    if math.isinf(d_a) or math.isinf(d_b):
        return math.inf
    size_a, size_b = len(left), len(right)
    del other
    return (size_a * d_a + size_b * d_b) / (size_a + size_b)


def flat_clusters(
    matrix: CorrelationMatrix,
    correlation_threshold: float = 2.0,
    linkage: str = LINKAGE_COMPLETE,
    *,
    kernel: str = KERNEL_PYTHON,
) -> list[frozenset[str]]:
    """Convenience: agglomerate and cut at a *correlation* threshold.

    ``correlation_threshold`` follows the paper's user-facing convention
    (default 2 = "only cluster keys always modified together"); it is
    converted to the equivalent distance internally.
    """
    check_correlation_threshold(correlation_threshold)
    max_distance = correlation_to_distance(correlation_threshold)
    return hac(matrix, linkage=linkage, kernel=kernel).cut(max_distance)


DistanceFunction = Callable[[str, str], float]
