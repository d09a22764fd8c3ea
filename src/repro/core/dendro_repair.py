"""Sub-component dendrogram repair: splice instead of re-agglomerating.

The streaming engines confine every update to the connected components a
write group dirtied, but until this module a dirty component was still
re-agglomerated *wholesale* — O(n²) in the component size — even when the
update touched two keys of a three-hundred-key component.  The hot-key
component therefore dominated what remained of incremental update cost.

Splicing exploits the shape of the damage.  A dendrogram is a merge list
in non-decreasing distance order, and an update that dirties keys ``D``
can only change pairwise distances of pairs with at least one key in
``D`` (the correlation of a clean pair depends only on its own group
counts and intersection, all untouched).  Every merge strictly below

- the smallest *new* distance of any pair involving a dirty key, and
- the distance of the first cached merge whose members intersect ``D``

is still exactly what a from-scratch run would do: below that line no
cluster containing a dirty key can form, so the agglomeration evolves on
clean clusters with unchanged distances.  :func:`splice_dendrogram`
keeps that merge prefix verbatim, rebuilds the surviving partition, and
re-agglomerates only the remaining super-nodes
(:func:`~repro.core.clustering.agglomerate_clusters` seeds the heap with
multi-key clusters and derived inter-cluster linkage distances instead of
singletons).  Merges at exactly the splice line are conservatively
discarded — distance ties are where HAC is order-sensitive, so they are
re-derived rather than trusted.

The resulting *clusters* are bit-identical to a wholesale
re-agglomeration at every threshold — agglomeration tie-breaks are
content-based, so continuing from the spliced state replays the merges a
full run performs; the property tests pin spliced ≡ wholesale ≡ batch.
One cosmetic caveat: when an update bridges two cached components that
each hold a merge at the *same* distance, the spliced merge list keeps
those tied merges grouped per source cache while a from-scratch run may
interleave them — same merge set, same distances, identical ``cut`` at
every threshold, and deterministic either way (caches are consumed in
sorted order), but not always list-equal.  Whenever the cached material
cannot be proven valid (components shrank after a retraction, a cached
dendrogram straddles the component boundary, or the spliced merge list
fails validation) the repair falls back to a wholesale rebuild — the
fallback is a performance event, never a correctness one.

**Bounded at the cut.**  The streaming engines only ever cut at their
own threshold distance τ, so their dendrograms stop there: every function
here takes ``max_distance`` (default ``inf``, the full history) and
builds, splices and re-agglomerates only up to it, recording it as the
dendrogram's horizon.  Complete and single linkage are monotone, so the
merges at or below τ are a prefix of the full run, and a bounded repair
equals the full one cut at τ.  The bound also gives the cheapest repair
of all: when the splice line lies above τ (and no cached merge sits at
the line), the update cannot create or undo any merge at or below τ, so
the cached merges are returned as they are — no seed matrix, no
agglomeration.  A bounded cache without merges is evidence too ("nothing
merges at or below τ") and splices like any other.

Splicing is exact for ``complete`` and ``single`` linkage, whose
Lance–Williams updates are pure ``max``/``min`` over the base distances.
``average`` linkage accumulates floating-point rounding along the merge
path, so a seeded continuation can differ from a wholesale run in the
last ulp — rather than weaken the bit-identical guarantee, average
linkage always takes the rebuild path.

Example — a 120-key component, its farthest key touched::

    >>> from repro.core.correlation import CorrelationMatrix
    >>> matrix = CorrelationMatrix(
    ...     {f"k{i:03d}": set(range(max(i, 1), 120)) for i in range(120)}
    ... )
    >>> component = frozenset(matrix.keys)
    >>> cached = build_dendrogram(matrix, component, "complete")
    >>> matrix.observe_group(500, ["k119"])     # dirties one key
    >>> outcome = splice_dendrogram(
    ...     matrix, component, {"k119"}, [cached], "complete"
    ... )
    >>> outcome.spliced, outcome.merges_reused, outcome.merges_recomputed
    (True, 114, 5)
    >>> outcome.dendrogram.merges == build_dendrogram(
    ...     matrix, component, "complete"
    ... ).merges
    True

Bounded at a threshold distance of 0.75 the same component keeps only
its merges at or below it.  Another write to ``k119`` moves only pairs
already above the bound, so the cached dendrogram stands as it is::

    >>> bounded = build_dendrogram(matrix, component, "complete", max_distance=0.75)
    >>> len(bounded.merges), bounded.horizon
    (114, 0.75)
    >>> matrix.observe_group(501, ["k119"])
    >>> outcome = splice_dendrogram(
    ...     matrix, component, {"k119"}, [bounded], "complete", max_distance=0.75
    ... )
    >>> outcome.dendrogram is bounded, outcome.merges_reused, outcome.merges_recomputed
    (True, 114, 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core import hac_kernel
from repro.core.clustering import LINKAGE_AVERAGE, agglomerate_clusters
from repro.core.correlation import CorrelationMatrix
from repro.core.dendrogram import Dendrogram, Merge, partition_after
from repro.core.hac_kernel import (
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    require_numpy,
    resolve_kernel,
)

@dataclass(frozen=True)
class SeedDistanceCache:
    """Inter-seed linkage distances from a component's previous repair.

    ``seeds`` is the surviving-cluster partition that repair
    re-agglomerated (sorted by smallest key) and ``matrix`` its dense
    ``(k, k)`` linkage-distance array (the :func:`~repro.core.hac_kernel.
    seed_matrix` output, *before* the merge loop mutated its copy).  On
    the next repair of the same component, rows of seeds that survived
    unchanged and contain no dirty key are copied over instead of being
    re-reduced from the distance block — repeat repairs touch only the
    affected rows.  Runtime-only derived data: it is never checkpointed
    (a resumed session re-derives it on first repair).
    """

    linkage: str
    seeds: tuple[frozenset[str], ...]
    matrix: "object"


@dataclass(frozen=True)
class SpliceOutcome:
    """One repaired component: its dendrogram plus the work accounting.

    ``merges_reused`` counts cached merges kept verbatim (the spliced
    prefix); ``merges_recomputed`` counts merges the seeded agglomeration
    re-derived.  ``spliced`` says whether the splice path actually ran —
    ``False`` means a wholesale rebuild (no usable cache, or a safety
    fallback).  ``kernel`` names the implementation that agglomerated
    (``"numpy"`` or ``"python"``), and is ``None`` when nothing was
    agglomerated: a one-key component, or a splice that kept its cached
    merges as they were; ``seed_cache``
    carries the refreshed inter-seed distances for the next repair of
    this component (numpy splice path only).
    """

    dendrogram: Dendrogram
    merges_reused: int
    merges_recomputed: int
    spliced: bool
    kernel: str | None = None
    seed_cache: SeedDistanceCache | None = field(default=None, compare=False)


def build_dendrogram(
    matrix: CorrelationMatrix,
    component: frozenset[str] | set[str],
    linkage: str,
    *,
    kernel: str = KERNEL_PYTHON,
    max_distance: float = math.inf,
) -> Dendrogram:
    """Wholesale agglomeration of one component into a dendrogram.

    The rebuild half of every repair: also the fallback target whenever
    :func:`splice_dendrogram` cannot prove its cache valid.  The
    dendrogram is bounded at ``max_distance`` (its horizon).
    """
    component = frozenset(component)
    if len(component) < 2:
        return Dendrogram(component, [], max_distance)
    merges = agglomerate_clusters(
        matrix,
        [frozenset((key,)) for key in sorted(component)],
        linkage,
        kernel=kernel,
        max_distance=max_distance,
    )
    merges.sort(key=lambda merge: merge.distance)
    return Dendrogram(component, merges, max_distance)


def rebuild_outcome(
    matrix: CorrelationMatrix,
    component: frozenset[str] | set[str],
    linkage: str,
    *,
    kernel: str = KERNEL_PYTHON,
    max_distance: float = math.inf,
) -> SpliceOutcome:
    """A wholesale rebuild packaged as a :class:`SpliceOutcome`."""
    dendrogram = build_dendrogram(
        matrix, component, linkage, kernel=kernel, max_distance=max_distance
    )
    size = len(dendrogram.items)
    resolved = resolve_kernel(kernel, linkage, size)
    return SpliceOutcome(
        dendrogram=dendrogram,
        merges_reused=0,
        merges_recomputed=len(dendrogram.merges),
        spliced=False,
        kernel=resolved if size > 1 else None,
    )


def surviving_clusters(
    component: frozenset[str], merges: Sequence[Merge]
) -> list[frozenset[str]]:
    """The partition of ``component`` after applying a merge prefix.

    Sorted by each cluster's smallest key — the seed order
    :func:`~repro.core.clustering.agglomerate_clusters` requires.  The
    multi-key clusters are the prefix's own ``members`` objects, read off
    in O(prefix) by :func:`~repro.core.dendrogram.partition_after`.
    """
    roots, singles = partition_after(frozenset(component), merges)
    clusters = list(roots)
    clusters.extend(frozenset((key,)) for key in singles)
    clusters.sort(key=min)
    return clusters


def splice_dendrogram(
    matrix: CorrelationMatrix,
    component: frozenset[str] | set[str],
    dirty: Iterable[str],
    cached: Sequence[Dendrogram],
    linkage: str,
    *,
    kernel: str = KERNEL_PYTHON,
    seed_caches: Sequence[SeedDistanceCache] = (),
    max_distance: float = math.inf,
) -> SpliceOutcome:
    """Repair one dirty component by splicing its cached merge history.

    Parameters
    ----------
    matrix:
        The *current* (post-update) correlation matrix.
    component:
        The component's current key set (a connected component of
        ``matrix``'s finite-distance graph).
    dirty:
        Keys whose correlations may have changed in the update (the
        matrix's dirty set).  Keys of ``component`` not covered by any
        cached dendrogram are treated as dirty implicitly — a brand-new
        key always arrives via a touched group.
    cached:
        Dendrograms cached *before* the update for the sub-components
        that grew into ``component`` — one when the component merely
        changed internally, several when the update bridged components.
        Each must cover a disjoint subset of ``component``.
    linkage:
        The linkage criterion (must match the cached dendrograms').
    kernel:
        Implementation selector (:mod:`repro.core.hac_kernel`): when it
        resolves to ``"numpy"`` for this component, the inter-seed
        distances come from vectorized reductions over the component's
        cached distance block — optionally reusing rows from
        ``seed_caches`` (previous repairs' :class:`SeedDistanceCache`
        records) so only rows of seeds touching dirty keys are
        re-reduced — and the merge loop runs on the array kernel.  The
        block is requested, and its dirty rows refreshed, only when the
        splice re-agglomerates more than one seed; the splice line itself
        always comes from one walk of the affected keys' adjacency
        (:meth:`~repro.core.correlation.CorrelationMatrix.
        nearest_distance`).  Results are bit-identical across kernels.
    max_distance:
        The horizon to agglomerate up to.  Every cached dendrogram must
        carry the same horizon.

    Returns a :class:`SpliceOutcome` whose dendrogram is bit-identical to
    :func:`build_dendrogram` on the same inputs.  Falls back to the
    wholesale rebuild (``spliced=False``) when the cache is unusable:
    a cached dendrogram straddling the component boundary (a retraction
    shrank components), overlapping caches, a cache bounded at another
    horizon, or a spliced merge list that fails the dendrogram's ordering
    validation.

    When the splice line lies above ``max_distance`` and no cached merge
    sits at the line, the cached merges are the whole answer: nothing
    merges at or below the horizon that did not before.  The repair then
    agglomerates nothing, and a single cache that already spans the
    component comes back as the very same object.

    >>> from repro.core.correlation import CorrelationMatrix
    >>> matrix = CorrelationMatrix({"a": {0}, "b": {0}, "c": {0, 1}})
    >>> old = build_dendrogram(matrix, frozenset("abc"), "complete")
    >>> matrix.observe_group(9, ["c"])        # only c's group count moves
    >>> outcome = splice_dendrogram(
    ...     matrix, frozenset("abc"), {"c"}, [old], "complete"
    ... )
    >>> outcome.spliced, outcome.merges_reused, outcome.merges_recomputed
    (True, 1, 1)
    """
    component = frozenset(component)

    def rebuild() -> SpliceOutcome:
        return rebuild_outcome(
            matrix, component, linkage, kernel=kernel, max_distance=max_distance
        )

    if linkage == LINKAGE_AVERAGE:
        # Lance–Williams average linkage rounds differently along a
        # seeded path than along the singleton path (nested weighted
        # means vs one mean) — the results can differ in the last ulp.
        # Bit-identical beats fast here.
        return rebuild()
    affected = {key for key in dirty if key in component}

    covered: set[str] = set()
    for dendrogram in cached:
        items = dendrogram.items
        if (
            not items <= component
            or items & covered
            or dendrogram.horizon != max_distance
        ):
            # A cached dendrogram holds keys outside the component (it
            # shrank — retraction territory), two caches overlap, or a
            # cache was bounded elsewhere; the prefix argument no longer
            # applies.
            return rebuild()
        covered |= items
    # Keys no cache knows about joined the component in this update.
    affected |= component - covered
    if not affected:
        return rebuild()

    resolved = resolve_kernel(kernel, linkage, len(component))
    splice_at = matrix.nearest_distance(affected, component)
    # A cache's merges are sorted and every merge containing a dirty key
    # comes no earlier than the one that absorbed that key, so the first
    # merge touching ``affected`` per cache is the only one that can
    # lower the line — and no merge strictly below it touches ``affected``.
    for dendrogram in cached:
        for merge in dendrogram.merges:
            if merge.distance >= splice_at:
                break
            if not affected.isdisjoint(merge.members):
                splice_at = merge.distance
                break
    prefix: list[Merge] = []
    for dendrogram in cached:
        prefix.extend(dendrogram.merges_below(splice_at))
    if len(cached) > 1:
        prefix.sort(key=lambda merge: merge.distance)
    # Merges within isclose of the line are re-derived (ties are where
    # HAC is order-sensitive); below the line they form a sorted suffix.
    while prefix and math.isclose(prefix[-1].distance, splice_at):
        prefix.pop()
    if splice_at > max_distance and len(prefix) == sum(map(len, cached)):
        # Below the line the update changed nothing, and the line lies
        # above the horizon: the new run's merges at or below the horizon
        # are exactly the cached ones.  No seed matrix, no kernel call.
        # (The seed-distance caches are dropped: their rows of affected
        # seeds are stale now.)
        if len(cached) == 1 and cached[0].items == component:
            dendrogram = cached[0]
        else:
            dendrogram = Dendrogram(component, prefix, max_distance)
        return SpliceOutcome(
            dendrogram=dendrogram,
            merges_reused=len(prefix),
            merges_recomputed=0,
            spliced=True,
        )

    seeds = surviving_clusters(component, prefix)
    seed_cache: SeedDistanceCache | None = None
    if resolved == KERNEL_NUMPY and len(seeds) > 1:
        # Only a real re-agglomeration needs the block: the rows dirtied
        # since it was last read are refreshed here, once.
        block = matrix.component_distance_block(component)
        seed_square = _seed_matrix_with_reuse(
            block, seeds, affected, seed_caches, linkage
        )
        seed_cache = SeedDistanceCache(
            linkage=linkage, seeds=tuple(seeds), matrix=seed_square
        )
        new_merges = hac_kernel.agglomerate_square(
            seed_square.copy(), seeds, linkage, max_distance
        )
    else:
        new_merges = agglomerate_clusters(
            matrix, seeds, linkage, max_distance=max_distance
        )
    new_merges.sort(key=lambda merge: merge.distance)
    try:
        dendrogram = Dendrogram(component, prefix + new_merges, max_distance)
    except ValueError:
        # The seeded continuation produced a merge below the kept prefix —
        # the cache was inconsistent with the matrix.  Never guess.
        return rebuild()
    return SpliceOutcome(
        dendrogram=dendrogram,
        merges_reused=len(prefix),
        merges_recomputed=len(new_merges),
        spliced=True,
        kernel=resolved if len(seeds) > 1 else None,
        seed_cache=seed_cache,
    )


def _seed_matrix_with_reuse(
    block,
    seeds: Sequence[frozenset[str]],
    affected: set[str],
    seed_caches: Sequence[SeedDistanceCache],
    linkage: str,
):
    """The seeds' inter-cluster distance matrix, reusing cached rows.

    A seed that also appears in a previous repair's cache and contains no
    dirty key kept every distance to *other such seeds from the same
    cache*: those entries are copied.  Distances across different caches
    (the update bridged components) default to ``inf``, which is exact —
    before the bridge there was no edge between the old components, and
    any edge the bridge created involves a dirty key, i.e. an affected
    seed.  Rows of affected or brand-new seeds are re-reduced from the
    distance block (:func:`~repro.core.hac_kernel.seed_matrix_rows`).
    """
    np = require_numpy()
    caches = [
        cache
        for cache in seed_caches
        if cache is not None and cache.linkage == linkage
    ]
    # The caches' matrices side by side on one block diagonal, plus a last
    # all-inf row/column that stands for "no cached row": one gather then
    # lays every reusable entry out in the new seed order at once.
    starts = [0]
    for cache in caches:
        starts.append(starts[-1] + len(cache.seeds))
    missing = starts[-1]
    stacked = np.full((missing + 1, missing + 1), math.inf)
    origin: dict[frozenset[str], int] = {}
    for cache, start in reversed(list(zip(caches, starts))):
        end = start + len(cache.seeds)
        stacked[start:end, start:end] = cache.matrix
        origin.update(zip(cache.seeds, range(start, end)))  # first cache wins
    source = np.fromiter(
        (
            origin.get(seed, missing) if affected.isdisjoint(seed) else missing
            for seed in seeds
        ),
        dtype=np.intp,
        count=len(seeds),
    )
    square = stacked.take(source, 0).take(source, 1)
    fresh = (source == missing).nonzero()[0]
    if fresh.size:
        rows = hac_kernel.seed_matrix_rows(block, seeds, fresh.tolist(), linkage)
        square[fresh, :] = rows
        square[:, fresh] = rows.T
    np.fill_diagonal(square, math.inf)
    return square


# -- checkpoint encoding ------------------------------------------------------


def dendrogram_to_state(dendrogram: Dendrogram) -> dict:
    """A dendrogram as a compact JSON-safe dict.

    Items are listed once; each merge is ``[left, right, distance]``
    where ``left``/``right`` reference either an item (index < number of
    items) or an earlier merge's result (number of items + merge index) —
    the SciPy linkage-matrix convention, O(merges) instead of the O(n²)
    of spelling every member set out.  A bounded dendrogram records its
    ``horizon``; an unbounded one omits it.

    >>> from repro.core.correlation import CorrelationMatrix
    >>> matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {1}})
    >>> state = dendrogram_to_state(build_dendrogram(matrix, frozenset("abc"), "complete"))
    >>> state["items"]
    ['a', 'b', 'c']
    >>> [sorted(c) for c in dendrogram_from_state(state).cut(0.5)]
    [['a', 'b'], ['c']]
    """
    items = sorted(dendrogram.items)
    node_of: dict[frozenset[str], int] = {
        frozenset((item,)): index for index, item in enumerate(items)
    }
    merges: list[list] = []
    for offset, merge in enumerate(dendrogram.merges):
        try:
            left = node_of[merge.left]
            right = node_of[merge.right]
        except KeyError:
            raise ValueError(
                "dendrogram merge references a cluster that is neither an "
                "item nor a previous merge result"
            ) from None
        merges.append([left, right, merge.distance])
        node_of[merge.members] = len(items) + offset
    state = {"items": items, "merges": merges}
    if not math.isinf(dendrogram.horizon):
        state["horizon"] = dendrogram.horizon
    return state


def dendrogram_from_state(state: dict, *, horizon: float = math.inf) -> Dendrogram:
    """Rebuild a dendrogram from :func:`dendrogram_to_state` output.

    ``horizon`` is the bound of a state that records none of its own (a
    checkpoint records one horizon for a whole cache).  Raises
    :class:`ValueError` when a merge lies above the horizon.
    """
    items = [str(item) for item in state["items"]]
    nodes: list[frozenset[str]] = [frozenset((item,)) for item in items]
    merges: list[Merge] = []
    for left_ref, right_ref, distance in state["merges"]:
        left = nodes[int(left_ref)]
        right = nodes[int(right_ref)]
        members = left | right
        merges.append(
            Merge(left=left, right=right, distance=float(distance), members=members)
        )
        nodes.append(members)
    recorded = state.get("horizon")
    return Dendrogram(
        frozenset(items), merges, horizon if recorded is None else float(recorded)
    )
