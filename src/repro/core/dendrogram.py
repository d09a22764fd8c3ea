"""Dendrogram produced by hierarchical agglomerative clustering.

The paper augments an off-the-shelf HAC implementation with the ability "to
prune the results returned by the hierarchical clustering API according to
a specified threshold".  :meth:`Dendrogram.cut` is that pruning: it returns
the flat clusters obtained by stopping agglomeration once the next merge
distance would exceed the threshold.

A dendrogram is a *well-formed forest* by construction: every merge joins
two clusters that are live at that point — an unused item or the result
of an earlier merge that no later merge has consumed yet.  A flat cut is
therefore just the forest of roots of a merge prefix (the SciPy
linkage-matrix view), which :func:`partition_after` reads off in
O(merges applied).

A dendrogram may be *bounded*: built only up to a ``horizon`` distance,
it holds exactly the merges at or below the horizon (complete and single
linkage are monotone, so the first merge above it ends that prefix).  Its
cuts at or below the horizon equal the full dendrogram's; a cut above the
horizon would silently miss merges and raises instead.  The streaming
engines build bounded dendrograms at their own threshold, batch
:func:`~repro.core.clustering.hac` builds unbounded ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable


@dataclass(frozen=True)
class Merge:
    """One agglomeration step.

    ``left`` and ``right`` are the merged clusters (as frozensets of keys),
    ``distance`` is the linkage distance at which they merged, and
    ``members`` is the resulting cluster.
    """

    left: frozenset[str]
    right: frozenset[str]
    distance: float
    members: frozenset[str]


def partition_after(
    items: frozenset[str], merges: Iterable[Merge]
) -> tuple[set[frozenset[str]], frozenset[str]]:
    """The forest a merge sequence leaves over ``items``.

    Returns ``(roots, singles)``: the multi-key clusters no later merge
    in ``merges`` consumed, and the items no merge touched.  Together
    they partition ``items``.  The cost is O(len(merges)) set operations
    plus one C-level set difference — never a Python pass over every
    item.

    Raises :class:`ValueError` when a merge side is not live at that
    point: an unknown item, an item or cluster some earlier merge already
    consumed, or a multi-key cluster no earlier merge produced.

    >>> merges = [
    ...     Merge(frozenset("a"), frozenset("b"), 0.5, frozenset("ab")),
    ...     Merge(frozenset("ab"), frozenset("c"), 0.9, frozenset("abc")),
    ... ]
    >>> roots, singles = partition_after(frozenset("abcd"), merges[:1])
    >>> [sorted(c) for c in roots], sorted(singles)
    ([['a', 'b']], ['c', 'd'])
    """
    roots: set[frozenset[str]] = set()
    singles: list[frozenset[str]] = []
    try:
        for merge in merges:
            left, right = merge.left, merge.right
            if len(left) == 1:
                singles.append(left)
            else:
                roots.remove(left)
            if len(right) == 1:
                singles.append(right)
            else:
                roots.remove(right)
            roots.add(merge.members)
    except KeyError as error:
        raise ValueError(
            f"merge side {sorted(error.args[0])} is not a live cluster"
        ) from None
    if not singles:
        return roots, items
    # Every singleton side must be a distinct item: checked once, in C.
    used = frozenset().union(*singles)
    if len(used) != len(singles) or not used <= items:
        raise ValueError(
            "a singleton merge side is not a live cluster: its item is "
            "unknown or an earlier merge consumed it"
        )
    return roots, items - used


class Dendrogram:
    """Merge history over a set of items, up to a horizon distance.

    Merges are stored in non-decreasing distance order (HAC always merges
    the closest pair next), which :meth:`cut` relies on, and each merge
    joins two live clusters (see :func:`partition_after`), so every
    prefix of the merge list is a forest.

    ``horizon`` is the distance the agglomeration ran up to: every merge
    lies at or below it, and the merges at or below it are all there.
    The default ``inf`` is the full history.
    """

    def __init__(
        self,
        items: set[str] | frozenset[str],
        merges: list[Merge],
        horizon: float = math.inf,
    ) -> None:
        self.items = frozenset(items)
        self.merges = list(merges)
        self.horizon = horizon
        self._distances: list[float] = []
        last = -math.inf
        for merge in self.merges:
            if merge.distance < last:
                raise ValueError("merges must be in non-decreasing distance order")
            last = merge.distance
            self._distances.append(last)
            if not (merge.left | merge.right) == merge.members:
                raise ValueError("merge members must be the union of its halves")
        if last > horizon:
            raise ValueError(
                f"merge at distance {last} lies above the horizon {horizon}"
            )
        if self.merges:
            partition_after(self.items, self.merges)  # every side is live

    def cut(self, max_distance: float) -> list[frozenset[str]]:
        """Flat clusters after applying merges with distance <= threshold.

        Items that never merge below the threshold come out as singletons.
        Order: larger clusters first, then lexicographic, so results are
        deterministic for tests and reports.

        The flat partition depends only on *which* merges clear the
        threshold — the roots of that merge prefix — not on their order,
        which is why a spliced dendrogram (:mod:`repro.core.dendro_repair`)
        cuts to exactly the clusters of a wholesale rebuild.

        >>> merges = [
        ...     Merge(frozenset("a"), frozenset("b"), 0.5, frozenset("ab")),
        ...     Merge(frozenset("ab"), frozenset("c"), 0.9, frozenset("abc")),
        ... ]
        >>> dendrogram = Dendrogram({"a", "b", "c", "d"}, merges)
        >>> [sorted(c) for c in dendrogram.cut(0.5)]
        [['a', 'b'], ['c'], ['d']]
        >>> [sorted(c) for c in dendrogram.cut(2.0)]
        [['a', 'b', 'c'], ['d']]

        A bounded dendrogram cuts only at or below its horizon:

        >>> bounded = Dendrogram({"a", "b", "c", "d"}, merges[:1], horizon=0.5)
        >>> bounded.cut(2.0)
        Traceback (most recent call last):
        ...
        ValueError: cannot cut at 2.0 above the dendrogram's horizon 0.5
        """
        if max_distance > self.horizon:
            raise ValueError(
                f"cannot cut at {max_distance} above the dendrogram's "
                f"horizon {self.horizon}"
            )
        applied = bisect_right(self._distances, max_distance)
        roots, singles = partition_after(
            self.items, islice(self.merges, applied)
        )
        # Disjoint clusters of equal size differ in their smallest key, so
        # (-len, min) is the (-len, lexicographic) order; singletons last.
        clusters = sorted(roots, key=lambda c: (-len(c), min(c)))
        clusters.extend(map(frozenset, zip(sorted(singles))))
        return clusters

    def merges_below(self, distance: float) -> list[Merge]:
        """The merges strictly below ``distance`` — a prefix of the list."""
        return self.merges[: bisect_left(self._distances, distance)]

    def merge_distances(self) -> list[float]:
        return list(self._distances)

    def __len__(self) -> int:
        return len(self.merges)
