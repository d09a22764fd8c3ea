"""Incrementally maintained cluster ordering for live sessions.

Every cluster view this library hands out lists clusters *largest first,
then lexicographic* — the ``(-len, sorted keys)`` order the batch
pipeline, the engines and the merged :class:`~repro.core.cluster_model.
ClusterSet` all share.  The streaming engines used to rebuild that order
with a full sort on every update, an O(total clusters · log) scan even
when one two-key component changed.  :class:`SortedKeySets` keeps the
order live instead: removals and insertions are binary searches plus a
C-level ``memmove``, so an update touching *c* clusters costs
O(c · log n) comparisons instead of a fresh sort over everything — and
the common case (one dirty component swapping a handful of clusters)
never compares the rest.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator


def order_key(key_set: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    """The global cluster ordering: largest first, then lexicographic."""
    return (-len(key_set), tuple(sorted(key_set)))


class SortedKeySets:
    """A collection of disjoint cluster key sets kept in display order.

    Key sets are assumed pairwise distinct (they partition disjoint key
    populations — per engine, and across shards in the merged view), so
    the ordering key is unique and lookups are exact.
    """

    __slots__ = ("_keys", "_sets")

    def __init__(self, key_sets: Iterable[frozenset[str]] = ()) -> None:
        paired = sorted((order_key(key_set), key_set) for key_set in key_sets)
        self._keys = [key for key, _ in paired]
        self._sets = [key_set for _, key_set in paired]

    def add(self, key_set: frozenset[str]) -> None:
        key = order_key(key_set)
        at = bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._sets.insert(at, key_set)

    def remove(self, key_set: frozenset[str]) -> None:
        key = order_key(key_set)
        at = bisect_left(self._keys, key)
        if at == len(self._keys) or self._keys[at] != key:
            raise KeyError(f"key set not present: {sorted(key_set)}")
        del self._keys[at]
        del self._sets[at]

    def as_key_sets(self) -> list[frozenset[str]]:
        """The key sets in display order (a fresh list)."""
        return list(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._sets)

