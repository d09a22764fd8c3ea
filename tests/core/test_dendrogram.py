"""Tests for the dendrogram and threshold pruning.

The flat cut and the splice's surviving partition are both read off the
forest of roots a merge prefix leaves
(:func:`~repro.core.dendrogram.partition_after`).  The union-find cut the
library used before is kept below as the reference oracle; hypothesis
pins the primitive to it over random well-formed dendrograms (with
distance ties), checkpoint round trips and real spliced repairs.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import CorrelationMatrix
from repro.core.dendro_repair import (
    build_dendrogram,
    dendrogram_from_state,
    dendrogram_to_state,
    splice_dendrogram,
    surviving_clusters,
)
from repro.core.dendrogram import Dendrogram, Merge, partition_after
from repro.core.unionfind import UnionFind


def merge(left, right, distance):
    left, right = frozenset(left), frozenset(right)
    return Merge(left=left, right=right, distance=distance, members=left | right)


def oracle_cut(dendrogram: Dendrogram, max_distance: float) -> list[frozenset[str]]:
    """The union-find cut: apply every merge up to the threshold."""
    parent: dict[str, str] = {item: item for item in dendrogram.items}

    def find(item: str) -> str:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    for step in dendrogram.merges:
        if step.distance > max_distance:
            break
        left_root = find(next(iter(step.left)))
        right_root = find(next(iter(step.right)))
        if left_root != right_root:
            parent[right_root] = left_root

    clusters: dict[str, set[str]] = {}
    for item in dendrogram.items:
        clusters.setdefault(find(item), set()).add(item)
    return sorted(
        (frozenset(members) for members in clusters.values()),
        key=lambda c: (-len(c), tuple(sorted(c))),
    )


def oracle_partition(items, merges) -> list[frozenset[str]]:
    """The union-find partition after a merge prefix, sorted by min key."""
    forest = UnionFind()
    for item in items:
        forest.add(item)
    for step in merges:
        forest.union(next(iter(step.left)), next(iter(step.right)))
    return sorted((frozenset(c) for c in forest.components()), key=min)


def thresholds(dendrogram: Dendrogram) -> list[float]:
    """Every merge distance, one ulp either side, and both extremes."""
    out = [0.0, math.inf]
    for distance in dendrogram.merge_distances():
        out += [
            math.nextafter(distance, -math.inf),
            distance,
            math.nextafter(distance, math.inf),
        ]
    return out


@st.composite
def dendrograms(draw) -> Dendrogram:
    """A random well-formed dendrogram; few distance levels force ties."""
    size = draw(st.integers(min_value=1, max_value=12))
    items = [f"k{i:02d}" for i in range(size)]
    live = [frozenset((item,)) for item in items]
    steps = draw(st.integers(min_value=0, max_value=size - 1))
    distance = 0.25
    merges = []
    for _ in range(steps):
        first = live.pop(draw(st.integers(0, len(live) - 1)))
        second = live.pop(draw(st.integers(0, len(live) - 1)))
        distance += draw(st.sampled_from([0.0, 0.0, 0.125, 0.5]))
        merges.append(merge(first, second, distance))
        live.append(first | second)
    return Dendrogram(frozenset(items), merges)


class TestValidation:
    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Dendrogram(
                {"a", "b", "c"},
                [merge("a", "b", 1.0), merge("ab", "c", 0.5)],
            )

    def test_rejects_inconsistent_members(self):
        bad = Merge(
            left=frozenset("a"),
            right=frozenset("b"),
            distance=0.5,
            members=frozenset("abc"),
        )
        with pytest.raises(ValueError, match="union"):
            Dendrogram({"a", "b", "c"}, [bad])

    def test_rejects_a_consumed_singleton(self):
        with pytest.raises(ValueError, match="not a live cluster"):
            Dendrogram(
                {"a", "b", "c"},
                [merge("a", "b", 0.5), merge("a", "c", 0.6)],
            )

    def test_rejects_a_consumed_cluster(self):
        with pytest.raises(ValueError, match="not a live cluster"):
            Dendrogram(
                {"a", "b", "c", "d"},
                [merge("a", "b", 0.5), merge("ab", "c", 0.6), merge("ab", "d", 0.7)],
            )

    def test_rejects_an_unknown_cluster(self):
        with pytest.raises(ValueError, match="not a live cluster"):
            Dendrogram({"a", "b", "c"}, [merge("ab", "c", 0.5)])

    def test_rejects_an_unknown_item(self):
        with pytest.raises(ValueError, match="not a live cluster"):
            Dendrogram({"a", "b"}, [merge("a", "z", 0.5)])

    def test_rejects_merging_a_cluster_with_itself(self):
        with pytest.raises(ValueError):
            Dendrogram({"a", "b"}, [merge("a", "b", 0.5), merge("ab", "ab", 0.6)])

    def test_rejects_a_child_after_its_parent(self):
        with pytest.raises(ValueError, match="not a live cluster"):
            Dendrogram(
                {"a", "b", "c"},
                [merge("ab", "c", 0.5), merge("a", "b", 0.5)],
            )


class TestCut:
    @pytest.fixture
    def dendrogram(self) -> Dendrogram:
        return Dendrogram(
            {"a", "b", "c", "d"},
            [
                merge("a", "b", 0.5),
                merge(("a", "b"), ("c",), 0.8),
            ],
        )

    def test_cut_below_everything_gives_singletons(self, dendrogram):
        clusters = dendrogram.cut(0.4)
        assert all(len(c) == 1 for c in clusters)
        assert len(clusters) == 4

    def test_cut_applies_merges_up_to_threshold(self, dendrogram):
        clusters = dendrogram.cut(0.5)
        assert frozenset({"a", "b"}) in clusters
        assert frozenset({"c"}) in clusters

    def test_cut_at_higher_threshold(self, dendrogram):
        clusters = dendrogram.cut(1.0)
        assert frozenset({"a", "b", "c"}) in clusters
        assert frozenset({"d"}) in clusters

    def test_cut_ordering_big_first(self, dendrogram):
        clusters = dendrogram.cut(1.0)
        assert clusters[0] == frozenset({"a", "b", "c"})

    def test_cut_threshold_boundary_inclusive(self, dendrogram):
        assert frozenset({"a", "b"}) in dendrogram.cut(0.5)

    def test_items_never_lost(self, dendrogram):
        for threshold in (0.0, 0.5, 0.8, 2.0):
            clusters = dendrogram.cut(threshold)
            assert sorted(k for c in clusters for k in c) == ["a", "b", "c", "d"]

    def test_merge_distances(self, dendrogram):
        assert dendrogram.merge_distances() == [0.5, 0.8]

    def test_equal_size_clusters_order_by_smallest_key(self):
        dendrogram = Dendrogram(
            set("abcdef"),
            [merge("c", "f", 0.5), merge("a", "e", 0.5), merge("b", "d", 0.5)],
        )
        assert dendrogram.cut(0.5) == [
            frozenset("ae"),
            frozenset("bd"),
            frozenset("cf"),
        ]

    def test_partition_after_reports_roots_and_untouched_items(self):
        roots, singles = partition_after(
            frozenset("abcde"), [merge("a", "b", 0.5), merge("ab", "d", 0.6)]
        )
        assert roots == {frozenset("abd")}
        assert singles == frozenset("ce")


# -- the partition primitive ≡ the union-find oracle -------------------------


@given(dendrograms())
@settings(max_examples=150, deadline=None)
def test_cut_equals_the_union_find_oracle(dendrogram):
    for threshold in thresholds(dendrogram):
        assert dendrogram.cut(threshold) == oracle_cut(dendrogram, threshold)


@given(dendrograms())
@settings(max_examples=100, deadline=None)
def test_surviving_clusters_equal_the_union_find_partition(dendrogram):
    for applied in range(len(dendrogram.merges) + 1):
        prefix = dendrogram.merges[:applied]
        assert surviving_clusters(dendrogram.items, prefix) == oracle_partition(
            dendrogram.items, prefix
        )


@given(dendrograms())
@settings(max_examples=60, deadline=None)
def test_state_round_trip_cuts_like_the_oracle(dendrogram):
    restored = dendrogram_from_state(dendrogram_to_state(dendrogram))
    for threshold in thresholds(dendrogram):
        assert restored.cut(threshold) == oracle_cut(dendrogram, threshold)


_key_groups = st.dictionaries(
    st.sampled_from([f"k{i}" for i in range(8)]),
    st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    min_size=2,
)


@given(
    _key_groups,
    st.lists(st.sampled_from([f"k{i}" for i in range(8)]), min_size=1, max_size=3),
    st.sampled_from(["complete", "single"]),
)
@settings(max_examples=80, deadline=None)
def test_spliced_dendrograms_cut_like_the_oracle(key_groups, touched, linkage):
    matrix = CorrelationMatrix({key: set(groups) for key, groups in key_groups.items()})
    caches = {
        frozenset(component): build_dendrogram(matrix, component, linkage)
        for component in matrix.connected_components()
    }
    touched = [key for key in touched if key in matrix.keys] or [min(matrix.keys)]
    matrix.observe_group(100, touched)
    for component in matrix.connected_components():
        component = frozenset(component)
        cached = [d for items, d in caches.items() if items <= component]
        outcome = splice_dendrogram(matrix, component, set(touched), cached, linkage)
        spliced = outcome.dendrogram
        for threshold in thresholds(spliced):
            assert spliced.cut(threshold) == oracle_cut(spliced, threshold)
        for applied in range(len(spliced.merges) + 1):
            prefix = spliced.merges[:applied]
            assert surviving_clusters(component, prefix) == oracle_partition(
                component, prefix
            )
