"""Threshold-bounded agglomeration ≡ the full run cut at the threshold.

The streaming engines only ever cut a component's dendrogram at their own
threshold distance τ, so they agglomerate only up to it.  The contracts
under test, for complete and single linkage:

- a bounded run (:func:`~repro.core.clustering.agglomerate_clusters`, on
  the pure-Python heap and on the numpy kernel) performs exactly the full
  run's merges at or below τ, in the same order, and cuts identically at
  τ — including when merges tie exactly at τ;
- :func:`~repro.core.dendro_repair.rebuild_outcome` and
  :func:`~repro.core.dendro_repair.splice_dendrogram` over bounded caches
  (one cache, or several bridged by the update) give the full rebuild's
  merges at or below τ; when the splice line lies above τ the cached
  dendrogram comes back untouched and nothing is agglomerated;
- a bounded :class:`~repro.core.dendrogram.Dendrogram` refuses a cut above
  its horizon and a merge above it.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.hac_kernel as hk
from repro.core.clustering import agglomerate_clusters
from repro.core.correlation import CorrelationMatrix
from repro.core.dendro_repair import (
    build_dendrogram,
    rebuild_outcome,
    splice_dendrogram,
)
from repro.core.dendrogram import Dendrogram, Merge
from repro.core.hac_kernel import KERNEL_AUTO, KERNEL_PYTHON, numpy_available

LINKAGES = ("complete", "single")

#: The pure-Python heap always; the numpy kernel where numpy imports (the
#: size threshold patched to 0 sends every component down it).
KERNEL_SIZES = (10**9, 0) if numpy_available() else (10**9,)

_KEYS = [f"k{i}" for i in range(7)]

# Few keys over few groups: many pairs share a distance, so merges tie,
# and a threshold drawn from the merge distances ties exactly at τ.
_groups = st.lists(
    st.frozensets(st.sampled_from(_KEYS), min_size=1, max_size=4),
    min_size=1,
    max_size=12,
)


def _matrix(groups) -> CorrelationMatrix:
    matrix = CorrelationMatrix()
    for index, members in enumerate(groups):
        matrix.observe_group(index, members)
    return matrix


def _full(matrix, component, linkage) -> Dendrogram:
    return build_dendrogram(matrix, component, linkage, kernel=KERNEL_PYTHON)


def _threshold(data, *dendrograms) -> float:
    """A τ that is often exactly some merge's distance (a tie at τ)."""
    distances = sorted(
        {merge.distance for d in dendrograms for merge in d.merges}
    )
    exact = [st.sampled_from(distances)] if distances else []
    return data.draw(
        st.one_of(*exact, st.floats(min_value=0.5, max_value=4.0)), label="tau"
    )


def _bounded(dendrogram: Dendrogram, tau: float) -> list[Merge]:
    return [merge for merge in dendrogram.merges if merge.distance <= tau]


def _on_kernel(size: int):
    """Route components of ``size`` keys and up to the numpy kernel."""
    return mock.patch.object(hk, "KERNEL_SIZE_THRESHOLD", size)


@pytest.fixture(params=KERNEL_SIZES, ids=lambda size: f"threshold={size}")
def kernel_size(request):
    with _on_kernel(request.param):
        yield request.param


over_kernels = pytest.mark.parametrize(
    "size", KERNEL_SIZES, ids=lambda size: f"threshold={size}"
)


@over_kernels
@pytest.mark.parametrize("linkage", LINKAGES)
@settings(max_examples=60, deadline=None)
@given(groups=_groups, data=st.data())
def test_bounded_agglomeration_is_the_full_prefix(size, linkage, groups, data):
    matrix = _matrix(groups)
    for component in map(frozenset, matrix.connected_components()):
        full = _full(matrix, component, linkage)
        tau = _threshold(data, full)
        seeds = [frozenset((key,)) for key in sorted(component)]
        with _on_kernel(size):
            merges = agglomerate_clusters(
                matrix, seeds, linkage, kernel=KERNEL_AUTO, max_distance=tau
            )
        assert merges == _bounded(full, tau)
        bounded = Dendrogram(component, merges, tau)
        assert bounded.cut(tau) == full.cut(tau)


@over_kernels
@pytest.mark.parametrize("linkage", LINKAGES)
@settings(max_examples=40, deadline=None)
@given(groups=_groups, data=st.data())
def test_rebuild_outcome_is_bounded(size, linkage, groups, data):
    matrix = _matrix(groups)
    for component in matrix.connected_components():
        full = _full(matrix, component, linkage)
        tau = _threshold(data, full)
        with _on_kernel(size):
            outcome = rebuild_outcome(
                matrix, component, linkage, kernel=KERNEL_AUTO, max_distance=tau
            )
        assert not outcome.spliced
        assert outcome.dendrogram.horizon == tau
        assert outcome.dendrogram.merges == _bounded(full, tau)
        assert outcome.merges_recomputed == len(outcome.dendrogram.merges)
        assert outcome.dendrogram.cut(tau) == full.cut(tau)


@over_kernels
@pytest.mark.parametrize("linkage", LINKAGES)
@settings(max_examples=80, deadline=None)
@given(before=_groups, after=_groups, data=st.data())
def test_bounded_splice_is_the_full_rebuild_cut_at_tau(
    size, linkage, before, after, data
):
    # ``after`` groups grow the matrix: they may bridge components, add
    # keys and move distances; every old component keeps a bounded cache
    reference = _matrix(before + after)
    tau = _threshold(
        data,
        *(
            _full(reference, component, linkage)
            for component in reference.connected_components()
        ),
    )
    matrix = _matrix(before)
    with _on_kernel(size):  # on the kernel, blocks are cached and refreshed
        caches = {
            frozenset(component): build_dendrogram(
                matrix, component, linkage, kernel=KERNEL_AUTO, max_distance=tau
            )
            for component in matrix.connected_components()
        }
    dirty = set()
    for offset, members in enumerate(after):
        matrix.observe_group(len(before) + offset, members)
        dirty |= members
    for component in matrix.connected_components():
        component = frozenset(component)
        if component.isdisjoint(dirty):
            continue
        cached = sorted(
            (d for items, d in caches.items() if items <= component),
            key=lambda d: min(d.items),
        )
        if not cached:
            continue  # every key is new: nothing to splice
        with _on_kernel(size):
            outcome = splice_dendrogram(
                matrix, component, dirty, cached, linkage,
                kernel=KERNEL_AUTO, max_distance=tau,
            )
        full = _full(matrix, component, linkage)
        assert outcome.spliced
        assert outcome.dendrogram.horizon == tau
        # bridged caches may list tied merges grouped per cache: compare
        # the merge sets (the per-cache-group order is pinned elsewhere)
        assert sorted(
            outcome.dendrogram.merges, key=lambda m: (m.distance, sorted(m.members))
        ) == sorted(_bounded(full, tau), key=lambda m: (m.distance, sorted(m.members)))
        assert outcome.dendrogram.cut(tau) == full.cut(tau)


def _no_agglomeration():
    """Patch both merge loops to fail the test if a repair calls one."""
    return (
        mock.patch.object(hk, "agglomerate_square", side_effect=AssertionError),
        mock.patch(
            "repro.core.dendro_repair.agglomerate_clusters",
            side_effect=AssertionError,
        ),
    )


@pytest.mark.parametrize("linkage", LINKAGES)
class TestShortCircuit:
    def test_line_above_tau_keeps_the_cached_dendrogram(self, kernel_size, linkage):
        # a and b always write together (distance 0.5); c is linked loosely
        matrix = CorrelationMatrix({"a": {0, 2}, "b": {0, 2}, "c": {2, 3}})
        component = frozenset("abc")
        cached = build_dendrogram(matrix, component, linkage, max_distance=0.5)
        assert len(cached.merges) == 1
        matrix.observe_group(9, ["c"])  # moves only c's distances, all > 0.5
        square, python = _no_agglomeration()
        with square, python:
            outcome = splice_dendrogram(
                matrix, component, {"c"}, [cached], linkage,
                kernel=KERNEL_AUTO, max_distance=0.5,
            )
        assert outcome.dendrogram is cached
        assert outcome.spliced
        assert (outcome.merges_reused, outcome.merges_recomputed) == (1, 0)
        assert outcome.dendrogram.cut(0.5) == _full(matrix, component, linkage).cut(0.5)

    def test_bridge_above_tau_joins_the_cached_merges(self, kernel_size, linkage):
        # two twin pairs, each with a loosely linked key; a group of the
        # two loose keys bridges the components far above 0.5
        matrix = CorrelationMatrix({
            "a": {0}, "b": {0}, "p": {0, 5},
            "c": {1}, "d": {1}, "q": {1, 6},
        })
        left = build_dendrogram(matrix, "abp", linkage, max_distance=0.5)
        right = build_dendrogram(matrix, "cdq", linkage, max_distance=0.5)
        matrix.observe_group(7, ["p", "q"])
        component = frozenset("abpcdq")
        square, python = _no_agglomeration()
        with square, python:
            outcome = splice_dendrogram(
                matrix, component, {"p", "q"}, [left, right], linkage,
                kernel=KERNEL_AUTO, max_distance=0.5,
            )
        assert outcome.spliced
        assert (outcome.merges_reused, outcome.merges_recomputed) == (2, 0)
        assert outcome.dendrogram.items == component
        full = _full(matrix, component, linkage)
        assert outcome.dendrogram.merges == _bounded(full, 0.5)
        assert outcome.dendrogram.cut(0.5) == full.cut(0.5)

    def test_cached_merge_at_the_line_is_re_derived(self, kernel_size, linkage):
        # the bridge moves b, whose cached merge lies below τ: no short
        # circuit, the merge is re-derived (and no longer happens)
        matrix = CorrelationMatrix({"a": {0}, "b": {0}, "c": {1}, "d": {1}})
        left = build_dendrogram(matrix, "ab", linkage, max_distance=0.5)
        right = build_dendrogram(matrix, "cd", linkage, max_distance=0.5)
        matrix.observe_group(2, ["b", "c"])
        component = frozenset("abcd")
        outcome = splice_dendrogram(
            matrix, component, {"b", "c"}, [left, right], linkage,
            kernel=KERNEL_AUTO, max_distance=0.5,
        )
        assert outcome.spliced
        assert outcome.merges_reused == 0
        assert outcome.dendrogram.merges == []
        assert outcome.dendrogram.cut(0.5) == _full(matrix, component, linkage).cut(0.5)

    def test_empty_bounded_cache_is_evidence(self, kernel_size, linkage):
        # nothing in {a, b, c} merges at 0.5; a new key x joining the
        # component keeps it that way, and the splice says so
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {1, 2}, "c": {2, 3}})
        component = frozenset("abc")
        cached = build_dendrogram(matrix, component, linkage, max_distance=0.5)
        assert cached.merges == []
        matrix.observe_group(4, ["c", "x"])
        grown = component | {"x"}
        square, python = _no_agglomeration()
        with square, python:
            outcome = splice_dendrogram(
                matrix, grown, {"c", "x"}, [cached], linkage,
                kernel=KERNEL_AUTO, max_distance=0.5,
            )
        assert outcome.spliced
        assert outcome.dendrogram.merges == []
        assert outcome.dendrogram.items == grown

    def test_cache_with_another_horizon_rebuilds(self, kernel_size, linkage):
        matrix = CorrelationMatrix({"a": {0, 2}, "b": {0, 2}, "c": {2, 3}})
        component = frozenset("abc")
        cached = build_dendrogram(matrix, component, linkage)  # unbounded
        matrix.observe_group(9, ["c"])
        outcome = splice_dendrogram(
            matrix, component, {"c"}, [cached], linkage,
            kernel=KERNEL_AUTO, max_distance=0.5,
        )
        assert not outcome.spliced
        assert outcome.dendrogram.horizon == 0.5


class TestHorizon:
    MERGES = [
        Merge(frozenset("a"), frozenset("b"), 0.5, frozenset("ab")),
    ]

    def test_cut_above_the_horizon_raises(self):
        dendrogram = Dendrogram(set("abc"), self.MERGES, 0.5)
        assert dendrogram.cut(0.5) == [frozenset("ab"), frozenset("c")]
        assert dendrogram.cut(0.25) == [frozenset("a"), frozenset("b"), frozenset("c")]
        with pytest.raises(ValueError, match="above the dendrogram's horizon"):
            dendrogram.cut(0.75)

    def test_merge_above_the_horizon_is_refused(self):
        with pytest.raises(ValueError, match="above the horizon"):
            Dendrogram(set("abc"), self.MERGES, 0.25)

    def test_unbounded_by_default(self):
        dendrogram = Dendrogram(set("abc"), self.MERGES)
        assert math.isinf(dendrogram.horizon)
        assert dendrogram.cut(10.0) == [frozenset("ab"), frozenset("c")]
