"""Numpy HAC kernel ≡ pure-Python reference ≡ batch, bit for bit.

The contracts under test:

- every agglomeration entry point produces *identical merge lists* under
  ``kernel="numpy"`` and ``kernel="python"`` — same pairs, same order,
  same recorded distances — including under distance ties and from
  seeded (multi-key) partitions;
- pipelines with every component on the numpy kernel produce clusters
  byte-identical to the batch ``cluster_settings`` reference (the
  pure-Python HAC), for any prefix of any event stream (hypothesis + a
  sweep over every workload profile);
- both kernels agree with SciPy's ``linkage`` on dense tie-free random
  matrices;
- the dense distance-block cache refreshes only dirty rows and survives
  component growth/bridging; a retraction drops it;
- without numpy the guarded import leaves ``kernel="auto"`` on the
  Python path and makes ``kernel="numpy"`` fail with a clear error.
"""

from __future__ import annotations

import dataclasses
import math
import random
from unittest import mock

import pytest

np = pytest.importorskip(
    "numpy", reason="the kernel suite compares against the numpy kernel",
    exc_type=ImportError,
)
scipy = pytest.importorskip(
    "scipy", reason="the kernel suite cross-checks against SciPy",
    exc_type=ImportError,
)
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

import repro.core.hac_kernel as hk
from repro.core.clustering import (
    agglomerate_clusters,
    agglomerate_component,
    hac,
    seed_distances,
)
from repro.core.correlation import CorrelationMatrix
from repro.core.dendro_repair import build_dendrogram, splice_dendrogram, surviving_clusters
from repro.core.hac_kernel import (
    KERNEL_AUTO,
    KERNEL_NAMES,
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    KERNEL_SIZE_THRESHOLD,
    check_kernel,
    numpy_available,
    resolve_kernel,
)
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.store import DELETED, TTKV
from repro.workload.machines import PROFILES
from repro.workload.tracegen import generate_trace


def _sorted_stream(events):
    return [e for _, e in sorted(enumerate(events), key=lambda p: (p[1][0], p[0]))]


def _key_sets(cluster_set):
    return [tuple(c.sorted_keys()) for c in cluster_set]


def _random_matrix(rng, nkeys, groups, width) -> CorrelationMatrix:
    keys = [f"k{i:03d}" for i in range(nkeys)]
    matrix = CorrelationMatrix()
    for gid in range(groups):
        matrix.observe_group(gid, rng.sample(keys, rng.randint(1, min(width, nkeys))))
    return matrix


# -- kernel selection ---------------------------------------------------------


class TestKernelSelection:
    def test_names_and_validation(self):
        assert set(KERNEL_NAMES) == {"auto", "numpy", "python"}
        for name in KERNEL_NAMES:
            assert check_kernel(name) == name
        with pytest.raises(ValueError, match="unknown kernel"):
            check_kernel("fortran")

    def test_auto_respects_the_size_threshold(self):
        small = KERNEL_SIZE_THRESHOLD - 1
        large = KERNEL_SIZE_THRESHOLD
        assert resolve_kernel(KERNEL_AUTO, "complete", small) == KERNEL_PYTHON
        assert resolve_kernel(KERNEL_AUTO, "complete", large) == KERNEL_NUMPY
        assert resolve_kernel(KERNEL_NUMPY, "complete", small) == KERNEL_NUMPY
        assert resolve_kernel(KERNEL_PYTHON, "complete", large) == KERNEL_PYTHON

    def test_average_linkage_always_resolves_to_python(self):
        # Lance–Williams average does float arithmetic along the merge
        # path; the kernel refuses it to keep the bit-identical contract.
        assert resolve_kernel(KERNEL_NUMPY, "average", 10_000) == KERNEL_PYTHON
        assert resolve_kernel(KERNEL_AUTO, "average", 10_000) == KERNEL_PYTHON

    def test_numpy_is_available_in_the_test_environment(self):
        assert numpy_available()


# -- merge-list equality ------------------------------------------------------


class TestMergeEquality:
    @pytest.mark.parametrize("linkage", ["complete", "single"])
    def test_randomised_components_match_bit_for_bit(self, linkage):
        rng = random.Random(20260729)
        for _ in range(120):
            matrix = _random_matrix(
                rng, rng.randint(2, 30), rng.randint(1, 14), 6
            )
            for component in matrix.connected_components():
                if len(component) < 2:
                    continue
                py = agglomerate_component(
                    matrix, set(component), linkage, kernel=KERNEL_PYTHON
                )
                npk = agglomerate_component(
                    matrix, set(component), linkage, kernel=KERNEL_NUMPY
                )
                assert py == npk

    @pytest.mark.parametrize("linkage", ["complete", "single"])
    def test_tie_heavy_components_match(self, linkage):
        # Few groups over few keys: distances collide constantly, so the
        # (distance, id, id) tie-break order is exercised hard.
        rng = random.Random(7)
        for _ in range(150):
            matrix = _random_matrix(rng, rng.randint(2, 8), rng.randint(1, 5), 4)
            assert hac(matrix, linkage, kernel=KERNEL_PYTHON).merges == hac(
                matrix, linkage, kernel=KERNEL_NUMPY
            ).merges

    @pytest.mark.parametrize("linkage", ["complete", "single"])
    def test_seeded_partitions_match(self, linkage):
        rng = random.Random(11)
        for _ in range(120):
            matrix = _random_matrix(
                rng, rng.randint(3, 24), rng.randint(2, 10), 6
            )
            for component in matrix.connected_components():
                if len(component) < 3:
                    continue
                component = frozenset(component)
                dendrogram = build_dendrogram(matrix, component, linkage)
                if not dendrogram.merges:
                    continue
                cut = rng.randint(0, len(dendrogram.merges))
                seeds = surviving_clusters(component, dendrogram.merges[:cut])
                assert agglomerate_clusters(
                    matrix, seeds, linkage, kernel=KERNEL_PYTHON
                ) == agglomerate_clusters(
                    matrix, seeds, linkage, kernel=KERNEL_NUMPY
                )

    def test_seed_matrix_equals_the_python_sweep(self):
        rng = random.Random(3)
        for _ in range(60):
            matrix = _random_matrix(rng, rng.randint(3, 20), rng.randint(2, 9), 5)
            for linkage in ("complete", "single"):
                for component in matrix.connected_components():
                    if len(component) < 3:
                        continue
                    component = frozenset(component)
                    dendrogram = build_dendrogram(matrix, component, linkage)
                    cut = rng.randint(0, len(dendrogram.merges))
                    seeds = surviving_clusters(component, dendrogram.merges[:cut])
                    if len(seeds) < 2:
                        continue
                    reference = seed_distances(matrix, seeds, linkage)
                    block = matrix.component_distance_block(component)
                    square = hk.seed_matrix(block, seeds, linkage)
                    for a in range(len(seeds)):
                        for b in range(a + 1, len(seeds)):
                            expected = reference.get(
                                frozenset((a, b)), math.inf
                            )
                            assert square[a, b] == expected
                            assert square[b, a] == expected


# -- pipelines on the numpy kernel ≡ batch ------------------------------------


def assert_kernel_equivalence(events, rng, cuts=4, **params):
    """Feed a pipeline whose every component takes the numpy kernel.

    Patching the size threshold to 0 sends every complete- and
    single-linkage agglomeration the engine makes, splice seeding
    included, down the numpy path; the batch reference stays on the
    pure-Python HAC.  Each update must count exactly the components the
    numpy kernel agglomerated, and one that re-derived merges on a kernel
    linkage must count some, which proves the patch took effect.
    """
    stream = _sorted_stream(events)
    live = TTKV()
    on_kernel = params.get("linkage", "complete") in hk.KERNEL_LINKAGES
    positions = sorted(rng.sample(range(len(stream) + 1), min(cuts, len(stream) + 1)))
    if len(stream) not in positions:
        positions.append(len(stream))
    consumed = 0
    with (
        mock.patch.object(hk, "KERNEL_SIZE_THRESHOLD", 0),
        mock.patch.object(
            hk, "agglomerate_square", wraps=hk.agglomerate_square
        ) as kernel,
    ):
        fast = ShardedPipeline(live, **params)
        for position in positions:
            live.record_events(stream[consumed:position])
            consumed = position
            kernel.reset_mock()
            fast_sets = _key_sets(fast.update())
            stats = fast.last_stats
            assert stats.kernel_components == kernel.call_count
            assert stats.kernel_components <= stats.components_reclustered
            if not on_kernel:
                assert stats.kernel_components == 0
            elif stats.merges_recomputed:
                assert stats.kernel_components > 0
            batch = cluster_settings(live, **params)
            assert fast_sets == _key_sets(batch), (
                f"numpy kernel diverged from batch at prefix "
                f"{position}/{len(stream)} with {params}"
            )


_timestamps = st.floats(min_value=0, max_value=2000, allow_nan=False)

_mixed_events = st.lists(
    st.tuples(
        _timestamps,
        st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5"]),
        st.one_of(st.integers(min_value=0, max_value=9), st.just(DELETED)),
    ),
    min_size=1,
    max_size=50,
)

# Coarse integer timestamps force equal-distance ties — the regime where
# the kernel's argmin tie-break must coincide with the reference heap.
_tie_heavy_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30).map(float),
        st.sampled_from(["k0", "k1", "k2", "k3"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


@given(_mixed_events, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_kernel_equals_python_equals_batch(events, rng):
    assert_kernel_equivalence(events, rng)


@given(_tie_heavy_events, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_kernel_equivalence_under_distance_ties(events, rng):
    assert_kernel_equivalence(events, rng)


@given(
    _mixed_events,
    st.randoms(use_true_random=False),
    st.sampled_from(["complete", "single", "average"]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_kernel_equivalence_across_linkages_and_thresholds(
    events, rng, linkage, threshold
):
    assert_kernel_equivalence(
        events, rng, linkage=linkage, correlation_threshold=threshold
    )


def _scaled(profile):
    """A fast, small variant of a Table I machine profile."""
    return dataclasses.replace(
        profile,
        days=2,
        noise_keys=min(profile.noise_keys, 25),
        noise_writes_per_day=min(profile.noise_writes_per_day, 60),
        reads_per_day=min(profile.reads_per_day, 100),
    )


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_kernel_equivalence_on_generated_profile_traces(profile):
    trace = generate_trace(_scaled(profile))
    events = trace.ttkv.write_events()
    assert events, f"profile {profile.name} generated no modifications"
    rng = random.Random(profile.seed)
    assert_kernel_equivalence(events, rng, cuts=8)


# -- SciPy cross-check --------------------------------------------------------


@pytest.mark.parametrize("kernel", [KERNEL_PYTHON, KERNEL_NUMPY])
@pytest.mark.parametrize(
    "our_linkage,scipy_method", [("complete", "complete"), ("single", "single")]
)
def test_matches_scipy_on_dense_random_matrices(kernel, our_linkage, scipy_method):
    """Both kernels agree with SciPy's linkage on tie-free dense inputs.

    Distances are made pairwise-distinct by construction so every
    implementation's tie-break is irrelevant and the merge distance
    sequences must coincide exactly.
    """
    rng = random.Random(20260729)
    for _ in range(20):
        nkeys = rng.randint(4, 16)
        keys = [f"k{i:02d}" for i in range(nkeys)]
        # one shared group connects everything; per-key extra groups make
        # the pairwise correlations (hence distances) distinct
        key_groups: dict[str, set[int]] = {key: {0} for key in keys}
        next_group = 1
        for i, key in enumerate(keys):
            for _ in range(i + rng.randint(0, 2)):
                key_groups[key].add(next_group)
                next_group += 1
        matrix = CorrelationMatrix(key_groups)
        dist = np.array(
            [
                [0.0 if a == b else matrix.distance_of(a, b) for b in keys]
                for a in keys
            ]
        )
        finite = squareform(dist, checks=False)
        if len(set(finite)) != len(finite) or not np.isfinite(finite).all():
            continue  # tie or disconnection: SciPy order is not comparable
        ours = hac(matrix, our_linkage, kernel=kernel)
        tree = scipy_linkage(finite, method=scipy_method)
        assert len(ours.merges) == len(tree)
        for merge, row in zip(ours.merges, tree):
            assert merge.distance == pytest.approx(row[2], rel=1e-12)


# -- distance-block cache -----------------------------------------------------


class TestDistanceBlockCache:
    def test_block_layout_and_values(self):
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {1, 2}})
        block = matrix.component_distance_block(frozenset("abc"))
        assert block.keys == ("a", "b", "c")
        assert block.square.shape == (3, 3)
        assert math.isinf(block.square[0, 0])
        assert block.square[0, 1] == matrix.distance_of("a", "b")
        assert block.square[1, 2] == matrix.distance_of("b", "c")
        assert block.square[2, 0] == matrix.distance_of("a", "c")

    def test_clean_component_returns_the_cached_array(self):
        matrix = CorrelationMatrix({"a": {0}, "b": {0}})
        first = matrix.component_distance_block(frozenset("ab"))
        again = matrix.component_distance_block(frozenset("ab"))
        assert again is first

    def test_dirty_rows_refresh_in_place(self):
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {1}})
        component = frozenset("abc")
        matrix.component_distance_block(component)
        matrix.observe_group(9, ["c"])  # only c's group count moves
        block = matrix.component_distance_block(component)
        assert block.square[2, 0] == matrix.distance_of("a", "c")
        assert block.square[0, 1] == matrix.distance_of("a", "b")

    def test_bridged_components_merge_their_blocks(self):
        matrix = CorrelationMatrix(
            {"a": {0, 1}, "b": {0, 1}, "x": {5, 6}, "y": {5, 6}}
        )
        matrix.component_distance_block(frozenset("ab"))
        matrix.component_distance_block(frozenset("xy"))
        matrix.observe_group(9, ["b", "x"])  # bridge
        merged = frozenset("abxy")
        block = matrix.component_distance_block(merged)
        assert block.keys == ("a", "b", "x", "y")
        for pair in (("a", "b"), ("b", "x"), ("x", "y"), ("a", "y")):
            expected = matrix.distance_of(*pair)
            at = (block.index[pair[0]], block.index[pair[1]])
            assert block.square[at] == expected

    def test_lossless_retraction_refreshes_in_place(self):
        # retracting group 1 keeps every edge alive (group 0 still covers
        # all pairs): no structural loss, so the cached array is kept and
        # the dirty rows are refreshed in place
        matrix = CorrelationMatrix()
        matrix.observe_group(0, ["a", "b", "c"])
        matrix.observe_group(1, ["a", "b"])
        first = matrix.component_distance_block(frozenset("abc"))
        matrix.retract_group(1, ["a", "b"])
        block = matrix.component_distance_block(frozenset("abc"))
        assert block is first
        assert block.square[0, 1] == matrix.distance_of("a", "b")
        assert block.square[0, 2] == matrix.distance_of("a", "c")

    def test_lossy_retraction_clears_the_cache(self):
        # retracting group 1 removes the (a, c)/(b, c) edges and key c
        # itself: a structural loss drops every cached block
        matrix = CorrelationMatrix()
        matrix.observe_group(0, ["a", "b"])
        matrix.observe_group(1, ["a", "b", "c"])
        first = matrix.component_distance_block(frozenset("abc"))
        matrix.retract_group(1, ["a", "b", "c"])
        assert "c" not in matrix
        block = matrix.component_distance_block(frozenset("ab"))
        assert block is not first
        assert block.keys == ("a", "b")
        assert block.square[0, 1] == matrix.distance_of("a", "b")

    def test_growth_equivalence_randomised(self):
        rng = random.Random(99)
        for _ in range(60):
            matrix = _random_matrix(rng, rng.randint(3, 15), rng.randint(2, 8), 5)
            for component in matrix.connected_components():
                if len(component) > 1:
                    matrix.component_distance_block(frozenset(component))
            gid = 1000
            for _ in range(rng.randint(1, 4)):
                pool = matrix.keys + ["n0", "n1"]
                matrix.observe_group(gid, rng.sample(pool, rng.randint(1, 5)))
                gid += 1
            fresh = CorrelationMatrix()
            for index, members in sorted(matrix.observed_groups().items()):
                fresh.observe_group(index, sorted(members))
            for component in matrix.connected_components():
                if len(component) < 2:
                    continue
                cached = matrix.component_distance_block(frozenset(component))
                rebuilt = fresh.component_distance_block(frozenset(component))
                assert cached.keys == rebuilt.keys
                assert np.array_equal(
                    cached.square, rebuilt.square, equal_nan=False
                )


# -- splice seed-distance reuse ----------------------------------------------


class TestSeedDistanceReuse:
    def _hot_matrix(self, blocks=6, rounds=8):
        matrix = CorrelationMatrix()
        gid = 0
        keys = [[f"b{b}k{i}" for i in range(4)] for b in range(blocks)]
        churn = ["z0", "z1"]
        for _ in range(rounds):
            for b in range(blocks):
                matrix.observe_group(gid, keys[b])
                gid += 1
            matrix.observe_group(gid, [churn[0], keys[0][0]])
            gid += 1
            matrix.observe_group(gid, [churn[1], keys[1][0]])
            gid += 1
            for name in churn:
                matrix.observe_group(gid, [name])
                gid += 1
        return matrix, churn, gid

    def test_repeat_repairs_reuse_cached_rows_and_stay_exact(self):
        matrix, churn, gid = self._hot_matrix()
        component = frozenset(matrix.keys)
        cached = build_dendrogram(matrix, component, "complete")
        seed_caches = []
        for step in range(4):
            matrix.observe_group(gid, churn)
            gid += 1
            outcome = splice_dendrogram(
                matrix,
                component,
                set(churn),
                [cached],
                "complete",
                kernel=KERNEL_NUMPY,
                seed_caches=seed_caches,
            )
            assert outcome.spliced
            assert outcome.kernel == KERNEL_NUMPY
            assert outcome.seed_cache is not None
            reference = build_dendrogram(matrix, component, "complete")
            assert outcome.dendrogram.merges == reference.merges
            cached = outcome.dendrogram
            seed_caches = [outcome.seed_cache]

    def test_cached_rows_match_a_fresh_reduction(self):
        matrix, churn, gid = self._hot_matrix()
        component = frozenset(matrix.keys)
        cached = build_dendrogram(matrix, component, "complete")
        matrix.observe_group(gid, churn)
        first = splice_dendrogram(
            matrix, component, set(churn), [cached], "complete",
            kernel=KERNEL_NUMPY,
        )
        matrix.observe_group(gid + 1, churn)
        with_cache = splice_dendrogram(
            matrix, component, set(churn), [first.dendrogram], "complete",
            kernel=KERNEL_NUMPY, seed_caches=[first.seed_cache],
        )
        without_cache = splice_dendrogram(
            matrix, component, set(churn), [first.dendrogram], "complete",
            kernel=KERNEL_NUMPY,
        )
        assert with_cache.dendrogram.merges == without_cache.dendrogram.merges
        assert np.array_equal(
            with_cache.seed_cache.matrix, without_cache.seed_cache.matrix
        )


# -- engine/pipeline integration ---------------------------------------------


def _hot_component_store(groups: int = 60, keys: int = 60) -> TTKV:
    store = TTKV()
    events = []
    for g in range(groups):
        t = g * 100.0
        for k in range(g % keys, min(g % keys + 6, keys)):
            events.append((t, f"app/k{k:02d}", g))
    store.record_events(events)
    return store


class TestEngineKernelDispatch:
    def test_kernel_counters_surface_in_update_stats(self):
        store = _hot_component_store()  # one 60-key component
        pipeline = ShardedPipeline(store)
        pipeline.update()
        assert pipeline.last_stats.kernel_components > 0

    def test_a_short_circuit_counts_no_kernel_component(self, monkeypatch):
        # a lone write to an unmerged key keeps the cached (merge-free)
        # dendrogram: the component resolves to numpy, but nothing ran
        monkeypatch.setattr(hk, "KERNEL_SIZE_THRESHOLD", 0)
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        pipeline.update()
        store.record_write("app/k00", "new", 60 * 100.0 + 1500)
        pipeline.update()
        stats = pipeline.last_stats
        assert (stats.components_reclustered, stats.merges_recomputed) == (1, 0)
        assert stats.kernel_components == 0

    def test_python_kernel_reports_no_kernel_components(self, monkeypatch):
        # an unreachable size threshold keeps the 60-key component on
        # the Python path, and the counters must say so
        monkeypatch.setattr(hk, "KERNEL_SIZE_THRESHOLD", 10**9)
        store = _hot_component_store()
        pipeline = ShardedPipeline(store)
        clusters = pipeline.update()
        assert pipeline.last_stats.kernel_components == 0
        assert _key_sets(clusters) == _key_sets(cluster_settings(store))

    def test_auto_leaves_small_components_on_python(self):
        store = TTKV()
        store.record_write("a", 1, 10.0)
        store.record_write("b", 1, 10.0)
        pipeline = ShardedPipeline(store)
        pipeline.update()
        assert pipeline.last_stats.kernel_components == 0

    def test_invalid_kernel_is_rejected(self):
        # the kernel is chosen only at the function level
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("magic", "complete", 2)
        matrix = CorrelationMatrix({"a": {0}, "b": {0}})
        with pytest.raises(ValueError, match="unknown kernel"):
            agglomerate_component(matrix, {"a", "b"}, "complete", kernel="magic")


# -- the no-numpy fallback ----------------------------------------------------


class TestNumpyAbsent:
    """Behaviour with the soft dependency missing (simulated)."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(hk, "_np", None)

    def test_auto_falls_back_to_python(self, no_numpy):
        assert not numpy_available()
        assert resolve_kernel(KERNEL_AUTO, "complete", 10_000) == KERNEL_PYTHON

    def test_explicit_numpy_raises_a_clear_error(self, no_numpy):
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            check_kernel(KERNEL_NUMPY)
        matrix = CorrelationMatrix({"a": {0}, "b": {0}})
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            agglomerate_component(matrix, {"a", "b"}, "complete", kernel=KERNEL_NUMPY)

    def test_auto_pipeline_still_clusters(self, no_numpy):
        store = _hot_component_store(groups=20, keys=20)
        pipeline = ShardedPipeline(store)
        clusters = pipeline.update()
        assert _key_sets(clusters) == _key_sets(cluster_settings(store))
        assert pipeline.last_stats.kernel_components == 0

    def test_require_numpy_raises(self, no_numpy):
        with pytest.raises(RuntimeError, match="numpy, which is not installed"):
            hk.require_numpy()
