"""Tests for the paper's correlation metric and the sparse matrix."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import (
    CorrelationMatrix,
    CorrelationMatrixView,
    correlation,
    correlation_to_distance,
    distance_to_correlation,
)


class TestCorrelationMetric:
    def test_always_together_is_two(self):
        assert correlation({1, 2, 3}, {1, 2, 3}) == 2.0

    def test_never_together_is_zero(self):
        assert correlation({1, 2}, {3, 4}) == 0.0

    def test_partial_overlap(self):
        # |A∩B|=1, |A|=2, |B|=4 -> 0.5 + 0.25
        assert correlation({1, 2}, {1, 3, 4, 5}) == pytest.approx(0.75)

    def test_asymmetric_sizes_symmetric_result(self):
        a, b = {1, 2, 3, 4}, {1}
        assert correlation(a, b) == correlation(b, a)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            correlation(set(), {1})

    def test_subset_relationship(self):
        # B always co-occurs with A but A often occurs alone.
        assert correlation({1, 2, 3, 4}, {1, 2}) == pytest.approx(0.5 + 1.0)


class TestDistanceTransform:
    def test_perfect_correlation_distance(self):
        assert correlation_to_distance(2.0) == 0.5

    def test_zero_correlation_infinite(self):
        assert math.isinf(correlation_to_distance(0.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            correlation_to_distance(2.1)
        with pytest.raises(ValueError):
            correlation_to_distance(-0.1)

    def test_inverse(self):
        assert distance_to_correlation(correlation_to_distance(1.25)) == pytest.approx(1.25)

    def test_infinite_distance_maps_to_zero(self):
        assert distance_to_correlation(math.inf) == 0.0

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            distance_to_correlation(0.0)


@pytest.fixture
def matrix() -> CorrelationMatrix:
    # a and b always together; c sometimes with a; d alone.
    return CorrelationMatrix(
        {
            "a": {0, 1, 2},
            "b": {0, 1, 2},
            "c": {2, 3},
            "d": {4},
        }
    )


class TestCorrelationMatrix:
    def test_pairwise_value(self, matrix):
        assert matrix.correlation_of("a", "b") == 2.0

    def test_uncorrelated_pair_is_zero(self, matrix):
        assert matrix.correlation_of("a", "d") == 0.0

    def test_self_correlation_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix.correlation_of("a", "a")

    def test_unknown_key_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.correlation_of("a", "ghost")

    def test_distance_of(self, matrix):
        assert matrix.distance_of("a", "b") == 0.5
        assert math.isinf(matrix.distance_of("a", "d"))

    def test_neighbors(self, matrix):
        assert matrix.neighbors("a") == {"b", "c"}
        assert matrix.neighbors("d") == set()

    def test_empty_group_set_rejected(self):
        with pytest.raises(ValueError):
            CorrelationMatrix({"a": set()})

    def test_connected_components(self, matrix):
        components = sorted(
            matrix.connected_components(), key=lambda c: sorted(c)[0]
        )
        assert components == [{"a", "b", "c"}, {"d"}]

    def test_finite_pairs_listing(self, matrix):
        pairs = {(a, b) for a, b, _ in matrix.finite_pairs()}
        assert pairs == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_len(self, matrix):
        assert len(matrix) == 4


@given(
    st.dictionaries(
        st.sampled_from("abcdef"),
        st.sets(st.integers(min_value=0, max_value=10), min_size=1),
        min_size=2,
    )
)
def test_property_correlation_bounds_and_symmetry(key_groups):
    matrix = CorrelationMatrix(key_groups)
    keys = matrix.keys
    for i, key_a in enumerate(keys):
        for key_b in keys[i + 1:]:
            value = matrix.correlation_of(key_a, key_b)
            assert 0.0 <= value <= 2.0
            assert value == matrix.correlation_of(key_b, key_a)
            # matrix agrees with the direct metric
            expected = correlation(key_groups[key_a], key_groups[key_b])
            assert value == pytest.approx(expected)


class TestInPlaceUpdates:
    def test_observe_group_matches_batch_construction(self):
        batch = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {1}})
        streamed = CorrelationMatrix()
        streamed.observe_group(0, {"a", "b"})
        streamed.observe_group(1, {"a", "b", "c"})
        for key_a, key_b in (("a", "b"), ("a", "c"), ("b", "c")):
            assert streamed.correlation_of(key_a, key_b) == batch.correlation_of(
                key_a, key_b
            )
        assert sorted(streamed.keys) == sorted(batch.keys)

    def test_retract_group_restores_previous_state(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        matrix.observe_group(1, {"b", "c"})
        matrix.retract_group(1, {"b", "c"})
        assert sorted(matrix.keys) == ["a", "b"]
        assert matrix.correlation_of("a", "b") == 2.0
        assert matrix.neighbors("b") == {"a"}

    def test_update_groups_replaces_provisional_group(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a"})
        dirty = matrix.update_groups(
            added=[(0, {"a", "b"})], removed=[(0, {"a"})]
        )
        assert dirty == {"a", "b"}
        assert matrix.correlation_of("a", "b") == 2.0

    def test_failed_retract_leaves_matrix_untouched(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        with pytest.raises(ValueError):
            # group 5 was never observed for either key; validation must
            # reject the batch before mutating anything
            matrix.retract_group(5, {"a", "b"})
        assert matrix.correlation_of("a", "b") == 2.0
        assert matrix.neighbors("a") == {"b"}

    def test_partially_invalid_retract_is_atomic(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a"})
        matrix.observe_group(1, {"a", "b"})
        with pytest.raises(ValueError):
            # group 0 was observed as {"a"}, not {"a", "b"}
            matrix.retract_group(0, {"a", "b"})
        assert matrix.correlation_of("a", "b") == pytest.approx(0.5 + 1.0)
        assert matrix.group_count("a") == 2

    def test_subset_retract_rejected(self):
        # retracting part of a group's membership would leave dangling
        # pair counts; the matrix must insist on the exact observed set
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"x", "y", "z"})
        with pytest.raises(ValueError):
            matrix.retract_group(0, {"x"})
        assert matrix.neighbors("x") == {"y", "z"}
        assert len(list(matrix.finite_pairs())) == 3
        assert matrix.connected_components() == [{"x", "y", "z"}]

    def test_empty_group_rejected(self):
        matrix = CorrelationMatrix()
        with pytest.raises(ValueError):
            matrix.observe_group(0, set())
        matrix.observe_group(0, {"a"})  # the index was never occupied
        assert matrix.group_count("a") == 1

    def test_index_reuse_with_disjoint_keys_rejected(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(5, {"a", "b"})
        with pytest.raises(ValueError):
            matrix.observe_group(5, {"c", "d"})
        assert sorted(matrix.keys) == ["a", "b"]

    def test_duplicate_observation_rejected(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a"})
        with pytest.raises(ValueError):
            matrix.observe_group(0, {"a", "b"})
        assert sorted(matrix.keys) == ["a"]

    def test_duplicate_index_within_added_batch_rejected(self):
        matrix = CorrelationMatrix()
        with pytest.raises(ValueError):
            matrix.update_groups(added=[(0, {"a", "b"}), (0, {"a", "c"})])
        assert len(matrix) == 0

    def test_duplicate_index_within_removed_batch_rejected(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        with pytest.raises(ValueError):
            matrix.update_groups(removed=[(0, {"a", "b"}), (0, {"a", "b"})])
        assert matrix.correlation_of("a", "b") == 2.0


def _assert_components_agree(matrix):
    unionfind = sorted(map(sorted, matrix.connected_components()))
    scan = sorted(map(sorted, matrix.connected_components(method="scan")))
    assert unionfind == scan


class TestUnionFindComponents:
    """The incrementally maintained components vs the traversal reference."""

    def test_find_and_component_members(self):
        matrix = CorrelationMatrix({"a": {0}, "b": {0}, "c": {1}})
        assert matrix.find("a") == matrix.find("b")
        assert matrix.find("a") != matrix.find("c")
        assert matrix.component_members("a") == {"a", "b"}
        assert matrix.component_members("c") == {"c"}
        with pytest.raises(KeyError):
            matrix.find("ghost")

    def test_components_merge_incrementally(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        matrix.observe_group(1, {"c", "d"})
        version = matrix.structure_version
        _assert_components_agree(matrix)
        matrix.observe_group(2, {"b", "c"})  # bridges the two components
        assert matrix.component_members("a") == {"a", "b", "c", "d"}
        # pure growth must not signal a structural loss
        assert matrix.structure_version == version
        _assert_components_agree(matrix)

    def test_provisional_replacement_is_not_a_structural_loss(self):
        # the streaming pipeline's routine retract-and-extend of the
        # trailing group must stay on the incremental path
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        version = matrix.structure_version
        matrix.update_groups(
            added=[(0, {"a", "b", "c"})], removed=[(0, {"a", "b"})]
        )
        assert matrix.structure_version == version
        assert matrix.component_members("c") == {"a", "b", "c"}
        _assert_components_agree(matrix)

    def test_true_retraction_bumps_version_and_rebuilds(self):
        matrix = CorrelationMatrix()
        matrix.observe_group(0, {"a", "b"})
        matrix.observe_group(1, {"b", "c"})
        version = matrix.structure_version
        matrix.retract_group(1, {"b", "c"})  # severs b-c and drops key c
        assert matrix.structure_version > version
        assert matrix.component_members("a") == {"a", "b"}
        assert sorted(map(sorted, matrix.connected_components())) == [["a", "b"]]
        _assert_components_agree(matrix)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_components_always_match_scan(self, operations):
        matrix = CorrelationMatrix()
        live: dict[int, set] = {}
        next_index = 0
        for action, keys in operations:
            if action == "add" or not live:
                matrix.observe_group(next_index, keys)
                live[next_index] = keys
                next_index += 1
            else:
                index = sorted(live)[len(live) // 2]
                matrix.retract_group(index, live.pop(index))
            _assert_components_agree(matrix)
            for key in matrix.keys:
                assert key in matrix.component_members(key)
                assert matrix.find(key) in matrix.component_members(key)


class TestReadOnlyView:
    def test_queries_delegate(self):
        matrix = CorrelationMatrix({"a": {0, 1}, "b": {0, 1}, "c": {2}})
        view = CorrelationMatrixView(matrix)
        assert view.correlation_of("a", "b") == 2.0
        assert view.distance_of("a", "b") == 0.5
        assert view.neighbors("a") == {"b"}
        assert sorted(view.keys) == ["a", "b", "c"]
        assert len(view) == 3
        assert "a" in view and "ghost" not in view
        assert view.group_count("a") == 2
        assert view.component_members("a") == {"a", "b"}
        assert view.find("a") == matrix.find("a")
        assert sorted(map(sorted, view.connected_components())) == sorted(
            map(sorted, matrix.connected_components())
        )
        assert view.observed_groups() == matrix.observed_groups()
        assert set(dict(view.observed_groups())) == {0, 1, 2}

    def test_mutators_raise(self):
        view = CorrelationMatrixView(CorrelationMatrix({"a": {0}}))
        with pytest.raises(TypeError):
            view.observe_group(1, {"x"})
        with pytest.raises(TypeError):
            view.retract_group(0, {"a"})
        with pytest.raises(TypeError):
            view.update_groups(added=[(1, {"x"})])


def _delta_fixture() -> CorrelationMatrix:
    """Compacted {a,b}, {b,c}, {c,d} plus one retained group {a,b}.

    Effective counts: a 2, b 3, c 2, d 1; pairs a/b 2, b/c 1, c/d 1.
    """
    matrix = CorrelationMatrix()
    matrix.observe_groups_batch(0, [["a", "b"], ["b", "c"], ["c", "d"]])
    matrix.update_groups(added=[(3, ["a", "b"])])
    return matrix


@pytest.mark.parametrize(
    "key_deltas, pair_deltas, message",
    [
        (
            {"d": -2},
            {},
            "count delta -2 for 'd' drives its group count below zero "
            "(currently 1)",
        ),
        (
            {"a": -2},
            {},
            "count delta -2 for 'a' cuts into retained groups; retract "
            "them instead",
        ),
        ({}, {("c", "c"): 1}, "pair delta names a single key 'c'"),
        (
            {},
            {("d", "c"): -2},
            "intersection delta -2 for 'c'/'d' drives the pair count below "
            "zero (currently 1)",
        ),
        (
            {},
            {("a", "b"): -2},
            "intersection delta -2 for 'a'/'b' cuts into retained groups; "
            "retract them instead",
        ),
        (
            {},
            {("a", "z"): 1},
            "pair delta for 'a'/'z' names key 'z', which has no group count",
        ),
        (
            {"d": -1},
            {},
            "count delta removes 'd' but leaves its pair with 'c' non-zero; "
            "zero the pair in the same call",
        ),
        (
            {},
            {("c", "d"): 1},
            "intersection delta 1 for 'c'/'d' lifts the pair count above "
            "the group count of 'd' (1)",
        ),
        (
            {"a": -1},
            {},
            "count delta -1 for 'a' drops its group count (1) below its "
            "intersection with 'b' (2)",
        ),
    ],
    ids=[
        "count-below-zero",
        "count-cuts-retained",
        "pair-single-key",
        "intersection-below-zero",
        "intersection-cuts-retained",
        "pair-unknown-key",
        "key-removed-pair-kept",
        "intersection-above-key-count",
        "key-count-below-kept-pair",
    ],
)
def test_apply_count_deltas_rejections_are_atomic(
    key_deltas, pair_deltas, message
):
    matrix = _delta_fixture()
    before = (
        matrix.pairwise_counts(),
        matrix.structure_version,
        sorted(map(sorted, matrix.connected_components())),
    )
    # a valid delta rides along in every call: nothing of it may land
    with pytest.raises(ValueError) as raised:
        matrix.apply_count_deltas(
            {"b": 1, "e": 1, **key_deltas}, {("b", "e"): 1, **pair_deltas}
        )
    assert str(raised.value) == message
    assert before == (
        matrix.pairwise_counts(),
        matrix.structure_version,
        sorted(map(sorted, matrix.connected_components())),
    )


def test_install_compacted_rejection_is_atomic():
    # the pair's unknown key is found only after the keys were read: a
    # rejected state must not leave the counts or the group total behind
    matrix = CorrelationMatrix()
    before = (
        matrix.pairwise_counts(),
        matrix.compacted_groups,
        matrix.compact_floor,
        matrix.structure_version,
    )
    state = {"count": 3, "floor": 3, "keys": [["a", 1]], "pairs": [["a", "z", 1]]}
    with pytest.raises(ValueError, match="compacted pair names unknown key 'z'"):
        matrix.install_compacted(state)
    assert before == (
        matrix.pairwise_counts(),
        matrix.compacted_groups,
        matrix.compact_floor,
        matrix.structure_version,
    )
