"""Batch group observation ≡ one-at-a-time observation.

:meth:`CorrelationMatrix.observe_groups_batch` vectorises the closed-group
ingest path (bincount key occurrences, unique-coded pair counts) and folds
the batch straight into the compacted baseline.  The contract: it must be
indistinguishable from feeding the same groups through ``update_groups``
and then compacting exactly those groups — same counts, same correlations,
same components, same structure version, same validation errors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import BATCH_VECTOR_MIN, CorrelationMatrix

_keys = st.sampled_from(["a", "b", "c", "d", "e"])
_groups = st.lists(
    st.frozensets(_keys, min_size=1, max_size=4), min_size=1, max_size=12
)


def _snapshot(matrix):
    """Every public observable the batch and loop paths must agree on."""
    return (
        matrix.pairwise_counts(),
        matrix.observed_groups(),
        matrix.compacted_state(),
        matrix.compacted_groups,
        matrix.compact_floor,
        matrix.structure_version,
        sorted(map(sorted, matrix.connected_components())),
    )


def _apply_reference(matrix, start, groups):
    dirty = matrix.update_groups(
        added=list(enumerate(groups, start)), removed=[]
    )
    matrix.compact(start + len(groups))
    return dirty


@given(_groups, _groups)
@settings(max_examples=80, deadline=None)
def test_batch_matches_observe_then_compact(prefix, batch):
    """Fallback-size batches: vector path and loop agree from any prefix."""
    left = CorrelationMatrix()
    right = CorrelationMatrix()
    for matrix in (left, right):
        for index, members in enumerate(prefix):
            matrix.observe_group(index, members)
        matrix.compact(len(prefix))
    start = len(prefix)
    dirty_l = left.observe_groups_batch(start, batch)
    dirty_r = _apply_reference(right, start, batch)
    assert dirty_l == dirty_r
    assert _snapshot(left) == _snapshot(right)
    for key in "bcde":
        if key in left and "a" in left:
            assert left.correlation_of(key, "a") == right.correlation_of(key, "a")


@given(_groups)
@settings(max_examples=30, deadline=None)
def test_vector_sized_batch_matches(batch):
    """Batches above BATCH_VECTOR_MIN keys take the numpy path; same result."""
    pytest.importorskip("numpy")
    batch = batch * (BATCH_VECTOR_MIN // max(1, sum(len(g) for g in batch)) + 1)
    assert sum(len(g) for g in batch) >= BATCH_VECTOR_MIN
    left = CorrelationMatrix()
    right = CorrelationMatrix()
    dirty_l = left.observe_groups_batch(0, batch)
    dirty_r = _apply_reference(right, 0, batch)
    assert dirty_l == dirty_r
    assert _snapshot(left) == _snapshot(right)


@given(_groups)
@settings(max_examples=30, deadline=None)
def test_provisional_group_after_batch_behaves_identically(batch):
    """A provisional trailing group added after a batch retracts cleanly."""
    left = CorrelationMatrix()
    right = CorrelationMatrix()
    left.observe_groups_batch(0, batch)
    _apply_reference(right, 0, batch)
    pending = len(batch)
    for matrix in (left, right):
        matrix.update_groups(added=[(pending, frozenset(["a", "e"]))])
        matrix.update_groups(
            removed=[(pending, frozenset(["a", "e"]))],
            added=[(pending, frozenset(["a", "b", "e"]))],
        )
    assert _snapshot(left) == _snapshot(right)


def test_batch_without_numpy_uses_fallback(monkeypatch):
    import importlib

    correlation_module = importlib.import_module("repro.core.correlation")
    monkeypatch.setattr(correlation_module, "_np", None)
    left = CorrelationMatrix()
    right = CorrelationMatrix()
    groups = [frozenset(["a", "b"]), frozenset(["b", "c"])] * BATCH_VECTOR_MIN
    assert left.observe_groups_batch(0, groups) == _apply_reference(
        right, 0, groups
    )
    assert _snapshot(left) == _snapshot(right)


class TestBatchValidation:
    def test_empty_batch_is_a_no_op(self):
        matrix = CorrelationMatrix()
        assert matrix.observe_groups_batch(0, []) == set()
        assert matrix.structure_version == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            CorrelationMatrix().observe_groups_batch(0, [frozenset()])

    def test_start_below_compact_floor_rejected(self):
        matrix = CorrelationMatrix()
        matrix.observe_groups_batch(0, [frozenset(["a"])])
        matrix.compact(1)
        with pytest.raises(ValueError):
            matrix.observe_groups_batch(0, [frozenset(["b"])])

    def test_already_observed_index_rejected(self):
        matrix = CorrelationMatrix()
        matrix.update_groups(added=[(0, frozenset(["a"]))])
        with pytest.raises(ValueError):
            matrix.observe_groups_batch(0, [frozenset(["b"])])

    def test_view_blocks_batch_mutation(self):
        from repro.core.correlation import CorrelationMatrixView

        view = CorrelationMatrixView(CorrelationMatrix())
        with pytest.raises(TypeError):
            view.observe_groups_batch(0, [frozenset(["a"])])
