"""Stateful model test: one :class:`CorrelationMatrix` against a naive recount.

Hypothesis drives a single matrix through every mutator — fresh groups,
retractions, provisional-group replacement, ``compact``, batch folds on
both sides of ``BATCH_VECTOR_MIN``, signed ``apply_count_deltas``
evidence, and a rejected operation from each mutator family — while an
oracle keeps the evidence as a multiset of groups (the retained ones by
index, everything compacted or delta-applied as an anonymous bag) and
recounts every key and pair from scratch.

After every step the matrix must agree with the oracle on counts, on
every pair's correlation (bit-identical), on neighbours, on components
(union-find, scan and the oracle's graph), on cached distance blocks,
and on checkpoint replay; ``structure_version`` must bump exactly when
some key's or pair's effective count reached zero; and a rejected
operation must raise ``ValueError`` and change nothing.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.correlation import BATCH_VECTOR_MIN, CorrelationMatrix

try:
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-free CI leg
    _HAVE_NUMPY = False

_KEYS = ("a", "b", "c", "d", "e", "f")
_group = st.frozensets(st.sampled_from(_KEYS), min_size=1, max_size=4)


def _contribution(groups) -> tuple[Counter, Counter]:
    keys: Counter = Counter()
    pairs: Counter = Counter()
    for members in groups:
        keys.update(members)
        pairs.update(combinations(sorted(members), 2))
    return keys, pairs


def _graph_components(keys, pairs) -> list[list[str]]:
    adjacency: dict[str, set[str]] = {key: set() for key in keys}
    for key_a, key_b in pairs:
        adjacency[key_a].add(key_b)
        adjacency[key_b].add(key_a)
    seen: set[str] = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        stack, component = [start], set()
        while stack:
            key = stack.pop()
            if key not in component:
                component.add(key)
                stack.extend(adjacency[key] - component)
        seen |= component
        components.append(sorted(component))
    return sorted(components)


class MatrixModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.matrix = CorrelationMatrix()
        self.retained: dict[int, frozenset[str]] = {}
        # every group whose evidence is counted but no longer retractable
        # (compacted, batch-folded or added through count deltas)
        self.bag: list[frozenset[str]] = []
        self.compacted = 0
        self.floor = 0
        self.next_index = 0
        self.version = 0

    # -- oracle ------------------------------------------------------------

    def _expected(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        keys, pairs = _contribution([*self.retained.values(), *self.bag])
        return (
            {key: count for key, count in keys.items() if count},
            {pair: count for pair, count in pairs.items() if count},
        )

    def _mutate(self, operation, commit) -> object:
        """Run ``operation``, ``commit`` it to the oracle, and advance the
        expected structure version when a key or pair count reached 0."""
        before_keys, before_pairs = self._expected()
        result = operation()
        commit()
        after_keys, after_pairs = self._expected()
        if before_keys.keys() - after_keys.keys() or (
            before_pairs.keys() - after_pairs.keys()
        ):
            self.version += 1
        return result

    def _rejected(self, operation) -> None:
        before = self.matrix.pairwise_counts()
        version = self.matrix.structure_version
        with pytest.raises(ValueError):
            operation()
        assert self.matrix.pairwise_counts() == before
        assert self.matrix.structure_version == version

    # -- rules -------------------------------------------------------------

    @rule(members=_group)
    def add_group(self, members):
        index = self.next_index

        def commit():
            self.retained[index] = members
            self.next_index = index + 1

        dirty = self._mutate(
            lambda: self.matrix.update_groups(added=[(index, members)]), commit
        )
        assert dirty == set(members)

    @precondition(lambda self: self.retained)
    @rule(data=st.data())
    def retract_group(self, data):
        index = data.draw(st.sampled_from(sorted(self.retained)))
        members = self.retained[index]
        self._mutate(
            lambda: self.matrix.update_groups(removed=[(index, members)]),
            lambda: self.retained.pop(index),
        )

    @precondition(lambda self: self.retained)
    @rule(data=st.data(), members=_group)
    def replace_provisional_group(self, data, members):
        index = data.draw(st.sampled_from(sorted(self.retained)))
        old = self.retained[index]
        dirty = self._mutate(
            lambda: self.matrix.update_groups(
                removed=[(index, old)], added=[(index, members)]
            ),
            lambda: self.retained.__setitem__(index, members),
        )
        # a key set registered again unchanged cancels: nothing is dirty
        assert dirty == (set() if members == old else set(old | members))

    @precondition(lambda self: self.retained)
    @rule(data=st.data(), extra=st.lists(_group, max_size=2))
    def reindex_groups(self, data, extra):
        # Retract retained groups and register some of their key sets
        # again, plus ``extra``, at indices drawn from the freed ones and
        # fresh ones — what a reorder repair does when an insert shifts
        # group indices.
        victims = data.draw(
            st.lists(st.sampled_from(sorted(self.retained)), min_size=1, unique=True)
        )
        removed = [(index, self.retained[index]) for index in victims]
        again = data.draw(
            st.lists(st.booleans(), min_size=len(victims), max_size=len(victims))
        )
        registered = [
            members for (_, members), keep in zip(removed, again) if keep
        ] + extra
        fresh = max(self.next_index, self.floor)
        slots = data.draw(
            st.permutations(victims + list(range(fresh, fresh + len(registered))))
        )
        added = list(zip(slots, registered))

        def commit():
            for index in victims:
                del self.retained[index]
            self.retained.update(added)
            self.next_index = max([self.next_index, *(i + 1 for i, _ in added)])

        dirty = self._mutate(
            lambda: self.matrix.update_groups(added=added, removed=removed),
            commit,
        )
        gone = Counter(members for _, members in removed)
        new = Counter(registered)
        changed = (gone - new) + (new - gone)
        assert dirty == set().union(*changed)

    @rule(data=st.data())
    def compact(self, data):
        keep_from = data.draw(st.integers(0, self.next_index + 2))
        victims = sorted(i for i in self.retained if i < keep_from)

        def commit():
            self.bag.extend(self.retained.pop(i) for i in victims)
            self.compacted += len(victims)
            self.floor = max(self.floor, keep_from)
            self.next_index = max(self.next_index, self.floor)

        compacted = self._mutate(lambda: self.matrix.compact(keep_from), commit)
        assert compacted == len(victims)

    @rule(groups=st.lists(_group, min_size=1, max_size=6), vector=st.booleans())
    def observe_groups_batch(self, groups, vector):
        if vector:
            total = sum(map(len, groups))
            groups = groups * (BATCH_VECTOR_MIN // total + 1)
            assert sum(map(len, groups)) >= BATCH_VECTOR_MIN
        else:
            assert sum(map(len, groups)) < BATCH_VECTOR_MIN
        start = self.next_index

        def commit():
            self.bag.extend(groups)
            self.compacted += len(groups)
            self.next_index = start + len(groups)
            self.floor = max(self.floor, self.next_index)

        dirty = self._mutate(
            lambda: self.matrix.observe_groups_batch(start, groups), commit
        )
        assert dirty == set().union(*groups)

    @rule(data=st.data(), added=st.lists(_group, max_size=3))
    def apply_count_deltas(self, data, added):
        removed_at = data.draw(
            st.lists(
                st.integers(0, max(0, len(self.bag) - 1)),
                unique=True,
                max_size=min(3, len(self.bag)),
            )
        )
        removed = [self.bag[i] for i in removed_at]
        plus_keys, plus_pairs = _contribution(added)
        minus_keys, minus_pairs = _contribution(removed)
        key_deltas = {
            key: plus_keys[key] - minus_keys[key]
            for key in plus_keys.keys() | minus_keys.keys()
        }
        flip = data.draw(st.booleans())
        pair_deltas = {
            (pair[::-1] if flip else pair): plus_pairs[pair] - minus_pairs[pair]
            for pair in plus_pairs.keys() | minus_pairs.keys()
        }

        def commit():
            for i in sorted(removed_at, reverse=True):
                del self.bag[i]
            self.bag.extend(added)

        dirty = self._mutate(
            lambda: self.matrix.apply_count_deltas(key_deltas, pair_deltas),
            commit,
        )
        assert dirty == {key for key, d in key_deltas.items() if d} | {
            key for pair, d in pair_deltas.items() if d for key in pair
        }

    @rule(data=st.data())
    def rejected_update_groups(self, data):
        options = [
            lambda: self.matrix.update_groups(
                removed=[(self.next_index + 5, ["a"])]
            ),
            lambda: self.matrix.update_groups(added=[(self.next_index, [])]),
            lambda: self.matrix.update_groups(
                added=[(self.next_index, ["a"]), (self.next_index, ["b"])]
            ),
            # a valid addition riding with an invalid retraction
            lambda: self.matrix.update_groups(
                added=[(self.next_index, ["a", "b"])],
                removed=[(self.next_index + 1, ["a"])],
            ),
        ]
        if self.retained:
            index = data.draw(st.sampled_from(sorted(self.retained)))
            wrong = sorted(self.retained[index] ^ {"z"})
            options.append(
                lambda: self.matrix.update_groups(removed=[(index, wrong)])
            )
            options.append(
                lambda: self.matrix.update_groups(added=[(index, ["a"])])
            )
        if self.floor:
            options.append(
                lambda: self.matrix.update_groups(
                    added=[(self.floor - 1, ["a"])]
                )
            )
        self._rejected(data.draw(st.sampled_from(options)))

    @rule(data=st.data())
    def rejected_observe_groups_batch(self, data):
        options = [
            lambda: self.matrix.observe_groups_batch(
                self.next_index, [["a", "b"], []]
            ),
        ]
        if self.retained:
            index = data.draw(st.sampled_from(sorted(self.retained)))
            options.append(
                lambda: self.matrix.observe_groups_batch(index, [["a"]])
            )
        if self.floor:
            options.append(
                lambda: self.matrix.observe_groups_batch(
                    self.floor - 1, [["a"]]
                )
            )
        self._rejected(data.draw(st.sampled_from(options)))

    @rule(data=st.data())
    def rejected_apply_count_deltas(self, data):
        counts, common = self._expected()
        options = [
            lambda: self.matrix.apply_count_deltas({"a": 1}, {("c", "c"): 1}),
            lambda: self.matrix.apply_count_deltas({"a": 1}, {("a", "z"): 1}),
            lambda: self.matrix.apply_count_deltas({"z": -1}, {}),
        ]
        if counts:
            key = data.draw(st.sampled_from(sorted(counts)))
            options.append(
                lambda: self.matrix.apply_count_deltas(
                    {key: -counts[key] - 1, "z": 1}, {}
                )
            )
        retained_keys, retained_pairs = _contribution(self.retained.values())
        if retained_keys:
            key = data.draw(st.sampled_from(sorted(retained_keys)))
            options.append(
                lambda: self.matrix.apply_count_deltas(
                    {key: retained_keys[key] - counts[key] - 1}, {}
                )
            )
        if retained_pairs:
            pair = data.draw(st.sampled_from(sorted(retained_pairs)))
            options.append(
                lambda: self.matrix.apply_count_deltas(
                    {}, {pair: retained_pairs[pair] - common[pair] - 1}
                )
            )
        self._rejected(data.draw(st.sampled_from(options)))

    # -- invariants ----------------------------------------------------------

    @invariant()
    def counts_match_the_recount(self):
        counts, common = self._expected()
        assert self.matrix.pairwise_counts() == (counts, common)
        assert sorted(self.matrix.keys) == sorted(counts)
        assert len(self.matrix) == len(counts)
        assert self.matrix.observed_groups() == self.retained
        assert self.matrix.compacted_groups == self.compacted
        assert self.matrix.compact_floor == self.floor
        assert self.matrix.structure_version == self.version
        for key in counts:
            assert self.matrix.group_count(key) == counts[key]
            assert self.matrix.neighbors(key) == {
                other for pair in common if key in pair for other in pair
            } - {key}

    @invariant()
    def correlations_are_bit_identical(self):
        counts, common = self._expected()
        for key_a, key_b in combinations(sorted(counts), 2):
            shared = common.get((key_a, key_b), 0)
            expected = (
                shared / counts[key_a] + shared / counts[key_b] if shared else 0.0
            )
            assert self.matrix.correlation_of(key_a, key_b) == expected
            assert self.matrix.correlation_of(key_b, key_a) == expected
        finite = {(a, b): value for a, b, value in self.matrix.finite_pairs()}
        assert finite.keys() == common.keys()

    @invariant()
    def retained_groups_agree(self):
        assert self.matrix.observed_groups() == self.retained

    @invariant()
    def components_agree(self):
        counts, common = self._expected()
        expected = _graph_components(counts, common)
        union_find = sorted(map(sorted, self.matrix.connected_components()))
        scan = sorted(map(sorted, self.matrix.connected_components(method="scan")))
        assert union_find == scan == expected
        for component in expected:
            assert self.matrix.component_members(component[0]) == set(component)

    @invariant()
    def distance_blocks_match(self):
        if not _HAVE_NUMPY:
            return
        for component in self.matrix.connected_components():
            if len(component) < 2:
                continue
            block = self.matrix.component_distance_block(component)
            for i, key_a in enumerate(block.keys):
                for j, key_b in enumerate(block.keys):
                    value = float(block.square[i, j])
                    if i == j:
                        assert math.isinf(value)
                    else:
                        assert value == self.matrix.distance_of(key_a, key_b)

    @invariant()
    def checkpoint_replay_reproduces_the_counts(self):
        replayed = CorrelationMatrix()
        replayed.update_groups(added=sorted(self.matrix.observed_groups().items()))
        state = self.matrix.compacted_state()
        if state is not None:
            replayed.install_compacted(json.loads(json.dumps(state)))
        assert replayed.pairwise_counts() == self.matrix.pairwise_counts()
        assert replayed.compacted_groups == self.matrix.compacted_groups
        assert replayed.compact_floor == self.matrix.compact_floor


MatrixModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestMatrixModel = MatrixModel.TestCase
