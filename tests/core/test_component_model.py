"""Stateful model test: :class:`ComponentModel` against batch clustering.

Hypothesis drives one :class:`CorrelationMatrix` through group
registrations and retractions (lossy whenever a key or pair count reaches
zero), checkpoints each model through ``to_state`` and JSON into a fresh
model's ``restore``, and refreshes with the dirty keys accumulated since
the last refresh.  One model per linkage — complete, single and average —
watches the same matrix.

After every refresh each model's clusters must equal the batch
:func:`~repro.core.clustering.flat_clusters` over the same matrix, and
replaying its ``last_order_delta`` onto the clusters it showed before
must give the current ones — across a restore too, where the discarded
model's clusters enter the delta as ``shown``.
"""

from __future__ import annotations

import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.clustering import flat_clusters
from repro.core.correlation import CorrelationMatrix
from repro.core.ordering import SortedKeySets
from repro.core.sharded import ComponentModel

_KEYS = ("a", "b", "c", "d", "e", "f")
_group = st.frozensets(st.sampled_from(_KEYS), min_size=1, max_size=4)
_LINKAGES = ("complete", "single", "average")
_THRESHOLD = 1.0


class ComponentModelMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.matrix = CorrelationMatrix()
        self.models = {linkage: self._model(linkage) for linkage in _LINKAGES}
        # the clusters each model (or the one it replaced) last showed
        self.shown: dict[str, list[frozenset[str]]] = {
            linkage: [] for linkage in _LINKAGES
        }
        self.registered: dict[int, frozenset[str]] = {}
        self.next_index = 0
        self.dirty: set[str] = set()

    def _model(self, linkage: str) -> ComponentModel:
        return ComponentModel(self.matrix, 60.0, _THRESHOLD, linkage)

    @rule(groups=st.lists(_group, min_size=1, max_size=3))
    def register_groups(self, groups):
        added = [(self.next_index + offset, g) for offset, g in enumerate(groups)]
        self.dirty |= self.matrix.update_groups(added=added)
        self.registered.update(added)
        self.next_index += len(groups)

    @precondition(lambda self: self.registered)
    @rule(data=st.data())
    def retract_groups(self, data):
        victims = data.draw(
            st.lists(
                st.sampled_from(sorted(self.registered)),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        removed = [(index, self.registered.pop(index)) for index in victims]
        self.dirty |= self.matrix.update_groups(removed=removed)

    @precondition(lambda self: not self.dirty)
    @rule()
    def checkpoint_and_restore(self):
        # an engine checkpoints only what its last refresh left
        for linkage, model in self.models.items():
            state = json.loads(json.dumps(model.to_state()))
            fresh = self._model(linkage)
            fresh.restore(state["horizon"], state["dendrograms"])
            self.models[linkage] = fresh

    @rule()
    def refresh(self):
        for linkage, model in self.models.items():
            # a restored model's first refresh takes over what the
            # discarded one showed
            shown = () if model.ready else self.shown[linkage]
            model.refresh(self.dirty, shown=shown)
            removed, added = model.last_order_delta
            replayed = SortedKeySets(self.shown[linkage])
            for key_set in removed:
                replayed.remove(key_set)
            for key_set in added:
                replayed.add(key_set)
            assert replayed.as_key_sets() == model.key_sets
            self.shown[linkage] = model.key_sets
        self.dirty = set()

    @invariant()
    def refreshed_models_equal_batch(self):
        for linkage, model in self.models.items():
            if self.dirty or not model.ready:
                continue
            assert model.key_sets == flat_clusters(self.matrix, _THRESHOLD, linkage)
            assert model.component_count == len(self.matrix.connected_components())


ComponentModelMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestComponentModel = ComponentModelMachine.TestCase
