"""The paper's pairwise correlation metric and its distance transform.

    Correlation = |A ∩ B| / |A|  +  |A ∩ B| / |B|

where ``A`` and ``B`` are the sets of write groups in which keys A and B
were modified.  The metric lives in ``[0, 2]``: 2 when two keys are always
modified together, 0 when never.  Hierarchical clustering needs distances
that shrink as keys become more related, so Ocasta clusters on the inverse,
``distance = 1 / correlation`` (infinite when the correlation is 0).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.core.unionfind import UnionFind

try:  # soft dependency: the dict-update path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via tests' import guard
    _np = None

#: Below this many total group memberships, :meth:`CorrelationMatrix.
#: observe_groups_batch` uses the per-group dict path — array setup costs
#: more than it saves on tiny batches.
BATCH_VECTOR_MIN = 64

INFINITE_DISTANCE = math.inf


def correlation(group_set_a: frozenset | set, group_set_b: frozenset | set) -> float:
    """Correlation between two keys' write-group index sets.

    Raises
    ------
    ValueError
        If either set is empty — the paper only defines the metric "when
        both keys have a non-zero number [of] writes".
    """
    if not group_set_a or not group_set_b:
        raise ValueError("correlation is undefined for keys with no writes")
    common = len(group_set_a & group_set_b)
    return common / len(group_set_a) + common / len(group_set_b)


def correlation_to_distance(value: float) -> float:
    """Invert a correlation into a clustering distance."""
    if not 0.0 <= value <= 2.0:
        raise ValueError(f"correlation must lie in [0, 2], got {value}")
    if value == 0.0:
        return INFINITE_DISTANCE
    return 1.0 / value


def distance_to_correlation(value: float) -> float:
    """Inverse of :func:`correlation_to_distance`."""
    if value <= 0:
        raise ValueError(f"distance must be positive, got {value}")
    if math.isinf(value):
        return 0.0
    return 1.0 / value


class CorrelationMatrix:
    """Sparse pairwise correlations over a set of keys.

    Only pairs that co-occur in at least one write group are stored; all
    other pairs have correlation 0 (infinite distance).  Sparsity is what
    makes clustering whole applications tractable: a key pair that never
    co-modifies can never merge, so the finite-distance graph's connected
    components bound every cluster.

    Every correlation is a pure function of counts, so the matrix keeps
    one count table: ``_counts[key]`` is the number of write groups the
    key appears in and ``_adj[a][b]`` (stored in both directions) the
    number of groups the pair shares.  A key's adjacency row is its
    neighbour set, so a correlation query is O(1) and a distance-block row
    is one dict read.  The counts are *effective*: they cover every group
    observed, whether it is still retained (retractable, its member set
    kept in ``_group_members``) or already compacted away.  The matrix is
    updated **in place** as new write groups stream in
    (:meth:`observe_group`) or a provisional trailing group is replaced
    (:meth:`retract_group`); the incremental clustering pipeline relies on
    these updates to avoid rebuilding the matrix on every new event.
    """

    def __init__(self, key_groups: Mapping[str, set[int]] | None = None) -> None:
        self._counts: dict[str, int] = {}
        self._adj: dict[str, dict[str, int]] = {}
        self._group_members: dict[int, frozenset[str]] = {}
        # Connected components are maintained in a union-find so component
        # queries cost O(α) instead of a full graph traversal.  Union-find
        # cannot split, so a *lossy* update (an edge or key actually
        # removed) marks it stale and the next component query rebuilds —
        # the rebuild-on-retraction policy.  The streaming pipeline's
        # routine provisional-group replacement retracts a group and
        # re-adds a superset in one batch, which loses nothing and stays
        # on the O(α) path.
        self._uf = UnionFind()
        self._uf_stale = False
        self._structure_version = 0
        # Dense distance blocks for the numpy HAC kernel, keyed by the
        # component key set they cover.  Valid for the current
        # structure_version only: a lossy update clears the lot, a
        # growth-only update just records which keys went dirty so the
        # next request refreshes those rows in place (pairs with no dirty
        # endpoint cannot have changed).
        self._blocks: dict[frozenset[str], "object"] = {}
        self._block_of_key: dict[str, frozenset[str]] = {}
        self._block_dirty: dict[frozenset[str], set[str]] = {}
        # Compaction bookkeeping (:meth:`compact`): how many groups gave up
        # their member sets, and the index below which none is retained.
        self._compacted_count = 0
        self._compact_floor = 0
        if key_groups:
            for key, groups in key_groups.items():
                if not groups:
                    raise ValueError(f"key {key!r} has no write groups")
            # Invert to group -> member keys and replay as observations so
            # batch construction and streaming growth share one code path.
            # Keys are registered first so the key order is the mapping's.
            by_group: dict[int, list[str]] = {}
            for key, groups in key_groups.items():
                self._counts[key] = 0
                self._adj[key] = {}
                for index in groups:
                    by_group.setdefault(index, []).append(key)
            self.update_groups(added=sorted(by_group.items()))

    # -- in-place updates ---------------------------------------------------

    def observe_group(self, index: int, keys: Iterable[str]) -> None:
        """Fold one new write group (its distinct ``keys``) into the matrix."""
        self.update_groups(added=[(index, keys)])

    def retract_group(self, index: int, keys: Iterable[str]) -> None:
        """Undo a previously observed group (same ``index`` and ``keys``)."""
        self.update_groups(removed=[(index, keys)])

    def update_groups(
        self,
        added: Iterable[tuple[int, Iterable[str]]] = (),
        removed: Iterable[tuple[int, Iterable[str]]] = (),
    ) -> set[str]:
        """Apply a batch of group retractions and additions.

        Removals run first so a provisional group can be replaced by its
        extended version under the same index in one call.  Returns the set
        of keys whose correlations may have changed (the union of all
        touched groups' keys) — the dirty set driving partial re-clustering.

        The whole batch is validated before any state is touched, so a
        rejected update leaves the matrix exactly as it was.  A retraction
        must name a group's exact observed member set; an addition must use
        a fresh index (or one retracted in the same call).
        """
        removed = [(index, sorted(set(keys))) for index, keys in removed]
        added = [(index, sorted(set(keys))) for index, keys in added]
        for batch, label in ((removed, "removed"), (added, "added")):
            indices = [index for index, _ in batch]
            if len(set(indices)) != len(indices):
                raise ValueError(f"duplicate group index in {label} batch: {indices}")
        removed_indices = set()
        for index, members in removed:
            registered = self._group_members.get(index)
            if registered is None:
                if index < self._compact_floor:
                    raise ValueError(
                        f"group {index} was compacted into the aggregate "
                        "baseline and can no longer be retracted"
                    )
                raise ValueError(f"group {index} was never observed")
            if frozenset(members) != registered:
                raise ValueError(
                    f"group {index} members {members} do not match the "
                    f"observed group {sorted(registered)}"
                )
            removed_indices.add(index)
        for index, members in added:
            if not members:
                raise ValueError(f"group {index} has no keys")
            if index in self._group_members and index not in removed_indices:
                raise ValueError(f"group {index} already observed")
            # a retained group replaced in this call was never compacted,
            # even when a batch fold has since raised the floor past it
            if index < self._compact_floor and index not in removed_indices:
                raise ValueError(
                    f"group {index} lies below the compaction floor "
                    f"{self._compact_floor}; compacted indices cannot be "
                    "reused"
                )

        counts = self._counts
        adj = self._adj
        dirty: set[str] = set()
        lost_pairs: set[tuple[str, str]] = set()
        lost_keys: set[str] = set()
        for index, members in removed:
            dirty.update(members)
            for position, key_a in enumerate(members):
                row_a = adj[key_a]
                for key_b in members[position + 1:]:
                    remaining = row_a[key_b] - 1
                    if remaining:
                        row_a[key_b] = adj[key_b][key_a] = remaining
                    else:
                        del row_a[key_b], adj[key_b][key_a]
                        lost_pairs.add((key_a, key_b))
            for key in members:
                remaining = counts[key] - 1
                if remaining:
                    counts[key] = remaining
                else:
                    del counts[key], adj[key]
                    lost_keys.add(key)
            del self._group_members[index]
        for index, members in added:
            dirty.update(members)
            self._group_members[index] = frozenset(members)
            for key in members:
                if key in counts:
                    counts[key] += 1
                else:
                    counts[key] = 1
                    adj[key] = {}
                    lost_keys.discard(key)
            for position, key_a in enumerate(members):
                row_a = adj[key_a]
                for key_b in members[position + 1:]:
                    shared = row_a.get(key_b, 0) + 1
                    row_a[key_b] = adj[key_b][key_a] = shared
                    if shared == 1:
                        lost_pairs.discard((key_a, key_b))
        if lost_pairs or lost_keys:
            # A co-occurrence edge or a key is really gone: the union-find
            # cannot un-merge, so flag it for a rebuild at the next
            # component query and tell engines their cached component
            # structure is void.  Cached distance blocks go with it —
            # rows could silently keep edges the retraction removed.
            self._invalidate_structure()
        else:
            if not self._uf_stale:
                for index, members in added:
                    self._uf.union_many(members)
            self._mark_blocks_dirty(dirty)
        return dirty

    def _invalidate_structure(self) -> None:
        self._uf_stale = True
        self._structure_version += 1
        self._blocks.clear()
        self._block_of_key.clear()
        self._block_dirty.clear()

    def _mark_blocks_dirty(self, dirty: set[str]) -> None:
        if self._blocks:
            for key in dirty:
                covering = self._block_of_key.get(key)
                if covering is not None:
                    self._block_dirty.setdefault(covering, set()).add(key)

    # -- queries -------------------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return list(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def observed_groups(self) -> dict[int, frozenset[str]]:
        """Every *retained* group's member set, by index (a fresh dict).

        Replaying these through :meth:`update_groups` on an empty matrix —
        then installing :meth:`compacted_state` — reproduces this matrix
        exactly: the basis of session checkpoints.  Before any
        :meth:`compact` call the retained groups are simply all of them.
        """
        return dict(self._group_members)

    # -- compaction ----------------------------------------------------------

    @property
    def compacted_groups(self) -> int:
        """How many groups have been folded into the aggregate baseline."""
        return self._compacted_count

    @property
    def compact_floor(self) -> int:
        """Group indices below this are compacted (no longer retractable)."""
        return self._compact_floor

    def compact(self, keep_from: int) -> int:
        """Forget the member sets of groups with ``index < keep_from``.

        Every correlation is a pure function of per-key group counts and
        per-pair intersection counts, and the count table already holds
        every group's contribution, so a closed group that will never be
        retracted does not need its member list kept around: compaction
        just drops the registration.  No query result changes — counts,
        distances, neighbours, components and cached distance blocks are
        all exactly as before — only :meth:`retract_group` on a compacted
        index now fails (callers keep the retractable tail above
        ``keep_from``; the streaming engine keeps its provisional trailing
        group and the last few closed ones).

        Returns the number of groups compacted by this call.  Idempotent:
        re-calling with the same ``keep_from`` compacts nothing.
        """
        victims = [index for index in self._group_members if index < keep_from]
        for index in victims:
            del self._group_members[index]
        self._compacted_count += len(victims)
        if keep_from > self._compact_floor:
            self._compact_floor = keep_from
        return len(victims)

    def observe_groups_batch(
        self, start_index: int, groups: Iterable[Iterable[str]]
    ) -> set[str]:
        """Fold a contiguous run of *final* write groups straight into the
        count table — the vectorized bulk-ingest path.

        Observationally identical to ``observe_group`` for indices
        ``start_index .. start_index + n - 1`` followed by compacting
        *exactly those groups* (other retained groups are untouched — a
        later :meth:`compact` call handles them as usual).  The groups
        never become individually retractable: the caller asserts they are
        closed for good, which the streaming engine asserts only for groups
        older than its retractable horizon.  That lets their per-key and
        per-pair contributions be counted in bulk — one ``np.bincount``
        for key occurrences and one ``np.unique`` over integer-encoded
        in-group pairs — instead of a Python dict update per event.
        Returns the dirty key set, like :meth:`update_groups`.

        Without numpy (or for tiny batches) the per-group path runs
        instead; the result is the same either way, which the property
        suite asserts.
        """
        prepared = [sorted(set(keys)) for keys in groups]
        count = len(prepared)
        if start_index < self._compact_floor:
            raise ValueError(
                f"batch start {start_index} lies below the compaction floor "
                f"{self._compact_floor}; compacted indices cannot be reused"
            )
        for offset, members in enumerate(prepared):
            if not members:
                raise ValueError(f"group {start_index + offset} has no keys")
            if start_index + offset in self._group_members:
                raise ValueError(
                    f"group {start_index + offset} already observed"
                )
        if not count:
            return set()
        total = sum(len(members) for members in prepared)
        if _np is None or total < BATCH_VECTOR_MIN:
            dirty = self.update_groups(
                added=[
                    (start_index + offset, members)
                    for offset, members in enumerate(prepared)
                ]
            )
            for index in range(start_index, start_index + count):
                del self._group_members[index]
        else:
            dirty = self._fold_batch(prepared, total)
        self._compacted_count += count
        if start_index + count > self._compact_floor:
            self._compact_floor = start_index + count
        return dirty

    def _fold_batch(self, prepared: list[list[str]], total: int) -> set[str]:
        """Vectorised body of :meth:`observe_groups_batch` (growth only)."""
        count = len(prepared)
        # Integer-encode the batch: one code per distinct key, one flat
        # array of per-group member codes.
        code_of: dict[str, int] = {}
        flat = [
            code_of.setdefault(key, len(code_of))
            for members in prepared
            for key in members
        ]
        names = list(code_of)
        codes = _np.asarray(flat, dtype=_np.int64)
        lengths = _np.fromiter(
            (len(members) for members in prepared), dtype=_np.intp, count=count
        )
        key_counts = _np.bincount(codes, minlength=len(names))

        # Enumerate every unordered in-group pair without a Python loop:
        # member j of a group pairs with each of its later members, so it
        # contributes (group length - 1 - local position) ordered pairs.
        starts = _np.zeros(count, dtype=_np.intp)
        _np.cumsum(lengths[:-1], out=starts[1:])
        local = _np.arange(total) - _np.repeat(starts, lengths)
        fanout = _np.repeat(lengths, lengths) - 1 - local
        pair_total = int(fanout.sum())
        pair_codes = None
        if pair_total:
            first = _np.repeat(_np.arange(total), fanout)
            pair_starts = _np.zeros(total, dtype=_np.intp)
            _np.cumsum(fanout[:-1], out=pair_starts[1:])
            second = first + 1 + (_np.arange(pair_total) - _np.repeat(pair_starts, fanout))
            code_a = codes[first]
            code_b = codes[second]
            low = _np.minimum(code_a, code_b)
            high = _np.maximum(code_a, code_b)
            pair_codes, pair_counts = _np.unique(
                low * _np.int64(len(names)) + high, return_counts=True
            )

        # Scatter the aggregated counts into the table — the same writes
        # observe+compact would have netted to, without the groups.
        counts = self._counts
        adj = self._adj
        union_live = not self._uf_stale
        for name, occurrences in zip(names, key_counts.tolist()):
            known = counts.get(name)
            if known is None:
                counts[name] = occurrences
                adj[name] = {}
            else:
                counts[name] = known + occurrences
            if union_live:
                self._uf.add(name)
        if pair_codes is not None:
            width = len(names)
            for key_a, key_b, occurrences in zip(
                [names[c] for c in (pair_codes // width).tolist()],
                [names[c] for c in (pair_codes % width).tolist()],
                pair_counts.tolist(),
            ):
                row_a = adj[key_a]
                shared = row_a.get(key_b)
                if shared is None:
                    shared = 0
                    if union_live:  # only a new edge can join components
                        self._uf.union(key_a, key_b)
                row_a[key_b] = adj[key_b][key_a] = shared + occurrences
        dirty = set(names)
        self._mark_blocks_dirty(dirty)
        return dirty

    def _retained_counts(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """The retained groups' share of the counts (pairs as sorted tuples)."""
        keys: dict[str, int] = {}
        pairs: dict[tuple[str, str], int] = {}
        for group in self._group_members.values():
            members = sorted(group)
            for position, key_a in enumerate(members):
                keys[key_a] = keys.get(key_a, 0) + 1
                for key_b in members[position + 1:]:
                    pairs[(key_a, key_b)] = pairs.get((key_a, key_b), 0) + 1
        return keys, pairs

    def compacted_state(self) -> dict | None:
        """JSON-safe aggregate baseline, or ``None`` when there is none.

        The baseline is what the count table holds beyond the retained
        groups' contributions, derived here at save time.  Pairs with
        :meth:`install_compacted`: replay :meth:`observed_groups` on an
        empty matrix, install this, and the result is observationally
        identical to this matrix — the checkpoint stays O(live keys + live
        pairs) no matter how many groups the session has consumed.
        """
        retained_keys, retained_pairs = self._retained_counts()
        keys = [
            [key, self._counts[key] - retained_keys.get(key, 0)]
            for key in sorted(self._counts)
        ]
        pairs = [
            [key_a, key_b, shared - retained_pairs.get((key_a, key_b), 0)]
            for key_a in sorted(self._adj)
            for key_b, shared in sorted(self._adj[key_a].items())
            if key_a < key_b
        ]
        keys = [entry for entry in keys if entry[1]]
        pairs = [entry for entry in pairs if entry[2]]
        if not (self._compacted_count or self._compact_floor or keys or pairs):
            return None
        return {
            "count": self._compacted_count,
            "floor": self._compact_floor,
            "keys": keys,
            "pairs": pairs,
        }

    def install_compacted(self, state: dict) -> None:
        """Add a :meth:`compacted_state` baseline into this matrix.

        Must run after the retained groups have been replayed (the
        checkpoint-restore path); keys and pairs that exist only in the
        baseline are registered as live keys and neighbour edges, and the
        union-find learns the baseline's connectivity.  The whole state is
        validated first: a rejected one raises ``ValueError`` and leaves
        the matrix unchanged.
        """
        count = int(state["count"])
        floor = int(state["floor"])
        if count < 0 or floor < 0:
            raise ValueError(f"compacted state out of range: {state!r}")
        keys = [(key, int(key_count)) for key, key_count in state["keys"]]
        pairs = [
            (key_a, key_b, int(pair_count))
            for key_a, key_b, pair_count in state["pairs"]
        ]
        for key, key_count in keys:
            if key_count < 1:
                raise ValueError(f"compacted count for {key!r} must be >= 1")
        known = self._counts.keys() | {key for key, _ in keys}
        for key_a, key_b, pair_count in pairs:
            if pair_count < 1:
                raise ValueError(
                    f"compacted intersection for {key_a!r}/{key_b!r} "
                    "must be >= 1"
                )
            for key in (key_a, key_b):
                if key not in known:
                    raise ValueError(
                        f"compacted pair names unknown key {key!r}"
                    )

        self._compacted_count = count
        self._compact_floor = max(self._compact_floor, floor)
        counts = self._counts
        adj = self._adj
        for key, key_count in keys:
            if key in counts:
                counts[key] += key_count
            else:
                counts[key] = key_count
                adj[key] = {}
            if not self._uf_stale:
                self._uf.add(key)
        for key_a, key_b, pair_count in pairs:
            row_a = adj[key_a]
            row_a[key_b] = adj[key_b][key_a] = row_a.get(key_b, 0) + pair_count
            if not self._uf_stale:
                self._uf.union_many((key_a, key_b))

    def pairwise_counts(
        self,
    ) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """The matrix's raw evidence: per-key and per-pair group counts.

        Returns ``(counts, common)`` where ``counts[key]`` is the
        effective number of write groups the key appears in (retained
        groups plus the compacted baseline) and ``common[(a, b)]`` — pair
        keys are sorted 2-tuples — is the effective intersection count of
        each co-occurring pair.  Every correlation this matrix can report
        is a pure function of these counts, so two matrices with equal
        ``pairwise_counts()`` are observationally identical.

        This is the hand-off format of the fleet aggregation tier
        (:mod:`repro.fleet`): per-machine evidence is extracted with this
        method, summed across machines keyed by canonical key identity,
        and re-installed via :meth:`apply_count_deltas`.
        """
        common = {
            (key_a, key_b): shared
            for key_a, row in self._adj.items()
            for key_b, shared in row.items()
            if key_a < key_b
        }
        return dict(self._counts), common

    def apply_count_deltas(
        self,
        key_deltas: Mapping[str, int],
        pair_deltas: Mapping[tuple[str, str], int],
    ) -> set[str]:
        """Adjust the effective counts by signed evidence deltas.

        The fleet-merge analog of :meth:`update_groups`: instead of
        observing write groups, the caller supplies how much each key's
        group count and each pair's intersection count changed (the
        difference between two :meth:`pairwise_counts` snapshots).  Keys
        whose effective count reaches zero are removed; pairs whose
        effective intersection reaches zero lose their neighbour edge.
        Any such loss marks the union-find stale and bumps
        ``structure_version`` — exactly the rebuild-on-retraction policy
        group retractions follow — while growth-only deltas stay on the
        O(α) incremental path.

        The whole batch is validated before any state is touched: a delta
        driving a count negative or below the retained groups' share, a
        pair delta naming a key absent after the key deltas apply, a key
        removed while one of its pairs stays non-zero, or a pair count
        left above either key's count (``|A ∩ B| <= min(|A|, |B|)``) all
        raise ``ValueError`` and leave the matrix unchanged.  Returns the dirty
        key set (every key whose correlations may have changed), like
        :meth:`update_groups`.
        """
        keyed = {key: int(delta) for key, delta in key_deltas.items() if delta}
        paired = {
            (min(pair), max(pair)): int(delta)
            for pair, delta in pair_deltas.items()
            if delta
        }
        counts = self._counts
        adj = self._adj
        retained_keys, retained_pairs = self._retained_counts()
        next_counts: dict[str, int] = {}
        for key, delta in keyed.items():
            current = counts.get(key, 0)
            if current + delta < 0:
                raise ValueError(
                    f"count delta {delta} for {key!r} drives its group "
                    f"count below zero (currently {current})"
                )
            if current + delta < retained_keys.get(key, 0):
                raise ValueError(
                    f"count delta {delta} for {key!r} cuts into retained "
                    "groups; retract them instead"
                )
            next_counts[key] = current + delta
        next_common: dict[tuple[str, str], int] = {}
        for (key_a, key_b), delta in paired.items():
            if key_a == key_b:
                raise ValueError(f"pair delta names a single key {key_a!r}")
            current = adj[key_a].get(key_b, 0) if key_a in adj else 0
            if current + delta < 0:
                raise ValueError(
                    f"intersection delta {delta} for {key_a!r}/{key_b!r} "
                    f"drives the pair count below zero (currently {current})"
                )
            if current + delta < retained_pairs.get((key_a, key_b), 0):
                raise ValueError(
                    f"intersection delta {delta} for {key_a!r}/{key_b!r} "
                    "cuts into retained groups; retract them instead"
                )
            if current + delta > 0:
                for key in (key_a, key_b):
                    total = next_counts.get(key, counts.get(key, 0))
                    if not total:
                        raise ValueError(
                            f"pair delta for {key_a!r}/{key_b!r} names key "
                            f"{key!r}, which has no group count"
                        )
                    if current + delta > total:
                        raise ValueError(
                            f"intersection delta {delta} for {key_a!r}/"
                            f"{key_b!r} lifts the pair count above the group "
                            f"count of {key!r} ({total})"
                        )
            next_common[(key_a, key_b)] = current + delta
        for key, total in next_counts.items():
            if total == 0:
                for other in adj.get(key, ()):
                    if next_common.get((min(key, other), max(key, other))) != 0:
                        raise ValueError(
                            f"count delta removes {key!r} but leaves its "
                            f"pair with {other!r} non-zero; zero the pair "
                            "in the same call"
                        )
            elif total < counts.get(key, 0):
                # only a shrinking key can fall below an unchanged pair;
                # the C-level max spares the row walk in the common case
                row = adj[key]
                if max(row.values(), default=0) <= total:
                    continue
                for other, shared in row.items():
                    pair = (min(key, other), max(key, other))
                    if shared > total and pair not in next_common:
                        raise ValueError(
                            f"count delta {keyed[key]} for {key!r} drops its "
                            f"group count ({total}) below its intersection "
                            f"with {other!r} ({shared})"
                        )

        dirty: set[str] = set(keyed)
        lost_keys = [key for key, total in next_counts.items() if total == 0]
        lost_pairs = False
        for key, total in next_counts.items():
            if key not in counts:
                adj[key] = {}
                if not self._uf_stale:
                    self._uf.add(key)
            counts[key] = total
        for (key_a, key_b), total in next_common.items():
            dirty.update((key_a, key_b))
            row_a = adj[key_a]
            if total:
                if key_b not in row_a and not self._uf_stale:
                    self._uf.union_many((key_a, key_b))
                row_a[key_b] = adj[key_b][key_a] = total
            else:
                del row_a[key_b], adj[key_b][key_a]
                lost_pairs = True
        for key in lost_keys:
            # validation zeroed every pair of a removed key: its row is empty
            del counts[key], adj[key]
        if lost_pairs or lost_keys:
            self._invalidate_structure()
        else:
            self._mark_blocks_dirty(dirty)
        return dirty

    @property
    def structure_version(self) -> int:
        """Bumped whenever a lossy update voids incremental component state.

        Consumers caching per-component results compare this against the
        version they last saw: unchanged means components only grew (or
        stayed) through additions, so caches keyed by component survive;
        changed means an edge or key was truly removed and components may
        have split — recompute from scratch.
        """
        return self._structure_version

    def _rebuild_union_find(self) -> None:
        uf = UnionFind()
        for key in self._adj:
            uf.add(key)
        for key, row in self._adj.items():
            if row:
                uf.union_many((key, *row))
        self._uf = uf
        self._uf_stale = False

    def _union_find(self) -> UnionFind:
        if self._uf_stale:
            self._rebuild_union_find()
        return self._uf

    def find(self, key: str) -> str:
        """Representative key of ``key``'s connected component (O(α))."""
        self._check(key)
        return self._union_find().find(key)

    def component_members(self, key: str) -> frozenset[str]:
        """All keys in ``key``'s connected component (a frozen copy)."""
        self._check(key)
        return self._union_find().members(key)

    def group_count(self, key: str) -> int:
        """Number of write groups ``key`` appears in (the metric's ``|A|``)."""
        self._check(key)
        return self._counts[key]

    def correlation_of(self, key_a: str, key_b: str) -> float:
        """Correlation between two keys (0 when they never co-modify)."""
        if key_a == key_b:
            raise ValueError("correlation with itself is not meaningful")
        self._check(key_a)
        self._check(key_b)
        common = self._adj[key_a].get(key_b, 0)
        if not common:
            return 0.0
        return common / self._counts[key_a] + common / self._counts[key_b]

    def distance_of(self, key_a: str, key_b: str) -> float:
        return correlation_to_distance(self.correlation_of(key_a, key_b))

    def neighbors(self, key: str) -> set[str]:
        """Keys with non-zero correlation to ``key``."""
        self._check(key)
        return set(self._adj[key])

    def _check(self, key: str) -> None:
        if key not in self._counts:
            raise KeyError(key)

    def finite_pairs(self) -> Iterable[tuple[str, str, float]]:
        """All stored (key_a, key_b, correlation) entries."""
        for (key_a, key_b) in self.pairwise_counts()[1]:
            yield key_a, key_b, self.correlation_of(key_a, key_b)

    def component_distance_block(self, component: frozenset[str] | set[str]):
        """Dense distance block over one component's keys, cached.

        Returns a :class:`~repro.core.hac_kernel.DistanceBlock` whose
        ``square`` holds every pairwise clustering distance among the
        component's keys (``inf`` for pairs that never co-modified and on
        the diagonal), with the keys in sorted order — exactly the seed
        order the agglomeration uses.  Requires numpy (the numpy HAC
        kernel is the only consumer).

        The block is cached and **incrementally refreshed**: a later call
        after growth-only updates recomputes only the rows of keys that
        went dirty since (plus keys new to the component), reusing every
        clean row — a pair's distance depends only on its endpoints'
        group counts and intersection, so a pair with two clean endpoints
        cannot have changed.  When an update truly removed an edge or key
        the whole cache was already dropped (see :meth:`update_groups`)
        and the block rebuilds from scratch.  Entries under stale keys
        (sub-components that since merged) are absorbed into the merged
        block and released.

        The returned array is owned by the cache: consumers must copy
        before mutating.
        """
        from repro.core.hac_kernel import DistanceBlock, require_numpy

        np = require_numpy()
        component = frozenset(component)
        covering: dict[frozenset[str], object] = {}
        for key in component:
            owner = self._block_of_key.get(key)
            if owner is not None and owner not in covering:
                block = self._blocks.get(owner)
                if block is not None:
                    covering[owner] = block
        if len(covering) == 1:
            (owner, block), = covering.items()
            if owner == component:
                # Same key set as the cached block: refresh the rows of
                # keys dirtied since it was built, in place — no
                # allocation, no O(n²) copy.
                pending = self._block_dirty.pop(owner, None)
                if pending:
                    self._fill_block_rows(np, block.square, block.index, pending)
                return block

        keys = sorted(component)
        index = {key: i for i, key in enumerate(keys)}
        square = np.full((len(keys), len(keys)), INFINITE_DISTANCE)
        refresh = set(component)
        for owner, block in covering.items():
            if not owner <= component:
                # The block straddles the component boundary — stale
                # material from a code path that bypassed invalidation.
                # Never guess: recompute those rows from the counts.
                self._drop_block(owner)
                continue
            pos = np.fromiter(
                (index[key] for key in block.keys),
                dtype=np.intp,
                count=len(block.keys),
            )
            square[np.ix_(pos, pos)] = block.square
            refresh.difference_update(block.keys)
            refresh.update(
                key
                for key in self._block_dirty.get(owner, ())
                if key in component
            )
            self._drop_block(owner)
        self._fill_block_rows(np, square, index, refresh, reset=True)
        block = DistanceBlock(keys, square)
        self._blocks[component] = block
        for key in keys:
            self._block_of_key[key] = component
        return block

    def _fill_block_rows(self, np, square, index, refresh, *, reset=False) -> None:
        """Recompute the rows/columns of ``refresh`` keys in ``square``.

        Two phases — clear every refreshed row first, then fill — so a
        later key's clear cannot wipe an earlier key's freshly written
        column entries.  ``reset`` skips the clear for brand-new arrays
        (already all-infinite).
        """
        if not reset:  # freshly np.full'ed arrays are already infinite
            for key in refresh:
                at = index[key]
                square[at, :] = INFINITE_DISTANCE
                square[:, at] = INFINITE_DISTANCE
        counts = self._counts
        for key in refresh:
            cols: list[int] = []
            common: list[int] = []
            others: list[int] = []
            for other, shared in self._adj[key].items():
                col = index.get(other)
                if col is not None:
                    cols.append(col)
                    common.append(shared)
                    others.append(counts[other])
            if not cols:
                continue
            common_arr = np.array(common, dtype=np.float64)
            # identical IEEE-754 ops to correlation_of/correlation_to_distance
            values = 1.0 / (
                common_arr / float(counts[key])
                + common_arr / np.array(others, dtype=np.float64)
            )
            at = index[key]
            square[at, cols] = values
            square[cols, at] = values

    def _drop_block(self, owner: frozenset[str]) -> None:
        block = self._blocks.pop(owner, None)
        self._block_dirty.pop(owner, None)
        if block is not None:
            for key in block.keys:
                # identity check: the mapping stores the exact frozenset
                # used as the cache key (an equality compare would be
                # O(component) per key — O(n²) per drop)
                if self._block_of_key.get(key) is owner:
                    del self._block_of_key[key]

    def connected_components(self, *, method: str = "unionfind") -> list[set[str]]:
        """Components of the finite-distance graph.

        Every HAC cluster is a subset of one component, so clustering can
        run per-component.  Keys with no neighbours form singleton
        components.

        ``method="unionfind"`` (default) serves the components from the
        incrementally maintained union-find; ``method="scan"`` recomputes
        them with a graph traversal.  The two always agree — the scan is
        kept as the independent reference for cross-checks and as the
        baseline the benchmark measures the union-find against.
        """
        if method == "unionfind":
            return [set(members) for members in self._union_find().components()]
        if method != "scan":
            raise ValueError(
                f"unknown method {method!r}; options: ('unionfind', 'scan')"
            )
        seen: set[str] = set()
        components: list[set[str]] = []
        for start in self._counts:
            if start in seen:
                continue
            stack = [start]
            component: set[str] = set()
            while stack:
                key = stack.pop()
                if key in component:
                    continue
                component.add(key)
                stack.extend(self._adj[key].keys() - component)
            seen |= component
            components.append(component)
        return components

    def __len__(self) -> int:
        return len(self._counts)


class CorrelationMatrixView:
    """Read-only facade over a live :class:`CorrelationMatrix`.

    The incremental pipelines expose their internal matrices through this
    proxy: every query works, every mutator raises, so a caller cannot
    silently desynchronise a session's matrix from its journal cursor.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: CorrelationMatrix) -> None:
        self._matrix = matrix

    # -- queries (delegated) -------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return self._matrix.keys

    def __contains__(self, key: str) -> bool:
        return key in self._matrix

    def __len__(self) -> int:
        return len(self._matrix)

    def group_count(self, key: str) -> int:
        return self._matrix.group_count(key)

    def correlation_of(self, key_a: str, key_b: str) -> float:
        return self._matrix.correlation_of(key_a, key_b)

    def distance_of(self, key_a: str, key_b: str) -> float:
        return self._matrix.distance_of(key_a, key_b)

    def neighbors(self, key: str) -> set[str]:
        return self._matrix.neighbors(key)

    def finite_pairs(self) -> Iterable[tuple[str, str, float]]:
        return self._matrix.finite_pairs()

    def pairwise_counts(
        self,
    ) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        return self._matrix.pairwise_counts()

    def component_distance_block(self, component: frozenset[str] | set[str]):
        return self._matrix.component_distance_block(component)

    def connected_components(self, *, method: str = "unionfind") -> list[set[str]]:
        return self._matrix.connected_components(method=method)

    def find(self, key: str) -> str:
        return self._matrix.find(key)

    def component_members(self, key: str) -> frozenset[str]:
        return self._matrix.component_members(key)

    def observed_groups(self) -> dict[int, frozenset[str]]:
        return self._matrix.observed_groups()

    @property
    def compacted_groups(self) -> int:
        return self._matrix.compacted_groups

    @property
    def compact_floor(self) -> int:
        return self._matrix.compact_floor

    def compacted_state(self) -> dict | None:
        return self._matrix.compacted_state()

    # -- mutators (refused) --------------------------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise TypeError(
            "this matrix belongs to a live clustering session and is "
            "read-only; mutating it would desynchronise the session"
        )

    observe_group = _read_only
    retract_group = _read_only
    update_groups = _read_only
    observe_groups_batch = _read_only
    apply_count_deltas = _read_only
    compact = _read_only
    install_compacted = _read_only
