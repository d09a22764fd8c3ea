"""Prefix-sharded view over a TTKV's modification journal.

Ocasta records every application on a machine into one store, but clusters
*per application* — the repair tool always restricts the trace to one
``key_prefix``.  With a single global journal each per-application consumer
re-reads (and re-filters) the whole stream.  A :class:`ShardedJournal`
routes the store's append-ordered stream into one :class:`EventJournal`
per application prefix instead, so

- each shard is consumed with its own cursor and only advances when *its*
  application wrote something;
- an out-of-order append disturbs only the shard it routes to — the other
  applications' cursors stay valid;
- a clustering session over a shard sees exactly the events a batch run
  with ``key_filter=prefix`` would see, in the same order, which is what
  keeps the sharded pipeline bit-identical to the batch reference.

Routing is longest-prefix-wins.  Events matching no configured prefix go
to the *catch-all* shard (id :data:`CATCH_ALL`, the empty string) when one
is enabled, and are dropped otherwise — dropping reproduces the semantics
of a ``key_filter`` restricted deployment.

The view attaches to a live journal by subscribing to its appends; call
:meth:`ShardedJournal.detach` before abandoning one, or the source journal
keeps feeding it.
"""

from __future__ import annotations

from typing import Iterable

from repro.ttkv.journal import Event, EventJournal

#: Shard id of the catch-all shard (routes keys matching no other prefix).
CATCH_ALL = ""


def shard_ids_for(prefixes: Iterable[str], catch_all: bool) -> tuple[str, ...]:
    """The shard ids a :class:`ShardedJournal` over these settings has.

    The sorted distinct prefixes, then :data:`CATCH_ALL` when enabled.
    Raises :class:`ValueError` for the empty prefix, or for no prefix
    and no catch-all.
    """
    ordered = sorted(set(prefixes))
    if CATCH_ALL in ordered:
        raise ValueError(
            "the empty prefix is reserved for the catch-all shard; "
            "pass catch_all=True instead"
        )
    if not ordered and not catch_all:
        raise ValueError("a sharded journal needs prefixes or a catch-all")
    return (*ordered, CATCH_ALL) if catch_all else tuple(ordered)


class ShardedJournal:
    """Partition an :class:`EventJournal` by key prefix, with live routing.

    Parameters
    ----------
    source:
        The journal to shard (normally ``store.journal``).  Events already
        in it are routed immediately; future appends are routed as they
        happen.
    prefixes:
        Application key prefixes, e.g. ``("/apps/gedit/", "/apps/eog/")``.
        Longest match wins, so nested prefixes behave intuitively.
    catch_all:
        Route events matching no prefix to the :data:`CATCH_ALL` shard
        (default).  With ``catch_all=False`` such events are dropped.
    key_filter:
        Optional global prefix filter applied *before* routing, mirroring
        the batch pipeline's ``key_filter`` parameter.
    """

    def __init__(
        self,
        source: EventJournal,
        prefixes: Iterable[str] = (),
        *,
        catch_all: bool = True,
        key_filter: str | None = None,
    ) -> None:
        prefixes = set(prefixes)
        shard_ids = shard_ids_for(prefixes, catch_all)
        self._source = source
        self._key_filter = key_filter
        self._route_order: tuple[str, ...] = tuple(
            sorted(prefixes, key=lambda p: (-len(p), p))
        )
        self._catch_all = catch_all
        self._shards = {shard_id: EventJournal() for shard_id in shard_ids}
        self._route_cache: dict[str, str | None] = {}
        #: Set whenever an event lands in a shard; the consumer clears it
        #: once it has read every shard, so "did any shard advance?" is
        #: one attribute read however many shards there are.
        self.advanced = False
        self._attached = False
        for event in source.events():
            self._ingest(event)
        source.subscribe(self._ingest)
        self._attached = True

    # -- routing -------------------------------------------------------------

    def route(self, key: str) -> str | None:
        """Shard id for ``key`` (``None`` when the key is dropped).

        Decisions are cached per key: config keys repeat for months, so
        the prefix scan runs once per *distinct* key, not once per event
        (the cache is bounded by the key universe, which the store already
        holds in full).
        """
        try:
            return self._route_cache[key]
        except KeyError:
            pass
        shard: str | None
        if self._key_filter is not None and not key.startswith(self._key_filter):
            shard = None
        else:
            for prefix in self._route_order:
                if key.startswith(prefix):
                    shard = prefix
                    break
            else:
                shard = CATCH_ALL if self._catch_all else None
        self._route_cache[key] = shard
        return shard

    def _ingest(self, event: Event) -> None:
        shard = self.route(event[1])
        if shard is not None:
            self._shards[shard].append_event(event)
            self.advanced = True

    # -- access --------------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """All shard ids: the sorted prefixes, plus ``""`` for the catch-all."""
        return tuple(self._shards)

    @property
    def prefixes(self) -> tuple[str, ...]:
        """The configured application prefixes (catch-all excluded)."""
        return tuple(p for p in self._shards if p != CATCH_ALL)

    @property
    def has_catch_all(self) -> bool:
        return self._catch_all

    @property
    def key_filter(self) -> str | None:
        return self._key_filter

    def shard(self, shard_id: str) -> EventJournal:
        """The journal of one shard (:data:`CATCH_ALL` for the catch-all)."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise KeyError(
                f"no shard {shard_id!r}; shards: {list(self._shards)}"
            ) from None

    def positions(self) -> dict[str, int]:
        """Current length of every shard journal (JSON-safe)."""
        return {shard_id: len(journal) for shard_id, journal in self._shards.items()}

    def detach(self) -> None:
        """Stop routing future appends of the source journal."""
        if self._attached:
            self._source.unsubscribe(self._ingest)
            self._attached = False

    def __len__(self) -> int:
        """Total routed events across all shards (dropped events excluded)."""
        return sum(len(journal) for journal in self._shards.values())
