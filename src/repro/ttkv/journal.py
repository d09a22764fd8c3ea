"""Append-ordered modification journal backing :meth:`TTKV.write_events`.

The clustering pipeline consumes the store's modifications as a single
time-sorted stream.  Historically :meth:`TTKV.write_events` materialised and
re-sorted every event on each call — O(n log n) per clustering run, which
defeats continuous clustering.  The journal keeps the stream sorted as it is
appended instead:

- loggers append in (almost always) non-decreasing time order, which is an
  O(1) amortised list append; events sharing a timestamp stay in arrival
  order — with the collector's 1-second quantisation same-tick writes are
  routine, and their relative order can never change write-group
  extraction, which only cares about the *set* of keys per group;
- a rare append with a strictly older timestamp (e.g. two loggers racing
  across a quantisation boundary) is placed with a bisect insertion; the
  journal remembers where each such insertion landed;
- consumers hold a :class:`JournalCursor` and fetch only the suffix appended
  since their last read.  A cursor raises
  :class:`~repro.exceptions.StaleCursorError` only when an insertion landed
  *inside its consumed prefix* — the consumer's view of history changed and
  it must rebuild from scratch.  Insertions in the unread suffix leave
  cursors valid;
- consumers that can cheaply undo their most recent work (the streaming
  clustering engine can, for events still inside its provisional trailing
  write group) use :meth:`EventJournal.read_flexible` instead: rather than
  raising, it *re-delivers* the reordered consumed suffix and reports how
  many already-consumed events the caller must first rewind.  This is the
  bounded reorder buffer of ROADMAP.md — a logger race that lands within
  the consumer's trailing window becomes an O(buffer) fixup instead of a
  full rebuild.

Cursors serialise to JSON-safe dicts (:meth:`JournalCursor.to_state`) so a
clustering session can be checkpointed and resumed without re-reading its
consumed prefix; :func:`encode_event`/:func:`decode_event` do the same for
individual events (deletions carried by the DELETED sentinel included).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Sequence

from repro.exceptions import InvalidEventError, StaleCursorError

#: One journal event: ``(timestamp, key, value)`` — value is the DELETED
#: sentinel for deletions, mirroring :meth:`TTKV.write_events`.
Event = tuple[float, str, Any]


def check_event(key: object, timestamp: object) -> None:
    """Raise :class:`~repro.exceptions.InvalidEventError` for a bad event.

    A modification needs a ``str`` key and a finite timestamp.  A NaN
    compares false against everything, so it would be filed as an
    in-order append and break the journal's sort for every later event.
    """
    try:
        valid = isinstance(key, str) and isfinite(timestamp)
    except TypeError:  # not a real number at all
        valid = False
    if not valid:
        raise InvalidEventError(key, timestamp)


@dataclass(frozen=True)
class JournalCursor:
    """Opaque consumption point: events before ``position`` have been read.

    ``epoch`` records how many out-of-order insertions the consumer had
    observed when the cursor was issued; at the next read the journal
    checks only the insertions that happened since, and only those landing
    before ``position`` invalidate the cursor.
    """

    position: int
    epoch: int

    def to_state(self) -> dict:
        """JSON-safe representation, for session checkpoints."""
        return {"position": self.position, "epoch": self.epoch}

    @classmethod
    def from_state(cls, state: dict) -> "JournalCursor":
        """Rebuild a cursor from :meth:`to_state` output."""
        position = int(state["position"])
        epoch = int(state["epoch"])
        if position < 0 or epoch < 0:
            raise ValueError(f"cursor state out of range: {state!r}")
        return cls(position=position, epoch=epoch)


def encode_event(event: Event) -> dict:
    """One event as a JSON-safe dict (persistence-log style).

    Deletions (``value is DELETED``) become ``{"t", "k", "op": "d"}``;
    writes carry their value, which must itself be JSON-serialisable — the
    same contract :mod:`repro.ttkv.persistence` imposes on the stores.
    """
    from repro.ttkv.store import DELETED  # local to avoid import cycle

    timestamp, key, value = event
    if value is DELETED:
        return {"t": timestamp, "k": key, "op": "d"}
    return {"t": timestamp, "k": key, "op": "w", "v": value}


def decode_event(state: dict) -> Event:
    """Inverse of :func:`encode_event`."""
    from repro.ttkv.store import DELETED  # local to avoid import cycle

    op = state.get("op")
    if op == "d":
        return (float(state["t"]), state["k"], DELETED)
    if op == "w":
        return (float(state["t"]), state["k"], state["v"])
    raise ValueError(f"unknown event op {op!r}")


class EventSliceView(Sequence):
    """Lazy window over a journal's event list — no tail copy.

    ``events_from``/``read``/``read_flexible`` are called once per shard
    per update; copying the tail made every no-op update O(journal).  The
    view pins ``[start, stop)`` positions against the journal's *live*
    list at creation time, so it is free to create and compares equal to
    the list it replaces.  It is a snapshot only until the next
    out-of-order insertion at or below its range (consumers materialise or
    consume a view within one update).
    """

    __slots__ = ("_events", "_start", "_stop")

    def __init__(self, events: list[Event], start: int, stop: int) -> None:
        self._events = events
        self._start = start
        self._stop = max(start, stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return self.materialize()[index]
            return EventSliceView(
                self._events, self._start + start, self._start + stop
            )
        i = index
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("view index out of range")
        return self._events[self._start + i]

    def __iter__(self):
        events = self._events
        for i in range(self._start, self._stop):
            yield events[i]

    def __eq__(self, other):
        if isinstance(other, (str, bytes)) or not isinstance(
            other, (Sequence, list, tuple)
        ):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # views are comparisons-only, like lists

    def __repr__(self) -> str:
        return f"EventSliceView({self.materialize()!r})"

    def materialize(self) -> list[Event]:
        """The window as a plain list (for callers that will mutate it)."""
        return self._events[self._start:self._stop]


class EventJournal:
    """A sorted, append-mostly log of modification events.

    The journal maintains the invariant that ``events()`` is sorted by
    timestamp, with arrival order breaking ties; appends that respect the
    order cost O(1), out-of-order appends cost an insertion and invalidate
    any cursor whose consumed prefix they landed in.

    Each event tuple holds references to the same key and value objects the
    per-key :class:`~repro.ttkv.store.KeyRecord` histories hold, so the
    journal's overhead is one small tuple per modification, not a second
    copy of the payloads.
    """

    __slots__ = ("_events", "_times", "_insertions", "_listeners")

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._times: list[float] = []
        self._insertions: list[int] = []  # where each out-of-order append landed
        self._listeners: list[Callable[[Event], None]] = []

    def append(self, timestamp: float, key: str, value: Any) -> None:
        """Record one modification."""
        self.append_event((timestamp, key, value))

    def append_event(self, event: Event) -> None:
        """Record one modification given as an event tuple.

        Equivalent to :meth:`append` but reuses the caller's tuple, so a
        routing layer fanning one journal out into several does not copy
        every event.  An invalid event (see :func:`check_event`) raises
        before the journal changes.
        """
        timestamp = event[0]
        check_event(event[1], timestamp)
        if not self._times or timestamp >= self._times[-1]:
            self._times.append(timestamp)
            self._events.append(event)
        else:
            # bisect_right keeps arrival order among equal timestamps.
            index = bisect.bisect_right(self._times, timestamp)
            self._times.insert(index, timestamp)
            self._events.insert(index, event)
            self._insertions.append(index)
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        """Call ``listener(event)`` after every future append.

        Listeners observe events in arrival order (not sorted order); a
        listener that mirrors events into its own journal reproduces this
        journal's sort by applying the same insertion rule.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[Event], None]) -> None:
        """Detach a listener registered with :meth:`subscribe`."""
        self._listeners.remove(listener)

    @property
    def epoch(self) -> int:
        """Total out-of-order insertions so far (0 for a purely ordered log)."""
        return len(self._insertions)

    def events(self) -> list[Event]:
        """The full sorted stream (a fresh list; safe for callers to mutate)."""
        return list(self._events)

    def events_from(self, position: int) -> EventSliceView:
        """The sorted suffix starting at ``position`` (a zero-copy view).

        The view is lazy — it is called once per shard per update, and
        copying the tail made every no-op update O(journal).
        """
        if position < 0:
            raise ValueError(f"journal position must be >= 0, got {position}")
        return EventSliceView(self._events, position, len(self._events))

    def reorder_depth(self, cursor: JournalCursor) -> int:
        """How far into ``cursor``'s consumed prefix reorders have reached.

        0 means the consumed prefix is untouched and ``events_from(
        cursor.position)`` is exactly the unread suffix; a positive value
        is the number of consumed events :meth:`read_flexible` would
        re-deliver.
        """
        start = cursor.position
        for index in self._insertions[cursor.epoch:]:
            if index < start:
                start = index
        return cursor.position - start

    def event_at(self, index: int) -> Event:
        """The event at one position of the sorted stream (O(1))."""
        return self._events[index]

    def read(
        self, cursor: JournalCursor | None = None
    ) -> tuple[EventSliceView, JournalCursor]:
        """Events appended since ``cursor`` plus the advanced cursor.

        ``None`` reads from the beginning.  Raises
        :class:`~repro.exceptions.StaleCursorError` when an out-of-order
        append has landed inside the cursor's consumed prefix since it was
        issued; the caller should restart with ``cursor=None``.  Insertions
        at or past the cursor's position merely join the unread suffix.
        """
        if cursor is None:
            start = 0
        else:
            for index in self._insertions[cursor.epoch:]:
                if index < cursor.position:
                    raise StaleCursorError(cursor.position)
            start = cursor.position
        return EventSliceView(self._events, start, len(self._events)), JournalCursor(
            len(self._events), len(self._insertions)
        )

    def read_flexible(
        self, cursor: JournalCursor | None = None
    ) -> tuple[int, EventSliceView, JournalCursor]:
        """Reorder-tolerant read: ``(rewound, events, cursor)``.

        Like :meth:`read`, but an out-of-order insertion inside the
        cursor's consumed prefix does not raise.  Instead the read restarts
        at the earliest such insertion point: ``rewound`` counts the
        *previously consumed* events that appear again at the head of
        ``events`` (now re-sorted around the insertions), and the caller
        must first undo whatever it derived from its last ``rewound``
        events.  ``rewound`` is 0 on the ordinary in-order path, so
        ``read_flexible`` is a drop-in replacement for consumers that can
        rewind recent work (the streaming clustering engine can, while the
        affected events still sit in its provisional trailing group).
        """
        if cursor is None:
            start = 0
            rewound = 0
        else:
            start = cursor.position
            for index in self._insertions[cursor.epoch:]:
                if index < start:
                    start = index
            rewound = cursor.position - start
        return rewound, EventSliceView(self._events, start, len(self._events)), (
            JournalCursor(len(self._events), len(self._insertions))
        )

    def __len__(self) -> int:
        return len(self._events)
