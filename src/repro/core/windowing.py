"""Sliding-window write-group extraction.

"To determine whether keys have been modified together, Ocasta uses a
sliding time window and considers all keys written within the window to
have been modified together."  (§III-A)

The window is applied as gap-based sessionisation: a modification event
joins the current group when it falls within ``window`` seconds of the
*previous* event, so a group is a maximal run of modifications with no gap
larger than the window.  This is the natural sliding-window reading — the
window slides along with the latest write rather than chopping time into
fixed buckets — and it degrades correctly at ``window=0``, where only
modifications carrying the identical timestamp group together (the paper's
Fig. 3a cliff, caused by 1-second timestamp quantisation).

A fixed-bucket alternative is provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


@dataclass(frozen=True)
class WriteGroup:
    """A maximal set of modifications considered simultaneous.

    Attributes
    ----------
    start, end:
        Timestamps of the first and last event in the group.
    keys:
        The distinct keys modified in the group.
    events:
        The underlying ``(timestamp, key, value)`` events, in time order.
    """

    start: float
    end: float
    keys: frozenset[str]
    events: tuple[tuple[float, str, Any], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: str) -> bool:
        return key in self.keys


#: Grouping modes shared by the batch extractors and the streaming one.
GROUPING_SLIDING = "sliding"
GROUPING_BUCKETS = "buckets"

_GROUPINGS = (GROUPING_SLIDING, GROUPING_BUCKETS)


class StreamingGroupExtractor:
    """Online write-group extraction: feed events as they arrive.

    The extractor holds the (still open) trailing group and emits a
    :class:`WriteGroup` the moment an arriving event proves the previous
    group closed.  Feeding the same event stream in any chunking yields the
    same closed groups as the batch extractors; the final group stays
    *pending* until :meth:`flush`, because a future event could still
    extend it.

    ``grouping`` selects the paper's sliding window (gap-based) or the
    ablation's fixed aligned buckets.
    """

    def __init__(self, window: float, grouping: str = GROUPING_SLIDING) -> None:
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        if grouping not in _GROUPINGS:
            raise ValueError(f"unknown grouping {grouping!r}; options: {_GROUPINGS}")
        self._window = window
        self._grouping = grouping
        self._current: list[tuple[float, str, Any]] = []
        self._bucket: int | None = None

    @property
    def window(self) -> float:
        return self._window

    @property
    def pending_events(self) -> tuple[tuple[float, str, Any], ...]:
        """Events of the still-open trailing group (time order)."""
        return tuple(self._current)

    @property
    def pending_keys(self) -> frozenset[str]:
        """Distinct keys of the still-open trailing group."""
        return frozenset(key for _, key, _ in self._current)

    def _closes(self, timestamp: float) -> bool:
        last = self._current[-1][0]
        if self._grouping == GROUPING_SLIDING or self._window == 0:
            return timestamp - last > self._window
        return int(timestamp // self._window) != self._bucket

    def feed(self, event: tuple[float, str, Any]) -> WriteGroup | None:
        """Absorb one event; return the group it closed, if any.

        Raises
        ------
        ValueError
            If the event's timestamp precedes the previous event's.
        """
        timestamp = event[0]
        if self._current:
            if timestamp < self._current[-1][0]:
                raise ValueError("events must be sorted by timestamp")
            if self._closes(timestamp):
                closed = _finish(self._current)
                self._current = [event]
                self._bucket = self._bucket_of(timestamp)
                return closed
            self._current.append(event)
            return None
        self._current = [event]
        self._bucket = self._bucket_of(timestamp)
        return None

    def _bucket_of(self, timestamp: float) -> int | None:
        if self._grouping == GROUPING_BUCKETS and self._window > 0:
            return int(timestamp // self._window)
        return None

    def feed_many(
        self, events: Iterable[tuple[float, str, Any]]
    ) -> list[WriteGroup]:
        """Absorb a chunk of events; return every group closed by it."""
        closed: list[WriteGroup] = []
        for event in events:
            group = self.feed(event)
            if group is not None:
                closed.append(group)
        return closed

    def rewind(self, count: int) -> tuple[tuple[float, str, Any], ...]:
        """Drop and return the last ``count`` events of the trailing group.

        This is the undo step for a journal reorder absorbed in place: the
        remaining state is exactly what feeding the stream *without* those
        events would have produced, because grouping decisions are made
        sequentially and never look ahead.  Only events still in the open
        trailing group can be rewound; re-opening an already-closed group
        would require retracting emitted :class:`WriteGroup` objects, which
        the extractor does not support — callers start a fresh extractor
        at a group boundary and re-feed from there instead.
        """
        if count < 0:
            raise ValueError(f"rewind count must be non-negative, got {count}")
        if count > len(self._current):
            raise ValueError(
                f"cannot rewind {count} events; only {len(self._current)} "
                "are still in the open trailing group"
            )
        if count == 0:
            return ()
        dropped = tuple(self._current[-count:])
        del self._current[-count:]
        self._bucket = (
            self._bucket_of(self._current[-1][0]) if self._current else None
        )
        return dropped

    def flush(self) -> WriteGroup | None:
        """Close and return the pending group (``None`` if none is open)."""
        if not self._current:
            return None
        closed = _finish(self._current)
        self._current = []
        self._bucket = None
        return closed


def _extract(
    events: Sequence[tuple[float, str, Any]], window: float, grouping: str
) -> list[WriteGroup]:
    extractor = StreamingGroupExtractor(window, grouping=grouping)
    groups = extractor.feed_many(events)
    trailing = extractor.flush()
    if trailing is not None:
        groups.append(trailing)
    return groups


def extract_write_groups(
    events: Sequence[tuple[float, str, Any]], window: float
) -> list[WriteGroup]:
    """Partition modification events into write groups.

    Parameters
    ----------
    events:
        ``(timestamp, key, value)`` modification events sorted by timestamp
        (the output of :meth:`repro.ttkv.TTKV.write_events`).
    window:
        Sliding window in seconds.  ``0`` groups only identical timestamps.

    Raises
    ------
    ValueError
        If ``window`` is negative or events are not time-sorted.
    """
    return _extract(events, window, GROUPING_SLIDING)


def extract_fixed_buckets(
    events: Sequence[tuple[float, str, Any]], window: float
) -> list[WriteGroup]:
    """Ablation alternative: fixed, aligned time buckets of width ``window``.

    ``window=0`` falls back to identical-timestamp grouping, the same as
    the sliding variant.
    """
    return _extract(events, window, GROUPING_BUCKETS)


def _finish(events: list[tuple[float, str, Any]]) -> WriteGroup:
    return WriteGroup(
        start=events[0][0],
        end=events[-1][0],
        keys=frozenset(key for _, key, _ in events),
        events=tuple(events),
    )


def key_group_sets(groups: Iterable[WriteGroup]) -> dict[str, set[int]]:
    """Map each key to the indices of the write groups that modified it.

    These index sets are the ``A`` and ``B`` of the paper's correlation
    metric: ``|A|`` counts groups touching key A, ``|A ∩ B|`` counts groups
    touching both keys.
    """
    sets: dict[str, set[int]] = {}
    for index, group in enumerate(groups):
        for key in group.keys:
            sets.setdefault(key, set()).add(index)
    return sets
