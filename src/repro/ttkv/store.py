"""The time-travel key-value store.

A :class:`TTKV` records configuration accesses as they are intercepted by
the loggers.  Each key maps to a :class:`KeyRecord` that keeps the number of
reads, writes and deletions, and an ordered history of
:class:`VersionedValue` entries.  Deletions appear in the history as the
:data:`DELETED` sentinel, mirroring the paper's "special type of value ...
used to represent deletions".

Timestamps are floats (seconds since the trace epoch).  History entries are
kept sorted by timestamp; appends must be monotonic per key, which matches
how loggers feed events (a real deployment's clock never runs backwards).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.exceptions import KeyNotTrackedError, NoValueError
from repro.ttkv.journal import EventJournal, check_event


class _Sentinel:
    """A unique, self-describing sentinel value."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"

    def __deepcopy__(self, memo: dict) -> "_Sentinel":
        return self


#: History marker for a deletion of the key.
DELETED = _Sentinel("DELETED")

#: Returned by lookups when a key has never been written (distinct from a
#: key that currently holds the value ``None``).
MISSING = _Sentinel("MISSING")


@dataclass(frozen=True, order=True)
class VersionedValue:
    """One entry in a key's history: a value (or DELETED) and its time."""

    timestamp: float
    value: Any = field(compare=False)

    @property
    def is_deletion(self) -> bool:
        return self.value is DELETED


class KeyRecord:
    """Per-key record: counters plus the timestamped value history."""

    __slots__ = ("key", "reads", "writes", "deletes", "_history", "_times")

    def __init__(self, key: str) -> None:
        self.key = key
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self._history: list[VersionedValue] = []
        self._times: list[float] = []  # parallel array for bisect

    # -- recording ---------------------------------------------------------

    def record_write(self, value: Any, timestamp: float) -> None:
        """Append a write of ``value`` at ``timestamp``."""
        self._append(VersionedValue(timestamp, value))
        self.writes += 1

    def record_delete(self, timestamp: float) -> None:
        """Append a deletion marker at ``timestamp``."""
        self._append(VersionedValue(timestamp, DELETED))
        self.deletes += 1

    def record_read(self, timestamp: float) -> None:
        """Count a read; reads are counted but not stored in the history."""
        del timestamp  # reads carry no payload worth storing
        self.reads += 1

    def record_reads(self, count: int) -> None:
        """Bulk-count ``count`` reads (trace generation shortcut)."""
        if count < 0:
            raise ValueError("read count cannot be negative")
        self.reads += count

    def _append(self, entry: VersionedValue) -> None:
        if self._times and entry.timestamp < self._times[-1]:
            raise ValueError(
                f"history for {self.key!r} must be appended in time order: "
                f"{entry.timestamp} < {self._times[-1]}"
            )
        self._history.append(entry)
        self._times.append(entry.timestamp)

    # -- queries -----------------------------------------------------------

    @property
    def history(self) -> tuple[VersionedValue, ...]:
        """The full history, oldest first."""
        return tuple(self._history)

    @property
    def modifications(self) -> int:
        """Total writes + deletions (the paper's 'modification' count)."""
        return self.writes + self.deletes

    def value_at(self, timestamp: float) -> Any:
        """Return the live value as of ``timestamp`` (inclusive).

        Returns :data:`MISSING` if the key had not been written yet and
        :data:`DELETED` if the most recent modification was a deletion.
        """
        idx = bisect.bisect_right(self._times, timestamp)
        if idx == 0:
            return MISSING
        return self._history[idx - 1].value

    def versions_between(
        self, start: float | None = None, end: float | None = None
    ) -> list[VersionedValue]:
        """History entries with ``start <= t <= end`` (either bound optional)."""
        lo = 0 if start is None else bisect.bisect_left(self._times, start)
        hi = len(self._times) if end is None else bisect.bisect_right(self._times, end)
        return self._history[lo:hi]

    def last_modified(self) -> float:
        """Timestamp of the most recent modification."""
        if not self._times:
            raise NoValueError(self.key, float("inf"))
        return self._times[-1]

    def estimated_size_bytes(self) -> int:
        """Rough storage footprint of this record (for Table I's Size column)."""
        size = 64 + len(self.key.encode("utf-8", errors="replace"))
        for entry in self._history:
            size += 16  # timestamp + tag
            value = entry.value
            if value is DELETED:
                size += 8
            elif isinstance(value, str):
                size += len(value.encode("utf-8", errors="replace"))
            elif isinstance(value, (list, tuple)):
                size += 8 * len(value) + sum(
                    len(str(item)) for item in value
                )
            else:
                size += len(str(value))
        return size


class TTKV:
    """The time-travel key-value store.

    The store is written to by loggers (``record_*`` methods) and read by
    the clustering pipeline (``write_events``) and the repair tool
    (``value_at`` / ``versions_between``).
    """

    def __init__(self) -> None:
        self._records: dict[str, KeyRecord] = {}
        self._journal = EventJournal()

    # -- recording ---------------------------------------------------------

    def record_write(self, key: str, value: Any, timestamp: float) -> None:
        check_event(key, timestamp)
        self._record(key).record_write(value, timestamp)
        self._journal.append(timestamp, key, value)

    def record_delete(self, key: str, timestamp: float) -> None:
        check_event(key, timestamp)
        self._record(key).record_delete(timestamp)
        self._journal.append(timestamp, key, DELETED)

    def record_read(self, key: str, timestamp: float) -> None:
        self._record(key).record_read(timestamp)

    def record_events(self, events: Iterable[tuple[float, str, Any]]) -> None:
        """Replay ``(timestamp, key, value)`` modifications in stream order.

        ``value is DELETED`` records a deletion; anything else is a write.
        Events must respect per-key time order, as all record_* calls do.
        Each event is validated as it is recorded (see
        :class:`~repro.exceptions.InvalidEventError`); events before an
        invalid one stay recorded.
        """
        record_delete, record_write = self.record_delete, self.record_write
        for timestamp, key, value in events:
            if value is DELETED:
                record_delete(key, timestamp)
            else:
                record_write(key, value, timestamp)

    def record_reads(self, key: str, count: int) -> None:
        """Bulk-count reads of ``key`` without per-event overhead.

        The paper's Windows traces contain tens of millions of reads
        (Table I); reads only ever feed counters, so the trace generator
        accounts for them in bulk rather than event-by-event.
        """
        self._record(key).record_reads(count)

    def _record(self, key: str) -> KeyRecord:
        record = self._records.get(key)
        if record is None:
            record = KeyRecord(key)
            self._records[key] = record
        return record

    # -- queries -----------------------------------------------------------

    def keys(self) -> list[str]:
        """All tracked keys, in first-seen order."""
        return list(self._records)

    def modified_keys(self) -> list[str]:
        """Keys with at least one write or deletion.

        The paper excludes never-modified keys from the search: "any key
        that has not been modified from its initial value cannot cause a
        configuration error".
        """
        return [k for k, r in self._records.items() if r.modifications > 0]

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def record_for(self, key: str) -> KeyRecord:
        try:
            return self._records[key]
        except KeyError:
            raise KeyNotTrackedError(key) from None

    def value_at(self, key: str, timestamp: float) -> Any:
        """Live value of ``key`` as of ``timestamp`` (MISSING/DELETED aware)."""
        return self.record_for(key).value_at(timestamp)

    def current_value(self, key: str) -> Any:
        return self.record_for(key).value_at(float("inf"))

    def history(self, key: str) -> tuple[VersionedValue, ...]:
        return self.record_for(key).history

    def write_count(self, key: str) -> int:
        return self.record_for(key).writes

    def modification_count(self, key: str) -> int:
        return self.record_for(key).modifications

    def write_events(self) -> list[tuple[float, str, Any]]:
        """Every modification (write or delete) as ``(t, key, value)``.

        Sorted by timestamp, with ties kept in the order loggers recorded
        them.  This is the input to the sliding-window write-group
        extraction.  The list is served from the append-ordered journal, so
        the call is O(n) copy with no re-sort.
        """
        return self._journal.events()

    @property
    def journal(self) -> EventJournal:
        """The append-ordered modification journal (cursor-based consumption)."""
        return self._journal

    def total_reads(self) -> int:
        return sum(r.reads for r in self._records.values())

    def total_writes(self) -> int:
        return sum(r.writes for r in self._records.values())

    def total_deletes(self) -> int:
        return sum(r.deletes for r in self._records.values())

    def estimated_size_bytes(self) -> int:
        """Approximate store footprint (Table I's Size column).

        Counts the per-key histories only, mirroring what the paper's
        logger persists.  The in-memory journal is an acceleration
        structure (one tuple per modification, sharing the history's key
        and value objects) and is deliberately excluded so Table I numbers
        stay comparable with the paper's.
        """
        return sum(r.estimated_size_bytes() for r in self._records.values())

    def span(self) -> tuple[float, float]:
        """(earliest, latest) modification timestamps across all keys."""
        times = [
            t
            for record in self._records.values()
            for t in (e.timestamp for e in record.history)
        ]
        if not times:
            raise NoValueError("<any>", 0.0)
        return min(times), max(times)

    # -- bulk construction ---------------------------------------------------

    @classmethod
    def from_events(
        cls, events: Iterable[tuple[float, str, Any]]
    ) -> "TTKV":
        """Build a store from ``(timestamp, key, value)`` modification events.

        ``value is DELETED`` records a deletion.  Events may be supplied in
        any order; they are sorted by ``(timestamp, input order)`` — the
        explicit input-order tiebreak keeps equal-timestamp events in the
        order the caller supplied them, independent of how the surrounding
        sort is implemented, and never compares (possibly unorderable)
        values.
        """
        store = cls()
        indexed = sorted(
            enumerate(events), key=lambda pair: (pair[1][0], pair[0])
        )
        store.record_events(event for _, event in indexed)
        return store

    def iter_records(self) -> Iterator[KeyRecord]:
        return iter(self._records.values())
