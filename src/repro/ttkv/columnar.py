"""Columnar trace files: the end-to-end benchmark's on-disk trace format.

The end-to-end benchmark (``benchmarks/e2e``) generates its seeded traces
once and caches them on disk.  This module is that cache's file format and
the in-memory journal that writes and reads it.  Stores and shards do not
use it: their only journal is the list-backed
:class:`~repro.ttkv.journal.EventJournal`.

:class:`ColumnarJournal` keeps a sorted event stream in two parts:

- **Interned string tables.**  Each distinct key and value is stored once
  in a side table, and events refer to them by ``int32`` id.
- **Sealed segments.**  Events accumulate in a small Python append buffer.
  Once it reaches ``segment_size`` entries it is *sealed* into an
  immutable numpy structured array of ``(float64 time, int32 key id,
  int32 value id)`` rows.

:meth:`ColumnarJournal.read_flexible` has the list journal's cursor
semantics and returns a :class:`ColumnarView`, a lazy window over the
sealed segments plus a snapshot of the buffer tail.

:func:`save_columnar` writes the sealed columns as one ``.npy`` array plus
a JSON side-car for the string tables and the reorder history
(format version :data:`COLUMNAR_FORMAT_VERSION`); :func:`load_columnar`
reads them back, memory-mapped or copied.

**Timestamps are float64**: the equality contract of this repository
compares Python ``float`` timestamps bit-for-bit, and IEEE-754 doubles
round-trip them exactly.

**Out-of-order appends** follow the list journal's bisect rule.  An
insertion landing in the buffer is a list insert; one landing in a sealed
segment rebuilds just that segment.

numpy is required.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Iterable, Sequence

import numpy as _np

from repro.exceptions import PersistenceError
from repro.ttkv.journal import Event, JournalCursor

#: Events per sealed segment (see :meth:`ColumnarJournal.seal`).
SEGMENT_SIZE = 4096

#: On-disk format version written by :func:`save_columnar`.
COLUMNAR_FORMAT_VERSION = 1


def _event_dtype():
    return _np.dtype([("t", "<f8"), ("k", "<i4"), ("v", "<i4")])


class _KeyTable:
    """Append-only str <-> int32 intern table."""

    __slots__ = ("_names", "_ids")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._ids[name] = ident
            self._names.append(name)
        return ident

    def value(self, ident: int) -> str:
        return self._names[ident]

    def to_state(self) -> list[str]:
        return list(self._names)

    @classmethod
    def from_state(cls, names: Iterable[str]) -> "_KeyTable":
        table = cls()
        for name in names:
            table.intern(str(name))
        return table

    def __len__(self) -> int:
        return len(self._names)


class _ValueTable:
    """Append-only value intern table keyed by a JSON canonical token.

    Values follow the persistence contract (JSON-serialisable, plus the
    DELETED sentinel).  Interning preserves the *original* object — a
    decode returns the same object that was appended, so non-JSON types
    that happen to serialise (tuples never do here: the token includes the
    type name) keep their identity.  Objects JSON cannot serialise are
    stored uninterned (identity-keyed) and only fail at :func:`save_columnar`
    time, matching where the list journal's JSON persistence fails.
    """

    __slots__ = ("_objects", "_tokens", "_ids", "_by_identity")

    def __init__(self) -> None:
        self._objects: list[Any] = []
        self._tokens: list[str | None] = []
        self._ids: dict[str, int] = {}
        self._by_identity: dict[int, int] = {}

    @staticmethod
    def _token(value: Any) -> str | None:
        from repro.ttkv.store import DELETED  # local to avoid import cycle

        if value is DELETED:
            return "d"
        try:
            return f"w:{type(value).__name__}:{json.dumps(value, sort_keys=True)}"
        except (TypeError, ValueError):
            return None

    def intern(self, value: Any) -> int:
        token = self._token(value)
        if token is not None:
            ident = self._ids.get(token)
            if ident is not None:
                return ident
        else:
            ident = self._by_identity.get(id(value))
            if ident is not None:
                return ident
        ident = len(self._objects)
        self._objects.append(value)
        self._tokens.append(token)
        if token is not None:
            self._ids[token] = ident
        else:
            # the table holds a reference, so id() stays stable
            self._by_identity[id(value)] = ident
        return ident

    def value(self, ident: int) -> Any:
        return self._objects[ident]

    def to_state(self) -> list[list]:
        from repro.ttkv.store import DELETED  # local to avoid import cycle

        entries: list[list] = []
        for value, token in zip(self._objects, self._tokens):
            if value is DELETED:
                entries.append(["d"])
            elif token is None:
                raise PersistenceError(
                    f"journal value {value!r} is not JSON-serialisable"
                )
            else:
                entries.append(["w", value])
        return entries

    @classmethod
    def from_state(cls, entries: Iterable[Sequence]) -> "_ValueTable":
        from repro.ttkv.store import DELETED  # local to avoid import cycle

        table = cls()
        for entry in entries:
            if entry[0] == "d":
                table.intern(DELETED)
            elif entry[0] == "w":
                table.intern(entry[1])
            else:
                raise PersistenceError(f"unknown value entry op {entry[0]!r}")
        return table

    def __len__(self) -> int:
        return len(self._objects)


class ColumnarView(Sequence):
    """Zero-copy window over a :class:`ColumnarJournal` slice.

    Sealed portions are numpy slice views (no copy); the buffer tail is a
    snapshot of its int-id columns.  Events decode lazily through the
    journal's intern tables.  Compares equal to any sequence holding the
    same event tuples, so view-returning reads stay drop-in for list
    consumers.
    """

    __slots__ = ("_journal", "_chunks", "_offsets", "_length")

    def __init__(self, journal: "ColumnarJournal", chunks: list) -> None:
        self._journal = journal
        self._chunks = chunks
        offsets = []
        total = 0
        for chunk in chunks:
            offsets.append(total)
            total += _chunk_len(chunk)
        self._offsets = offsets
        self._length = total

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return self.materialize()[index]
            return self._slice(start, stop)
        i = index
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("view index out of range")
        at = bisect.bisect_right(self._offsets, i) - 1
        return self._journal._decode_chunk_row(self._chunks[at], i - self._offsets[at])

    def __iter__(self):
        for chunk in self._chunks:
            yield from self._journal._decode_chunk(chunk)

    def __eq__(self, other):
        if isinstance(other, (str, bytes)) or not isinstance(
            other, (Sequence, list, tuple)
        ):
            return NotImplemented
        if len(other) != self._length:
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # views are comparisons-only, like lists

    def __repr__(self) -> str:
        return f"ColumnarView({self.materialize()!r})"

    def _slice(self, start: int, stop: int) -> "ColumnarView":
        chunks: list = []
        remaining_start, remaining = start, max(0, stop - start)
        for chunk in self._chunks:
            if remaining <= 0:
                break
            size = _chunk_len(chunk)
            if remaining_start >= size:
                remaining_start -= size
                continue
            take = min(size - remaining_start, remaining)
            chunks.append(_chunk_slice(chunk, remaining_start, remaining_start + take))
            remaining -= take
            remaining_start = 0
        return ColumnarView(self._journal, chunks)

    # -- bulk access ---------------------------------------------------------

    def materialize(self) -> list[Event]:
        """The slice as a plain list of event tuples (one bulk decode)."""
        out: list[Event] = []
        for chunk in self._chunks:
            out.extend(self._journal._decode_chunk(chunk))
        return out


def _chunk_len(chunk) -> int:
    return len(chunk[0]) if isinstance(chunk, tuple) else len(chunk)


def _chunk_slice(chunk, start: int, stop: int):
    if isinstance(chunk, tuple):
        return (chunk[0][start:stop], chunk[1][start:stop], chunk[2][start:stop])
    return chunk[start:stop]


class ColumnarJournal:
    """Array-backed sorted event stream (see the module docstring).

    ``segment_size`` tunes the append-buffer seal threshold; tests shrink
    it to force multi-segment layouts.
    """

    __slots__ = (
        "_segments",
        "_starts",
        "_seg_last",
        "_sealed_len",
        "_buf_t",
        "_buf_k",
        "_buf_v",
        "_keys",
        "_values",
        "_insertions",
        "_last_time",
        "_segment_size",
    )

    def __init__(self, *, segment_size: int = SEGMENT_SIZE) -> None:
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        self._segments: list = []  # sealed structured arrays (immutable)
        self._starts: list[int] = []  # global offset of each segment
        self._seg_last: list[float] = []  # last timestamp per segment
        self._sealed_len = 0
        self._buf_t: list[float] = []
        self._buf_k: list[int] = []
        self._buf_v: list[int] = []
        self._keys = _KeyTable()
        self._values = _ValueTable()
        self._insertions: list[int] = []
        self._last_time: float | None = None
        self._segment_size = segment_size

    # -- appends -------------------------------------------------------------

    def append_event(self, event: Event) -> None:
        """Record one modification given as an event tuple."""
        timestamp = event[0]
        kid = self._keys.intern(event[1])
        vid = self._values.intern(event[2])
        if self._last_time is None or timestamp >= self._last_time:
            self._buf_t.append(timestamp)
            self._buf_k.append(kid)
            self._buf_v.append(vid)
            self._last_time = timestamp
            if len(self._buf_t) >= self._segment_size:
                self.seal()
        else:
            self._insert(timestamp, kid, vid)

    def _insert(self, timestamp: float, kid: int, vid: int) -> None:
        """Out-of-order append: bisect placement, same rule as the list journal."""
        sealed_last = self._seg_last[-1] if self._seg_last else None
        if self._buf_t and (sealed_last is None or timestamp >= sealed_last):
            # lands in the append buffer: a plain list insert
            local = bisect.bisect_right(self._buf_t, timestamp)
            self._buf_t.insert(local, timestamp)
            self._buf_k.insert(local, kid)
            self._buf_v.insert(local, vid)
            self._insertions.append(self._sealed_len + local)
            if len(self._buf_t) >= self._segment_size:
                self.seal()
            return
        # lands in a sealed segment: splice-rebuild just that segment
        at = bisect.bisect_right(self._seg_last, timestamp)
        segment = self._segments[at]
        local = int(_np.searchsorted(segment["t"], timestamp, side="right"))
        row = _np.zeros(1, dtype=_event_dtype())
        row["t"] = timestamp
        row["k"] = kid
        row["v"] = vid
        rebuilt = _np.concatenate((segment[:local], row, segment[local:]))
        rebuilt.setflags(write=False)
        self._segments[at] = rebuilt
        self._seg_last[at] = float(rebuilt["t"][-1])
        for later in range(at + 1, len(self._starts)):
            self._starts[later] += 1
        self._insertions.append(self._starts[at] + local)
        self._sealed_len += 1

    def seal(self) -> None:
        """Freeze the append buffer into an immutable sealed segment."""
        if not self._buf_t:
            return
        count = len(self._buf_t)
        segment = _np.empty(count, dtype=_event_dtype())
        segment["t"] = self._buf_t
        segment["k"] = self._buf_k
        segment["v"] = self._buf_v
        segment.setflags(write=False)
        self._starts.append(self._sealed_len)
        self._segments.append(segment)
        self._seg_last.append(float(segment["t"][-1]))
        self._sealed_len += count
        self._buf_t.clear()
        self._buf_k.clear()
        self._buf_v.clear()

    # -- reads ---------------------------------------------------------------

    def events(self) -> list[Event]:
        """The full sorted stream (a fresh list; safe for callers to mutate)."""
        return self._view(0, len(self)).materialize()

    def read_flexible(
        self, cursor: JournalCursor | None = None
    ) -> tuple[int, ColumnarView, JournalCursor]:
        """Reorder-tolerant read: ``(rewound, events, cursor)``."""
        if cursor is None:
            start = 0
            rewound = 0
        else:
            start = cursor.position
            for index in self._insertions[cursor.epoch:]:
                if index < start:
                    start = index
            rewound = cursor.position - start
        total = len(self)
        return (
            rewound,
            self._view(start, total),
            JournalCursor(total, len(self._insertions)),
        )

    def __len__(self) -> int:
        return self._sealed_len + len(self._buf_t)

    # -- decoding helpers (shared with ColumnarView) --------------------------

    def _decode_row(self, row) -> Event:
        return (
            float(row["t"]),
            self._keys.value(int(row["k"])),
            self._values.value(int(row["v"])),
        )

    def _decode_chunk(self, chunk) -> list[Event]:
        key_of = self._keys.value
        val_of = self._values.value
        if isinstance(chunk, tuple):
            times, kids, vids = chunk
            return [
                (t, key_of(k), val_of(v)) for t, k, v in zip(times, kids, vids)
            ]
        return [
            (t, key_of(k), val_of(v))
            for t, k, v in zip(
                chunk["t"].tolist(), chunk["k"].tolist(), chunk["v"].tolist()
            )
        ]

    def _decode_chunk_row(self, chunk, local: int) -> Event:
        if isinstance(chunk, tuple):
            return (
                chunk[0][local],
                self._keys.value(chunk[1][local]),
                self._values.value(chunk[2][local]),
            )
        return self._decode_row(chunk[local])

    def _view(self, start: int, stop: int) -> ColumnarView:
        chunks: list = []
        stop = min(stop, len(self))
        if start < self._sealed_len:
            first = bisect.bisect_right(self._starts, start) - 1
            for at in range(max(first, 0), len(self._segments)):
                seg_start = self._starts[at]
                segment = self._segments[at]
                seg_stop = seg_start + len(segment)
                if seg_start >= stop:
                    break
                lo = max(start, seg_start) - seg_start
                hi = min(stop, seg_stop) - seg_start
                if lo < hi:
                    chunks.append(segment[lo:hi])
        if stop > self._sealed_len:
            lo = max(start - self._sealed_len, 0)
            hi = stop - self._sealed_len
            if lo < hi:
                chunks.append(
                    (
                        self._buf_t[lo:hi],
                        self._buf_k[lo:hi],
                        self._buf_v[lo:hi],
                    )
                )
        return ColumnarView(self, chunks)


# -- persistence --------------------------------------------------------------


def save_columnar(journal, path: str) -> None:
    """Persist a journal's event stream as columnar files.

    Writes the sealed column array to ``path`` (``.npy`` format) and the
    intern tables plus reorder history to ``path + ".meta"`` (JSON).
    A list :class:`~repro.ttkv.journal.EventJournal` is converted on the
    way out; a :class:`ColumnarJournal` is sealed and written directly.  Values must
    be JSON-serialisable — the same contract
    :mod:`repro.ttkv.persistence` imposes.
    """
    if not isinstance(journal, ColumnarJournal):
        converted = ColumnarJournal()
        for event in journal.events():
            converted.append_event(event)
        converted._insertions = list(journal._insertions)
        journal = converted
    journal.seal()
    if journal._segments:
        data = (
            journal._segments[0]
            if len(journal._segments) == 1
            else _np.concatenate(journal._segments)
        )
    else:
        data = _np.empty(0, dtype=_event_dtype())
    meta = {
        "version": COLUMNAR_FORMAT_VERSION,
        "count": int(len(data)),
        "keys": journal._keys.to_state(),
        "vals": journal._values.to_state(),
        "insertions": list(journal._insertions),
    }
    with open(path, "wb") as handle:
        _np.save(handle, data)
    with open(path + ".meta", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, separators=(",", ":"))


def load_columnar(
    path: str, *, mmap: bool = True, segment_size: int = SEGMENT_SIZE
) -> ColumnarJournal:
    """Reopen a journal written by :func:`save_columnar`.

    With ``mmap=True`` (default) the event columns stay on disk and are
    memory-mapped; ``mmap=False`` copies them into memory.  The loaded
    array becomes one sealed read-only segment; future appends buffer and
    seal as usual.
    """
    try:
        with open(path + ".meta", "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as error:
        raise PersistenceError(f"unreadable columnar metadata: {error}") from error
    if meta.get("version") != COLUMNAR_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported columnar format version {meta.get('version')!r}"
        )
    try:
        data = _np.load(path, mmap_mode="r" if mmap else None)
    except (OSError, ValueError) as error:
        raise PersistenceError(f"unreadable columnar data: {error}") from error
    expected = {"t", "k", "v"}
    if data.dtype.names is None or set(data.dtype.names) != expected:
        raise PersistenceError(
            f"columnar data has unexpected dtype {data.dtype!r}"
        )
    if len(data) != int(meta.get("count", -1)):
        raise PersistenceError(
            f"columnar data length {len(data)} does not match metadata "
            f"count {meta.get('count')!r}"
        )
    if not mmap:
        data = data.copy()
        data.setflags(write=False)
    journal = ColumnarJournal(segment_size=segment_size)
    journal._keys = _KeyTable.from_state(meta["keys"])
    journal._values = _ValueTable.from_state(meta["vals"])
    journal._insertions = [int(index) for index in meta["insertions"]]
    if len(data):
        journal._segments = [data]
        journal._starts = [0]
        journal._seg_last = [float(data["t"][-1])]
        journal._sealed_len = len(data)
        journal._last_time = journal._seg_last[0]
    return journal
