"""Exception hierarchy for the Ocasta reproduction.

All library-specific errors derive from :class:`OcastaError` so callers can
catch one base type at API boundaries.
"""

from __future__ import annotations


class OcastaError(Exception):
    """Base class for all errors raised by this library."""


class KeyNotTrackedError(OcastaError, KeyError):
    """A TTKV operation referenced a key with no recorded history."""

    def __init__(self, key: str) -> None:
        super().__init__(f"key {key!r} has no recorded history")
        self.key = key


class NoValueError(OcastaError, LookupError):
    """A key has no live value at the requested point in time."""

    def __init__(self, key: str, timestamp: float) -> None:
        super().__init__(f"key {key!r} has no value at t={timestamp}")
        self.key = key
        self.timestamp = timestamp


class StoreError(OcastaError):
    """A configuration-store operation failed (bad path, bad type, ...)."""


class InvalidEventError(StoreError, ValueError):
    """A modification event has a non-``str`` key or a non-finite timestamp.

    Raised by :class:`~repro.ttkv.store.TTKV` before the key's record or
    the journal is touched, and by every
    :meth:`~repro.ttkv.journal.EventJournal.append_event` before the
    journal changes, so a rejected event leaves no trace.  A NaN
    timestamp would otherwise slip past every per-key time-order guard
    (``nan < t`` is false) and poison the write-group windows.
    Subclasses :class:`ValueError` like the other input-validation errors.
    """

    def __init__(self, key: object, timestamp: object) -> None:
        if not isinstance(key, str):
            problem = f"key must be a str, got {type(key).__name__}"
        else:
            problem = f"timestamp must be a finite number, got {timestamp!r}"
        super().__init__(f"invalid event for key {key!r}: {problem}")
        self.key = key
        self.timestamp = timestamp


class ParseError(StoreError):
    """A configuration file could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(OcastaError):
    """An application configuration schema is inconsistent."""


class UnknownActionError(OcastaError):
    """A trial referenced a UI action the application does not implement."""

    def __init__(self, app: str, action: str) -> None:
        super().__init__(f"application {app!r} has no UI action {action!r}")
        self.app = app
        self.action = action


class ReplayError(OcastaError):
    """Deterministic replay of a trial failed."""


class SandboxError(OcastaError):
    """A sandboxed execution attempted to escape or was misused."""


class SearchExhaustedError(OcastaError):
    """The repair search examined every candidate without finding a fix."""


class InjectionError(OcastaError):
    """A configuration error could not be injected into the trace/TTKV."""


class PersistenceError(OcastaError):
    """The TTKV append-only log is corrupt or unreadable."""


class CheckpointError(OcastaError, ValueError):
    """A session or fleet checkpoint could not be loaded.

    Subclasses :class:`ValueError` so pre-existing callers that guarded
    checkpoint loads with ``except ValueError`` keep working; new code
    should catch this type (or :class:`OcastaError`) instead.
    """


class CorruptCheckpointError(CheckpointError):
    """A checkpoint file is truncated, unparseable or fails its checksum.

    Raised instead of the bare ``json.JSONDecodeError`` / ``KeyError``
    the underlying parse would surface, with the file and the nature of
    the damage in the message.  The fleet checkpoint store additionally
    quarantines the damaged generation and falls back to an older one
    before giving up with this error.
    """


class StaleCursorError(OcastaError):
    """A journal cursor was invalidated by an out-of-order append.

    Consumers recover by discarding their incremental state and re-reading
    the journal from the beginning.
    """

    def __init__(self, position: int) -> None:
        super().__init__(
            f"journal cursor at position {position} predates a reordering; "
            "re-read from the start"
        )
        self.position = position
