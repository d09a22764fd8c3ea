"""Time-travel key-value store (TTKV).

The paper implements its TTKV on Redis; here it is a pure-Python store with
the same observable behaviour: every key maps to a record holding its write
and deletion counts plus a timestamped history of values, with deletions
recorded in the history via a special sentinel value.
"""

from repro.ttkv.store import DELETED, MISSING, KeyRecord, TTKV, VersionedValue
from repro.ttkv.journal import (
    EventJournal,
    EventSliceView,
    JournalCursor,
    decode_event,
    encode_event,
)
from repro.ttkv.sharding import CATCH_ALL, ShardedJournal
from repro.ttkv.snapshot import RollbackPlan, SnapshotView, rollback_plan
from repro.ttkv.persistence import load_ttkv, save_ttkv

__all__ = [
    "DELETED",
    "MISSING",
    "KeyRecord",
    "TTKV",
    "VersionedValue",
    "EventJournal",
    "EventSliceView",
    "JournalCursor",
    "decode_event",
    "encode_event",
    "CATCH_ALL",
    "ShardedJournal",
    "RollbackPlan",
    "SnapshotView",
    "rollback_plan",
    "load_ttkv",
    "save_ttkv",
]
