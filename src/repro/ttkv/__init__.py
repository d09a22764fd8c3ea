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
from repro.ttkv.columnar import (
    BACKEND_AUTO,
    BACKEND_COLUMNAR,
    BACKEND_LIST,
    BACKEND_NAMES,
    ColumnarJournal,
    ColumnarView,
    columnar_available,
    journal_backend,
    load_columnar,
    make_journal,
    resolve_backend,
    save_columnar,
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
    "BACKEND_AUTO",
    "BACKEND_COLUMNAR",
    "BACKEND_LIST",
    "BACKEND_NAMES",
    "ColumnarJournal",
    "ColumnarView",
    "columnar_available",
    "journal_backend",
    "load_columnar",
    "make_journal",
    "resolve_backend",
    "save_columnar",
    "CATCH_ALL",
    "ShardedJournal",
    "RollbackPlan",
    "SnapshotView",
    "rollback_plan",
    "load_ttkv",
    "save_ttkv",
]
