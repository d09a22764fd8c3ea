"""Columnar trace files: parity with the list journal and persistence.

The contract under test: the members of a :class:`ColumnarJournal` that the
end-to-end benchmark's trace cache uses (``append_event``, ``events``,
``read_flexible``) agree with the pure-Python :class:`EventJournal` for any
append sequence, including out-of-order ones, at any segment size.
Persistence round-trips (mmap and copy modes) preserve that equality, and
reads are zero-copy views over the sealed segments.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PersistenceError
from repro.ttkv.journal import EventJournal, EventSliceView, JournalCursor
from repro.ttkv.store import DELETED

np = pytest.importorskip("numpy")

from repro.ttkv.columnar import (
    ColumnarJournal,
    ColumnarView,
    load_columnar,
    save_columnar,
)


# -- strategies ---------------------------------------------------------------

_values = st.one_of(
    st.integers(min_value=-5, max_value=9),
    st.sampled_from(["on", "", "Consolas,11"]),
    st.booleans(),
    st.none(),
    st.just(DELETED),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)

# timestamps from a small grid so duplicates and out-of-order pairs are common
_events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=40, allow_nan=False).map(
            lambda t: round(t * 4) / 4
        ),
        st.sampled_from(["app/a", "app/b", "sys/c", "sys/d"]),
        _values,
    ),
    min_size=0,
    max_size=40,
)

_segment_sizes = st.sampled_from([1, 2, 3, 7, 4096])


def _fill(journal, events):
    for event in events:
        journal.append_event(event)


def _paired(events, segment_size):
    columnar = ColumnarJournal(segment_size=segment_size)
    reference = EventJournal()
    _fill(columnar, events)
    _fill(reference, events)
    return columnar, reference


# -- parity -------------------------------------------------------------------

@given(_events, _segment_sizes)
@settings(max_examples=80, deadline=None)
def test_full_stream_parity(events, segment_size):
    """events()/len/insertions match the list journal exactly."""
    columnar, reference = _paired(events, segment_size)
    assert columnar.events() == reference.events()
    assert len(columnar) == len(reference)
    assert columnar._insertions == reference._insertions


@given(_events, _segment_sizes, st.data())
@settings(max_examples=60, deadline=None)
def test_cursor_reads_parity(events, segment_size, data):
    """read_flexible agrees with the reference, cut at a random point."""
    cut = data.draw(st.integers(min_value=0, max_value=len(events)))
    columnar, reference = _paired(events[:cut], segment_size)
    rew_c, view_c, cursor_c = columnar.read_flexible(None)
    rew_r, view_r, cursor_r = reference.read_flexible(None)
    assert (rew_c, cursor_c) == (rew_r, cursor_r)
    assert view_c == view_r.materialize()
    _fill(columnar, events[cut:])
    _fill(reference, events[cut:])
    rew_c, flex_c, fc = columnar.read_flexible(cursor_c)
    rew_r, flex_r, fr = reference.read_flexible(cursor_r)
    assert (rew_c, fc) == (rew_r, fr)
    assert flex_c == flex_r.materialize()


@given(_events, _segment_sizes, st.integers(min_value=0, max_value=30))
@settings(max_examples=50, deadline=None)
def test_view_slicing_parity(events, segment_size, start):
    columnar, reference = _paired(events, segment_size)
    _, view, _ = columnar.read_flexible(None)
    expected = reference.events()
    stop = min(start + 7, len(expected))
    begin = min(start, len(expected))
    assert list(view[begin:stop]) == expected[begin:stop]
    assert view[begin:stop] == expected[begin:stop]


# -- persistence --------------------------------------------------------------

@given(_events, _segment_sizes, st.booleans())
@settings(max_examples=40, deadline=None)
def test_save_load_round_trip(tmp_path_factory, events, segment_size, mmap):
    path = str(tmp_path_factory.mktemp("journal") / "journal.npy")
    columnar, reference = _paired(events, segment_size)
    save_columnar(columnar, path)
    loaded = load_columnar(path, mmap=mmap)
    assert loaded.events() == reference.events()
    assert loaded._insertions == reference._insertions
    # the journal stays appendable after a resume
    loaded.append_event((1e9, "app/a", 1))
    reference.append_event((1e9, "app/a", 1))
    assert loaded.events() == reference.events()


def test_save_converts_list_journal(tmp_path):
    reference = EventJournal()
    reference.append(5.0, "k", 1)
    reference.append(1.0, "k", DELETED)  # out of order: insertion recorded
    path = str(tmp_path / "j.npy")
    save_columnar(reference, path)
    loaded = load_columnar(path)
    assert loaded.events() == reference.events()
    assert loaded._insertions == reference._insertions


def test_mmap_load_is_lazy(tmp_path):
    journal = ColumnarJournal()
    for t in range(100):
        journal.append_event((float(t), f"k{t % 5}", t))
    path = str(tmp_path / "j.npy")
    save_columnar(journal, path)
    loaded = load_columnar(path, mmap=True)
    segment = loaded._segments[0]
    assert isinstance(segment, np.memmap)
    assert loaded.events() == journal.events()


def test_corrupt_meta_rejected(tmp_path):
    journal = ColumnarJournal()
    journal.append_event((1.0, "k", 1))
    path = str(tmp_path / "j.npy")
    save_columnar(journal, path)
    meta = json.loads((tmp_path / "j.npy.meta").read_text())
    meta["count"] += 1
    (tmp_path / "j.npy.meta").write_text(json.dumps(meta))
    with pytest.raises(PersistenceError):
        load_columnar(path)


def test_unserialisable_value_rejected_only_at_save(tmp_path):
    journal = ColumnarJournal()
    journal.append_event((1.0, "k", object()))  # in-memory: fine
    assert journal.events()[0][2] is journal.events()[0][2]
    with pytest.raises(PersistenceError):
        save_columnar(journal, str(tmp_path / "j.npy"))


# -- zero-copy ----------------------------------------------------------------

def test_read_flexible_is_zero_copy_over_sealed_segments():
    journal = ColumnarJournal(segment_size=8)
    for t in range(32):
        journal.append_event((float(t), "k", t))
    _, view, _ = journal.read_flexible(None)
    assert isinstance(view, ColumnarView)
    sealed = [c for c in view._chunks if not isinstance(c, tuple)]
    assert sealed, "expected sealed segment chunks in the view"
    assert all(
        any(np.shares_memory(chunk, seg) for seg in journal._segments)
        for chunk in sealed
    )


def test_list_backend_events_from_is_a_lazy_view():
    journal = EventJournal()
    journal.append(1.0, "a", 1)
    view = journal.events_from(0)
    assert isinstance(view, EventSliceView)
    # events appended later are NOT visible: the view pins its window
    journal.append(2.0, "b", 2)
    assert view == [(1.0, "a", 1)]
    assert journal.events_from(0) == [(1.0, "a", 1), (2.0, "b", 2)]


def test_views_are_not_hashable():
    journal = ColumnarJournal()
    journal.append_event((1.0, "k", 1))
    with pytest.raises(TypeError):
        hash(journal.read_flexible(None)[1])


# -- cursors ------------------------------------------------------------------

def test_cursor_round_trips_through_state():
    journal = ColumnarJournal()
    journal.append_event((1.0, "k", 1))
    _, _, cursor = journal.read_flexible(None)
    assert JournalCursor.from_state(cursor.to_state()) == cursor
