"""Tests for the append-ordered event journal and its TTKV integration."""

import pytest

from repro.exceptions import InvalidEventError, StaleCursorError
from repro.ttkv.journal import EventJournal, JournalCursor
from repro.ttkv.store import DELETED, TTKV


class TestEventJournal:
    def test_in_order_appends_preserve_order(self):
        journal = EventJournal()
        journal.append(1.0, "a", 1)
        journal.append(1.0, "b", 2)
        journal.append(2.0, "a", 3)
        assert journal.events() == [(1.0, "a", 1), (1.0, "b", 2), (2.0, "a", 3)]
        assert journal.epoch == 0
        assert len(journal) == 3

    def test_same_timestamp_appends_are_not_reorders(self):
        # with 1-second quantisation same-tick writes are routine; they
        # must stay O(1) appends in arrival order, not insertions
        journal = EventJournal()
        journal.append(5.0, "b", 1)
        journal.append(5.0, "a", 2)
        journal.append(5.0, "c", 3)
        assert journal.epoch == 0
        assert [k for _, k, _ in journal.events()] == ["b", "a", "c"]

    def test_out_of_order_append_inserts_and_bumps_epoch(self):
        journal = EventJournal()
        journal.append(5.0, "a", 1)
        journal.append(1.0, "b", 2)
        assert journal.epoch == 1
        assert journal.events() == [(1.0, "b", 2), (5.0, "a", 1)]

    def test_insertion_lands_after_equal_timestamps(self):
        journal = EventJournal()
        journal.append(1.0, "a", "first")
        journal.append(1.0, "a", "second")
        journal.append(2.0, "b", "later")
        journal.append(1.0, "a", "third")  # insertion path, after the equals
        values = [value for _, _, value in journal.events()]
        assert values == ["first", "second", "third", "later"]
        assert journal.epoch == 1

    def test_cursor_reads_only_the_new_suffix(self):
        journal = EventJournal()
        journal.append(1.0, "a", 1)
        events, cursor = journal.read()
        assert events == [(1.0, "a", 1)]
        events, cursor = journal.read(cursor)
        assert events == []
        journal.append(2.0, "b", 2)
        events, cursor = journal.read(cursor)
        assert events == [(2.0, "b", 2)]
        assert cursor == JournalCursor(position=2, epoch=0)

    def test_stale_cursor_raises(self):
        journal = EventJournal()
        journal.append(5.0, "a", 1)
        _, cursor = journal.read()
        journal.append(1.0, "b", 2)  # reorders inside the consumed prefix
        with pytest.raises(StaleCursorError):
            journal.read(cursor)
        events, fresh = journal.read(None)
        assert [key for _, key, _ in events] == ["b", "a"]
        assert fresh.epoch == journal.epoch

    def test_insertion_in_unread_suffix_keeps_cursor_valid(self):
        journal = EventJournal()
        journal.append(10.0, "a", 1)
        journal.append(20.0, "b", 2)
        _, cursor = journal.read()
        journal.append(30.0, "a", 3)
        journal.append(25.0, "b", 4)  # out of order, but past the cursor
        assert journal.epoch == 1
        events, cursor = journal.read(cursor)  # must NOT raise
        assert events == [(25.0, "b", 4), (30.0, "a", 3)]
        events, _ = journal.read(cursor)
        assert events == []

    def test_read_flexible_matches_read_on_ordered_streams(self):
        journal = EventJournal()
        journal.append(1.0, "a", 1)
        rewound, events, cursor = journal.read_flexible()
        assert (rewound, events) == (0, [(1.0, "a", 1)])
        journal.append(2.0, "b", 2)
        rewound, events, cursor = journal.read_flexible(cursor)
        assert (rewound, events) == (0, [(2.0, "b", 2)])
        assert cursor == JournalCursor(position=2, epoch=0)

    def test_read_flexible_redelivers_reordered_suffix(self):
        journal = EventJournal()
        journal.append(10.0, "a", 1)
        journal.append(20.0, "b", 2)
        _, _, cursor = journal.read_flexible()
        journal.append(15.0, "c", 3)  # lands inside the consumed prefix
        rewound, events, cursor = journal.read_flexible(cursor)
        assert rewound == 1  # (20.0, b) was consumed and comes again
        assert events == [(15.0, "c", 3), (20.0, "b", 2)]
        rewound, events, _ = journal.read_flexible(cursor)
        assert (rewound, events) == (0, [])

    def test_read_flexible_rewinds_to_earliest_insertion(self):
        journal = EventJournal()
        for t, key in ((10.0, "a"), (20.0, "b"), (30.0, "c")):
            journal.append(t, key, 0)
        _, _, cursor = journal.read_flexible()
        journal.append(25.0, "x", 0)
        journal.append(15.0, "y", 0)
        rewound, events, _ = journal.read_flexible(cursor)
        assert rewound == 2  # b and c re-delivered, re-sorted with x and y
        assert [k for _, k, _ in events] == ["y", "b", "x", "c"]

    def test_read_flexible_ignores_insertions_in_unread_suffix(self):
        journal = EventJournal()
        journal.append(10.0, "a", 1)
        _, _, cursor = journal.read_flexible()
        journal.append(30.0, "b", 2)
        journal.append(20.0, "c", 3)  # out of order, but past the cursor
        rewound, events, _ = journal.read_flexible(cursor)
        assert rewound == 0
        assert [k for _, k, _ in events] == ["c", "b"]

    def test_subscribe_observes_appends_in_arrival_order(self):
        journal = EventJournal()
        journal.append(5.0, "before", 0)
        seen = []
        journal.subscribe(seen.append)
        journal.append(10.0, "a", 1)
        journal.append(7.0, "b", 2)  # out-of-order: listener still sees arrival
        assert seen == [(10.0, "a", 1), (7.0, "b", 2)]
        journal.unsubscribe(seen.append)
        journal.append(20.0, "c", 3)
        assert len(seen) == 2

    def test_cursor_state_round_trip(self):
        cursor = JournalCursor(position=7, epoch=2)
        assert JournalCursor.from_state(cursor.to_state()) == cursor
        with pytest.raises(ValueError):
            JournalCursor.from_state({"position": -1, "epoch": 0})

    def test_events_returns_a_copy(self):
        journal = EventJournal()
        journal.append(1.0, "a", 1)
        events = journal.events()
        events.clear()
        assert journal.events() == [(1.0, "a", 1)]

    @pytest.mark.parametrize(
        "event",
        [
            (float("nan"), "b", 2),
            (float("inf"), "b", 2),
            (float("-inf"), "b", 2),
            ("soon", "b", 2),
            (2.0, 7, 2),
        ],
        ids=["nan", "inf", "-inf", "non-number", "non-str-key"],
    )
    def test_invalid_event_rejected_before_any_change(self, event):
        # regression: a NaN after 1.0 was filed as an in-order append, so
        # a later 0.5 landed after it and the sort invariant broke silently
        journal = EventJournal()
        journal.append_event((1.0, "a", 1))
        seen = []
        journal.subscribe(seen.append)
        with pytest.raises(InvalidEventError):
            journal.append_event(event)
        assert journal.events() == [(1.0, "a", 1)]
        assert journal.epoch == 0
        assert seen == []
        journal.append_event((0.5, "c", 3))
        assert journal.events() == [(0.5, "c", 3), (1.0, "a", 1)]


class TestTTKVJournalIntegration:
    def test_write_events_served_from_journal(self):
        store = TTKV()
        store.record_write("a", 1, 10.0)
        store.record_write("b", 2, 10.0)
        store.record_delete("a", 20.0)
        assert store.write_events() == [
            (10.0, "a", 1),
            (10.0, "b", 2),
            (20.0, "a", DELETED),
        ]
        assert store.journal.events() == store.write_events()

    def test_ties_keep_recording_order(self):
        store = TTKV()
        store.record_write("b", 1, 1.0)
        store.record_write("a", 2, 2.0)
        store.record_write("a", 3, 5.0)
        store.record_write("b", 4, 5.0)
        assert [(t, k) for t, k, _ in store.write_events()] == [
            (1.0, "b"), (2.0, "a"), (5.0, "a"), (5.0, "b"),
        ]
        assert store.journal.epoch == 0

    def test_cross_key_out_of_order_write_lands_sorted(self):
        store = TTKV()
        store.record_write("a", 1, 100.0)
        store.record_write("late", 2, 7.0)  # older timestamp, new key
        assert [k for _, k, _ in store.write_events()] == ["late", "a"]
        assert store.journal.epoch == 1

    def test_reads_do_not_touch_the_journal(self):
        store = TTKV()
        store.record_write("a", 1, 1.0)
        store.record_read("a", 2.0)
        store.record_reads("a", 10)
        assert len(store.journal) == 1
