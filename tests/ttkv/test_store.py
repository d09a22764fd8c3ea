"""Tests for the time-travel key-value store."""


import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import (
    InvalidEventError,
    KeyNotTrackedError,
    NoValueError,
    StoreError,
)
from repro.ttkv.store import DELETED, MISSING, KeyRecord, TTKV, VersionedValue


class TestKeyRecord:
    def test_counts_writes(self):
        record = KeyRecord("k")
        record.record_write(1, 1.0)
        record.record_write(2, 2.0)
        assert record.writes == 2
        assert record.deletes == 0

    def test_counts_deletes_separately(self):
        record = KeyRecord("k")
        record.record_write(1, 1.0)
        record.record_delete(2.0)
        assert record.writes == 1
        assert record.deletes == 1
        assert record.modifications == 2

    def test_reads_not_in_history(self):
        record = KeyRecord("k")
        record.record_read(1.0)
        assert record.reads == 1
        assert record.history == ()

    def test_bulk_reads(self):
        record = KeyRecord("k")
        record.record_reads(1000)
        assert record.reads == 1000

    def test_bulk_reads_rejects_negative(self):
        with pytest.raises(ValueError):
            KeyRecord("k").record_reads(-1)

    def test_history_in_order(self):
        record = KeyRecord("k")
        record.record_write("x", 1.0)
        record.record_delete(2.0)
        record.record_write("y", 3.0)
        values = [entry.value for entry in record.history]
        assert values == ["x", DELETED, "y"]

    def test_rejects_out_of_order_appends(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        with pytest.raises(ValueError):
            record.record_write(2, 4.0)

    def test_equal_timestamps_allowed(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        record.record_write(2, 5.0)
        assert record.writes == 2

    def test_value_at_before_first_write_is_missing(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        assert record.value_at(4.9) is MISSING

    def test_value_at_exact_timestamp_inclusive(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        assert record.value_at(5.0) == 1

    def test_value_at_after_delete_is_deleted(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        record.record_delete(6.0)
        assert record.value_at(7.0) is DELETED

    def test_value_at_between_writes(self):
        record = KeyRecord("k")
        record.record_write("old", 5.0)
        record.record_write("new", 10.0)
        assert record.value_at(7.0) == "old"

    def test_versions_between_bounds_inclusive(self):
        record = KeyRecord("k")
        for t in (1.0, 2.0, 3.0, 4.0):
            record.record_write(t, t)
        entries = record.versions_between(2.0, 3.0)
        assert [e.timestamp for e in entries] == [2.0, 3.0]

    def test_versions_between_open_bounds(self):
        record = KeyRecord("k")
        for t in (1.0, 2.0):
            record.record_write(t, t)
        assert len(record.versions_between()) == 2

    def test_last_modified(self):
        record = KeyRecord("k")
        record.record_write(1, 5.0)
        record.record_delete(9.0)
        assert record.last_modified() == 9.0

    def test_last_modified_empty_raises(self):
        with pytest.raises(NoValueError):
            KeyRecord("k").last_modified()

    def test_estimated_size_grows_with_history(self):
        record = KeyRecord("k")
        before = record.estimated_size_bytes()
        record.record_write("some value", 1.0)
        assert record.estimated_size_bytes() > before


class TestTTKV:
    def test_empty_store(self, ttkv):
        assert len(ttkv) == 0
        assert ttkv.keys() == []

    def test_contains(self, ttkv):
        ttkv.record_write("a", 1, 1.0)
        assert "a" in ttkv
        assert "b" not in ttkv

    def test_record_for_unknown_key_raises(self, ttkv):
        with pytest.raises(KeyNotTrackedError):
            ttkv.record_for("ghost")

    def test_value_at_unknown_key_raises(self, ttkv):
        with pytest.raises(KeyNotTrackedError):
            ttkv.value_at("ghost", 1.0)

    def test_current_value(self, ttkv):
        ttkv.record_write("a", "v1", 1.0)
        ttkv.record_write("a", "v2", 2.0)
        assert ttkv.current_value("a") == "v2"

    def test_modified_keys_excludes_read_only(self, ttkv):
        ttkv.record_write("w", 1, 1.0)
        ttkv.record_read("r", 1.0)
        assert ttkv.modified_keys() == ["w"]
        assert set(ttkv.keys()) == {"w", "r"}

    def test_write_events_sorted_by_time(self, ttkv):
        ttkv.record_write("a", 1, 5.0)
        ttkv.record_write("b", 2, 1.0)
        ttkv.record_write("a", 3, 9.0)
        events = ttkv.write_events()
        assert [t for t, _, _ in events] == [1.0, 5.0, 9.0]

    def test_write_events_include_deletes(self, ttkv):
        ttkv.record_write("a", 1, 1.0)
        ttkv.record_delete("a", 2.0)
        events = ttkv.write_events()
        assert events[1][2] is DELETED

    def test_write_events_tie_break_by_first_seen(self, ttkv):
        ttkv.record_write("z_first", 1, 5.0)
        ttkv.record_write("a_second", 2, 5.0)
        events = ttkv.write_events()
        assert [k for _, k, _ in events] == ["z_first", "a_second"]

    def test_totals(self, ttkv):
        ttkv.record_write("a", 1, 1.0)
        ttkv.record_delete("a", 2.0)
        ttkv.record_read("a", 3.0)
        ttkv.record_reads("a", 9)
        assert ttkv.total_writes() == 1
        assert ttkv.total_deletes() == 1
        assert ttkv.total_reads() == 10

    def test_span(self, ttkv):
        ttkv.record_write("a", 1, 3.0)
        ttkv.record_write("b", 1, 8.0)
        assert ttkv.span() == (3.0, 8.0)

    def test_span_empty_raises(self, ttkv):
        with pytest.raises(NoValueError):
            ttkv.span()

    def test_from_events_sorts(self):
        store = TTKV.from_events([(5.0, "a", 2), (1.0, "a", 1)])
        assert store.current_value("a") == 2
        assert store.value_at("a", 1.0) == 1

    def test_from_events_handles_deletions(self):
        store = TTKV.from_events([(1.0, "a", 1), (2.0, "a", DELETED)])
        assert store.current_value("a") is DELETED

    def test_estimated_size_counts_all_records(self, ttkv):
        ttkv.record_write("a", "x" * 100, 1.0)
        small = ttkv.estimated_size_bytes()
        ttkv.record_write("b", "y" * 1000, 2.0)
        assert ttkv.estimated_size_bytes() > small + 900


_BAD_TIMES = [math.nan, math.inf, -math.inf, "12", None]


class TestEventValidation:
    """Malformed events are refused before anything is recorded."""

    @pytest.fixture
    def store(self):
        return TTKV()

    def test_nan_timestamp_write_is_rejected(self, store):
        # ``nan < t`` is false, so a NaN used to slip past the per-key
        # time-order guard and reach the clustering windows
        with pytest.raises(InvalidEventError, match="finite"):
            store.record_write("a/y", 1, float("nan"))
        assert "a/y" not in store
        assert store.write_events() == []

    @pytest.mark.parametrize("timestamp", _BAD_TIMES)
    def test_non_finite_timestamps_leave_no_trace(self, store, timestamp):
        store.record_write("a/x", 0, 1.0)
        with pytest.raises(InvalidEventError):
            store.record_write("a/x", 1, timestamp)
        with pytest.raises(InvalidEventError):
            store.record_delete("a/x", timestamp)
        assert store.write_count("a/x") == 1
        assert store.total_deletes() == 0
        assert store.write_events() == [(1.0, "a/x", 0)]

    @pytest.mark.parametrize("key", [7, None, b"a/x", ("a", "x")])
    def test_non_str_keys_are_rejected(self, store, key):
        with pytest.raises(InvalidEventError, match="key must be a str"):
            store.record_write(key, 1, 1.0)
        with pytest.raises(InvalidEventError, match="key must be a str"):
            store.record_delete(key, 1.0)
        assert len(store) == 0
        assert store.write_events() == []

    def test_record_events_stops_at_the_invalid_event(self, store):
        events = [
            (1.0, "a", 1),
            (2.0, "b", DELETED),
            (math.nan, "c", 3),
            (4.0, "d", 4),
        ]
        with pytest.raises(InvalidEventError):
            store.record_events(events)
        assert [k for _, k, _ in store.write_events()] == ["a", "b"]
        assert "c" not in store and "d" not in store

    def test_error_is_a_store_error_and_a_value_error(self, store):
        with pytest.raises(StoreError):
            store.record_write("a", 1, math.inf)
        with pytest.raises(ValueError):
            store.record_delete("a", math.nan)

    def test_integer_and_negative_timestamps_still_accepted(self, store):
        store.record_write("a", 1, -5)
        store.record_write("a", 2, 0)
        store.record_delete("a", 3)
        assert store.write_count("a") == 2


class TestVersionedValue:
    def test_orderable_by_timestamp(self):
        early = VersionedValue(1.0, "x")
        late = VersionedValue(2.0, "y")
        assert early < late

    def test_is_deletion(self):
        assert VersionedValue(1.0, DELETED).is_deletion
        assert not VersionedValue(1.0, None).is_deletion


class TestSentinels:
    def test_deleted_and_missing_distinct(self):
        assert DELETED is not MISSING

    def test_repr(self):
        assert repr(DELETED) == "<DELETED>"
        assert repr(MISSING) == "<MISSING>"

    def test_deepcopy_preserves_identity(self):
        import copy

        assert copy.deepcopy(DELETED) is DELETED


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=100),
        ),
        max_size=50,
    )
)
def test_property_value_at_matches_linear_scan(events):
    """value_at (bisect) must agree with a brute-force scan."""
    store = TTKV.from_events(events)
    ordered = sorted(events, key=lambda e: e[0])
    for probe in (0.0, 1.0, 500.0, 1e6):
        for key in store.keys():
            expected = MISSING
            for t, k, v in ordered:
                if k == key and t <= probe:
                    expected = v
            assert store.value_at(key, probe) == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.sampled_from(["x", "y"]),
            st.integers(),
        ),
        max_size=30,
    )
)
def test_property_write_events_roundtrip(events):
    """from_events(write_events()) reproduces the same modification log."""
    store = TTKV.from_events(events)
    twin = TTKV.from_events(store.write_events())
    assert twin.write_events() == store.write_events()


class TestFromEventsStableOrder:
    def test_equal_timestamps_keep_input_order(self):
        events = [(5.0, "b", "first"), (5.0, "a", "second"), (5.0, "b", "third")]
        store = TTKV.from_events(events)
        assert store.keys() == ["b", "a"]
        assert [v.value for v in store.history("b")] == ["first", "third"]
        assert store.write_events() == events

    def test_tie_break_never_compares_values(self):
        # dicts and the DELETED sentinel are unorderable; a sort that fell
        # back to comparing whole events would raise TypeError here.
        events = [(1.0, "b", {"x": 1}), (1.0, "a", DELETED), (1.0, "c", {"y": 2})]
        store = TTKV.from_events(events)
        assert store.write_events() == events

    def test_later_input_sorted_before_earlier_timestamps(self):
        events = [(2.0, "x", 1), (1.0, "y", 2), (1.0, "z", 3)]
        store = TTKV.from_events(events)
        assert [(t, k) for t, k, _ in store.write_events()] == [
            (1.0, "y"), (1.0, "z"), (2.0, "x"),
        ]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.0]),  # heavy timestamp ties
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=30,
        )
    )
    def test_property_equal_timestamp_runs_preserve_input_order(self, events):
        store = TTKV.from_events(events)
        by_time = {}
        for event in events:
            by_time.setdefault(event[0], []).append(event)
        recorded = store.write_events()
        for timestamp, expected in by_time.items():
            # each equal-timestamp run comes out exactly in input order
            run = [e for e in recorded if e[0] == timestamp]
            assert run == expected
        # running from_events twice is a fixed point: the ordering is fully
        # deterministic, not an accident of the surrounding sort
        twin = TTKV.from_events(store.write_events())
        assert twin.write_events() == store.write_events()


class TestEstimatedSizeBytes:
    """Pin the Table I size-accounting formula on its edge cases."""

    @staticmethod
    def _base(key: str) -> int:
        return 64 + len(key.encode("utf-8"))

    def test_empty_record(self):
        assert KeyRecord("k").estimated_size_bytes() == self._base("k")

    def test_deleted_entry_costs_eight_bytes(self):
        record = KeyRecord("k")
        record.record_delete(1.0)
        assert record.estimated_size_bytes() == self._base("k") + 16 + 8

    def test_bool_value_counted_via_str(self):
        record = KeyRecord("k")
        record.record_write(True, 1.0)
        # bool is not str/list/tuple: falls through to len(str(True)) == 4
        assert record.estimated_size_bytes() == self._base("k") + 16 + 4

    def test_none_value_counted_via_str(self):
        record = KeyRecord("k")
        record.record_write(None, 1.0)
        assert record.estimated_size_bytes() == self._base("k") + 16 + 4

    def test_nested_tuple_value(self):
        value = ("a", ("b", "c"))
        record = KeyRecord("k")
        record.record_write(value, 1.0)
        expected = 8 * 2 + len(str("a")) + len(str(("b", "c")))
        assert record.estimated_size_bytes() == self._base("k") + 16 + expected

    def test_empty_list_value(self):
        record = KeyRecord("k")
        record.record_write([], 1.0)
        assert record.estimated_size_bytes() == self._base("k") + 16

    def test_unicode_key_measured_in_utf8_bytes(self):
        key = "café/♞"
        record = KeyRecord(key)
        assert record.estimated_size_bytes() == 64 + len(key.encode("utf-8"))

    def test_store_total_sums_records_with_deletions(self):
        store = TTKV()
        store.record_write("a", "xyz", 1.0)
        store.record_delete("a", 2.0)
        store.record_write("b", None, 1.0)
        expected = (
            (64 + 1 + 16 + 3 + 16 + 8)  # "a": write "xyz" + deletion
            + (64 + 1 + 16 + 4)          # "b": write None
        )
        assert store.estimated_size_bytes() == expected
