"""Version stamps: total order, tokens, clock rules, wire envelope."""

from __future__ import annotations

from repro.consistency.version import (
    MAGIC,
    VersionClock,
    VersionStamp,
    decode_versioned,
    encode_versioned,
    newer,
)


class TestOrdering:
    def test_lexicographic_epoch_counter_writer(self):
        assert VersionStamp(1, 0, 0) > VersionStamp(0, 99, 99)
        assert VersionStamp(0, 2, 0) > VersionStamp(0, 1, 99)
        assert VersionStamp(0, 1, 2) > VersionStamp(0, 1, 1)

    def test_equal_stamps_compare_equal(self):
        assert VersionStamp(1, 2, 3) == VersionStamp(1, 2, 3)

    def test_newer_treats_none_as_oldest(self):
        stamp = VersionStamp(0, 1, 0)
        assert newer(stamp, None)
        assert not newer(None, stamp)
        assert not newer(None, None)
        assert not newer(stamp, stamp)


class TestToken:
    def test_roundtrip(self):
        stamp = VersionStamp(3, 41, 7)
        assert stamp.token() == "3.41.7"


class TestClock:
    def test_send_increments(self):
        clock = VersionClock(writer=5)
        first, second = clock.next_stamp(), clock.next_stamp()
        assert second > first
        assert first.writer == second.writer == 5

    def test_receive_advances_past_observed(self):
        clock = VersionClock(writer=1)
        clock.observe(VersionStamp(0, 40, 2))
        assert clock.next_stamp() > VersionStamp(0, 40, 2)

    def test_observe_none_and_older_are_no_ops(self):
        clock = VersionClock()
        clock.observe(VersionStamp(0, 9, 0))
        clock.observe(None)
        clock.observe(VersionStamp(0, 3, 0))
        assert clock.counter == 9

    def test_epoch_fn_rides_membership(self):
        epoch = {"now": 0}
        clock = VersionClock(writer=1, epoch_fn=lambda: epoch["now"])
        before = clock.next_stamp()
        epoch["now"] = 2
        after = clock.next_stamp()
        assert before.epoch == 0 and after.epoch == 2
        assert after > before


class TestEnvelope:
    def test_roundtrip(self):
        stamp = VersionStamp(1, 2, 3)
        data = encode_versioned(b"payload bytes", stamp)
        assert data.startswith(MAGIC)
        assert decode_versioned(data) == (stamp, b"payload bytes")

    def test_empty_payload(self):
        stamp = VersionStamp(0, 1, 0)
        assert decode_versioned(encode_versioned(b"", stamp)) == (stamp, b"")

    def test_unversioned_passthrough(self):
        assert decode_versioned(b"legacy value") == (None, b"legacy value")
        assert decode_versioned(None) == (None, None)

    def test_payload_may_contain_spaces_and_magic(self):
        stamp = VersionStamp(0, 7, 1)
        payload = b"a b c " + MAGIC + b"0 0 0 nested"
        assert decode_versioned(encode_versioned(payload, stamp)) == (stamp, payload)

    def test_corrupt_header_degrades_to_unversioned(self):
        assert decode_versioned(MAGIC + b"x y z rest") == (None, MAGIC + b"x y z rest")
        assert decode_versioned(MAGIC + b"1 2") == (None, MAGIC + b"1 2")
