"""Tests for add/replace/append/prepend/incr/decr."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.protocol.codec import Command, encode_command, parse_command_stream
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import BAD_DELTA, MemcachedServer
from repro.protocol.transport import LoopbackTransport


@pytest.fixture()
def conn():
    return MemcachedConnection(LoopbackTransport(MemcachedServer()))


class TestAddReplace:
    def test_add_when_absent(self, conn):
        assert conn.add("k", b"v")
        assert conn.get("k") == b"v"

    def test_add_when_present_refused(self, conn):
        conn.set("k", b"old")
        assert not conn.add("k", b"new")
        assert conn.get("k") == b"old"

    def test_replace_when_present(self, conn):
        conn.set("k", b"old")
        assert conn.replace("k", b"new")
        assert conn.get("k") == b"new"

    def test_replace_when_absent_refused(self, conn):
        assert not conn.replace("k", b"v")
        assert conn.get("k") is None

    def test_add_after_expiry_succeeds(self):
        from tests.protocol.test_expiry import FakeClock

        clock = FakeClock()
        conn = MemcachedConnection(LoopbackTransport(MemcachedServer(clock=clock)))
        conn.set("k", b"v", exptime=5)
        clock.advance(6)
        assert conn.add("k", b"fresh")


class TestAppendPrepend:
    def test_append(self, conn):
        conn.set("k", b"hello")
        assert conn.append("k", b" world")
        assert conn.get("k") == b"hello world"

    def test_prepend(self, conn):
        conn.set("k", b"world")
        assert conn.prepend("k", b"hello ")
        assert conn.get("k") == b"hello world"

    def test_append_missing_refused(self, conn):
        assert not conn.append("k", b"x")

    def test_append_preserves_flags(self, conn):
        conn.set("k", b"a", flags=7)
        conn.append("k", b"b")
        out = conn.get_multi(["k"], with_cas=True)
        # flags survive concatenation (checked via a raw gets)
        t = LoopbackTransport(MemcachedServer())
        # simpler: re-fetch over the same connection and inspect flags
        [resp] = conn.transport.exchange(
            encode_command(Command(name="get", keys=("k",)))
        )
        assert resp.values == {"k": b"ab"} and resp.flags == {"k": 7} and resp.cas == {}


class TestCounters:
    def test_incr(self, conn):
        conn.set("n", b"10")
        assert conn.incr("n", 5) == 15
        assert conn.get("n") == b"15"

    def test_decr_clamps_at_zero(self, conn):
        conn.set("n", b"3")
        assert conn.decr("n", 10) == 0

    def test_missing_returns_none(self, conn):
        assert conn.incr("ghost") is None
        assert conn.decr("ghost") is None

    def test_non_numeric_raises(self, conn):
        conn.set("k", b"abc")
        with pytest.raises(ProtocolError):
            conn.incr("k")

    def test_incr_updates_cas(self, conn):
        conn.set("n", b"1")
        (_, cas1) = conn.get_multi(["n"], with_cas=True)["n"]
        conn.incr("n")
        (_, cas2) = conn.get_multi(["n"], with_cas=True)["n"]
        assert cas2 > cas1

    def test_default_delta_one(self, conn):
        conn.set("n", b"0")
        assert conn.incr("n") == 1


class TestWireFormat:
    def test_add_roundtrip(self):
        wire = encode_command(Command(name="add", keys=("k",), data=b"v"))
        [cmd], tail = parse_command_stream(wire)
        assert cmd.name == "add" and cmd.data == b"v" and tail == b""

    def test_incr_roundtrip(self):
        wire = encode_command(Command(name="incr", keys=("k",), delta=42))
        [cmd], tail = parse_command_stream(wire)
        assert cmd.name == "incr" and cmd.delta == 42

    def test_negative_delta_rejected(self):
        with pytest.raises(ProtocolError):
            encode_command(Command(name="incr", keys=("k",), delta=-1))
        # on the wire it is the server's to refuse, not a malformed line
        [cmd], _ = parse_command_stream(b"decr k -5\r\n")
        assert MemcachedServer().execute(cmd) == BAD_DELTA

    def test_counter_without_delta_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_stream(b"incr k\r\n")


class TestNumerals:
    """Number fields are memcached numerals: ASCII digits, maybe a sign.
    ``int()`` would also read ``_`` separators and any Unicode digit; and a
    counter or a delta is a uint64."""

    @pytest.mark.parametrize(
        "wire",
        [
            b"set k 0 0 1_0\r\n0123456789\r\n",
            "set n \u0660 0 1\r\n1\r\n".encode(),  # ARABIC-INDIC DIGIT ZERO as flags
            b"set k 0 1_0 1\r\nv\r\n",
            "cas k 0 0 1 \uff11\r\nv\r\n".encode(),  # FULLWIDTH DIGIT ONE as cas id
            b"touch k 1_0\r\n",
        ],
    )
    def test_fields_only_int_reads_are_malformed(self, wire):
        with pytest.raises(ProtocolError):
            parse_command_stream(wire)

    @pytest.mark.parametrize(
        "line",
        [
            b"incr n x\r\n",
            b"incr n 1_0\r\n",
            b"decr n -5\r\n",
            "incr n \u0661\r\n".encode(),
            b"incr n 18446744073709551616\r\n",
        ],
    )
    def test_a_delta_memcached_refuses_is_answered_and_reading_goes_on(self, line):
        # memcached's process_arithmetic_command: CLIENT_ERROR, the counter
        # untouched, and the pipelined get after it still answered
        server = MemcachedServer()
        server.execute(Command("set", keys=("n",), data=b"7"))
        out = server.handle(line + b"get n\r\n")
        assert out == BAD_DELTA + b"VALUE n 0 1\r\n7\r\nEND\r\n"
        refused, counted = LoopbackTransport(server).exchange(line + b"incr n 1\r\n", 2)
        assert refused.status == "CLIENT_ERROR invalid numeric delta argument"
        assert counted.status == "8"

    def test_plain_numerals_still_parse(self):
        [cmd], _ = parse_command_stream(b"set k 42 -1 1\r\nv\r\n")
        assert (cmd.flags, cmd.exptime, len(cmd.data)) == (42, -1, 1)
        [cmd], _ = parse_command_stream(b"incr n 18446744073709551616\r\n")
        assert cmd.delta == 2**64

    @pytest.mark.parametrize(
        "stored", [b"1_000", "\u0661".encode(), b"-5", b"18446744073709551616"]
    )
    def test_a_stored_counter_only_int_reads_is_non_numeric(self, stored):
        server = MemcachedServer()
        server.execute(Command("set", keys=("n",), data=stored))
        for verb in ("incr", "decr"):
            out = server.execute(Command(verb, keys=("n",), delta=1))
            assert out == b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
        assert server.execute(Command("get", keys=("n",))).count(stored) == 1

    def test_incr_wraps_at_two_to_the_64(self):
        server = MemcachedServer()
        server.execute(Command("set", keys=("n",), data=b"18446744073709551615"))
        assert server.execute(Command("incr", keys=("n",), delta=1)) == b"0\r\n"
        top = server.execute(Command("incr", keys=("n",), delta=2**64 - 1))
        assert top == b"18446744073709551615\r\n"
        assert server.execute(Command("incr", keys=("n",), delta=5)) == b"4\r\n"

    def test_a_delta_past_uint64_is_refused(self):
        server = MemcachedServer()
        server.execute(Command("set", keys=("n",), data=b"7"))
        [cmd], _ = parse_command_stream(b"incr n 18446744073709551616\r\n")
        assert server.execute(cmd) == b"CLIENT_ERROR invalid numeric delta argument\r\n"
        # refused before the lookup, as memcached parses it first
        cmd = Command("decr", keys=("missing",), delta=2**64)
        assert server.execute(cmd) == b"CLIENT_ERROR invalid numeric delta argument\r\n"
        assert server.execute(Command("get", keys=("n",))) == b"VALUE n 0 1\r\n7\r\nEND\r\n"

    def test_a_padded_or_signed_counter_still_counts(self):
        server = MemcachedServer()
        server.execute(Command("set", keys=("n",), data=b"41 "))
        assert server.execute(Command("incr", keys=("n",), delta=1)) == b"42\r\n"
        server.execute(Command("set", keys=("n",), data=b"+41"))
        assert server.execute(Command("incr", keys=("n",), delta=1)) == b"42\r\n"
