"""The one-pass read path against the implementations it replaced
(``_oracle.py``): same result or same exception class on every input,
byte-identical replies and equal counters from the server."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import MAX_KEY_LEN, Command, IncompleteResponse
from repro.protocol.memserver import MemcachedServer

from tests.protocol import _oracle


def outcome(fn, *args, **kwargs):
    """What a call produced: its result, or the class of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)


# -- responses -------------------------------------------------------------


def assert_same_parse(data: bytes, pos: int = 0) -> None:
    want = outcome(_oracle.parse_response_at, data, pos)
    got = outcome(codec.parse_response_at, data, pos)
    if want is _oracle.NegativeLength:
        assert got is ProtocolError, data
        return
    assert got == want, data
    if isinstance(got, tuple):
        assert all(type(v[1]) is bytes for v in got[0].values.values())


#: hand-picked responses: every shape the fast path takes or must hand on
CORPUS = [
    b"END\r\n",
    b"VALUE a 0 2\r\nhi\r\nEND\r\n",
    b"VALUE a 1 2 77\r\nhi\r\nVALUE b 0 0 78\r\n\r\nEND\r\n",  # gets, zero-length
    b"VALUE a 0 7\r\n\r\nEND\r\n\r\nEND\r\n",  # a payload that reads like a terminator
    b"VALUE a 0 14\r\nVALUE b 0 1\r\nx\r\nEND\r\n",  # a payload that reads like a header
    b"VALUE a 0 3\r\n\x00\xff\r\r\nVALUE a 5 1\r\n\n\r\nEND\r\n",  # binary, duplicate key
    "VALUE clé 0 1\r\nx\r\nVALUE k y 0 1\r\nz\r\nEND\r\n".encode(),  # non-ASCII keys
    b"VALUE  a 0 1\r\nx\r\nEND\r\n",  # double spaces
    b"VALUE a  0 1\r\nx\r\nEND\r\n",
    b"VALUE a 0 1 \r\nx\r\nEND\r\n",
    b"VALUE a +5 1_0 -0\r\n0123456789\r\nEND\r\n",  # numerals only int() reads
    b"VALUE a 007 01\r\nx\r\nEND\r\n",
    "VALUE a 0 ٣\r\nxyz\r\nEND\r\n".encode(),  # a non-ASCII digit
    b"VALUE a 0 -2\r\nEND\r\n",  # negative <bytes>: now an error
    b"VALUE a 0 1 2 3\r\nx\r\nEND\r\n",
    b"VALUE a 0\r\nEND\r\n",
    b"VALUE a b 1\r\nx\r\nEND\r\n",
    b"VALUE a 0 1\r\nxy\r\nEND\r\n",  # body longer than declared
    b"value a 0 1\r\nx\r\nEND\r\n",
    b"STAT pid 1\r\nSTAT keys a b\r\nEND\r\n",
    b"VALUE a 0 1\r\nx\r\nSERVER_ERROR busy\r\n",
    b"12\r\n",
    b"WHAT\r\n",
]

REPLACEMENTS = [b"", b" ", b"\r", b"\n", b"-", b"+", b"_", b"0", b"9", b"V", b"\xff", b"\x1c"]


class TestParseResponse:
    @pytest.mark.parametrize("data", CORPUS)
    def test_corpus(self, data):
        assert_same_parse(data)

    def test_negative_length_is_rejected_wherever_it_reaches(self):
        # the parent looped forever on the second: 17 bytes back from the end of this
        # header is the CRLF of the response before it
        hostile = ((b"VALUE k 0 -2\r\nEND\r\n", 0), (b"END\r\nVALUE k 0 -17\r\nEND\r\n", 5))
        for data, pos in hostile:
            with pytest.raises(ProtocolError, match="malformed VALUE"):
                codec.parse_response_at(data, pos)

    @pytest.mark.parametrize("data", CORPUS)
    def test_truncated_at_every_offset(self, data):
        for cut in range(len(data)):
            assert_same_parse(data[:cut])

    @pytest.mark.parametrize("data", CORPUS)
    def test_one_byte_mutated_at_every_offset(self, data):
        for at in range(len(data)):
            for byte in REPLACEMENTS:
                assert_same_parse(data[:at] + byte + data[at + 1 :])  # replaced (or deleted)
                assert_same_parse(data[:at] + byte + data[at:])  # inserted

    def test_every_offset_of_a_pipelined_buffer(self):
        data = b"".join(CORPUS[:7])
        for pos in range(len(data)):
            assert_same_parse(data, pos)

    wire_keys = st.one_of(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
        st.text(min_size=1, max_size=6).filter(lambda k: not set(k) & set("\r\n")),
    )
    numerals = st.one_of(
        st.integers(0, 2**40).map(str), st.sampled_from(["+5", "1_0", "00", "-0", "-1", "x"])
    )
    blocks = st.tuples(
        wire_keys,
        numerals,
        st.binary(max_size=40),
        st.none() | numerals,
        st.sampled_from([" ", " ", " ", "  ", "\t"]),
        st.none() | numerals,  # a declared length that is not the payload's
    )
    terminals = st.sampled_from(
        [b"END\r\n", b"END", b"", b"STORED\r\n", b"SERVER_ERROR busy\r\n", b"STAT a b\r\n"]
    )

    @staticmethod
    def render(blocks, terminal: bytes) -> bytes:
        out = bytearray()
        for key, flags, payload, cas, sep, declared in blocks:
            fields = ["VALUE", key, flags, str(len(payload)) if declared is None else declared]
            if cas is not None:
                fields.append(cas)
            out += sep.join(fields).encode() + b"\r\n" + payload + b"\r\n"
        return bytes(out + terminal)

    @given(st.lists(blocks, max_size=5), terminals, st.binary(max_size=8))
    @settings(max_examples=300)
    def test_generated_responses(self, blocks, terminal, junk):
        data = self.render(blocks, terminal)
        assert_same_parse(data)
        assert_same_parse(junk + data, len(junk))

    @given(st.lists(blocks, min_size=1, max_size=4), st.data())
    @settings(max_examples=300)
    def test_generated_responses_mutated(self, blocks, data):
        wire = bytearray(self.render(blocks, b"END\r\n"))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(wire) - 1))
            wire[at : at + data.draw(st.integers(0, 1))] = data.draw(st.binary(max_size=2))
            if not wire:
                return
        assert_same_parse(bytes(wire))

    def test_frame_buffer_takes_the_same_path(self):
        data = b"".join(CORPUS[:6])
        frames = codec.FrameBuffer()
        frames.feed(data)
        pos = 0
        for _ in range(6):
            want, pos = _oracle.parse_response_at(data, pos)
            assert frames.next_response() == want
        assert len(frames) == 0


# -- retrieval command lines -----------------------------------------------


def assert_same_commands(data: bytes) -> None:
    want = outcome(_oracle.parse_retrieval_stream, data)
    if want is not _oracle.NotRetrieval:
        assert outcome(codec.parse_command_stream, data) == want, data


COMMAND_CORPUS = [
    b"get a\r\n",
    b"gets a bb ccc\r\n",
    b"get a\r\n\r\n  \r\ngets b c\r\nget d",
    b"get\r\n",
    b"get  a   b \r\n",
    b"get a\tb\x0bc\x1cd\r\n",  # whitespace split() tears keys on
    "get a b c d é\r\n".encode(),
    b"get a\x00b\r\n",
    b"get a \x7f\r\n",
    b"get a\x1bb c\r\n",
    b"get \xff\xfe\r\n",
    b"get " + b"k" * MAX_KEY_LEN + b" b\r\n",
    b"get a " + b"k" * (MAX_KEY_LEN + 1) + b" \x01\r\n",  # two bad keys: the first one's error
    b"get \x01 " + b"k" * (MAX_KEY_LEN + 1) + b"\r\n",
]


class TestParseRetrievalCommands:
    @pytest.mark.parametrize("data", COMMAND_CORPUS)
    def test_corpus_truncated_and_mutated_at_every_offset(self, data):
        assert_same_commands(data)
        for at in range(len(data)):
            assert_same_commands(data[:at])
            for byte in (b"", b" ", b"\r", b"\n", b"\x00", b"\x08", b"\x0e", b"\x1b", b"\x1c",
                         b"\x7f", b"\xc2", b"\xa0", b"x"):  # fmt: skip
                assert_same_commands(data[:at] + byte + data[at + 1 :])
                assert_same_commands(data[:at] + byte + data[at:])

    def test_the_first_bad_keys_error_is_raised(self):
        for data in COMMAND_CORPUS[-2:]:
            with pytest.raises(ProtocolError) as new:
                codec.parse_command_stream(data)
            with pytest.raises(ProtocolError) as old:
                _oracle.parse_retrieval_stream(data)
            assert str(new.value) == str(old.value)

    def test_every_code_point_in_a_key(self):
        spaces = [0x1680, 0x2000, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000, 0xFEFF]
        for cp in [*range(0x100), *spaces]:
            assert_same_commands(f"get a{chr(cp)}b c\r\n".encode())

    any_keys = st.text(max_size=8) | st.text("k", min_size=249, max_size=252)
    lines = st.lists(
        st.tuples(
            st.sampled_from(["get", "gets", "get", ""]),
            st.lists(any_keys, max_size=5),
            st.sampled_from([" ", " ", "  ", "\t"]),
            st.sampled_from(["\r\n", "\r\n", "\n", ""]),
        ),
        max_size=4,
    )

    @given(lines)
    @settings(max_examples=300)
    def test_generated_lines(self, lines):
        wire = "".join(sep.join([name, *keys]) + eol for name, keys, sep, eol in lines)
        assert_same_commands(wire.encode())


# -- the server's get dispatch ----------------------------------------------


class Clock:
    now = 1000.0

    def __call__(self) -> float:
        return self.now


store_keys = st.sampled_from(["a", "b", "c", "dd", "clé", "k" * MAX_KEY_LEN, "absent", "gone"])
stores = st.lists(
    st.tuples(
        store_keys,
        st.integers(0, 2**32 - 1),  # flags
        st.binary(max_size=32) | st.just(b"\r\nEND\r\n"),
        st.sampled_from([0, 0, 5, 50]),  # exptime: none, gone by the reads, still live
    ),
    max_size=10,
)
gets = st.lists(
    st.tuples(st.sampled_from(["get", "gets"]), st.lists(store_keys, min_size=1, max_size=8)),
    min_size=1,
    max_size=6,
)


class TestExecuteGet:
    @staticmethod
    def pair(capacity=None):
        clock = Clock()
        new, old = (MemcachedServer(capacity, clock=clock) for _ in range(2))
        return clock, new, old

    @given(stores, gets, st.sampled_from([None, 64]))
    @settings(max_examples=300)
    def test_replies_counters_and_lru_order(self, stored, commands, capacity):
        clock, new, old = self.pair(capacity)
        for key, flags, data, exptime in stored:
            cmd = Command("set", keys=(key,), flags=flags, data=data, exptime=exptime)
            assert new.execute(cmd) == old.execute(cmd)
        clock.now += 10  # exptime 5 has passed, 50 has not
        for name, keys in commands:
            cmd = Command(name, keys=tuple(keys))
            assert new.execute(cmd) == _oracle.execute_get(old, cmd)
            assert new.stats == old.stats
            assert list(new._items) == list(old._items)  # LRU order
            assert new.bytes_used == old.bytes_used

    def test_a_reply_by_hand(self):
        _, new, old = self.pair()
        for server in (new, old):
            server.execute(Command("set", keys=("a",), flags=3, data=b"xy"))
            server.execute(Command("set", keys=("b",), data=b""))
        cmd = Command("gets", keys=("a", "nope", "b", "a"))
        want = b"VALUE a 3 2 1\r\nxy\r\nVALUE b 0 0 2\r\n\r\nVALUE a 3 2 1\r\nxy\r\nEND\r\n"
        assert new.execute(cmd) == _oracle.execute_get(old, cmd) == want
        assert new.stats["get_hits"] == 3 and new.stats["get_misses"] == 1
        assert new.stats == old.stats

    def test_generated_replies_parse_back(self):
        _, new, _ = self.pair()
        new.execute(Command("set", keys=("a",), flags=9, data=b"\r\n"))
        reply = new.execute(Command("gets", keys=("a", "a")))
        resp, end = codec.parse_response_at(reply)
        assert end == len(reply) and resp.values == {"a": (9, b"\r\n", 1)}
        with pytest.raises(IncompleteResponse):
            codec.parse_response_at(reply[:-1])
