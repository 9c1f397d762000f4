"""Tests for the memcached ASCII protocol codec, incl. roundtrip property."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.codec import (
    MAX_KEY_LEN,
    Command,
    IncompleteResponse,
    encode_command,
    format_stats,
    format_status,
    parse_command_stream,
    parse_response,
    validate_keys,
)

from tests.protocol._oracle import format_values

key_chars = st.characters(
    min_codepoint=33, max_codepoint=126, blacklist_characters=" "
)
keys = st.text(alphabet=key_chars, min_size=1, max_size=32)
payloads = st.binary(max_size=64)


class TestEncodeCommands:
    def test_get(self):
        assert encode_command(Command("get", keys=("a", "b"))) == b"get a b\r\n"

    def test_set(self):
        out = encode_command(Command("set", keys=("k",), flags=1, data=b"xyz"))
        assert out == b"set k 1 0 3\r\nxyz\r\n"

    def test_cas(self):
        out = encode_command(Command("cas", keys=("k",), data=b"v", cas=7))
        assert out == b"cas k 0 0 1 7\r\nv\r\n"

    def test_cas_without_id_rejected(self):
        with pytest.raises(ProtocolError):
            encode_command(Command("cas", keys=("k",), data=b"v"))

    def test_delete_noreply(self):
        out = encode_command(Command("delete", keys=("k",), noreply=True))
        assert out == b"delete k noreply\r\n"

    def test_empty_get_rejected(self):
        with pytest.raises(ProtocolError):
            encode_command(Command("get", keys=()))

    def test_bad_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode_command(Command("get", keys=("has space",)))
        with pytest.raises(ProtocolError):
            encode_command(Command("get", keys=("x" * 300,)))

    def test_unknown_command(self):
        with pytest.raises(ProtocolError):
            encode_command(Command("frobnicate"))


class TestParseCommands:
    def test_pipelined(self):
        data = b"get a\r\nset b 0 0 2\r\nhi\r\ndelete c\r\n"
        cmds, tail = parse_command_stream(data)
        assert [c.name for c in cmds] == ["get", "set", "delete"]
        assert cmds[1].data == b"hi"
        assert tail == b""

    def test_partial_line_returned_as_tail(self):
        cmds, tail = parse_command_stream(b"get a\r\nget b")
        assert len(cmds) == 1
        assert tail == b"get b"

    def test_partial_data_block(self):
        cmds, tail = parse_command_stream(b"set k 0 0 10\r\nhal")
        assert cmds == []
        assert tail.startswith(b"set")

    def test_binary_safe_payload(self):
        payload = b"\x00\xff\r\nbinary"
        wire = encode_command(Command("set", keys=("k",), data=payload))
        [cmd], tail = parse_command_stream(wire)
        assert cmd.data == payload and tail == b""

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_stream(b"bogus x\r\n")

    def test_get_without_keys_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_stream(b"get\r\n")

    def test_negative_length_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_stream(b"set k 0 0 -1\r\n\r\n")

    def test_unterminated_data_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_stream(b"set k 0 0 2\r\nhixx\r\n")


class TestResponses:
    def test_values_roundtrip(self):
        wire = format_values([("a", 1, b"v1", 5), ("b", 0, b"", 6)], with_cas=True)
        resp, rest = parse_response(wire)
        assert rest == b""
        assert resp.status == "END"
        assert resp.values["a"] == (1, b"v1", 5)
        assert resp.values["b"] == (0, b"", 6)

    def test_status_lines(self):
        for status in ("STORED", "NOT_FOUND", "DELETED", "OK"):
            resp, rest = parse_response(format_status(status))
            assert resp.status == status and rest == b""

    def test_stats_roundtrip(self):
        wire = format_stats({"cmd_get": 5, "bytes": 100})
        resp, _ = parse_response(wire)
        assert resp.stats == {"cmd_get": "5", "bytes": "100"}

    def test_incomplete_raises_incomplete(self):
        with pytest.raises(IncompleteResponse):
            parse_response(b"VALUE a 0 10\r\nhal")
        with pytest.raises(IncompleteResponse):
            parse_response(b"STOR")

    def test_trailing_bytes_preserved(self):
        wire = format_status("STORED") + b"EXTRA"
        resp, rest = parse_response(wire)
        assert rest == b"EXTRA"

    def test_malformed_value_line(self):
        with pytest.raises(ProtocolError):
            parse_response(b"VALUE onlykey\r\n")

    def test_unexpected_line(self):
        with pytest.raises(ProtocolError):
            parse_response(b"WHAT\r\n")


# ---------------------------------------------------------------------------
# roundtrip properties: client encoding == server parsing
# ---------------------------------------------------------------------------


@given(st.lists(keys, min_size=1, max_size=8, unique=True))
def test_get_roundtrip_property(key_list):
    wire = encode_command(Command("get", keys=tuple(key_list)))
    [cmd], tail = parse_command_stream(wire)
    assert tail == b""
    assert cmd.name == "get"
    assert list(cmd.keys) == key_list


@given(keys, payloads, st.integers(0, 2**16), st.booleans())
def test_set_roundtrip_property(key, payload, flags, noreply):
    wire = encode_command(
        Command("set", keys=(key,), flags=flags, data=payload, noreply=noreply)
    )
    [cmd], tail = parse_command_stream(wire)
    assert tail == b""
    assert cmd.keys == (key,)
    assert cmd.data == payload
    assert cmd.flags == flags
    assert cmd.noreply == noreply


@given(st.lists(st.tuples(keys, payloads), min_size=0, max_size=5, unique_by=lambda t: t[0]))
def test_values_roundtrip_property(items):
    wire = format_values(
        [(k, 0, v, i) for i, (k, v) in enumerate(items)], with_cas=True
    )
    resp, rest = parse_response(wire)
    assert rest == b""
    assert len(resp.values) == len(items)
    for i, (k, v) in enumerate(items):
        assert resp.values[k] == (0, v, i)


class TestKeyValidation:
    """The compiled key check rejects exactly what a per-character scan would:
    controls, DEL, and every character a server's ``str.split()`` splits a line on."""

    @staticmethod
    def oracle_rejects(key: str) -> bool:
        return (
            not key
            or len(key) > MAX_KEY_LEN
            or any(c <= " " or c == "\x7f" or c.isspace() for c in key)
        )

    def rejects(self, key: str) -> bool:
        try:
            encode_command(Command("get", keys=(key,)))
        except ProtocolError:
            return True
        return False

    def test_every_code_point_below_0x100(self):
        for cp in range(0x100):
            for key in (chr(cp), "a" + chr(cp), chr(cp) + "z", "a" + chr(cp) + "z"):
                assert self.rejects(key) == self.oracle_rejects(key), repr(key)

    def test_length_limits(self):
        for key in ("", "k" * MAX_KEY_LEN, "k" * (MAX_KEY_LEN + 1), "é" * MAX_KEY_LEN):
            assert self.rejects(key) == self.oracle_rejects(key), repr(key)

    @given(st.text(max_size=MAX_KEY_LEN + 5))
    def test_sampled_unicode_keys(self, key):
        assert self.rejects(key) == self.oracle_rejects(key)

    def test_no_accepted_key_is_torn_by_the_servers_tokeniser(self):
        # U+0085, U+00A0, U+2028 ... passed the old check and split() tore them:
        # a get of "a\u00a0b" answered with the values of "a" and "b"
        for cp in range(0x3100):
            key = f"a{chr(cp)}b"
            if not self.rejects(key):
                [cmd], _ = parse_command_stream(encode_command(Command("get", keys=(key,))))
                assert cmd.keys == (key,), repr(key)

    @given(st.lists(st.text(max_size=6) | st.just("k" * (MAX_KEY_LEN + 1)), max_size=5))
    def test_validate_keys_is_the_per_key_check(self, keys):
        # the clients' edge check: same verdict, same first culprit, as key by key
        bad = next((k for k in keys if self.rejects(k)), None)
        if bad is None:
            assert validate_keys(keys) == " ".join(keys)
            return
        with pytest.raises(ProtocolError) as whole:
            validate_keys(keys)
        with pytest.raises(ProtocolError) as first:
            encode_command(Command("get", keys=(bad,)))
        assert str(whole.value) == str(first.value)
