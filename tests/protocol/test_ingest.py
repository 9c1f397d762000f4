"""Server ingest: ``CommandBuffer`` frames commands incrementally, and a data
block that spans many socket chunks is parsed once by the socket front."""

from __future__ import annotations

import pytest

from repro.aio.server import AsyncMemcachedServer, _Connection
from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import Command, CommandBuffer, encode_command, parse_command_stream
from repro.protocol.memserver import MemcachedServer

STREAM = (
    b"set alpha 5 0 12\r\nhello\r\nworld\r\n"
    b"\r\nget alpha beta\r\n"
    b"cas beta 0 0 0 7 noreply\r\n\r\n"
    b"append alpha 0 0 3\r\nabc\r\n"
    b"delete alpha\r\n"
    b"incr counter 1\r\n"
    b"version\r\n"
)


def fed(pieces) -> list[Command]:
    buf, out = CommandBuffer(), []
    for piece in pieces:
        buf.feed(piece)
        out.extend(buf.commands())
    assert buf.commands() == []  # nothing new: nothing parsed
    return out


class TestCommandBuffer:
    def test_any_chunking_yields_the_streams_commands(self):
        want, tail = parse_command_stream(STREAM)
        assert tail == b"" and len(want) == 7
        assert fed([STREAM]) == want
        for cut in range(1, len(STREAM)):
            assert fed([STREAM[:cut], STREAM[cut:]]) == want, f"split at byte {cut}"
        assert fed([STREAM[i : i + 1] for i in range(len(STREAM))]) == want
        assert fed([STREAM[i : i + 7] for i in range(0, len(STREAM), 7)]) == want

    def test_an_unfinished_command_stays_buffered(self):
        buf = CommandBuffer()
        buf.feed(b"get a\r\nset k 0 0 10\r\nhal")
        assert [cmd.name for cmd in buf.commands()] == ["get"]
        buf.feed(b"f of it\r")
        assert buf.commands() == []
        buf.feed(b"\nget b")
        [cmd] = buf.commands()
        assert (cmd.name, cmd.data) == ("set", b"half of it")
        buf.feed(b"\r\n")
        assert [cmd.keys for cmd in buf.commands()] == [("b",)]

    @pytest.mark.parametrize(
        "wire", [b"bogus x\r\n", b"set k 0 0 2\r\nhixx\r\n", b"set k 0 0 -1\r\n\r\n"]
    )
    def test_malformed_input_raises_as_the_parser_does(self, wire):
        buf = CommandBuffer()
        buf.feed(b"get a\r\nget")
        assert len(buf.commands()) == 1
        buf.feed(b" b\r\n" + wire)
        with pytest.raises(ProtocolError):
            buf.commands()


PAYLOAD = b"x" * (4 << 20)
CHUNK = 4096


@pytest.fixture
def parsed(monkeypatch) -> list[int]:
    """Sizes of the buffers handed to the command parser."""
    sizes: list[int] = []
    real = codec.parse_command_stream

    def counting(data):
        sizes.append(len(data))
        return real(data)

    monkeypatch.setattr(codec, "parse_command_stream", counting)
    return sizes


def chunks() -> list[bytes]:
    wire = encode_command(Command(name="set", keys=("big",), data=PAYLOAD)) + b"get big\r\n"
    return [wire[i : i + CHUNK] for i in range(0, len(wire), CHUNK)]


class _Sink:
    """A transport for the front: keeps what it is given to ``write``."""

    def __init__(self) -> None:
        self.out = bytearray()

    def write(self, data) -> None:
        self.out += data


STORED_THEN_VALUE = b"STORED\r\nVALUE big 0 %d\r\n%s\r\nEND\r\n" % (len(PAYLOAD), PAYLOAD)


class TestLinearIngest:
    """A 4 MiB ``set`` arriving in 4 KiB chunks: the parser sees its bytes at
    most twice (the parent re-parsed the backlog per chunk: ~512 times)."""

    def test_async_front(self, parsed):
        backend = MemcachedServer()
        conn = _Connection(AsyncMemcachedServer(backend))
        transport = _Sink()
        conn.connection_made(transport)
        for piece in chunks():
            conn.data_received(piece)
        assert bytes(transport.out) == STORED_THEN_VALUE
        assert sum(parsed) <= 2 * len(PAYLOAD)
