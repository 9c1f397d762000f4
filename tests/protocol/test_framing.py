"""Response framing: FrameBuffer vs the whole-buffer parser.

The framing layer must be behaviourally invisible: for any
way a pipelined response stream is sliced into TCP reads — including
splits inside a VALUE header, inside a payload, or mid-CRLF — the
FrameBuffer yields exactly the responses ``parse_response`` produces on
the whole buffer, with payloads equal byte for byte.
"""

from __future__ import annotations

import asyncio

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.server import serve_aio
from repro.aio.transport import AsyncConnection, BlockingConnection
from repro.protocol.codec import Command, FrameBuffer, encode_command, parse_response
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport

# A pipelined stream of four responses with adversarial payloads: empty,
# CRLF-only, and one embedding a spoofed "END\r\n" terminator.
WIRE = (
    b"VALUE a 0 3\r\nxyz\r\nVALUE b 5 2 77\r\nhi\r\nEND\r\n"
    b"STORED\r\n"
    b"VALUE empty 0 0\r\n\r\nVALUE crlf 0 4\r\n\r\n\r\n\r\nEND\r\n"
    b"VALUE trap 1 10\r\nEND\r\nyes\r\n\r\nEND\r\n"
)


def _legacy_parse_all(data: bytes):
    out = []
    rest = data
    while rest:
        resp, rest = parse_response(rest)
        out.append(resp)
    return out


def _normal(resp):
    """Comparable form."""
    return resp.status, resp.values, resp.stats


EXPECTED = [_normal(r) for r in _legacy_parse_all(WIRE)]


def _drain(frames: FrameBuffer):
    out = []
    while (resp := frames.next_response()) is not None:
        out.append(resp)
    return out


class TestFrameBuffer:
    def test_whole_stream_matches_legacy_parser(self):
        frames = FrameBuffer()
        frames.feed(WIRE)
        assert [_normal(r) for r in _drain(frames)] == EXPECTED
        assert len(frames) == 0

    def test_every_split_point_yields_identical_responses(self):
        # Split the wire into two "TCP reads" at every byte boundary: a
        # partial frame at the buffer edge must never change the result.
        for cut in range(len(WIRE) + 1):
            frames = FrameBuffer()
            got = []
            frames.feed(WIRE[:cut])
            got.extend(_drain(frames))
            frames.feed(WIRE[cut:])
            got.extend(_drain(frames))
            assert [_normal(r) for r in got] == EXPECTED, f"split at {cut}"
            assert len(frames) == 0

    def test_byte_at_a_time_feed(self):
        frames = FrameBuffer()
        got = []
        for i in range(len(WIRE)):
            frames.feed(WIRE[i : i + 1])
            got.extend(_drain(frames))
        assert [_normal(r) for r in got] == EXPECTED

    def test_incomplete_frame_returns_none_without_consuming(self):
        frames = FrameBuffer()
        frames.feed(b"VALUE a 0 5\r\nab")  # header complete, payload short
        assert frames.next_response() is None
        assert len(frames) == 15
        frames.feed(b"cde\r\nEND\r\n")
        resp = frames.next_response()
        assert bytes(resp.values["a"][1]) == b"abcde"
        assert resp.status == "END"

    def test_peek_and_clear(self):
        frames = FrameBuffer()
        frames.feed(b"VALUE a")
        frames.feed(b" 0 1\r\n")
        assert frames.peek(7) == b"VALUE a"
        assert len(frames) == 13
        frames.clear()
        assert len(frames) == 0
        assert frames.peek(10) == b""


class TestClientMaterialisation:
    def _conn(self):
        server = MemcachedServer()
        c = MemcachedConnection(LoopbackTransport(server))
        c.set("a", b"xyz")
        c.set("b", b"hi", flags=5)
        c.set("crlf", b"\r\n\r\n")
        return c

    def test_get_multi_defaults_to_bytes(self):
        c = self._conn()
        out = c.get_multi(["a", "b", "crlf", "nope"])
        assert out == {"a": b"xyz", "b": b"hi", "crlf": b"\r\n\r\n"}
        assert all(isinstance(v, bytes) for v in out.values())


class TestOverRealSockets:
    def test_tcp_transport_pipelined_multi_get(self):
        backend = MemcachedServer()
        handle, (host, port) = serve_aio(backend)
        try:
            transport = BlockingConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
            c = MemcachedConnection(transport)
            for i in range(20):
                c.set(f"k{i}", (b"v%d" % i) * (i + 1))
            out = c.get_multi([f"k{i}" for i in range(20)])
            assert out == {f"k{i}": (b"v%d" % i) * (i + 1) for i in range(20)}
            c.transport.close()
        finally:
            handle.stop()

    def test_every_payload_is_bytes(self):
        # every face hands out each payload as bytes: one carrying CRLFs and a
        # spoofed terminator, and one large enough to span several socket reads
        values = {"a": b"xyz", "crlf": b"\r\n\r\nEND\r\n", "big": bytes(range(256)) * 4096}
        keys = [*values, "nope"]

        def check(got: dict) -> None:
            got = {k: v[0] if isinstance(v, tuple) else v for k, v in got.items()}
            assert got == values
            assert all(type(v) is bytes for v in got.values())

        backend = MemcachedServer()
        for key, value in values.items():
            backend.execute(Command(name="set", keys=(key,), data=value))
        request = encode_command(Command(name="get", keys=tuple(keys)))
        wire = backend.handle(request)
        frames = FrameBuffer()
        frames.feed(wire[:40])  # a split inside the "crlf" block
        assert frames.next_response() is None
        frames.feed(wire[40:])
        check({k: v[1] for k, v in frames.next_response().values.items()})
        loopback = LoopbackTransport(backend)
        [resp] = loopback.exchange(request)
        check({k: v[1] for k, v in resp.values.items()})

        handle, (host, port) = serve_aio(backend)
        blocking = BlockingConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
        try:
            for transport in (loopback, blocking):
                conn = MemcachedConnection(transport)
                check(conn.get_multi(keys))
                check(conn.get_multi(keys, with_cas=True))

            async def scenario():
                conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
                reads = []
                received = conn.data_received
                conn.data_received = lambda data: (reads.append(data), received(data))
                client = AsyncMemcachedClient(conn)
                try:
                    check(await client.get_multi(keys))
                    assert len(reads) > 1
                    check(await client.get_multi(keys, with_cas=True))
                    assert await client.get("crlf") == values["crlf"]
                finally:
                    conn.close()

            asyncio.run(scenario())
        finally:
            blocking.close()
            handle.stop()
