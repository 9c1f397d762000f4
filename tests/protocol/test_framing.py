"""Zero-copy response framing: FrameBuffer vs the legacy bytes parser.

The memoryview framing layer must be behaviourally invisible: for any
way a pipelined response stream is sliced into TCP reads — including
splits inside a VALUE header, inside a payload, or mid-CRLF — the
FrameBuffer yields exactly the responses ``parse_response`` produces on
the whole buffer, with payloads equal byte for byte.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.server import serve_aio
from repro.aio.transport import AsyncConnection, BlockingConnection
from repro.protocol.codec import FrameBuffer, parse_response
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
    """Comparable form: materialise payload views to bytes."""
    return (
        resp.status,
        {k: (f, bytes(d), c) for k, (f, d, c) in resp.values.items()},
        resp.stats,
    )


EXPECTED = [_normal(r) for r in _legacy_parse_all(WIRE)]


def _drain(frames: FrameBuffer, **kwargs):
    out = []
    while (resp := frames.next_response(**kwargs)) is not None:
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

    def test_zero_copy_payloads_are_views_and_stay_valid(self):
        frames = FrameBuffer()
        frames.feed(WIRE)
        resp = frames.next_response()
        payload = resp.values["a"][1]
        assert isinstance(payload, memoryview)
        # drain and reuse the buffer: views alias an immutable snapshot,
        # so earlier payloads must survive later feeds/parses
        _drain(frames)
        frames.feed(b"STORED\r\n")
        assert frames.next_response().status == "STORED"
        assert bytes(payload) == b"xyz"

    def test_zero_copy_off_gives_bytes(self):
        frames = FrameBuffer()
        frames.feed(WIRE)
        resp = frames.next_response(zero_copy=False)
        assert isinstance(resp.values["a"][1], bytes)
        assert resp.values["b"] == (5, b"hi", 77)

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

    def test_get_multi_raw_views_equal_bytes(self):
        c = self._conn()
        raw = c.get_multi(["a", "b", "crlf"], raw=True)
        assert {k: bytes(v) for k, v in raw.items()} == {
            "a": b"xyz",
            "b": b"hi",
            "crlf": b"\r\n\r\n",
        }

    def test_get_multi_with_cas_raw_and_default(self):
        c = self._conn()
        default = c.get_multi(["a", "b"], with_cas=True)
        raw = c.get_multi(["a", "b"], with_cas=True, raw=True)
        for key in ("a", "b"):
            value, cas = default[key]
            raw_value, raw_cas = raw[key]
            assert isinstance(value, bytes)
            assert bytes(raw_value) == value
            assert raw_cas == cas


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

    def test_async_client_raw_parity(self):
        backend = MemcachedServer()
        handle, (host, port) = serve_aio(backend)
        try:

            async def scenario():
                conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
                client = AsyncMemcachedClient(conn)
                try:
                    for i in range(10):
                        await client.set(f"k{i}", b"payload-%d" % i)
                    default = await client.get_multi([f"k{i}" for i in range(10)])
                    raw = await client.get_multi(
                        [f"k{i}" for i in range(10)], raw=True
                    )
                    assert default == {
                        f"k{i}": b"payload-%d" % i for i in range(10)
                    }
                    assert {k: bytes(v) for k, v in raw.items()} == default
                    with_cas = await client.get_multi(["k0"], with_cas=True)
                    value, cas = with_cas["k0"]
                    assert isinstance(value, bytes) and cas is not None
                finally:
                    conn.close()

            asyncio.run(scenario())
        finally:
            handle.stop()
