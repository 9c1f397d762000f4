"""Tests for the loopback transport and the blocking socket connection."""

from __future__ import annotations

import pytest

from repro.aio.server import serve_aio
from repro.aio.transport import BlockingConnection
from repro.errors import ProtocolError
from repro.protocol.codec import Command, encode_command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport


class TestLoopback:
    def test_single_exchange(self):
        t = LoopbackTransport(MemcachedServer())
        [resp] = t.exchange(encode_command(Command("get", keys=("x",))))
        assert resp.status == "END"

    def test_pipelined_exchange(self):
        t = LoopbackTransport(MemcachedServer())
        req = encode_command(Command("set", keys=("a",), data=b"1")) + encode_command(
            Command("get", keys=("a",))
        )
        stored, got = t.exchange(req, n_responses=2)
        assert stored.status == "STORED"
        assert got.values == {"a": b"1"}

    def test_trailing_bytes_rejected(self):
        t = LoopbackTransport(MemcachedServer())
        req = encode_command(Command("get", keys=("a",))) + encode_command(
            Command("get", keys=("b",))
        )
        with pytest.raises(ProtocolError):
            t.exchange(req, n_responses=1)

    def test_close_is_noop(self):
        LoopbackTransport(MemcachedServer()).close()


class TestTCP:
    @pytest.fixture()
    def live_server(self):
        backend = MemcachedServer()
        handle, (host, port) = serve_aio(backend)
        yield backend, host, port
        handle.stop()

    def test_roundtrip_over_socket(self, live_server):
        _, host, port = live_server
        t = BlockingConnection(host, port)
        try:
            [resp] = t.exchange(encode_command(Command("set", keys=("k",), data=b"v")))
            assert resp.status == "STORED"
            [resp] = t.exchange(encode_command(Command("get", keys=("k",))))
            assert resp.values == {"k": b"v"}
        finally:
            t.close()

    def test_two_connections_share_state(self, live_server):
        _, host, port = live_server
        t1, t2 = BlockingConnection(host, port), BlockingConnection(host, port)
        try:
            t1.exchange(encode_command(Command("set", keys=("shared",), data=b"x")))
            [resp] = t2.exchange(encode_command(Command("get", keys=("shared",))))
            assert "shared" in resp.values
        finally:
            t1.close()
            t2.close()

    def test_large_value_chunked(self, live_server):
        _, host, port = live_server
        t = BlockingConnection(host, port)
        payload = b"z" * 200_000  # larger than one recv buffer
        try:
            [resp] = t.exchange(
                encode_command(Command("set", keys=("big",), data=payload))
            )
            assert resp.status == "STORED"
            [resp] = t.exchange(encode_command(Command("get", keys=("big",))))
            assert resp.values == {"big": payload}
        finally:
            t.close()
