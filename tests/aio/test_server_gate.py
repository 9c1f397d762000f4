"""Async server partition gate: refuse connections while the link is cut."""

from __future__ import annotations

import asyncio

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnection
from repro.errors import ProtocolError, ServerTimeout
from repro.protocol.memserver import MemcachedServer

#: what a client sees talking across a cut link: refused, dropped mid-
#: response, or hung until the deadline
CUT_ERRORS = (
    ConnectionError,
    OSError,
    asyncio.IncompleteReadError,
    ProtocolError,
    ServerTimeout,
)


def run(coro):
    return asyncio.run(coro)


class TestConnectionGate:
    def test_cut_gate_refuses_new_connections(self):
        async def scenario():
            server = AsyncMemcachedServer(MemcachedServer(), gate=lambda: True)
            host, port = await server.start()
            try:
                conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
                client = AsyncMemcachedClient(conn)
                try:
                    await client.get("k")
                except CUT_ERRORS:
                    pass
                else:  # pragma: no cover - the cut must surface
                    raise AssertionError("gated server served a request")
                finally:
                    conn.close()
            finally:
                await server.stop()
            assert server.connections_refused >= 1
            assert server.connections_accepted == 0

        run(scenario())

    def test_open_gate_serves_normally(self):
        async def scenario():
            server = AsyncMemcachedServer(MemcachedServer(), gate=lambda: False)
            host, port = await server.start()
            conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
            client = AsyncMemcachedClient(conn)
            try:
                assert await client.set("k", b"v")
                assert await client.get("k") == b"v"
            finally:
                conn.close()
                await server.stop()
            assert server.connections_refused == 0
            assert server.connections_accepted == 1

        run(scenario())

    def test_no_gate_is_the_default_path(self):
        async def scenario():
            server = AsyncMemcachedServer(MemcachedServer())
            host, port = await server.start()
            conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
            client = AsyncMemcachedClient(conn)
            try:
                assert await client.set("k", b"v")
            finally:
                conn.close()
                await server.stop()
            assert server.connections_refused == 0

        run(scenario())

    def test_mid_connection_cut_drops_established_sessions(self):
        async def scenario():
            cut = {"on": False}
            server = AsyncMemcachedServer(MemcachedServer(), gate=lambda: cut["on"])
            host, port = await server.start()
            conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
            client = AsyncMemcachedClient(conn)
            try:
                assert await client.set("k", b"v")  # session established
                cut["on"] = True  # the link goes down mid-session
                # a request already in flight past the gate check may
                # still be answered; the gate then closes the session,
                # so the *next* request deterministically fails
                try:
                    await client.get("k")
                except CUT_ERRORS:
                    pass
                try:
                    await client.get("k")
                except CUT_ERRORS:
                    pass
                else:  # pragma: no cover
                    raise AssertionError("request crossed a cut link")
            finally:
                conn.close()
                await server.stop()
            assert server.connections_refused >= 1

        run(scenario())


class TestGateOnTheWire:
    """What a raw peer sees, byte for byte, and what the counters say."""

    def test_refused_at_accept_dropped_before_the_next_batch_without_a_reply(self):
        async def scenario():
            cut = {"on": True}
            server = AsyncMemcachedServer(MemcachedServer(), gate=lambda: cut["on"])
            host, port = await server.start()
            try:
                # cut at accept: the connection is closed, nothing is served
                reader, writer = await asyncio.open_connection(host, port)
                assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
                writer.close()
                assert (server.connections_accepted, server.connections_refused) == (0, 1)

                cut["on"] = False
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"version\r\n")
                assert (await reader.readline()).startswith(b"VERSION")
                assert (server.connections_accepted, server.connections_refused) == (1, 1)

                # cut mid-connection: the next batch is dropped, not answered
                cut["on"] = True
                writer.write(b"version\r\n")
                assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
                writer.close()
                assert (server.connections_accepted, server.connections_refused) == (1, 2)
            finally:
                await server.stop()

        run(scenario())
