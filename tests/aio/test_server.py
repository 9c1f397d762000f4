"""Async server front: shared backend, pipelining, BUSY verdicts."""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.server import AsyncMemcachedServer, serve_aio
from repro.aio.transport import AsyncConnection, BlockingConnection
from repro.overload.load import AdmissionControl
from repro.protocol.codec import Command
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport


def run(coro):
    return asyncio.run(coro)


class TestSharedBackend:
    def test_two_fronts_and_loopback_serve_one_store(self):
        backend = MemcachedServer()
        first, (h1, p1) = serve_aio(backend)
        second, (h2, p2) = serve_aio(backend)
        try:
            transport = BlockingConnection(h1, p1, connect_timeout=2.0, read_timeout=2.0)
            sync_client = MemcachedConnection(transport)
            sync_client.set("via-first", b"1")

            async def via_second():
                conn = AsyncConnection(h2, p2, connect_timeout=2.0, read_timeout=2.0)
                client = AsyncMemcachedClient(conn)
                try:
                    # the second front reads what the first one wrote
                    assert await client.get("via-first") == b"1"
                    assert await client.set("via-second", b"2")
                finally:
                    conn.close()

            run(via_second())
            # ... and vice versa, and an in-process caller shares the store
            assert sync_client.get("via-second") == b"2"
            loopback = MemcachedConnection(LoopbackTransport(backend))
            assert loopback.get("via-first") == b"1"
            loopback.set("via-loopback", b"3")
            assert sync_client.get("via-loopback") == b"3"
            sync_client.transport.close()
        finally:
            first.stop()
            second.stop()


class TestProtocol:
    def test_pipelined_burst_answers_in_order(self):
        # raw socket: write many commands before reading anything
        backend = MemcachedServer()
        handle, (host, port) = serve_aio(backend)
        try:
            with socket.create_connection((host, port), timeout=2.0) as sock:
                burst = b"".join(
                    b"set b%03d 0 0 2\r\nv%1d\r\n" % (i, i) for i in range(10)
                )
                burst += b"get b000 b005 b009\r\n"
                sock.sendall(burst)
                sock.settimeout(2.0)
                data = b""
                while data.count(b"STORED\r\n") < 10 or b"END\r\n" not in data:
                    data += sock.recv(65536)
            # responses in request order: 10 STOREDs then the get
            assert data.startswith(b"STORED\r\n" * 10)
            assert b"VALUE b000" in data and b"VALUE b009" in data
        finally:
            handle.stop()

    def test_malformed_input_answers_error_and_closes(self):
        handle, (host, port) = serve_aio(MemcachedServer())
        try:
            with socket.create_connection((host, port), timeout=2.0) as sock:
                sock.sendall(b"gibberish nonsense\r\n")
                sock.settimeout(2.0)
                assert sock.recv(65536) == b"ERROR\r\n"
                assert sock.recv(65536) == b""  # server closed the connection
        finally:
            handle.stop()


class TestAdmission:
    def test_busy_verdict_surfaces_through_the_async_front(self):
        gate = AdmissionControl(queue_limit=1)
        gate.outstanding = 1  # permanently full
        backend = MemcachedServer(admission=gate)

        async def scenario():
            server = AsyncMemcachedServer(backend)
            host, port = await server.start()
            conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
            client = AsyncMemcachedClient(conn)
            try:
                from repro.errors import ServerBusy

                with pytest.raises(ServerBusy):
                    await client.get("anything")
            finally:
                conn.close()
                await server.stop()

        run(scenario())

    def test_port_zero_picks_a_free_port_per_server(self):
        async def scenario():
            servers = [AsyncMemcachedServer(MemcachedServer()) for _ in range(3)]
            addrs = [await s.start() for s in servers]
            ports = {p for _, p in addrs}
            for s in servers:
                await s.stop()
            assert len(ports) == 3

        run(scenario())


class TestStatsMetricsVerb:
    def test_async_front_serves_the_obs_catalog(self):
        # `stats metrics` delegates to the shared backend, so the front
        # exports the same telemetry an in-process caller reads
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("rnb_requests_total", path="aio", outcome="ok").inc()
        backend = MemcachedServer(name="a0", metrics=registry)
        handle, (host, port) = serve_aio(backend)
        try:

            async def scrape():
                conn = AsyncConnection(host, port, connect_timeout=2.0, read_timeout=2.0)
                client = AsyncMemcachedClient(conn)
                try:
                    await client.set("k", b"v")
                    return await client.stats("metrics")
                finally:
                    conn.close()

            stats = run(scrape())
            assert stats['rnb_requests_total{outcome="ok",path="aio"}'] == "1"
            assert stats['rnb_cache_cmd_set_total{server="a0"}'] == "1"
        finally:
            handle.stop()


class TestReadBackpressure:
    def test_unread_pipeline_pauses_reading_then_answers_in_order(self):
        # 10 000 pipelined gets (~80 MB of responses) from a peer that does
        # not read: the server must stop executing once responses back up,
        # not buffer them all, and answer everything in order afterwards
        n_gets, value = 10_000, b"v" * 8192
        backend = MemcachedServer()
        for i in range(10):
            backend.execute(Command(name="set", keys=(f"k{i}",), data=value))
        record = len(b"VALUE k0 0 8192\r\n") + len(value) + len(b"\r\nEND\r\n")
        handle, (host, port) = serve_aio(backend)
        sock = socket.socket()
        # clamp what the kernel can hold on the peer's side of the loopback
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sock.settimeout(10.0)

        backed_up = threading.Event()
        batch = b"".join(b"get k%d\r\n" % i for i in range(10)) * 5  # 50 gets, k0..k9 cycling

        def pipeline():
            # one small batch at a time, until the server stops taking them
            for base in range(0, n_gets, 50):
                sock.sendall(batch)
                sent_at = time.monotonic()
                while not backed_up.is_set() and backend.stats["cmd_get"] < base + 50:
                    if time.monotonic() - sent_at > 0.5:
                        backed_up.set()
                    time.sleep(0.001)
            backed_up.set()

        sender = threading.Thread(target=pipeline, daemon=True)
        try:
            sock.connect((host, port))
            sender.start()
            assert backed_up.wait(timeout=30)
            # reading is paused: kernel buffers (a few MB) plus the front's
            # high-water mark bound what was executed, far below the burst
            assert backend.stats["cmd_get"] < n_gets // 2
            for i in range(n_gets):
                data = bytearray()
                while len(data) < record:
                    chunk = sock.recv(record - len(data))
                    assert chunk, f"server hung up in response {i}"
                    data += chunk
                assert data.startswith(b"VALUE k%d 0 8192\r\n" % (i % 10))
                assert data.endswith(b"\r\nEND\r\n")
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert backend.stats["cmd_get"] == n_gets
        finally:
            sock.close()
            handle.stop()


class TestFraming:
    STREAM = (
        b"set alpha 5 0 12\r\nhello\r\nworld\r\n"
        b"get alpha beta\r\n"
        b"set beta 0 0 0 noreply\r\n\r\n"
        b"gets beta alpha\r\n"
        b"delete alpha\r\n"
        b"incr counter 1\r\n"
        b"version\r\n"
    )

    def test_split_at_every_byte_boundary_answers_identically(self):
        async def answer(pieces: list[bytes]) -> bytes:
            server = AsyncMemcachedServer(MemcachedServer())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for piece in pieces:
                    writer.write(piece)
                    # the server (same loop) consumes this piece in a
                    # data_received call of its own before the next is sent
                    await asyncio.sleep(0.001)
                data = b""
                while b"VERSION" not in data or not data.endswith(b"\r\n"):
                    chunk = await asyncio.wait_for(reader.read(65536), timeout=2.0)
                    assert chunk, f"server hung up after {data!r}"
                    data += chunk
                return data
            finally:
                writer.close()
                await server.stop()

        async def scenario():
            whole = await answer([self.STREAM])
            assert whole.startswith(b"STORED\r\nVALUE alpha 5 12\r\nhello\r\nworld\r\nEND\r\n")
            for cut in range(1, len(self.STREAM)):
                split = await answer([self.STREAM[:cut], self.STREAM[cut:]])
                assert split == whole, f"split at byte {cut}"
            drip = await answer([self.STREAM[i : i + 1] for i in range(len(self.STREAM))])
            assert drip == whole

        run(scenario())


class TestStart:
    def test_a_taken_port_raises_the_bind_error_at_once(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            began = time.monotonic()
            with pytest.raises(OSError):
                serve_aio(MemcachedServer(), port=taken.getsockname()[1])
            assert time.monotonic() - began < 1.0


class TestStop:
    def test_stop_does_not_wait_for_an_idle_client_to_hang_up(self):
        # Server.wait_closed() waits for open connections from Python 3.12
        # on; stop() must close them itself, whatever the version
        async def scenario():
            server = AsyncMemcachedServer(MemcachedServer())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"version\r\n")
                assert (await reader.readline()).startswith(b"VERSION")
                await asyncio.wait_for(server.stop(), timeout=1.0)
                # the idle client sees EOF (or a reset), never a hang
                try:
                    assert await asyncio.wait_for(reader.read(), timeout=1.0) == b""
                except ConnectionError:
                    pass
            finally:
                writer.close()

        run(scenario())

    def test_handle_stop_with_a_connected_client_joins_the_thread(self):
        handle, (host, port) = serve_aio(MemcachedServer())
        with socket.create_connection((host, port), timeout=2.0) as sock:
            sock.sendall(b"version\r\n")
            assert sock.recv(64).startswith(b"VERSION")
            began = time.monotonic()
            handle.stop()
            assert time.monotonic() - began < 1.0
            assert not handle._thread.is_alive()
            sock.settimeout(1.0)
            try:
                assert sock.recv(64) == b""
            except ConnectionError:
                pass
