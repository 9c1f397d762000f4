"""Pipelined async transport: FIFO ordering, timeouts, pool balance."""

from __future__ import annotations

import asyncio
import socket
import sys
import threading

import pytest

from repro.aio.server import AsyncMemcachedServer, serve_aio
from repro.aio.transport import AsyncConnection, AsyncConnectionPool, BlockingConnection
from repro.errors import ServerTimeout
from repro.protocol.codec import Command, encode_command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RETRYABLE_ERRORS, RetryPolicy

from tests.aio.test_rnbclient import counting


def run(coro):
    return asyncio.run(coro)


async def _with_server(fn):
    backend = MemcachedServer()
    server = AsyncMemcachedServer(backend)
    host, port = await server.start()
    try:
        return await fn(backend, host, port)
    finally:
        await server.stop()


class TestPipelining:
    def test_many_exchanges_one_connection_preserve_ordering(self):
        async def scenario(backend, host, port):
            for i in range(64):
                backend.execute(
                    Command(name="set", keys=(f"k{i}",), data=f"v{i}".encode())
                )
            conn = AsyncConnection(host, port)
            try:
                reqs = [
                    conn.exchange(encode_command(Command(name="get", keys=(f"k{i}",))))
                    for i in range(64)
                ]
                replies = await asyncio.gather(*reqs)
            finally:
                conn.close()
            assert len(conn._pending) == 0
            return replies

        replies = run(_with_server(scenario))
        # every caller got ITS response, not a neighbour's
        for i, [resp] in enumerate(replies):
            assert resp.values == {f"k{i}": f"v{i}".encode()}

    def test_concurrent_first_use_creates_one_socket(self):
        # racing first exchanges must share ONE socket + read loop, not
        # each open their own (the connect lock's reason to exist)
        async def scenario():
            server = AsyncMemcachedServer(MemcachedServer())
            host, port = await server.start()
            conn = AsyncConnection(host, port)
            try:
                await asyncio.gather(
                    *(
                        conn.exchange(
                            encode_command(
                                Command(name="set", keys=(f"x{i}",), data=b"v")
                            )
                        )
                        for i in range(20)
                    )
                )
                assert server.connections_accepted == 1
                assert conn.exchanges == 20
            finally:
                conn.close()
                await server.stop()

        run(scenario())


class TestTimeoutParity:
    """The connect/read split: an explicit per-phase keyword beats the policy."""

    def test_policy_is_the_default_source(self):
        policy = RetryPolicy(connect_timeout=3.5, request_timeout=7.5)
        conn = AsyncConnection("127.0.0.1", 1, policy=policy)
        assert conn.connect_timeout == 3.5
        assert conn.read_timeout == 7.5

    def test_pool_propagates_the_split(self):
        policy = RetryPolicy(connect_timeout=3.5, request_timeout=7.5)
        pool = AsyncConnectionPool(
            "127.0.0.1", 1, policy=policy, connect_timeout=0.5, read_timeout=2.0
        )
        conn = pool._pick_connection()
        assert conn.connect_timeout == 0.5
        assert conn.read_timeout == 2.0


class TestReadTimeout:
    def test_silent_server_raises_server_timeout_and_tears_down(self):
        async def scenario():
            async def mute(reader, writer):
                await reader.read(65536)  # swallow the request, answer nothing

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            conn = AsyncConnection(host, port, read_timeout=0.1)
            try:
                with pytest.raises(ServerTimeout):
                    await conn.exchange(
                        encode_command(Command(name="get", keys=("k",)))
                    )
                assert not conn.connected  # FIFO desync prevention
            finally:
                conn.close()
                server.close()
                await server.wait_closed()

        run(scenario())


class TestPool:
    def test_grows_lazily_and_balances_by_in_flight(self):
        async def scenario(backend, host, port):
            pool = AsyncConnectionPool(host, port, size=3)
            try:
                await asyncio.gather(
                    *(
                        pool.exchange(
                            encode_command(
                                Command(name="set", keys=(f"p{i}",), data=b"v")
                            )
                        )
                        for i in range(30)
                    )
                )
                n_conns = len(pool.connections)
                total = sum(c.exchanges for c in pool.connections)
            finally:
                pool.close()
            assert 1 <= n_conns <= 3
            assert total == 30

        run(_with_server(scenario))

    def test_size_validated(self):
        with pytest.raises(ValueError):
            AsyncConnectionPool("127.0.0.1", 1, size=0)


GET_K = encode_command(Command(name="get", keys=("k",)))


class TestReadTimeoutSiblings:
    def test_head_times_out_siblings_fail_next_exchange_reconnects(self):
        async def scenario():
            writers = []

            async def first_connection_mute(reader, writer):
                writers.append(writer)
                mute = len(writers) == 1
                while await reader.readline():
                    if not mute:
                        writer.write(b"END\r\n")

            server = await asyncio.start_server(first_connection_mute, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            conn = AsyncConnection(host, port, read_timeout=0.2)
            try:
                head = asyncio.ensure_future(conn.exchange(GET_K))
                await asyncio.sleep(0.05)  # the siblings' own deadlines are later
                siblings = [asyncio.ensure_future(conn.exchange(GET_K)) for _ in range(2)]
                with pytest.raises(ServerTimeout):
                    await head
                for sibling in siblings:
                    with pytest.raises(ConnectionError):
                        await sibling
                assert not conn.connected
                assert conn.in_flight == 0
                [resp] = await conn.exchange(GET_K)  # lazily reconnects
                assert resp.status == "END"
                assert conn.connected and len(writers) == 2
            finally:
                conn.close()
                for writer in writers:
                    writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_pipelined_exchanges_share_one_timer(self):
        # the read timeout is ONE watchdog per connection, not a timer per
        # exchange: 1 000 pipelined exchanges arm O(1) loop timers
        async def scenario(backend, host, port):
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(host, port)
            await conn.ensure_connected()
            armed = 0
            real_call_at = loop.call_at

            def counting_call_at(*args, **kwargs):  # call_later lands here too
                nonlocal armed
                armed += 1
                return real_call_at(*args, **kwargs)

            loop.call_at = counting_call_at
            try:
                replies = await asyncio.gather(*(conn.exchange(GET_K) for _ in range(1000)))
            finally:
                del loop.call_at
                conn.close()
            assert len(replies) == 1000
            assert armed <= 2

        run(_with_server(scenario))


class TestCancellation:
    def test_cancelled_exchange_does_not_desync_the_fifo(self):
        async def scenario(backend, host, port):
            for key in ("a", "b"):
                backend.execute(Command(name="set", keys=(key,), data=key.encode()))
            conn = AsyncConnection(host, port)
            try:
                await conn.ensure_connected()
                doomed = asyncio.ensure_future(
                    conn.exchange(encode_command(Command(name="get", keys=("a",))))
                )
                await asyncio.sleep(0)  # request written, response not yet read
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                # a's late response is consumed and dropped, not handed to b
                [resp] = await conn.exchange(encode_command(Command(name="get", keys=("b",))))
                assert list(resp.values) == ["b"]
                assert conn.connected and conn.in_flight == 0
            finally:
                conn.close()

        run(_with_server(scenario))


class TestInFlight:
    def test_cancelled_callers_still_count_until_their_responses_arrive(self):
        # in_flight is what the peer still owes, not who is still waiting: a
        # connection backed up behind cancelled callers must not look idle to
        # the pool's least-loaded pick
        async def scenario():
            release = asyncio.Event()

            async def held(reader, writer):
                try:
                    while await reader.readline():
                        await release.wait()
                        writer.write(b"END\r\n")
                finally:
                    writer.close()

            server = await asyncio.start_server(held, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            pool = AsyncConnectionPool(host, port, size=2, read_timeout=30)
            try:
                first = asyncio.ensure_future(pool.exchange(GET_K))
                await asyncio.sleep(0.05)
                second = asyncio.ensure_future(pool.exchange(GET_K))  # opens the other socket
                await asyncio.sleep(0.05)
                backed_up, other = pool.connections
                doomed = [asyncio.ensure_future(backed_up.exchange(GET_K)) for _ in range(5)]
                third = asyncio.ensure_future(other.exchange(GET_K))
                await asyncio.sleep(0.05)
                for task in doomed:
                    task.cancel()
                await asyncio.gather(*doomed, return_exceptions=True)
                assert backed_up.in_flight == 6  # 1 waiting + 5 cancelled, all owed
                assert other.in_flight == 2
                routed = asyncio.ensure_future(pool.exchange(GET_K))
                await asyncio.sleep(0.05)
                assert (backed_up.exchanges, other.exchanges) == (6, 3)
                release.set()
                for task in (first, second, third, routed):
                    [resp] = await task
                    assert resp.status == "END"
                assert backed_up.in_flight == other.in_flight == 0
            finally:
                release.set()
                pool.close()
                server.close()
                await server.wait_closed()

        run(scenario())


class TestWriteBackpressure:
    def test_burst_against_slow_reader_waits_instead_of_buffering(self):
        n_sets, size = 48, 256 * 1024
        request = encode_command(Command(name="set", keys=("big",), data=b"x" * size))
        listener = socket.socket()
        # a small receive buffer: the peer's kernel cannot absorb the burst
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        start_reading = threading.Event()

        def slow_peer():
            sock, _ = listener.accept()
            with sock:
                start_reading.wait(timeout=30)
                for _ in range(n_sets):
                    left = len(request)
                    while left:
                        left -= len(sock.recv(min(left, 1 << 20)))
                    sock.sendall(b"STORED\r\n")

        peer = threading.Thread(target=slow_peer, daemon=True)
        peer.start()

        async def scenario():
            conn = AsyncConnection(*listener.getsockname(), read_timeout=30)
            try:
                tasks = [asyncio.ensure_future(conn.exchange(request)) for _ in range(n_sets)]
                await asyncio.sleep(0.3)  # peer still asleep: the burst has backed up
                # white box, the one thing the public surface cannot show:
                # what asyncio buffers beyond the kernel's socket buffers
                transport = conn._transport
                high_water = transport.get_write_buffer_limits()[1]
                assert transport.get_write_buffer_size() <= high_water + len(request)
                assert conn.in_flight < n_sets  # the rest wait, unwritten
                assert not any(t.done() for t in tasks)
                start_reading.set()
                replies = await asyncio.gather(*tasks)
            finally:
                start_reading.set()
                conn.close()
            assert [r.status for [r] in replies] == ["STORED"] * n_sets

        try:
            run(scenario())
            peer.join(timeout=10)
            assert not peer.is_alive()
        finally:
            listener.close()


class _CountingTransport:
    """The connection's transport seen through a wrapper that records each ``write``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.writes: list[bytes] = []

    def write(self, data) -> None:
        self.writes.append(bytes(data))
        self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


async def _counted(conn: AsyncConnection) -> _CountingTransport:
    await conn.ensure_connected()
    conn._transport = _CountingTransport(conn._transport)
    return conn._transport


def _set(key: str, value: bytes) -> bytes:
    return encode_command(Command(name="set", keys=(key,), data=value))


def _get(key: str) -> bytes:
    return encode_command(Command(name="get", keys=(key,)))


class TestCoalescing:
    """Requests submitted on a busy socket leave in ONE write per loop tick, in
    ``_pending`` order; an idle socket is written at once (counts, not timings)."""

    @staticmethod
    def preload(backend, n: int) -> None:
        for i in range(n):
            backend.execute(Command(name="set", keys=(f"k{i}",), data=f"v{i}".encode()))

    def test_a_busy_sockets_submits_share_one_write(self):
        n = 50

        async def scenario(backend, host, port):
            self.preload(backend, n)
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(host, port)
            try:
                transport = await _counted(conn)
                head = loop.create_future()
                assert conn.submit(_get("head"), 1, head)  # held in flight: no await yet
                sinks = [loop.create_future() for _ in range(n)]
                requests = [_get(f"k{i}") for i in range(n)]
                for request, sink in zip(requests, sinks):
                    assert conn.submit(request, 1, sink)
                assert conn.in_flight == conn.exchanges == n + 1  # counted at once
                assert transport.writes == [_get("head")]
                replies = await asyncio.gather(head, *sinks)
                assert transport.writes == [_get("head"), b"".join(requests)]
            finally:
                conn.close()
            assert replies[0][0].values == {}
            for i, [resp] in enumerate(replies[1:]):
                assert resp.values == {f"k{i}": f"v{i}".encode()}

        run(_with_server(scenario))

    def test_an_idle_socket_is_written_before_submit_returns(self):
        async def scenario(backend, host, port):
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(host, port)
            try:
                transport = await _counted(conn)
                for _ in range(3):  # ping-pong: idle again at every submit
                    sink = loop.create_future()
                    with counting(loop, "call_soon") as soon:
                        assert conn.submit(GET_K, 1, sink)
                    assert soon[0] == 0
                    assert transport.writes == [GET_K]
                    await sink
                    transport.writes.clear()
            finally:
                conn.close()

        run(_with_server(scenario))

    def test_written_through_then_buffered_keeps_fifo_pairing(self):
        async def scenario(backend, host, port):
            self.preload(backend, 3)
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(host, port)
            try:
                transport = await _counted(conn)
                sinks = [loop.create_future() for _ in range(3)]
                for i, sink in enumerate(sinks):
                    assert conn.submit(_get(f"k{i}"), 1, sink)
                assert transport.writes == [_get("k0")]
                replies = await asyncio.gather(*sinks)
                assert transport.writes == [_get("k0"), _get("k1") + _get("k2")]
            finally:
                conn.close()
            assert [list(resp.values) for [resp] in replies] == [["k0"], ["k1"], ["k2"]]

        run(_with_server(scenario))

    def test_a_ticks_burst_stays_under_the_high_water_mark(self):
        # TestWriteBackpressure's burst through submit itself, in one tick: what
        # the outbox holds counts against the mark, and submit declines over it
        n_sets, size = 48, 256 * 1024
        request = encode_command(Command(name="set", keys=("big",), data=b"x" * size))
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        start_reading = threading.Event()
        accepted = []

        def slow_peer():
            sock, _ = listener.accept()
            with sock:
                start_reading.wait(timeout=30)
                for _ in range(len(accepted)):
                    left = len(request)
                    while left:
                        left -= len(sock.recv(min(left, 1 << 20)))
                    sock.sendall(b"STORED\r\n")

        peer = threading.Thread(target=slow_peer, daemon=True)
        peer.start()

        async def scenario():
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(*listener.getsockname(), read_timeout=30)
            try:
                await conn.ensure_connected()
                transport = conn._transport
                high_water = transport.get_write_buffer_limits()[1]
                for _ in range(n_sets):
                    sink = loop.create_future()
                    if not conn.submit(request, 1, sink):
                        break
                    accepted.append(sink)
                    held = conn._outbox_size + transport.get_write_buffer_size()
                    assert held <= high_water + len(request)
                assert 2 <= len(accepted) < n_sets  # buffered some, then declined
                assert conn.in_flight == len(accepted)
                start_reading.set()
                replies = await asyncio.gather(*accepted)
            finally:
                start_reading.set()
                conn.close()
            assert [r.status for [r] in replies] == ["STORED"] * len(accepted)

        try:
            run(scenario())
            peer.join(timeout=10)
            assert not peer.is_alive()
        finally:
            listener.close()

    def test_close_drops_the_outbox_and_fails_every_sink(self):
        async def scenario(backend, host, port):
            loop = asyncio.get_running_loop()
            conn = AsyncConnection(host, port)
            transport = await _counted(conn)
            sinks = [loop.create_future() for _ in range(6)]
            for sink in sinks:
                assert conn.submit(GET_K, 1, sink)
            conn.close()
            for sink in sinks:
                with pytest.raises(ConnectionError):
                    await sink
            await asyncio.sleep(0.05)  # the tick's flush runs, and finds nothing
            assert transport.writes == [GET_K]  # the head, written through before
            assert conn.in_flight == 0 and not conn.connected

        run(_with_server(scenario))

    def test_exchange_from_many_tasks_coalesces_too(self):
        async def scenario():
            release = asyncio.Event()

            async def held(reader, writer):
                try:
                    while await reader.readline():
                        await release.wait()
                        writer.write(b"END\r\n")
                finally:
                    writer.close()

            server = await asyncio.start_server(held, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            conn = AsyncConnection(host, port, read_timeout=30)
            try:
                transport = await _counted(conn)
                head = asyncio.ensure_future(conn.exchange(GET_K))
                await asyncio.sleep(0.05)
                tasks = [asyncio.ensure_future(conn.exchange(_get(f"k{i}"))) for i in range(32)]
                await asyncio.sleep(0.05)
                assert transport.writes == [GET_K, b"".join(_get(f"k{i}") for i in range(32))]
                release.set()
                replies = await asyncio.gather(head, *tasks)
                assert [r.status for [r] in replies] == ["END"] * 33
            finally:
                release.set()
                conn.close()
                server.close()
                await server.wait_closed()

        run(scenario())


class TestBlockingConnection:
    """The blocking facade: ``AsyncConnection`` on the shared background loop."""

    @pytest.fixture()
    def live_server(self):
        handle, (host, port) = serve_aio(MemcachedServer())
        yield handle, host, port
        handle.stop()

    def test_exchange_after_close_reconnects(self, live_server):
        handle, host, port = live_server
        conn = BlockingConnection(host, port, read_timeout=5.0)
        try:
            [stored] = conn.exchange(_set("k", b"v"))
            assert stored.status == "STORED"
            sock = conn.connection._transport.get_extra_info("socket")
            conn.close()
            assert sock.fileno() == -1  # closed by the time close() returns
            assert not conn.connection.connected
            [got] = conn.exchange(_get("k"))
            assert got.values == {"k": b"v"}
            assert handle.server.connections_accepted == 2
        finally:
            conn.close()

    def test_stopped_server_gives_a_retryable_error(self, live_server):
        handle, host, port = live_server
        conn = BlockingConnection(host, port, read_timeout=5.0)
        try:
            conn.exchange(_set("k", b"v"))
            handle.stop()
            # the server's close may or may not have reached the client yet
            with pytest.raises(RETRYABLE_ERRORS):
                conn.exchange(_get("k"))
            # either way the dead socket is gone: the next exchange reconnects
            with pytest.raises(ConnectionRefusedError):
                conn.exchange(_get("k"))
        finally:
            conn.close()

    def test_mute_listener_times_out_and_the_next_exchange_reconnects(self):
        with socket.socket() as listener:  # accepts (in the kernel), never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            conn = BlockingConnection(*listener.getsockname(), read_timeout=0.2)
            try:
                for _ in range(2):
                    with pytest.raises(ServerTimeout):
                        conn.exchange(_get("k"))
                    assert not conn.connection.connected  # torn down, not reused
            finally:
                conn.close()
            listener.settimeout(2.0)
            first, _ = listener.accept()
            second, _ = listener.accept()  # the second exchange's fresh socket
            first.close()
            second.close()

    def test_connections_share_one_loop_thread(self, live_server):
        _, host, port = live_server
        before = threading.active_count()  # the shared loop may not have started
        conns = [BlockingConnection(host, port, read_timeout=5.0) for _ in range(20)]
        try:
            for i, conn in enumerate(conns):
                [stored] = conn.exchange(_set(f"k{i}", b"v"))
                assert stored.status == "STORED"
            assert threading.active_count() <= before + 1
        finally:
            for conn in conns:
                conn.close()

    def test_threads_sharing_the_loop_each_get_their_own_answers(self, live_server):
        # more threads than cores, switching often: every blocking call crosses
        # to the one loop thread, and no answer may reach the wrong caller
        _, host, port = live_server
        errors: list[Exception] = []

        def worker(t: int) -> None:
            conn = BlockingConnection(host, port, read_timeout=5.0)
            try:
                for i in range(50):
                    key, value = f"t{t}-{i}", b"%d-%d" % (t, i)
                    conn.exchange(_set(key, value))
                    [got] = conn.exchange(_get(key))
                    assert got.values == {key: value}
            except Exception as exc:  # re-raised below, on the test's thread
                errors.append(exc)
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
