"""Dead-port semantics, shared by the blocking and the async connection.

A connection refused propagates as ``ConnectionRefusedError`` (an
``OSError``, hence retryable) rather than being wrapped.  The blocking
facade must agree with the coroutine API under it — a client moving
between the sync and async engines cannot change its error taxonomy —
so both are exercised here against the same dead port.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.aio.transport import AsyncConnection, BlockingConnection
from repro.protocol.retry import (
    RetryPolicy,
    async_call_with_retries,
    call_with_retries,
)


@pytest.fixture()
def dead_port() -> int:
    """A loopback port that was just bound and released: connects refuse."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


FAST = RetryPolicy(
    connect_timeout=2.0,
    request_timeout=2.0,
    max_retries=2,
    backoff_base=0.0001,
    backoff_max=0.001,
)
TIMEOUTS = dict(connect_timeout=2.0, read_timeout=2.0)


class TestSyncTransport:
    def test_refused_connect_propagates(self, dead_port):
        conn = BlockingConnection("127.0.0.1", dead_port, **TIMEOUTS)
        with pytest.raises(ConnectionRefusedError):
            conn.exchange(b"get k\r\n")  # connecting is lazy: the first exchange

    def test_refused_connect_is_retryable(self, dead_port):
        conn = BlockingConnection("127.0.0.1", dead_port, **TIMEOUTS)
        attempts = []
        with pytest.raises(ConnectionRefusedError):
            call_with_retries(
                lambda: conn.exchange(b"get k\r\n"),
                FAST,
                sleep=lambda _: None,
                on_retry=lambda n, exc: attempts.append(type(exc)),
            )
        assert attempts == [ConnectionRefusedError, ConnectionRefusedError]


class TestAsyncTransport:
    def test_refused_connect_propagates(self, dead_port):
        async def scenario():
            conn = AsyncConnection("127.0.0.1", dead_port, **TIMEOUTS)
            with pytest.raises(ConnectionRefusedError):
                await conn.ensure_connected()
            assert not conn.connected

        asyncio.run(scenario())

    def test_refused_connect_is_retryable(self, dead_port):
        async def scenario():
            attempts = []

            async def connect():
                conn = AsyncConnection("127.0.0.1", dead_port, **TIMEOUTS)
                await conn.ensure_connected()
                return conn

            with pytest.raises(ConnectionRefusedError):
                await async_call_with_retries(
                    connect,
                    FAST,
                    sleep=_no_sleep,
                    on_retry=lambda n, exc: attempts.append(type(exc)),
                )
            assert attempts == [ConnectionRefusedError, ConnectionRefusedError]

        async def _no_sleep(_):
            return None

        asyncio.run(scenario())

    def test_exchange_on_dead_port_also_refuses(self, dead_port):
        # the lazy connect inside exchange must not change the taxonomy
        async def scenario():
            conn = AsyncConnection("127.0.0.1", dead_port, **TIMEOUTS)
            with pytest.raises(ConnectionRefusedError):
                await conn.exchange(b"get k\r\n")

        asyncio.run(scenario())


class TestParity:
    def test_both_transports_raise_the_same_error_type(self, dead_port):
        sync_exc = async_exc = None
        try:
            BlockingConnection("127.0.0.1", dead_port, **TIMEOUTS).exchange(b"get k\r\n")
        except OSError as exc:
            sync_exc = type(exc)

        async def try_async():
            nonlocal async_exc
            try:
                await AsyncConnection("127.0.0.1", dead_port, **TIMEOUTS).ensure_connected()
            except OSError as exc:
                async_exc = type(exc)

        asyncio.run(try_async())
        assert sync_exc is async_exc is ConnectionRefusedError
