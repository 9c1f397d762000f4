"""Pipelined asyncio transport: the one socket client.

:class:`AsyncConnection` multiplexes many in-flight exchanges over ONE
socket.  :meth:`AsyncConnection.submit` is the one synchronous entry
point: it queues the exchange and returns.  A request for an idle socket
(nothing in flight) is written at once; one for a busy socket joins the
outbox that ONE ``call_soon`` flush per loop tick writes as a single
buffer, so concurrent callers share a ``send`` (docs/SERVING.md).
Responses are parsed in arrival order and handed FIFO to each exchange's
completion *sink* — valid because the memcached protocol answers strictly
in request order (the async server front preserves this, see
:mod:`repro.aio.server`).  The coroutine ``exchange`` is ``submit`` with
an :class:`asyncio.Future` for a sink.  Pipelining is what lets thousands
of concurrent bundles share a small connection pool instead of needing a
socket each.  The connection is its own :class:`asyncio.Protocol`:
``data_received`` completes the sinks inline, with no reader task or
stream buffer in between; while the send buffer is over its high-water
mark ``submit`` declines and ``exchange`` waits *before* writing — a slow
peer blocks callers instead of growing it.

Timeouts come in two phases:

* ``connect_timeout`` bounds connection establishment and surfaces as
  :class:`repro.errors.ServerTimeout`; a refused connection propagates
  as :class:`ConnectionRefusedError` — both retryable under
  :func:`repro.protocol.retry.call_with_retries` and its async twin;
* ``read_timeout`` bounds each exchange; on expiry the connection is
  torn down (a stale late response must not desync the FIFO pairing)
  and the exchange raises :class:`ServerTimeout`.  Other exchanges
  pipelined on the connection fail with ``ConnectionError`` and retry
  on a fresh connection under their own policies.  ONE timer per
  connection watches the head's deadline (they never decrease along the
  FIFO), not one timer per exchange;
* precedence: explicit per-phase keyword > :class:`repro.protocol.retry.RetryPolicy`.

Connecting is lazy (first exchange) because ``__init__`` cannot await —
:meth:`AsyncConnection.ensure_connected` is exposed for callers that
want connect errors eagerly.  After a teardown the next exchange
reconnects.

:class:`BlockingConnection` is the blocking face of the same connection
for the sync request engine (:class:`repro.protocol.memclient.MemcachedConnection`
over it): each call runs on one daemon event-loop thread that every
blocking connection in the process shares.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from contextlib import suppress

from repro.errors import ProtocolError, ServerTimeout
from repro.protocol.codec import IncompleteResponse, Response, parse_response_at
from repro.protocol.retry import DEFAULT_POLICY, RetryPolicy


class AsyncConnection(asyncio.Protocol):
    """One pipelined asyncio connection to a memcached-speaking server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy or DEFAULT_POLICY
        if connect_timeout is None:
            connect_timeout = self.policy.connect_timeout
        if read_timeout is None:
            read_timeout = self.policy.request_timeout
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._transport: asyncio.Transport | None = None
        self._connect_lock = asyncio.Lock()
        #: FIFO of exchanges awaiting responses: (n, sink, deadline, responses so far)
        self._pending: deque[tuple[int, object, float, list[Response]]] = deque()
        #: received bytes that complete no response yet
        self._received = b""
        #: requests submitted on a busy socket this tick, unwritten, and their bytes
        self._outbox: list[bytes] = []
        self._outbox_size = 0
        #: the connection's one timer, due no later than the head's deadline
        self._watchdog: asyncio.TimerHandle | None = None
        #: cleared while the socket's send buffer is over its high-water mark
        self._writable = asyncio.Event()
        self._writable.set()
        self.exchanges = 0

    @property
    def connected(self) -> bool:
        return self._transport is not None

    @property
    def in_flight(self) -> int:
        """Exchanges whose responses are still owed, awaited or not (pool balancing signal)."""
        return len(self._pending)

    async def ensure_connected(self) -> None:
        """Connect if not connected (lazy; also the post-failure reconnect).

        Serialised by a lock: concurrent first exchanges must share ONE
        socket, not race to create several.
        """
        async with self._connect_lock:
            if self._transport is None:
                self._loop = asyncio.get_running_loop()
                try:
                    await asyncio.wait_for(
                        self._loop.create_connection(lambda: self, self.host, self.port),
                        timeout=self.connect_timeout,
                    )
                except (asyncio.TimeoutError, TimeoutError) as exc:
                    raise ServerTimeout(
                        f"connect to {self.host}:{self.port} did not complete within "
                        f"{self.connect_timeout}s"
                    ) from exc

    def close(self, error: BaseException | None = None) -> None:
        """Tear down the socket; pending exchanges fail with ``error``."""
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.abort()
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        failure = error or ConnectionError("connection closed")
        while self._pending:
            with suppress(asyncio.InvalidStateError):  # its caller has gone
                self._pending.popleft()[1].set_exception(failure)
        self._received = b""
        self._outbox, self._outbox_size = [], 0
        self._writable.set()  # wake callers blocked on a full send buffer

    # -- event-loop callbacks ------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        # the callback does not say WHICH socket died: one that close()
        # already dropped (and maybe replaced) must not tear down its successor
        if self._transport is not None and self._transport.is_closing():
            self.close(exc or ProtocolError("connection closed mid-response"))

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def data_received(self, data: bytes) -> None:
        """Parse responses in arrival order, fulfilling pending FIFO.

        Each response is parsed once it is complete; the bytes of one that is
        not yet wait in ``_received``, joined to the next chunk (the framing of
        :class:`repro.protocol.codec.FrameBuffer`, on the same parser)."""
        pending = self._pending
        if self._received:
            data = self._received + data
        pos = 0
        try:
            while pending:
                n, sink, _, responses = pending[0]
                while len(responses) < n:
                    try:
                        resp, pos = parse_response_at(data, pos)
                    except IncompleteResponse:
                        self._received = data[pos:]
                        return
                    responses.append(resp)
                pending.popleft()
                # a caller cancelled mid-exchange stays queued, so that its
                # late response is consumed here (and dropped), not mis-paired
                try:
                    sink.set_result(responses)
                except asyncio.InvalidStateError:
                    pass
            if pos < len(data):
                # bytes with no exchange awaiting them: the FIFO pairing
                # is broken — tear down rather than mis-deliver
                trailing = data[pos : pos + 40]
                raise ProtocolError(f"unexpected trailing response bytes: {trailing!r}")
            self._received = b""
        except ProtocolError as exc:
            self.close(exc)

    def _on_watchdog(self) -> None:
        # armed when an exchange is queued with no timer pending and left
        # alone as exchanges complete, so it may fire early for a later head
        self._watchdog = None
        if not self._pending:
            return
        _, sink, deadline, _ = self._pending[0]
        if deadline > self._loop.time():
            self._watchdog = self._loop.call_at(deadline, self._on_watchdog)
            return
        timeout = ServerTimeout(f"no complete response within {self.read_timeout}s")
        with suppress(asyncio.InvalidStateError):
            sink.set_exception(timeout)
        self.close()  # pipelined siblings fail with ConnectionError

    def _flush(self) -> None:
        """Write the tick's outbox as one buffer (``close`` leaves it empty)."""
        if self._outbox:
            self._transport.write(b"".join(self._outbox))
            self._outbox, self._outbox_size = [], 0

    def submit(self, request: bytes, n_responses: int, sink) -> bool:
        """Queue one exchange without awaiting; ``request`` is written now if
        the socket is idle, with the tick's other requests if it is busy.

        ``sink`` (``set_result(responses) / set_exception(exc)``, e.g. an
        :class:`asyncio.Future`) is completed from ``data_received``, ``close``
        or the watchdog; a sink whose caller has gone drops what it is given or
        raises :class:`asyncio.InvalidStateError` (a cancelled Future), and its
        responses are consumed all the same.  ``False``, nothing queued, when
        the socket is not connected or its send buffer is over the high-water mark.
        """
        transport = self._transport
        if transport is None or not self._writable.is_set():
            return False
        busy = bool(self._pending)  # an unwritten request is pending too: order is kept
        deadline = self._loop.time() + self.read_timeout
        self._pending.append((n_responses, sink, deadline, []))
        if self._watchdog is None:
            self._watchdog = self._loop.call_at(deadline, self._on_watchdog)
        self.exchanges += 1
        if not busy:  # the peer is idle: the response is one round trip away
            transport.write(request)
            return True
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(request)
        self._outbox_size += len(request)
        # the outbox counts against the send buffer's high-water mark, so that
        # pause_writing fires (and submit declines) as early as without it
        buffered = self._outbox_size + transport.get_write_buffer_size()
        if buffered >= transport.get_write_buffer_limits()[1]:
            self._flush()
        return True

    async def exchange(self, request: bytes, n_responses: int = 1) -> list[Response]:
        """Send one request, await its ``n_responses`` responses.

        Many callers may have exchanges in flight concurrently; each gets
        its own responses in request order.  A read timeout raises
        :class:`ServerTimeout` and tears the connection down (module docstring).
        """
        if self._transport is None:
            await self.ensure_connected()
        while not self._writable.is_set():  # send buffer over its high-water mark
            await self._writable.wait()
        fut: asyncio.Future = self._loop.create_future()
        if not self.submit(request, n_responses, fut):
            raise ConnectionError("connection closed")  # lost while waiting: retried
        return await fut


class AsyncConnectionPool:
    """A small pool of pipelined connections to ONE server.

    ``exchange`` / ``submit`` route each request to the pooled connection
    with the fewest in-flight exchanges, growing the pool lazily up to ``size``
    sockets.  Because every connection pipelines, the pool's effective
    concurrency is far larger than ``size`` — the pool exists to spread
    head-of-line parsing work and to contain the blast radius of a
    timeout teardown, not to give each request a socket.

    The pool quacks like a single connection (``exchange`` / ``submit`` / ``close``),
    so :class:`repro.aio.memclient.AsyncMemcachedClient` accepts either.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        size: int = 4,
        policy: RetryPolicy | None = None,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.host = host
        self.port = port
        self.size = size
        self._kwargs = dict(
            policy=policy, connect_timeout=connect_timeout, read_timeout=read_timeout
        )
        self._connections: list[AsyncConnection] = []

    @property
    def connections(self) -> tuple[AsyncConnection, ...]:
        return tuple(self._connections)

    def _pick_connection(self) -> AsyncConnection:
        best, depth = None, 0
        for conn in self._connections:  # fewest in flight, the first of equals
            in_flight = len(conn._pending)
            if best is None or in_flight < depth:
                best, depth = conn, in_flight
        if best is not None and (depth == 0 or len(self._connections) >= self.size):
            return best
        conn = AsyncConnection(self.host, self.port, **self._kwargs)
        self._connections.append(conn)
        return conn

    async def exchange(self, request: bytes, n_responses: int = 1) -> list[Response]:
        return await self._pick_connection().exchange(request, n_responses)

    def submit(self, request: bytes, n_responses: int, sink) -> bool:
        return self._pick_connection().submit(request, n_responses, sink)

    def close(self) -> None:
        for conn in self._connections:
            conn.close()
        self._connections.clear()


_background: asyncio.AbstractEventLoop | None = None
_background_lock = threading.Lock()


def _background_loop() -> asyncio.AbstractEventLoop:
    """The process's one daemon event-loop thread, started on first use."""
    global _background
    with _background_lock:
        if _background is None:
            loop = asyncio.new_event_loop()
            threading.Thread(
                target=loop.run_forever, name="repro-blocking-io", daemon=True
            ).start()
            _background = loop
    return _background


class BlockingConnection:
    """A blocking :class:`AsyncConnection`, for the sync request engine.

    ``exchange`` and ``close`` run the connection's coroutines on the
    shared background loop and wait for them, so errors, timeouts and
    the lazy reconnect after a teardown or ``close`` are exactly
    :class:`AsyncConnection`'s.  It takes the same keywords.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        self.connection = AsyncConnection(
            host,
            port,
            policy=policy,
            connect_timeout=connect_timeout,
            read_timeout=read_timeout,
        )
        self._loop = _background_loop()

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def exchange(self, request: bytes, n_responses: int = 1) -> list[Response]:
        return self._run(self.connection.exchange(request, n_responses))

    async def _close(self) -> None:
        # the abort queues the socket's close on the loop ahead of this
        # coroutine's completion, so ``close`` returns after the socket is shut
        self.connection.close()

    def close(self) -> None:
        """Close the socket; returns once it is closed."""
        self._run(self._close())
