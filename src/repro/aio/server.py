"""Asyncio front for the memcached server (docs/SERVING.md).

:class:`AsyncMemcachedServer` is the socket front of a
:class:`repro.protocol.memserver.MemcachedServer` backend,
callback-driven: one small :class:`asyncio.Protocol` object per
connection instead of one OS thread (or task), so a single process holds
tens of thousands of concurrent connections — the regime the open-loop
load generator (:mod:`repro.loadgen`) drives.  Every command a received
chunk completes is executed inline; the batch is answered with ONE
``transport.write``.

Properties the front keeps:

* **shared storage** — the backend's lock serialises command
  execution, so several fronts and in-process loopback callers can all
  serve the same byte-accounted LRU at once;
* **pipelining** — a connection may send many commands before reading
  any response; responses come back in request order (the memcached
  contract the pipelined :class:`repro.aio.transport.AsyncConnection`
  relies on); while a connection's unread responses exceed the write
  buffer's high-water mark, its commands are not read;
* **admission verdicts** — an attached
  :class:`repro.overload.load.AdmissionControl` sheds ``get``
  transactions with ``SERVER_ERROR busy`` exactly as before; the
  verdict stays retryable end-to-end (docs/OVERLOAD.md).

Two ways to run it: ``await server.start()`` inside an existing event
loop (the load generator does this), or :func:`serve_aio` which owns a
background thread + loop for synchronous callers (``rnb stats
--boot-demo``, tests, examples).
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import CRLF
from repro.protocol.memserver import MemcachedServer


class AsyncMemcachedServer:
    """Asyncio TCP front for a :class:`MemcachedServer` backend."""

    def __init__(
        self,
        backend: MemcachedServer | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        gate=None,
    ) -> None:
        self.backend = backend if backend is not None else MemcachedServer()
        self.host = host
        self.port = port
        #: optional link gate ``gate() -> bool`` — True means the path to
        #: this server is currently *cut* (a nemesis blackout window, see
        #: docs/PARTITIONS.md): new connections are refused and live ones
        #: are dropped before the next command batch, which is how a
        #: loopback fleet imitates a network partition without touching
        #: the kernel.  None (the default) never blocks.
        self.gate = gate
        self._server: asyncio.AbstractServer | None = None
        #: the live connections' transports, for :meth:`stop` to abort
        self._transports: set[asyncio.Transport] = set()
        #: connections accepted over this front's lifetime
        self.connections_accepted = 0
        #: connections refused or dropped by the link gate
        self.connections_refused = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address.

        ``port=0`` picks a free port.
        """
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting and abort every live connection: never waits for
        clients to hang up first (``Server.wait_closed()`` alone does, from
        Python 3.12 on); responses not yet sent are dropped."""
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
            for transport in list(self._transports):
                transport.abort()
            await server.wait_closed()


class _Connection(asyncio.Protocol):
    """One accepted connection: parse pipelined commands, answer in order.

    Command *execution* is synchronous (the backend is an in-memory dict
    behind a lock), so responses are computed inline in the read callback.
    """

    def __init__(self, front: AsyncMemcachedServer) -> None:
        self._front = front
        self._buf = codec.CommandBuffer()  # received bytes that complete no command yet

    def _cut(self) -> bool:
        """True (and the connection closed, unanswered) if the link is cut."""
        front = self._front
        if front.gate is None or not front.gate():
            return False
        front.connections_refused += 1
        self._transport.close()
        return True

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        if not self._cut():
            self._front.connections_accepted += 1
            self._front._transports.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._front._transports.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        # a link cut mid-connection drops it without a response, exactly
        # what a partitioned TCP peer sees
        if self._cut():
            return
        try:
            self._buf.feed(data)
            commands = self._buf.commands()
        except ProtocolError:
            self._transport.write(b"ERROR" + CRLF)
            self._transport.close()
            return
        execute = self._front.backend.execute
        self._transport.write(b"".join([execute(cmd) for cmd in commands]))

    # a peer that pipelines without reading must not bloat this process:
    # stop reading (hence executing) its commands while responses back up
    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()


class AioServerHandle:
    """A running async server on a background thread (sync-caller API).

    Returned by :func:`serve_aio`; ``handle.address`` is the bound
    ``(host, port)`` and ``handle.stop()`` tears everything down.
    """

    def __init__(self, server: AsyncMemcachedServer):
        self.server = server
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        #: what binding raised on the server thread, for start() to re-raise
        self._error: Exception | None = None

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self.address = self._loop.run_until_complete(self.server.start())
        except Exception as exc:  # e.g. OSError: the port is taken
            self._error = exc
            self._loop.close()
            return
        finally:
            self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def start(self) -> "AioServerHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover - startup hang
            raise RuntimeError("async server failed to start within 10s")
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)


def serve_aio(
    backend: MemcachedServer | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[AioServerHandle, tuple[str, int]]:
    """Start an async front on a background thread (sync-caller helper).

    Returns ``(handle, (host, port))``; call ``handle.stop()`` to stop.
    ``port=0`` picks a free port; a bind error (the port is taken) is
    raised here, on the caller's thread.
    """
    handle = AioServerHandle(AsyncMemcachedServer(backend, host=host, port=port)).start()
    return handle, handle.address
