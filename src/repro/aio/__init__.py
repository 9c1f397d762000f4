"""Async high-concurrency serving layer (docs/SERVING.md).

This package holds every socket in the repo, on ``asyncio``, sharing
everything below the transport with :mod:`repro.protocol`:

* :mod:`repro.aio.server` — :class:`AsyncMemcachedServer`, an asyncio
  front over the same :class:`repro.protocol.memserver.MemcachedServer`
  backend (shared storage, pipelining, admission BUSY verdicts);
* :mod:`repro.aio.transport` — :class:`AsyncConnection`, a pipelined
  connection multiplexing many in-flight exchanges FIFO over one
  socket, :class:`AsyncConnectionPool` spreading them over a few, and
  :class:`BlockingConnection`, the same connection behind a blocking
  ``exchange`` for the sync client (:mod:`repro.protocol`);
* :mod:`repro.aio.memclient` — :class:`AsyncMemcachedClient`, typed
  async ops with idempotent retries under the shared
  :class:`repro.protocol.retry.RetryPolicy`;
* :mod:`repro.aio.rnbclient` — :class:`AsyncRnBClient`, bundled
  multi-gets whose transactions dispatch concurrently, with repair
  waves, breakers, health tracking and per-request deadline
  degradation.

The open-loop load generator (:mod:`repro.loadgen`, ``rnb loadtest``)
drives this stack with thousands of concurrent simulated users in one
process.
"""

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AioServerHandle, AsyncMemcachedServer, serve_aio
from repro.aio.transport import AsyncConnection, AsyncConnectionPool, BlockingConnection

__all__ = [
    "AioServerHandle",
    "AsyncConnection",
    "AsyncConnectionPool",
    "AsyncMemcachedClient",
    "AsyncMemcachedServer",
    "AsyncRnBClient",
    "BlockingConnection",
    "serve_aio",
]
