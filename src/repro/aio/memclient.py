"""Async memcached client over a pipelined connection or pool.

The coroutine twin of :class:`repro.protocol.memclient.MemcachedConnection`
with the same policy split: *idempotent* operations (retrieval, plain
``set``, ``delete``) retry under the attached
:class:`repro.protocol.retry.RetryPolicy`; everything else runs
single-shot.  ``SERVER_ERROR busy`` surfaces as
:class:`repro.errors.ServerBusy` inside the retried callable, so
backpressure sheds ride the same bounded-backoff schedule as transient
connection faults (docs/OVERLOAD.md).

A transaction is two synchronous halves around the wire: ``begin``
(encode, ``transport.submit``) and ``settle`` (BUSY and status checks,
``transactions`` count, the result).  The coroutines await
``transport.exchange`` between them; :mod:`repro.aio.rnbclient`'s
fan-out, which has its own completion sinks, calls them directly.
"""

from __future__ import annotations

from repro.errors import ProtocolError, ServerBusy
from repro.protocol.codec import Command, encode_command, encode_retrieval
from repro.protocol.retry import RetryPolicy, async_call_with_retries


class AsyncMemcachedClient:
    """Typed async get/set/delete over one server's transport.

    ``transport`` is anything with ``async exchange(request, n)`` —
    an :class:`repro.aio.transport.AsyncConnection` or an
    :class:`repro.aio.transport.AsyncConnectionPool`.
    """

    def __init__(
        self,
        transport,
        *,
        policy: RetryPolicy | None = None,
        rng=None,
        sleep=None,
    ):
        self.transport = transport
        self.policy = policy
        self.rng = rng
        self.sleep = sleep  # None -> asyncio.sleep (injectable for tests)
        self.transactions = 0
        self.retries = 0

    @staticmethod
    def _checked(responses):
        for resp in responses:
            if resp.status == "SERVER_ERROR busy":
                raise ServerBusy(f"{resp.status} (server shed the transaction)")
        return responses

    async def _exchange_checked(self, payload: bytes):
        return self._checked(await self.transport.exchange(payload))

    async def _exchange_idempotent(self, payload: bytes):
        if self.policy is None:
            return await self.transport.exchange(payload)  # settle() checks for BUSY

        def _count(attempt, exc):
            self.retries += 1

        return await async_call_with_retries(
            lambda: self._exchange_checked(payload),
            self.policy,
            rng=self.rng,
            sleep=self.sleep,
            on_retry=_count,
        )

    # -- the two halves of a transaction ------------------------------------

    @staticmethod
    def _encode(op: str, args, with_cas=False, flags=0, exptime=0) -> bytes:
        if op == "set":
            return encode_command(
                Command(name="set", keys=args[:1], flags=flags, exptime=exptime, data=args[1])
            )
        if op == "delete":
            return encode_command(Command(name="delete", keys=args))
        return encode_retrieval("gets" if with_cas else "get", args if op == "get" else args[0])

    def begin(self, op: str, args: tuple, sink) -> bool:
        """Put ``op(*args)`` (``get_multi`` / ``get`` / ``set`` / ``delete``) on the wire
        now; ``sink`` gets the raw responses for :meth:`settle`.  ``False``, nothing sent,
        if the transport cannot ``submit`` or this client has its own ``policy`` (it
        retries inside the coroutine).  A ``get_multi``'s keys are sent as given: the
        request engine checked them (``validate_keys``) before planning."""
        submit = getattr(self.transport, "submit", None)
        if submit is None or self.policy is not None:
            return False
        if op == "get_multi":
            request = f"get {' '.join(args[0])}\r\n".encode()
        else:
            request = self._encode(op, args)
        return submit(request, 1, sink)

    def settle(self, op: str, args: tuple, responses, with_cas=False):
        """What ``op(*args)`` returns for ``responses``; a shed raises :class:`ServerBusy`."""
        [resp] = self._checked(responses)
        if op == "set" or op == "delete":
            self.transactions += 1
            return resp.status == ("STORED" if op == "set" else "DELETED")
        if resp.status != "END":
            raise ProtocolError(f"unexpected retrieval status: {resp.status}")
        self.transactions += 1
        items = resp.values.items()
        if with_cas:
            return {k: (v[1], v[2]) for k, v in items}
        values = {k: v[1] for k, v in items}
        return values.get(args[0]) if op == "get" else values

    # -- retrieval -------------------------------------------------------

    async def get_multi(self, keys, *, with_cas: bool = False) -> dict:
        """Fetch many keys in ONE transaction (missing keys absent)."""
        args = (tuple(keys),)
        if not args[0]:
            return {}
        responses = await self._exchange_idempotent(self._encode("get_multi", args, with_cas))
        return self.settle("get_multi", args, responses, with_cas)

    async def get(self, key: str) -> bytes | None:
        return (await self.get_multi([key])).get(key)

    # -- storage ------------------------------------------------------------

    async def set(
        self, key: str, value: bytes, *, flags: int = 0, exptime: int = 0
    ) -> bool:
        # plain set is idempotent (last-writer-wins), so it may retry
        request = self._encode("set", (key, value), flags=flags, exptime=exptime)
        return self.settle("set", (key, value), await self._exchange_idempotent(request))

    async def delete(self, key: str) -> bool:
        request = self._encode("delete", (key,))
        return self.settle("delete", (key,), await self.transport.exchange(request))

    async def flush_all(self) -> None:
        [resp] = await self._exchange_checked(
            encode_command(Command(name="flush_all"))
        )
        if resp.status != "OK":
            raise ProtocolError(f"flush_all failed: {resp.status}")

    async def stats(self, arg: str = "") -> dict:
        """The server's ``stats`` report; ``arg`` selects a sub-report
        (``"metrics"`` returns Prometheus-style telemetry samples)."""
        keys = (arg,) if arg else ()
        [resp] = await self._exchange_checked(
            encode_command(Command(name="stats", keys=keys))
        )
        if resp.status.startswith(("CLIENT_ERROR", "SERVER_ERROR")):
            raise ProtocolError(f"stats {arg!r} failed: {resp.status}")
        return dict(resp.stats)

    def close(self) -> None:
        self.transport.close()
