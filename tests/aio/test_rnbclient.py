"""AsyncRnBClient: bundled reads, failover, deadlines, busy sheds."""

from __future__ import annotations

import asyncio
import contextlib
import time

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnection, AsyncConnectionPool
from repro.errors import ProtocolError
from repro.faults.health import HealthTracker
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.breaker import BreakerBoard
from repro.overload.load import AdmissionControl
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.types import Request

N_SERVERS = 4
R = 2
FAST = RetryPolicy(
    connect_timeout=2.0, request_timeout=2.0, max_retries=2, backoff_base=0.001
)


def run(coro):
    return asyncio.run(coro)


class CoroutineOnly:
    """A memclient seen through a wrapper that forwards the coroutine
    methods and nothing else (``bench/spans.py`` proxies, user wrappers):
    without ``begin``/``settle`` every call takes the client's cold path."""

    def __init__(self, inner):
        self.inner = inner

    async def get_multi(self, keys, **kwargs):
        return await self.inner.get_multi(keys, **kwargs)

    async def get(self, key):
        return await self.inner.get(key)

    async def set(self, key, value, **kwargs):
        return await self.inner.set(key, value, **kwargs)

    async def delete(self, key):
        return await self.inner.delete(key)


#: a client over plain memclients (inline fan-out) and over coroutine-only wrappers
PATHS = pytest.mark.parametrize("wrap", [None, CoroutineOnly], ids=["inline", "cold"])


@contextlib.contextmanager
def counting(loop, method: str):
    """Count calls of ``loop.<method>`` on the running loop (an instance
    attribute shadows the method; asyncio's own callers look it up there)."""
    calls = [0]
    real = getattr(loop, method)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    setattr(loop, method, counted)
    try:
        yield calls
    finally:
        delattr(loop, method)


class _Cluster:
    """A live async fleet + client, torn down deterministically.

    ``wrap`` wraps each server's memclient (e.g. :class:`CoroutineOnly`);
    ``gates`` maps a server id to its front's link gate; ``client_kwargs``
    go to :class:`AsyncRnBClient` (``health=``, ``breakers=``, ``tracer=``).
    """

    def __init__(
        self,
        *,
        admission=None,
        pool_size=2,
        retry_policy=FAST,
        n_servers=N_SERVERS,
        wrap=None,
        gates=None,
        **client_kwargs,
    ):
        self.placer = RangedConsistentHashPlacer(n_servers, R, seed=0)
        self.backends = [
            MemcachedServer(
                name=f"s{i}",
                admission=admission() if admission is not None else None,
            )
            for i in range(n_servers)
        ]
        self.servers = [
            AsyncMemcachedServer(b, gate=(gates or {}).get(i))
            for i, b in enumerate(self.backends)
        ]
        self.pools: list[AsyncConnectionPool] = []
        self.pool_size = pool_size
        self.retry_policy = retry_policy
        self.wrap = wrap or (lambda conn: conn)
        self.client_kwargs = client_kwargs
        self.client: AsyncRnBClient | None = None

    async def __aenter__(self) -> "_Cluster":
        addrs = [await s.start() for s in self.servers]
        self.pools = [
            AsyncConnectionPool(
                h, p, size=self.pool_size, connect_timeout=2.0, read_timeout=2.0
            )
            for h, p in addrs
        ]
        self.client = AsyncRnBClient(
            {
                sid: self.wrap(AsyncMemcachedClient(pool))
                for sid, pool in enumerate(self.pools)
            },
            self.placer,
            retry_policy=self.retry_policy,
            **self.client_kwargs,
        )
        return self

    async def warm(self) -> None:
        """Connect every socket: from here on plain memclients go inline."""
        await asyncio.gather(
            *(c.get("warm") for c in self.client.connections.values()),
            return_exceptions=True,  # a BUSY gate sheds this too
        )

    async def __aexit__(self, *exc):
        for pool in self.pools:
            pool.close()
        for server in self.servers:
            await server.stop()
        return False

    def preload(self, items: dict[str, bytes]) -> None:
        for key, value in items.items():
            cmd = Command(name="set", keys=(key,), data=value)
            for sid in self.placer.servers_for(key):
                self.backends[sid].execute(cmd)

    async def kill(self, sid: int) -> None:
        await self.servers[sid].stop()
        self.pools[sid].close()


ITEMS = {f"m{i:03d}": f"val{i}".encode() for i in range(60)}


class TestGetMulti:
    def test_bundled_fetch_returns_everything(self):
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert outcome.missing == ()
                assert not outcome.deadline_hit
                # bundling: far fewer transactions than items
                assert outcome.transactions <= N_SERVERS

        run(scenario())

    def test_many_inflight_requests_each_get_their_own_answer(self):
        # N concurrent get_multis multiplexed over the same pools: every
        # request sees exactly its keys (FIFO pipelining never crosses
        # responses between requests)
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                keysets = [tuple(sorted(ITEMS))[i : i + 6] for i in range(0, 54, 3)]
                outcomes = await asyncio.gather(
                    *(c.client.get_multi(ks) for ks in keysets)
                )
                for ks, outcome in zip(keysets, outcomes):
                    assert outcome.values == {k: ITEMS[k] for k in ks}
                # pool_size=1: one socket per server carried all of it
                for pool in c.pools:
                    assert len(pool.connections) <= 1

        run(scenario())

    def test_dead_server_fails_over_to_replicas(self):
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                dead = c.placer.distinguished_for(next(iter(ITEMS)))
                await c.kill(dead)
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert dead in outcome.failed_servers
                assert outcome.second_round_transactions > 0

        run(scenario())

    def test_single_get_and_set_roundtrip(self):
        async def scenario():
            async with _Cluster() as c:
                await c.client.set("solo", b"payload")
                assert await c.client.get("solo") == b"payload"
                assert await c.client.get("absent") is None
                await c.client.delete("solo")
                assert await c.client.get("solo") is None

        run(scenario())


class _HeldFleet:
    """Raw memcached-speaking peers that hold every answer while ``release``
    is clear and for ``delay`` seconds after, then answer in order."""

    def __init__(self, *, wrap=None, delay=0.0):
        self.placer = RangedConsistentHashPlacer(N_SERVERS, R, seed=0)
        self.wrap = wrap or (lambda conn: conn)
        self.delay = delay
        self.release = asyncio.Event()
        self.release.set()
        self.listeners: list = []
        self.pools: list[AsyncConnectionPool] = []
        self.client: AsyncRnBClient | None = None

    async def _serve(self, reader, writer):
        try:
            while line := await reader.readline():
                await self.release.wait()
                await asyncio.sleep(self.delay)
                found = [
                    (k, ITEMS[k.decode()]) for k in line.split()[1:] if k.decode() in ITEMS
                ]
                writer.write(
                    b"".join(b"VALUE %s 0 %d\r\n%s\r\n" % (k, len(v), v) for k, v in found)
                    + b"END\r\n"
                )
        finally:
            writer.close()

    async def __aenter__(self) -> "_HeldFleet":
        for _ in range(N_SERVERS):
            listener = await asyncio.start_server(self._serve, "127.0.0.1", 0)
            self.listeners.append(listener)
            host, port = listener.sockets[0].getsockname()[:2]
            self.pools.append(
                AsyncConnectionPool(host, port, size=1, connect_timeout=5.0, read_timeout=5.0)
            )
        self.client = AsyncRnBClient(
            {sid: self.wrap(AsyncMemcachedClient(p)) for sid, p in enumerate(self.pools)},
            self.placer,
            retry_policy=FAST,
        )
        await asyncio.gather(*(c.get("warm") for c in self.client.connections.values()))
        return self

    async def __aexit__(self, *exc):
        for pool in self.pools:
            pool.close()
        for listener in self.listeners:
            listener.close()
            await listener.wait_closed()
        return False


@PATHS
class TestDeadline:
    """``deadline=`` through the public surface, on both fan-out paths: plain
    memclients (written inline, no Task) and coroutine-only wrappers (a Task
    per transaction)."""

    def test_deadline_degrades_instead_of_failing(self, wrap):
        async def scenario():
            async with _HeldFleet(wrap=wrap) as fleet:
                fleet.release.clear()  # every peer accepts and never answers
                started = time.perf_counter()
                with counting(asyncio.get_running_loop(), "create_task") as tasks:
                    outcome = await fleet.client.get_multi(sorted(ITEMS), deadline=0.05)
                assert time.perf_counter() - started < 1.0  # the budget, not the timeout
                assert (tasks[0] == 0) == (wrap is None)
                assert outcome.deadline_hit
                assert set(outcome.missing) == set(ITEMS)  # nothing arrived in time
                # the answers are still owed: they arrive late, are consumed
                # and dropped, and the next request gets its own values
                assert sum(c.in_flight for p in fleet.pools for c in p.connections) > 0
                fleet.release.set()
                keys = sorted(ITEMS)[:9]
                outcome = await fleet.client.get_multi(keys, deadline=5.0)
                assert outcome.values == {k: ITEMS[k] for k in keys}
                assert not outcome.deadline_hit
                for pool in fleet.pools:
                    assert all(c.connected and c.in_flight == 0 for c in pool.connections)

        run(scenario())

    def test_per_request_deadlines_are_independent(self, wrap):
        # a tight deadline on one request must not cut a concurrent
        # request that has budget to spare
        async def scenario():
            async with _HeldFleet(wrap=wrap, delay=0.3) as fleet:
                tight, roomy = await asyncio.gather(
                    fleet.client.get_multi(sorted(ITEMS)[:6], deadline=0.05),
                    fleet.client.get_multi(sorted(ITEMS), deadline=5.0),
                )
                assert tight.deadline_hit
                assert set(tight.missing) == set(sorted(ITEMS)[:6])
                assert not roomy.deadline_hit
                assert roomy.values == ITEMS

        run(scenario())


class TestBusySheds:
    def test_busy_sheds_counted_and_request_still_served(self):
        # queue_limit=0 is invalid; use a bucket-free gate that always
        # rejects by saturating outstanding first
        def gate():
            ac = AdmissionControl(queue_limit=1)
            ac.outstanding = 1  # permanently full: every get sheds BUSY
            return ac

        async def scenario():
            async with _Cluster(admission=gate) as c:
                c.preload(ITEMS)
                keys = sorted(ITEMS)[:8]
                outcome = await c.client.get_multi(keys)
                # every server sheds, so nothing can be served...
                assert set(outcome.missing) == set(keys)
                # ...but the request completed (degraded), never raised,
                # and the sheds were counted
                assert outcome.busy_sheds > 0
                assert c.client.busy_sheds == outcome.busy_sheds

        run(scenario())


class TestConstructorContract:
    def test_connections_must_cover_the_placer(self):
        from repro.errors import ConfigurationError

        placer = RangedConsistentHashPlacer(3, 2, seed=0)
        with pytest.raises(ConfigurationError):
            AsyncRnBClient({0: object(), 1: object()}, placer)

    def test_breakers_autocreate_health(self):
        from repro.overload.breaker import BreakerBoard

        placer = RangedConsistentHashPlacer(3, 2, seed=0)
        client = AsyncRnBClient(
            {0: AsyncConnection("h", 1), 1: AsyncConnection("h", 1),
             2: AsyncConnection("h", 1)},
            placer,
            breakers=BreakerBoard(3),
        )
        assert client.health is not None

    def test_pipelined_connection_reused_not_restacked(self):
        # a transport carrying its own policy must not get client-level
        # retries stacked on top (attempts would compound)
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                for sid, conn in c.client.connections.items():
                    conn.policy = FAST  # now each conn retries itself
                outcome = await c.client.get_multi(sorted(ITEMS)[:10])
                assert len(outcome.values) == 10

        run(scenario())


class TestCallersBadKey:
    """A malformed key is the caller's error: raised before a byte is sent, with no
    plan, no retry, and no health or breaker strike against a healthy server."""

    BAD = ("bad key", "bad key\r\n", "a b", "", "k" * 251)

    @staticmethod
    def guarded(**kwargs) -> tuple[_Cluster, list]:
        slept: list[float] = []

        async def sleep(delay: float) -> None:
            slept.append(delay)

        cluster = _Cluster(
            health=HealthTracker(N_SERVERS),
            breakers=BreakerBoard(N_SERVERS, seed=3),
            sleep=sleep,
            **kwargs,
        )
        return cluster, slept

    @staticmethod
    def assert_untouched(cluster: _Cluster, slept: list, transactions: int) -> None:
        client = cluster.client
        assert slept == []
        assert client.health.exclusions() == client.breakers.tripped() == frozenset()
        assert all(h.total_errors == 0 for h in client.health.snapshot().values())
        assert sum(b.stats["total_transactions"] for b in cluster.backends) == transactions

    @PATHS
    def test_get_multi_raises_and_books_nothing(self, wrap):
        async def scenario():
            cluster, slept = self.guarded(wrap=wrap)
            async with cluster as c:
                c.preload(ITEMS)
                await c.warm()
                keys = sorted(ITEMS)[:3]
                sent = sum(b.stats["total_transactions"] for b in c.backends)
                for bad in self.BAD:
                    with pytest.raises(ProtocolError):
                        await c.client.get_multi([*keys[:2], bad, keys[2]])
                    self.assert_untouched(c, slept, sent)
                # the parent returned retries=4 and two failed servers after two
                # backoff sleeps per replica, and planned every later request of
                # every caller sharing the client around those healthy servers
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert (outcome.retries, outcome.failed_servers) == (0, ())
                planned = c.client.bundler.plan(Request(items=tuple(sorted(ITEMS))))
                assert outcome.transactions == len(planned.transactions)

        run(scenario())

    def test_every_keyed_call_checks_its_key_first(self):
        async def scenario():
            cluster, slept = self.guarded()
            async with cluster as c:
                client = c.client
                for bad in self.BAD:
                    for call in (
                        client.get(bad),
                        client.set(bad, b"v"),
                        client.delete(bad),
                        client.set_versioned(bad, b"v"),
                        client.get_versioned(bad),
                    ):
                        with pytest.raises(ProtocolError):
                            await call
                self.assert_untouched(c, slept, 0)

        run(scenario())
