"""Calls into ``repro`` per transaction and per request of a warm, healthy read.

The fleet is wired as the benchmark's live workloads wire theirs: sixteen
``AsyncMemcachedServer`` fronts on loopback, one pooled socket per server, a
``BreakerBoard`` and a ``MetricsRegistry`` on the client, ``deadline=`` on every
read.  A transaction's calls are the slope of a request's calls over its
transaction count, counted on both ends of the wire (the fronts run on the
client's loop); what is left is the request's own.  Counts, not timings: a
layer added back on the per-transaction path shows here on any machine.
"""

from __future__ import annotations

import asyncio
import random

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnectionPool
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs import MetricsRegistry
from repro.overload.breaker import BreakerBoard
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.types import Request

from tests.protocol.test_per_key_budget import python_calls

N_SERVERS, R = 16, 3
KEYS = [f"item{i:05d}" for i in range(600)]
#: what a transaction costs: 4 calls to send, 3 in the server front, 5 on the
#: reply, 2 to account it (docs/SERVING.md, "Two halves")
PER_TRANSACTION = 14
#: what a request costs besides its transactions
PER_REQUEST = 24


class Fleet:
    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.placer = RangedConsistentHashPlacer(N_SERVERS, R, seed=2013)
        self.backends = [
            MemcachedServer(name=f"s{sid}", metrics=self.registry) for sid in range(N_SERVERS)
        ]
        self.servers = [AsyncMemcachedServer(b) for b in self.backends]

    async def start(self) -> AsyncRnBClient:
        addrs = [await s.start() for s in self.servers]
        for key in KEYS:
            cmd = Command(name="set", keys=(key,), data=key.encode() * 8)
            for sid in self.placer.servers_for(key):
                self.backends[sid].execute(cmd)
        self.pools = [
            AsyncConnectionPool(host, port, size=1, connect_timeout=5.0, read_timeout=15.0)
            for host, port in addrs
        ]
        breakers = BreakerBoard(N_SERVERS, seed=2013)
        breakers.bind_metrics(self.registry)
        self.client = AsyncRnBClient(
            {sid: AsyncMemcachedClient(pool) for sid, pool in enumerate(self.pools)},
            self.placer,
            retry_policy=RetryPolicy(connect_timeout=5.0, request_timeout=15.0),
            breakers=breakers,
            metrics=self.registry,
        )
        return self.client

    async def stop(self) -> None:
        for pool in self.pools:
            pool.close()
        for server in self.servers:
            await server.stop()


def requests_by_transactions(client: AsyncRnBClient) -> dict[int, list[tuple[str, ...]]]:
    rng = random.Random(7)
    by_count: dict[int, list[tuple[str, ...]]] = {}
    for _ in range(200):
        keys = tuple(rng.sample(KEYS, rng.choice((6, 40))))
        n_txns = len(client.bundler.plan(Request(items=keys)).transactions)
        by_count.setdefault(n_txns, []).append(keys)
    return by_count


def test_calls_per_transaction_and_per_request():
    loop = asyncio.new_event_loop()
    fleet = Fleet()
    try:
        client = loop.run_until_complete(fleet.start())
        by_count = requests_by_transactions(client)
        few, many = min(by_count), max(by_count)
        assert many - few >= 3, sorted(by_count)
        counted: dict[int, set[int]] = {}
        for n_txns in (few, many):
            for keys in by_count[n_txns][:3]:
                # the first read connects the sockets and fills the planner's memo
                # and the stores' headers: what a warm fleet has
                warm = loop.run_until_complete(client.get_multi(keys, deadline=5.0))
                assert warm.transactions == n_txns and not warm.missing

                def read(keys=keys):
                    outcome = loop.run_until_complete(client.get_multi(keys, deadline=5.0))
                    assert outcome.transactions == n_txns and not outcome.missing

                counted.setdefault(n_txns, set()).add(python_calls(read))
        assert all(len(calls) == 1 for calls in counted.values()), counted
        (low,), (high,) = counted[few], counted[many]
        per_transaction, rest = divmod(high - low, many - few)
        assert rest == 0, counted
        per_request = low - per_transaction * few
        assert per_transaction <= PER_TRANSACTION and per_request <= PER_REQUEST, counted
    finally:
        loop.run_until_complete(fleet.stop())
        loop.close()
