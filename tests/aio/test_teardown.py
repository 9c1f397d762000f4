"""A torn-down live fleet leaves nothing for the collector to warn about.

An unclosed socket, transport or event loop reports itself with a
``ResourceWarning`` only when it is finalised.  CI greps ``python -X dev``
stderr for those warnings, but what is finalised after the interpreter
stops reporting never reaches the grep.  Here the fleet is wired the way
``repro.loadgen.runner.run_loadtest`` wires it — four
:class:`AsyncMemcachedServer` fronts, an :class:`AsyncRnBClient` over one
:class:`AsyncConnectionPool` per server — a few requests are served, and
the teardown and a full collection run with every ``ResourceWarning``
recorded: there must be none.

Two shapes of the fleet, because a server that stops aborts its side of
every connection, and a client socket whose peer hung up closes itself:

* everything on one loop, as in ``run_loadtest``: the pools close, the
  servers stop, ``asyncio.run`` returns.  A server left running leaks
  its sockets;
* the servers on their own threads (:func:`repro.aio.server.serve_aio`)
  outliving the client's loop, as in ``rnb stats --boot-demo``: nothing
  but ``AsyncConnectionPool.close`` closes the client's sockets before
  its loop is gone.

The benchmark's own fleet (``bench/live.py``'s ``Fleet``) is held to the
same in a ``python -X dev`` child: bench's modules are flat (``spec``,
``live``, ``layers``), so they stay out of this process.
"""

from __future__ import annotations

import asyncio
import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer, serve_aio
from repro.aio.transport import AsyncConnectionPool
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy

N_SERVERS = 4
KEYS = [f"k{i}" for i in range(32)]
PLACER = RangedConsistentHashPlacer(N_SERVERS, 2, seed=0)


def _backends() -> list[MemcachedServer]:
    """Every replica preloaded, straight through the backends."""
    backends = [MemcachedServer(name=f"s{i}") for i in range(N_SERVERS)]
    for key in KEYS:
        for sid in PLACER.servers_for(key):
            backends[sid].execute(Command("set", keys=(key,), data=key.encode()))
    return backends


async def _read_through_pools(addrs) -> int:
    """Serve a few bundled reads; returns how many sockets they opened."""
    pools = [
        AsyncConnectionPool(host, port, size=2, connect_timeout=2.0, read_timeout=2.0)
        for host, port in addrs
    ]
    try:
        client = AsyncRnBClient(
            {sid: AsyncMemcachedClient(pool) for sid, pool in enumerate(pools)},
            PLACER,
            retry_policy=RetryPolicy(connect_timeout=2.0, request_timeout=2.0),
        )
        outcomes = await asyncio.gather(
            *(client.get_multi(KEYS[i : i + 8]) for i in range(0, len(KEYS), 4))
        )
        assert all(not outcome.missing for outcome in outcomes)
        return sum(len(pool.connections) for pool in pools)
    finally:
        for pool in pools:
            pool.close()


def _resource_warnings(run) -> list[str]:
    """What ``run()`` and a collection after it warn about unclosed resources."""
    gc.collect()  # what earlier tests left to the collector is not this fleet's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run() >= N_SERVERS  # the requests did open sockets
        gc.collect()
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


def test_a_fleet_torn_down_on_its_loop_leaves_no_resource_warning():
    async def fleet() -> int:
        servers = [AsyncMemcachedServer(backend) for backend in _backends()]
        try:
            return await _read_through_pools([await server.start() for server in servers])
        finally:
            for server in servers:
                await server.stop()

    assert _resource_warnings(lambda: asyncio.run(fleet())) == []


def test_a_client_loop_that_ends_before_its_servers_leaves_no_resource_warning():
    def fleet() -> int:
        handles = []
        try:
            for backend in _backends():
                handles.append(serve_aio(backend))
            return asyncio.run(_read_through_pools([addr for _, addr in handles]))
        finally:
            for handle, _ in handles:
                handle.stop()

    assert _resource_warnings(fleet) == []


ROOT = Path(__file__).resolve().parents[2]

BENCH_FLEET = """
import asyncio, gc
import live, spec as specs

async def main():
    spec = specs.LIVE["bulk_value_read"]
    assert spec.n_items == 2000
    fleet = await live.Fleet(spec, seed=7).start()
    try:
        keys = [specs.item_key(i) for i in range(spec.request_size)]
        outcome = await fleet.rnb.get_multi(keys)
        assert not outcome.missing
        assert all(outcome.values[k] == specs.preload_value(k, spec.value_bytes) for k in keys)
    finally:
        await fleet.stop()

asyncio.run(main())
gc.collect()
print("served")
"""


def test_the_benchmark_fleet_tears_down_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", BENCH_FLEET],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["served"]
    for marker in ("ResourceWarning", "Exception ignored", "Task was destroyed"):
        assert marker not in done.stderr, done.stderr
