"""One request engine, two drivers: the sync and async live clients, side by side.

Every scenario below builds two identical fleets from one seed — blocking
loopback connections for :class:`RnBProtocolClient`, real sockets for
:class:`AsyncRnBClient` — and drives both through the same requests.  Every
:class:`MultiGetOutcome` field but ``deadline_hit`` (the order of ``values``
included), every backend's counters, the health and breaker state afterwards
and the number of plans made must be equal: the two clients differ in how a
wave of calls runs, not in what the waves are.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnectionPool
from repro.consistency.version import VersionStamp, encode_versioned
from repro.core.bundling import Bundler
from repro.faults.health import HealthTracker
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.membership import EpochedPlacer
from repro.obs import MetricsRegistry
from repro.overload.breaker import BreakerBoard
from repro.overload.load import AdmissionControl
from repro.protocol.codec import Command, format_status
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport
from repro.types import Request

SEED = 2013
KEYS = tuple(f"key{i}" for i in range(40))
GHOSTS = ("ghost0", "ghost1")  # never written: missing on every replica
RETRY = RetryPolicy(
    connect_timeout=2.0, request_timeout=2.0, max_retries=2, backoff_base=0.001
)
STATS = ("cmd_get", "get_hits", "get_misses", "cmd_set")
ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Scenario:
    n: int = 6
    r: int = 3
    seed: int = SEED
    dead: tuple[int, ...] = ()  # servers down before the first request
    busy: tuple[int, ...] = ()  # servers whose admission gate sheds every get
    evict: bool = False  # every third key keeps only its distinguished copy
    limit: float | None = None
    retry: bool = False
    flaky: bool = False  # the first request's last transaction fails once
    drop: int | None = None  # epoched placer: leaves the view once clients exist


def requests() -> list[tuple[str, ...]]:
    rng = random.Random(SEED)
    return [
        KEYS + GHOSTS,
        *(tuple(rng.sample(KEYS, 20)) for _ in range(4)),
        KEYS[:10] + GHOSTS,
        KEYS + GHOSTS,
    ]


def always_busy() -> AdmissionControl:
    gate = AdmissionControl(queue_limit=1)
    gate.outstanding = 1  # permanently full: every get sheds BUSY
    return gate


class ShedsSets(MemcachedServer):
    """A backend that sheds every ``set`` with ``SERVER_ERROR busy``."""

    def execute(self, cmd):
        if cmd.name == "set":
            return format_status("SERVER_ERROR busy")
        return super().execute(cmd)


class CountingBundler(Bundler):
    def __init__(self, placer) -> None:
        super().__init__(placer)
        self.plans = 0

    def plan(self, request, **kwargs):
        self.plans += 1
        return super().plan(request, **kwargs)


class Fleet:
    """One side's placer, preloaded backends and client options."""

    def __init__(self, s: Scenario, *, metrics=None, backends=None) -> None:
        self.s = s
        if s.drop is not None:
            self.placer = EpochedPlacer("rch", s.n, s.r, seed=s.seed)
        else:
            self.placer = RangedConsistentHashPlacer(s.n, s.r, seed=s.seed)
        self.backends = [
            (backends or {}).get(i, MemcachedServer)(
                name=f"s{i}", admission=always_busy() if i in s.busy else None
            )
            for i in range(s.n)
        ]
        for i, key in enumerate(KEYS):
            homes = self.placer.servers_for(key)
            for sid in homes[:1] if s.evict and i % 3 == 0 else homes:
                self.plant(sid, key, key.encode())
        self.bundler = CountingBundler(self.placer)
        breakers = BreakerBoard(s.n, seed=s.seed)
        self.breaker_gauges = MetricsRegistry()
        breakers.bind_metrics(self.breaker_gauges)
        self.options = dict(
            bundler=self.bundler,
            health=HealthTracker(s.n),
            breakers=breakers,
            retry_policy=RETRY if s.retry else None,
            metrics=metrics,
        )

    def plant(self, sid: int, key: str, data: bytes) -> None:
        self.backends[sid].execute(Command(name="set", keys=(key,), data=data))

    def value(self, sid: int, key: str) -> bytes | None:
        entry = self.backends[sid]._get_live(key)
        return None if entry is None else bytes(entry.data)

    def counters(self) -> list[list[int]]:
        return [[b.stats[k] for k in STATS] for b in self.backends]

    def victim(self, keys) -> int:
        """The server of the last transaction the first request plans."""
        return self.bundler.plan(Request(items=tuple(keys))).transactions[-1].server

    def state(self, client) -> dict:
        return {
            "health": client.health.snapshot(),
            "breakers": self.breaker_gauges.snapshot(),
        }

    def reads(self, client, outcomes, before) -> dict:
        def comparable(outcome):
            fields = dataclasses.asdict(outcome)
            del fields["deadline_hit"]
            fields["values"] = list(outcome.values.items())
            return fields

        return {
            "outcomes": [comparable(o) for o in outcomes],
            "stats": [
                [now - then for now, then in zip(after, was)]
                for after, was in zip(self.counters(), before)
            ],
            "plans": self.bundler.plans,
            **self.state(client),
        }


class Switch(LoopbackTransport):
    """Loopback with a kill switch and a one-shot fault; every request it
    carries goes into its fleet's ``log``, in the order the client sent it."""

    def __init__(self, server, log: list) -> None:
        super().__init__(server)
        self.alive = True
        self.fail_next = False
        self.log = log

    def exchange(self, request, n_responses=1):
        if not self.alive:
            raise ConnectionRefusedError(f"{self.server.name} down")
        if self.fail_next:
            self.fail_next = False
            raise ConnectionResetError(f"{self.server.name} cut the link")
        self.log.append((self.server.name, bytes(request)))
        return super().exchange(request, n_responses)


def sync_side(s: Scenario, **fleet_kwargs):
    fleet = Fleet(s, **fleet_kwargs)
    fleet.log = []
    fleet.links = [Switch(b, fleet.log) for b in fleet.backends]
    client = RnBProtocolClient(
        {sid: MemcachedConnection(link) for sid, link in enumerate(fleet.links)},
        fleet.placer,
        sleep=lambda delay: None,
        **fleet.options,
    )
    for sid in s.dead:
        fleet.links[sid].alive = False
    if s.drop is not None:
        fleet.placer.install_view(fleet.placer.view.without(s.drop))
    return fleet, client


def run_sync(s: Scenario, reqs=None) -> dict:
    reqs = reqs or requests()
    fleet, client = sync_side(s)
    if s.flaky:
        fleet.links[fleet.victim(reqs[0])].fail_next = True
    before = fleet.counters()
    outcomes = [client.get_multi(keys, limit_fraction=s.limit) for keys in reqs]
    return fleet.reads(client, outcomes, before)


class AsyncSide:
    """The async twin of :func:`sync_side`: a live fleet, torn down on exit."""

    def __init__(self, s: Scenario, **fleet_kwargs) -> None:
        self.fleet = Fleet(s, **fleet_kwargs)
        self.armed = [False] * s.n
        self.servers = [
            AsyncMemcachedServer(b, gate=self._gate(sid))
            for sid, b in enumerate(self.fleet.backends)
        ]

    def _gate(self, sid: int):
        def gate() -> bool:  # once armed, drops the next request unanswered
            cut, self.armed[sid] = self.armed[sid], False
            return cut

        return gate

    async def kill(self, sid: int) -> None:
        await self.servers[sid].stop()
        self.pools[sid].close()

    async def __aenter__(self) -> "AsyncSide":
        addrs = [await server.start() for server in self.servers]
        self.pools = [
            AsyncConnectionPool(h, p, size=1, connect_timeout=2.0, read_timeout=2.0)
            for h, p in addrs
        ]

        async def sleep(delay: float) -> None:
            pass

        self.client = AsyncRnBClient(
            {sid: AsyncMemcachedClient(pool) for sid, pool in enumerate(self.pools)},
            self.fleet.placer,
            sleep=sleep,
            **self.fleet.options,
        )
        await asyncio.gather(
            *(c.get("warm") for c in self.client.connections.values()),
            return_exceptions=True,  # a shedding server sheds this too
        )
        for sid in self.fleet.s.dead:
            await self.kill(sid)
        if self.fleet.s.drop is not None:
            placer = self.fleet.placer
            placer.install_view(placer.view.without(self.fleet.s.drop))
        return self

    async def __aexit__(self, *exc):
        for pool in self.pools:
            pool.close()
        for server in self.servers:
            await server.stop()
        return False


def run_async(s: Scenario, reqs=None) -> dict:
    reqs = reqs or requests()

    async def scenario():
        async with AsyncSide(s) as side:
            fleet, client = side.fleet, side.client
            if s.flaky:
                side.armed[fleet.victim(reqs[0])] = True
            before = fleet.counters()
            outcomes = [await client.get_multi(keys, limit_fraction=s.limit) for keys in reqs]
            return fleet.reads(client, outcomes, before)

    return asyncio.run(scenario())


def agree(s: Scenario, reqs=None) -> dict:
    """Both clients' summaries, asserted equal; the sync one is returned."""
    sync = run_sync(s, reqs)
    assert sync == run_async(s, reqs)
    return sync


class TestReads:
    def test_healthy_fleet(self):
        out = agree(Scenario())
        for outcome in out["outcomes"]:
            assert set(outcome["missing"]) <= set(GHOSTS)
            assert outcome["failed_servers"] == () and outcome["retries"] == 0
        assert out["plans"] == len(requests())

    def test_evicted_replicas_are_repaired_and_written_back(self):
        out = agree(Scenario(evict=True))
        first, last = out["outcomes"][0], out["outcomes"][-1]
        assert first["misses_repaired"] > 0 and first["missing"] == GHOSTS
        assert sum(row[STATS.index("cmd_set")] for row in out["stats"]) > 0
        assert last["misses_repaired"] < first["misses_repaired"]

    @pytest.mark.parametrize("dead", [(2,), (2, 3)], ids=["one", "two"])
    def test_dead_servers(self, dead):
        out = agree(Scenario(dead=dead))
        first = out["outcomes"][0]
        assert set(dead) <= set(first["failed_servers"])
        assert first["missing"] == GHOSTS  # R=3 leaves a replica of every key

    @pytest.mark.parametrize("limit", [0.5, 0.9])
    def test_limit_with_a_dead_server(self, limit):
        out = agree(Scenario(dead=(2,), limit=limit))
        for keys, outcome in zip(requests(), out["outcomes"]):
            required = Request(items=keys, limit_fraction=limit).required_items
            assert len(outcome["values"]) >= min(required, len(set(keys) - set(GHOSTS)))

    def test_a_server_that_sheds_every_get(self):
        out = agree(Scenario(busy=(3,), retry=True))
        assert out["outcomes"][0]["busy_sheds"] > 0  # the sync client counts them too
        assert out["outcomes"][0]["missing"] == GHOSTS

    def test_a_first_attempt_failure_is_retried(self):
        out = agree(Scenario(flaky=True, retry=True))
        first = out["outcomes"][0]
        assert (first["retries"], first["failed_servers"]) == (1, ())

    def test_an_epoch_change_replans_the_missing_keys(self):
        out = agree(Scenario(drop=5))
        assert all(o["epoch"] == 1 for o in out["outcomes"])
        # one re-plan: the first request under the new view still misses the ghosts
        assert out["plans"] == len(requests()) + 1


# 2 of 8 servers dead and a 50 % quota over 40 keys: the async client's repair
# waves used to ignore the quota (39 values in 12 transactions)
LIMIT_OVERFETCH = Scenario(n=8, r=2, seed=0, dead=(3, 7), limit=0.5)


@pytest.mark.parametrize("run", [run_sync, run_async], ids=["sync", "aio"])
def test_limit_repair_waves_ask_no_more_than_the_quota(run):
    [outcome] = run(LIMIT_OVERFETCH, [KEYS])["outcomes"]
    assert len(outcome["values"]) == 20
    assert outcome["failed_servers"] == (3, 7)


def test_limit_repair_waves_agree():
    agree(LIMIT_OVERFETCH, [KEYS])


FETCH = """
from tests.protocol.test_live_parity import KEYS, Scenario, sync_side
for limit in (None, 0.5):
    fleet, client = sync_side(Scenario(dead=(2, 3), limit=limit))
    out = client.get_multi(KEYS, limit_fraction=limit)
    print(list(out.values))
    print(fleet.log)
"""


def test_repair_order_does_not_depend_on_the_hash_seed():
    def fetch(seed: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", FETCH],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    first = fetch("1")
    assert first.count("\n") == 4
    assert fetch("2") == first and fetch("3") == first


class TestSyncWaves:
    """What the sync client does differently now that it runs the shared engine."""

    def test_write_backs_follow_the_whole_repair_wave(self):
        fleet, client = sync_side(Scenario(evict=True))
        out = client.get_multi(KEYS)
        assert out.second_round_transactions >= 2 and not out.missing
        verbs = [request.split(b" ", 1)[0] for _, request in fleet.log]
        first_set = verbs.index(b"set")
        assert set(verbs[first_set:]) == {b"set"}

    def test_set_and_delete_try_every_replica_then_raise_the_first_failure(self):
        fleet, client = sync_side(Scenario())
        key = KEYS[0]
        first, middle, last = fleet.placer.servers_for(key)
        fleet.links[first].alive = fleet.links[last].alive = False
        with pytest.raises(ConnectionRefusedError, match=f"s{first} down"):
            client.set(key, b"new")
        assert fleet.value(middle, key) == b"new"
        with pytest.raises(ConnectionRefusedError, match=f"s{first} down"):
            client.delete(key)
        assert fleet.value(middle, key) is None


def drop_path(snapshot: dict) -> dict:
    """A registry snapshot with every series' ``path`` label removed."""
    strip = re.compile(r',?path="[^"]*"')
    return {
        name: {
            **family,
            "series": {
                strip.sub("", labels).lstrip(","): value
                for labels, value in family["series"].items()
            },
        }
        for name, family in snapshot.items()
    }


async def versioned_script(fleet, call, kill) -> tuple[list, dict]:
    """Dead, stale and missing replicas under quorum writes and versioned reads;
    ``call(name, *args)`` runs one client method, ``kill(sid)`` downs a server."""
    placer = fleet.placer
    victim = placer.servers_for("a")[-1]
    # b, c and legacy keep every replica alive: b gets a stale copy, c loses one
    b, c, legacy = (
        next(k for k in (f"{p}{i}" for i in range(99)) if victim not in placer.servers_for(k))
        for p in ("b", "c", "legacy")
    )
    seen = [await call("set_versioned", key, key.encode()) for key in ("a", b, c)]
    fleet.plant(placer.servers_for(b)[-1], b, encode_versioned(b"old", VersionStamp(0, 0, 0)))
    fleet.backends[placer.servers_for(c)[-1]].execute(Command(name="delete", keys=(c,)))
    for sid in placer.servers_for(legacy)[:-1]:  # unversioned, one copy missing
        fleet.plant(sid, legacy, b"plain")
    await kill(victim)
    seen.append(await call("set_versioned", "a", b"a2"))
    seen.append(await call("set_versioned", "d", b"d", w="leader"))
    for key in ("a", b, c, legacy, b, "d"):
        seen.append(await call("get_versioned", key))
    values = {
        key: [fleet.value(sid, key) for sid in range(fleet.s.n)]
        for key in ("a", b, c, "d", legacy)
    }
    return seen, values


def on_both(s: Scenario, script, **fleet_kwargs) -> tuple:
    """``script(fleet, call, kill)`` on a sync and an async side, each with its
    own registry: ``(script result, health and breaker state, registry)`` per side."""

    def sync():
        registry = MetricsRegistry()
        fleet, client = sync_side(s, metrics=registry, **fleet_kwargs)

        async def call(name, *args, **kwargs):
            return getattr(client, name)(*args, **kwargs)

        async def kill(sid):
            fleet.links[sid].alive = False

        return asyncio.run(script(fleet, call, kill)), fleet.state(client), registry

    async def aio():
        registry = MetricsRegistry()
        async with AsyncSide(s, metrics=registry, **fleet_kwargs) as side:

            async def call(name, *args, **kwargs):
                return await getattr(side.client, name)(*args, **kwargs)

            result = await script(side.fleet, call, side.kill)
            return result, side.fleet.state(side.client), registry

    return sync(), asyncio.run(aio())


class TestVersioned:
    """``set_versioned`` / ``get_versioned`` run the :mod:`repro.consistency`
    steps on both clients: same outcomes, repairs, health, metric families."""

    def test_dead_stale_and_missing_replicas(self):
        (*sync, sync_registry), (*aio, aio_registry) = on_both(Scenario(), versioned_script)
        assert sync == aio
        assert drop_path(sync_registry.snapshot()) == drop_path(aio_registry.snapshot())
        (seen, values), _ = sync
        assert [w.outcome for w in seen[:3]] == ["committed"] * 3
        assert seen[3].outcome == "partial" and seen[4].committed
        read_a, read_b, read_c, legacy, again, _ = seen[5:]
        assert read_a.dead and read_b.stale and read_c.missing
        assert read_b.repaired == read_b.stale and read_c.repaired == read_c.missing
        assert not again.divergent
        # an unversioned copy is repaired as it was written: plain bytes
        assert legacy.repaired == legacy.missing and legacy.stamp is None
        assert sorted(v for v in values[legacy.key] if v is not None) == [b"plain"] * 3
        for family in ("rnb_quorum_acks", "rnb_divergence_repairs_total",
                       "rnb_reads_degraded_total"):
            assert any('path="aio"' in labels
                       for labels in aio_registry.snapshot()[family]["series"])

    def test_a_busy_reply_to_a_versioned_op_trips_the_breaker(self):
        s = Scenario()
        shedder = RangedConsistentHashPlacer(s.n, s.r, seed=s.seed).servers_for("a")[-1]

        async def writes(fleet, call, kill):
            return [await call("set_versioned", "a", b"v") for _ in range(3)]

        sync, aio = on_both(s, writes, backends={shedder: ShedsSets})
        assert sync[:2] == aio[:2]
        outcomes, state, _ = sync
        assert all(o.failed == (shedder,) and o.outcome == "partial" for o in outcomes)
        assert state["breakers"]["rnb_breaker_state"]["series"][f'server="{shedder}"'] == 2
        assert state["health"][shedder].total_errors == 0  # shed, not sick


def test_both_constructors_check_connections_against_the_view():
    # an epoch-aware placer routes only to the servers alive in its view
    placer = EpochedPlacer("rch", 4, 2, seed=SEED)
    placer.install_view(placer.view.without(3))
    backends = [MemcachedServer(name=f"s{i}") for i in range(3)]
    sync = RnBProtocolClient(
        {i: MemcachedConnection(LoopbackTransport(b)) for i, b in enumerate(backends)}, placer
    )
    aio = AsyncRnBClient({i: object() for i in range(3)}, placer)
    assert set(sync.connections) == set(aio.connections) == {0, 1, 2}
