"""The live clients' ``plan`` span brackets ``Bundler.plan``: it opens
before the planner runs and closes after it, on the tracer's own clock."""

from __future__ import annotations

import pytest

from repro.core.bundling import Bundler
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs.tracing import Tracer
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport

from tests.aio.test_rnbclient import ITEMS, N_SERVERS, R, _Cluster, run

PLAN_COST = 0.25  # exact in binary, so durations compare with ==
KEYSETS = [sorted(ITEMS)[i : i + 12] for i in (0, 12, 24)]


class ManualClock:
    """Time that moves only when someone moves it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class SlowBundler(Bundler):
    """A planner that takes ``PLAN_COST`` seconds of the injected clock."""

    def __init__(self, placer, clock: ManualClock) -> None:
        super().__init__(placer)
        self.clock = clock

    def plan(self, request, **kwargs):
        self.clock.now += PLAN_COST
        return super().plan(request, **kwargs)


def traced_sync():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    placer = RangedConsistentHashPlacer(N_SERVERS, R, seed=0)
    conns = {
        sid: MemcachedConnection(LoopbackTransport(MemcachedServer()))
        for sid in range(N_SERVERS)
    }
    client = RnBProtocolClient(
        conns, placer, bundler=SlowBundler(placer, clock), tracer=tracer
    )
    for key, value in ITEMS.items():
        client.set(key, value)
    return tracer, [client.get_multi(keys) for keys in KEYSETS]


def traced_aio():
    async def scenario():
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        async with _Cluster(tracer=tracer) as c:
            c.client.bundler = SlowBundler(c.placer, clock)
            c.preload(ITEMS)
            await c.warm()
            return tracer, [await c.client.get_multi(keys) for keys in KEYSETS]

    return run(scenario())


CLIENTS = pytest.mark.parametrize("traced", [traced_sync, traced_aio], ids=["sync", "aio"])


@CLIENTS
def test_plan_span_lasts_as_long_as_the_planner(traced):
    tracer, outcomes = traced()
    assert len(tracer.roots) == len(KEYSETS)
    for request, outcome in zip(tracer.roots, outcomes):
        assert not outcome.missing
        plan, *txns = request.children
        assert plan.name == "plan"
        assert plan.start == request.start
        assert plan.end - plan.start == PLAN_COST
        assert plan.attrs == {"n_txns": outcome.transactions}
        assert len(txns) == outcome.transactions
        assert all(txn.name == "txn" and txn.start == plan.end for txn in txns)
        assert request.duration == PLAN_COST  # nothing else moved the clock


@CLIENTS
def test_live_trace_renders_identically_on_an_injected_clock(traced):
    (first, _), (second, _) = traced(), traced()
    assert first.render() == second.render()
    assert first.token() == second.token()
