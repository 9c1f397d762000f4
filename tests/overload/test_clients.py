"""Backpressure + breaker wiring through the simulated and live clients.

The contract under test, on both read paths:

* a shedding server (the injector's busy verdict on the simulated fleet,
  an admission-gated server on the live one) answers with a retryable
  BUSY verdict instead of queueing without bound;
* BUSY sheds trip circuit breakers but never the health tracker (a
  shedding server is alive — it must not be declared dead);
* tripped servers are excluded from covers exactly like dead ones, and
  requests keep completing from the surviving replicas (R >= 2).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.errors import ServerBusy
from repro.faults.ftclient import FaultTolerantRnBClient
from repro.faults.health import ALIVE, HealthTracker
from repro.faults.injector import FaultInjector
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.breaker import BreakerBoard
from repro.overload.load import AdmissionControl, TokenBucket
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport
from repro.types import Request

N_SERVERS = 6
N_ITEMS = 240


def never_admit() -> AdmissionControl:
    """An admission gate that sheds everything (empty, barely-refilling bucket)."""
    return AdmissionControl(bucket=TokenBucket(rate=1e-12, burst=1e-9))


class TestSimulatedServerGate:
    def test_busy_is_retryable_connection_error(self):
        assert issubclass(ServerBusy, ConnectionError)

    def test_no_admission_behaves_as_before(self):
        placer = RangedConsistentHashPlacer(N_SERVERS, 2, seed=0, vnodes=32)
        cluster = Cluster(placer, range(N_ITEMS))
        item = next(i for i in range(N_ITEMS) if placer.distinguished_for(i) == 0)
        hits, missed, hh = cluster.servers[0].multi_get((item,), ())
        assert hits == [item] and not missed


@pytest.fixture()
def ft_setup():
    placer = RangedConsistentHashPlacer(N_SERVERS, 2, seed=0, vnodes=32)
    cluster = Cluster(placer, range(N_ITEMS)).attach_injector(FaultInjector())
    board = BreakerBoard(N_SERVERS, trip_after=2, window=4, open_ticks=5, seed=7)
    health = HealthTracker(N_SERVERS)
    client = FaultTolerantRnBClient(
        cluster, Bundler(placer), health=health, breakers=board
    )
    return cluster, client, board, health


class TestFaultTolerantClient:
    def test_requests_complete_despite_shedding_server(self, ft_setup):
        cluster, client, board, health = ft_setup
        cluster.injector.set_busy(0)
        for start in range(0, N_ITEMS, 10):
            res = client.execute(Request(items=tuple(range(start, start + 10))))
            assert res.items_fetched == 10
            assert not res.unavailable

    def test_sheds_trip_breaker_but_not_health(self, ft_setup):
        cluster, client, board, health = ft_setup
        cluster.injector.set_busy(0)
        for start in range(0, 100, 10):
            client.execute(Request(items=tuple(range(start, start + 10))))
        assert board.state(0) in ("open", "half-open")
        assert health.state(0) == ALIVE

    def test_tripped_server_left_out_of_covers(self, ft_setup):
        cluster, client, board, health = ft_setup
        cluster.injector.set_busy(0)
        for start in range(0, 100, 10):
            client.execute(Request(items=tuple(range(start, start + 10))))
        assert board.state(0) == "open"
        res = client.execute(Request(items=tuple(range(10))))
        assert res.items_fetched == 10
        assert res.failovers == 0  # never even tried the tripped server
        assert 0 not in res.servers_contacted

    def test_breaker_heals_after_gate_lifts(self, ft_setup):
        cluster, client, board, health = ft_setup
        cluster.injector.set_busy(0)
        for start in range(0, 100, 10):
            client.execute(Request(items=tuple(range(start, start + 10))))
        cluster.injector.clear_busy(0)  # pressure gone
        # breaker clock advances one tick per request; once half-open, a
        # cover that touches server 0 is the probe — sweep the keyspace
        # so one eventually does — and its success closes the breaker
        for t in range(300):
            start = (t * 10) % (N_ITEMS - 10)
            client.execute(Request(items=tuple(range(start, start + 10))))
            if board.state(0) == "closed":
                break
        assert board.state(0) == "closed"

    def test_hard_faults_still_reach_health_through_observer(self, ft_setup):
        cluster, client, board, health = ft_setup
        # the observer wiring forwards ordinary errors: a dead server
        # trips the breaker too, with no second reporting call-site
        for _ in range(3):
            health.record_error(2)
        assert health.state(2) == "dead"
        assert board.state(2) == "open"

    def test_client_without_board_unchanged(self):
        placer = RangedConsistentHashPlacer(N_SERVERS, 2, seed=0, vnodes=32)
        cluster = Cluster(placer, range(N_ITEMS))
        client = FaultTolerantRnBClient(cluster, Bundler(placer))
        assert client.breakers is None
        res = client.execute(Request(items=(0, 1, 2)))
        assert res.items_fetched == 3


@pytest.fixture()
def live_setup():
    placer = RangedConsistentHashPlacer(4, 2, seed=0, vnodes=32)
    servers = {i: MemcachedServer() for i in range(4)}
    conns = {i: MemcachedConnection(LoopbackTransport(servers[i])) for i in range(4)}
    board = BreakerBoard(4, trip_after=2, window=4, open_ticks=3, seed=3)
    client = RnBProtocolClient(conns, placer, breakers=board)
    keys = [f"key:{i}" for i in range(60)]
    for k in keys:
        client.set(k, k.encode())
    return servers, client, board, keys


class TestProtocolClient:
    def test_health_auto_created_for_observer_wiring(self, live_setup):
        _, client, board, _ = live_setup
        assert client.health is not None

    def test_busy_server_fails_over_to_replicas(self, live_setup):
        servers, client, board, keys = live_setup
        servers[0].admission = never_admit()
        for start in range(0, 60, 10):
            out = client.get_multi(keys[start : start + 10])
            assert not out.missing
        assert servers[0].stats["busy_rejections"] > 0

    def test_sheds_trip_breaker_but_not_health(self, live_setup):
        servers, client, board, keys = live_setup
        servers[0].admission = never_admit()
        for start in range(0, 60, 10):
            client.get_multi(keys[start : start + 10])
        assert board.state(0) in ("open", "half-open")
        assert client.health.state(0) == ALIVE

    def test_tripped_server_excluded_from_plans(self, live_setup):
        servers, client, board, keys = live_setup
        servers[0].admission = never_admit()
        for start in range(0, 60, 10):
            client.get_multi(keys[start : start + 10])
        assert board.state(0) == "open"
        before = servers[0].stats["busy_rejections"]
        out = client.get_multi(keys[:10])
        assert not out.missing
        assert servers[0].stats["busy_rejections"] == before  # not contacted

    def test_memserver_counts_busy_rejections(self):
        server = MemcachedServer(admission=AdmissionControl(queue_limit=1))
        conn = MemcachedConnection(LoopbackTransport(server))
        conn.set("a", b"1")  # storage ops bypass the gate
        server.admission.outstanding = 1  # gate now full
        with pytest.raises(ServerBusy):
            conn.get("a")
        assert server.stats["busy_rejections"] == 1
        server.admission.finished()
        assert conn.get("a") == b"1"
