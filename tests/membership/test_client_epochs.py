"""Client-side epoch handling: dead verdicts become membership changes,
and both clients re-cover over the new view mid-stream."""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.faults.ftclient import FaultTolerantRnBClient
from repro.faults.health import HealthTracker
from repro.faults.injector import FaultInjector
from repro.membership import (
    EpochedPlacer,
    MembershipService,
    make_cluster_service,
)
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport
from repro.types import Request

N_ITEMS = 300


def make_sim_stack(n=8, r=3, *, dead_after=2, confirm_after=1):
    placer = EpochedPlacer("rch", n, r, seed=5, vnodes=32)
    cluster = Cluster(placer, range(N_ITEMS))
    injector = FaultInjector()
    cluster.attach_injector(injector)
    service = make_cluster_service(
        cluster, placer, confirm_after=confirm_after, repair_rate=None
    )
    health = HealthTracker(n, dead_after=dead_after)
    client = FaultTolerantRnBClient(
        cluster, Bundler(placer), health=health, membership=service
    )
    return placer, cluster, injector, service, client


class TestSimulatorClient:
    def test_dead_verdict_commits_removal_and_request_completes(self):
        placer, cluster, injector, service, client = make_sim_stack()
        injector.kill(2)
        cluster.wipe_server(2)
        committed = 0
        for start in range(0, N_ITEMS, 25):
            req = Request(items=tuple(range(start, start + 25)))
            res = client.execute(req)
            assert res.items_fetched == 25  # availability holds throughout
            committed += res.membership_commits
            if committed:
                break
        assert committed == 1
        assert placer.epoch == 1
        assert 2 not in service.view.alive_servers
        assert res.epoch == 1

    def test_view_refresh_flag_on_external_epoch_change(self):
        placer, cluster, injector, service, client = make_sim_stack()
        # another actor moves the topology between this client's requests
        service.propose_removal(5, source="other-client")
        res = client.execute(Request(items=(0, 1, 2)))
        assert res.view_refreshed
        assert res.epoch == 1
        res2 = client.execute(Request(items=(3, 4)))
        assert not res2.view_refreshed

    def test_quorum_requires_distinct_clients(self):
        placer, cluster, injector, service, _ = make_sim_stack(confirm_after=2)
        # each client has its OWN health view (as real clients would), so
        # both independently contact the dead server and reach a verdict
        a = FaultTolerantRnBClient(
            cluster,
            Bundler(placer),
            health=HealthTracker(8, dead_after=1),
            membership=service,
        )
        b = FaultTolerantRnBClient(
            cluster,
            Bundler(placer),
            health=HealthTracker(8, dead_after=1),
            membership=service,
        )
        injector.kill(1)
        # items all replicated on the victim force it into both covers
        items = tuple(i for i in range(N_ITEMS) if 1 in placer.servers_for(i))[:40]
        ra = a.execute(Request(items=items))
        assert ra.membership_commits == 0 and placer.epoch == 0
        rb = b.execute(Request(items=items))
        assert rb.membership_commits == 1 and placer.epoch == 1

    def test_repair_restores_full_replication_after_commit(self):
        placer, cluster, injector, service, client = make_sim_stack()
        injector.kill(2)
        cluster.wipe_server(2)
        for start in range(0, N_ITEMS, 25):
            client.execute(Request(items=tuple(range(start, start + 25))))
        service.tick(clock=0)  # unthrottled drain
        assert service.pending_repair() == 0
        for i in range(N_ITEMS):
            for s in placer.servers_for(i):
                assert i in cluster.servers[s].store


class FailableTransport(LoopbackTransport):
    def __init__(self, server):
        super().__init__(server)
        self.alive = True

    def exchange(self, request, n_responses=1):
        if not self.alive:
            raise ConnectionError("server down")
        return super().exchange(request, n_responses)


class TestProtocolClient:
    def make_stack(self, n=6, r=3):
        placer = EpochedPlacer("rch", n, r, seed=5, vnodes=32)
        servers = {i: MemcachedServer(name=f"m{i}") for i in range(n)}
        transports = {i: FailableTransport(servers[i]) for i in range(n)}
        conns = {i: MemcachedConnection(transports[i]) for i in range(n)}
        # protocol-side service: placement-only healing (no simulator
        # cluster behind it), which is exactly the client's contract
        service = MembershipService(placer, [], confirm_after=1)
        health = HealthTracker(n, dead_after=2)
        client = RnBProtocolClient(
            conns, placer, health=health, membership=service
        )
        return placer, transports, service, client

    def test_dead_transport_commits_removal(self):
        placer, transports, service, client = self.make_stack()
        keys = [f"k{i}" for i in range(60)]
        for k in keys:
            client.set(k, k.encode())
        transports[1].alive = False
        # requests of keys all replicated on server 1 make it the best
        # greedy pick, so the client is guaranteed to observe the failure
        on_1 = [k for k in keys if 1 in placer.servers_for(k)]
        assert len(on_1) >= 4
        out = None
        for attempt in range(4):  # dead_after=2 errors, then the commit
            out = client.get_multi(on_1)
            assert not out.missing
            if out.membership_commits:
                break
        assert placer.epoch == 1
        assert 1 not in service.view.alive_servers
        assert out.epoch == 1
        # subsequent plans never touch the removed server
        out2 = client.get_multi(keys)
        assert not out2.missing
        assert 1 not in {
            s for s in out2.failed_servers
        }  # never even attempted

    def test_epoched_placer_relaxes_connection_validation(self):
        # connections may cover only the alive servers of the view
        placer = EpochedPlacer("rch", 4, 2, seed=5, vnodes=32)
        placer.install_view(placer.view.without(3))
        servers = {i: MemcachedServer(name=f"m{i}") for i in (0, 1, 2)}
        conns = {
            i: MemcachedConnection(LoopbackTransport(servers[i])) for i in (0, 1, 2)
        }
        client = RnBProtocolClient(conns, placer)
        client.set("a", b"1")
        assert client.get("a") == b"1"
