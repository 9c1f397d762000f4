"""Tests for atomic updates and read repair over replicas."""

from __future__ import annotations

import threading

import pytest

from repro.consistency.version import MAGIC, decode_versioned
from repro.errors import ProtocolError
from repro.faults.health import HealthTracker
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs import MetricsRegistry
from repro.protocol.consistency import atomic_update, read_repair
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport

from tests.protocol.test_failover import FailableTransport


def make_stack(n_servers=4, replication=3):
    placer = RangedConsistentHashPlacer(n_servers, replication, vnodes=32)
    servers = {i: MemcachedServer(name=f"m{i}") for i in range(n_servers)}
    conns = {i: MemcachedConnection(LoopbackTransport(servers[i])) for i in range(n_servers)}
    return placer, servers, RnBProtocolClient(conns, placer)


def make_faultable_stack(n_servers=4, replication=3, *, metrics=None, writer_id=0):
    """Like :func:`make_stack`, but with kill-switch transports, a health
    tracker, and (optionally) an obs registry on the client."""
    placer = RangedConsistentHashPlacer(n_servers, replication, vnodes=32)
    servers = {i: MemcachedServer(name=f"m{i}") for i in range(n_servers)}
    transports = {i: FailableTransport(servers[i]) for i in range(n_servers)}
    conns = {i: MemcachedConnection(transports[i]) for i in range(n_servers)}
    client = RnBProtocolClient(
        conns,
        placer,
        health=HealthTracker(n_servers, dead_after=3),
        metrics=metrics,
        writer_id=writer_id,
    )
    return placer, servers, transports, client


class TestAtomicUpdate:
    def test_updates_value(self):
        _, _, client = make_stack()
        client.set("counter", b"5")
        new = atomic_update(client, "counter", lambda v: str(int(v) + 1).encode())
        assert new == b"6"
        assert client.get("counter") == b"6"

    def test_strips_stale_replicas(self):
        placer, servers, client = make_stack()
        client.set("k", b"old")
        atomic_update(client, "k", lambda v: b"new")
        # non-distinguished replicas must be gone (no stale reads)
        for sid in placer.servers_for("k")[1:]:
            assert "k" not in servers[sid]
        assert "k" in servers[placer.distinguished_for("k")]

    def test_creates_missing_key(self):
        _, _, client = make_stack()
        new = atomic_update(client, "fresh", lambda v: b"init" if v is None else v)
        assert new == b"init"
        assert client.get("fresh") == b"init"

    def test_repopulate_eagerly(self):
        placer, servers, client = make_stack()
        client.set("k", b"1")
        atomic_update(client, "k", lambda v: b"2", repopulate=True)
        for sid in placer.servers_for("k"):
            assert "k" in servers[sid]

    def test_concurrent_increments_all_counted(self):
        """16 threads x 10 increments: CAS retries must not lose updates."""
        _, _, client = make_stack()
        client.set("ctr", b"0")

        def bump():
            for _ in range(10):
                atomic_update(
                    client, "ctr", lambda v: str(int(v) + 1).encode(), max_retries=500
                )

        threads = [threading.Thread(target=bump) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert client.get("ctr") == b"160"

    def test_retry_exhaustion(self):
        placer, servers, client = make_stack()
        client.set("k", b"0")
        home = placer.distinguished_for("k")
        hot_conn = client.connections[home]

        def hostile_update(v):
            # sabotage: concurrently bump the cas id before our cas lands
            hot_conn.set("k", b"interference")
            return b"mine"

        with pytest.raises(ProtocolError):
            atomic_update(client, "k", hostile_update, max_retries=3)


class TestReadRepair:
    def test_repopulates_replicas(self):
        placer, servers, client = make_stack()
        client.set("k", b"v", replicate=False)
        assert read_repair(client, "k") == b"v"
        for sid in placer.servers_for("k"):
            assert "k" in servers[sid]

    def test_missing_key_returns_none(self):
        _, _, client = make_stack()
        assert read_repair(client, "ghost") is None


class TestStripTolerance:
    def test_dead_replica_does_not_abort_the_update(self):
        placer, servers, transports, client = make_faultable_stack()
        client.set("k", b"1")
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        # the strip phase skips the dead server instead of raising
        assert atomic_update(client, "k", lambda v: b"2") == b"2"
        assert client.health.state(victim) != "alive"
        # the other non-distinguished replicas were stripped normally
        for sid in placer.servers_for("k")[1:]:
            if sid != victim:
                assert "k" not in servers[sid]

    def test_strip_skips_are_counted(self):
        registry = MetricsRegistry()
        placer, _, transports, client = make_faultable_stack(metrics=registry)
        client.set("k", b"1")
        for sid in placer.servers_for("k")[1:]:
            transports[sid].alive = False
        atomic_update(client, "k", lambda v: b"2")
        series = registry.snapshot()["rnb_consistency_strip_skips_total"]["series"]
        assert series['op="atomic_update"'] == 2

    def test_dead_distinguished_still_fails(self):
        """The CAS serialisation point being down is not tolerable — the
        update must raise, and the failure is counted."""
        registry = MetricsRegistry()
        placer, _, transports, client = make_faultable_stack(metrics=registry)
        client.set("k", b"1")
        transports[placer.distinguished_for("k")].alive = False
        with pytest.raises(ConnectionError):
            atomic_update(client, "k", lambda v: b"2")
        series = registry.snapshot()["rnb_consistency_ops_total"]["series"]
        assert series['op="atomic_update",outcome="failed"'] == 1

    def test_dead_repopulate_target_is_skipped(self):
        placer, servers, transports, client = make_faultable_stack()
        client.set("k", b"1")
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        assert atomic_update(client, "k", lambda v: b"2", repopulate=True) == b"2"
        for sid in placer.servers_for("k"):
            if sid != victim:
                assert "k" in servers[sid]


class TestObsWiring:
    def test_successful_update_counts_ok_and_cas_rounds(self):
        registry = MetricsRegistry()
        _, _, _, client = make_faultable_stack(metrics=registry)
        client.set("k", b"1")
        atomic_update(client, "k", lambda v: b"2")
        snap = registry.snapshot()
        ops = snap["rnb_consistency_ops_total"]["series"]
        assert ops['op="atomic_update",outcome="ok"'] == 1
        hist = snap["rnb_cas_retries"]["series"]['op="atomic_update"']
        assert hist["count"] == 1

    def test_retry_exhaustion_counts_failed(self):
        registry = MetricsRegistry()
        placer, _, _, client = make_faultable_stack(metrics=registry)
        client.set("k", b"0")
        hot = client.connections[placer.distinguished_for("k")]

        def hostile(v):
            hot.set("k", b"interference")
            return b"mine"

        with pytest.raises(ProtocolError):
            atomic_update(client, "k", hostile, max_retries=3)
        snap = registry.snapshot()
        assert (
            snap["rnb_consistency_ops_total"]["series"][
                'op="atomic_update",outcome="failed"'
            ]
            == 1
        )
        # the exhausted rounds were observed into the histogram
        assert snap["rnb_cas_retries"]["series"]['op="atomic_update"']["count"] == 1

    def test_read_repair_counts_ok(self):
        registry = MetricsRegistry()
        _, _, _, client = make_faultable_stack(metrics=registry)
        client.set("k", b"v", replicate=False)
        read_repair(client, "k")
        ops = registry.snapshot()["rnb_consistency_ops_total"]["series"]
        assert ops['op="read_repair",outcome="ok"'] == 1

    def test_metrics_free_client_works_unchanged(self):
        _, _, _, client = make_faultable_stack()  # no registry attached
        client.set("k", b"1")
        assert atomic_update(client, "k", lambda v: b"2") == b"2"


class TestVersionedClient:
    """set_versioned / get_versioned over the live wire (``_on_wire`` path)."""

    def test_roundtrip_and_envelope(self):
        placer, _, _, client = make_faultable_stack(writer_id=3)
        outcome = client.set_versioned("k", b"hello")
        assert outcome.committed
        assert outcome.stamp.writer == 3
        read = client.get_versioned("k")
        assert read.payload == b"hello" and read.stamp == outcome.stamp
        # the raw wire value carries the envelope
        raw = client.connections[placer.distinguished_for("k")].get("k")
        assert raw.startswith(MAGIC)
        assert decode_versioned(raw) == (outcome.stamp, b"hello")

    def test_dead_replica_makes_the_write_partial(self):
        placer, _, transports, client = make_faultable_stack()
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        outcome = client.set_versioned("k", b"v")
        assert outcome.outcome == "partial"
        assert outcome.failed == (victim,)

    def test_stale_replica_detected_and_repaired(self):
        placer, _, transports, client = make_faultable_stack()
        client.set_versioned("k", b"v1")
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        second = client.set_versioned("k", b"v2")  # victim misses this
        transports[victim].alive = True
        read = client.get_versioned("k")
        assert read.divergent and read.stale == (victim,)
        assert read.payload == b"v2"
        assert read.repaired == (victim,)
        # the stale copy was overwritten with the newest version
        assert decode_versioned(client.connections[victim].get("k")) == (
            second.stamp,
            b"v2",
        )

    def test_missing_replica_detected_and_repaired(self):
        placer, servers, _, client = make_faultable_stack()
        client.set_versioned("k", b"v")
        victim = placer.servers_for("k")[-1]
        client.connections[victim].delete("k")
        read = client.get_versioned("k")
        assert read.missing == (victim,) and read.repaired == (victim,)
        assert "k" in servers[victim]

    def test_dead_distinguished_served_from_replicas(self):
        placer, _, transports, client = make_faultable_stack()
        outcome = client.set_versioned("k", b"v")
        home = placer.distinguished_for("k")
        transports[home].alive = False
        read = client.get_versioned("k")
        assert read.found and read.payload == b"v"
        assert read.stamp == outcome.stamp
        assert read.dead == (home,) and read.source != home

    def test_unversioned_value_reads_back_plain(self):
        _, _, _, client = make_faultable_stack()
        client.set("legacy", b"old-school")
        read = client.get_versioned("legacy")
        assert read.stamp is None and read.payload == b"old-school"
        assert not read.divergent

    def test_quorum_metrics_labelled_live(self):
        registry = MetricsRegistry()
        _, _, _, client = make_faultable_stack(metrics=registry)
        client.set_versioned("k", b"v")
        series = registry.snapshot()["rnb_quorum_writes_total"]["series"]
        assert series['outcome="committed",path="live"'] == 1
