"""Tests for the paper-§IV atomic update on the request engine, the miss-repair
write-back that must not undo it, and versioned reads and writes on the wire."""

from __future__ import annotations

import threading

import pytest

from repro.consistency.version import MAGIC, decode_versioned
from repro.errors import ProtocolError
from repro.faults.health import HealthTracker
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs import MetricsRegistry
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport
from repro.types import Request

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
        new = client.atomic_update("counter", lambda v: str(int(v) + 1).encode())
        assert new == b"6"
        assert client.get("counter") == b"6"

    def test_strips_stale_replicas(self):
        placer, servers, client = make_stack()
        client.set("k", b"old")
        client.atomic_update("k", lambda v: b"new")
        # non-distinguished replicas must be gone (no stale reads)
        for sid in placer.servers_for("k")[1:]:
            assert "k" not in servers[sid]
        assert "k" in servers[placer.distinguished_for("k")]

    def test_creates_missing_key(self):
        _, _, client = make_stack()
        new = client.atomic_update("fresh", lambda v: b"init" if v is None else v)
        assert new == b"init"
        assert client.get("fresh") == b"init"

    def test_repopulate_eagerly(self):
        placer, servers, client = make_stack()
        client.set("k", b"1")
        client.atomic_update("k", lambda v: b"2", repopulate=True)
        for sid in placer.servers_for("k"):
            assert "k" in servers[sid]

    def test_concurrent_increments_all_counted(self):
        """16 threads x 10 increments: CAS retries must not lose updates."""
        _, _, client = make_stack()
        client.set("ctr", b"0")

        def bump():
            for _ in range(10):
                client.atomic_update("ctr", lambda v: str(int(v) + 1).encode(), max_retries=500)

        threads = [threading.Thread(target=bump) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
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
            client.atomic_update("k", hostile_update, max_retries=3)


def drive(client, wave):
    """Run one yielded wave of a request generator on the sync client."""
    calls, span = wave
    return [client._call(sid, op, args, {}, span) for sid, op, args in calls]


def resume(client, requests, results):
    """Send ``results`` to a request generator and run it to its return value."""
    try:
        wave = requests.send(results)
        while True:
            wave = requests.send(drive(client, wave))
    except StopIteration as stop:
        return stop.value


class TestWriteBackRace:
    """A reader's miss-repair write-back interleaved with an atomic update, one
    wave at a time: after both return, no copy of the key holds the old value."""

    KEYS = [f"k{i}" for i in range(40)]

    def fleet(self, *, home_reads: bool):
        """N = 8, R = 3, every key stored; returns the placer, the client and a
        key whose round-one read the plan sends to its home copy (``home_reads``)
        or to one of its replicas, with that server."""
        placer, _, client = make_stack(n_servers=8, replication=3)
        for key in self.KEYS:
            client.set(key, b"old")
        plan = client.bundler.plan(Request.distinct(self.KEYS))
        for txn in plan.transactions:
            for key in txn.primary:
                if (txn.server == placer.distinguished_for(key)) == home_reads:
                    return placer, client, key, txn.server
        raise AssertionError("no key read where the test needs it")

    def assert_every_copy_is_new_or_gone(self, placer, client, key):
        for sid in placer.servers_for(key):
            assert client.connections[sid].get(key) in (None, b"new"), sid
        fresh = RnBProtocolClient(client.connections, placer)
        assert fresh.get_multi(self.KEYS).values[key] == b"new"

    def reader_reads_old_from_home(self, client, key, home):
        """Start a reader's multi-get: round one misses ``key``, and its repair
        wave reads ``old`` from the home copy.  Returns the reader and what the
        repair wave got, not yet sent back."""
        reader = client._multi_get(self.KEYS, None, {})
        repair = reader.send(drive(client, next(reader)))
        assert [(sid, op) for sid, op, _ in repair[0]] == [(home, "get_multi")]
        got = drive(client, repair)
        assert got[0][key] == b"old"
        return reader, got

    def test_a_write_back_after_the_commit_is_undone(self):
        """(a) strip; round one misses on the replica; the repair reads ``old``
        from home; the CAS commits; the write-back lands after it."""
        placer, client, key, replica = self.fleet(home_reads=False)
        home = placer.distinguished_for(key)
        updater = client._atomic_update(key, lambda v: b"new", 16, False)
        stripped = drive(client, next(updater))
        reader, got = self.reader_reads_old_from_home(client, key, home)
        assert resume(client, updater, stripped) == b"new"
        resume(client, reader, got)
        self.assert_every_copy_is_new_or_gone(placer, client, key)

    def test_b_a_write_back_after_the_update_returns_is_undone(self):
        """(b) the repair reads ``old`` from home before the strip, and the
        write-back lands after ``atomic_update`` returned."""
        placer, client, key, replica = self.fleet(home_reads=False)
        client.connections[replica].delete(key)  # evicted: round one misses
        reader, got = self.reader_reads_old_from_home(
            client, key, placer.distinguished_for(key)
        )
        assert client.atomic_update(key, lambda v: b"new") == b"new"
        resume(client, reader, got)
        self.assert_every_copy_is_new_or_gone(placer, client, key)

    def test_a_write_back_checked_before_the_commit_is_stripped_after_it(self):
        """The reader's write-back and re-check both run between the strip and
        the CAS: the re-check still sees ``old`` at home, so the updater's
        post-commit strip is what removes the copy."""
        placer, client, key, replica = self.fleet(home_reads=False)
        updater = client._atomic_update(key, lambda v: b"new", 16, False)
        stripped = drive(client, next(updater))
        reader, got = self.reader_reads_old_from_home(
            client, key, placer.distinguished_for(key)
        )
        resume(client, reader, got)
        assert client.connections[replica].get(key) == b"old"  # current until the CAS
        assert resume(client, updater, stripped) == b"new"
        self.assert_every_copy_is_new_or_gone(placer, client, key)

    def test_a_write_back_to_the_home_copy_never_overwrites(self):
        """The home copy was evicted: the repair reads ``old`` from a replica, the
        update creates the key at home, and the reader's write-back to the home
        (an ``add``) leaves the update's value in place."""
        placer, client, key, home = self.fleet(home_reads=True)
        client.connections[home].delete(key)
        reader = client._multi_get(self.KEYS, None, {})
        repair = reader.send(drive(client, next(reader)))
        got = drive(client, repair)
        assert b"old" in [values.get(key) for values in got]
        assert client.atomic_update(key, lambda v: b"new" if v is None else v) == b"new"
        resume(client, reader, got)
        self.assert_every_copy_is_new_or_gone(placer, client, key)

    def test_a_repopulate_that_lands_after_a_later_update_is_undone(self):
        """Two updaters with ``repopulate``: the first commits, the second runs
        whole, then the first's repopulate lands; its re-check deletes it."""
        placer, client, key, _ = self.fleet(home_reads=False)
        first = client._atomic_update(key, lambda v: b"first", 16, True)
        cas = first.send(drive(client, first.send(drive(client, next(first)))))
        committed = drive(client, cas)
        assert committed == ["STORED"]
        assert client.atomic_update(key, lambda v: b"new", repopulate=True) == b"new"
        assert resume(client, first, committed) == b"first"
        self.assert_every_copy_is_new_or_gone(placer, client, key)

    def test_concurrent_creators_do_not_both_win(self):
        """Two updaters read an absent key; only one ``add`` creates it, and the
        other updates on top of it."""
        placer, _, client = make_stack(n_servers=8, replication=3)

        def bump(v):
            return b"1" if v is None else str(int(v) + 1).encode()

        first = client._atomic_update("ctr", bump, 16, False)
        second = client._atomic_update("ctr", bump, 16, False)
        reads = [updater.send(drive(client, next(updater))) for updater in (first, second)]
        absent = [drive(client, wave) for wave in reads]  # both gets: absent
        assert absent == [[None], [None]]
        assert resume(client, first, absent[0]) == b"1"
        assert resume(client, second, absent[1]) == b"2"
        assert client.get("ctr") == b"2"


class TestStripTolerance:
    def test_dead_replica_does_not_abort_the_update(self):
        placer, servers, transports, client = make_faultable_stack()
        client.set("k", b"1")
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        # the strip phase skips the dead server instead of raising
        assert client.atomic_update("k", lambda v: b"2") == b"2"
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
        client.atomic_update("k", lambda v: b"2")
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
            client.atomic_update("k", lambda v: b"2")
        series = registry.snapshot()["rnb_consistency_ops_total"]["series"]
        assert series['op="atomic_update",outcome="failed"'] == 1

    def test_dead_repopulate_target_is_skipped(self):
        placer, servers, transports, client = make_faultable_stack()
        client.set("k", b"1")
        victim = placer.servers_for("k")[-1]
        transports[victim].alive = False
        assert client.atomic_update("k", lambda v: b"2", repopulate=True) == b"2"
        for sid in placer.servers_for("k"):
            if sid != victim:
                assert "k" in servers[sid]


class TestObsWiring:
    def test_successful_update_counts_ok_and_cas_rounds(self):
        registry = MetricsRegistry()
        _, _, _, client = make_faultable_stack(metrics=registry)
        client.set("k", b"1")
        client.atomic_update("k", lambda v: b"2")
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
            client.atomic_update("k", hostile, max_retries=3)
        snap = registry.snapshot()
        assert (
            snap["rnb_consistency_ops_total"]["series"][
                'op="atomic_update",outcome="failed"'
            ]
            == 1
        )
        # the exhausted rounds were observed into the histogram
        assert snap["rnb_cas_retries"]["series"]['op="atomic_update"']["count"] == 1

    def test_metrics_free_client_works_unchanged(self):
        _, _, _, client = make_faultable_stack()  # no registry attached
        client.set("k", b"1")
        assert client.atomic_update("k", lambda v: b"2") == b"2"


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
