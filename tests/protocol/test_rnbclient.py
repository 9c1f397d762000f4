"""Tests for the protocol-level RnB client."""

from __future__ import annotations

import pytest

from repro.core.bundling import Bundler
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.health import HealthTracker
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.breaker import BreakerBoard
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport


def make_stack(n_servers=4, replication=3, capacity_bytes=None):
    placer = RangedConsistentHashPlacer(n_servers, replication, vnodes=32)
    servers = {
        i: MemcachedServer(capacity_bytes=capacity_bytes, name=f"m{i}")
        for i in range(n_servers)
    }
    conns = {i: MemcachedConnection(LoopbackTransport(servers[i])) for i in range(n_servers)}
    return placer, servers, RnBProtocolClient(conns, placer)


class TestWrites:
    def test_set_replicates_to_all(self):
        placer, servers, client = make_stack()
        client.set("user:1", b"status")
        for sid in placer.servers_for("user:1"):
            assert "user:1" in servers[sid]

    def test_set_distinguished_only(self):
        placer, servers, client = make_stack()
        client.set("user:2", b"s", replicate=False)
        expected = {placer.distinguished_for("user:2")}
        holders = {sid for sid, srv in servers.items() if "user:2" in srv}
        assert holders == expected

    def test_delete_removes_everywhere(self):
        placer, servers, client = make_stack()
        client.set("k", b"v")
        client.delete("k")
        assert all("k" not in srv for srv in servers.values())

    def test_connection_coverage_validated(self):
        placer = RangedConsistentHashPlacer(4, 2)
        conns = {0: None, 1: None}  # missing servers 2, 3
        with pytest.raises(ConfigurationError):
            RnBProtocolClient(conns, placer)

    def test_foreign_bundler_rejected(self):
        placer, servers, client = make_stack()
        other = RangedConsistentHashPlacer(4, 3)
        with pytest.raises(ConfigurationError):
            RnBProtocolClient(client.connections, placer, bundler=Bundler(other))


class TestBundledReads:
    def test_multi_get_all_values(self):
        _, _, client = make_stack()
        keys = [f"key{i}" for i in range(30)]
        for k in keys:
            client.set(k, k.encode())
        out = client.get_multi(keys)
        assert not out.missing
        assert out.values == {k: k.encode() for k in keys}

    def test_fewer_transactions_than_sharded(self):
        """RnB's whole point at protocol level: fewer multi-get txns."""
        placer, _, client = make_stack(n_servers=8, replication=4)
        keys = [f"key{i}" for i in range(60)]
        for k in keys:
            client.set(k, b"v")
        out = client.get_multi(keys)
        homes = {placer.distinguished_for(k) for k in keys}
        assert out.transactions < len(homes)

    def test_dedupes_keys(self):
        _, _, client = make_stack()
        client.set("a", b"1")
        out = client.get_multi(["a", "a", "a"])
        assert out.values == {"a": b"1"}

    def test_empty_keys(self):
        _, _, client = make_stack()
        out = client.get_multi([])
        assert out.transactions == 0

    def test_single_get_uses_distinguished(self):
        placer, servers, client = make_stack()
        client.set("solo", b"x")
        home = placer.distinguished_for("solo")
        before = servers[home].stats["cmd_get"]
        assert client.get("solo") == b"x"
        assert servers[home].stats["cmd_get"] == before + 1

    def test_truly_missing_keys_reported(self):
        _, _, client = make_stack()
        client.set("present", b"1")
        out = client.get_multi(["present", "ghost"])
        assert out.missing == ("ghost",)


class TestMissRepair:
    def test_evicted_replica_repaired_from_distinguished(self):
        """Evict a replica copy directly, then verify the multi-get still
        returns it (second round) and writes it back."""
        placer, servers, client = make_stack()
        keys = [f"key{i}" for i in range(20)]
        for k in keys:
            client.set(k, k.encode())
        # manually delete every non-distinguished replica of key5
        victim = "key5"
        for sid in placer.servers_for(victim)[1:]:
            servers[sid].handle(f"delete {victim}\r\n".encode())
        out = client.get_multi(keys)
        assert victim in out.values
        assert not out.missing

    def test_write_back_repopulates(self):
        placer, servers, client = make_stack()
        keys = [f"key{i}" for i in range(20)]
        for k in keys:
            client.set(k, k.encode())
        victim = "key7"
        replicas = placer.servers_for(victim)[1:]
        for sid in replicas:
            servers[sid].handle(f"delete {victim}\r\n".encode())
        first = client.get_multi(keys)
        second = client.get_multi(keys)
        assert second.second_round_transactions <= first.second_round_transactions
        assert second.misses_repaired <= first.misses_repaired

    def test_limit_fetches_fraction(self):
        _, _, client = make_stack(n_servers=8, replication=2)
        keys = [f"key{i}" for i in range(40)]
        for k in keys:
            client.set(k, b"v")
        out = client.get_multi(keys, limit_fraction=0.5)
        assert len(out.values) >= 20
        full = client.get_multi(keys)
        assert out.transactions <= full.transactions


class TestCallersBadKey:
    """A malformed key is the caller's error: raised before a byte is sent, with no
    plan, no retry, and no health or breaker strike against a healthy server."""

    BAD = ("bad key", "a b", "tab\tkey", "", "k" * 251)

    @staticmethod
    def guarded_stack():
        placer = RangedConsistentHashPlacer(4, 2, seed=0)
        servers = [MemcachedServer(name=f"m{i}") for i in range(4)]
        health, breakers, sleeps = HealthTracker(4), BreakerBoard(4, seed=3), []
        client = RnBProtocolClient(
            {i: MemcachedConnection(LoopbackTransport(s)) for i, s in enumerate(servers)},
            placer,
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.05),
            health=health,
            breakers=breakers,
            sleep=sleeps.append,
        )
        return servers, client, sleeps

    @staticmethod
    def assert_untouched(servers, client, sleeps, transactions):
        assert sleeps == []
        assert client.health.exclusions() == client.breakers.tripped() == frozenset()
        assert all(h.total_errors == 0 for h in client.health.snapshot().values())
        assert sum(s.stats["total_transactions"] for s in servers) == transactions

    def test_get_multi_raises_and_books_nothing(self):
        servers, client, sleeps = self.guarded_stack()
        keys = ["i000001", "i000002", "i000003"]
        for key in keys:
            client.set(key, b"v")
        sent = sum(s.stats["total_transactions"] for s in servers)
        for bad in self.BAD:
            with pytest.raises(ProtocolError):
                client.get_multi([*keys[:2], bad, keys[2]])
            self.assert_untouched(servers, client, sleeps, sent)
        # the parent returned retries=4, failed_servers=(1, 2) and planned every
        # later request around those two healthy servers
        outcome = client.get_multi(keys)
        assert outcome.values == dict.fromkeys(keys, b"v")
        assert (outcome.retries, outcome.failed_servers) == (0, ())

    def test_every_keyed_call_checks_its_key_first(self):
        servers, client, sleeps = self.guarded_stack()
        for bad in self.BAD:
            for call in (
                lambda: client.get(bad),
                lambda: client.set(bad, b"v"),
                lambda: client.delete(bad),
                lambda: client.set_versioned(bad, b"v"),
                lambda: client.get_versioned(bad),
            ):
                with pytest.raises(ProtocolError):
                    call()
        self.assert_untouched(servers, client, sleeps, 0)
