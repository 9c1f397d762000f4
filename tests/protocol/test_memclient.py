"""Tests for the plain and sharded memcached clients."""

from __future__ import annotations

import pytest

from repro.protocol.memclient import MemcachedConnection, ShardedClient
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport


def conn(server=None):
    return MemcachedConnection(LoopbackTransport(server or MemcachedServer()))


class TestConnection:
    def test_set_get(self):
        c = conn()
        assert c.set("a", b"v")
        assert c.get("a") == b"v"
        assert c.get("missing") is None

    def test_get_multi_one_transaction(self):
        c = conn()
        for i in range(5):
            c.set(f"k{i}", str(i).encode())
        before = c.transactions
        out = c.get_multi([f"k{i}" for i in range(5)] + ["nope"])
        assert c.transactions == before + 1
        assert len(out) == 5

    def test_get_multi_empty(self):
        c = conn()
        assert c.get_multi([]) == {}

    def test_with_cas(self):
        c = conn()
        c.set("a", b"v")
        out = c.get_multi(["a"], with_cas=True)
        value, cas = out["a"]
        assert value == b"v"
        assert c.cas("a", b"v2", cas) == "STORED"
        assert c.cas("a", b"v3", cas) == "EXISTS"

    def test_gets_returns_value_and_cas_id(self):
        c = conn()
        c.set("a", b"v")
        value, cas = c.gets("a")
        assert (value, cas) == c.get_multi(["a"], with_cas=True)["a"]
        assert value == b"v" and c.gets("missing") is None
        assert c.cas("a", b"v2", cas) == "STORED"
        assert c.gets("a")[1] != cas

    def test_delete(self):
        c = conn()
        c.set("a", b"v")
        assert c.delete("a")
        assert not c.delete("a")

    def test_flush_and_stats(self):
        c = conn()
        c.set("a", b"v")
        c.flush_all()
        assert c.get("a") is None
        stats = c.stats()
        assert "cmd_get" in stats


class TestShardedClient:
    def make(self, n=4):
        servers = {i: MemcachedServer(name=f"m{i}") for i in range(n)}
        conns = {i: MemcachedConnection(LoopbackTransport(servers[i])) for i in range(n)}
        return servers, ShardedClient(conns, vnodes=32, seed=0)

    def test_needs_connections(self):
        with pytest.raises(ValueError):
            ShardedClient({})

    def test_routing_stable(self):
        _, client = self.make()
        assert client.server_for("key1") == client.server_for("key1")

    def test_set_get_roundtrip(self):
        servers, client = self.make()
        for i in range(50):
            client.set(f"key{i}", str(i).encode())
        for i in range(50):
            assert client.get(f"key{i}") == str(i).encode()

    def test_key_stored_on_routed_server_only(self):
        servers, client = self.make()
        client.set("solo", b"x")
        home = client.server_for("solo")
        for sid, server in servers.items():
            assert ("solo" in server) == (sid == home)

    def test_multiget_splits_by_server(self):
        servers, client = self.make()
        keys = [f"key{i}" for i in range(40)]
        for k in keys:
            client.set(k, b"v")
        values, txns = client.get_multi(keys)
        assert len(values) == 40
        homes = {client.server_for(k) for k in keys}
        assert txns == len(homes)

    def test_multiget_hole_manifests(self):
        """With 4 servers and 40 keys, the classic client needs ~4 txns —
        this is the inefficiency RnB attacks."""
        _, client = self.make(n=4)
        keys = [f"key{i}" for i in range(40)]
        for k in keys:
            client.set(k, b"v")
        _, txns = client.get_multi(keys)
        assert txns == 4
