"""Shared simulated-cluster stack for the consistency suite."""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.placement import make_placer
from repro.consistency import ClusterStore
from repro.faults.injector import FaultInjector


class SimStack:
    """A faultable simulated fleet with its versioned replica store."""

    def __init__(self, n_servers=6, replication=3, n_items=40):
        self.placer = make_placer("rch", n_servers, replication, seed=0, vnodes=32)
        self.cluster = Cluster(self.placer, range(n_items), memory_factor=None)
        self.injector = FaultInjector()
        self.cluster.attach_injector(self.injector)
        self.store = ClusterStore(self.cluster, self.placer)
        self.n_items = n_items

    def kill(self, sid: int, *, wipe: bool = True) -> None:
        self.injector.kill(sid)
        if wipe:
            self.cluster.wipe_server(sid)

    def restore(self, sid: int) -> None:
        self.injector.restore(sid)

    def stamps_of(self, key):
        """``sid -> stamp`` over the key's replica set (raw access)."""
        return {
            sid: self.cluster.servers[sid].stamps.get(key)
            for sid in self.placer.servers_for(key)
            if key in self.cluster.servers[sid].store
        }


class BusyStore:
    """Replica-store wrapper that makes chosen servers shed writes."""

    def __init__(self, inner, busy=()):
        self.inner = inner
        self.busy = set(busy)

    def read(self, sid, key):
        return self.inner.read(sid, key)

    def write(self, sid, key, payload, stamp):
        if sid in self.busy:
            from repro.errors import ServerBusy

            raise ServerBusy(f"server {sid} shedding")
        self.inner.write(sid, key, payload, stamp)

    def delete(self, sid, key):
        self.inner.delete(sid, key)

    def local_keys(self, sid):
        return self.inner.local_keys(sid)
