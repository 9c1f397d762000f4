"""The server fleet: placement + memory budgeting + provisioning.

A :class:`Cluster` ties together a replica placer and N servers, and
implements the paper's memory accounting (section III-D):

* the *distinguished copy* of every item is pinned on its home server,
  consuming exactly the memory a no-replication deployment would use;
* the *additional* memory — ``(memory_factor - 1) x n_items`` item units,
  split evenly across servers — backs each server's replica LRU;
* ``memory_factor=None`` models unlimited memory (naive allocation,
  Fig 6), where every logical replica is physically resident.

``memory_factor`` is the paper's Fig 8 x-axis: 1.0 is "exactly enough
memory to store one copy of the data".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.cluster.lru import PinnedLRU, PriorityClassStore
from repro.cluster.placement import ReplicaPlacer
from repro.cluster.server import Server
from repro.errors import CapacityError, ConfigurationError
from repro.types import ItemId


class Cluster:
    """A fleet of simulated memcached servers behind one placer."""

    def __init__(
        self,
        placer: ReplicaPlacer,
        items: Iterable[ItemId],
        *,
        memory_factor: float | None = None,
        lru_policy: str = "pinned",
    ) -> None:
        self.placer = placer
        self.items: tuple[ItemId, ...] = tuple(items)
        if not self.items:
            raise ConfigurationError("a cluster must store at least one item")
        if memory_factor is not None and memory_factor < 1.0:
            raise CapacityError(
                "memory_factor below 1.0 cannot hold the distinguished copies "
                f"(got {memory_factor})"
            )
        if lru_policy not in ("pinned", "priority"):
            raise ConfigurationError(
                f"lru_policy must be 'pinned' or 'priority'; got {lru_policy!r}"
            )
        self.memory_factor = memory_factor
        self.lru_policy = lru_policy
        self.n_servers = placer.n_servers

        # A compiled table covering exactly our items has the groupings
        # ready (order-equivalent to the loops: items ascend per server)
        if isinstance(items, range) and items == range(getattr(placer, "n_items", 0)):
            homes, loads = placer.provisioning
        else:
            homes, loads = defaultdict(list), defaultdict(list)
            for item in self.items:
                homes[placer.distinguished_for(item)].append(item)
                for sid in placer.servers_for(item)[1:]:
                    loads[sid].append(item)

        self.servers: list[Server] = []
        for sid in range(self.n_servers):
            if memory_factor is None:
                store = PinnedLRU(None) if lru_policy == "pinned" else PriorityClassStore(None)
            elif lru_policy == "pinned":
                # fixed reserve: distinguished copies outside the LRU, the
                # extra memory split evenly as replica space (paper III-D)
                extra_total = (memory_factor - 1.0) * len(self.items)
                store = PinnedLRU(int(round(extra_total / self.n_servers)))
            else:
                # shared budget: one capacity for both classes; replicas
                # always evicted first.  Clamped so every server can hold
                # its distinguished copies even under placement imbalance.
                budget = int(round(memory_factor * len(self.items) / self.n_servers))
                store = PriorityClassStore(max(budget, len(homes.get(sid, ()))))
            self.servers.append(Server(sid, store=store))

        for sid, pinned in homes.items():
            self.servers[sid].pin_distinguished(pinned)

        # Initial data load: a write in RnB goes to every logical replica
        # (section III-G), so all replicas are inserted at load time; with
        # limited memory the per-server LRUs immediately trim the overflow,
        # and the warmup phase then re-orders survivors by actual use.
        # With memory_factor=None (naive allocation) everything stays
        # resident, giving exactly Fig 6's setting.  Servers are
        # independent, so loading each one's replicas in item order
        # reproduces the item-by-item load exactly.
        for sid, items in loads.items():
            self.servers[sid].preload_replicas(items)

        #: optional fault-injection gate (see repro.faults.injector); when
        #: attached, server accesses may raise ServerDown / ServerTimeout
        self.injector = None

    # -- access -----------------------------------------------------------

    def server(self, sid: int) -> Server:
        """The server behind ``sid`` — the *faultable* access path.

        With an injector attached this raises
        :class:`repro.errors.ServerDown` for crash-stopped servers and
        :class:`repro.errors.ServerTimeout` for transiently failing
        attempts; callers that need raw access (provisioning, metrics)
        should index ``cluster.servers`` directly.
        """
        if self.injector is not None:
            self.injector.check(sid)
        return self.servers[sid]

    def attach_injector(self, injector) -> "Cluster":
        """Gate ``server()`` accesses through a fault injector.

        Also stamps per-server latency multipliers for slow servers.
        Pass ``None`` to detach.  Returns the cluster for chaining.
        """
        self.injector = injector
        if injector is not None:
            injector.apply_latency(self)
        else:
            for server in self.servers:
                server.latency_multiplier = 1.0
        return self

    def add_server(self, sid: int) -> Server:
        """Provision empty server slots up through id ``sid`` (elastic join).

        New servers start with nothing resident; membership repair (or
        foreground misses) populates them.  Under limited memory each
        new server gets the same replica budget existing ones got —
        joining grows the fleet's total memory, as in the paper's
        provisioning model.
        """
        while len(self.servers) <= sid:
            new_id = len(self.servers)
            if self.memory_factor is None:
                store = (
                    PinnedLRU(None)
                    if self.lru_policy == "pinned"
                    else PriorityClassStore(None)
                )
            elif self.lru_policy == "pinned":
                extra_total = (self.memory_factor - 1.0) * len(self.items)
                store = PinnedLRU(int(round(extra_total / self.n_servers)))
            else:
                budget = int(
                    round(self.memory_factor * len(self.items) / self.n_servers)
                )
                store = PriorityClassStore(max(budget, 1))
            self.servers.append(Server(new_id, store=store))
        self.n_servers = len(self.servers)
        return self.servers[sid]

    def wipe_server(self, sid: int) -> None:
        """Simulate a crash losing server ``sid``'s memory (not its budget).

        The fleet keeps serving; re-replication (``repro.membership``)
        is responsible for restoring the lost copies elsewhere.
        """
        self.servers[sid].wipe()

    def __len__(self) -> int:
        return self.n_servers

    def __iter__(self):
        return iter(self.servers)

    # -- memory introspection ----------------------------------------------

    @property
    def replica_capacity_per_server(self) -> int | None:
        return self.servers[0].store.replica_capacity

    def total_resident_items(self) -> int:
        """Physically resident copies across the fleet (pinned + replicas)."""
        return sum(s.resident_items for s in self.servers)

    def effective_memory_factor(self) -> float:
        """Resident copies relative to one full copy of the data.

        For limited-memory runs this converges to ``memory_factor`` once
        the LRUs fill; for unlimited memory it equals the replication
        level.
        """
        return self.total_resident_items() / len(self.items)

    # -- counters -----------------------------------------------------------

    def reset_counters(self) -> None:
        """Clear per-server work counters (used between warmup and measure)."""
        for s in self.servers:
            s.reset_counters()

    def total_transactions(self) -> int:
        return sum(s.counters.transactions for s in self.servers)

    def per_server_transactions(self) -> list[int]:
        return [s.counters.transactions for s in self.servers]

    def txn_size_histogram(self):
        """Fleet-wide histogram of items per transaction."""
        from repro.utils.histogram import Histogram

        h = Histogram()
        for s in self.servers:
            h.merge(s.counters.txn_sizes)
        return h
