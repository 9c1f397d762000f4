"""Replica-placement policies and the ``ReplicaPlacer`` protocol.

A placer is any object mapping an item to an ordered tuple of distinct
server ids (index 0 = distinguished copy).  The library ships four:

* :class:`repro.hashing.rch.RangedConsistentHashPlacer` — the paper's
  recommended scheme (section IV).  At ``R = 1`` it is plain consistent
  hashing, the no-replication baseline (industry solution 1 in section
  II-C): an item's first RCH server is its consistent-hashing home.
* :class:`repro.hashing.multihash.MultiHashPlacer` — one independent hash
  function per replica (section III-B simulations).
* :class:`RandomPlacer` — uniform random replica sets, the model of the
  simplified Monte-Carlo simulator (section III-F).
* :class:`FullReplicationPlacer` — full-system replication in *banks*
  (industry solution 3 in section II-C, the paper's baseline): the fleet
  is split into ``banks`` groups, each holding a complete copy of the
  data, and a client directs any given request to one bank.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.hashing.hashfns import hash64_int, stable_hash64
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.types import ReplicaSet


@runtime_checkable
class ReplicaPlacer(Protocol):
    """Structural protocol all placement policies satisfy."""

    n_servers: int
    replication: int

    def replicas_for(self, item) -> ReplicaSet: ...

    def servers_for(self, item) -> tuple: ...

    def distinguished_for(self, item) -> int: ...


class FullReplicationPlacer:
    """Full-system replication: ``banks`` complete copies of the dataset.

    The ``n_servers`` fleet is split into ``banks`` equal groups; within a
    bank an item is placed by consistent hashing over the bank's servers.
    Replica ``j`` of an item lives in bank ``j`` at the *same relative
    position*, mirroring Facebook's reported deployment where whole
    memcached pools are cloned (paper ref [2]).

    A bank is plain consistent hashing (``_inner``: RCH at ``R = 1`` over
    ``bank_size`` servers) shifted by ``b * bank_size``.  The paper's point
    — "one gets exactly what one pays for: k replicas of the system yield
    a k-fold increase in the throughput, but no more" — falls out of this
    placer and :class:`repro.core.baselines.FullReplicationClient`.
    """

    def __init__(
        self, n_servers: int, banks: int, *, vnodes: int = 128, seed: int = 0
    ) -> None:
        if banks <= 0:
            raise ConfigurationError("banks must be positive")
        if n_servers % banks != 0:
            raise ConfigurationError(
                f"n_servers ({n_servers}) must be divisible by banks ({banks})"
            )
        self.n_servers = n_servers
        self.banks = banks
        self.bank_size = n_servers // banks
        self.replication = banks
        self._inner = RangedConsistentHashPlacer(
            self.bank_size, 1, vnodes=vnodes, seed=seed
        )

    def replicas_for(self, item) -> ReplicaSet:
        return ReplicaSet(item=item, servers=self.servers_for(item))

    def servers_for(self, item) -> tuple:
        # no memo of its own: the bank ring memoises, and the simulator
        # reads a compiled table
        pos = self._inner.distinguished_for(item)
        return tuple(pos + b * self.bank_size for b in range(self.banks))

    def distinguished_for(self, item) -> int:
        return self._inner.distinguished_for(item)


class RandomPlacer:
    """Uniform random distinct replica sets, memoised per item.

    Not a deployable policy (it needs a directory to be shared between
    clients) but the exact placement model of the paper's *simplified*
    Monte-Carlo simulator (section III-F) and a useful idealised
    reference: hash-based placers should match its statistics.
    """

    def __init__(self, n_servers: int, replication: int, *, seed: int = 0) -> None:
        if not (1 <= replication <= n_servers):
            raise ConfigurationError("replication must be in [1, n_servers]")
        self.n_servers = n_servers
        self.replication = replication
        self.seed = seed
        # Plain dict memo (see RangedConsistentHashPlacer for why not an
        # instance-bound lru_cache).
        self._cache: dict = {}
        self._cache_size = 1 << 20

    def _compute(self, item) -> tuple:
        # Deterministic "random" choice derived from the item id: do a
        # seeded partial Fisher-Yates over server ids.
        servers = list(range(self.n_servers))
        out = []
        for j in range(self.replication):
            if isinstance(item, int):
                h = hash64_int(item, seed=self.seed * 7919 + j)
            else:
                h = stable_hash64(item, seed=self.seed * 7919 + j)
            idx = j + (h % (self.n_servers - j))
            servers[j], servers[idx] = servers[idx], servers[j]
            out.append(servers[j])
        return tuple(out)

    def replicas_for(self, item) -> ReplicaSet:
        return ReplicaSet(item=item, servers=self.servers_for(item))

    def servers_for(self, item) -> tuple:
        cache = self._cache
        servers = cache.get(item)
        if servers is None:
            servers = self._compute(item)
            if len(cache) >= self._cache_size:
                cache.clear()
            cache[item] = servers
        return servers

    def distinguished_for(self, item) -> int:
        return self.servers_for(item)[0]


_PLACER_FACTORIES = {
    "rch": RangedConsistentHashPlacer,
    "multihash": MultiHashPlacer,
    "random": RandomPlacer,
}


def make_placer(
    kind: str, n_servers: int, replication: int, *, seed: int = 0, **kwargs
) -> ReplicaPlacer:
    """Build a placer by name: ``rch``, ``multihash`` or ``random``.

    :class:`FullReplicationPlacer` has its own constructor, because its
    signature differs.
    """
    try:
        factory = _PLACER_FACTORIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown placement kind {kind!r}; expected one of {sorted(_PLACER_FACTORIES)}"
        ) from None
    return factory(n_servers, replication, seed=seed, **kwargs)
