"""Replica-store adapters: one write/read surface over both backends.

The consistency machinery (quorum writes, versioned reads, anti-entropy
scrubbing) is backend-agnostic.  A *replica store* exposes per-server
primitives and raises the usual failover errors
(:class:`repro.errors.ServerDown` and friends) when a server cannot be
reached, so the callers' fault handling is identical on both paths:

* :class:`ClusterStore` — the simulated
  :class:`repro.cluster.cluster.Cluster`.  Items are presence-only
  there (paper section III-B), so the "value envelope" degenerates to
  ``(stamp, b"")``: stamps live in the server's ``stamps`` side table,
  presence in its two-class LRU, and accesses go through the *faultable*
  ``cluster.server()`` gate so an attached injector (chaos kills) is
  honoured.
* :class:`WireStore` — live :class:`repro.protocol.memclient.
  MemcachedConnection` fleets.  Stamps ride inside the value bytes
  (:mod:`repro.consistency.version` envelope) and key enumeration for
  the scrubber uses the extended ``stats keys`` verb, which reports
  each resident key's stamp token without transferring values.
"""

from __future__ import annotations

from repro.consistency.version import (
    VersionStamp,
    decode_versioned,
    encode_versioned,
    parse_token,
)
from repro.errors import ProtocolError


class ClusterStore:
    """Versioned replica access over a simulated cluster.

    Reads and writes pass through ``cluster.server(sid)`` — the gate an
    attached fault injector vets — so a killed server raises
    :class:`repro.errors.ServerDown` exactly as the read path sees it.
    """

    def __init__(self, cluster, placer) -> None:
        self.cluster = cluster
        self.placer = placer

    def read(self, sid: int, key) -> tuple[VersionStamp | None, bytes] | None:
        """The replica's ``(stamp, payload)``, or ``None`` if not resident."""
        server = self.cluster.server(sid)
        if key not in server.store:
            return None
        return server.stamps.get(key), b""

    def write(self, sid: int, key, payload: bytes, stamp: VersionStamp) -> None:
        """Install ``key`` at ``stamp`` on one replica server.

        The copy lands in the proper service class: pinned when ``sid``
        is the key's distinguished home (never evicted), plain replica
        insert otherwise — so consistency traffic obeys the same memory
        budget as foreground traffic.
        """
        server = self.cluster.server(sid)
        if self.placer.distinguished_for(key) == sid:
            server.store.pin(key)
        else:
            server.store.put(key)
        server.stamps[key] = stamp
        server.counters.writes += 1

    def delete(self, sid: int, key) -> None:
        server = self.cluster.server(sid)
        server.store.unpin(key)
        server.store.discard(key)
        server.stamps.pop(key, None)

    def local_keys(self, sid: int) -> dict:
        """``key -> stamp`` for every key resident on ``sid``."""
        server = self.cluster.server(sid)
        return {key: server.stamps.get(key) for key in server.resident_keys()}


class WireStore:
    """Versioned replica access over live memcached connections.

    ``connections`` maps server id -> :class:`repro.protocol.memclient.
    MemcachedConnection`; transport failures propagate as the standard
    failover errors.
    """

    def __init__(self, connections: dict, placer) -> None:
        # kept by reference, not copied: membership growth adds
        # connections to the owning client's mapping and the store must
        # see them
        self.connections = connections
        self.placer = placer

    def read(self, sid: int, key) -> tuple[VersionStamp | None, bytes] | None:
        value = self.connections[sid].get(key)
        return None if value is None else decode_versioned(value)

    def write(self, sid: int, key, payload: bytes, stamp: VersionStamp) -> None:
        if not self.connections[sid].set(key, encode_versioned(payload, stamp)):
            raise ProtocolError(f"versioned set of {key!r} failed on server {sid}")

    def delete(self, sid: int, key) -> None:
        self.connections[sid].delete(key)

    def local_keys(self, sid: int) -> dict:
        """``key -> stamp`` from the server's ``stats keys`` report."""
        report = self.connections[sid].stats("keys")
        return {key: parse_token(token) for key, token in report.items()}
