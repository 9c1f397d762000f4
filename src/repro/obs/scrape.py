"""Fleet scraping: the client side of the ``stats metrics`` verb.

``rnb stats`` (:mod:`repro.cli`) uses these helpers to pull telemetry
from a live fleet: :func:`scrape_address` fetches one server's samples
over TCP, :func:`scrape_fleet` walks an address list, and
:func:`missing_families` checks a merged sample map against a required
catalog (CI's ``live-smoke`` gate).  :func:`boot_demo_fleet` starts a
small loopback fleet with traffic already applied, so the CLI can be
demonstrated — and smoke-tested — without external processes.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.obs.export import CORE_REQUEST_FAMILIES, family_of, merge_samples


def parse_address(address: str) -> tuple[str, int]:
    """Split ``host:port`` (host defaults to 127.0.0.1 for bare ports)."""
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", address
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ProtocolError(f"invalid address {address!r}; want host:port") from None


def scrape_address(address: str, *, timeout: float = 2.0) -> dict[str, float]:
    """One server's ``stats metrics`` samples as ``{sample_name: value}``."""
    from repro.aio.transport import BlockingConnection
    from repro.protocol.memclient import MemcachedConnection

    host, port = parse_address(address)
    transport = BlockingConnection(host, port, connect_timeout=timeout, read_timeout=timeout)
    try:
        conn = MemcachedConnection(transport)
        return {name: float(value) for name, value in conn.stats("metrics").items()}
    finally:
        transport.close()


def scrape_fleet(
    addresses, *, timeout: float = 2.0
) -> dict[str, dict[str, float]]:
    """Scrape every address; keys are the addresses as given."""
    return {
        address: scrape_address(address, timeout=timeout) for address in addresses
    }


def missing_families(
    samples_map: dict[str, float], required=CORE_REQUEST_FAMILIES
) -> list[str]:
    """Required metric families absent from a (merged) sample map."""
    present = {family_of(name) for name in samples_map}
    return sorted(set(required) - present)


def merged_fleet_samples(
    per_server: dict[str, dict[str, float]]
) -> dict[str, float]:
    """Fleet totals: counters/histograms add, gauges gain a source label."""
    return merge_samples(per_server)


def boot_demo_fleet(
    *, n_servers: int = 3, n_items: int = 60, seed: int = 0
) -> tuple[list[str], list, object]:
    """Start a loopback TCP fleet with RnB traffic already applied.

    Builds ``n_servers`` :class:`repro.protocol.memserver.MemcachedServer`
    instances sharing one :class:`repro.obs.MetricsRegistry`, serves each
    on a free local port (:func:`repro.aio.server.serve_aio`), loads
    ``n_items`` keys through an RnB client (so planner/request families
    have data) and returns ``(addresses, handles, registry)``.  Callers
    own shutdown: ``for handle in handles: handle.stop()``.
    """
    from repro.aio.server import serve_aio
    from repro.aio.transport import BlockingConnection
    from repro.cluster.placement import RangedConsistentHashPlacer
    from repro.obs.metrics import MetricsRegistry
    from repro.protocol.memclient import MemcachedConnection
    from repro.protocol.memserver import MemcachedServer
    from repro.protocol.rnbclient import RnBProtocolClient
    from repro.utils.rng import ensure_rng

    registry = MetricsRegistry()
    backends = [
        MemcachedServer(name=f"demo{i}", metrics=registry) for i in range(n_servers)
    ]
    handles: list = []
    addresses: list[str] = []
    connections: dict[int, MemcachedConnection] = {}
    for sid, backend in enumerate(backends):
        handle, (host, port) = serve_aio(backend)
        handles.append(handle)
        addresses.append(f"{host}:{port}")
        connections[sid] = MemcachedConnection(BlockingConnection(host, port))
    placer = RangedConsistentHashPlacer(
        n_servers, min(2, n_servers), vnodes=32, seed=seed
    )
    client = RnBProtocolClient(connections, placer, metrics=registry)
    keys = [f"item:{i}" for i in range(n_items)]
    try:
        for key in keys:
            client.set(key, f"value-{key}".encode())
        rng = ensure_rng(seed)
        for _ in range(n_items // 4):
            batch = [keys[int(rng.integers(0, len(keys)))] for _ in range(6)]
            client.get_multi(batch)
    finally:
        for conn in connections.values():
            conn.transport.close()
    return addresses, handles, registry
