"""End-to-end open-loop load test against a real async server fleet.

One process, one event loop, everything real: ``n_servers`` instances of
:class:`repro.aio.server.AsyncMemcachedServer` listening on loopback
TCP, an :class:`repro.aio.rnbclient.AsyncRnBClient` bundling multi-gets
over pooled pipelined connections, and one coroutine per simulated user
sleeping until its open-loop arrival time and then issuing a bundled
multi-get.  Arrivals never wait for completions — the generator stays
open-loop (no coordinated omission), which is the point of the harness.

The report is split in two, and the split is load-bearing for the gates:

* ``workload`` — a pure function of the config, including a
  ``determinism_token`` hashed from every arrival offset and request
  key.  CI's ``live-smoke`` job asserts equal ``workload`` sections for
  same-seed runs and differing tokens across seeds (in-process:
  ``tests/loadgen/test_runner.py``).
* ``measured`` — wall-clock observations (tail latency, goodput, peak
  in-flight) that legitimately vary run to run; ``live-smoke`` gates
  only coarse invariants there (zero failed requests, a goodput floor).

A third section, ``metrics``, carries the run's full :mod:`repro.obs`
telemetry: the runner owns a :class:`repro.obs.MetricsRegistry`, hands
it to the async client (which emits the ``path="aio"`` request
families), binds the breaker board and every server's admission gate to
it, and derives the entire ``measured`` section from the registry —
outcome counts from ``rnb_requests_total``, latency percentiles from an
exact-percentile :class:`repro.obs.Histogram` (``track_values=True``,
numpy-compatible interpolation, so the printed report is byte-identical
with the pre-obs inline-numpy math).

A request is **never failed** in a healthy run: the client degrades via
busy-shed failover, LIMIT fractions and per-request deadlines
(``deadline_hit``) instead of raising, mirroring the DES contract in
:mod:`repro.overload.desim`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnectionPool
from repro.errors import ConfigurationError
from repro.faults.partition import blackout_spans
from repro.hashing.hashfns import stable_hash64
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.loadgen.schedule import CURVES, SCHEDULERS, arrival_times
from repro.obs import MetricsRegistry
from repro.overload.breaker import BreakerBoard
from repro.overload.load import AdmissionControl
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.utils.rng import derive_rng
from repro.workloads.zipf import zipf_weights

#: stream tag for the request-content RNG (distinct from the schedule's)
_REQ_STREAM = 0x574B


@dataclass(frozen=True, slots=True)
class LoadTestConfig:
    """Everything that determines a load test's workload and topology.

    ``users`` coroutines are all spawned up front; ``duration`` is the
    span of the *arrival schedule* in seconds (wall-clock run time is
    longer by the tail of in-flight requests).  ``deadline`` bounds each
    request — expiry degrades the response, it never fails it.
    ``queue_limit`` installs per-server admission control so the fleet
    sheds with ``SERVER_ERROR busy`` under pressure (None = no gate).
    """

    users: int = 1000
    duration: float = 2.0
    curve: str = "constant"
    scheduler: str = "poisson"
    n_servers: int = 4
    replication: int = 2
    n_items: int = 2000
    request_size: int = 8
    zipf_exponent: float = 0.8
    value_bytes: int = 32
    seed: int = 0
    pool_size: int = 4
    deadline: float | None = 5.0
    queue_limit: int | None = None
    connect_timeout: float = 5.0
    read_timeout: float = 15.0
    #: seed for a link-blackout nemesis schedule (docs/PARTITIONS.md):
    #: seeded windows during which one server's link is cut — its async
    #: front refuses connections, so the client rides failover / partial
    #: covers through the outage.  None (the default) runs the classic
    #: partition-free test; CI's live-smoke gates assume None.
    nemesis_seed: int | None = None

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ConfigurationError("users must be >= 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.curve not in CURVES:
            raise ConfigurationError(f"curve must be one of {CURVES}")
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(f"scheduler must be one of {SCHEDULERS}")
        if not (1 <= self.replication <= self.n_servers):
            raise ConfigurationError("need 1 <= replication <= n_servers")
        if not (1 <= self.request_size <= self.n_items):
            raise ConfigurationError("need 1 <= request_size <= n_items")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1 (or None)")


def item_key(idx: int) -> str:
    """The canonical key for item ``idx`` (preload and requests agree)."""
    return f"i{idx:06d}"


def build_workload(config: LoadTestConfig) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The deterministic half: arrival offsets + per-user key sets.

    Pure function of the config — same seed, same schedule, same keys.
    """
    offsets = arrival_times(
        config.users,
        config.duration,
        curve=config.curve,
        scheduler=config.scheduler,
        seed=config.seed,
    )
    weights = zipf_weights(config.n_items, config.zipf_exponent)
    rng = derive_rng(config.seed, _REQ_STREAM)
    item_ids = np.arange(config.n_items)
    requests = [
        tuple(
            item_key(i)
            for i in rng.choice(
                item_ids, size=config.request_size, replace=False, p=weights
            )
        )
        for _ in range(config.users)
    ]
    return offsets, requests


def nemesis_blackouts(config: LoadTestConfig) -> list[tuple[float, float, int]]:
    """Seeded ``(start_s, end_s, server)`` link-blackout spans over the
    arrival schedule: :func:`repro.faults.partition.blackout_spans`, the
    schedule ``rnb run load_soak --nemesis`` draws too.  Empty without a
    ``nemesis_seed``."""
    if config.nemesis_seed is None:
        return []
    return blackout_spans(config.nemesis_seed, config.n_servers, config.duration)


def workload_token(offsets: np.ndarray, requests: list[tuple[str, ...]]) -> int:
    """A 64-bit digest of the entire workload (offsets at µs grain)."""
    blob = b";".join(
        b"%d:%s" % (int(round(off * 1e6)), ",".join(keys).encode())
        for off, keys in zip(offsets, requests)
    )
    return stable_hash64(blob)


@dataclass(slots=True)
class LoadTestReport:
    """The two-part load test report (see module docstring for the split)."""

    workload: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "measured": self.measured,
                "metrics": self.metrics,
            },
            indent=2,
            sort_keys=True,
        )

    def summary(self) -> str:
        w, m = self.workload, self.measured
        return "\n".join(
            [
                f"loadtest: {w['users']} users over {w['duration']}s "
                f"({w['curve']}/{w['scheduler']}, seed {w['seed']})",
                f"  topology: {w['n_servers']} servers x R={w['replication']}, "
                f"{w['n_items']} items, {w['request_size']}-item requests",
                f"  token:    {w['determinism_token']:#018x}",
                f"  outcome:  ok={m['ok']} degraded={m['degraded']} "
                f"failed={m['failed']} shed={m['busy_sheds']} retries={m['retries']}",
                f"  latency:  p50={m['p50_ms']:.2f}ms p99={m['p99_ms']:.2f}ms "
                f"p999={m['p999_ms']:.2f}ms mean={m['mean_ms']:.2f}ms",
                f"  goodput:  {m['goodput_items_per_s']:.0f} items/s "
                f"({m['goodput_rps']:.0f} req/s), peak in-flight "
                f"{m['peak_in_flight']}, elapsed {m['elapsed_s']:.2f}s",
            ]
        )


async def _run(config: LoadTestConfig, offsets, requests) -> tuple[dict, dict]:
    registry = MetricsRegistry()
    placer = RangedConsistentHashPlacer(
        config.n_servers, config.replication, seed=config.seed
    )
    backends = [
        MemcachedServer(
            name=f"s{sid}",
            admission=(
                AdmissionControl(queue_limit=config.queue_limit)
                if config.queue_limit is not None
                else None
            ),
            metrics=registry,
        )
        for sid in range(config.n_servers)
    ]
    for sid, backend in enumerate(backends):
        if backend.admission is not None:
            backend.admission.bind_metrics(registry, server=f"s{sid}")
    # Link-level nemesis: each blackout span gates one server's async
    # front — connections refused while the span is live, exactly the
    # refusal a partitioned peer produces.  The clock starts at the
    # schedule origin t0 (set below), so spans align with arrivals.
    run_loop = asyncio.get_running_loop()
    blackouts = nemesis_blackouts(config)
    nemesis_clock: dict[str, float | None] = {"t0": None}

    def _gate_for(sid: int):
        spans = [(s, e) for s, e, victim in blackouts if victim == sid]
        if not spans:
            return None

        def gate() -> bool:
            t0 = nemesis_clock["t0"]
            if t0 is None:
                return False
            now = run_loop.time() - t0
            return any(s <= now < e for s, e in spans)

        return gate

    servers = [
        AsyncMemcachedServer(b, gate=_gate_for(sid))
        for sid, b in enumerate(backends)
    ]
    pools: dict[int, AsyncConnectionPool] = {}
    try:
        addrs = [await s.start() for s in servers]

        # Preload every item onto all its replicas, straight through the
        # backends (the network adds nothing to a warmup).
        for idx in range(config.n_items):
            key = item_key(idx)
            value = f"{key}=".encode().ljust(config.value_bytes, b"x")
            cmd = Command(name="set", keys=(key,), data=value)
            for sid in placer.servers_for(key):
                backends[sid].execute(cmd)

        pools = {
            sid: AsyncConnectionPool(
                host,
                port,
                size=config.pool_size,
                connect_timeout=config.connect_timeout,
                read_timeout=config.read_timeout,
            )
            for sid, (host, port) in enumerate(addrs)
        }
        clients = {sid: AsyncMemcachedClient(pool) for sid, pool in pools.items()}
        breakers = BreakerBoard(config.n_servers, seed=config.seed)
        breakers.bind_metrics(registry)
        rnb = AsyncRnBClient(
            clients,
            placer,
            retry_policy=RetryPolicy(
                connect_timeout=config.connect_timeout,
                request_timeout=config.read_timeout,
            ),
            breakers=breakers,
            metrics=registry,
        )

        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05  # small runway so user 0 isn't already late
        nemesis_clock["t0"] = t0
        state = {"in_flight": 0, "peak": 0}
        # the generator's own end-to-end clock, exact percentiles; the
        # client's rnb_request_latency_seconds keeps the mergeable
        # log-bucketed view of (almost) the same distribution
        lat_ms = registry.histogram(
            "rnb_loadtest_latency_ms",
            "end-to-end request latency as timed by the load generator",
            track_values=True,
        )
        m_failed = registry.counter(
            "rnb_requests_total", "requests by outcome", path="aio", outcome="failed"
        )

        async def one_user(idx: int) -> None:
            delay = t0 + float(offsets[idx]) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
            start = loop.time()
            try:
                await rnb.get_multi(requests[idx], deadline=config.deadline)
            except Exception:
                m_failed.inc()
            else:
                lat_ms.observe((loop.time() - start) * 1e3)
            finally:
                state["in_flight"] -= 1

        # every simulated user exists up front: open-loop arrivals are
        # sleeps inside already-spawned coroutines, never late spawns
        tasks = [asyncio.ensure_future(one_user(i)) for i in range(config.users)]
        await asyncio.gather(*tasks)
        elapsed = max(loop.time() - t0, 1e-9)

        def total(name: str, **labels) -> int:
            inst = registry.get(name, **labels)
            return int(inst.get()) if inst is not None else 0

        if lat_ms.count == 0:  # pragma: no cover - all-failed pathology
            lat_ms.observe(0.0)
        ok = total("rnb_requests_total", path="aio", outcome="ok")
        degraded = total("rnb_requests_total", path="aio", outcome="degraded")
        items_served = total("rnb_items_total", path="aio", outcome="served")
        measured = {
            "ok": ok,
            "degraded": degraded,
            "failed": total("rnb_requests_total", path="aio", outcome="failed"),
            "busy_sheds": total("rnb_busy_sheds_total", path="aio"),
            "retries": total("rnb_retries_total", path="aio"),
            "items_served": items_served,
            "p50_ms": lat_ms.percentile(50),
            "p99_ms": lat_ms.percentile(99),
            "p999_ms": lat_ms.percentile(99.9),
            "mean_ms": lat_ms.mean,
            "goodput_items_per_s": items_served / elapsed,
            "goodput_rps": (ok + degraded) / elapsed,
            "peak_in_flight": state["peak"],
            "elapsed_s": elapsed,
            "connections": sum(len(p.connections) for p in pools.values()),
            "connections_refused": sum(s.connections_refused for s in servers),
        }
        metrics_doc = {
            "families": registry.families(),
            "snapshot": registry.snapshot(),
            "token": registry.token(),
        }
        return measured, metrics_doc
    finally:
        for pool in pools.values():
            pool.close()
        for server in servers:
            await server.stop()


def run_loadtest(config: LoadTestConfig | None = None) -> LoadTestReport:
    """Run one open-loop load test end to end; see the module docstring.

    Owns its event loop — call from synchronous code (the CLI does).
    """
    config = config or LoadTestConfig()
    offsets, requests = build_workload(config)
    measured, metrics_doc = asyncio.run(_run(config, offsets, requests))
    workload = {
        "users": config.users,
        "duration": config.duration,
        "curve": config.curve,
        "scheduler": config.scheduler,
        "n_servers": config.n_servers,
        "replication": config.replication,
        "n_items": config.n_items,
        "request_size": config.request_size,
        "zipf_exponent": config.zipf_exponent,
        "seed": config.seed,
        "deadline": config.deadline,
        "queue_limit": config.queue_limit,
        "nemesis_seed": config.nemesis_seed,
        "nemesis_blackouts": [
            [round(s, 6), round(e, 6), victim]
            for s, e, victim in nemesis_blackouts(config)
        ],
        "determinism_token": workload_token(offsets, requests),
    }
    return LoadTestReport(workload=workload, measured=measured, metrics=metrics_doc)
