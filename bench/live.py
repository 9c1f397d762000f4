"""Live workloads: a loopback asyncio fleet driven closed-loop.

One process, one event loop, one thread — the topology
``repro.loadgen.runner`` boots: ``n_servers`` ``AsyncMemcachedServer``
fronts on loopback TCP, one pipelined socket per server (pool size 1,
the least a fleet allows), an ``AsyncRnBClient`` wired to a
``MetricsRegistry`` the way ``run_loadtest`` wires it.  Callers are
coroutines that each wait for their reply before sending the next
request (a closed loop: RnB's callers are web front-ends that do
exactly that).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import time
from statistics import median, median_low

import estimate
import layers
import spans
from reference import SLICE_S as SLICE_REF_S, Yardstick
import spec as specs
from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnectionPool
from repro.consistency.version import newer
from repro.core.bundling import Bundler
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.obs import MetricsRegistry
from repro.overload.breaker import BreakerBoard
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy

_UNTRACED = contextlib.nullcontext()
#: a segment is four 0.2 s slices, each followed by a reference slice:
#: about one second and some 800 reads on the slowest workload
SLICE_S = 0.2
SLICES_PER_SEGMENT = 4
SEGMENT_S = SLICES_PER_SEGMENT * (SLICE_S + SLICE_REF_S)
WARMUP_S = 1.0
CONNECT_TIMEOUT = 5.0  # LoadTestConfig defaults
READ_TIMEOUT = 15.0


class Fleet:
    """A booted, preloaded, connected fleet and its RnB client.

    ``metrics=False`` builds the same fleet with no registry anywhere
    (the ``obs.overhead_frac`` arm).  With a ``recorder`` every layer
    boundary goes through a :mod:`spans` proxy.
    """

    def __init__(self, spec: specs.LiveSpec, seed: int, *, metrics=True, recorder=None):
        self.spec = spec
        self.seed = seed
        self.recorder = recorder
        self.registry = MetricsRegistry() if metrics else None
        self.placer = RangedConsistentHashPlacer(
            spec.n_servers, spec.replication, seed=seed
        )
        self.backends = [
            MemcachedServer(name=f"s{sid}", metrics=self.registry)
            for sid in range(spec.n_servers)
        ]
        fronts = self.backends
        if recorder is not None:
            fronts = [
                spans.BackendProxy(b, recorder, sid)
                for sid, b in enumerate(self.backends)
            ]
        self.servers = [AsyncMemcachedServer(b) for b in fronts]
        self.pools: list[AsyncConnectionPool] = []
        self.rnb: AsyncRnBClient | None = None
        #: key -> newest stamp this fleet acknowledged (audited after the run)
        self.acked: dict[str, object] = {}

    async def start(self) -> "Fleet":
        spec, rec = self.spec, self.recorder
        addrs = [await s.start() for s in self.servers]
        # preload straight through the backends, as run_loadtest does
        for idx in range(spec.n_items):
            key = specs.item_key(idx)
            cmd = Command(
                name="set", keys=(key,), data=specs.preload_value(key, spec.value_bytes)
            )
            for sid in self.placer.servers_for(key):
                self.backends[sid].execute(cmd)
        self.pools = [
            AsyncConnectionPool(
                host, port, size=1,
                connect_timeout=CONNECT_TIMEOUT, read_timeout=READ_TIMEOUT,
            )
            for host, port in addrs
        ]
        transports = self.pools
        if rec is not None:
            transports = [spans.PoolProxy(p, rec, sid) for sid, p in enumerate(self.pools)]
        clients = {sid: AsyncMemcachedClient(t) for sid, t in enumerate(transports)}
        bundler = None
        if rec is not None:
            clients = {
                sid: spans.MemClientProxy(c, rec, sid) for sid, c in clients.items()
            }
            bundler = spans.BundlerProxy(
                Bundler(self.placer, metrics=self.registry), rec
            )
        breakers = BreakerBoard(spec.n_servers, seed=self.seed)
        if self.registry is not None:
            breakers.bind_metrics(self.registry)
        self.rnb = AsyncRnBClient(
            clients,
            self.placer,
            bundler=bundler,
            retry_policy=RetryPolicy(
                connect_timeout=CONNECT_TIMEOUT, request_timeout=READ_TIMEOUT
            ),
            breakers=breakers,
            metrics=self.registry,
        )
        # connect every socket now: set-up ends where the first op begins
        await asyncio.gather(
            *(c.get(specs.item_key(0)) for c in self.rnb.connections.values())
        )
        return self

    async def stop(self) -> None:
        for pool in self.pools:
            pool.close()
        for server in self.servers:
            await server.stop()

    def hit_ratio(self) -> float:
        hits = sum(b.stats["get_hits"] for b in self.backends)
        misses = sum(b.stats["get_misses"] for b in self.backends)
        return hits / (hits + misses) if hits + misses else 0.0


class Tally:
    """What the drivers count while a visit runs."""

    def __init__(self, n_ops: int) -> None:
        self.cursor = 0
        self.attempted = 0
        self.failed = 0
        #: transactions of pool op i, recorded the first time it completes
        self.txns: list[int | None] = [None] * n_ops
        self.second_round = self.retries = self.repaired = 0
        self.reads = self.writes = self.acks = 0


class Segment:
    """One timed stretch of a closed loop, in reference seconds
    (:mod:`reference`): a few slices, each scaled by the machine's speed
    factor around it."""

    def __init__(self) -> None:
        self.read_lat: list[float] = []
        self.write_lat: list[float] = []
        self.elapsed = 0.0
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.read_lat) + len(self.write_lat)

    def add(self, slice_: "Segment", factor: float) -> None:
        self.read_lat.extend(lat * factor for lat in slice_.read_lat)
        self.write_lat.extend(lat * factor for lat in slice_.write_lat)
        self.elapsed += slice_.wall * factor
        self.wall += slice_.wall


async def run_slice(fleet: Fleet, ops: list[tuple], tally: Tally, seconds: float) -> Segment:
    """Drive ``fleet`` with ``spec.callers`` closed-loop callers for
    ``seconds`` of wall time; every answer is checked as it arrives."""
    spec, rnb, rec = fleet.spec, fleet.rnb, fleet.recorder
    traced = rec is not None and rec.enabled
    seg = Segment()
    clock = time.perf_counter
    n_ops = len(ops)

    async def caller(stop_at: float) -> None:
        while clock() < stop_at:
            index = tally.cursor
            tally.cursor += 1
            kind, arg = ops[index % n_ops]
            tally.attempted += 1
            scope = rec.request("read" if kind == "r" else "write") if traced else _UNTRACED
            started = clock()
            try:
                with scope:
                    if kind == "r":
                        out = await rnb.get_multi(arg, deadline=specs.DEADLINE_S)
                    else:
                        value = specs.written_value(arg, index, spec.value_bytes)
                        out = await rnb.set_versioned(arg, value, w="majority")
            except Exception:  # a failed op is a counted outcome, not a crash
                tally.failed += 1
                continue
            latency = clock() - started
            if kind == "r":
                seg.read_lat.append(latency)
                tally.reads += 1
                tally.second_round += out.second_round_transactions
                tally.retries += out.retries
                tally.repaired += out.misses_repaired
                if tally.txns[index % n_ops] is None:
                    tally.txns[index % n_ops] = out.transactions
                if not specs.read_ok(spec, arg, out):
                    tally.failed += 1
            else:
                seg.write_lat.append(latency)
                tally.writes += 1
                tally.acks += len(out.acked)
                if specs.write_ok(out):
                    fleet.acked[arg] = out.stamp
                else:
                    tally.failed += 1

    started = clock()
    await asyncio.gather(*(caller(started + seconds) for _ in range(spec.callers)))
    seg.wall = clock() - started
    return seg


async def run_segment(fleet: Fleet, ops, tally: Tally, yard: Yardstick) -> Segment:
    """``SLICES_PER_SEGMENT`` slices, each followed by a reference slice."""
    seg = Segment()
    rec = fleet.recorder
    for _ in range(SLICES_PER_SEGMENT):
        began = time.perf_counter_ns()
        slice_ = await run_slice(fleet, ops, tally, SLICE_S)
        factor = yard.factor()
        seg.add(slice_, factor)
        if rec is not None and rec.enabled:
            rec.slices.append((began, factor))
    return seg


async def audit_writes(fleet: Fleet, tally: Tally) -> None:
    """Every written key must read back at least as new as its last ack."""
    for key, stamp in fleet.acked.items():
        tally.attempted += 1
        got = await fleet.rnb.get_versioned(key, repair=False)
        if got.stamp is None or newer(stamp, got.stamp):
            tally.failed += 1


def txn_per_req(tally: Tally) -> float:
    seen = [t for t in tally.txns if t is not None]
    return sum(seen) / len(seen) if seen else 0.0


def segment_metrics(segments: list[Segment]) -> dict[str, list[float]]:
    """Per-segment statistics, one list per metric (medians come later)."""
    out: dict[str, list[float]] = {
        "ops_per_s": [], "lat_p50_ms": [], "lat_p95_ms": [], "lat_p99_ms": [],
        "write_lat_p50_ms": [],
    }
    for seg in segments:
        out["ops_per_s"].append(seg.ops / seg.elapsed)
        reads = sorted(seg.read_lat)
        if reads:
            out["lat_p50_ms"].append(estimate.percentile(reads, 50) * 1e3)
            out["lat_p95_ms"].append(estimate.percentile(reads, 95) * 1e3)
            out["lat_p99_ms"].append(estimate.percentile(reads, 99) * 1e3)
        if seg.write_lat:
            writes = sorted(seg.write_lat)
            out["write_lat_p50_ms"].append(estimate.percentile(writes, 50) * 1e3)
    return out


async def timed_setup(spec, seed, yard: Yardstick) -> tuple[Fleet, list, float]:
    """Build inputs, boot, preload, connect; returns the reference
    seconds it took."""
    yard.mark()
    started = time.perf_counter()
    ops = specs.build_ops(spec, seed)
    fleet = await Fleet(spec, seed).start()
    return fleet, ops, (time.perf_counter() - started) * yard.factor()


async def warm_up(fleet: Fleet, ops, tally: Tally, yard: Yardstick) -> None:
    await run_slice(fleet, ops, tally, WARMUP_S)
    gc.collect()
    gc.freeze()
    yard.mark()


# -- a visit: what one benchmark process does for one live workload --------


def _base_result(ops, tally: Tally) -> dict:
    return {
        "token": specs.ops_token(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "scalars": {"txn_per_req": txn_per_req(tally)},
    }


async def visit(spec: specs.LiveSpec, seed: int, seconds: float, setups: int, yard) -> dict:
    """The untraced pass: end-to-end numbers from a fleet wired as deployed."""
    setup_s = []
    fleet = None
    for _ in range(setups):
        if fleet is not None:
            await fleet.stop()
        fleet, ops, took = await timed_setup(spec, seed, yard)
        setup_s.append(took)
    tally = Tally(len(ops))
    try:
        await warm_up(fleet, ops, tally, yard)
        segments = [
            await run_segment(fleet, ops, tally, yard)
            for _ in range(max(1, round(seconds / SEGMENT_S)))
        ]
        await audit_writes(fleet, tally)
    finally:
        await fleet.stop()
    return {
        **_base_result(ops, tally),
        "setup_s": setup_s,
        "segments": segment_metrics(segments),
        "wall_ops_per_s": [seg.ops / seg.wall for seg in segments],
        "samples": {
            "lat_p50_ms": median_low(len(s.read_lat) for s in segments),
            "write_lat_p50_ms": median_low(len(s.write_lat) for s in segments),
        },
    }


def visit_traced(spec: specs.LiveSpec, seed: int, seconds: float, out_dir, yard) -> dict:
    """The traced pass, then the isolated replay of what it captured."""
    result, rec, ops, fleet = asyncio.run(_traced_loop(spec, seed, seconds, out_dir, yard))
    result["layers"].update(
        layers.replay(spec, seed, ops, rec, fleet.backends, fleet.placer, yard)
    )
    return result


async def _traced_loop(spec: specs.LiveSpec, seed: int, seconds: float, out_dir, yard):
    """The traced pass: the same closed loop with a span at every layer
    boundary, alternating segment by segment with an untraced fleet (the
    difference is the tracing overhead) and, on ``bundle_read``, with a
    fleet that has no ``MetricsRegistry`` (the difference is the cost of
    telemetry on the live path)."""
    rec = spans.Recorder()
    ops = specs.build_ops(spec, seed)
    arms = {
        "traced": Fleet(spec, seed, recorder=rec),
        "plain": Fleet(spec, seed),
    }
    if spec.name == "bundle_read":
        arms["bare"] = Fleet(spec, seed, metrics=False)
    tally = Tally(len(ops))
    rates: dict[str, list[float]] = {arm: [] for arm in arms}
    plain_segments = []
    started_fleets = []
    try:
        # the replay's inputs are captured during the traced fleet's warm-up,
        # where holding on to every response costs nothing that is measured
        for fleet in arms.values():
            started_fleets.append(await fleet.start())
            rec.enabled = rec.capturing = fleet.recorder is rec
            await warm_up(fleet, ops, tally, yard)
            rec.reset()
        for i in range(max(len(arms), round(seconds / SEGMENT_S))):
            arm = list(arms)[i % len(arms)]
            rec.enabled = arm == "traced"
            seg = await run_segment(arms[arm], ops, tally, yard)
            rec.enabled = False
            rates[arm].append(seg.ops / seg.elapsed)
            if arm == "plain":
                plain_segments.append(seg)
        for fleet in arms.values():
            await audit_writes(fleet, tally)
    finally:
        for fleet in started_fleets:
            await fleet.stop()

    rows = rec.rows()
    if not spans.link_executes(rows):
        tally.failed += 1  # the two ends of a connection disagree: no trace to trust
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        spans.write_jsonl(rows, out_dir / f"trace_{spec.name}.jsonl")
    traced = arms["traced"]
    result = _base_result(ops, tally)
    result["layers"] = trace_metrics(spec, rec, rows, tally, traced.hit_ratio(), rates)
    # the untraced tail: mostly the host's jitter on a shared box
    # (bench/README.md), so reported here, without a bound
    plain = segment_metrics(plain_segments)
    for tail in ("lat_p95_ms", "lat_p99_ms"):
        result["layers"][f"aio.rnbclient.{tail}"] = median(plain[tail])
    return result, rec, ops, arms["plain"]


def trace_metrics(spec, rec, rows, tally: Tally, hit_ratio: float, rates: dict) -> dict:
    """The per-layer numbers of one traced visit (names as in BENCHMARK.json)."""
    by_kind = spans.attribute(rows, rec.slices)
    read = by_kind["read"]
    kinds = list(by_kind.values())
    ops = sum(k["ops"] for k in kinds)
    txns = sum(k["txns"] for k in kinds)
    request_ns = sum(k["request_ns"] for k in kinds)

    def us_per_txn(field: str) -> float:
        return sum(k[field] for k in kinds) / txns / 1e3

    n_exchanges = sum(1 for s in rows if s[0] == spans.EXCHANGE)
    n_executes = sum(1 for s in rows if s[0] == spans.EXECUTE)
    tpr = txn_per_req(tally)
    plain_rate = median(rates["plain"])
    out = {
        "trace.request_span_us": request_ns / ops / 1e3,
        "trace.closure_frac": sum(sum(k["share_ns"].values()) for k in kinds) / request_ns,
        "trace.overhead_frac": 1.0 - median(rates["traced"]) / plain_rate,
        "aio.rnbclient.self_us_per_op": read["share_ns"]["rnbclient"] / read["ops"] / 1e3,
        "aio.rnbclient.straggler_ratio": read["straggler_sum"] / read["ops"],
        "aio.rnbclient.second_round_txn_per_op": tally.second_round / tally.reads,
        "aio.rnbclient.retries_per_op": tally.retries / tally.reads,
        "aio.rnbclient.misses_repaired_per_op": tally.repaired / tally.reads,
        "core.bundling.plan_us_per_op": read["share_ns"]["plan"] / read["ops"] / 1e3,
        "core.bundling.txn_per_req": tpr,
        "core.bundling.keys_per_txn": spec.request_size / tpr,
        "aio.memclient.self_us_per_txn": us_per_txn("memclient_self_ns"),
        "aio.transport.wire_us_per_txn": us_per_txn("transport_self_ns"),
        "aio.transport.exchanges_per_op": n_exchanges / ops,
        "aio.transport.bytes_out_per_op": rec.bytes_out / ops,
        "aio.transport.bytes_in_per_op": rec.bytes_in / ops,
        "aio.transport.peak_in_flight": rec.peak_in_flight,
        "protocol.memserver.execute_us_per_txn": us_per_txn("execute_ns"),
        "protocol.memserver.cmds_per_op": n_executes / ops,
        "protocol.memserver.hit_ratio": hit_ratio,
    }
    for layer, share in read["share_ns"].items():
        out[f"share.{layer}_frac"] = share / read["request_ns"]
    write = by_kind.get("write")
    if write:
        out["consistency.write_txn_per_op"] = write["txns"] / write["ops"]
        out["consistency.acks_per_write"] = tally.acks / tally.writes
        out["consistency.quorum_self_us_per_write"] = (
            write["share_ns"]["rnbclient"] / write["ops"] / 1e3
        )
    if "bare" in rates:
        out["obs.overhead_frac"] = 1.0 - plain_rate / median(rates["bare"])
    return out
