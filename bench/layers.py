"""Single layers timed alone: isolated replay and simulator pieces.

The traced pass says how long a layer took *inside* a live request; the
functions here time the same public functions with nothing around them —
no sockets, no event loop, no neighbours — on inputs captured from the
workload (``spans.Recorder`` keeps the first commands, request bytes and
response bytes that crossed the proxies).  Each loop runs five times,
each run is scaled to reference seconds (``reference.py``), and the
fastest is reported: alone in a loop, what noise is left only ever adds.

Names are ``<module>.<what>``; the modules are those under ``src/repro``.
"""

from __future__ import annotations

import asyncio
import time

import spec as specs
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnection
from repro.cluster.placement import make_placer
from repro.core.bundling import Bundler
from repro.core.setcover import greedy_partial_cover
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.perf.table import PlacementTable
from repro.protocol.codec import Command, FrameBuffer, encode_command, parse_command_stream
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport
from repro.sim.engine import build_client, build_cluster
from repro.types import Request
from repro.utils.rng import derive_rng
from repro.workloads.requests import EgoRequestGenerator

LOOPS = 5
REPLAY_REQUESTS = 500  # read requests replayed by the planner / loopback loops
PING_PONGS = 1500
PIPELINE_DEPTH = 32


def best_of(fn, yard, loops: int = LOOPS) -> float:
    """Fastest of ``loops`` calls of ``fn``, in reference seconds."""
    yard.mark()
    return min(yard.time(fn) for _ in range(loops))


def _per(seconds: float, count: int) -> float:
    """Microseconds per item (0 when there was nothing to time)."""
    return seconds / count * 1e6 if count else 0.0


# -- isolated replay of a live workload ------------------------------------


def replay(spec: specs.LiveSpec, seed: int, ops, recorder, backends, placer, yard) -> dict:
    """Micro-timings on what the workload's first requests looked like.

    ``backends`` / ``placer`` are a stopped fleet's preloaded stores and
    its placement, reused for the loopback client.
    """
    reads = [op[1] for op in ops if op[0] == "r"][:REPLAY_REQUESTS]
    keys = list(dict.fromkeys(k for req in reads for k in req))
    out: dict[str, float] = {
        "replay.read_requests": len(reads),
        "replay.commands": len(recorder.commands),
        "replay.request_bytes": sum(map(len, recorder.requests)),
        "replay.response_bytes": sum(map(len, recorder.responses)),
    }

    # placement: servers_for on a fresh placer, then memoised
    fresh = None

    def cold_lookups() -> None:
        nonlocal fresh
        fresh = RangedConsistentHashPlacer(spec.n_servers, spec.replication, seed=seed)
        for key in keys:
            fresh.servers_for(key)

    out["hashing.rch.lookup_cold_us"] = _per(best_of(cold_lookups, yard), len(keys))
    out["hashing.rch.lookup_warm_us"] = _per(
        best_of(lambda: [fresh.servers_for(k) for k in keys], yard), len(keys)
    )

    # cover kernel on the instances the bundler would solve, and the
    # whole plan() around it
    instances = []
    for req in reads:
        subsets: dict[int, int] = {}
        for idx, key in enumerate(req):
            for server in placer.servers_for(key):
                subsets[server] = subsets.get(server, 0) | (1 << idx)
        instances.append((subsets, len(req)))
    out["core.setcover.cover_us_per_req"] = _per(
        best_of(lambda: [greedy_partial_cover(s, n, n) for s, n in instances], yard),
        len(instances),
    )
    bundler = Bundler(placer)
    requests = [Request(items=req) for req in reads]
    out["core.bundling.plan_isolated_us_per_req"] = _per(
        best_of(lambda: [bundler.plan(r) for r in requests], yard), len(requests)
    )

    # codec, both directions
    cmds, wire_out, wire_in = recorder.commands, recorder.requests, recorder.responses
    out["protocol.codec.encode_us_per_cmd"] = _per(
        best_of(lambda: [encode_command(c) for c in cmds], yard), len(cmds)
    )
    out["protocol.codec.parse_cmd_us_per_cmd"] = _per(
        best_of(lambda: [parse_command_stream(b) for b in wire_out], yard), len(wire_out)
    )

    def parse_responses() -> None:
        frames = FrameBuffer()
        for raw in wire_in:
            frames.feed(raw)
            frames.next_response()

    parse_s = best_of(parse_responses, yard)
    out["protocol.codec.parse_resp_us_per_resp"] = _per(parse_s, len(wire_in))
    out["protocol.codec.parse_resp_mb_per_s"] = (
        out["replay.response_bytes"] / parse_s / 1e6 if wire_in else 0.0
    )

    # server dispatch on one store that holds every item
    store = MemcachedServer()
    for idx in range(spec.n_items):
        key = specs.item_key(idx)
        store.execute(
            Command(name="set", keys=(key,), data=specs.preload_value(key, spec.value_bytes))
        )
    for verb in ("get", "set"):
        subset = [c for c in cmds if c.name == verb]
        out[f"protocol.memserver.execute_isolated_{verb}_us_per_cmd"] = _per(
            best_of(lambda: [store.execute(c) for c in subset], yard), len(subset)
        )

    # the same algorithm, codec and dispatch with no socket and no asyncio
    sync_client = RnBProtocolClient(
        {sid: MemcachedConnection(LoopbackTransport(b)) for sid, b in enumerate(backends)},
        placer,
    )
    out["protocol.rnbclient.loopback_us_per_op"] = _per(
        best_of(lambda: [sync_client.get_multi(req) for req in reads], yard), len(reads)
    )

    out.update(asyncio.run(_socket_floor(yard)))
    return out


async def _socket_floor(yard) -> dict:
    """One connection, one tiny ``get``: the round trip under every
    latency, and the pipelined rate over every throughput."""
    backend = MemcachedServer()
    backend.execute(Command(name="set", keys=("k",), data=b"v"))
    server = AsyncMemcachedServer(backend)
    host, port = await server.start()
    conn = AsyncConnection(host, port)
    request = encode_command(Command(name="get", keys=("k",)))
    try:
        await conn.exchange(request)

        async def ping_pong(n: int) -> None:
            for _ in range(n):
                await conn.exchange(request)

        rtt = pipelined = float("inf")
        yard.mark()
        for _ in range(LOOPS):
            started = time.perf_counter()
            await ping_pong(PING_PONGS)
            wall = time.perf_counter() - started
            rtt = min(rtt, wall * yard.factor())
            started = time.perf_counter()
            await asyncio.gather(
                *(ping_pong(PING_PONGS // PIPELINE_DEPTH) for _ in range(PIPELINE_DEPTH))
            )
            wall = time.perf_counter() - started
            pipelined = min(pipelined, wall * yard.factor())
    finally:
        conn.close()
        await server.stop()
    sent = PING_PONGS // PIPELINE_DEPTH * PIPELINE_DEPTH
    return {
        "aio.transport.rtt_us": _per(rtt, PING_PONGS),
        "aio.transport.pipelined_txn_per_s": sent / pipelined,
    }


# -- simulator pieces ------------------------------------------------------


def sim_pieces(spec: specs.SimSpec, seed: int, graph, yard) -> dict:
    """Drive the public pieces ``run_simulation`` composes, one at a time,
    on the requests it would draw."""
    config = spec.config(seed)
    n = spec.requests_per_segment
    out: dict[str, float] = {"replay.sim_requests": n}

    requests: list = []

    def draw() -> None:
        gen = EgoRequestGenerator(graph, rng=derive_rng(seed, 1, 0))
        requests[:] = gen.stream(n)

    out["workloads.stream_us_per_req"] = _per(best_of(draw, yard), n)

    cc = config.cluster
    raw = make_placer("rch", cc.n_servers, cc.replication, seed=cc.placement_seed, vnodes=cc.vnodes)
    out["perf.table.compile_ms"] = (
        best_of(lambda: PlacementTable.compile(raw, graph.n_nodes), yard) * 1e3
    )

    chunks = [
        requests[i : i + config.batch_size] for i in range(0, n, config.batch_size)
    ]
    tally = spec.memory_factor is None
    plan_s = run_s = float("inf")
    for _ in range(LOOPS):
        # a fresh cluster each loop: execution mutates the LRUs
        client = build_client(config, build_cluster(config, graph.n_nodes))
        planned: list = []

        def plan_all() -> None:
            plan = client.bundler.plan_footprints if tally else client.bundler.plan_batch
            planned[:] = [plan(chunk) for chunk in chunks]

        def run_all() -> None:
            if tally:
                for chunk, footprints in zip(chunks, planned):
                    for request, footprint in zip(chunk, footprints):
                        client.tally_footprint(request, footprint)
            else:
                for plans in planned:
                    for p in plans:
                        client.execute_plan(p)

        yard.mark()
        plan_s = min(plan_s, yard.time(plan_all))
        run_s = min(run_s, yard.time(run_all))
    if tally:
        out["perf.batchcover.plan_footprints_us_per_req"] = _per(plan_s, n)
        out["core.client.tally_us_per_req"] = _per(run_s, n)
    else:
        out["core.bundling.plan_batch_us_per_req"] = _per(plan_s, n)
        out["core.client.execute_plan_us_per_req"] = _per(run_s, n)
    return out
