"""The six workloads: their shapes, seeded inputs and answer checks.

Everything here is a pure function of ``(spec, seed)``; ``src/`` code
only ever sees the keys and values generated from them.  The reasons
each workload exists are in ``BENCHMARK.json`` (``workloads[].why``) and
in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.consistency.quorum import COMMITTED
from repro.consistency.version import decode_versioned
from repro.hashing.hashfns import stable_hash64
from repro.loadgen.runner import item_key
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.utils.rng import derive_rng
from repro.workloads.zipf import zipf_weights

#: stream tag of the benchmark's own input RNG (distinct from loadgen's)
_OPS_STREAM = 0xB3C4

#: ops generated per live workload; callers cycle through them.  Small
#: enough that every run visits the whole pool, so ``txn_per_req`` (taken
#: over the pool, each op once) repeats exactly for a seed.
POOL_OPS = 2048

#: per-request deadline, as ``LoadTestConfig.deadline`` defaults it
DEADLINE_S = 5.0


@dataclass(frozen=True, slots=True)
class LiveSpec:
    """One closed-loop workload on the loopback asyncio fleet."""

    name: str
    n_servers: int
    replication: int
    n_items: int
    request_size: int
    value_bytes: int
    callers: int
    write_fraction: float = 0.0
    zipf_exponent: float = 0.8


@dataclass(frozen=True, slots=True)
class SimSpec:
    """One simulator workload: a ``run_simulation`` call is a segment."""

    name: str
    replication: int
    memory_factor: float | None
    n_requests: int
    warmup_requests: int
    n_servers: int = 16
    graph_scale: float = 0.1
    graph_seed: int = 7

    def config(self, seed: int) -> SimConfig:
        return SimConfig(
            cluster=ClusterConfig(
                n_servers=self.n_servers,
                replication=self.replication,
                memory_factor=self.memory_factor,
            ),
            client=ClientConfig(mode="rnb"),
            n_requests=self.n_requests,
            warmup_requests=self.warmup_requests,
            seed=seed,
        )

    @property
    def requests_per_segment(self) -> int:
        return self.n_requests + self.warmup_requests


LIVE = {
    s.name: s
    for s in (
        LiveSpec("bundle_read", 16, 3, 20_000, 40, 64, callers=2),
        LiveSpec("bulk_value_read", 4, 2, 2_000, 8, 16 * 1024, callers=2),
        LiveSpec("fanin_read", 4, 2, 20_000, 8, 64, callers=32),
        LiveSpec("mixed_rw", 8, 3, 20_000, 20, 256, callers=2, write_fraction=0.1),
    )
}
# Request counts are half the issue's sizing (40 000 / 10 000 + 5 000):
# a repetition is a segment, and a run has to fit at least twelve.
SIM = {
    s.name: s
    for s in (
        SimSpec("sim_fig6", 3, None, n_requests=20_000, warmup_requests=0),
        SimSpec("sim_fig8", 4, 2.0, n_requests=5_000, warmup_requests=2_500),
    )
}


# -- seeded inputs ---------------------------------------------------------


def build_ops(spec: LiveSpec, seed: int) -> list[tuple]:
    """The op pool: ``("r", keys)`` multi-gets and ``("w", key)`` writes.

    Keys are Zipf-distributed and distinct within a request (duplicates
    redrawn, i.e. sampling without replacement); the read/write order is
    part of the seeded sequence.
    """
    rng = derive_rng(seed, _OPS_STREAM, stable_hash64(spec.name) & 0x7FFFFFFF)
    cdf = np.cumsum(zipf_weights(spec.n_items, spec.zipf_exponent))
    cdf /= cdf[-1]
    is_write = rng.random(POOL_OPS) < spec.write_fraction
    m = spec.request_size
    draws = np.searchsorted(cdf, rng.random((POOL_OPS, 2 * m)), side="right")
    ops: list[tuple] = []
    for row, write in zip(draws, is_write):
        picked = dict.fromkeys(row.tolist())
        while len(picked) < m:  # a duplicate-heavy row: keep drawing
            extra = np.searchsorted(cdf, rng.random(m), side="right")
            picked.update(dict.fromkeys(extra.tolist()))
        ids = list(picked)[:m]
        if write:
            ops.append(("w", item_key(ids[0])))
        else:
            ops.append(("r", tuple(item_key(i) for i in ids)))
    return ops


def ops_token(ops: list[tuple]) -> int:
    """64-bit digest of the generated workload (same seed, same token)."""
    blob = ";".join(
        f"{op[0]}:{op[1] if op[0] == 'w' else ','.join(op[1])}" for op in ops
    )
    return stable_hash64(blob)


def preload_value(key: str, size: int) -> bytes:
    return f"{key}=".encode().ljust(size, b"x")


def written_value(key: str, seq: int, size: int) -> bytes:
    return f"{key}={seq:010d}".encode().ljust(size, b"w")


# -- answer checks ---------------------------------------------------------


def read_ok(spec: LiveSpec, keys: tuple, outcome) -> bool:
    """Every key present, every payload ``key=...`` of the stated size,
    nothing degraded."""
    if outcome.deadline_hit or outcome.missing or outcome.failed_servers:
        return False
    values = outcome.values
    if len(values) != len(keys):
        return False
    for key in keys:
        value = values.get(key)
        if value is None:
            return False
        payload = decode_versioned(value)[1]
        if len(payload) != spec.value_bytes or not payload.startswith(
            key.encode() + b"="
        ):
            return False
    return True


def write_ok(outcome) -> bool:
    return outcome.outcome == COMMITTED
