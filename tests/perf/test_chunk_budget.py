"""Call budget of the chunk planner: counts, not timings.

The item-major planner handles a chunk in a fixed number of Python-level
calls whatever the size of its requests — no call per item, per pick or
per lane — and needs nothing newer than the declared NumPy floor.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from collections import Counter

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.obs import MetricsRegistry
from repro.perf.table import PlacementTable
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.types import ClusterStats, FetchPlan, FetchResult, Request, RequestBlock, Transaction
from repro.workloads.requests import EgoRequestGenerator
from tests.perf.test_tally_chunk import _as_block
from tests.protocol.test_per_key_budget import python_calls

N_ITEMS = 900
N_SERVERS = 16


def _chunk(size: int, n_requests: int = 256) -> list[Request]:
    rng = np.random.default_rng(size)
    return [
        Request(items=tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist()))
        for _ in range(n_requests)
    ]


def test_plan_footprints_calls_do_not_grow_with_request_size():
    bundler = Bundler(PlacementTable.compile(RandomPlacer(16, 3, seed=9), N_ITEMS))
    one, hundred = (
        python_calls(lambda: bundler.plan_footprints(chunk))
        for chunk in (_chunk(1), _chunk(100))
    )
    assert one == hundred
    assert one < 256  # and nothing per request either


def _tally_calls(size: int, n_requests: int, metrics=None) -> int:
    table = PlacementTable.compile(RandomPlacer(N_SERVERS, 3, seed=9), N_ITEMS)
    client = RnBClient(Cluster(table, range(N_ITEMS)), Bundler(table, metrics=metrics))
    block = _as_block(_chunk(size, n_requests))
    stats = ClusterStats()
    counted = python_calls(lambda: client.tally_chunk(block, stats))
    assert stats.requests == n_requests and stats.items_fetched == size * n_requests
    return counted


def test_tally_chunk_calls_do_not_grow_with_the_chunk():
    """One tally chunk — draw aside — plans, updates sixteen servers' counters
    and the run's stats in a fixed number of Python-level calls: none per
    request, per transaction or per item."""
    assert _tally_calls(1, 256) == _tally_calls(100, 256) == _tally_calls(100, 16)
    assert _tally_calls(1, 256) < 256


def _rows(block: RequestBlock, keep: np.ndarray) -> RequestBlock:
    """The rows of an ego block that ``keep`` (a mask over its requests) marks."""
    sizes = np.diff(block.offsets)
    at = np.repeat(keep, sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes[keep]))).astype(np.int64)
    return RequestBlock(block.items[at], offsets, block.slots[at], block.source)


def _heads(block: RequestBlock) -> np.ndarray:
    return block.slots[block.offsets[:-1]]


def _ego_tally_calls(graph, block: RequestBlock, warm: RequestBlock | None = None) -> int:
    table = PlacementTable.compile(RandomPlacer(N_SERVERS, 3, seed=9), graph.n_nodes)
    client = RnBClient(Cluster(table, range(graph.n_nodes)), Bundler(table))
    if warm is not None:
        client.tally_chunk(warm, ClusterStats())
    stats = ClusterStats()
    counted = python_calls(lambda: client.tally_chunk(block, stats))
    assert stats.requests == len(block) and stats.items_fetched == len(block.items)
    return counted


def test_ego_tally_calls_do_not_depend_on_the_cover_memo(small_slashdot):
    """A tally chunk of an ego block costs the same Python-level calls whether
    the bundler has solved none of its rows (on a fresh memo or a warm one),
    all of them or some, and none per request."""
    gen = EgoRequestGenerator(small_slashdot, rng=2013)
    block, other, large = gen.block(256), gen.block(256), gen.block(1024)
    unseen = _rows(other, ~np.isin(_heads(other), _heads(block)))
    half = _rows(block, np.arange(len(block)) % 2 == 0)
    assert len(unseen) and np.isin(_heads(block), _heads(half)).mean() < 1
    counts = {
        "new": _ego_tally_calls(small_slashdot, block),
        "new, warm memo": _ego_tally_calls(small_slashdot, block, warm=unseen),
        "hits": _ego_tally_calls(small_slashdot, block, warm=block),
        "mixed": _ego_tally_calls(small_slashdot, block, warm=half),
        "large, mixed": _ego_tally_calls(small_slashdot, large, warm=block),
    }
    assert len(set(counts.values())) == 1, counts
    assert counts["new"] < 256


def test_planner_telemetry_costs_calls_per_cover_size_not_per_request():
    """A registry-bound bundler feeds ``rnb_plans_total`` and ``rnb_cover_size``
    once a chunk: two calls, and two per distinct cover size — of which
    there are at most as many as servers."""
    bare = _tally_calls(5, 256)
    small, large = (_tally_calls(5, n, MetricsRegistry()) for n in (256, 1024))
    assert small == large
    assert bare < small <= bare + 2 * N_SERVERS + 2


def _execute_calls(n_requests: int) -> int:
    table = PlacementTable.compile(RandomPlacer(N_SERVERS, 3, seed=9), N_ITEMS)
    cluster = Cluster(table, range(N_ITEMS), memory_factor=1.0)
    client = RnBClient(cluster, Bundler(table))
    block = _as_block(_chunk(20, n_requests))
    stats = ClusterStats()
    counted = python_calls(lambda: client.execute_chunk(block, stats))
    assert stats.requests == n_requests and stats.second_round_transactions > 0
    assert all(server.counters.writes for server in cluster.servers)
    return counted


def test_execute_chunk_calls_do_not_grow_with_the_chunk():
    """An executor chunk with no replica space, so every replica read
    misses: its stores, write-backs, second rounds, counters and stats
    take a fixed number of Python-level calls, none per transaction or
    per miss and at most a few per server."""
    assert _execute_calls(64) == _execute_calls(512)
    assert _execute_calls(64) < 8 * N_SERVERS


PER_REQUEST_OBJECTS = (Request, Transaction, FetchPlan, FetchResult)


def constructed(fn) -> Counter:
    """How many of each per-request object ``fn()`` constructs, by class name."""
    made: Counter = Counter()

    def profiler(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_name == "__init__":
            obj = frame.f_locals.get("self")
            if isinstance(obj, PER_REQUEST_OBJECTS):
                made[type(obj).__name__] += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return made


def test_executor_chunk_builds_no_per_request_object():
    """A block on the vectorised envelope goes from the planner's arrays to
    the stores and counters — misses, write-backs and second rounds
    included — without a Request, Transaction, FetchPlan or FetchResult."""
    table = PlacementTable.compile(RandomPlacer(N_SERVERS, 3, seed=9), N_ITEMS)

    def client(**bundler_kwargs) -> RnBClient:
        cluster = Cluster(table, range(N_ITEMS), memory_factor=1.0)
        return RnBClient(cluster, Bundler(table, **bundler_kwargs))

    block = _as_block(_chunk(20, 64))
    stats = ClusterStats()
    assert constructed(lambda: client().execute_chunk(block, stats)) == Counter()
    assert stats.requests == 64 and stats.second_round_transactions > 0
    # the counter sees them where they are built: off the envelope
    off = constructed(lambda: client(hitchhiking=True).execute_chunk(block, ClusterStats()))
    assert off["Request"] == off["FetchPlan"] == off["FetchResult"] == 64


def test_executor_regime_builds_no_per_request_object(small_slashdot):
    """A limited-memory run in the ``sim_fig8`` shape draws, plans and
    executes its requests as blocks."""
    config = SimConfig(
        cluster=ClusterConfig(n_servers=N_SERVERS, replication=4, memory_factor=2.0),
        client=ClientConfig(mode="rnb"),
        n_requests=300,
        warmup_requests=100,
        seed=2013,
    )
    results = []
    assert constructed(lambda: results.append(run_simulation(small_slashdot, config))) == {}
    assert results[0].stats.misses > 0


PROBE = """
import numpy
if hasattr(numpy, "bitwise_count"):
    del numpy.bitwise_count  # a NumPy 1.x install
from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.perf.table import PlacementTable
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.types import ClusterStats, FetchPlan, FetchResult, Request, Transaction
from tests.perf.test_tally_chunk import _as_block

bundler = Bundler(PlacementTable.compile(RandomPlacer(8, 3, seed=1), 300))
chunk = [Request(items=tuple(range(n, n + size))) for n, size in ((0, 1), (5, 70), (90, 200))]
want = [bundler.plan(r) for r in chunk]

def scalar_path(request, **kwargs):
    raise AssertionError("an eligible request reached Bundler.plan")

bundler.plan = scalar_path
assert bundler.plan_batch(chunk) == want
assert bundler.plan_footprints(chunk) == [
    tuple((t.server, len(t.primary)) for t in plan.transactions) for plan in want
]
print("VECTORISED")
"""


def test_fast_path_does_not_need_bitwise_count():
    # the child finds ``repro`` the way this process did (PYTHONPATH or install)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["VECTORISED"]
