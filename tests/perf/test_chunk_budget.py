"""Call budget of the chunk planner: counts, not timings.

The item-major planner handles a chunk in a fixed number of Python-level
calls whatever the size of its requests — no call per item, per pick or
per lane — and needs nothing newer than the declared NumPy floor.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request
from tests.perf.test_tally_chunk import _as_block
from tests.protocol.test_per_key_budget import python_calls

N_ITEMS = 900


def _chunk(size: int) -> list[Request]:
    rng = np.random.default_rng(size)
    return [
        Request(items=tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist()))
        for _ in range(256)
    ]


def test_plan_footprints_calls_do_not_grow_with_request_size():
    bundler = Bundler(PlacementTable.compile(RandomPlacer(16, 3, seed=9), N_ITEMS))
    one, hundred = (
        python_calls(lambda: bundler.plan_footprints(chunk))
        for chunk in (_chunk(1), _chunk(100))
    )
    assert one == hundred
    assert one < 256  # and nothing per request either


def test_tally_chunk_calls_do_not_grow_with_the_chunk():
    """One tally chunk — draw aside — plans, updates sixteen servers' counters
    and the run's stats in a fixed number of Python-level calls: none per
    request, per transaction or per item."""
    table = PlacementTable.compile(RandomPlacer(16, 3, seed=9), N_ITEMS)

    def calls(size: int, n_requests: int) -> int:
        client = RnBClient(Cluster(table, range(N_ITEMS)), Bundler(table))
        block = _as_block(_chunk(size)[:n_requests])
        stats = ClusterStats()
        counted = python_calls(lambda: client.tally_chunk(block, stats))
        assert stats.requests == n_requests and stats.items_fetched == size * n_requests
        return counted

    assert calls(1, 256) == calls(100, 256) == calls(100, 16)
    assert calls(1, 256) < 256


PROBE = """
import numpy
if hasattr(numpy, "bitwise_count"):
    del numpy.bitwise_count  # a NumPy 1.x install
from repro.cluster.cluster import Cluster
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request
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
