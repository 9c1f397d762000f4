"""``repro.perf`` — the compiled fast path for the read pipeline.

Four layers, each exactly equivalent to the code it accelerates:

* :mod:`repro.perf.table` — :class:`PlacementTable`, compiling any
  replica placer into a dense ``item -> R servers`` array with O(1)
  vectorised batch lookup.
* :mod:`repro.perf.batchcover` — the chunk-vectorised greedy set cover
  behind :meth:`repro.core.bundling.Bundler.plan_batch`,
  ``plan_footprints`` and ``plan_transactions``: one item-major kernel
  for every request size.
* :mod:`repro.perf.shard` — the sharded multiprocessing engine:
  contiguous request-stream slices across worker processes with a
  deterministic, bit-identical merge.
* :mod:`repro.perf.bench` — the ``rnb perfbench`` regression harness
  measuring cover / plan / end-to-end requests per second.

Equivalence is load-bearing: every experiment table under
``benchmarks/results/`` must stay byte-identical whether the fast path
is on or off, and the property tests in ``tests/perf`` enforce it.
"""

from repro.perf.shard import plan_shards, run_simulation_sharded, shardable
from repro.perf.table import PlacementTable, compile_placement, splitmix64_array

__all__ = [
    "PlacementTable",
    "compile_placement",
    "plan_shards",
    "run_simulation_sharded",
    "shardable",
    "splitmix64_array",
]
