"""``repro.perf`` — the compiled read pipeline.

Two layers, each exactly equivalent to the code it accelerates:

* :mod:`repro.perf.table` — :class:`PlacementTable`, compiling any
  replica placer into a dense ``item -> R servers`` array with O(1)
  vectorised batch lookup.
* :mod:`repro.perf.batchcover` — the chunk-vectorised greedy set cover
  behind :meth:`repro.core.bundling.Bundler.plan_batch`,
  ``plan_footprints`` and ``plan_transactions``: one item-major kernel
  for every request size.

Equivalence is load-bearing: every experiment table under
``benchmarks/results/`` must stay byte-identical to what the uncompiled
placer and the request-at-a-time client produce, and the oracle tests in
``tests/perf`` and ``tests/sim`` enforce it.
"""
