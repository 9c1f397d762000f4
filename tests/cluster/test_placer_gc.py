"""Placers must be freed by reference counting alone.

Per-instance ``lru_cache`` attributes create an instance -> cache ->
bound-method -> instance cycle, which keeps every placer (and its memo
of up to 2^20 replica tuples) alive until the cycle collector happens to
run.  The memo dicts the placers use instead must not reference their
owner, so dropping the last reference frees the placer immediately.
"""

from __future__ import annotations

import weakref

import pytest

from repro.cluster.placement import RandomPlacer
from repro.hashing.multihash import MultiHashPlacer
from repro.hashing.rch import RangedConsistentHashPlacer

FACTORIES = [
    pytest.param(lambda: RangedConsistentHashPlacer(8, 2, vnodes=16, seed=1), id="rch"),
    pytest.param(lambda: MultiHashPlacer(8, 2, seed=1), id="multihash"),
    pytest.param(lambda: RandomPlacer(8, 2, seed=1), id="random"),
    pytest.param(lambda: RangedConsistentHashPlacer(8, 1, vnodes=16, seed=1), id="single"),
]


@pytest.mark.parametrize("factory", FACTORIES)
def test_placer_freed_without_cycle_collector(factory):
    placer = factory()
    for item in range(64):  # populate the memo
        placer.servers_for(item)
    ref = weakref.ref(placer)
    del placer
    # no gc.collect(): refcounting alone must reclaim the instance
    assert ref() is None
