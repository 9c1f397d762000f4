"""Off means off: every overload hook, disabled, is bit-identical to main.

The overload subsystem threads through the planner tie-break, the FIFO
DES and the engine's chunked planning.  Each hook defaults to *off*;
these tests pin the contract that the default path produces exactly the
results it produced before the subsystem existed — not approximately,
bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.desim import simulate_overload
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.utils.rng import derive_rng
from repro.workloads.graphs import SocialGraph
from repro.workloads.requests import EgoRequestGenerator
from repro.workloads.synthetic import make_slashdot_like
from tests.sim._oracle import run_scalar


@pytest.fixture(scope="module")
def graph() -> SocialGraph:
    return make_slashdot_like(seed=9, scale=0.02)


def sim(graph, *, run=run_simulation, **overrides) -> dict:
    defaults = dict(
        cluster=ClusterConfig(n_servers=8, replication=2),
        n_requests=400,
        warmup_requests=100,
        seed=17,
    )
    defaults.update(overrides)
    res = run(graph, SimConfig(**defaults))
    return {
        "stats": res.stats,
        "tpr": res.tpr,
        "hist": res.txn_histogram.counts,
    }


class TestEngineTieBreakOff:
    def test_default_config_fast_path_identity(self, graph):
        """The stock config (tie_break="lowest") stays bit-identical to
        the request-at-a-time oracle with the overload hooks in the
        tree."""
        assert sim(graph) == sim(graph, run=run_scalar)

    def test_least_loaded_deterministic_and_path_independent(self, graph):
        cfg = ClientConfig(tie_break="least_loaded")
        a = sim(graph, client=cfg)
        # the engine must plan load-aware runs request by request
        # (chunked planning would freeze the load signal), so it agrees
        # exactly with the oracle, which does nothing else
        assert a == sim(graph, client=cfg, run=run_scalar)
        assert a == sim(graph, client=cfg)

    def test_least_loaded_still_covers_everything(self, graph):
        res = sim(graph, client=ClientConfig(tie_break="least_loaded"))
        assert res["stats"].misses == 0 or res["stats"].items_fetched > 0


class TestQueueingMultipliersOff:
    def _run(self, multipliers):
        graph = make_slashdot_like(seed=3, scale=0.02)
        placer = RangedConsistentHashPlacer(8, 2, vnodes=32)
        gen = EgoRequestGenerator(graph, rng=derive_rng(3, 1))
        return simulate_overload(
            itertools.islice(gen.stream(), 600),
            Bundler(placer),
            n_servers=8,
            cost_model=DEFAULT_MEMCACHED_MODEL,
            arrival_rate=3000.0,
            latency_multipliers=multipliers,
            rng=derive_rng(3, 2),
        )

    def test_none_equals_all_ones(self):
        """The new stragglers hook, fed neutral values, changes nothing."""
        off = self._run(None)
        neutral = self._run([1.0] * 8)
        np.testing.assert_array_equal(off.latencies, neutral.latencies)
        assert off.max_utilization == neutral.max_utilization
        assert off.metrics_token == neutral.metrics_token

    def test_straggler_actually_straggles(self):
        slow = self._run([1.0] * 7 + [30.0])
        off = self._run(None)
        assert np.percentile(slow.latencies, 95) > np.percentile(off.latencies, 95)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            self._run([1.0, 1.0])
