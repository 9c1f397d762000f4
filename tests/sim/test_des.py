"""The paper's §V-B queueing DES: ``simulate_overload`` with every policy off.

Poisson arrivals, one FIFO queue per server, a request done when its
slowest transaction is.  ``rnb run queueing`` runs it over two arms — the
classic client (a bundler over one copy per item) and RnB — so the arms'
plans are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import CostModel
from repro.cluster.placement import SingleHashPlacer
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.desim import simulate_overload
from repro.types import Request
from repro.workloads.requests import RandomRequestGenerator

COST = CostModel(t_txn=1e-4, t_item=1e-5)


def requests(n, size=10, universe=1000, seed=0):
    gen = RandomRequestGenerator(universe, size, rng=np.random.default_rng(seed))
    return list(gen.stream(n))


def homed_requests(placer, n, per_server, seed=0):
    """``n`` requests, each asking ``per_server`` items of every server's."""
    by_home: dict[int, list[int]] = {sid: [] for sid in range(placer.n_servers)}
    for item in range(200 * placer.n_servers):
        by_home[placer.distinguished_for(item)].append(item)
    rng = np.random.default_rng(seed)
    return [
        Request(
            items=tuple(
                int(item)
                for sid in sorted(by_home)
                for item in rng.choice(by_home[sid], per_server, replace=False)
            )
        )
        for _ in range(n)
    ]


#: one server: every request is one 5-item transaction on server 0
ONE_SERVER = SingleHashPlacer(1, vnodes=16)


def run(reqs, *, bundler=None, n_servers=1, rate, rtt=200e-6, seed):
    return simulate_overload(
        reqs,
        bundler or Bundler(ONE_SERVER),
        n_servers=n_servers,
        cost_model=COST,
        arrival_rate=rate,
        rtt=rtt,
        rng=np.random.default_rng(seed),
    )


class TestMechanics:
    def test_latency_floor_is_rtt_plus_service(self):
        """At negligible load, latency = RTT + service time."""
        res = run(requests(200, size=5), rate=1.0, rtt=1e-3, seed=1)  # ~zero utilization
        expected = 1e-3 + COST.txn_time(5)
        assert res.mean_latency == pytest.approx(expected, rel=0.01)
        assert res.max_utilization < 0.01

    def test_queueing_delay_grows_with_load(self):
        lat = []
        for rate in (100.0, 3000.0, 6000.0):
            res = run(requests(3000, size=5), rate=rate, seed=2)
            lat.append(np.percentile(res.latencies, 95))
        assert lat[0] < lat[1] < lat[2]

    def test_saturation_detected(self):
        # service 1.5e-4s per txn => capacity ~6.6k/s; offer 20k/s
        n = 2000
        res = run(requests(n, size=5), rate=20_000.0, seed=3)
        assert res.max_utilization > 0.99
        # delivered throughput caps at the service capacity
        assert n / res.horizon == pytest.approx(1.0 / COST.txn_time(5), rel=0.1)

    def test_parallel_transactions_take_the_max(self):
        """Two txns on two idle servers finish in one service time."""
        placer = SingleHashPlacer(2, vnodes=16)
        res = run(
            homed_requests(placer, 100, 5),
            bundler=Bundler(placer),
            n_servers=2,
            rate=1.0,
            rtt=0.0,
            seed=4,
        )
        assert res.mean_latency == pytest.approx(COST.txn_time(5), rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run(requests(10), rate=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            run([], rate=1.0, seed=0)
        with pytest.raises(ConfigurationError):
            simulate_overload(
                requests(10), Bundler(ONE_SERVER), n_servers=1, cost_model=COST,
                arrival_rate=1.0, warmup_fraction=1.0,
            )

    def test_deterministic_given_rng(self):
        a = run(requests(500, size=3), rate=2000.0, seed=7)
        b = run(requests(500, size=3), rate=2000.0, seed=7)
        assert a.mean_latency == b.mean_latency


class TestPlanners:
    def test_classic_planner_groups_by_home(self):
        placer = SingleHashPlacer(4, vnodes=16)
        req = Request(items=tuple(range(30)))
        txns = Bundler(placer).plan(req).transactions
        assert sum(len(t.primary) for t in txns) == 30
        homes = {placer.distinguished_for(i) for i in req.items}
        assert {t.server for t in txns} == homes
        assert all(placer.distinguished_for(i) == t.server for t in txns for i in t.primary)

    def test_bundled_planner_uses_fewer_servers(self):
        single = SingleHashPlacer(16, vnodes=16)
        rch = RangedConsistentHashPlacer(16, 4, vnodes=16)
        req = Request(items=tuple(range(40)))
        classic = Bundler(single).plan(req).transactions
        bundled = Bundler(rch).plan(req).transactions
        assert len(bundled) < len(classic)
        assert sum(len(t.primary) for t in bundled) == 40

    def test_rnb_raises_saturation_capacity(self):
        """The headline, with queues: at a load that saturates the classic
        deployment, RnB still has headroom."""
        single = SingleHashPlacer(8, vnodes=16)
        rch = RangedConsistentHashPlacer(8, 3, vnodes=16)
        reqs = requests(3000, size=20, universe=5000)
        rate = 18_000.0  # past classic capacity for 20-item requests
        classic = run(reqs, bundler=Bundler(single), n_servers=8, rate=rate, seed=8)
        rnb = run(reqs, bundler=Bundler(rch), n_servers=8, rate=rate, seed=8)
        assert np.percentile(rnb.latencies, 95) < np.percentile(classic.latencies, 95)
        assert rnb.max_utilization < classic.max_utilization
