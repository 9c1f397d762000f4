"""Shape tests for every per-figure experiment driver (tiny parameters).

These are the executable versions of DESIGN.md's "expected shapes": each
driver runs at reduced size and the paper's qualitative claim is asserted
on the output series.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    fig02,
    fig03,
    fig04_05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13_14,
    scalability,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.hashing.hashfns import stable_hash64
from repro.sim import engine
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.workloads.synthetic import make_slashdot_like

TINY = dict(scale=0.02, n_requests=150, seed=5)


@pytest.fixture(scope="module")
def tiny_sd():
    return make_slashdot_like(seed=5, scale=0.02)


class TestFig02:
    def test_shapes(self):
        [res] = fig02.run()
        assert isinstance(res, ExperimentResult)
        # M=1 is ideal everywhere
        assert all(v == pytest.approx(2.0) for v in res.series["M=1"])
        # larger M scales worse at small N
        m100 = res.series["M=100"]
        m10 = res.series["M=10"]
        assert m100[0] < m10[0] < 2.0
        # all factors approach 2 for huge N
        assert m100[-1] > 1.9

    def test_table_renders(self):
        [res] = fig02.run()
        out = res.table()
        assert "M=100" in out and "initial N" in out


class TestFig03:
    def test_multiget_hole_shape(self, tiny_sd):
        [res] = fig03.run(
            graph=tiny_sd, server_counts=(1, 2, 4, 8), n_requests=200, seed=5
        )
        measured = res.series["relative throughput"]
        ideal = res.series["ideal scaling"]
        # monotone growth but below ideal at the top end
        assert measured == sorted(measured)
        assert measured[-1] < ideal[-1]
        # TPR grows with N
        tprs = res.series["TPR"]
        assert tprs[0] == pytest.approx(1.0)
        assert tprs == sorted(tprs)


class TestFig04_05:
    def test_stats_match_spec(self):
        f4, f5 = fig04_05.run(scale=0.05, seed=5)
        assert f4.meta["mean_degree"] == pytest.approx(11.54, rel=0.05)
        assert f5.meta["mean_degree"] == pytest.approx(6.71, rel=0.05)
        assert sum(f4.series["nodes"]) == f4.meta["n_nodes"]


class TestFig06:
    def test_tpr_decreasing_in_replicas(self):
        [res] = fig06.run(replications=(1, 2, 4), **TINY)
        for label in ("TPR slashdot", "TPR epinions"):
            tprs = res.series[label]
            assert all(a > b for a, b in zip(tprs, tprs[1:]))

    def test_headline_reduction(self):
        [res] = fig06.run(replications=(1, 4), scale=0.05, n_requests=400, seed=5)
        rel = res.series["rel slashdot"]
        assert rel[-1] < 0.65  # strong reduction by 4 replicas


class TestFig07:
    def test_locality_example(self):
        [res] = fig07.run()
        assert res.series["server for item 1"] == ["A", "A"]
        assert res.series["server for item 2"] == ["A", "A"]
        assert "item 1 copy on C" in res.notes
        assert "item 2 copy on B" in res.notes


class TestFig08:
    def test_ratio_shape(self, tiny_sd):
        [res] = fig08.run(
            graph=tiny_sd,
            replications=(1, 3),
            memory_factors=(1.0, 2.0, 4.0),
            n_requests=200,
            warmup_requests=400,
            seed=5,
        )
        r1 = res.series["R=1"]
        r3 = res.series["R=3"]
        assert all(v == pytest.approx(1.0, abs=0.1) for v in r1)
        # more memory helps
        assert r3[-1] < r3[0]
        # at generous memory, replication wins clearly
        assert r3[-1] < 0.9


class TestFig11:
    def test_fraction_ordering(self):
        results = fig11.run(
            server_counts=(4, 16), request_sizes=(20,), n_trials=60, seed=5
        )
        [res] = results
        t50 = res.series["fetch 50%"]
        t90 = res.series["fetch 90%"]
        t100 = res.series["fetch 100%"]
        for i in range(len(t50)):
            assert t50[i] < t90[i] <= t100[i]


class TestFig12:
    def test_replication_ordering(self):
        results = fig12.run(
            server_counts=(16,),
            request_sizes=(20,),
            fractions=(0.9,),
            replications=(2, 5),
            n_trials=60,
            seed=5,
        )
        [res] = results
        assert res.series["R=5"][0] < res.series["R=2"][0]
        assert res.series["R=2"][0] < res.series["R=1 no LIMIT"][0]


class TestMonteCarloDeterminism:
    """The Monte-Carlo figures are pure functions of their parameters: the
    tokens hold every trial's draws and the number of servers the greedy
    cover picks for them, LIMIT trimming included."""

    @pytest.mark.parametrize(
        "experiment, params, token",
        [
            (fig11, {"n_trials": 30, "seed": 2013}, 3056574915132707205),
            (fig12, {"n_trials": 20, "seed": 2013}, 16320283673406251052),
            (scalability, {"n_trials": 10, "seed": 2013}, 11806435391299373463),
        ],
        ids=["fig11", "fig12", "scalability"],
    )
    def test_pinned_token(self, experiment, params, token):
        results = experiment.run(**params)
        doc = json.dumps([r.to_dict() for r in results], sort_keys=True)
        assert stable_hash64(doc) == token



class TestHitchhikingDeterminism:
    """The overbooking figures run the hitchhiking planner and the
    per-request executor (``plan_batch`` + ``execute_plan``) over a seeded
    simulation: the tokens hold every TPR they report."""

    @pytest.mark.parametrize(
        "experiment, token",
        [
            (fig08, 9278580554950993850),
            (fig09, 12407916495032735012),
            (fig10, 418096490721193798),
        ],
        ids=["fig08", "fig09", "fig10"],
    )
    def test_pinned_token(self, tiny_sd, experiment, token):
        results = experiment.run(
            graph=tiny_sd,
            replications=(1, 3),
            memory_factors=(1.0, 2.0, 4.0),
            n_requests=200,
            warmup_requests=400,
            seed=5,
        )
        doc = json.dumps([r.to_dict() for r in results], sort_keys=True)
        assert stable_hash64(doc) == token


class TestBlockPathDeterminism:
    """Without hitchhiking the simulator plans ego blocks, and a run that
    draws each user several times reads most rows' plans from the
    bundler's row table: 6 000 requests, three chunks, over graphs of
    1 643 (slashdot) and 1 509 (epinions) non-isolated users.  The tally
    regime (``fig06``) reads each known row's transactions without
    gathering its items; the executor regime reads its items' cells.  The
    tokens hold what those runs report, and were pinned before the table
    held transactions."""

    def test_fig06_pinned_token(self):
        results = fig06.run(scale=0.02, n_requests=6000, seed=5)
        doc = json.dumps([r.to_dict() for r in results], sort_keys=True)
        assert stable_hash64(doc) == 9431092729647470685

    def test_limited_memory_pinned_token(self, tiny_sd):
        config = SimConfig(
            cluster=ClusterConfig(n_servers=16, replication=3, memory_factor=2.0),
            client=ClientConfig(mode="rnb"),
            n_requests=6000,
            warmup_requests=1000,
            seed=5,
        )
        assert 3 * len(tiny_sd.nonisolated_nodes()) <= config.n_requests
        result = run_simulation(tiny_sd, config)
        assert result.determinism_token() == 12915705928981475274


class TestSharedBudgetDeterminism:
    """The shared-budget store (``lru_policy="priority"``) is a
    ``PinnedLRU``: without hitchhiking its runs take the block executor's
    replay, with it the per-request executor.  The tokens hold what those
    runs and the policy ablation report, and were pinned while the
    priority store still ran every request through ``execute_plan``."""

    @pytest.mark.parametrize(
        "hitchhiking, token",
        [(False, 8059892473531903884), (True, 1349714968921879897)],
        ids=["replay", "per-request"],
    )
    def test_priority_token(self, small_slashdot, hitchhiking, token):
        config = SimConfig(
            cluster=ClusterConfig(
                n_servers=16, replication=3, memory_factor=1.5, lru_policy="priority"
            ),
            client=ClientConfig(mode="rnb", hitchhiking=hitchhiking),
            n_requests=6000,
            warmup_requests=2000,
            seed=5,
        )
        assert run_simulation(small_slashdot, config).determinism_token() == token

    def test_unlimited_memory_token(self, small_slashdot):
        """Unlimited memory gives the priority policy a ``PinnedLRU(None)``,
        which evicts nothing: the run tallies, as the pinned policy's does.
        Pinned while this configuration still ran the block executor."""
        config = SimConfig(
            cluster=ClusterConfig(16, 3, memory_factor=None, lru_policy="priority"),
            n_requests=6000,
            warmup_requests=2000,
            seed=5,
        )
        assert run_simulation(small_slashdot, config).determinism_token() == 6411266473897305670

    def test_lru_policy_ablation_token(self, tiny_sd):
        results = ablations.run(graph=tiny_sd, n_requests=200, warmup=400, seed=5)
        [policy] = [r for r in results if r.name == "ablation_lru_policy"]
        doc = json.dumps(policy.to_dict(), sort_keys=True)
        assert stable_hash64(doc) == 15541132889808755492


class TestBaselineDeterminism:
    """The paper's baselines, read through the RnB client: no replication
    is RnB over R = 1 consistent hashing, full replication an RnB read
    confined to one bank.  The tokens were pinned while each baseline
    still had a client and a read loop of its own."""

    @pytest.mark.parametrize(
        "replication, memory_factor, client, token",
        [
            (1, 1.0, dict(mode="noreplication"), 11030613096435489932),
            (1, 1.0, dict(mode="noreplication", limit_fraction=0.5), 15535249781448378480),
            (1, 1.0, dict(mode="noreplication", merge_window=2), 15196589873984121730),
            (1, None, dict(mode="noreplication"), 9344210377831173282),
            (2, None, dict(mode="fullreplication"), 13181652251718827278),
            (4, None, dict(mode="fullreplication", limit_fraction=0.5), 1264989334679598455),
        ],
        ids=[
            "noreplication",
            "noreplication-limit",
            "noreplication-merged",
            "noreplication-unlimited",
            "fullreplication",
            "fullreplication-limit",
        ],
    )
    def test_baseline_token(self, small_slashdot, replication, memory_factor, client, token):
        config = SimConfig(
            cluster=ClusterConfig(16, replication, memory_factor=memory_factor),
            client=ClientConfig(**client),
            n_requests=3000,
            warmup_requests=1000,
            seed=5,
        )
        assert run_simulation(small_slashdot, config).determinism_token() == token

    @pytest.mark.parametrize("first", ["fullreplication", "rnb"])
    def test_modes_share_no_compiled_table(self, small_slashdot, monkeypatch, first):
        """Full replication over two banks and RnB at R = 2 compile different
        tables from one cluster config: run in one process, in either order,
        each keeps its own token."""
        monkeypatch.setattr(engine, "_TABLE_CACHE", {})
        tokens = {"fullreplication": 13181652251718827278, "rnb": 13726311110861383439}
        for mode in sorted(tokens, key=lambda m: m != first):
            config = SimConfig(
                cluster=ClusterConfig(16, 2, memory_factor=None),
                client=ClientConfig(mode=mode),
                n_requests=3000,
                warmup_requests=1000,
                seed=5,
            )
            assert run_simulation(small_slashdot, config).determinism_token() == tokens[mode]


class TestFig13_14:
    def test_microbench_curves(self):
        f13, f14 = fig13_14.run(
            txn_sizes=(1, 4, 16), n_keys=100, target_transactions=100
        )
        measured = f13.series["measured items/s"]
        assert measured[-1] > measured[0]
        assert "fitted model items/s" in f13.series
        assert len(f14.series["two clients items/s"]) == 3


class TestAblations:
    def test_all_ablations_run(self, tiny_sd):
        results = ablations.run(graph=tiny_sd, n_requests=120, warmup=200, seed=5)
        names = {r.name for r in results}
        assert names == {
            "ablation_tie_break",
            "ablation_hitchhiking",
            "ablation_single_item_rule",
            "ablation_placement",
            "ablation_lru_policy",
            "ablation_overbooking",
        }
        for r in results:
            assert r.table()

    def test_hitchhiking_tradeoff(self, tiny_sd):
        results = ablations.run(graph=tiny_sd, n_requests=200, warmup=400, seed=5)
        hh = next(r for r in results if r.name == "ablation_hitchhiking")
        tpr_on, tpr_off = hh.series["TPR"]
        traffic_on, traffic_off = hh.series["items transferred/request"]
        assert tpr_on <= tpr_off
        assert traffic_on > traffic_off


class TestRegistry:
    def test_all_figures_registered(self):
        for name in (
            "fig02",
            "fig03",
            "fig04_05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13_14",
            "ablations",
        ):
            assert name in EXPERIMENTS

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_run_experiment_dispatch(self):
        results = run_experiment("fig02")
        assert results[0].name == "fig02"
