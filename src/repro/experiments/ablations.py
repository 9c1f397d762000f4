"""Ablations of RnB design decisions (DESIGN.md section 6).

Each ablation isolates one mechanism the paper argues for:

* ``tie_break`` — sticky (lowest-id) greedy ties vs random ties.  Sticky
  ties are what make replica choice consistent across similar requests
  (Fig 7's self-organisation); under overbooking, random ties spread
  accesses over more replicas and should raise the miss rate and TPR.
* ``hitchhiking`` — on vs off at fixed memory: fewer second-round
  transactions (lower TPR) at the price of more items transferred.
* ``single_item_rule`` — fetching unbundled items from the distinguished
  copy vs from the greedily-picked replica: less LRU pollution.
* ``placement`` — RCH vs multi-hash vs idealised random: TPR should be
  statistically indistinguishable, while load balance (per-server
  transaction share) stays tight for all.
* ``overbooking_level`` — logical replicas 1..8 at fixed 2.0x memory:
  gains rise then reverse ("excessive overbooking can increase TPR!").
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.workloads.graphs import SocialGraph
from repro.workloads.synthetic import make_slashdot_like


def _sim(
    graph: SocialGraph,
    *,
    n_servers=16,
    replication=3,
    memory_factor=2.0,
    n_requests=1000,
    warmup=2000,
    seed=2013,
    **client_kwargs,
):
    cfg = SimConfig(
        cluster=ClusterConfig(
            n_servers=n_servers,
            replication=replication,
            memory_factor=memory_factor,
            placement=client_kwargs.pop("placement", "rch"),
            lru_policy=client_kwargs.pop("lru_policy", "pinned"),
        ),
        client=ClientConfig(mode="rnb", **client_kwargs),
        n_requests=n_requests,
        warmup_requests=warmup,
        seed=seed,
    )
    return run_simulation(graph, cfg)


def _run_jobs(
    graph: SocialGraph, jobs: dict[str, dict], workers: int
) -> dict[str, object]:
    """Run the ablation grid, optionally fanned across processes.

    Every point is a fully independent simulation, so the grid
    parallelises trivially.  Results are assembled by job key, never by
    completion order, so the output is identical for any ``workers``.
    """
    if workers <= 1 or len(jobs) <= 1:
        return {key: _sim(graph, **kwargs) for key, kwargs in jobs.items()}
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = {
            key: pool.submit(_sim, graph, **kwargs) for key, kwargs in jobs.items()
        }
        return {key: future.result() for key, future in futures.items()}


def run(
    graph: SocialGraph | None = None,
    *,
    scale: float = 0.1,
    n_requests: int = 1000,
    warmup: int = 2000,
    seed: int = 2013,
    workers: int = 1,
) -> list[ExperimentResult]:
    graph = graph or make_slashdot_like(seed=seed, scale=scale)
    kw = dict(n_requests=n_requests, warmup=warmup, seed=seed)

    placements = ["rch", "multihash", "random"]
    levels = [1, 2, 3, 4, 6, 8]
    jobs: dict[str, dict] = {
        "sticky": dict(hitchhiking=True, tie_break="lowest", **kw),
        "random_tb": dict(hitchhiking=True, tie_break="random", **kw),
        "hh_on": dict(hitchhiking=True, **kw),
        "hh_off": dict(hitchhiking=False, **kw),
        "rule_on": dict(hitchhiking=True, single_item_rule=True, **kw),
        "rule_off": dict(hitchhiking=True, single_item_rule=False, **kw),
        "pinned": dict(hitchhiking=True, lru_policy="pinned", **kw),
        "priority": dict(hitchhiking=True, lru_policy="priority", **kw),
    }
    for p in placements:
        jobs[f"placement_{p}"] = dict(hitchhiking=True, placement=p, **kw)
    for r in levels:
        jobs[f"overbook_{r}"] = dict(hitchhiking=True, replication=r, **kw)
    sims = _run_jobs(graph, jobs, workers)
    results = []

    # 1. tie-breaking
    sticky = sims["sticky"]
    random_tb = sims["random_tb"]
    results.append(
        ExperimentResult(
            name="ablation_tie_break",
            title="Ablation: greedy tie-breaking (R=3, memory 2.0x)",
            x_label="policy",
            x_values=["lowest-id (sticky)", "random"],
            series={
                "TPR": [sticky.tpr, random_tb.tpr],
                "miss rate": [sticky.miss_rate, random_tb.miss_rate],
            },
            expectation="sticky ties give lower miss rate and TPR under overbooking",
        )
    )

    # 2. hitchhiking
    hh_on = sims["hh_on"]
    hh_off = sims["hh_off"]
    results.append(
        ExperimentResult(
            name="ablation_hitchhiking",
            title="Ablation: hitchhiking (R=3, memory 2.0x)",
            x_label="hitchhiking",
            x_values=["on", "off"],
            series={
                "TPR": [hh_on.tpr, hh_off.tpr],
                "items transferred/request": [
                    hh_on.stats.items_transferred / hh_on.n_original_requests,
                    hh_off.stats.items_transferred / hh_off.n_original_requests,
                ],
                "2nd-round txns/request": [
                    hh_on.stats.second_round_transactions / hh_on.n_original_requests,
                    hh_off.stats.second_round_transactions / hh_off.n_original_requests,
                ],
            },
            expectation=(
                "hitchhiking lowers TPR / second rounds but raises items "
                "transferred (traffic)"
            ),
        )
    )

    # 3. single-item rule
    rule_on = sims["rule_on"]
    rule_off = sims["rule_off"]
    results.append(
        ExperimentResult(
            name="ablation_single_item_rule",
            title="Ablation: single-item -> distinguished copy rule (R=3, 2.0x)",
            x_label="rule",
            x_values=["on", "off"],
            series={
                "TPR": [rule_on.tpr, rule_off.tpr],
                "miss rate": [rule_on.miss_rate, rule_off.miss_rate],
            },
            expectation=(
                "rule on avoids polluting replica LRUs with unbundled items "
                "=> equal or lower miss rate and TPR"
            ),
        )
    )

    # 4. placement scheme
    tprs, balance = [], []
    for p in placements:
        res = sims[f"placement_{p}"]
        tprs.append(res.tpr)
        per_server = np.array(
            [res.stats.per_server_transactions.get(s, 0) for s in range(16)],
            dtype=float,
        )
        balance.append(float(per_server.std() / per_server.mean()))
    results.append(
        ExperimentResult(
            name="ablation_placement",
            title="Ablation: replica placement scheme (R=3, memory 2.0x)",
            x_label="placement",
            x_values=placements,
            series={"TPR": tprs, "txn load CV": balance},
            expectation=(
                "TPR statistically indistinguishable across schemes; load "
                "coefficient of variation small (<~0.2) for all"
            ),
        )
    )

    # 5. LRU service-class policy: fixed reserve vs shared priority budget
    pinned = sims["pinned"]
    priority = sims["priority"]
    results.append(
        ExperimentResult(
            name="ablation_lru_policy",
            title="Ablation: two-service-class LRU policy (R=3, memory 2.0x)",
            x_label="policy",
            x_values=["pinned reserve", "priority shared budget"],
            series={
                "TPR": [pinned.tpr, priority.tpr],
                "miss rate": [pinned.miss_rate, priority.miss_rate],
            },
            expectation=(
                "both keep distinguished copies resident; the shared budget "
                "lets lightly-pinned servers host more replicas, so TPR/miss "
                "rate are equal or slightly better"
            ),
        )
    )

    # 6. overbooking level at fixed memory
    ob_tpr, ob_miss = [], []
    for r in levels:
        res = sims[f"overbook_{r}"]
        ob_tpr.append(res.tpr)
        ob_miss.append(res.miss_rate)
    results.append(
        ExperimentResult(
            name="ablation_overbooking",
            title="Ablation: logical replication level at fixed 2.0x memory",
            x_label="logical replicas",
            x_values=levels,
            series={"TPR": ob_tpr, "miss rate": ob_miss},
            expectation=(
                "TPR first falls as declared replicas add bundling choice, "
                "then rises again when overbooking outruns the memory "
                "(paper: 'excessive overbooking can increase TPR!')"
            ),
        )
    )
    return results
