"""Fig 6 — average TPR vs number of replicas (16 servers, naive memory).

Basic RnB (no overbooking: physical memory = replication level x data
size), greedy set-cover bundling, on both social-graph workloads.  The
paper reports "a significant reduction in TPR ... in some cases by more
than 50% utilizing a total of 4 copies of each item".
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.sim.config import ClientConfig, ClusterConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.workloads.synthetic import make_epinions_like, make_slashdot_like

DEFAULT_REPLICATIONS = (1, 2, 3, 4, 5)


def run(
    *,
    n_servers: int = 16,
    replications=DEFAULT_REPLICATIONS,
    scale: float = 0.1,
    n_requests: int = 1500,
    seed: int = 2013,
) -> list[ExperimentResult]:
    graphs = {
        "slashdot": make_slashdot_like(seed=seed, scale=scale),
        "epinions": make_epinions_like(seed=seed, scale=scale),
    }
    series: dict[str, list[float]] = {}
    for label, graph in graphs.items():
        tprs = []
        for r in replications:
            cfg = SimConfig(
                cluster=ClusterConfig(
                    n_servers=n_servers, replication=r, memory_factor=None
                ),
                client=ClientConfig(mode="rnb"),
                n_requests=n_requests,
                warmup_requests=0,  # naive allocation: replicas preloaded
                seed=seed,
            )
            tprs.append(run_simulation(graph, cfg).tpr)
        series[f"TPR {label}"] = tprs
        series[f"rel {label}"] = [t / tprs[0] for t in tprs]
    return [
        ExperimentResult(
            name="fig06",
            title=f"Fig 6: mean TPR vs replicas ({n_servers} servers, naive allocation)",
            x_label="replicas",
            x_values=list(replications),
            series=series,
            expectation=(
                "TPR monotonically decreasing in the replica count; more than "
                "50% reduction by 4 replicas"
            ),
            meta={g.name: g.n_nodes for g in graphs.values()},
        )
    ]
