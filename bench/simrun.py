"""Simulator workloads: one ``run_simulation`` call is one segment."""

from __future__ import annotations

import gc
import time
from statistics import median

import layers
import spec as specs
from repro.sim.engine import run_simulation
from repro.workloads.synthetic import make_slashdot_like


def visit(spec: specs.SimSpec, seed: int, seconds: float, trace: bool, setups: int, yard) -> dict:
    """Set up, discard one repetition, then repeat for ``seconds``.

    A repetition fails if its determinism token differs from the first
    one's: the simulator must give the same answer every time.
    """
    graph = None

    def build_graph() -> None:
        nonlocal graph
        graph = make_slashdot_like(scale=spec.graph_scale, seed=spec.graph_seed)

    yard.mark()
    setup_s = [yard.time(build_graph) for _ in range(setups)]
    config = spec.config(seed)

    reference = run_simulation(graph, config)  # warm-up: fills the table cache
    token = reference.determinism_token()
    gc.collect()
    gc.freeze()

    durations: list[float] = []  # reference seconds (reference.py)
    walls: list[float] = []
    failed = 0
    yard.mark()
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        started = time.perf_counter()
        result = run_simulation(graph, config)
        walls.append(time.perf_counter() - started)
        durations.append(walls[-1] * yard.factor())
        if result.determinism_token() != token or result.tpr != reference.tpr:
            failed += 1

    out = {
        "token": token,
        "attempted": len(durations),
        "failed": failed,
        "setup_s": setup_s,
        "segments": {
            "ops_per_s": [spec.requests_per_segment / d for d in durations],
            "lat_p50_ms": [d * 1e3 for d in durations],
        },
        "wall_ops_per_s": [spec.requests_per_segment / w for w in walls],
        "samples": {"lat_p50_ms": 1},
        "scalars": {"txn_per_req": reference.tpr},
    }
    if trace:
        out["layers"] = {
            **layers.sim_pieces(spec, seed, graph, yard),
            "core.bundling.txn_per_req": reference.tpr,
            "cluster.lru.miss_rate": reference.miss_rate,
            "cluster.server.txn_size_mean": reference.mean_txn_size,
            "sim.run_us_per_req": median(durations) / spec.requests_per_segment * 1e6,
        }
    return out
