#!/usr/bin/env python3
"""Quickstart: RnB in 30 lines.

Builds a 16-server simulated cluster with 4-way replication, executes one
multi-item request, and contrasts the transaction count with the classic
no-replication deployment — the paper's headline effect.

Run:  python examples/quickstart.py
"""

from repro import (
    Bundler,
    Cluster,
    RangedConsistentHashPlacer,
    Request,
    RnBClient,
    expected_tpr,
)


def main() -> None:
    n_servers, n_items = 16, 100_000
    request = Request(items=tuple(range(1000, 1040)))  # 40 items

    # --- classic memcached: one copy per item, consistent hashing ---
    single = RangedConsistentHashPlacer(n_servers, replication=1)
    classic_cluster = Cluster(single, items=range(n_items), memory_factor=1.0)
    classic = RnBClient(classic_cluster, Bundler(single))
    classic_result = classic.execute(request)

    # --- RnB: 4 replicas per item, greedy set-cover bundling ---
    placer = RangedConsistentHashPlacer(n_servers, replication=4)
    rnb_cluster = Cluster(placer, items=range(n_items))  # unlimited memory
    rnb = RnBClient(rnb_cluster, Bundler(placer))
    rnb_result = rnb.execute(request)

    print(f"request size            : {request.size} items")
    print(f"servers                 : {n_servers}")
    print(f"analytic no-repl TPR    : {expected_tpr(n_servers, request.size):.2f}")
    print(f"classic transactions    : {classic_result.transactions}")
    print(f"RnB (R=4) transactions  : {rnb_result.transactions}")
    saving = 1 - rnb_result.transactions / classic_result.transactions
    print(f"server work saved       : {saving:.0%}")

    assert rnb_result.items_fetched == request.size


if __name__ == "__main__":
    main()
