"""Hotspot soak: Zipf-skewed load plus a straggler, with and without overload defences.

The queueing experiment shows *where* the fleet saturates; this one shows
what the client can do about it.  A Zipf-skewed multi-get workload runs
through the event-heap overload simulator
(:func:`repro.overload.desim.simulate_overload`) against a fleet with one
seeded *straggler* (its service times inflated ``straggler_factor``x —
the classic degraded-but-alive server that health trackers never
declare dead), in two arms over identical arrivals:

* **baseline** — no client policy at all: unbounded FIFO queues, static
  lowest-id tie-breaks, no hedging.  Requests that cover onto the
  straggler wait behind its backlog; p99 tracks the straggler.
* **overload** — the full ladder from docs/OVERLOAD.md: bounded queues
  shedding BUSY, circuit breakers excluding the straggler from covers,
  load-aware tie-breaks, quantile hedging, and a deadline budget that
  degrades instead of failing.

The arrival rate is auto-calibrated from the planned per-server demand
so the straggler runs past saturation (``straggler_rho`` > 1) while the
rest of the fleet keeps ample headroom — the regime where replica
freedom (R >= 2) means the pain is entirely optional.

Acceptance (meta): ``p99_speedup`` > 1 (the overload arm beats baseline
p99), ``requests_failed`` == 0 in both arms (degraded responses are
counted, never dropped), and the whole run is a pure function of
``seed`` (``determinism_token``; ``tests/experiments/test_soaks.py``
diffs two runs byte for byte).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL
from repro.core.bundling import Bundler
from repro.experiments.base import ExperimentResult
from repro.hashing.hashfns import stable_hash64
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.desim import OverloadConfig, simulate_overload
from repro.types import Request
from repro.utils.rng import derive_rng
from repro.workloads.zipf import zipf_weights

ARMS = ("baseline", "overload")


def make_requests(
    seed: int, n_items: int, request_size: int, n_requests: int, zipf_exponent: float
) -> list[Request]:
    """The seeded Zipf-skewed request stream both arms replay."""
    rng = derive_rng(seed, stable_hash64("hotspot-requests") & 0x7FFFFFFF)
    weights = zipf_weights(n_items, zipf_exponent)
    size = min(request_size, n_items)
    return [
        Request(
            items=tuple(
                sorted(
                    int(i)
                    for i in rng.choice(n_items, size=size, replace=False, p=weights)
                )
            )
        )
        for _ in range(n_requests)
    ]


def skewed_fleet(
    seed, n_servers, replication, n_items, request_size, n_requests, zipf_exponent
) -> tuple[Bundler, list[Request], list[float], OverloadConfig]:
    """What both overload-simulator soaks (this one and ``load_soak``) run.

    Returns the bundler over a 64-vnode RCH placement, the seeded Zipf
    request stream, each server's planned busy time for that stream
    under the default cost model (which sizes the arrival rate), and the
    defence ladder of docs/OVERLOAD.md: bounded queues, breakers,
    load-aware tie-breaks and a deadline that degrades.
    """
    placer = RangedConsistentHashPlacer(n_servers, replication, seed=0, vnodes=64)
    bundler = Bundler(placer)
    requests = make_requests(seed, n_items, request_size, n_requests, zipf_exponent)
    demand = [0.0] * n_servers
    for footprint in bundler.plan_footprints(requests):
        for server, n_primary in footprint:
            demand[server] += DEFAULT_MEMCACHED_MODEL.txn_time(n_primary)
    config = OverloadConfig(
        queue_limit=32,
        breaker=True,
        trip_after=4,
        window=12,
        open_ticks=60,
        deadline=DEFAULT_MEMCACHED_MODEL.txn_time(request_size) * 400,
        partial_fraction=0.5,
        load_aware=True,
        seed=seed,
    )
    return bundler, requests, demand, config


def ladder_series(results: dict, extra: dict) -> dict[str, list[float]]:
    """One value per arm of the tail and shedding series both soaks
    report, followed by ``extra``'s ``name -> fn(result)`` columns."""
    columns = {
        "p50 latency (ms)": lambda r: r.p50_latency * 1e3,
        "p99 latency (ms)": lambda r: r.p99_latency * 1e3,
        "p999 latency (ms)": lambda r: r.p999_latency * 1e3,
        "served fraction": lambda r: r.served_fraction,
        "shed rate": lambda r: r.shed_rate,
        **extra,
    }
    return {name: [fn(r) for r in results.values()] for name, fn in columns.items()}


def run(
    *,
    n_servers: int = 12,
    replication: int = 2,
    n_items: int = 4000,
    request_size: int = 10,
    n_requests: int = 2500,
    zipf_exponent: float = 1.0,
    straggler_factor: float = 10.0,
    straggler_rho: float = 1.3,
    seed: int = 2013,
    scale: float = 1.0,
) -> list[ExperimentResult]:
    """Soak the overload defences against one straggler under skewed load.

    ``scale`` shrinks the run for smoke tests (requests and items scale
    together; at any fixed parameter set the run is a pure function of
    ``seed``).
    """
    n_requests = max(int(n_requests * scale), 200)
    n_items = max(int(n_items * scale), 200)
    bundler, requests, demand, ladder = skewed_fleet(
        seed, n_servers, replication, n_items, request_size, n_requests, zipf_exponent
    )
    # the overload arm also trips breakers on slow transactions and hedges
    config = replace(
        ladder,
        trip_latency=DEFAULT_MEMCACHED_MODEL.txn_time(request_size) * straggler_factor * 3,
        hedge_quantile=0.95,
        max_hedges=1,
    )

    # One seeded straggler: alive, answering, just straggler_factor slower.
    straggler = int(
        derive_rng(seed, stable_hash64("hotspot-straggler") & 0x7FFFFFFF).integers(
            0, n_servers
        )
    )
    multipliers = [1.0] * n_servers
    multipliers[straggler] = straggler_factor

    # Calibrate the arrival rate from the planned per-server demand: drive
    # the straggler past saturation (rho > 1) while the healthy fleet
    # keeps headroom — overload that replica freedom can route around.
    arrival_rate = straggler_rho * n_requests / (demand[straggler] * straggler_factor)

    results = {}
    for arm, cfg in (("baseline", None), ("overload", config)):
        results[arm] = simulate_overload(
            requests,
            bundler,
            n_servers=n_servers,
            cost_model=DEFAULT_MEMCACHED_MODEL,
            arrival_rate=arrival_rate,
            latency_multipliers=multipliers,
            config=cfg,
            rng=derive_rng(seed, stable_hash64("hotspot-arrivals") & 0x7FFFFFFF),
        )

    series = ladder_series(
        results,
        {
            "hedge win rate": lambda r: r.hedge_win_rate,
            "breaker transitions": lambda r: float(r.breaker_transitions),
            "requests failed": lambda r: float(r.requests_failed),
        },
    )
    token = stable_hash64(
        repr([(k, tuple(v)) for k, v in sorted(series.items())]), seed=seed
    )
    base, over = results["baseline"], results["overload"]
    meta = {
        "seed": seed,
        "n_servers": n_servers,
        "replication": replication,
        "straggler": straggler,
        "straggler_factor": straggler_factor,
        "straggler_rho": straggler_rho,
        "arrival_rate": arrival_rate,
        "p99_speedup": base.p99_latency / over.p99_latency,
        "p999_speedup": base.p999_latency / over.p999_latency,
        "baseline_p99_ms": base.p99_latency * 1e3,
        "overload_p99_ms": over.p99_latency * 1e3,
        "hedges_issued": over.hedges_issued,
        "hedge_wins": over.hedge_wins,
        "busy_verdicts": over.busy_verdicts,
        "breaker_transitions": over.breaker_transitions,
        "ladder_counts": over.ladder_counts,
        "served_fraction_overload": over.served_fraction,
        "requests_degraded": over.requests_degraded,
        "requests_failed": base.requests_failed + over.requests_failed,
        "determinism_token": token,
    }
    return [
        ExperimentResult(
            name="hotspot_soak",
            title=(
                f"Hotspot soak: Zipf({zipf_exponent}) load, server {straggler} "
                f"straggling {straggler_factor:g}x at rho={straggler_rho:g} "
                f"({n_servers} servers, R={replication})"
            ),
            x_label="arm",
            x_values=list(ARMS),
            series=series,
            expectation=(
                "the overload arm's p99/p999 beat baseline (breakers route "
                "covers off the straggler, hedges rescue requests already "
                "stuck behind it); zero requests fail in either arm — "
                "backpressure degrades responses, it never drops them"
            ),
            meta=meta,
        )
    ]
