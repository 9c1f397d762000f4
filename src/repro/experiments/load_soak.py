"""Load soak: identical demand under steady, diurnal and flash-crowd arrivals.

The hotspot soak stresses *where* load lands (a straggler under skew);
this one stresses *when* it lands.  One seeded Zipf request stream is
replayed three times through the event-heap overload simulator
(:func:`repro.overload.desim.simulate_overload`) with the full defence
ladder on — same requests, same total count, same schedule span — but
with arrival times drawn from the open-loop rate curves of
:mod:`repro.loadgen.schedule`:

* **steady** — homogeneous Poisson arrivals at mean utilisation ``rho``
  on the bottleneck server: the comfortable regime;
* **diurnal** — a day/night sinusoid: the peak runs hotter than ``rho``
  but slowly enough for breakers and admission to track it;
* **flash** — a ``flash_factor``× square spike: transient saturation
  that no capacity plan sized for the mean survives un-degraded.

Goodput uses the DES's drain horizon (``items delivered / horizon``), so
the three arms are directly comparable — they deliver (nearly) the same
items over the same span; what differs is the tail and how much the
ladder had to shed to protect it.

Acceptance (meta): ``requests_failed`` == 0 in every arm (the ladder
degrades, it never drops), the flash arm's p99 and shed+cut rates are at
least the steady arm's, and the whole run is a pure function of ``seed``
(``determinism_token``; ``tests/experiments/test_soaks.py`` diffs two
runs).
"""

from __future__ import annotations

from repro.analysis.calibration import DEFAULT_MEMCACHED_MODEL
from repro.experiments.base import ExperimentResult
from repro.experiments.hotspot import ladder_series, skewed_fleet
from repro.faults.partition import blackout_spans
from repro.hashing.hashfns import stable_hash64
from repro.loadgen.schedule import arrival_times
from repro.overload.desim import simulate_overload

ARMS = ("steady", "diurnal", "flash")
_CURVES = {"steady": "constant", "diurnal": "diurnal", "flash": "flash"}


def run(
    *,
    n_servers: int = 10,
    replication: int = 2,
    n_items: int = 4000,
    request_size: int = 10,
    n_requests: int = 2400,
    zipf_exponent: float = 1.0,
    rho: float = 0.75,
    flash_factor: float = 6.0,
    seed: int = 2013,
    scale: float = 1.0,
    nemesis_seed: int | None = None,
) -> list[ExperimentResult]:
    """Soak the defence ladder under three arrival-time regimes.

    ``rho`` sets the *mean* utilisation of the bottleneck server; the
    diurnal peak and the flash spike both run transiently past it.
    ``scale`` shrinks the run for smoke tests; at any fixed parameter
    set the run is a pure function of ``seed``.

    ``nemesis_seed`` (None by default) additionally runs the **flash**
    arm under the seeded link blackouts of :func:`repro.faults.
    partition.blackout_spans` — the schedule ``rnb loadtest --nemesis``
    replays on real sockets — each cutting one server's link at the DES
    dispatcher, so the worst arrival regime is also fighting a partial
    partition.  Steady and diurnal arms are untouched, which keeps the
    cross-arm comparison meaningful.
    """
    n_requests = max(int(n_requests * scale), 200)
    n_items = max(int(n_items * scale), 200)
    bundler, requests, demand, config = skewed_fleet(
        seed, n_servers, replication, n_items, request_size, n_requests, zipf_exponent
    )
    # The bottleneck server's busy work at utilisation rho fixes the mean
    # arrival rate, hence the span the three curves share.
    duration = max(demand) / rho

    unreachable = None
    nemesis_spans = []
    if nemesis_seed is not None:
        nemesis_spans = blackout_spans(nemesis_seed, n_servers, duration)

        def unreachable(sid: int, now: float) -> bool:
            return any(s <= now < e for s, e, victim in nemesis_spans if victim == sid)

    results = {}
    for arm in ARMS:
        times = arrival_times(
            n_requests,
            duration,
            curve=_CURVES[arm],
            scheduler="poisson",
            seed=seed,
            **({"factor": flash_factor} if arm == "flash" else {}),
        )
        results[arm] = simulate_overload(
            requests,
            bundler,
            n_servers=n_servers,
            cost_model=DEFAULT_MEMCACHED_MODEL,
            arrival_times=times,
            config=config,
            unreachable=unreachable if arm == "flash" else None,
        )

    def goodput(r) -> float:
        span = r.horizon if r.horizon > 0 else 1.0
        return r.served_fraction * r.items_measured / span

    series = ladder_series(
        results,
        {
            "deadline cut rate": lambda r: r.deadline_cut_rate,
            "goodput (items/s)": goodput,
            "requests degraded": lambda r: float(r.requests_degraded),
            "requests failed": lambda r: float(r.requests_failed),
        },
    )
    token = stable_hash64(
        repr([(k, tuple(v)) for k, v in sorted(series.items())]), seed=seed
    )
    steady, flash = results["steady"], results["flash"]
    meta = {
        "seed": seed,
        "n_servers": n_servers,
        "replication": replication,
        "rho": rho,
        "flash_factor": flash_factor,
        "duration": duration,
        "steady_p99_ms": steady.p99_latency * 1e3,
        "flash_p99_ms": flash.p99_latency * 1e3,
        "flash_pain": (
            (flash.shed_rate + flash.deadline_cut_rate)
            - (steady.shed_rate + steady.deadline_cut_rate)
        ),
        "busy_verdicts": {arm: results[arm].busy_verdicts for arm in ARMS},
        "requests_failed": sum(results[arm].requests_failed for arm in ARMS),
        "nemesis_seed": nemesis_seed,
        "nemesis_blackouts": [
            [round(s, 6), round(e, 6), victim] for s, e, victim in nemesis_spans
        ],
        "partition_blocked": {arm: results[arm].partition_blocked for arm in ARMS},
        "determinism_token": token,
        # per-arm repro.obs telemetry (docs/OBSERVABILITY.md): the same
        # metric families the live loadtest emits; tokens make a same-seed
        # diff cover telemetry, not just headline outcomes (full
        # snapshots stay on each arm's OverloadResult.metrics)
        "metrics_token": {arm: results[arm].metrics_token for arm in ARMS},
        "metric_families": sorted(results["steady"].metrics),
    }
    return [
        ExperimentResult(
            name="load_soak",
            title=(
                f"Load soak: Zipf({zipf_exponent}) demand at rho={rho:g} under "
                f"steady / diurnal / flash({flash_factor:g}x) arrivals "
                f"({n_servers} servers, R={replication})"
            ),
            x_label="arm",
            x_values=list(ARMS),
            series=series,
            expectation=(
                "arrival timing alone moves the tail: the flash arm's p99 and "
                "shed+cut rates are the worst of the three at identical total "
                "demand, the diurnal arm sits between, and zero requests fail "
                "anywhere — the ladder answers degraded, never drops"
            ),
            meta=meta,
        )
    ]
