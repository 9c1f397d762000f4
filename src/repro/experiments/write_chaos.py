"""Write chaos: quorum writes under mid-burst kills, then convergence.

The consistency subsystem (``repro.consistency``, docs/CONSISTENCY.md)
claims that versioned quorum writes plus read-repair plus anti-entropy
turn the best-effort write path into one that *converges*: servers may
die mid-write (taking their memory with them) and every replica still
ends up at the newest committed version.  This experiment proves it on
the simulated cluster, deterministically:

1. **Provision** — every item gets one quorum write, so the whole
   keyspace is versioned.
2. **Burst** — a seeded stream of quorum writes over random keys; a
   :class:`~repro.faults.nemesis.Nemesis` replays a seeded schedule
   that kills (crash = memory wiped) and later restores servers
   *mid-burst*, so writes commit at W < R acks and restored servers
   come back empty — both flavours of divergence are seeded.
3. **Read-repair** — a seeded sample of versioned reads detects
   divergence and queues newest-wins repairs through a budgeted
   :class:`~repro.membership.repair.RepairExecutor` (the PR-2 throttle),
   drained at ``repair_rate`` copies per tick.
4. **Scrub** — the :class:`~repro.consistency.scrub.AntiEntropyScrubber`
   reconciles everything reads missed; the acceptance gate is
   ``divergent_after_scrub == 0``.

The quorum-write **p99 overhead** versus best-effort write-back is
reported from a seeded per-replica latency model: each write draws R
independent service times; best-effort completes at the distinguished
replica's draw, a W-quorum completes at the W-th smallest draw (replicas
are written concurrently).  The ratio of the p99s is the price of
durability, and it is part of the experiment output as the tentpole
acceptance criteria require.

The run is a pure function of ``seed`` (``determinism_token``), which is
what ``tests/experiments/test_soaks.py`` diffs byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.placement import make_placer
from repro.consistency import (
    COMMITTED,
    FAILED,
    PARTIAL,
    AntiEntropyScrubber,
    ClusterStore,
    QuorumWriter,
    VersionClock,
    VersionedReader,
    make_repair_executor,
    resolve_w,
)
from repro.experiments.base import ExperimentResult
from repro.faults.health import HealthTracker
from repro.faults.injector import DynamicFaultInjector
from repro.faults.nemesis import Nemesis, NemesisEvent
from repro.hashing.hashfns import stable_hash64
from repro.obs import MetricsRegistry
from repro.utils.rng import derive_rng


def make_kill_schedule(
    seed: int,
    n_servers: int,
    n_writes: int,
    *,
    n_kills: int,
    down_fraction: float = 0.25,
) -> tuple[NemesisEvent, ...]:
    """A seeded kill/restore schedule, ticked in write indices.

    Kills are spread evenly through the burst; each victim stays down
    for ``down_fraction`` of the burst (so writes issued meanwhile
    commit partially) and is restored *empty* before the burst ends.
    Victims are distinct servers.  Pure function of the arguments.
    """
    rng = derive_rng(seed, stable_hash64("write-chaos-kills") & 0x7FFFFFFF)
    victims = rng.choice(n_servers, size=min(n_kills, n_servers), replace=False)
    down_for = max(int(n_writes * down_fraction), 1)
    events: list[NemesisEvent] = []
    for i, victim in enumerate(victims):
        at = int(n_writes * (i + 1) / (len(victims) + 1))
        events.append(NemesisEvent(at, "kill", int(victim)))
        events.append(NemesisEvent(min(at + down_for, n_writes - 1), "restore", int(victim)))
    return tuple(sorted(events, key=lambda e: (e.tick, e.action, e.arg)))


def _latency_percentiles(
    seed: int, n_samples: int, r: int, w: int
) -> tuple[float, float, float]:
    """Seeded per-replica latency model: p99s of the three write modes.

    Each write draws ``r`` independent lognormal service times (one per
    replica, written concurrently).  Best-effort write-back completes at
    the distinguished replica's draw; a W-quorum completes at the W-th
    smallest; W=R waits for the slowest.  Returns
    ``(best_effort_p99, quorum_p99, all_replicas_p99)``.  Note a
    majority quorum's tail can *beat* a single write's — the W-th order
    statistic of R concurrent attempts hedges stragglers (the Harmonia
    near-linear-writes observation) — while W=R always pays the max.
    """
    rng = derive_rng(seed, stable_hash64("write-chaos-latency") & 0x7FFFFFFF)
    draws = rng.lognormal(mean=0.0, sigma=0.6, size=(n_samples, r))
    ordered = np.sort(draws, axis=1)
    return (
        float(np.percentile(draws[:, 0], 99)),
        float(np.percentile(ordered[:, w - 1], 99)),
        float(np.percentile(ordered[:, r - 1], 99)),
    )


def run(
    *,
    n_servers: int = 10,
    replication: int = 3,
    n_items: int = 1500,
    n_writes: int = 4000,
    n_kills: int = 2,
    w: str | int = "majority",
    repair_rate: int = 100,
    read_sample: int = 300,
    scrub_buckets: int = 64,
    window: int = 100,
    seed: int = 2014,
    scale: float = 1.0,
) -> list[ExperimentResult]:
    """Kill servers mid-write-burst; prove convergence to zero divergence.

    ``scale`` shrinks the run for smoke tests (items, writes and the
    read sample scale together); at any fixed parameter set the whole
    run is a function of ``seed`` alone.
    """
    n_items = max(int(n_items * scale), 50)
    n_writes = max(int(n_writes * scale), 100)
    read_sample = max(int(read_sample * scale), 30)
    n_kills = max(min(int(round(n_kills * scale)) or 1, n_servers - replication), 1)
    window = max(min(window, n_writes // 4), 1)

    placer = make_placer("rch", n_servers, replication, seed=0, vnodes=64)
    items = range(n_items)
    cluster = Cluster(placer, items, memory_factor=None)
    injector = DynamicFaultInjector()
    cluster.attach_injector(injector)

    registry = MetricsRegistry()
    health = HealthTracker(n_servers, dead_after=2)
    store = ClusterStore(cluster, placer)
    clock = VersionClock(writer=1, epoch_fn=lambda: getattr(placer, "epoch", 0))
    writer = QuorumWriter(
        store, placer, clock=clock, w=w, health=health, metrics=registry
    )

    # ---- phase 1: provision — version the whole keyspace ----
    for item in range(n_items):
        writer.write(item)

    # ---- phase 2: the burst, with mid-burst kills ----
    schedule = make_kill_schedule(seed, n_servers, n_writes, n_kills=n_kills)
    nemesis = Nemesis(
        schedule,
        injector=injector,
        on_kill=cluster.wipe_server,  # crash loses its memory
        on_restore=health.record_recovery,
    )

    key_rng = derive_rng(seed, stable_hash64("write-chaos-keys") & 0x7FFFFFFF)
    keys = key_rng.integers(0, n_items, size=n_writes)

    outcomes = {COMMITTED: 0, PARTIAL: 0, FAILED: 0}
    win_counts = {COMMITTED: 0, PARTIAL: 0, FAILED: 0}
    series: dict[str, list[float]] = {
        "committed / window": [],
        "partial (divergence seeded) / window": [],
        "failed / window": [],
        "servers down": [],
    }
    x_values: list[int] = []
    for i in range(n_writes):
        nemesis.apply(i)
        outcome = writer.write(int(keys[i]))
        outcomes[outcome.outcome] += 1
        win_counts[outcome.outcome] += 1
        if (i + 1) % window == 0:
            x_values.append(i + 1)
            series["committed / window"].append(float(win_counts[COMMITTED]))
            series["partial (divergence seeded) / window"].append(
                float(win_counts[PARTIAL])
            )
            series["failed / window"].append(float(win_counts[FAILED]))
            series["servers down"].append(float(len(injector.down)))
            win_counts = {COMMITTED: 0, PARTIAL: 0, FAILED: 0}

    # every victim is restored by the schedule; assert the fleet is whole
    # before convergence is measured
    assert not injector.down, "kill schedule must restore every victim"

    scrubber = AntiEntropyScrubber(
        store, placer, n_buckets=scrub_buckets, seed=seed, metrics=registry
    )
    divergent_before = len(scrubber.divergent_keys())

    # ---- phase 3: versioned reads + budget-throttled read-repair ----
    executor = make_repair_executor(store, metrics=registry)
    reader = VersionedReader(
        store, placer, clock=clock, health=health, metrics=registry,
        executor=executor,
    )
    read_rng = derive_rng(seed, stable_hash64("write-chaos-reads") & 0x7FFFFFFF)
    sample = read_rng.integers(0, n_items, size=read_sample)
    reads_divergent = 0
    repairs_queued = 0
    for key in sample:
        outcome = reader.read(int(key))
        reads_divergent += int(outcome.divergent)
        repairs_queued += outcome.queued
    drain_ticks = 0
    while executor.pending():
        executor.step(repair_rate, clock=drain_ticks)
        drain_ticks += 1
    divergent_after_reads = len(scrubber.divergent_keys())

    # ---- phase 4: anti-entropy scrub to convergence ----
    reports = scrubber.scrub(max_cycles=8)
    divergent_after = len(scrubber.divergent_keys())

    # ---- quorum p99 overhead vs best-effort write-back ----
    w_resolved = resolve_w(w, replication)
    best_p99, quorum_p99, all_p99 = _latency_percentiles(
        seed, n_samples=max(n_writes, 1000), r=replication, w=w_resolved
    )

    token = stable_hash64(
        repr(
            [
                ("series", tuple((k, tuple(v)) for k, v in sorted(series.items()))),
                ("outcomes", tuple(sorted(outcomes.items()))),
                ("divergent", (divergent_before, divergent_after_reads, divergent_after)),
                ("scrub", tuple((r.divergent, r.repairs_applied) for r in reports)),
            ]
        ),
        seed=seed,
    )
    last = reports[-1]
    meta = {
        "seed": seed,
        "n_servers": n_servers,
        "replication": replication,
        "w": w,
        "w_resolved": w_resolved,
        "n_items": n_items,
        "n_writes": n_writes,
        "schedule": [[e.tick, e.action, e.arg] for e in schedule],
        "writes_committed": outcomes[COMMITTED],
        "writes_partial": outcomes[PARTIAL],
        "writes_failed": outcomes[FAILED],
        "divergent_before_repair": divergent_before,
        "reads_sampled": int(read_sample),
        "reads_divergent": reads_divergent,
        "repairs_queued": repairs_queued,
        "repair_drain_ticks": drain_ticks,
        "divergent_after_reads": divergent_after_reads,
        "scrub_cycles": len(reports),
        "scrub_repairs": scrubber.total_repairs,
        "scrub_keys_walked": sum(r.keys_walked for r in reports),
        "scrub_prune_ratio": (
            last.buckets_pruned / last.buckets_compared
            if last.buckets_compared
            else 0.0
        ),
        "divergent_after_scrub": divergent_after,
        "converged": divergent_after == 0,
        "best_effort_p99": best_p99,
        "quorum_p99": quorum_p99,
        "all_replicas_p99": all_p99,
        "quorum_p99_overhead": quorum_p99 / best_p99 if best_p99 else float("nan"),
        "metrics_token": registry.token(seed),
        "determinism_token": token,
    }
    return [
        ExperimentResult(
            name="write_chaos",
            title=(
                f"Write chaos: {n_kills} mid-burst kills over {n_writes} "
                f"W={w} quorum writes ({n_servers} servers, R={replication})"
            ),
            x_label="writes issued",
            x_values=x_values,
            series=series,
            expectation=(
                "kills turn committed windows into partial ones (divergence "
                "seeded) without failing writes at W=majority; read-repair "
                "plus one anti-entropy scrub cycle pair converge the fleet "
                "back to zero divergent keys; quorum p99 overhead vs "
                "best-effort write-back stays modest (W-th order statistic "
                "of R concurrent writes)"
            ),
            meta=meta,
        )
    ]
