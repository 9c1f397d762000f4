"""Partition chaos: split-brain safety and convergence under a network cut.

The partition layer (:mod:`repro.faults.partition`, docs/PARTITIONS.md)
claims two things the node-fault experiments cannot test:

* **safety** — a membership epoch can never commit on both sides of a
  majority/minority split.  The quorum gate
  (:meth:`~repro.membership.service.MembershipService.has_quorum`)
  counts reachable *members* (dead or not) against the full view, so
  only one side of a split can clear the bar.  Minority clients degrade:
  quorum writes come back :data:`~repro.consistency.quorum.REJECTED`
  (retryable, no stamp consumed) and versioned reads fall back to
  distinguished-only mode.
* **convergence** — after the partition heals and the anti-entropy
  scrubber runs, the fleet holds exactly what the acknowledged writes
  say it should.  The proof is a recorded operation history checked by
  :func:`repro.consistency.history.check_history` — read-your-writes,
  monotonic reads, and global newest-wins convergence, with any
  violation rendered as a minimal counter-example.

The run: provision a versioned keyspace, cut a seeded 7/3 split (one
client endpoint per side), run concurrent seeded write/read bursts on
both sides while a majority server crashes mid-split (memory wiped) and
both sides try to commit membership changes, heal, re-admit the crashed
server, drain repair, scrub, then audit every key with ``phase="final"``
reads.  Gates (meta): ``violations == 0``, ``divergent_after_scrub ==
0``, ``minority_epoch_commits == 0`` and ``quorum_rejections > 0`` —
the minority *tried* and was refused.  The whole run is a pure function
of ``seed`` (``determinism_token``; ``tests/experiments/test_soaks.py``
diffs two same-seed runs byte for byte).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.consistency import (
    AntiEntropyScrubber,
    ClusterStore,
    HistoryRecorder,
    QuorumWriter,
    VersionClock,
    VersionedReader,
    check_history,
    make_repair_executor,
    resolve_w,
)
from repro.errors import NoQuorumError
from repro.experiments.base import ExperimentResult
from repro.faults.health import HealthTracker
from repro.faults.injector import DynamicFaultInjector
from repro.faults.partition import PartitionPlan, PartitionedInjector
from repro.hashing.hashfns import stable_hash64
from repro.membership import EpochedPlacer, MembershipService, make_cluster_service
from repro.obs import MetricsRegistry
from repro.utils.rng import derive_rng

#: client-process endpoints, one per side of the split (negative ids
#: never collide with server ids — see repro.faults.partition.CLIENT)
MAJORITY_CLIENT = -1
MINORITY_CLIENT = -2


def make_split(seed: int, n_servers: int, minority_size: int) -> tuple[tuple, tuple]:
    """Seeded disjoint ``(majority, minority)`` server groups."""
    rng = derive_rng(seed, stable_hash64("partition-split") & 0x7FFFFFFF)
    minority = sorted(
        int(s) for s in rng.choice(n_servers, size=minority_size, replace=False)
    )
    majority = tuple(s for s in range(n_servers) if s not in set(minority))
    return majority, tuple(minority)


def run(
    *,
    n_servers: int = 10,
    replication: int = 3,
    minority_size: int = 3,
    n_items: int = 600,
    n_steps: int = 300,
    w: str | int = "majority",
    repair_rate: int = 200,
    scrub_buckets: int = 64,
    window: int = 25,
    seed: int = 2016,
    scale: float = 1.0,
) -> list[ExperimentResult]:
    """Split the fleet, write on both sides, heal, and audit the history.

    ``scale`` shrinks the run for smoke tests (items and burst steps
    scale together); at any fixed parameter set the whole run is a pure
    function of ``seed``.
    """
    n_items = max(int(n_items * scale), 40)
    n_steps = max(int(n_steps * scale), 60)
    window = max(min(window, n_steps // 4), 1)

    majority, minority = make_split(seed, n_servers, minority_size)
    registry = MetricsRegistry()

    placer_maj = EpochedPlacer("rch", n_servers, replication, seed=0, vnodes=64)
    cluster = Cluster(placer_maj, range(n_items), memory_factor=None)
    inner = DynamicFaultInjector()
    plan = PartitionPlan()
    injector = PartitionedInjector(
        plan, inner, vantage=MAJORITY_CLIENT, metrics=registry
    )
    cluster.attach_injector(injector)

    # Each side runs its own full client stack against the one cluster:
    # its own placer (views diverge only if epochs commit), health,
    # membership service, quorum writer and versioned reader.  The
    # prober anchors each service at its side's client endpoint.
    service_maj = make_cluster_service(
        cluster,
        placer_maj,
        confirm_after=1,
        repair_rate=repair_rate,
        quorum_prober=lambda m: injector.can_reach(MAJORITY_CLIENT, m),
    )
    placer_min = EpochedPlacer("rch", n_servers, replication, seed=0, vnodes=64)
    service_min = MembershipService(
        placer_min,
        cluster.items,
        executor=None,
        confirm_after=1,
        quorum_prober=lambda m: injector.can_reach(MINORITY_CLIENT, m),
    )

    def client_side(placer, service, writer_id: int, side: str, *, repair: bool):
        """One side's health, store, clock, quorum writer and versioned
        reader, gated on ``service``'s quorum, metrics labelled ``side``;
        ``repair`` gives the reader a throttled repair executor."""
        health = HealthTracker(n_servers, dead_after=2)
        store = ClusterStore(cluster, placer)
        clock = VersionClock(writer=writer_id, epoch_fn=lambda: placer.epoch)
        gate = service.has_quorum
        writer = QuorumWriter(store, placer, clock=clock, w=w, health=health, gate=gate)
        writer.bind_metrics(registry, side=side)
        executor = make_repair_executor(store, metrics=registry) if repair else None
        reader = VersionedReader(
            store, placer, clock=clock, health=health, executor=executor, gate=gate
        )
        reader.bind_metrics(registry, side=side)
        return writer, reader

    writer_maj, reader_maj = client_side(placer_maj, service_maj, 1, "majority", repair=True)
    writer_min, reader_min = client_side(placer_min, service_min, 2, "minority", repair=False)
    executor = reader_maj.executor

    recorder = HistoryRecorder(metrics=registry)

    def record_write(session, key, outcome) -> None:
        recorder.record_write(
            session, key, ok=outcome.committed, stamp=outcome.stamp
        )

    def record_read(session, key, outcome, *, phase: str = "") -> None:
        recorder.record_read(
            session, key, ok=outcome.found, stamp=outcome.stamp, phase=phase
        )

    # ---- phase 1: provision — version the whole keyspace, no cuts ----
    injector.vantage = MAJORITY_CLIENT
    for item in range(n_items):
        record_write("maj", item, writer_maj.write(item))
        injector.advance(1)

    # ---- phase 2: split, then concurrent bursts on both sides ----
    split_tick = injector.tick
    plan.symmetric_split(
        (MAJORITY_CLIENT, *majority), (MINORITY_CLIENT, *minority),
        start=split_tick,
    )

    kill_rng = derive_rng(seed, stable_hash64("partition-victim") & 0x7FFFFFFF)
    victim = int(majority[int(kill_rng.integers(0, len(majority)))])
    kill_at = n_steps // 3
    propose_at = n_steps // 2

    key_rng = derive_rng(seed, stable_hash64("partition-keys") & 0x7FFFFFFF)
    keys = key_rng.integers(0, n_items, size=(n_steps, 4))

    counts = {"committed": 0, "partial": 0, "failed": 0, "rejected": 0}
    win = dict.fromkeys(counts, 0)
    win_degraded = 0
    series: dict[str, list[float]] = {
        "majority committed / window": [],
        "majority partial / window": [],
        "minority rejected / window": [],
        "minority degraded reads / window": [],
        "blocked requests (cumulative)": [],
    }
    x_values: list[int] = []
    minority_removal_commits = 0
    noquorum_raised = 0
    removal_committed = False

    for step in range(n_steps):
        if step == kill_at:
            inner.kill(victim)
            cluster.wipe_server(victim)  # crash loses its memory
        if step == propose_at:
            # the majority side saw the crash and amputates the victim;
            # the minority side cannot see the majority at all and tries
            # to amputate *them* — the quorum gate must refuse it
            injector.vantage = MAJORITY_CLIENT
            removal_committed = service_maj.propose_removal(
                victim, source="maj-client"
            )
            injector.vantage = MINORITY_CLIENT
            for target in majority[:2]:
                if service_min.propose_removal(target, source="min-client"):
                    minority_removal_commits += 1
            try:
                service_min.announce_recovery(int(minority[0]))
            except NoQuorumError:
                noquorum_raised += 1

        maj_wkey, maj_rkey, min_wkey, min_rkey = (int(k) for k in keys[step])

        injector.vantage = MAJORITY_CLIENT
        out = writer_maj.write(maj_wkey)
        counts[out.outcome] = counts.get(out.outcome, 0) + 1
        win[out.outcome] = win.get(out.outcome, 0) + 1
        record_write("maj", maj_wkey, out)
        record_read("maj", maj_rkey, reader_maj.read(maj_rkey))

        injector.vantage = MINORITY_CLIENT
        out = writer_min.write(min_wkey)
        counts[out.outcome] = counts.get(out.outcome, 0) + 1
        win[out.outcome] = win.get(out.outcome, 0) + 1
        record_write("min", min_wkey, out)
        routcome = reader_min.read(min_rkey)
        win_degraded += int(routcome.degraded)
        record_read("min", min_rkey, routcome)

        injector.advance(1)
        if (step + 1) % window == 0:
            x_values.append(step + 1)
            series["majority committed / window"].append(float(win["committed"]))
            series["majority partial / window"].append(float(win["partial"]))
            series["minority rejected / window"].append(float(win["rejected"]))
            series["minority degraded reads / window"].append(float(win_degraded))
            series["blocked requests (cumulative)"].append(
                float(injector.blocked_requests)
            )
            win = dict.fromkeys(counts, 0)
            win_degraded = 0

    epoch_min_at_heal = placer_min.epoch
    minority_epoch_commits = len(service_min.events)

    # ---- phase 3: heal, re-admit the crashed server, drain repair ----
    heal_tick = injector.tick
    plan.heal(heal_tick)
    injector.vantage = MAJORITY_CLIENT
    inner.restore(victim)
    reader_maj.health.record_recovery(victim)
    if not service_maj.view.is_alive(victim):
        service_maj.announce_recovery(victim)
    drain_ticks = 0
    while service_maj.pending_repair():
        service_maj.tick(clock=heal_tick + drain_ticks)
        drain_ticks += 1
    while executor.pending():
        executor.step(repair_rate, clock=heal_tick + drain_ticks)
        drain_ticks += 1
    # the minority refreshes from the winning side: monotone epochs mean
    # it can always fast-forward to the majority's view, never the reverse
    placer_min.install_view(placer_maj.view)

    # ---- phase 4: anti-entropy scrub to convergence ----
    scrubber = AntiEntropyScrubber(
        reader_maj.store, placer_maj, n_buckets=scrub_buckets, seed=seed,
        metrics=registry,
    )
    divergent_before = len(scrubber.divergent_keys())
    reports = scrubber.scrub(max_cycles=8)
    divergent_after = len(scrubber.divergent_keys())

    # ---- phase 5: final audit reads + the history verdict ----
    for item in range(n_items):
        record_read("auditor", item, reader_maj.read(item), phase="final")
    sample = derive_rng(
        seed, stable_hash64("partition-final-min") & 0x7FFFFFFF
    ).integers(0, n_items, size=min(50, n_items))
    for item in sample:
        record_read("min", int(item), reader_min.read(int(item)), phase="final")
    report = check_history(recorder.ops, metrics=registry)

    token = stable_hash64(
        repr(
            [
                ("series", tuple((k, tuple(v)) for k, v in sorted(series.items()))),
                ("counts", tuple(sorted(counts.items()))),
                ("split", (majority, minority, victim)),
                ("epochs", (placer_maj.epoch, epoch_min_at_heal)),
                ("divergent", (divergent_before, divergent_after)),
                ("violations", tuple(v.kind for v in report.violations)),
            ]
        ),
        seed=seed,
    )
    meta = {
        "seed": seed,
        "n_servers": n_servers,
        "replication": replication,
        "w": w,
        "w_resolved": resolve_w(w, replication),
        "n_items": n_items,
        "n_steps": n_steps,
        "majority": list(majority),
        "minority": list(minority),
        "victim": victim,
        "removal_committed": removal_committed,
        "writes_committed": counts["committed"],
        "writes_partial": counts["partial"],
        "writes_failed": counts["failed"],
        "writes_rejected": counts["rejected"],
        "blocked_requests": injector.blocked_requests,
        "blocked_replies": injector.blocked_replies,
        "quorum_rejections": (
            service_min.quorum_rejections + service_maj.quorum_rejections
        ),
        "noquorum_raised": noquorum_raised,
        "minority_epoch_commits": minority_epoch_commits + minority_removal_commits,
        "epoch_min_at_heal": epoch_min_at_heal,
        "final_epoch": int(placer_maj.epoch),
        "repair_drain_ticks": drain_ticks,
        "divergent_before_scrub": divergent_before,
        "scrub_cycles": len(reports),
        "scrub_repairs": scrubber.total_repairs,
        "divergent_after_scrub": divergent_after,
        "history_ops": report.n_ops,
        "history_writes_acked": report.n_writes_acked,
        "history_final_reads": report.n_final_reads,
        "violations": len(report.violations),
        "violations_rendered": report.render() if report.violations else "",
        "consistent": report.consistent,
        "metrics_token": registry.token(seed),
        "determinism_token": token,
    }
    return [
        ExperimentResult(
            name="partition_chaos",
            title=(
                f"Partition chaos: {len(majority)}/{len(minority)} split with a "
                f"mid-split crash over {n_steps} steps "
                f"({n_servers} servers, R={replication}, W={w})"
            ),
            x_label="burst step",
            x_values=x_values,
            series=series,
            expectation=(
                "the minority side is refused every epoch commit "
                "(quorum_rejections > 0, minority_epoch_commits == 0) and "
                "degrades to distinguished-only reads; the majority keeps "
                "committing quorum writes and amputates the crashed server; "
                "after heal + scrub the fleet converges (divergent_after_"
                "scrub == 0) and the recorded history shows zero violations "
                "of read-your-writes, monotonic reads and convergence"
            ),
            meta=meta,
        )
    ]
