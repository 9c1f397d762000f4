"""Chaos soak: the self-healing loop under a seeded kill/restart/join storm.

The membership subsystem (``repro.membership``) claims a closed loop:
clients detect failures, dead verdicts commit new topology epochs,
placement heals with distinguished-copy promotion, and throttled repair
restores full replication.  This experiment *soaks* that loop: a
deterministic schedule kills servers (crash = memory wiped), restarts
them (empty), and joins brand-new ids, while a
:class:`~repro.faults.ftclient.FaultTolerantRnBClient` keeps reading an
ego-network-style workload through it all.

Per tick (one request per tick) the experiment records:

* **availability** — fraction of requested items served (degraded reads
  count what they actually returned);
* **TPR** — transactions per request, including failover re-dispatch;
* **pending repair** — item copies still queued behind the repair-rate
  throttle;
* **epoch / n_alive** — the topology the fleet converged to.

The meta block carries the acceptance criteria: with R >= 2 and one
failure at a time, ``availability_min`` must be exactly 1.0 (replicas
already exist for reliability — paper section I-C); every committed
change reports its **time-to-full-R** (ticks from commit until its
repair batch drained); and the whole run is a pure function of ``seed``
(``determinism_token`` is a stable hash over every series — equal seeds
give bit-identical runs, different seeds give different schedules, as
``tests/experiments/test_soaks.py`` checks).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.experiments.base import ExperimentResult
from repro.faults.ftclient import FaultTolerantRnBClient
from repro.faults.health import HealthTracker
from repro.faults.injector import DynamicFaultInjector
from repro.hashing.hashfns import stable_hash64
from repro.membership import EpochedPlacer, make_cluster_service
from repro.types import Request
from repro.utils.rng import derive_rng


def make_schedule(
    seed: int,
    n_servers: int,
    *,
    n_kills: int = 3,
    n_joins: int = 1,
    warmup: int = 8,
    min_down: int = 4,
    max_down: int = 10,
    min_gap: int = 6,
    max_gap: int = 12,
) -> list[tuple[int, str, int]]:
    """A seeded ``(tick, kind, server)`` chaos schedule.

    Kills are sequential (a victim is always restarted before the next
    kill) so at most one server is down at a time — the regime where the
    R >= 2 availability guarantee is unconditional.  Joins are
    interleaved after restarts with fresh ids ``n_servers, n_servers+1,
    ...``.  Pure function of ``seed``.
    """
    rng = derive_rng(seed, stable_hash64("chaos-schedule") & 0x7FFFFFFF)
    events: list[tuple[int, str, int]] = []
    tick = warmup
    next_join_id = n_servers
    joins_left = n_joins
    for kill in range(n_kills):
        victim = int(rng.integers(0, n_servers))
        events.append((tick, "kill", victim))
        tick += int(rng.integers(min_down, max_down + 1))
        events.append((tick, "restart", victim))
        tick += int(rng.integers(min_gap, max_gap + 1))
        if joins_left > 0 and kill == n_kills // 2:
            events.append((tick, "join", next_join_id))
            next_join_id += 1
            joins_left -= 1
            tick += int(rng.integers(min_gap, max_gap + 1))
    return events


def run(
    *,
    n_servers: int = 12,
    replication: int = 3,
    n_items: int = 2000,
    request_size: int = 20,
    n_kills: int = 3,
    n_joins: int = 1,
    repair_rate: int = 150,
    cooldown: int = 20,
    dead_after: int = 2,
    seed: int = 2013,
    scale: float = 1.0,
) -> list[ExperimentResult]:
    """Soak the self-healing loop under a seeded chaos schedule.

    ``scale`` shrinks the run for smoke tests (items, kills and cooldown
    scale together; the schedule still comes from ``seed`` alone at any
    fixed parameter set).
    """
    n_items = max(int(n_items * scale), 50)
    n_kills = max(int(round(n_kills * scale)), 1)
    cooldown = max(int(cooldown * scale), 5)

    placer = EpochedPlacer("rch", n_servers, replication, seed=0, vnodes=64)
    items = range(n_items)
    cluster = Cluster(placer, items, memory_factor=None)
    injector = DynamicFaultInjector()
    cluster.attach_injector(injector)
    service = make_cluster_service(
        cluster, placer, confirm_after=1, repair_rate=repair_rate
    )
    health = HealthTracker(n_servers, dead_after=dead_after)
    client = FaultTolerantRnBClient(
        cluster,
        Bundler(placer),
        health=health,
        membership=service,
    )

    schedule = make_schedule(seed, n_servers, n_kills=n_kills, n_joins=n_joins)
    last_event_tick = schedule[-1][0]
    horizon = last_event_tick + cooldown
    by_tick: dict[int, list[tuple[str, int]]] = {}
    for tick, kind, server in schedule:
        by_tick.setdefault(tick, []).append((kind, server))

    req_rng = derive_rng(seed, stable_hash64("chaos-requests") & 0x7FFFFFFF)

    availability: list[float] = []
    tpr: list[float] = []
    pending: list[float] = []
    epochs: list[float] = []
    n_alive: list[float] = []
    down_at: list[bool] = []
    commits = 0

    for tick in range(horizon):
        for kind, server in by_tick.get(tick, ()):
            if kind == "kill":
                injector.kill(server)
                cluster.wipe_server(server)  # crash loses its memory
            elif kind == "restart":
                injector.restore(server)
                health.record_recovery(server)
                if not service.view.is_alive(server):
                    # re-admit and re-replicate onto the empty server
                    service.announce_recovery(server)
            else:  # join
                cluster.add_server(server)
                health.ensure_capacity(server + 1)
                service.announce_join(server)

        chosen = req_rng.choice(n_items, size=min(request_size, n_items), replace=False)
        request = Request(items=tuple(int(i) for i in chosen))
        result = client.execute(request)
        commits += result.membership_commits
        service.tick(clock=tick)

        availability.append(result.items_fetched / request.size)
        tpr.append(float(result.transactions))
        pending.append(float(service.pending_repair()))
        epochs.append(float(placer.epoch))
        n_alive.append(float(placer.view.n_alive))
        down_at.append(bool(injector.down))

    # -- phase aggregation and acceptance metrics ---------------------------
    first_event = schedule[0][0]
    disturbed = [
        t
        for t in range(horizon)
        if down_at[t] or pending[t] > 0 or t in by_tick
    ]
    during = [t for t in disturbed if t >= first_event]
    before = list(range(first_event))
    after = [t for t in range(first_event, horizon) if t not in set(during)]

    def _mean(idx: list[int], xs: list[float]) -> float:
        return float(np.mean([xs[t] for t in idx])) if idx else float("nan")

    events_meta = []
    for event in service.events:
        completed = event.repair_completed_at
        if completed == "immediate":
            ttf = 0
        elif completed is None:
            ttf = None  # repair did not drain within the horizon
        else:
            ttf = int(completed) - (event.tick if event.tick is not None else 0)
        events_meta.append(
            {
                "epoch": event.epoch,
                "kind": event.kind,
                "server": event.server,
                "commit_tick": event.tick,
                "repair_items": event.repair_items,
                "time_to_full_r": ttf,
            }
        )

    series = {
        "availability": availability,
        "TPR": tpr,
        "pending repair (items)": pending,
        "epoch": epochs,
        "alive servers": n_alive,
    }
    token = stable_hash64(
        repr([(k, tuple(v)) for k, v in sorted(series.items())]), seed=seed
    )
    meta = {
        "seed": seed,
        "n_servers": n_servers,
        "replication": replication,
        "repair_rate": repair_rate,
        "schedule": [list(e) for e in schedule],
        "events": events_meta,
        "membership_commits": commits,
        "availability_min": float(min(availability)),
        "availability_mean": float(np.mean(availability)),
        "tpr_before": _mean(before, tpr),
        "tpr_during": _mean(during, tpr),
        "tpr_after": _mean(after, tpr),
        "repair_items_total": sum(e["repair_items"] for e in events_meta),
        "final_epoch": int(placer.epoch),
        "final_pending_repair": int(service.pending_repair()),
        "determinism_token": token,
    }
    return [
        ExperimentResult(
            name="chaos_soak",
            title=(
                f"Chaos soak: {n_kills} kills + {n_joins} joins over "
                f"{horizon} ticks ({n_servers} servers, R={replication}, "
                f"repair_rate={repair_rate}/tick)"
            ),
            x_label="tick",
            x_values=list(range(horizon)),
            series=series,
            expectation=(
                "availability stays 1.0 throughout single failures at R>=2 "
                "(surviving replicas cover every read); TPR bumps during "
                "failover then settles; pending repair drains at the "
                "throttle rate and full replication is restored (time-to-"
                "full-R reported per membership event)"
            ),
            meta=meta,
        )
    ]
