#!/usr/bin/env python3
"""A live RnB cluster over real TCP sockets.

Starts four memcached-protocol servers on localhost, connects an RnB
client through real sockets, and demonstrates the full proof-of-concept
from paper section IV:

* replicated writes via Ranged Consistent Hashing;
* bundled multi-gets (watch the per-server transaction counters);
* miss repair from the distinguished copy after a replica is evicted;
* the atomic-update scheme (strip replicas, CAS the distinguished copy);
* **self-healing**: one server is killed for real, the client's dead
  verdict commits a topology epoch, and re-replication repair restores
  full R on the survivors (docs/RECOVERY.md).

Run:  python examples/live_cluster.py
"""

from repro.aio.server import serve_aio
from repro.aio.transport import BlockingConnection
from repro.core.bundling import Bundler
from repro.faults.health import HealthTracker
from repro.membership import (
    EpochedPlacer,
    MembershipService,
    RepairExecutor,
    protocol_repair_fns,
)
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.retry import RetryPolicy

N_SERVERS = 4
REPLICATION = 3

# one config object carries every network knob end-to-end: socket
# timeouts, bounded retries, and the backoff schedule between them
POLICY = RetryPolicy(
    connect_timeout=2.0,
    request_timeout=1.0,
    max_retries=2,
    backoff_base=0.02,
    backoff_max=0.2,
)


def main() -> None:
    backends, handles, conns = {}, [], {}
    try:
        for sid in range(N_SERVERS):
            backend = MemcachedServer(name=f"mem{sid}")
            handle, (host, port) = serve_aio(backend)
            backends[sid] = backend
            handles.append(handle)
            conns[sid] = MemcachedConnection(
                BlockingConnection(host, port, policy=POLICY), policy=POLICY
            )
            print(f"server {sid} listening on {host}:{port}")

        placer = EpochedPlacer("rch", N_SERVERS, REPLICATION)
        keys = [f"user:{i}:status" for i in range(40)]
        copy_fn, drop_fn = protocol_repair_fns(conns)
        membership = MembershipService(
            placer, keys, executor=RepairExecutor(copy_fn, drop_fn)
        )
        health = HealthTracker(N_SERVERS, dead_after=2)
        client = RnBProtocolClient(
            conns,
            placer,
            bundler=Bundler(placer),
            retry_policy=POLICY,
            health=health,
            membership=membership,
        )

        # --- replicated writes ---
        for i, key in enumerate(keys):
            client.set(key, f"status update #{i}".encode())
        print(f"\nwrote {len(keys)} keys, {REPLICATION} replicas each")
        for sid, backend in backends.items():
            print(f"  server {sid}: {backend.curr_items} items resident")

        # --- bundled read ---
        out = client.get_multi(keys)
        print(
            f"\nmulti-get of {len(keys)} keys: {out.transactions} transactions "
            f"(classic hashing would need ~{N_SERVERS})"
        )
        assert not out.missing

        # --- miss repair ---
        victim = keys[0]
        for sid in placer.servers_for(victim)[1:]:
            conns[sid].delete(victim)
        out = client.get_multi(keys)
        print(
            f"after evicting {victim!r} replicas: repaired "
            f"{out.misses_repaired} miss via {out.second_round_transactions} "
            "second-round transaction(s); nothing lost"
        )
        assert not out.missing

        # --- atomic update ---
        client.atomic_update(victim, lambda old: (old or b"") + b" (edited)", repopulate=True)
        print(f"atomic update: {victim!r} -> {client.get(victim)!r}")

        # --- self-healing: kill a server for real ---
        dead_sid = 3
        handles[dead_sid].stop()
        conns[dead_sid].transport.close()
        print(f"\nkilled server {dead_sid} (socket closed)")
        on_dead = [k for k in keys if dead_sid in placer.servers_for(k)]
        while True:  # reads keep completing while the verdict forms
            out = client.get_multi(on_dead)
            assert not out.missing, "surviving replicas cover every read"
            if out.membership_commits:
                break
        event = membership.events[-1]
        membership.tick()  # unthrottled: drain the repair queue
        out = client.get_multi(keys)
        assert not out.missing
        print(
            f"epoch {placer.epoch}: removed server {dead_sid}, repaired "
            f"{event.repair_items} replicas onto the survivors; all "
            f"{len(keys)} keys at full R={REPLICATION} again"
        )

    finally:
        for handle in handles:
            handle.stop()
        for conn in conns.values():
            conn.transport.close()
        print("\ncluster shut down cleanly")


if __name__ == "__main__":
    main()
