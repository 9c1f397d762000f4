"""Anti-entropy: background replica reconciliation via bucketed digests.

Read-repair only fixes keys that get read; a server killed mid-burst
and later replaced leaves the *unread* tail divergent forever.  The
:class:`AntiEntropyScrubber` closes that gap: it periodically walks the
fleet, compares replicas pairwise with **Merkle-lite bucketed digests**,
and overwrites losers with the newest version.

One scrub cycle:

1. Snapshot ``key -> stamp`` from every reachable server
   (``store.local_keys``); unreachable servers are skipped — their
   copies are repaired by a later cycle once they return.
2. For every pair of alive servers, fold each shared key (assigned to
   both by the placer) into one of ``n_buckets`` XOR digests of
   ``hash(key, stamp)``.  Buckets whose digests agree on both sides are
   **pruned** — all their keys provably match (up to hash collision) and
   are never walked.
3. Mismatched buckets are walked key by key; any key whose two sides
   disagree (different stamp, or present on one and not the other) is
   reconciled across its **full** replica set: newest stamp wins, every
   older/missing alive replica is overwritten via ``store.write``.

Reconciliation is idempotent and monotone (stamps only move toward the
max), so repeated cycles converge; :meth:`scrub` loops until a cycle
finds nothing to do.  The digest tree is deliberately one level deep —
real Merkle trees buy log-depth descent, but the pruning economics (skip
buckets that agree) are captured with one level and far less machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consistency.quorum import WRITE_ERRORS
from repro.consistency.version import newer
from repro.errors import ConfigurationError
from repro.hashing.hashfns import stable_hash64


@dataclass(frozen=True, slots=True)
class ScrubReport:
    """What one scrub cycle saw and did."""

    cycle: int
    servers_scanned: int
    servers_dead: tuple[int, ...]
    pairs_compared: int
    buckets_compared: int
    buckets_pruned: int  #: digest-equal buckets never walked
    keys_walked: int
    divergent: tuple = ()  #: keys found divergent this cycle (sorted)
    repairs_applied: int = 0
    repairs_failed: int = 0

    @property
    def clean(self) -> bool:
        """Did this cycle find nothing to reconcile?"""
        return not self.divergent


class AntiEntropyScrubber:
    """Pairwise digest-pruned replica reconciliation over a store.

    Parameters
    ----------
    store / placer:
        Replica store (:mod:`repro.consistency.store`) and placement; a
        key's replica set is ``placer.servers_for(key)``.
    n_servers:
        Fleet size to scan; defaults to ``placer.n_servers``.
    n_buckets:
        Digest buckets per server pair.  More buckets → finer pruning
        (fewer keys walked when divergence is sparse) at the cost of
        digest bookkeeping.
    seed:
        Seeds the bucket/digest hash; a fixed seed keeps scrub reports
        deterministic for the determinism-token harness.
    """

    def __init__(
        self,
        store,
        placer,
        *,
        n_servers: int | None = None,
        n_buckets: int = 64,
        seed: int = 0,
        metrics=None,
    ) -> None:
        if n_buckets < 1:
            raise ConfigurationError("n_buckets must be >= 1")
        self.store = store
        self.placer = placer
        self.n_servers = n_servers if n_servers is not None else placer.n_servers
        self.n_buckets = n_buckets
        self.seed = seed
        self.cycles = 0
        self.total_repairs = 0
        self.total_divergent = 0
        self.last_report: ScrubReport | None = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry, **labels) -> None:
        """Scrub progress gauges (docs/OBSERVABILITY.md conventions)."""
        registry.gauge(
            "rnb_scrub_cycles",
            "anti-entropy cycles completed",
            fn=lambda: float(self.cycles),
            **labels,
        )
        registry.gauge(
            "rnb_scrub_repairs",
            "lifetime replicas overwritten by the scrubber",
            fn=lambda: float(self.total_repairs),
            **labels,
        )
        registry.gauge(
            "rnb_scrub_divergent_last",
            "divergent keys found by the most recent cycle",
            fn=lambda: float(
                len(self.last_report.divergent) if self.last_report else 0
            ),
            **labels,
        )
        registry.gauge(
            "rnb_scrub_prune_ratio",
            "buckets skipped as digest-equal in the most recent cycle",
            fn=lambda: (
                self.last_report.buckets_pruned / self.last_report.buckets_compared
                if self.last_report and self.last_report.buckets_compared
                else 0.0
            ),
            **labels,
        )

    # -- cycle machinery ---------------------------------------------------

    def _bucket(self, key) -> int:
        return stable_hash64(str(key), seed=self.seed) % self.n_buckets

    def _entry_hash(self, key, stamp) -> int:
        token = stamp.token() if stamp is not None else "-"
        return stable_hash64(f"{key}\x00{token}", seed=self.seed + 1)

    def _snapshot(self):
        """``sid -> {key: stamp}`` for reachable servers, plus the dead."""
        contents: dict[int, dict] = {}
        dead: list[int] = []
        for sid in range(self.n_servers):
            try:
                contents[sid] = self.store.local_keys(sid)
            except WRITE_ERRORS:
                dead.append(sid)
        return contents, tuple(dead)

    def _shared_keys(self, contents, a: int, b: int):
        """Keys resident on ``a`` or ``b`` whose replica set includes
        both — the comparable population for this pair."""
        shared = {}
        for sid in (a, b):
            for key in contents[sid]:
                if key in shared:
                    continue
                replicas = self.placer.servers_for(key)
                if a in replicas and b in replicas:
                    shared[key] = None
        return shared.keys()

    def _reconcile(self, key, contents) -> tuple[int, int]:
        """Converge every alive replica of ``key`` to the newest stamp.

        Returns ``(applied, failed)`` repair counts and updates the
        snapshot in place so later pairs in the same cycle see the
        post-repair state instead of re-flagging the key.
        """
        best_sid = None
        best = None
        for sid in self.placer.servers_for(key):
            if sid not in contents:
                continue
            stamp = contents[sid].get(key)
            if key in contents[sid] and (best_sid is None or newer(stamp, best)):
                best_sid, best = sid, stamp
        if best_sid is None or best is None:
            return 0, 0  # nothing versioned survives; nothing to propagate
        try:
            record = self.store.read(best_sid, key)
        except WRITE_ERRORS:
            return 0, 0
        if record is None:
            return 0, 0
        stamp, payload = record
        applied = failed = 0
        for sid in self.placer.servers_for(key):
            if sid == best_sid or sid not in contents:
                continue
            if contents[sid].get(key) == best and key in contents[sid]:
                continue
            try:
                self.store.write(sid, key, payload or b"", best)
            except WRITE_ERRORS:
                failed += 1
            else:
                contents[sid][key] = best
                applied += 1
        return applied, failed

    def scrub_cycle(self) -> ScrubReport:
        """Run one full pairwise digest comparison + reconciliation."""
        contents, dead = self._snapshot()
        alive = sorted(contents)
        pairs = 0
        buckets_compared = 0
        buckets_pruned = 0
        keys_walked = 0
        divergent: dict = {}
        applied = failed = 0
        for i, a in enumerate(alive):
            for b in alive[i + 1 :]:
                pairs += 1
                shared = list(self._shared_keys(contents, a, b))
                if not shared:
                    continue
                digests = {a: [0] * self.n_buckets, b: [0] * self.n_buckets}
                occupied = set()
                for key in shared:
                    bucket = self._bucket(key)
                    occupied.add(bucket)
                    for sid in (a, b):
                        if key in contents[sid]:
                            digests[sid][bucket] ^= self._entry_hash(
                                key, contents[sid][key]
                            )
                buckets_compared += len(occupied)
                walk = [
                    bucket
                    for bucket in occupied
                    if digests[a][bucket] != digests[b][bucket]
                ]
                buckets_pruned += len(occupied) - len(walk)
                if not walk:
                    continue
                walk_set = set(walk)
                for key in shared:
                    if self._bucket(key) not in walk_set:
                        continue
                    keys_walked += 1
                    in_a, in_b = key in contents[a], key in contents[b]
                    if in_a and in_b and contents[a][key] == contents[b][key]:
                        continue
                    if key not in divergent:
                        divergent[key] = None
                        done, missed = self._reconcile(key, contents)
                        applied += done
                        failed += missed
        self.cycles += 1
        self.total_repairs += applied
        self.total_divergent += len(divergent)
        report = ScrubReport(
            cycle=self.cycles,
            servers_scanned=len(alive),
            servers_dead=dead,
            pairs_compared=pairs,
            buckets_compared=buckets_compared,
            buckets_pruned=buckets_pruned,
            keys_walked=keys_walked,
            divergent=tuple(sorted(divergent, key=repr)),
            repairs_applied=applied,
            repairs_failed=failed,
        )
        self.last_report = report
        return report

    def scrub(self, *, max_cycles: int = 8) -> list[ScrubReport]:
        """Cycle until convergence (a clean cycle) or ``max_cycles``.

        Convergence normally takes two cycles: one that repairs, one
        that verifies clean.  More are needed only if servers keep
        dying/returning between cycles.
        """
        if max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        reports = []
        for _ in range(max_cycles):
            report = self.scrub_cycle()
            reports.append(report)
            if report.clean:
                break
        return reports

    def divergent_keys(self) -> list:
        """Exhaustive (no pruning) list of keys whose alive replicas
        disagree — the convergence gate the chaos experiment asserts on."""
        contents, _ = self._snapshot()
        divergent = []
        seen = {}
        for sid in sorted(contents):
            for key, stamp in contents[sid].items():
                seen.setdefault(key, []).append((sid, stamp))
        for key in sorted(seen, key=repr):
            replicas = [s for s in self.placer.servers_for(key) if s in contents]
            holders = dict(seen[key])
            assigned = [sid for sid in replicas if sid in holders]
            stamps = {holders[sid] for sid in assigned}
            if len(stamps) > 1 or 0 < len(assigned) < len(replicas):
                divergent.append(key)
        return divergent
