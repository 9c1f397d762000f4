"""The membership coordinator: proposals in, epochs and repair out.

:class:`MembershipService` closes the self-healing loop.  Clients
observing failures promote their :class:`~repro.faults.health.
HealthTracker` "dead" verdicts into **removal proposals**; once
``confirm_after`` distinct sources agree (within the same epoch), the
service commits a new :class:`~repro.membership.view.ClusterView`,
installs it on the shared :class:`~repro.membership.epoched.
EpochedPlacer`, computes the re-replication delta and hands it to the
:class:`~repro.membership.repair.RepairExecutor`.  Recoveries and joins
are announced by the operator (or the chaos schedule) through
:meth:`announce_recovery` / :meth:`announce_join` and go through the
same commit path.

Repair is throttled: :meth:`tick` applies at most ``repair_rate`` item
copies per call, so foreground TPR and repair bandwidth trade off
explicitly — the chaos experiment measures exactly that trade.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, NoQuorumError
from repro.membership.epoched import EpochedPlacer
from repro.membership.repair import (
    RepairExecutor,
    cluster_repair_fns,
    compute_epoch_delta,
)
from repro.membership.view import ClusterView


@dataclass(slots=True)
class MembershipEvent:
    """One committed reconfiguration, for the audit log."""

    epoch: int  #: the epoch the change produced
    kind: str  #: "remove" | "recover" | "join"
    server: int
    tick: object = None  #: clock value at commit (None outside a run)
    repair_items: int = 0  #: copies the change enqueued
    batch: dict = field(default_factory=dict)  #: executor batch record

    @property
    def repair_completed_at(self):
        """Clock at which the change's repair drained (time-to-full-R)."""
        return self.batch.get("completed_at")


class MembershipService:
    """Single source of truth for cluster membership.

    Parameters
    ----------
    placer:
        The shared :class:`EpochedPlacer` every client and the cluster
        use; committing a view mutates placement for all of them.
    items:
        The item universe to repair over (usually ``cluster.items``).
    executor:
        A :class:`RepairExecutor`; build one with
        :func:`repro.membership.repair.cluster_repair_fns` for the
        simulator, or with protocol-level copy callbacks for a live
        fleet.  ``None`` disables repair (placement still heals).
    confirm_after:
        Distinct proposal sources required before a removal commits.
        1 trusts every client verdict; higher values damp false
        positives from transient timeouts.
    repair_rate:
        Max item copies applied per :meth:`tick` (None = unthrottled).
    quorum_prober:
        Optional reachability oracle ``prober(server) -> bool`` for the
        servers of the current view (e.g. the fault gate's
        :meth:`repro.faults.injector.FaultInjector.can_reach` from this
        service's client endpoint).
        When given, **every** commit — removals, recoveries, joins — is
        gated on this service still reaching a strict majority of the
        view's *members* (dead or alive: a partitioned-away server still
        counts toward the denominator, which is what makes two disjoint
        sides unable to both clear the bar).  Proposals made without
        quorum are rejected with ``False`` and counted in
        ``quorum_rejections``, so a minority-side service can never
        commit an epoch that the majority side would also commit —
        split-brain by construction requires two disjoint majorities of
        one member set, which cannot exist (docs/PARTITIONS.md).
    """

    def __init__(
        self,
        placer: EpochedPlacer,
        items,
        *,
        executor: RepairExecutor | None = None,
        confirm_after: int = 1,
        repair_rate: int | None = None,
        quorum_prober=None,
    ) -> None:
        if confirm_after < 1:
            raise ConfigurationError("confirm_after must be >= 1")
        if repair_rate is not None and repair_rate < 0:
            raise ConfigurationError("repair_rate must be >= 0 or None")
        self.placer = placer
        self.items = tuple(items)
        self.executor = executor
        self.confirm_after = confirm_after
        self.repair_rate = repair_rate
        self.quorum_prober = quorum_prober
        self.quorum_rejections = 0
        self.clock: object = None  #: last clock value seen (set by tick)
        self.events: list[MembershipEvent] = []
        # proposal sources per server, reset at each epoch change
        self._proposals: dict[int, set[object]] = defaultdict(set)

    # -- queries -----------------------------------------------------------

    @property
    def view(self) -> ClusterView:
        return self.placer.view

    @property
    def epoch(self) -> int:
        return self.placer.epoch

    def pending_repair(self) -> int:
        return self.executor.pending() if self.executor is not None else 0

    def has_quorum(self) -> bool:
        """Can this service reach a strict majority of the view's members?

        Always True without a ``quorum_prober`` (single-coordinator
        deployments, the pre-partition behaviour).  The denominator is
        ``n_members`` — every server of the view, reachable or not — so
        the two sides of a split can never both answer True.
        """
        if self.quorum_prober is None:
            return True
        members = self.view.members
        reachable = sum(1 for server in members if self.quorum_prober(server))
        return reachable >= len(members) // 2 + 1

    # -- proposals ----------------------------------------------------------

    def propose_removal(self, server: int, *, source: object = "client") -> bool:
        """Register a dead verdict; commits the removal once confirmed.

        Returns True iff this proposal committed a membership change.
        Proposals for servers that are not alive in the current view are
        ignored (the proposer holds a stale view and should refresh).
        """
        if server not in self.view.alive_servers:
            return False
        if self.view.n_alive == 1:
            return False  # never remove the last server
        self._proposals[server].add(source)
        if len(self._proposals[server]) < self.confirm_after:
            return False
        if not self.has_quorum():
            # confirmed by this side's clients, but this side cannot
            # prove it is the majority — rejecting here is what keeps a
            # minority partition from amputating the healthy majority
            self.quorum_rejections += 1
            self._proposals[server].clear()
            return False
        self._commit(self.view.without(server), "remove", server)
        return True

    def announce_recovery(self, server: int) -> ClusterView:
        """A crashed member restarted (empty); re-admit and re-replicate."""
        self._require_quorum("recover", server)
        view = self.view.with_recovered(server)
        self._commit(view, "recover", server)
        return view

    def announce_join(self, server: int) -> ClusterView:
        """A brand-new server joined; rebalance onto it."""
        self._require_quorum("join", server)
        view = self.view.with_join(server)
        self._commit(view, "join", server)
        return view

    # -- repair pump ---------------------------------------------------------

    def tick(self, clock: object = None) -> int:
        """Advance repair by one throttle window; returns copies applied."""
        self.clock = clock
        if self.executor is None:
            return 0
        budget = self.executor.pending() if self.repair_rate is None else self.repair_rate
        return self.executor.step(budget, clock=clock)

    # -- internals ------------------------------------------------------------

    def _require_quorum(self, kind: str, server: int) -> None:
        if not self.has_quorum():
            self.quorum_rejections += 1
            raise NoQuorumError(
                f"cannot commit {kind} of server {server}: this service "
                f"reaches fewer than a majority of the view's members"
            )

    def _commit(self, view: ClusterView, kind: str, server: int) -> None:
        old_placement = self.placer.servers_for
        # Materialise the old placement before the switch: the placer's
        # memo is rebuilt on install, so snapshot what repair must diff.
        snapshot = {item: old_placement(item) for item in self.items}
        self.placer.install_view(view)
        delta = compute_epoch_delta(
            snapshot.__getitem__,
            self.placer.servers_for,
            self.items,
            alive=view.alive_servers,
        )
        event = MembershipEvent(
            epoch=view.epoch,
            kind=kind,
            server=server,
            tick=self.clock,
            repair_items=delta.repair_traffic_items,
        )
        if self.executor is not None:
            event.batch = self.executor.submit(delta, tag=view.epoch)
        self.events.append(event)
        self._proposals.clear()


def make_cluster_service(
    cluster,
    placer: EpochedPlacer,
    *,
    confirm_after: int = 1,
    repair_rate: int | None = None,
    quorum_prober=None,
) -> MembershipService:
    """Convenience: a service repairing through a simulated cluster."""
    copy_fn, drop_fn, demote_fn, pin_fn = cluster_repair_fns(cluster, placer)
    executor = RepairExecutor(copy_fn, drop_fn, demote_fn, pin_fn)
    return MembershipService(
        placer,
        cluster.items,
        executor=executor,
        confirm_after=confirm_after,
        repair_rate=repair_rate,
        quorum_prober=quorum_prober,
    )
