"""Self-healing membership: topology epochs, epoch-aware placement,
re-replication repair and the coordinating service.

The subsystem closes the loop the static fault model leaves open:
clients detect failures (``repro.faults.health``), propose membership
changes, the service commits a new epoch, the epoched placer re-derives
placement with distinguished-copy promotion, and the repair executor
re-replicates at a bounded rate until every item is back to full R.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "EpochedPlacer": "repro.membership.epoched",
        "cluster_repair_fns": "repro.membership.repair",
        "compute_epoch_delta": "repro.membership.repair",
        "CopyOp": "repro.membership.repair",
        "DropOp": "repro.membership.repair",
        "EpochDelta": "repro.membership.repair",
        "PinOp": "repro.membership.repair",
        "protocol_repair_fns": "repro.membership.repair",
        "RepairExecutor": "repro.membership.repair",
        "make_cluster_service": "repro.membership.service",
        "MembershipEvent": "repro.membership.service",
        "MembershipService": "repro.membership.service",
        "ClusterView": "repro.membership.view",
    },
)
