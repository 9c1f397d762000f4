"""Replicated write path: versioning, quorum writes, repair, anti-entropy.

The read stack (bundling, covers, failover) was fault-hardened in
earlier PRs; this package does the same for the **write** side, closing
the ROADMAP item "Write path at scale: quorum writes, versioning,
anti-entropy".  See docs/CONSISTENCY.md for the full design and the
guarantees relative to the paper's §IV scheme.

Layers (each usable alone):

* :mod:`repro.consistency.version` — per-key
  :class:`~repro.consistency.version.VersionStamp` total order and the
  wire value envelope.
* :mod:`repro.consistency.store` — the simulated cluster's replica
  read/write surface (the live clients run the same steps on the wire).
* :mod:`repro.consistency.quorum` — :class:`QuorumWriter`, commit at W
  of R acks with explicit outcomes.
* :mod:`repro.consistency.readrepair` — :class:`VersionedReader`,
  divergence detection + inline or budget-throttled repair.
* :mod:`repro.consistency.scrub` — :class:`AntiEntropyScrubber`,
  background digest-pruned reconciliation of everything reads miss.
* :mod:`repro.consistency.history` — :class:`HistoryRecorder` +
  :func:`check_history`, client-visible session-guarantee checking
  (read-your-writes, monotonic reads, post-heal convergence) with
  minimal counter-examples (docs/PARTITIONS.md).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "check_history": "repro.consistency.history",
        "CONVERGENCE": "repro.consistency.history",
        "HistoryRecorder": "repro.consistency.history",
        "HistoryReport": "repro.consistency.history",
        "MONOTONIC_READS": "repro.consistency.history",
        "Op": "repro.consistency.history",
        "READ_YOUR_WRITES": "repro.consistency.history",
        "Violation": "repro.consistency.history",
        "COMMITTED": "repro.consistency.quorum",
        "FAILED": "repro.consistency.quorum",
        "PARTIAL": "repro.consistency.quorum",
        "QuorumWriter": "repro.consistency.quorum",
        "REJECTED": "repro.consistency.quorum",
        "resolve_w": "repro.consistency.quorum",
        "WRITE_ERRORS": "repro.consistency.quorum",
        "WriteOutcome": "repro.consistency.quorum",
        "make_repair_executor": "repro.consistency.readrepair",
        "ReadOutcome": "repro.consistency.readrepair",
        "VersionedReader": "repro.consistency.readrepair",
        "AntiEntropyScrubber": "repro.consistency.scrub",
        "ScrubReport": "repro.consistency.scrub",
        "ClusterStore": "repro.consistency.store",
        "decode_versioned": "repro.consistency.version",
        "encode_versioned": "repro.consistency.version",
        "MAGIC": "repro.consistency.version",
        "newer": "repro.consistency.version",
        "VersionClock": "repro.consistency.version",
        "VersionStamp": "repro.consistency.version",
    },
)
