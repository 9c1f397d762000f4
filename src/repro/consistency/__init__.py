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

from repro.consistency.history import (
    CONVERGENCE,
    MONOTONIC_READS,
    READ_YOUR_WRITES,
    HistoryRecorder,
    HistoryReport,
    Op,
    Violation,
    check_history,
)
from repro.consistency.quorum import (
    COMMITTED,
    FAILED,
    PARTIAL,
    REJECTED,
    WRITE_ERRORS,
    QuorumWriter,
    WriteOutcome,
    resolve_w,
)
from repro.consistency.readrepair import (
    ReadOutcome,
    VersionedReader,
    make_repair_executor,
)
from repro.consistency.scrub import AntiEntropyScrubber, ScrubReport
from repro.consistency.store import ClusterStore
from repro.consistency.version import (
    MAGIC,
    VersionClock,
    VersionStamp,
    decode_versioned,
    encode_versioned,
    newer,
)

__all__ = [
    "AntiEntropyScrubber",
    "COMMITTED",
    "CONVERGENCE",
    "ClusterStore",
    "FAILED",
    "HistoryRecorder",
    "HistoryReport",
    "MAGIC",
    "MONOTONIC_READS",
    "Op",
    "PARTIAL",
    "QuorumWriter",
    "READ_YOUR_WRITES",
    "REJECTED",
    "ReadOutcome",
    "ScrubReport",
    "VersionClock",
    "VersionStamp",
    "VersionedReader",
    "Violation",
    "WRITE_ERRORS",
    "WriteOutcome",
    "check_history",
    "decode_versioned",
    "encode_versioned",
    "make_repair_executor",
    "newer",
    "resolve_w",
]
