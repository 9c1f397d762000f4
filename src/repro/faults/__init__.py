"""Fault injection, health tracking and fault-tolerant reads.

The paper keeps R replicas of every item on R distinct servers for
throughput; this package cashes in the reliability dividend (paper
sections I-C, III-B): deterministic failure schedules
(:class:`FaultPlan`), error-driven per-server health
(:class:`HealthTracker`), the one cluster gate that injects the failures
(:class:`FaultInjector`: runtime kill / restore / busy edits, an optional
seeded plan, and link-level partitions from a :class:`PartitionPlan`,
see docs/PARTITIONS.md), the :class:`Nemesis` composed-incident scheduler,
and a read path that routes around all of it
(:class:`FaultTolerantRnBClient`).  See docs/FAULTS.md for the failure
model and the degraded-read semantics, and docs/OVERLOAD.md for the
overload half (stragglers, breakers, backpressure).
"""
