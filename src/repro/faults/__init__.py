"""Fault injection, health tracking and fault-tolerant reads.

The paper keeps R replicas of every item on R distinct servers for
throughput; this package cashes in the reliability dividend (paper
sections I-C, III-B): deterministic failure schedules
(:class:`FaultPlan`), error-driven per-server health
(:class:`HealthTracker`), cluster gates that inject the failures
(:class:`FaultInjector` from a fixed plan,
:class:`DynamicFaultInjector` for runtime-edited kill / restore /
straggler / busy schedules), link-level partitions layered over them
(:class:`PartitionPlan` + :class:`PartitionedInjector`, see
docs/PARTITIONS.md), the :class:`Nemesis` composed-incident scheduler,
and a read path that routes around all of it
(:class:`FaultTolerantRnBClient`).  See docs/FAULTS.md for the failure
model and the degraded-read semantics, and docs/OVERLOAD.md for the
overload half (stragglers, breakers, backpressure).
"""
