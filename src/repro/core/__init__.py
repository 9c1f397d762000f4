"""The RnB mechanism itself: set-cover bundling and the client.

* :mod:`repro.core.setcover` — bit-set greedy minimum set cover, with the
  partial-cover variant used for LIMIT requests.
* :mod:`repro.core.bundling` — turns a request plus a replica placement
  into a :class:`repro.types.FetchPlan` (cover + single-item rule +
  hitchhikers).
* :mod:`repro.core.client` — executes plans against a
  :class:`repro.cluster.cluster.Cluster`, handling misses, second rounds and
  write-back.
* :mod:`repro.core.baselines` — full-system replication, the paper's
  section II-C comparator; the no-replication comparator is an
  :class:`RnBClient` over an ``R = 1`` placement.
* :mod:`repro.core.merge` — cross-request merging (section III-E).
"""
