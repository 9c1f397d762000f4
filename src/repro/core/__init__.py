"""The RnB mechanism itself: set-cover bundling and the client.

* :mod:`repro.core.setcover` — bit-set greedy minimum set cover, with the
  partial-cover variant used for LIMIT requests.
* :mod:`repro.core.bundling` — turns a request plus a replica placement
  into a :class:`repro.types.FetchPlan` (cover + single-item rule +
  hitchhikers).
* :mod:`repro.core.client` — executes plans against a
  :class:`repro.cluster.Cluster`, handling misses, second rounds and
  write-back.
* :mod:`repro.core.baselines` — full-system replication, the paper's
  section II-C comparator; the no-replication comparator is an
  :class:`RnBClient` over an ``R = 1`` placement.
* :mod:`repro.core.merge` — cross-request merging (section III-E).
"""

from repro.core.baselines import FullReplicationClient
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.core.merge import merge_requests, merge_stream
from repro.core.setcover import CoverResult, greedy_partial_cover, greedy_set_cover

__all__ = [
    "Bundler",
    "CoverResult",
    "FullReplicationClient",
    "RnBClient",
    "greedy_partial_cover",
    "greedy_set_cover",
    "merge_requests",
    "merge_stream",
]
