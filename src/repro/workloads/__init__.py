"""Workload generation: social graphs and request streams.

The paper generates memcached access patterns from social-network graphs
(section III-B): each user is one item (their "status"); an end-user
request picks a user uniformly at random and fetches the statuses of all
of that user's friends.  We ship:

* :mod:`repro.workloads.graphs` — a compact CSR directed-graph container.
* :mod:`repro.workloads.synthetic` — calibrated synthetic stand-ins for
  the SNAP Slashdot and Epinions datasets (see DESIGN.md, Substitutions).
* :mod:`repro.workloads.snap` — loader for real SNAP edge-list files.
* :mod:`repro.workloads.requests` — request-stream generators (ego
  requests, random requests, LIMIT decoration, merging).
"""
