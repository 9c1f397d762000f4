"""Placement substrate: stable hashing, consistent hashing and RCH.

This package provides everything needed to map item keys to storage
servers without communication (paper section I-A):

* :mod:`repro.hashing.hashfns` — seeded, process-independent 64-bit hash
  functions (CPython's built-in ``hash`` is salted per process and is
  therefore unusable for placement).
* :mod:`repro.hashing.hashring` — a classic consistent-hash ring with
  virtual nodes, the memcached baseline.
* :mod:`repro.hashing.rch` — **Ranged Consistent Hashing**, the paper's
  extension (section IV) that walks the ring gathering *distinct* servers
  for an item's replica set.
* :mod:`repro.hashing.multihash` — the alternative replica placement used
  in the paper's simulations (section III-B): one independent hash
  function per replica index, with collision re-probing.
"""
