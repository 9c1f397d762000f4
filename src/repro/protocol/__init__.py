"""Proof-of-concept RnB over a real (in-process) memcached protocol.

The paper "defined and partially implemented the main elements required
for implementing RnB in a memcached setting" (section IV) and calibrated
its simulator with micro-benchmarks against a real memcached server
(appendix).  This package is that implementation layer:

* :mod:`repro.protocol.codec` — the memcached ASCII protocol subset
  (get/gets/set/cas/delete/flush_all/stats).
* :mod:`repro.protocol.memserver` — a complete key-value server with
  byte-accounted LRU eviction, servable in-process or over TCP.
* :mod:`repro.protocol.transport` — the in-process loopback transport
  (sockets: :class:`repro.aio.transport.BlockingConnection`).
* :mod:`repro.protocol.memclient` — a plain memcached client plus the
  classic consistent-hashing sharded client.
* :mod:`repro.protocol.rnbclient` — the RnB client: replicated writes,
  set-cover bundled multi-gets, miss repair from the distinguished copy,
  and the section IV atomic update (strip, CAS on the distinguished copy).
* :mod:`repro.protocol.microbench` — the calibration micro-benchmark
  (items/s vs transaction size; paper Figs 13–14).
"""
