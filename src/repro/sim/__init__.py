"""Simulation drivers.

* :mod:`repro.sim.config` — declarative configuration dataclasses.
* :mod:`repro.sim.engine` — the full stateful simulator (graph workloads,
  LRU memory, warmup + measurement phases; paper sections III-B/D/E).
* :mod:`repro.sim.montecarlo` — the *simplified* simulator for LIMIT
  experiments (random independent requests, no misses; section III-F).
* :mod:`repro.sim.sweep` — parameter-grid sweeps.
"""
