"""Open-loop load generator for the async serving stack (docs/SERVING.md).

* :mod:`repro.loadgen.schedule` — arrival-rate curves (constant,
  diurnal, flash-crowd) and seeded Poisson / deterministic arrival-time
  samplers;
* :mod:`repro.loadgen.runner` — :func:`run_loadtest`: boot a real
  :class:`repro.aio.server.AsyncMemcachedServer` fleet in-process,
  spawn one coroutine per simulated user, each issuing a bundled
  multi-get through :class:`repro.aio.rnbclient.AsyncRnBClient` at its
  scheduled arrival time, and report tail latency + goodput.

Exposed as ``rnb loadtest`` on the CLI; the deterministic ``workload``
half of its report is what CI's live-smoke job pins by seed.
"""
