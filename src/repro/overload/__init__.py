"""Overload-robust serving: backpressure, breakers, hedging, degradation.

The fault stack (:mod:`repro.faults`) handles servers that die; this
package handles servers that are merely *drowning*.  It threads four
cooperating mechanisms through the read path (docs/OVERLOAD.md):

* admission control and load accounting (:mod:`repro.overload.load`);
* circuit breakers layered on the health tracker
  (:mod:`repro.overload.breaker`);
* load-aware cover tie-breaks (:mod:`repro.overload.tiebreak`);
* hedged bundles and deadline degradation ladders
  (:mod:`repro.overload.hedging`);

and composes them in an event-heap DES (:mod:`repro.overload.desim`)
that the ``hotspot`` experiment drives.
"""
