"""One visit: one workload, measured in this process.

Importing this module imports the whole stack under test (numpy, the
``repro`` packages); ``run.py`` imports it inside a timed call because
that is part of what ``setup_s`` reports.
"""

from __future__ import annotations

import asyncio

import live
import simrun
import spec as specs


def run_visit(workload: str, seed: int, seconds: float, trace: bool, setups: int, yard, out_dir):
    """Dispatch to the live or the simulator driver; returns the visit's
    detail document (per-segment values, counts, layers when traced)."""
    if workload in specs.LIVE:
        spec = specs.LIVE[workload]
        if trace:
            return live.visit_traced(spec, seed, seconds, out_dir, yard)
        return asyncio.run(live.visit(spec, seed, seconds, setups, yard))
    return simrun.visit(specs.SIM[workload], seed, seconds, trace, setups, yard)
