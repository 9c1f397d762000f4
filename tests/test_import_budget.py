"""An RnB process starts on numpy and the standard library, nothing heavier.

Every ``import repro.*`` runs ``repro/__init__``, so one heavy import
anywhere in the package is paid by the CLI, every client and every
server process.  The probe below runs in a fresh interpreter with the
scientific stack *blocked* and drives the CLI, the live asyncio stack,
the simulator and the analytic model.  A second probe holds the sync
request engine and the simulator to no network stack at all: sockets
live in :mod:`repro.aio` only.  No timing assertion: the box drifts
1-2x, the module set does not.
"""

from __future__ import annotations

import subprocess
import sys

BLOCKED = ("scipy", "networkx")
# multiprocessing: only a sweep fanned over processes (max_workers > 1) needs it;
# socketserver: the one socket front is asyncio's
DENIED = {
    *BLOCKED, "matplotlib", "pandas", "pytest", "hypothesis", "multiprocessing",
    "socketserver",
}

PROBE = f"""
import sys
for name in {BLOCKED!r}:
    sys.modules[name] = None  # importing it now raises ImportError
import repro, repro.cli, repro.aio.server, repro.aio.rnbclient
import repro.loadgen.runner, repro.sim.engine
from repro.analysis import predicted_tpr
assert repro.cli.main(["list"]) == 0
assert 1.0 < predicted_tpr(16, 40, 3) < 16.0
loaded = {{m.partition(".")[0] for m, mod in sys.modules.items() if mod is not None}}
print("LOADED", *sorted(loaded))
"""


def test_cli_live_stack_simulator_and_model_run_without_the_scientific_stack():
    # the child finds ``repro`` the way this process did (PYTHONPATH or install)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "fig06" in done.stdout  # `rnb list` really ran
    loaded = set(done.stdout.splitlines()[-1].split()[1:])
    assert {"repro", "numpy", "asyncio"} <= loaded
    assert not loaded & DENIED


SYNC_PROBE = """
import sys
import repro, repro.protocol, repro.sim.engine
print("LOADED", *sorted(m for m, mod in sys.modules.items() if mod is not None))
"""


def test_sync_engine_and_simulator_load_neither_socket_nor_asyncio():
    done = subprocess.run(
        [sys.executable, "-c", SYNC_PROBE], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split()[1:])
    assert "repro.protocol.rnbclient" in loaded
    assert not loaded & {"socket", "asyncio"}
