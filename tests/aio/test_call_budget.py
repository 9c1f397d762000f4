"""What the shared request engine costs the async client, in calls.

``sys.setprofile`` counts the Python-level calls made under ``repro`` — the
client, its generators, the transport and the in-loop servers — while one warm
request runs: a count, not a timing, so it holds on any machine.  The engine
drives every request through generators (docs/SERVING.md, "Fan-out"); that may
cost a few calls a request, never a few per key or per replica.
"""

from __future__ import annotations

import os
import sys

import repro

from tests.aio.test_rnbclient import ITEMS, _Cluster, run

PACKAGE = os.path.dirname(repro.__file__)

#: the counts before the engine was shared (hand-written async methods)
HAND_WRITTEN = {"get_multi": 101, "set_versioned": 83}
#: ... and since a warm plan stopped calling the placer per key (20 keys)
BUDGET = {**HAND_WRITTEN, "get_multi": 81}
SLACK = 10


async def count_calls(make) -> int:
    count = 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        await make()
    finally:
        sys.setprofile(None)
    return count


def test_a_warm_request_costs_a_few_calls_more_at_most():
    async def scenario():
        async with _Cluster() as c:
            c.preload(ITEMS)
            await c.warm()
            keys = sorted(ITEMS)[:20]
            requests = {
                "get_multi": lambda: c.client.get_multi(keys),
                "set_versioned": lambda: c.client.set_versioned("m001", b"v"),
            }
            for make in requests.values():  # connected sockets, a built writer
                await make()
            return {name: await count_calls(make) for name, make in requests.items()}

    counted = run(scenario())
    for name, calls in counted.items():
        assert calls <= BUDGET[name] + SLACK, (name, calls)
