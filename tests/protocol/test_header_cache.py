"""A plain ``get`` reuses an entry's ``VALUE`` header from the entry's first hit.

Every verb that replaces or edits an entry must leave no stale header behind:
after each one, a server whose cache was primed before it answers ``get`` and
``gets`` with exactly the bytes of a server that never answered a ``get``.
"""

from __future__ import annotations

import pytest

from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer

KEY = "k"


def cmd(name: str, data: bytes = b"", **fields) -> Command:
    return Command(name=name, keys=(KEY,), data=data, **fields)


TICK = "tick"  # the clock moves 10 s: an exptime of 5 has passed

SCENARIOS = {
    "set new flags": [cmd("set", b"abc", flags=1), cmd("set", b"abc", flags=7)],
    "set new length": [cmd("set", b"abc"), cmd("set", b"abcdef")],
    "add over a live key": [cmd("set", b"abc", flags=1), cmd("add", b"wxyz", flags=2)],
    "add after delete": [cmd("set", b"abc"), cmd("delete"), cmd("add", b"wxyz", flags=2)],
    "replace": [cmd("set", b"abc", flags=1), cmd("replace", b"wxyz", flags=2)],
    "append": [cmd("set", b"abc", flags=3), cmd("append", b"de")],
    "prepend": [cmd("set", b"abc", flags=3), cmd("prepend", b"de")],
    "incr": [cmd("set", b"9", flags=4), cmd("incr", delta=1)],
    "decr": [cmd("set", b"10", flags=4), cmd("decr", delta=1)],
    "cas": [cmd("set", b"abc", flags=1), cmd("cas", b"wxyz", flags=2, cas=1)],
    "cas mismatch": [cmd("set", b"abc", flags=1), cmd("cas", b"wxyz", flags=2, cas=9)],
    "touch": [cmd("set", b"abc", flags=1), cmd("touch", exptime=5), TICK],
    "touch then set": [cmd("set", b"abc"), cmd("touch", exptime=50), cmd("set", b"x", flags=5)],
    "delete then set": [cmd("set", b"abc", flags=1), cmd("delete"), cmd("set", b"wx", flags=2)],
    "ttl expiry": [cmd("set", b"abc", flags=1, exptime=5), TICK],
    "ttl expiry then set": [
        cmd("set", b"abc", flags=1, exptime=5),
        TICK,
        cmd("set", b"wxyz", flags=2),
    ],
}


class Clock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def replay(steps: list, *, primed: bool) -> tuple[list[bytes], MemcachedServer]:
    """A new server's replies to ``steps``; a ``primed`` one also answers a
    plain ``get`` of the key before and after every step."""
    clock = Clock()
    server = MemcachedServer(clock=clock)
    replies = []
    for step in steps:
        if step is TICK:
            clock.now += 10
            continue
        if primed:
            server.execute(Command(name="get", keys=(KEY,)))
        replies.append(server.execute(step))
        if primed:
            server.execute(Command(name="get", keys=(KEY,)))
    return replies, server


def reads(server: MemcachedServer) -> tuple[bytes, bytes]:
    # gets first: only a plain get fills the cache
    return (
        server.execute(Command(name="gets", keys=(KEY,))),
        server.execute(Command(name="get", keys=(KEY, KEY))),
    )


@pytest.mark.parametrize("steps", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_a_primed_header_never_outlives_its_entry(steps):
    for n in range(1, len(steps) + 1):
        want, fresh = replay(steps[:n], primed=False)
        got, primed = replay(steps[:n], primed=True)
        assert got == want
        assert reads(primed) == reads(fresh), steps[:n]
