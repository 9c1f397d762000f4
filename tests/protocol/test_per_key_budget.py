"""Per-key call budget of the live read path: counts, not timings.

RnB's premise is that a transaction costs per transaction, not per item
(paper §II, Fig. 13), so no layer may make a Python-level call per key:
the codec, the server's ``get`` dispatch and the response parser make
the same number of calls for a 1-key and a 64-key ``get``, and a warm
planner at most a constant per transaction — no placer lookup per key.
In the spirit of ``tests/aio/test_scatter.py::TestBudget``.
"""

from __future__ import annotations

import gc
import os
import sys

import repro
from repro.core.bundling import Bundler
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.protocol.codec import Command, FrameBuffer, encode_command, parse_command_stream
from repro.protocol.memserver import MemcachedServer
from repro.types import Request

KEYS = tuple(f"i{n:06d}" for n in range(64))
SRC = os.path.dirname(repro.__file__)


def python_calls(fn) -> int:
    """Python-level calls into ``repro`` made while ``fn()`` runs (``sys.setprofile``
    reports calls into C separately, as ``c_call``).  Frames of other packages are not
    counted and the collector is held off: a finaliser of some earlier test's garbage,
    run by a collection inside the counted region, is not this code's call."""
    calls = 0

    def profiler(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def store() -> MemcachedServer:
    """A server holding every key, none with a TTL."""
    server = MemcachedServer()
    for key in KEYS:
        server.execute(Command("set", keys=(key,), data=key.encode() * 8))
    return server


def get(n_keys: int) -> Command:
    return Command("get", keys=KEYS[:n_keys])


class TestNoCallPerKey:
    def test_encode_command(self):
        one, many = (python_calls(lambda: encode_command(get(n))) for n in (1, 64))
        assert one == many

    def test_parse_command_stream(self):
        wires = [encode_command(get(n)) for n in (1, 64)]
        one, many = (python_calls(lambda: parse_command_stream(wire)) for wire in wires)
        assert one == many

    def test_server_execute_all_hits(self):
        server = store()
        one, many = (python_calls(lambda: server.execute(get(n))) for n in (1, 64))
        assert one == many
        assert server.stats["get_hits"] == 65 and server.stats["get_misses"] == 0

    def test_frame_buffer_feed_and_next_response(self):
        server = store()

        def parse(reply: bytes) -> None:
            frames = FrameBuffer()
            frames.feed(reply)
            assert len(frames.next_response().values) == reply.count(b"VALUE ")

        replies = [server.execute(get(n)) for n in (1, 64)]
        one, many = (python_calls(lambda: parse(reply)) for reply in replies)
        assert one == many


#: Python-level calls a warm plan may make per transaction it plans
PER_TRANSACTION = 1


class TestPlanBudget:
    def test_no_call_per_key_and_one_per_transaction(self):
        placer = RangedConsistentHashPlacer(16, 3, seed=0)
        bundler = Bundler(placer)
        requests = [Request(items=KEYS[:n]) for n in (8, 64)]
        txns = [len(bundler.plan(r).transactions) for r in requests]  # warms the memo
        assert txns[0] < txns[1]
        few, many = (python_calls(lambda: bundler.plan(r)) for r in requests)
        assert many - few <= PER_TRANSACTION * (txns[1] - txns[0])
