"""The reply shape: ``Response.values`` key -> data, ``cas`` and ``flags`` beside it.

A retrieval reply is parsed once into three dicts — the data every value
has, the cas ids a ``gets`` reply carries, the flags that are not 0 — and
both clients hand ``values`` out as it is.  These properties hold the
parser to the VALUE blocks it was given, in one buffer and split at every
byte of a pipelined stream, and the sync and async clients to each other.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.server import serve_aio
from repro.aio.transport import AsyncConnection, BlockingConnection
from repro.protocol.codec import Command, FrameBuffer, parse_response
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer

from tests.protocol._oracle import format_values

keys = st.text("abcdé:-_", min_size=1, max_size=6)
payloads = st.sampled_from([b"", b"\r\nEND\r\n", b"\r\n"]) | st.binary(max_size=12)
flags = st.sampled_from([0, 0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
cas_ids = st.integers(0, 2**64 - 1)
blocks = st.lists(
    st.tuples(keys, flags, payloads, cas_ids), max_size=4, unique_by=lambda b: b[0]
)
replies = st.tuples(blocks, st.booleans())


def expected(items, with_cas: bool) -> tuple[dict, dict, dict]:
    """``(values, cas, flags)`` of a reply formatted from ``items``."""
    return (
        {k: data for k, _, data, _ in items},
        {k: cas for k, _, _, cas in items} if with_cas else {},
        {k: f for k, f, _, _ in items if f},
    )


def shape(resp) -> tuple[dict, dict, dict]:
    assert resp.status == "END"
    assert all(type(v) is bytes for v in resp.values.values())
    return resp.values, resp.cas, resp.flags


@given(replies)
@settings(max_examples=300)
def test_one_reply_round_trips(reply):
    items, with_cas = reply
    resp, rest = parse_response(format_values(items, with_cas))
    assert rest == b""
    assert shape(resp) == expected(items, with_cas)


@given(st.lists(replies, min_size=1, max_size=3))
@settings(max_examples=100)
def test_a_pipelined_stream_split_at_every_byte(stream):
    wire = b"".join(format_values(items, with_cas) for items, with_cas in stream)
    want = [expected(items, with_cas) for items, with_cas in stream]
    for at in range(len(wire) + 1):
        frames, got = FrameBuffer(), []
        for chunk in (wire[:at], wire[at:]):
            frames.feed(chunk)
            while (resp := frames.next_response()) is not None:
                got.append(shape(resp))
        assert got == want, at
        assert len(frames) == 0


def test_the_hand_picked_edges():
    items = [("z", 0, b"", 1), ("e", 3, b"\r\nEND\r\n", 2), ("n", 0, b"\r\n", 3)]
    for with_cas in (False, True):
        resp, _ = parse_response(format_values(items, with_cas))
        assert shape(resp) == expected(items, with_cas)
    resp, _ = parse_response(format_values([("a", 5, b"x", None), ("a", 0, b"y", None)], False))
    assert shape(resp) == ({"a": b"y"}, {}, {})  # a repeated key: the last block wins


@pytest.fixture(scope="module")
def fleet():
    backend = MemcachedServer()
    handle, (host, port) = serve_aio(backend)
    sync = MemcachedConnection(BlockingConnection(host, port, read_timeout=5.0))
    yield backend, host, port, sync
    sync.transport.close()
    handle.stop()


def _async_reads(host: str, port: int, keys: list[str]):
    async def reads():
        client = AsyncMemcachedClient(AsyncConnection(host, port, read_timeout=5.0))
        try:
            return await client.get_multi(keys), await client.get_multi(keys, with_cas=True)
        finally:
            client.close()

    return asyncio.run(reads())


@given(blocks)
@settings(max_examples=25, deadline=None)
def test_sync_and_async_clients_return_equal_dicts(fleet, items):
    backend, host, port, sync = fleet
    backend.execute(Command("flush_all"))
    for key, flag, data, _ in items:
        backend.execute(Command("set", keys=(key,), flags=flag, data=data))
    wanted = [k for k, _, _, _ in items] + ["absent"]
    values, with_cas = _async_reads(host, port, wanted)
    assert values == sync.get_multi(wanted) == {k: data for k, _, data, _ in items}
    assert with_cas == sync.get_multi(wanted, with_cas=True)
    assert {k: data for k, (data, _) in with_cas.items()} == values
    assert len({cas for _, cas in with_cas.values()}) == len(items)  # one id a store
