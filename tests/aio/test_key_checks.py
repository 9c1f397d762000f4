"""A request's keys are checked once, before anything is sent.

``AsyncRnBClient.get_multi`` checks every key with ``validate_keys`` before it
plans; the transactions it then puts on the wire (``AsyncMemcachedClient.begin``)
join the checked keys without checking them again.  The coroutine
``AsyncMemcachedClient.get_multi`` is a public entry point and checks its own.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.errors import ProtocolError
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.protocol import codec, rnbclient
from repro.protocol.codec import Command, validate_keys
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport

N_SERVERS = 4
ITEMS = {f"item{i:03d}": b"v%d" % i for i in range(40)}
BAD_KEYS = {
    "empty": "",
    "space": "a b",
    "control": "a\x01b",
    "251 characters": "k" * (codec.MAX_KEY_LEN + 1),
    "no-break space": "a\u00a0b",
}


class SpyTransport:
    """A server's in-process transport that counts ``submit`` calls and answers
    each one on the next loop tick, as a socket's ``data_received`` would."""

    def __init__(self, server: MemcachedServer) -> None:
        self.loopback = LoopbackTransport(server)
        self.submits = 0

    def submit(self, request: bytes, n_responses: int, sink) -> bool:
        self.submits += 1
        responses = self.loopback.exchange(request, n_responses)
        asyncio.get_running_loop().call_soon(sink.set_result, responses)
        return True

    async def exchange(self, request: bytes, n_responses: int = 1):
        return self.loopback.exchange(request, n_responses)

    def close(self) -> None:
        pass


def fleet() -> tuple[AsyncRnBClient, list[SpyTransport]]:
    placer = RangedConsistentHashPlacer(N_SERVERS, 2, seed=1)
    servers = [MemcachedServer() for _ in range(N_SERVERS)]
    for key, value in ITEMS.items():
        for sid in placer.servers_for(key):
            servers[sid].execute(Command(name="set", keys=(key,), data=value))
    spies = [SpyTransport(server) for server in servers]
    connections = {sid: AsyncMemcachedClient(spy) for sid, spy in enumerate(spies)}
    return AsyncRnBClient(connections, placer), spies


@pytest.mark.parametrize("bad", BAD_KEYS.values(), ids=BAD_KEYS.keys())
def test_a_bad_key_raises_before_any_submit(bad):
    keys = sorted(ITEMS)[:5]
    with pytest.raises(ProtocolError):
        validate_keys((bad,))

    async def scenario():
        client, spies = fleet()
        for request in ([bad], [*keys[:2], bad, *keys[2:]]):
            with pytest.raises(ProtocolError):
                await client.get_multi(request)
            assert sum(spy.submits for spy in spies) == 0
        with pytest.raises(ProtocolError):
            await client.connections[0].get_multi([keys[0], bad])
        outcome = await client.get_multi(keys)  # the client is unharmed
        assert outcome.values == {k: ITEMS[k] for k in keys}
        assert sum(spy.submits for spy in spies) == outcome.transactions

    asyncio.run(scenario())


def test_one_check_per_request(monkeypatch):
    checked = []

    def counting(keys):
        checked.append(tuple(keys))
        return validate_keys(keys)

    monkeypatch.setattr(codec, "validate_keys", counting)  # what the encoders call
    monkeypatch.setattr(rnbclient, "validate_keys", counting)  # what the engine calls

    async def scenario():
        client, spies = fleet()
        outcome = await client.get_multi(sorted(ITEMS))
        assert outcome.values == ITEMS
        return outcome.transactions, sum(spy.submits for spy in spies)

    transactions, submits = asyncio.run(scenario())
    assert transactions == submits > 1
    assert checked == [tuple(sorted(ITEMS))]
