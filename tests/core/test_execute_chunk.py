"""The block executor against its per-request specification.

``RnBClient.execute_chunk`` runs a chunk from the planner's arrays;
``Bundler.plan`` + ``RnBClient.execute_plan`` + ``ClusterStats.record``
run it a request at a time.  On twin clusters the two must leave every
store (LRU order, evictions, stamps), every server counter and the run's
stats the same — every dict with its keys in the same order, because
float sums downstream (``work_per_request``) run in key order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.lru import PinnedLRU
from repro.cluster.placement import RandomPlacer
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.errors import ConfigurationError
from repro.perf.table import PlacementTable
from repro.types import ClusterStats, Request
from tests.perf.test_tally_chunk import _as_block

N_ITEMS = 600
TABLE = PlacementTable.compile(RandomPlacer(16, 3, seed=11), N_ITEMS)


def _client(memory_factor, lru_policy, write_back, **bundler_kwargs) -> RnBClient:
    cluster = Cluster(
        TABLE, range(N_ITEMS), memory_factor=memory_factor, lru_policy=lru_policy
    )
    # a versioned slice of the data: write-backs must carry these stamps
    for item in range(0, N_ITEMS, 7):
        cluster.servers[TABLE.distinguished_for(item)].stamps[item] = f"v{item}"
    bundler = Bundler(TABLE, rng=np.random.default_rng(1), **bundler_kwargs)
    return RnBClient(cluster, bundler, write_back=write_back)


def _state(client: RnBClient, stats: ClusterStats):
    """Everything execution writes, dict key order included."""
    servers = []
    for server in client.cluster.servers:
        c = dataclasses.asdict(server.counters)
        c["txn_sizes"] = list(server.counters.txn_sizes.counts.items())
        # a priority store's distinguished copies have a recency order too
        distinguished = getattr(server.store._lru, "_a", None)
        servers.append(
            (
                c,
                server.store.replica_keys(),
                distinguished and distinguished.keys(),
                server.store.evictions,
                list(server.stamps.items()),
            )
        )
    s = dataclasses.asdict(stats)
    s["txn_size_histogram"] = list(stats.txn_size_histogram.items())
    s["per_server_transactions"] = list(stats.per_server_transactions.items())
    return servers, s


@st.composite
def chunk_runs(draw):
    """Chunks of requests over a hot slice of the items, so LRUs evict and
    items miss (twenty hot items make one item miss twice on one server
    within a chunk); optionally salted with requests the block path cannot take
    (an item outside the table has no copy to execute against)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    hot = draw(st.sampled_from([20, 60, 200, N_ITEMS]))
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        sizes = draw(st.lists(st.sampled_from([1, 2, 3, 5, 9, 25, 60]), max_size=30))
        chunk = [
            Request(items=tuple(rng.choice(hot, size=min(size, hot), replace=False).tolist()))
            for size in sizes
        ]
        odd = {
            "empty": Request(items=()),
            "limit": Request(items=tuple(range(10, 40)), limit_fraction=0.5),
            "limit_full": Request(items=tuple(range(5, 20)), limit_fraction=1.0),
        }
        for kind in draw(st.lists(st.sampled_from(sorted(odd)), max_size=2)):
            chunk.insert(draw(st.integers(0, len(chunk))), odd[kind])
        chunks.append(chunk)
    return chunks


@given(
    chunk_runs(),
    # 1.05: two replica slots a server, fewer than a transaction's items
    st.sampled_from([1.0, 1.05, 1.3, 2.0, None]),
    st.sampled_from(["pinned", "priority"]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_execute_chunk_is_the_per_request_fold(
    chunks, memory_factor, lru_policy, write_back, single_item_rule, as_blocks
):
    kwargs = dict(single_item_rule=single_item_rule)
    spec = _client(memory_factor, lru_policy, write_back, **kwargs)
    spec_stats = ClusterStats()
    got = _client(memory_factor, lru_policy, write_back, **kwargs)
    got_stats = ClusterStats()
    for i, chunk in enumerate(chunks):
        for request in chunk:
            result = spec.execute_plan(spec.bundler.plan(request))
            if i:  # the first chunk warms up, unrecorded
                spec_stats.record(result)
        plain = all(r.items and r.limit_fraction is None for r in chunk)
        got.execute_chunk(
            _as_block(chunk) if as_blocks and plain else chunk, got_stats if i else None
        )
        assert _state(got, got_stats) == _state(spec, spec_stats)


@pytest.mark.parametrize("kwargs", [{"hitchhiking": True}, {"tie_break": "random"}])
def test_off_the_envelope_runs_the_specification(kwargs):
    """Hitchhiking or another tie-break: the whole chunk goes through
    ``plan_batch`` and ``execute_plan``."""
    rng = np.random.default_rng(6)
    chunk = [
        Request(items=tuple(rng.choice(80, size=size, replace=False).tolist()))
        for size in rng.integers(1, 30, size=40)
    ]
    spec, got = (_client(1.2, "pinned", True, **kwargs) for _ in range(2))
    spec_stats, got_stats = ClusterStats(), ClusterStats()
    for request in chunk:
        spec_stats.record(spec.execute_plan(spec.bundler.plan(request)))
    got.execute_chunk(_as_block(chunk), got_stats)
    assert _state(got, got_stats) == _state(spec, spec_stats)
    assert got_stats.misses > 0


def test_second_rounds_are_counted_where_they_ran():
    """Round two lands on distinguished servers and in the stats' counts."""
    rng = np.random.default_rng(8)
    chunk = [
        Request(items=tuple(rng.choice(N_ITEMS, size=20, replace=False).tolist()))
        for _ in range(50)
    ]
    client, stats = _client(1.0, "pinned", True), ClusterStats()
    client.execute_chunk(_as_block(chunk), stats)
    assert stats.second_round_transactions > 0 and stats.misses > 0
    assert stats.items_fetched == 20 * 50
    assert sum(s.counters.writes for s in client.cluster.servers) == stats.misses
    assert sum(s.counters.misses for s in client.cluster.servers) == stats.misses


def test_an_item_missing_twice_on_one_server_keeps_its_stamp_slot():
    """Two replica slots a server and twenty hot items, all versioned: an
    item is written back to one server, evicted, another item's copy is
    stamped there, and the first is written back again.  Its stamp keeps
    the dict slot of its first write-back."""
    rng = np.random.default_rng(3)
    chunk = [
        Request(items=tuple(rng.choice(20, size=size, replace=False).tolist()))
        for size in rng.integers(1, 12, size=60)
    ]
    spec, got = (_client(1.05, "pinned", True) for _ in range(2))
    assert spec.cluster.replica_capacity_per_server == 2
    for client in (spec, got):
        for item in range(20):
            client.cluster.servers[TABLE.distinguished_for(item)].stamps[item] = f"v{item}"
    written = []
    for server in spec.cluster.servers:

        def write_back(item, *, stamp=None, _sid=server.server_id, _method=server.write_back):
            written.append((_sid, item))
            _method(item, stamp=stamp)

        server.write_back = write_back
    spec_stats, got_stats = ClusterStats(), ClusterStats()
    for request in chunk:
        spec_stats.record(spec.execute_plan(spec.bundler.plan(request)))
    got.execute_chunk(_as_block(chunk), got_stats)
    # some server is written x, then another item, then x again
    by_server: dict[int, list] = {}
    for sid, item in written:
        by_server.setdefault(sid, []).append(item)
    assert any(
        item in seq[:i] and seq[i - 1] != item
        for seq in by_server.values()
        for i, item in enumerate(seq)
    )
    assert _state(got, got_stats) == _state(spec, spec_stats)


@pytest.mark.parametrize("write_back", [True, False])
def test_a_wiped_home_fails_the_block_path_as_it_fails_the_specification(write_back):
    """A crashed home has lost its distinguished copies: a miss it should
    repair raises, whichever path runs the chunk."""
    rng = np.random.default_rng(4)
    chunk = [
        Request(items=tuple(rng.choice(N_ITEMS, size=20, replace=False).tolist()))
        for _ in range(50)
    ]
    spec, got = (_client(1.0, "pinned", write_back) for _ in range(2))
    for client in (spec, got):
        client.cluster.wipe_server(0)
    with pytest.raises(ConfigurationError, match="distinguished copies missing on server 0"):
        for request in chunk:
            spec.execute_plan(spec.bundler.plan(request))
    with pytest.raises(ConfigurationError, match="distinguished copies missing on server 0"):
        got.execute_chunk(_as_block(chunk), ClusterStats())


def test_replay_sees_no_read_of_an_item_on_its_home(monkeypatch):
    """A read of an item on its home finds the pinned copy and moves no
    LRU, so the block path leaves it out of ``replay``: no position a
    replayed transaction covers holds a key its server pins."""
    rng = np.random.default_rng(5)
    chunk = [
        Request(items=tuple(rng.choice(N_ITEMS, size=size, replace=False).tolist()))
        for size in rng.integers(1, 30, size=80)
    ]
    client = _client(1.3, "pinned", True)
    replay, seen = PinnedLRU.replay, []

    def spy(store, keys, edges, *, put=True):
        seen.extend(key for key in keys[edges[0] : edges[-1]] if store.is_pinned(key))
        seen.append(None)  # one mark a call: the spy ran
        return replay(store, keys, edges, put=put)

    monkeypatch.setattr(PinnedLRU, "replay", spy)
    stats = ClusterStats()
    client.execute_chunk(_as_block(chunk), stats)
    assert seen == [None] * len(client.cluster.servers)
    assert stats.misses > 0 and stats.items_fetched == sum(len(r.items) for r in chunk)


@pytest.mark.parametrize("write_back", [True, False])
def test_an_unpinned_home_copy_read_on_its_home_raises(write_back):
    """A home that lost one distinguished copy (``unpin``, the rest of the
    server intact) fails the block path the first time the item is read
    there: the single-item rule sends a lone item to its home."""
    client = _client(1.0, "pinned", write_back)
    item = 42
    home = TABLE.distinguished_for(item)
    assert client.cluster.servers[home].store.unpin(item)
    with pytest.raises(
        ConfigurationError, match=rf"distinguished copies missing on server {home}: \[{item}\]"
    ):
        client.execute_chunk(_as_block([Request(items=(7, 300)), Request(items=(item,))]))
