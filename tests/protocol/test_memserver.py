"""Tests for the in-process memcached server semantics."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer


def set_cmd(key, data, noreply=False):
    return Command("set", keys=(key,), data=data, noreply=noreply)


class TestStorage:
    def test_set_then_get(self):
        s = MemcachedServer()
        assert s.execute(set_cmd("a", b"v")) == b"STORED\r\n"
        out = s.execute(Command("get", keys=("a",)))
        assert b"VALUE a 0 1\r\nv\r\n" in out and out.endswith(b"END\r\n")

    def test_get_miss_is_silent(self):
        s = MemcachedServer()
        assert s.execute(Command("get", keys=("nope",))) == b"END\r\n"
        assert s.stats["get_misses"] == 1

    def test_multiget_partial(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"1"))
        out = s.execute(Command("get", keys=("a", "b", "c")))
        assert out.count(b"VALUE") == 1
        assert s.stats["get_hits"] == 1
        assert s.stats["get_misses"] == 2

    def test_overwrite(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"old"))
        s.execute(set_cmd("a", b"newer"))
        out = s.execute(Command("get", keys=("a",)))
        assert b"newer" in out

    def test_noreply_set(self):
        s = MemcachedServer()
        assert s.execute(set_cmd("a", b"v", noreply=True)) == b""
        assert "a" in s

    def test_delete(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v"))
        assert s.execute(Command("delete", keys=("a",))) == b"DELETED\r\n"
        assert s.execute(Command("delete", keys=("a",))) == b"NOT_FOUND\r\n"

    def test_flush_all(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v"))
        assert s.execute(Command("flush_all")) == b"OK\r\n"
        assert s.curr_items == 0
        assert s.bytes_used == 0


class TestCas:
    def test_gets_returns_cas(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v"))
        out = s.execute(Command("gets", keys=("a",)))
        assert b"VALUE a 0 1 1\r\n" in out

    def test_cas_success_and_conflict(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v1"))
        assert s.execute(Command("cas", keys=("a",), data=b"v2", cas=1)) == b"STORED\r\n"
        # stale cas id now conflicts
        assert s.execute(Command("cas", keys=("a",), data=b"v3", cas=1)) == b"EXISTS\r\n"
        assert s.stats["cas_hits"] == 1
        assert s.stats["cas_badval"] == 1

    def test_cas_missing_key(self):
        s = MemcachedServer()
        assert s.execute(Command("cas", keys=("x",), data=b"v", cas=1)) == b"NOT_FOUND\r\n"

    def test_cas_ids_monotone(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"1"))
        s.execute(set_cmd("b", b"2"))
        out = s.execute(Command("gets", keys=("a", "b")))
        assert b"VALUE a 0 1 1" in out
        assert b"VALUE b 0 1 2" in out


class TestLRUEviction:
    def test_evicts_by_bytes(self):
        s = MemcachedServer(capacity_bytes=10)
        s.execute(set_cmd("a", b"12345"))
        s.execute(set_cmd("b", b"12345"))
        s.execute(set_cmd("c", b"1"))  # evicts a (LRU)
        assert "a" not in s and "b" in s and "c" in s
        assert s.stats["evictions"] == 1

    def test_get_refreshes_lru(self):
        s = MemcachedServer(capacity_bytes=10)
        s.execute(set_cmd("a", b"12345"))
        s.execute(set_cmd("b", b"12345"))
        s.execute(Command("get", keys=("a",)))
        s.execute(set_cmd("c", b"1"))  # evicts b, not the refreshed a
        assert "a" in s and "b" not in s

    def test_hits_of_a_multi_get_and_a_gets_protect_their_keys(self):
        # only a bounded store keeps LRU order on a hit: an unbounded one never evicts
        s = MemcachedServer(capacity_bytes=30)
        for key in "abc":
            s.execute(set_cmd(key, b"x" * 10))
        s.execute(Command("get", keys=("a", "nope")))
        s.execute(set_cmd("d", b"x" * 10))  # evicts b, not the hit a
        assert list(s._items) == ["c", "a", "d"]
        s.execute(Command("gets", keys=("c",)))
        s.execute(set_cmd("e", b"x" * 10))  # evicts a, not the hit c
        assert list(s._items) == ["d", "c", "e"]
        assert s.stats["evictions"] == 2

    def test_oversized_item_dropped(self):
        s = MemcachedServer(capacity_bytes=4)
        s.execute(set_cmd("big", b"123456"))
        assert "big" not in s

    def test_replacement_releases_bytes(self):
        s = MemcachedServer(capacity_bytes=10)
        s.execute(set_cmd("a", b"123456789"))
        s.execute(set_cmd("a", b"12"))
        assert s.bytes_used == 2


def stats_of(server):
    return {
        "curr_items": server.curr_items,
        "bytes": server.bytes_used,
        "evictions": server.stats["evictions"],
    }


class TestOversizedStores:
    """A value larger than a bounded store's capacity evicts nothing: memcached
    answers ``SERVER_ERROR object too large for cache`` (a ``set`` also drops the
    key's old value), and an ``append``/``prepend`` that would outgrow it is
    ``NOT_STORED`` with the old value kept."""

    @staticmethod
    def full_server():
        s = MemcachedServer(capacity_bytes=100)
        s.execute(set_cmd("a", b"x" * 10))
        s.execute(set_cmd("b", b"y" * 10))
        return s

    def test_oversized_set_over_the_wire_keeps_the_rest(self):
        s = self.full_server()
        out = s.handle(b"set big 0 0 101\r\n" + b"z" * 101 + b"\r\nget big a b\r\n")
        assert out.startswith(b"SERVER_ERROR object too large for cache\r\n")
        assert b"VALUE big" not in out and out.count(b"VALUE") == 2
        assert stats_of(s) == {"curr_items": 2, "bytes": 20, "evictions": 0}

    def test_oversized_set_drops_the_old_value_of_its_key(self):
        s = self.full_server()
        out = s.execute(set_cmd("a", b"z" * 101))
        assert out == b"SERVER_ERROR object too large for cache\r\n"
        assert "a" not in s and "b" in s
        assert stats_of(s) == {"curr_items": 1, "bytes": 10, "evictions": 0}

    @pytest.mark.parametrize("verb", ["add", "replace", "cas"])
    def test_oversized_add_replace_cas_keep_the_old_value(self, verb):
        s = self.full_server()
        cas = 1 if verb == "cas" else None  # the cas id "a" holds
        key = "new" if verb == "add" else "a"
        out = s.execute(Command(verb, keys=(key,), data=b"z" * 101, cas=cas))
        assert out == b"SERVER_ERROR object too large for cache\r\n"
        got = s.execute(Command("get", keys=("a", "b")))
        assert got.count(b"VALUE") == 2 and b"x" * 10 in got
        assert stats_of(s) == {"curr_items": 2, "bytes": 20, "evictions": 0}

    @pytest.mark.parametrize("verb", ["append", "prepend"])
    def test_outgrowing_append_prepend_are_not_stored(self, verb):
        s = self.full_server()
        out = s.execute(Command(verb, keys=("a",), data=b"z" * 91))
        assert out == b"NOT_STORED\r\n"
        got = s.execute(Command("get", keys=("a",)))
        assert got == b"VALUE a 0 10\r\n" + b"x" * 10 + b"\r\nEND\r\n"
        assert stats_of(s) == {"curr_items": 2, "bytes": 20, "evictions": 0}
        # one that fits still evicts the least recently used entry for its room
        assert s.execute(Command(verb, keys=("a",), data=b"z" * 90)) == b"STORED\r\n"
        assert "b" not in s and s.bytes_used == 100 and s.stats["evictions"] == 1

    def test_a_value_of_exactly_the_capacity_fits(self):
        s = self.full_server()
        assert s.execute(set_cmd("big", b"z" * 100)) == b"STORED\r\n"
        assert stats_of(s) == {"curr_items": 1, "bytes": 100, "evictions": 2}

    def test_a_counter_that_outgrows_the_store_is_refused(self):
        s = MemcachedServer(capacity_bytes=1)
        s.execute(set_cmd("n", b"9"))
        out = s.execute(Command("incr", keys=("n",), delta=1))
        assert out == b"SERVER_ERROR out of memory\r\n"
        assert s.execute(Command("get", keys=("n",))) == b"VALUE n 0 1\r\n9\r\nEND\r\n"
        assert s.execute(Command("decr", keys=("n",), delta=1)) == b"8\r\n"

    def test_noreply_stays_silent(self):
        s = self.full_server()
        assert s.execute(set_cmd("big", b"z" * 101, noreply=True)) == b""
        assert stats_of(s)["curr_items"] == 2


class TestStatsAndHandle:
    def test_stats_counters(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v"))
        s.execute(Command("get", keys=("a",)))
        out = s.execute(Command("stats"))
        assert b"STAT cmd_get 1" in out
        assert b"STAT cmd_set 1" in out
        assert b"STAT curr_items 1" in out

    def test_version(self):
        s = MemcachedServer()
        assert s.execute(Command("version")).startswith(b"VERSION")

    def test_handle_pipelined(self):
        s = MemcachedServer()
        out = s.handle(b"set a 0 0 1\r\nx\r\nget a\r\n")
        assert out.startswith(b"STORED\r\n")
        assert b"VALUE a" in out

    def test_handle_trailing_garbage_rejected(self):
        s = MemcachedServer()
        with pytest.raises(ProtocolError):
            s.handle(b"get a\r\nget")

    def test_total_transactions(self):
        s = MemcachedServer()
        s.execute(set_cmd("a", b"v"))
        s.execute(Command("get", keys=("a",)))
        assert s.stats["total_transactions"] == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemcachedServer(capacity_bytes=-1)


class TestStatsMetricsVerb:
    """The extended `stats metrics` verb (docs/OBSERVABILITY.md)."""

    def _server(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "rnb_requests_total", "requests", path="live", outcome="ok"
        ).inc(2)
        s = MemcachedServer(name="m0", metrics=registry)
        s.execute(set_cmd("a", b"v"))
        s.execute(Command("get", keys=("a",)))
        return s, registry

    def test_cache_stats_re_exported_with_server_label(self):
        s, _ = self._server()
        out = s.execute(Command("stats", keys=("metrics",)))
        assert b'STAT rnb_cache_cmd_get_total{server="m0"} 1' in out
        assert b'STAT rnb_cache_curr_items{server="m0"} 1' in out
        assert out.endswith(b"END\r\n")

    def test_registry_samples_ride_along(self):
        s, _ = self._server()
        out = s.execute(Command("stats", keys=("metrics",)))
        assert b'STAT rnb_requests_total{outcome="ok",path="live"} 2' in out

    def test_works_without_a_registry(self):
        s = MemcachedServer(name="bare")
        s.execute(set_cmd("a", b"v"))
        out = s.execute(Command("stats", keys=("metrics",)))
        assert b'STAT rnb_cache_cmd_set_total{server="bare"} 1' in out

    def test_unknown_argument_is_client_error(self):
        s, _ = self._server()
        out = s.execute(Command("stats", keys=("bogus",)))
        assert out.startswith(b"CLIENT_ERROR")

    def test_metrics_samples_matches_the_wire(self):
        s, _ = self._server()
        wire = s.execute(Command("stats", keys=("metrics",)))
        for name, value in s.metrics_samples():
            from repro.obs.metrics import format_value

            assert f"STAT {name} {format_value(value)}\r\n".encode() in wire
