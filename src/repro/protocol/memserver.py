"""A memcached-compatible key-value server.

Complete enough to run RnB end-to-end: multi-key ``get``/``gets``,
``set``, ``cas``, ``delete``, ``flush_all`` and ``stats``, with
byte-accounted LRU eviction like the real memcached (items are dropped
least-recently-used when ``capacity_bytes`` is exceeded; a value larger
than the whole capacity is refused and evicts nothing).

The server is transport-agnostic: :meth:`handle` consumes raw request
bytes (possibly several pipelined commands) and returns response bytes.
:class:`repro.protocol.transport.LoopbackTransport` calls it in-process
— this is what the calibration micro-benchmarks drive — and
:mod:`repro.aio.server` (``serve_aio`` for synchronous callers) exposes
the same instance on a real socket.

Thread safety: a single lock serialises command execution, mirroring
memcached's per-item locking at the granularity our benchmarks need and
making the two-client contention experiment (paper Fig 14) meaningful.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.obs.export import samples as obs_samples
from repro.obs.metrics import MetricsRegistry, format_value
from repro.protocol import codec
from repro.protocol.codec import CRLF, Command

#: exptime values above this are absolute unix timestamps (memcached rule)
RELATIVE_EXPTIME_LIMIT = 60 * 60 * 24 * 30
#: memcached's counters and deltas are uint64
_U64 = (1 << 64) - 1
#: a stored counter as ``int()`` reads it, less the ``_`` separators, minus
#: signs and non-ASCII digits memcached's ``safe_strtoull`` refuses (a bytes
#: pattern's ``\s`` and ``[0-9]`` are ASCII only)
_COUNTER = re.compile(rb"\s*\+?([0-9]+)\s*").fullmatch

STORED = b"STORED\r\n"
NOT_STORED = b"NOT_STORED\r\n"
TOO_LARGE = b"SERVER_ERROR object too large for cache\r\n"
BAD_DELTA = b"CLIENT_ERROR invalid numeric delta argument\r\n"
NON_NUMERIC = b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"


@dataclass(slots=True)
class _Entry:
    flags: int
    data: bytes
    cas: int
    expires_at: float | None = None
    #: ``VALUE <key> <flags> <bytes>\r\n``, built on the entry's first ``get`` hit;
    #: every store makes a new entry, so it never outlives the flags and data it names
    header: bytes | None = None

    @property
    def size(self) -> int:
        return len(self.data)


class MemcachedServer:
    """In-process memcached: a byte-bounded LRU of key -> value entries."""

    def __init__(
        self,
        capacity_bytes: int | None = None,
        *,
        name: str = "mem0",
        clock=time.time,
        admission=None,
        metrics=None,
    ):
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.clock = clock  # injectable for deterministic expiry tests
        #: optional repro.overload.load.AdmissionControl; when set, get
        #: transactions the gate rejects answer ``SERVER_ERROR busy``
        #: immediately instead of queueing behind the lock
        self.admission = admission
        #: optional repro.obs.MetricsRegistry whose samples are exported
        #: through the ``stats metrics`` verb alongside the built-in
        #: ``rnb_cache_*`` families (docs/OBSERVABILITY.md)
        self.metrics = metrics
        self._items: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._cas_counter = 0
        self._lock = threading.Lock()
        # stats counters (names follow memcached's stats output)
        self.stats = {
            "cmd_get": 0,
            "cmd_set": 0,
            "get_hits": 0,
            "get_misses": 0,
            "delete_hits": 0,
            "delete_misses": 0,
            "cas_hits": 0,
            "cas_misses": 0,
            "cas_badval": 0,
            "evictions": 0,
            "expired": 0,
            "total_transactions": 0,
            "busy_rejections": 0,
        }

    # -- storage internals ----------------------------------------------------

    def _evict_for(self, incoming: int) -> None:
        """Drop least-recently-used entries until ``incoming`` more bytes fit
        (a bounded store only, and ``incoming`` no larger than its capacity)."""
        while self._items and self._bytes + incoming > self.capacity_bytes:
            _, entry = self._items.popitem(last=False)
            self._bytes -= entry.size
            self.stats["evictions"] += 1

    def _expiry(self, exptime: int) -> float | None:
        """Translate memcached exptime: 0 = never, <= 30 days = relative
        seconds, larger = absolute unix timestamp."""
        if exptime == 0:
            return None
        if exptime <= RELATIVE_EXPTIME_LIMIT:
            return self.clock() + exptime
        return float(exptime)

    def _get_live(self, key: str) -> "_Entry | None":
        """Fetch an entry, lazily dropping it if its TTL has passed."""
        entry = self._items.get(key)
        if entry is None:
            return None
        if entry.expires_at is not None and self.clock() >= entry.expires_at:
            del self._items[key]
            self._bytes -= entry.size
            self.stats["expired"] += 1
            return None
        return entry

    def _too_large(self, size: int) -> bool:
        """Whether a value of ``size`` bytes could never fit this store."""
        return self.capacity_bytes is not None and size > self.capacity_bytes

    def _store(self, key: str, flags: int, data: bytes, expires_at: float | None) -> None:
        """Put ``data`` under ``key``, evicting only when a bounded store is full;
        the caller has checked that it is not :meth:`_too_large`."""
        items = self._items
        old = items.pop(key, None)
        if old is not None:
            self._bytes -= len(old.data)
        size = len(data)
        capacity = self.capacity_bytes
        if capacity is not None and self._bytes + size > capacity:
            self._evict_for(size)
        cas = self._cas_counter = self._cas_counter + 1
        items[key] = _Entry(flags, data, cas, expires_at)
        self._bytes += size

    # -- command execution -------------------------------------------------------

    def execute(self, cmd: Command) -> bytes:
        """Execute one command and return its wire response (b'' for noreply).

        With an admission gate installed, ``get``/``gets`` transactions
        pass through it *before* taking the lock: the queue bound counts
        executions waiting on the lock and the token bucket rate-limits
        over ``clock`` time, so an overloaded server sheds with
        ``SERVER_ERROR busy`` (a retryable verdict — see
        :class:`repro.errors.ServerBusy`) instead of stalling the client.
        A retrieval runs here; every other verb in :meth:`_update`.
        """
        name = cmd.name
        retrieval = name == "get" or name == "gets"
        admission = self.admission if retrieval else None
        if admission is not None and not admission.try_admit(now=self.clock()):
            self.stats["busy_rejections"] += 1
            return codec.format_status("SERVER_ERROR busy")
        try:
            with self._lock:
                stats = self.stats
                stats["total_transactions"] += 1
                if not retrieval:
                    return self._update(cmd)
                # one pass, no call into this module per key (an entry with a TTL
                # excepted): every hit's VALUE block goes straight into the reply's
                # parts, joined once, so a payload is copied once; a plain get
                # formats an entry's header once, a gets each time (its cas).  An
                # unbounded store never evicts, so nothing reads its LRU order: a
                # hit moves it only in a bounded one
                lookup = self._items.get
                touch = None if self.capacity_bytes is None else self._items.move_to_end
                with_cas = name == "gets"
                parts: list[bytes] = []
                for key in cmd.keys:
                    entry = lookup(key)
                    if entry is not None and entry.expires_at is not None:
                        entry = self._get_live(key)
                    if entry is None:
                        continue
                    if touch is not None:
                        touch(key)
                    data = entry.data
                    if with_cas:
                        cas = entry.cas
                        header = f"VALUE {key} {entry.flags} {len(data)} {cas}\r\n".encode()
                    else:
                        header = entry.header
                        if header is None:
                            header = f"VALUE {key} {entry.flags} {len(data)}\r\n".encode()
                            entry.header = header
                    parts += (header, data, CRLF)
                hits = len(parts) // 3
                stats["cmd_get"] += 1
                stats["get_hits"] += hits
                stats["get_misses"] += len(cmd.keys) - hits
                parts.append(b"END\r\n")
                return b"".join(parts)
        finally:
            if admission is not None:
                admission.finished()

    def _update(self, cmd: Command) -> bytes:
        """Every verb but ``get``/``gets``, under the lock :meth:`execute` holds."""
        name = cmd.name
        key = cmd.keys[0] if cmd.keys else None
        if name == "set":
            data = cmd.data
            capacity = self.capacity_bytes
            if capacity is not None and len(data) > capacity:
                # memcached refuses it without evicting, and drops the stale value
                old = self._items.pop(key, None)
                if old is not None:
                    self._bytes -= old.size
                return b"" if cmd.noreply else TOO_LARGE
            self.stats["cmd_set"] += 1
            exptime = cmd.exptime
            self._store(key, cmd.flags, data, self._expiry(exptime) if exptime else None)
            return b"" if cmd.noreply else STORED
        if name in ("add", "replace", "cas"):
            if self._too_large(len(cmd.data)):
                return b"" if cmd.noreply else TOO_LARGE
            entry = self._get_live(key)
            if name == "cas":
                if entry is None:
                    self.stats["cas_misses"] += 1
                    return b"" if cmd.noreply else codec.format_status("NOT_FOUND")
                if entry.cas != cmd.cas:
                    self.stats["cas_badval"] += 1
                    return b"" if cmd.noreply else codec.format_status("EXISTS")
                self.stats["cas_hits"] += 1
            else:
                self.stats["cmd_set"] += 1
                if (name == "add") == (entry is not None):  # add wants absent, replace present
                    return b"" if cmd.noreply else NOT_STORED
            exptime = cmd.exptime
            self._store(key, cmd.flags, cmd.data, self._expiry(exptime) if exptime else None)
            return b"" if cmd.noreply else STORED
        if name in ("append", "prepend"):
            self.stats["cmd_set"] += 1
            entry = self._get_live(key)
            if entry is None:
                return b"" if cmd.noreply else NOT_STORED
            data = entry.data + cmd.data if name == "append" else cmd.data + entry.data
            if self._too_large(len(data)):
                return b"" if cmd.noreply else NOT_STORED  # the old value stays
            # concatenation keeps memcached's semantics: flags and expiry unchanged
            self._store(key, entry.flags, data, entry.expires_at)
            return b"" if cmd.noreply else STORED
        if name in ("incr", "decr"):
            # both numbers are memcached's uint64: a delta outside it (a negative
            # one stands for a field that is no numeral) is refused before the
            # lookup, a stored one reads as non-numeric
            if not 0 <= cmd.delta <= _U64:
                return b"" if cmd.noreply else BAD_DELTA
            entry = self._get_live(key)
            if entry is None:
                return b"" if cmd.noreply else codec.format_status("NOT_FOUND")
            digits = _COUNTER(entry.data)
            current = int(digits[1]) if digits is not None else -1
            if not 0 <= current <= _U64:
                return b"" if cmd.noreply else NON_NUMERIC
            if name == "incr":
                new = (current + cmd.delta) & _U64  # wraps like memcached's uint64
            else:
                new = max(0, current - cmd.delta)  # memcached clamps decr at 0
            data = str(new).encode("ascii")
            if self._too_large(len(data)):
                return b"" if cmd.noreply else codec.format_status("SERVER_ERROR out of memory")
            self._store(key, entry.flags, data, entry.expires_at)
            return b"" if cmd.noreply else data + CRLF
        if name == "touch":
            entry = self._get_live(key)
            if entry is None:
                status = "NOT_FOUND"
            else:
                entry.expires_at = self._expiry(cmd.exptime)
                self._items.move_to_end(key)
                status = "TOUCHED"
            return b"" if cmd.noreply else codec.format_status(status)
        if name == "delete":
            entry = self._get_live(key)
            if entry is not None:
                del self._items[key]
                self._bytes -= entry.size
                self.stats["delete_hits"] += 1
                status = "DELETED"
            else:
                self.stats["delete_misses"] += 1
                status = "NOT_FOUND"
            return b"" if cmd.noreply else codec.format_status(status)
        if name == "flush_all":
            self._items.clear()
            self._bytes = 0
            return codec.format_status("OK")
        if name == "stats":
            if cmd.keys and cmd.keys[0] == "metrics":
                # Prometheus-style samples over STAT lines: sample names
                # (`family{label="v"}`) contain no spaces, so they round-
                # trip the `STAT <key> <value>` format unchanged
                return codec.format_stats(
                    {k: format_value(v) for k, v in self._metrics_samples_locked()}
                )
            if cmd.keys:
                return codec.format_status(
                    f"CLIENT_ERROR unknown stats argument {cmd.keys[0]!r}"
                )
            snapshot: dict[str, object] = dict(self.stats)
            snapshot["curr_items"] = len(self._items)
            snapshot["bytes"] = self._bytes
            return codec.format_stats(snapshot)
        if name == "version":
            return codec.format_status("VERSION repro-rnb 1.0")
        raise ProtocolError(f"unsupported command {name!r}")

    def handle(self, data: bytes) -> bytes:
        """Parse and execute pipelined request bytes; returns response bytes."""
        commands, tail = codec.parse_command_stream(data)
        if tail:
            raise ProtocolError("trailing bytes: incomplete command in request")
        out = bytearray()
        for cmd in commands:
            out += self.execute(cmd)
        return bytes(out)

    # -- introspection -------------------------------------------------------------

    def _metrics_samples_locked(self) -> list[tuple[str, float]]:
        """The server's telemetry as flat ``(sample_name, value)`` pairs.

        Every ``stats`` counter becomes an ``rnb_cache_<name>_total``
        counter sample plus two gauges for live occupancy; when a
        :class:`repro.obs.MetricsRegistry` is attached, its samples
        follow.  Caller must hold ``_lock`` (or be single-threaded).
        """
        reg = MetricsRegistry()
        for key in sorted(self.stats):
            reg.counter(
                f"rnb_cache_{key}_total", "memcached-compatible cache counter",
                server=self.name,
            ).inc(float(self.stats[key]))
        reg.gauge(
            "rnb_cache_curr_items", "items currently stored", server=self.name
        ).set(float(len(self._items)))
        reg.gauge(
            "rnb_cache_bytes", "bytes currently stored", server=self.name
        ).set(float(self._bytes))
        out = obs_samples(reg)
        if self.metrics is not None:
            out.extend(obs_samples(self.metrics))
        return out

    def metrics_samples(self) -> list[tuple[str, float]]:
        """Thread-safe :meth:`_metrics_samples_locked` (the scrape API)."""
        with self._lock:
            return self._metrics_samples_locked()

    @property
    def curr_items(self) -> int:
        return len(self._items)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __contains__(self, key: str) -> bool:
        return key in self._items

