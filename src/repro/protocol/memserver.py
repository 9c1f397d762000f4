"""A memcached-compatible key-value server.

Complete enough to run RnB end-to-end: multi-key ``get``/``gets``,
``set``, ``cas``, ``delete``, ``flush_all`` and ``stats``, with
byte-accounted LRU eviction like the real memcached (items are dropped
least-recently-used when ``capacity_bytes`` is exceeded).

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
        if self.capacity_bytes is None:
            return
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

    def _store(self, key: str, flags: int, data: bytes, exptime: int = 0) -> None:
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old.size
        self._evict_for(len(data))
        if self.capacity_bytes is not None and len(data) > self.capacity_bytes:
            return  # oversized item: memcached refuses silently after evicting
        self._cas_counter += 1
        self._items[key] = _Entry(
            flags=flags,
            data=data,
            cas=self._cas_counter,
            expires_at=self._expiry(exptime),
        )
        self._bytes += len(data)

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
        if name == "set":
            self.stats["cmd_set"] += 1
            self._store(cmd.keys[0], cmd.flags, cmd.data, cmd.exptime)
            return b"" if cmd.noreply else codec.format_status("STORED")
        if name in ("add", "replace"):
            self.stats["cmd_set"] += 1
            exists = self._get_live(cmd.keys[0]) is not None
            ok = (name == "add") != exists  # add wants absent, replace present
            if ok:
                self._store(cmd.keys[0], cmd.flags, cmd.data, cmd.exptime)
            status = "STORED" if ok else "NOT_STORED"
            return b"" if cmd.noreply else codec.format_status(status)
        if name in ("append", "prepend"):
            self.stats["cmd_set"] += 1
            entry = self._get_live(cmd.keys[0])
            if entry is None:
                status = "NOT_STORED"
            else:
                data = (
                    entry.data + cmd.data if name == "append" else cmd.data + entry.data
                )
                # concatenation keeps the existing flags and TTL semantics of
                # memcached: flags unchanged, expiry preserved
                expires = entry.expires_at
                self._store(cmd.keys[0], entry.flags, data)
                if cmd.keys[0] in self._items:  # dropped only if oversized
                    self._items[cmd.keys[0]].expires_at = expires
                status = "STORED"
            return b"" if cmd.noreply else codec.format_status(status)
        if name in ("incr", "decr"):
            entry = self._get_live(cmd.keys[0])
            if entry is None:
                return b"" if cmd.noreply else codec.format_status("NOT_FOUND")
            try:
                current = int(entry.data.decode("ascii"))
                if current < 0:
                    raise ValueError
            except (ValueError, UnicodeDecodeError):
                return (
                    b""
                    if cmd.noreply
                    else codec.format_status(
                        "CLIENT_ERROR cannot increment or decrement "
                        "non-numeric value"
                    )
                )
            if name == "incr":
                new = current + cmd.delta
            else:
                new = max(0, current - cmd.delta)  # memcached clamps decr at 0
            expires = entry.expires_at
            self._store(cmd.keys[0], entry.flags, str(new).encode("ascii"))
            if cmd.keys[0] in self._items:
                self._items[cmd.keys[0]].expires_at = expires
            return b"" if cmd.noreply else codec.format_status(str(new))
        if name == "cas":
            entry = self._get_live(cmd.keys[0])
            if entry is None:
                self.stats["cas_misses"] += 1
                status = "NOT_FOUND"
            elif entry.cas != cmd.cas:
                self.stats["cas_badval"] += 1
                status = "EXISTS"
            else:
                self.stats["cas_hits"] += 1
                self._store(cmd.keys[0], cmd.flags, cmd.data, cmd.exptime)
                status = "STORED"
            return b"" if cmd.noreply else codec.format_status(status)
        if name == "touch":
            entry = self._get_live(cmd.keys[0])
            if entry is None:
                status = "NOT_FOUND"
            else:
                entry.expires_at = self._expiry(cmd.exptime)
                self._items.move_to_end(cmd.keys[0])
                status = "TOUCHED"
            return b"" if cmd.noreply else codec.format_status(status)
        if name == "delete":
            entry = self._get_live(cmd.keys[0])
            if entry is not None:
                del self._items[cmd.keys[0]]
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

