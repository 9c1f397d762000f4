"""Spans at the layer boundaries, recorded from outside ``src/``.

The proxies below wrap the objects the serving stack already accepts
through its constructors — ``AsyncRnBClient(connections=…, bundler=…)``,
``AsyncMemcachedClient(pool)``, ``AsyncMemcachedServer(backend)`` — so a
traced fleet runs the unchanged ``src/`` code with a recorder at each
boundary::

    request ─┬─ plan                      core.bundling
             └─ txn ── exchange ── execute
                aio.memclient  aio.transport  protocol.memserver

The span of one op and everything under it share the op's id through a
context variable (``asyncio`` copies the context into the tasks the
client spawns per transaction).  The server front runs in its own task,
so an ``execute`` span is paired with its ``exchange`` afterwards: with
one pipelined connection per server, the k-th command a backend executes
answers the k-th exchange sent to it.

A layer's self time is its span minus the union of its children's
intervals (:func:`self_time`).
"""

from __future__ import annotations

import contextvars
import json
from array import array
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter_ns

#: the span (its row number in the :class:`Recorder`) that causes whatever runs next
_CURRENT = contextvars.ContextVar("bench_span", default=-1)

REQUEST, PLAN, TXN, EXCHANGE, EXECUTE = "request", "plan", "txn", "exchange", "execute"

CAPTURE_COMMANDS = 4000
CAPTURE_BYTES = 32 << 20


class Recorder:
    """In-memory span log, one column per field.

    Columns of plain integers, not an object per span: a traced run keeps
    hundreds of thousands of spans alive, and that many container objects
    would have the cyclic garbage collector walking them in the middle of
    the requests being timed.  :meth:`rows` gives the row view
    ``[name, parent, server, start_ns, end_ns(, kind)]`` the arithmetic
    below works on.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._name: list[str] = []
        self._parent = array("q")
        self._server = array("q")
        self._start = array("q")
        self._end = array("q")
        self._kind: dict[int, str] = {}
        #: ``(start_ns, speed factor)`` of each traced slice, in order: what
        #: turns a span's nanoseconds into reference time (``reference.py``)
        self.slices: list[tuple[int, float]] = []
        #: the first commands / request bytes / response bytes that cross
        #: the proxies while ``capturing``, kept for the isolated replay in
        #: ``layers.py`` (bounded in count and in bytes)
        self.capturing = False
        self.commands: list = []
        self.requests: list[bytes] = []
        self.responses: list[bytes] = []
        self._captured_bytes = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.peak_in_flight = 0

    def open(self, name: str, parent: int, server: int = -1) -> int:
        self._name.append(name)
        self._parent.append(parent)
        self._server.append(server)
        self._start.append(perf_counter_ns())
        self._end.append(0)
        return len(self._name) - 1

    def close(self, span: int) -> None:
        self._end[span] = perf_counter_ns()

    def request(self, kind: str) -> "_RequestScope":
        """``with recorder.request("read"):`` around one client call."""
        return _RequestScope(self, kind)

    def wants_capture(self) -> bool:
        return (
            self.capturing
            and len(self.commands) < CAPTURE_COMMANDS
            and self._captured_bytes < CAPTURE_BYTES
        )

    def capture(self, cmd, response: bytes) -> None:
        self.commands.append(cmd)
        self.responses.append(response)
        self._captured_bytes += len(response)

    def reset(self) -> None:
        """Forget spans and counts (after a warm-up); keep what was captured."""
        captured = self.commands, self.requests, self.responses
        self.__init__()
        self.commands, self.requests, self.responses = captured

    def rows(self) -> list[list]:
        rows = [
            list(row)
            for row in zip(self._name, self._parent, self._server, self._start, self._end)
        ]
        for span, kind in self._kind.items():
            rows[span].append(kind)
        return rows


class _RequestScope:
    def __init__(self, recorder: Recorder, kind: str) -> None:
        self.recorder = recorder
        self.kind = kind

    def __enter__(self):
        rec = self.recorder
        self.span = rec.open(REQUEST, -1)
        rec._kind[self.span] = self.kind
        self.token = _CURRENT.set(self.span)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.span)
        _CURRENT.reset(self.token)


# -- proxies ---------------------------------------------------------------


class BundlerProxy:
    """``Bundler`` with a span around :meth:`plan` (``bundler=`` argument)."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._rec = recorder
        self.placer = inner.placer  # the client checks identity with its own

    def plan(self, request, *, exclude=None):
        rec = self._rec
        if not rec.enabled:
            return self._inner.plan(request, exclude=exclude)
        span = rec.open(PLAN, _CURRENT.get())
        try:
            return self._inner.plan(request, exclude=exclude)
        finally:
            rec.close(span)


class MemClientProxy:
    """``AsyncMemcachedClient`` with a ``txn`` span per call
    (``connections=`` argument)."""

    def __init__(self, inner, recorder: Recorder, server: int) -> None:
        self._inner = inner
        self._rec = recorder
        self._server = server

    async def _spanned(self, call, *args, **kwargs):
        rec = self._rec
        if not rec.enabled:
            return await call(*args, **kwargs)
        span = rec.open(TXN, _CURRENT.get(), self._server)
        token = _CURRENT.set(span)
        try:
            return await call(*args, **kwargs)
        finally:
            rec.close(span)
            _CURRENT.reset(token)

    def get_multi(self, keys, **kwargs):
        return self._spanned(self._inner.get_multi, keys, **kwargs)

    def get(self, key):
        return self._spanned(self._inner.get, key)

    def set(self, key, value, **kwargs):
        return self._spanned(self._inner.set, key, value, **kwargs)

    def close(self) -> None:
        self._inner.close()


class PoolProxy:
    """``AsyncConnectionPool`` with an ``exchange`` span per round trip
    (``AsyncMemcachedClient(transport)`` argument)."""

    def __init__(self, inner, recorder: Recorder, server: int) -> None:
        self._inner = inner
        self._rec = recorder
        self._server = server

    async def exchange(self, request: bytes, n_responses: int = 1):
        rec = self._rec
        if not rec.enabled:
            return await self._inner.exchange(request, n_responses)
        rec.bytes_out += len(request)
        if rec.wants_capture():
            rec.requests.append(request)
        # one connection (pool size 1): its depth once this exchange is
        # queued is what the server's batch loop will find waiting
        conns = self._inner.connections
        if conns and conns[0].in_flight >= rec.peak_in_flight:
            rec.peak_in_flight = conns[0].in_flight + 1
        span = rec.open(EXCHANGE, _CURRENT.get(), self._server)
        try:
            return await self._inner.exchange(request, n_responses)
        finally:
            rec.close(span)

    def close(self) -> None:
        self._inner.close()


class BackendProxy:
    """``MemcachedServer`` with an ``execute`` span per command
    (``AsyncMemcachedServer(backend)`` argument)."""

    def __init__(self, inner, recorder: Recorder, server: int) -> None:
        self._inner = inner
        self._rec = recorder
        self._server = server

    def execute(self, cmd) -> bytes:
        rec = self._rec
        if not rec.enabled:
            return self._inner.execute(cmd)
        span = rec.open(EXECUTE, -1, self._server)
        out = self._inner.execute(cmd)
        rec.close(span)
        rec.bytes_in += len(out)
        if rec.wants_capture():
            rec.capture(cmd, out)
        return out


# -- arithmetic ------------------------------------------------------------


def union_length(intervals, lo: int, hi: int) -> int:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            covered += end - start
            edge = end
    return covered


def self_time(span, children) -> int:
    """``span``'s duration minus what its children's intervals cover."""
    lo, hi = span[3], span[4]
    return (hi - lo) - union_length([(c[3], c[4]) for c in children], lo, hi)


def link_executes(spans: list[list]) -> bool:
    """Give every ``execute`` span its ``exchange`` parent (FIFO per server).

    Returns False if the two sides disagree on how many commands crossed
    a connection — then the pairing, and the trace, cannot be trusted.
    """
    exchanges: dict[int, list[int]] = defaultdict(list)
    executes: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[0] == EXCHANGE:
            exchanges[span[2]].append(idx)
        elif span[0] == EXECUTE:
            executes[span[2]].append(idx)
    consistent = True
    for server, execs in executes.items():
        sent = exchanges.get(server, [])
        if len(sent) != len(execs):
            consistent = False
        for ex, parent in zip(execs, sent):
            spans[ex][1] = parent
    return consistent and set(exchanges) == set(executes)


def attribute(spans: list[list], slices=()) -> dict:
    """Per-layer self times of a finished trace.

    ``slices`` — ``(start_ns, speed factor)`` per traced slice — scales
    every request by the speed of the machine while it ran, so the sums
    are in reference time; without it they are wall time.

    Returns, per request kind (``read`` / ``write``), the op and
    transaction counts, the summed request span, the self times summed
    over the transactions (``memclient`` / ``transport`` / ``execute``),
    and the *share* of the request span each layer holds
    (``share_ns``): the request's own self time, its plan, and the union
    of its concurrent transactions — what it actually waited for — split
    between ``memclient`` / ``transport`` / ``memserver`` in proportion
    to those summed self times.  The shares of one request add up to its
    span.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(idx)

    def kids(idx: int) -> list[list]:
        return [spans[c] for c in children.get(idx, ())]

    starts = [began for began, _ in slices]
    out: dict[str, dict] = {}
    for idx, span in enumerate(spans):
        if span[0] != REQUEST:
            continue
        f = slices[max(bisect_right(starts, span[3]) - 1, 0)][1] if slices else 1
        acc = out.setdefault(
            span[5],
            {
                "ops": 0, "txns": 0, "request_ns": 0, "memclient_self_ns": 0,
                "transport_self_ns": 0, "execute_ns": 0, "straggler_sum": 0.0,
                "share_ns": dict.fromkeys(
                    ("rnbclient", "plan", "memclient", "transport", "memserver"), 0.0
                ),
            },
        )
        under = kids(idx)  # plan and txn spans
        txns = [c for c in children.get(idx, ()) if spans[c][0] == TXN]
        duration = span[4] - span[3]
        own = self_time(span, under)
        plan_ns = sum(s[4] - s[3] for s in under if s[0] == PLAN)
        mem = wire = exe = 0
        durations = []
        for t in txns:
            exchanges = kids(t)
            mem += self_time(spans[t], exchanges)
            for x in children.get(t, ()):
                executes = kids(x)
                wire += self_time(spans[x], executes)
                exe += sum(e[4] - e[3] for e in executes)
            durations.append(spans[t][4] - spans[t][3])
        duration, own, plan_ns, mem, wire, exe = (
            v * f for v in (duration, own, plan_ns, mem, wire, exe)
        )
        acc["ops"] += 1
        acc["txns"] += len(txns)
        acc["request_ns"] += duration
        acc["memclient_self_ns"] += mem
        acc["transport_self_ns"] += wire
        acc["execute_ns"] += exe
        if durations:
            acc["straggler_sum"] += max(durations) * len(durations) / sum(durations)
        waited = duration - own - plan_ns  # the union of the txn spans
        below = mem + wire + exe
        share = acc["share_ns"]
        share["rnbclient"] += own
        share["plan"] += plan_ns
        if below:
            share["memclient"] += waited * mem / below
            share["transport"] += waited * wire / below
            share["memserver"] += waited * exe / below
    return out


def write_jsonl(spans: list[list], path, max_requests: int = 2000) -> None:
    """Dump the first ``max_requests`` requests' span trees, one span a line;
    every line carries the id of the request it belongs to."""
    root: dict[int, int] = {}
    requests = 0
    with open(path, "w") as fh:
        for idx, span in enumerate(spans):
            if span[0] == REQUEST:
                requests += 1
                if requests > max_requests:
                    break
                root[idx] = idx
            elif span[1] in root:  # a parent always precedes its children
                root[idx] = root[span[1]]
            else:
                continue
            record = {
                "request": root[idx], "id": idx, "parent": span[1], "name": span[0],
                "server": span[2], "start_ns": span[3], "end_ns": span[4],
            }
            if span[0] == REQUEST:
                record["kind"] = span[5]
            fh.write(json.dumps(record) + "\n")
