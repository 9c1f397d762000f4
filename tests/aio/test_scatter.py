"""The client's one fan-out primitive: inline and cold path agree, and the
inline path costs no Task and a fixed number of loop callbacks per wave."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.aio.rnbclient import AsyncRnBClient
from repro.errors import ProtocolError
from repro.faults.health import HealthTracker
from repro.obs.tracing import Tracer
from repro.overload.breaker import BreakerBoard
from repro.overload.load import AdmissionControl
from repro.protocol.rnbclient import CUT as _CUT
from repro.types import Request

from tests.aio.test_rnbclient import (
    ITEMS,
    N_SERVERS,
    PATHS,
    CoroutineOnly,
    _Cluster,
    _HeldFleet,
    counting,
    run,
)


def always_busy():
    gate = AdmissionControl(queue_limit=1)
    gate.outstanding = 1  # permanently full: every get sheds BUSY
    return gate


def cut_once():
    """A link gate that drops the first request it sees, unanswered."""
    state = {"armed": False}

    def gate() -> bool:
        cut, state["armed"] = state["armed"], False
        return cut

    return gate, state


def health_counts(health: HealthTracker) -> list[tuple[int, int]]:
    return [(h.total_errors, h.total_successes) for h in health.snapshot().values()]


async def drive(cluster: _Cluster, seed: int = 11) -> list:
    """A seeded request list through every public fan-out."""
    rng = random.Random(seed)
    keys = sorted(ITEMS)
    seen = []
    for _ in range(10):
        seen.append(await cluster.client.get_multi(rng.sample(keys, rng.randint(1, 20))))
    seen.append(await cluster.client.get_multi(["no-such-key", *keys[:4]]))
    # a malformed key is the caller's error on either path: raised before a byte
    # is sent, and no server takes a health strike or a breaker failure for it
    client = cluster.client
    booked = health_counts(client.health), client.breakers.tripped()
    for bad in ("no such key", "bad key\r\n"):
        with pytest.raises(ProtocolError):
            await client.get_multi([keys[0], bad, *keys[1:4]])
    assert (health_counts(client.health), client.breakers.tripped()) == booked
    for key in rng.sample(keys, 3):
        seen.append(await cluster.client.set_versioned(key, b"rewritten"))
        seen.append(await cluster.client.get_versioned(key))
    for call in (
        cluster.client.set("plain", b"1"),
        cluster.client.get("plain"),
        cluster.client.delete("plain"),
        cluster.client.get("plain"),
    ):
        try:
            seen.append(await call)
        except (OSError, ProtocolError) as exc:  # replicas down or shedding
            seen.append(type(exc))
    return seen


class TestParity:
    """Plain memclients (inline) and coroutine-only wrappers (cold) are two
    routes through one algorithm: same outcomes, same accounting."""

    @staticmethod
    def both_paths(kill=None, **cluster_kwargs):
        async def scenario(wrap):
            health = HealthTracker(N_SERVERS)
            breakers = BreakerBoard(N_SERVERS, seed=3)
            async with _Cluster(
                wrap=wrap, health=health, breakers=breakers, **cluster_kwargs
            ) as c:
                c.preload(ITEMS)
                await c.warm()
                if kill is not None:
                    await c.kill(kill)
                seen = await drive(c)
                return seen, health_counts(health), c.client.busy_sheds

        inline = run(scenario(None))
        cold = run(scenario(CoroutineOnly))
        return inline, cold

    def test_healthy_fleet(self):
        inline, cold = self.both_paths()
        assert inline == cold
        assert not any(errors for errors, _ in inline[1])  # drive's bad keys struck nobody
        reads = inline[0][:10]
        assert all(not o.missing and not o.retries and not o.failed_servers for o in reads)

    def test_one_server_down(self):
        inline, cold = self.both_paths(kill=1)
        assert inline == cold
        assert any(1 in o.failed_servers for o in inline[0][:10])
        assert all(not o.missing for o in inline[0][:10])  # replicas covered for it

    def test_every_get_shed_busy(self):
        inline, cold = self.both_paths(admission=always_busy)
        assert inline == cold
        seen, _, busy_sheds = inline
        assert busy_sheds == sum(o.busy_sheds for o in seen[:11]) > 0


class TestFirstAttemptFailure:
    @PATHS
    def test_socket_killed_mid_wave_retries_on_the_parents_schedule(self, wrap):
        # the request is on the wire when server 2 drops the connection
        # unanswered: attempt 0 fails, the retry reconnects and succeeds.
        # The numbers are the parent commit's (one Task per transaction).
        async def scenario():
            gates = [cut_once() for _ in range(N_SERVERS)]
            health = HealthTracker(N_SERVERS)
            async with _Cluster(
                wrap=wrap,
                gates={s: g for s, (g, _) in enumerate(gates)},
                health=health,
                pool_size=1,
            ) as c:
                c.preload(ITEMS)
                await c.warm()
                planned = c.client.bundler.plan(Request(items=tuple(sorted(ITEMS))))
                served = [txn.server for txn in planned.transactions]
                victim = served[-1]
                gates[victim][1]["armed"] = True
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert outcome.retries == 1
                assert outcome.failed_servers == ()
                assert outcome.transactions == len(served)
                assert outcome.second_round_transactions == 0
                assert c.client.busy_sheds == 0
                assert health_counts(health) == [
                    (int(s == victim), int(s in served)) for s in range(N_SERVERS)
                ]
                assert c.servers[victim].connections_refused == 1

        run(scenario())

    @PATHS
    def test_busy_first_attempt_is_retried_then_counted_once(self, wrap):
        async def scenario():
            health = HealthTracker(N_SERVERS)
            async with _Cluster(wrap=wrap, admission=always_busy, health=health) as c:
                c.preload(ITEMS)
                await c.warm()
                keys = sorted(ITEMS)[:8]
                outcome = await c.client.get_multi(keys)
                assert set(outcome.missing) == set(keys)
                # pinned at the parent commit: every server is tried once (4
                # first-round transactions, R=2 leaves no untried replica
                # after the repair wave), each sheds on all 3 attempts
                assert (outcome.retries, outcome.busy_sheds) == (8, 4)
                assert c.client.busy_sheds == 4
                assert sum(errors for errors, _ in health_counts(health)) == 8

        run(scenario())


def plan_of(cluster: _Cluster, n_txns: int) -> list[str]:
    """Keys whose bundle plan has exactly ``n_txns`` transactions."""
    keys = sorted(ITEMS)
    for size in range(1, len(keys) + 1):
        plan = cluster.client.bundler.plan(Request(items=tuple(keys[:size])))
        if len(plan.transactions) == n_txns:
            return keys[:size]
    raise AssertionError(f"no prefix of the items plans to {n_txns} transactions")


class TestBudget:
    def test_warm_healthy_requests_spawn_no_task_and_wake_once_per_wave(self):
        async def scenario():
            async with _Cluster(n_servers=16, pool_size=1) as c:
                c.preload(ITEMS)
                await c.warm()
                loop = asyncio.get_running_loop()
                soon = {}
                for n_txns in (2, 8):
                    keys = plan_of(c, n_txns)
                    with counting(loop, "create_task") as tasks:
                        with counting(loop, "call_soon") as callbacks:
                            outcome = await c.client.get_multi(keys, deadline=5.0)
                    assert outcome.transactions == n_txns and not outcome.missing
                    assert tasks[0] == 0
                    soon[n_txns] = callbacks[0]
                # one future, one wakeup: not a callback per transaction
                assert soon[2] == soon[8] <= 2
                with counting(loop, "create_task") as tasks:
                    written = await c.client.set_versioned("m001", b"v2", w="all")
                    read = await c.client.get_versioned("m001")
                assert written.outcome == "committed" and read.payload == b"v2"
                assert tasks[0] == 0

        run(scenario())

    def test_concurrent_deadlines_share_one_loop_timer(self):
        # ``deadline=`` is ONE timer per client, not one per wave: 200 requests
        # in flight at once arm O(1) loop timers (a timer each before)
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                await c.warm()  # every socket's read watchdog is armed from here on
                keys = sorted(ITEMS)
                with counting(asyncio.get_running_loop(), "call_at") as armed:
                    outcomes = await asyncio.gather(
                        *(c.client.get_multi(keys[i % 50 : i % 50 + 8], deadline=5.0)
                          for i in range(200))
                    )
                assert all(len(o.values) == 8 and not o.deadline_hit for o in outcomes)
                assert armed[0] <= 2

        run(scenario())


class TestDeadlineWatcher:
    """The client's one deadline timer: each wave is cut at its own deadline,
    whatever else is registered, and finished waves leave nothing behind."""

    @PATHS
    def test_waves_registered_latest_first_are_each_cut_on_time(self, wrap):
        async def scenario():
            async with _HeldFleet(wrap=wrap) as fleet:
                fleet.release.clear()  # nobody answers before both deadlines
                loop = asyncio.get_running_loop()
                keys = sorted(ITEMS)

                async def timed(keys, deadline):
                    started = loop.time()
                    outcome = await fleet.client.get_multi(keys, deadline=deadline)
                    return outcome, loop.time() - started

                (roomy, roomy_s), (tight, tight_s) = await asyncio.gather(
                    timed(keys, 0.4), timed(keys[:6], 0.05)  # the later deadline first
                )
                assert tight.deadline_hit and set(tight.missing) == set(keys[:6])
                assert roomy.deadline_hit and set(roomy.missing) == set(keys)
                assert 0.05 <= tight_s < 0.3  # not at the armed timer's 0.4 s
                assert 0.4 <= roomy_s < 0.8
                # the late answers are consumed and dropped; the sockets stay good
                fleet.release.set()
                outcome = await fleet.client.get_multi(keys[:9], deadline=5.0)
                assert outcome.values == {k: ITEMS[k] for k in keys[:9]}
                assert not outcome.deadline_hit
                for pool in fleet.pools:
                    assert all(c.connected and c.in_flight == 0 for c in pool.connections)

        run(scenario())

    def test_finished_waves_do_not_pile_up(self):
        # the heap holds the live waves plus those that finished behind an
        # unfinished head: with no stalled head, finished waves leave at once
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                await c.warm()
                keys = sorted(ITEMS)
                with counting(asyncio.get_running_loop(), "call_at") as armed:
                    for _ in range(10):
                        await asyncio.gather(
                            *(c.client.get_multi(keys[:4], deadline=5.0) for _ in range(100))
                        )
                    await c.client.get_multi(keys[:4], deadline=5.0)
                assert len(c.client._deadlines) <= 2
                assert armed[0] <= 2

        run(scenario())

    def test_a_cancelled_wave_leaves_nothing_that_fires_later(self):
        async def scenario():
            async with _HeldFleet() as fleet:
                fleet.release.clear()
                loop = asyncio.get_running_loop()
                errors = []
                loop.set_exception_handler(lambda loop, context: errors.append(context))
                doomed = asyncio.ensure_future(
                    fleet.client.get_multi(sorted(ITEMS), deadline=0.05)
                )
                await asyncio.sleep(0.01)
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                await asyncio.sleep(0.1)  # past its deadline: the timer found it done
                assert errors == []
                assert fleet.client._deadlines == []
                assert fleet.client._deadline_timer is None
                fleet.release.set()
                outcome = await fleet.client.get_multi(sorted(ITEMS)[:9], deadline=5.0)
                assert outcome.values == {k: ITEMS[k] for k in sorted(ITEMS)[:9]}

        run(scenario())

    def test_a_timer_of_a_closed_loop_is_not_trusted(self):
        # a client that outlives an asyncio.run: the handle it armed there will
        # never fire, so a later deadline on a new loop needs a timer of its own
        class Mute:
            def begin(self, op, args, sink) -> bool:
                return True  # on the wire, never answered

        client = AsyncRnBClient({s: Mute() for s in range(N_SERVERS)}, _Cluster().placer)

        async def wave(deadline: float):
            at = asyncio.get_running_loop().time() + deadline
            return await asyncio.wait_for(client._scatter([(0, "get", ("k",))], at), 2.0)

        async def abandoned():
            task = asyncio.ensure_future(wave(0.01))
            await asyncio.sleep(0)
            task.cancel()

        run(abandoned())
        [result] = run(wave(0.05))
        assert result is _CUT


class TestColdPathTriggers:
    def test_unconnected_pool_connects_in_a_task_then_goes_inline(self):
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                loop = asyncio.get_running_loop()
                with counting(loop, "create_task") as tasks:
                    assert (await c.client.get_multi(sorted(ITEMS))).values == ITEMS
                assert tasks[0] >= N_SERVERS  # lazy connect: every call went cold
                with counting(loop, "create_task") as tasks:
                    assert (await c.client.get_multi(sorted(ITEMS))).values == ITEMS
                assert tasks[0] == 0

        run(scenario())

    def test_paused_connection_waits_for_the_send_buffer(self):
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                await c.warm()
                conns = [conn for pool in c.pools for conn in pool.connections]
                for conn in conns:
                    conn.pause_writing()  # what the loop says over the high-water mark
                request = asyncio.ensure_future(c.client.get_multi(sorted(ITEMS)))
                await asyncio.sleep(0.05)
                assert not request.done()
                assert all(conn.in_flight == 0 for conn in conns)  # nothing was written
                for conn in conns:
                    conn.resume_writing()
                assert (await request).values == ITEMS

        run(scenario())

    def test_a_forwarding_wrappers_own_coroutine_is_not_bypassed(self):
        # a wrapper that overrides one coroutine and forwards every other
        # attribute (bench/test_bench.py's tamper) also forwards ``begin``:
        # the client must still run the override, not the wrapped halves
        class Redact:
            def __init__(self, inner):
                self.inner = inner

            async def get_multi(self, keys, **kwargs):
                return dict.fromkeys(await self.inner.get_multi(keys, **kwargs), b"redacted")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        async def scenario():
            async with _Cluster(wrap=Redact, write_back=False) as c:
                c.preload(ITEMS)
                await c.warm()
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == dict.fromkeys(ITEMS, b"redacted")
                await c.client.set("solo", b"payload")  # forwarded ops still work
                assert await c.client.get("solo") == b"payload"

        run(scenario())

    def test_submit_declines_instead_of_queueing(self):
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                sink = asyncio.get_running_loop().create_future()
                assert not c.pools[0].submit(b"get k\r\n", 1, sink)  # not connected
                await c.warm()
                [conn] = c.pools[0].connections
                conn.pause_writing()
                assert not conn.submit(b"get k\r\n", 1, sink)  # over the high-water mark
                conn.resume_writing()
                assert conn.submit(b"get k\r\n", 1, sink) and conn.in_flight == 1
                [resp] = await sink
                assert resp.status == "END" and conn.in_flight == 0

        run(scenario())


class TestTxnSpans:
    @staticmethod
    def txn_outcomes(tracer: Tracer) -> list[str]:
        return [
            span.attrs.get("outcome")
            for root in tracer.roots
            for span in root.children
            if span.name == "txn" and span.end is not None
        ]

    @PATHS
    def test_one_finished_span_per_transaction(self, wrap):
        async def scenario():
            tracer = Tracer()
            async with _Cluster(wrap=wrap, tracer=tracer, retry_policy=None) as c:
                c.preload(ITEMS)
                await c.warm()
                outcome = await c.client.get_multi(sorted(ITEMS))
                first = self.txn_outcomes(tracer)
                assert first == ["ok"] * outcome.transactions
                planned = c.client.bundler.plan(Request(items=tuple(sorted(ITEMS))))
                await c.kill(planned.transactions[0].server)
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert not outcome.missing
                spans = self.txn_outcomes(tracer)[len(first) :]
                assert sorted(spans) == ["error"] + ["ok"] * outcome.transactions

        run(scenario())

    @PATHS
    def test_shed_transactions_are_marked_busy(self, wrap):
        async def scenario():
            tracer = Tracer()
            async with _Cluster(wrap=wrap, tracer=tracer, admission=always_busy) as c:
                c.preload(ITEMS)
                await c.warm()
                outcome = await c.client.get_multi(sorted(ITEMS)[:8])
                assert self.txn_outcomes(tracer) == ["busy"] * outcome.busy_sheds

        run(scenario())
