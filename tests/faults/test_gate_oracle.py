"""The one fault gate against the two-layer composition it replaced (``_oracle.py``).

``FaultInjector`` checks link cuts from its vantage, then crashed or
killed servers, then busy ones, then draws the plan's transient timeout;
the composition did the same through an outer partition layer and an
inner node injector.  Random sequences of every call that moves the
gate — clock, kills, busy marks, cuts, heals, vantage switches and
checks — must leave both where each other is: the same verdict per
access, the same counters, the same dead set and the same reachability.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerDown
from repro.faults.injector import FaultInjector
from repro.faults.partition import CLIENT, PartitionPlan
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import MetricsRegistry

from tests.faults import _oracle

N_SERVERS = 4
#: the client endpoints the vantage moves between
CLIENTS = (CLIENT, -2)
ENDPOINTS = (*CLIENTS, *range(N_SERVERS))
#: the node counters, beside the clock and the two cut counters
NODE_COUNTERS = ("down_rejections", "busy_rejections", "timeouts_injected")
NODE_EDITS = ("kill", "restore", "set_busy", "clear_busy")

#: ``(call, a, b)``: servers and endpoints are taken modulo their counts
ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["check", "check", "check", "check", "advance", "kill", "restore",
             "set_busy", "clear_busy", "one_way", "split", "flap", "heal", "vantage"]
        ),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=10,
    max_size=60,
)
plans = st.one_of(
    st.none(),
    st.builds(
        lambda crash, timeout, horizon, seed: FaultPlan(
            N_SERVERS,
            FaultConfig(crash_rate=crash, timeout_rate=timeout, horizon=horizon, seed=seed),
        ),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.3, 0.7]),
        st.integers(1, 12),
        st.integers(0, 5),
    ),
)


def verdict(gate, server):
    try:
        gate.check(server)
    except Exception as exc:  # noqa: BLE001 - the exception type is the verdict
        return type(exc)
    return None


def apply(gate, links, op) -> object:
    """Run one call on ``gate`` (whose cuts are ``links``); its observable result."""
    call, a, b = op
    server = a % N_SERVERS
    if call == "check":
        return verdict(gate, server)
    if call == "advance":
        gate.advance(1 + b % 3)
    elif call in NODE_EDITS:  # the composition's inner layer holds them
        getattr(getattr(gate, "inner", gate), call)(server)
    elif call == "one_way":
        links.one_way((ENDPOINTS[a % len(ENDPOINTS)],), (ENDPOINTS[b % len(ENDPOINTS)],),
                      start=gate.tick, end=gate.tick + 1 + b)
    elif call == "split":
        side = {server, CLIENTS[b % 2]}
        links.symmetric_split(side, set(ENDPOINTS) - side, start=gate.tick)
    elif call == "flap":
        links.flapping_link(None, (server,), period=2 + b, start=gate.tick)
    elif call == "heal":
        links.heal(gate.tick if b % 2 else None)
    elif call == "vantage":
        gate.vantage = CLIENTS[b % 2]
    return None


def observe(gate) -> tuple:
    """Counters (the composition's node counters are its inner layer's; a
    plan-driven one has no busy count), dead set and every reachability."""
    inner = getattr(gate, "inner", gate)
    counters = (gate.tick, gate.blocked_requests, gate.blocked_replies)
    counters += tuple(getattr(inner, name, 0) for name in NODE_COUNTERS)
    reach = tuple(gate.can_reach(src, dst) for src in ENDPOINTS for dst in range(N_SERVERS))
    return counters, gate.crashed_now(), reach


def run_both(plan, sequence, gate_cls=FaultInjector):
    """Drive the one gate and the composition through ``sequence``; assert they
    agree after every call, and on the metrics both bound."""
    spec_links = PartitionPlan()
    gate = gate_cls(plan)
    links = gate.partitions
    spec = _oracle.composition(plan, spec_links)
    registries = MetricsRegistry(), MetricsRegistry()
    gate.bind_metrics(registries[0])
    spec.bind_metrics(registries[1])
    if plan is not None:
        sequence = [op for op in sequence if op[0] not in NODE_EDITS]
    for step, op in enumerate(sequence):
        assert apply(gate, links, op) == apply(spec, spec_links, op), (step, op)
        assert observe(gate) == observe(spec), (step, op)
    assert registries[0].snapshot() == registries[1].snapshot()


@settings(max_examples=400, deadline=None)
@given(plan=plans, sequence=ops)
def test_the_one_gate_matches_the_composition(plan, sequence):
    run_both(plan, sequence)


def test_a_plan_crashed_server_is_not_reachable():
    plan = FaultPlan(N_SERVERS, FaultConfig(crash_rate=1.0, horizon=1))
    gate = FaultInjector(plan)
    gate.advance(5)
    with pytest.raises(ServerDown):
        gate.check(0)
    assert not gate.can_reach(CLIENT, 0)
    run_both(plan, [("advance", 0, 4), ("check", 0, 0)])


class CountsCutAttempts(FaultInjector):
    """Mutant: a cut access takes an attempt number from the plan's draws."""

    def check(self, server: int) -> None:
        links, tick = self.partitions, self.tick
        vantage = self.vantage
        if links.blocked(vantage, server, tick) or links.blocked(server, vantage, tick):
            self._attempts[server] += 1
        super().check(server)


def test_a_gate_that_counts_an_attempt_on_a_cut_access_fails():
    # a tick whose first and second timeout draws differ: a cut access then
    # a healed one in the same tick draws the second where it should the first
    plan = FaultPlan(N_SERVERS, FaultConfig(timeout_rate=0.5, seed=3))
    tick = next(t for t in range(100) if plan.is_timeout(0, t, 0) != plan.is_timeout(0, t, 1))
    # ``advance`` moves 1 + b % 3 ticks: walk there three or one at a time
    sequence = [("advance", 0, 2)] * (tick // 3) + [("advance", 0, 0)] * (tick % 3) + [
        ("one_way", 0, 2),  # CLIENT -> server 0, cut from this tick on
        ("check", 0, 0),
        ("heal", 0, 1),  # closed at this tick: the next access goes through
        ("check", 0, 0),
    ]
    run_both(plan, sequence)
    with pytest.raises(AssertionError):
        run_both(plan, sequence, CountsCutAttempts)
