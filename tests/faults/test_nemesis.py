"""Nemesis timelines: seeded composition of node and link faults."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ServerBusy, ServerUnreachable
from repro.faults.injector import FaultInjector
from repro.faults.nemesis import (
    LINK_ACTIONS,
    NODE_ACTIONS,
    Nemesis,
    NemesisEvent,
    make_nemesis_schedule,
)
from repro.faults.partition import CLIENT
from repro.obs import MetricsRegistry


class TestSchedule:
    def test_deterministic_per_seed(self):
        a = make_nemesis_schedule(5, 8, 200)
        assert a == make_nemesis_schedule(5, 8, 200)
        assert a != make_nemesis_schedule(6, 8, 200)

    def test_sorted_and_inside_horizon(self):
        schedule = make_nemesis_schedule(5, 8, 200, n_faults=6)
        ticks = [e.tick for e in schedule]
        assert ticks == sorted(ticks)
        assert all(0 <= t < 200 for t in ticks)

    def test_node_faults_are_paired_with_heals(self):
        schedule = make_nemesis_schedule(5, 8, 200, n_faults=8)
        opens = {"kill": "restore", "busy": "clear_busy"}
        for action, closer in opens.items():
            n_open = sum(1 for e in schedule if e.action == action)
            n_close = sum(1 for e in schedule if e.action == closer)
            assert n_open == n_close

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_nemesis_schedule(1, 1, 200)
        with pytest.raises(ConfigurationError):
            make_nemesis_schedule(1, 8, 10)
        with pytest.raises(ConfigurationError):
            make_nemesis_schedule(1, 8, 200, kinds=("meteor",))

    def test_slow_is_not_a_kind(self):
        # a simulated server has no slow fault: nothing would read it
        with pytest.raises(ConfigurationError, match="slow"):
            make_nemesis_schedule(1, 8, 200, kinds=("slow",))


class TestNemesis:
    def equipment(self):
        gate = FaultInjector()
        return gate, gate.partitions

    def test_one_gate_takes_node_and_link_actions(self):
        gate, plan = self.equipment()
        Nemesis([NemesisEvent(0, "kill", 1), NemesisEvent(0, "cut", ((2,), 5))], gate).apply(0)
        assert gate.down == {1} and len(plan.rules) == 2
        with pytest.raises(ServerUnreachable):
            gate.check(2)

    def test_applies_due_events_once(self):
        gate, plan = self.equipment()
        schedule = [
            NemesisEvent(2, "kill", 1),
            NemesisEvent(4, "busy", 2),
            NemesisEvent(6, "restore", 1),
        ]
        nemesis = Nemesis(schedule, gate)
        assert nemesis.pending() == 3
        assert [e.action for e in nemesis.apply(4)] == ["kill", "busy"]
        assert 1 in gate.down and 2 in gate.busy
        assert nemesis.apply(4) == []  # idempotent at the same tick
        nemesis.apply(6)
        assert 1 not in gate.down
        assert nemesis.pending() == 0
        assert len(nemesis.applied) == 3

    def test_busy_action_sheds_accesses(self):
        gate, plan = self.equipment()
        nemesis = Nemesis([NemesisEvent(0, "busy", 3)], gate)
        nemesis.apply(0)
        with pytest.raises(ServerBusy):
            gate.check(3)
        Nemesis([NemesisEvent(1, "clear_busy", 3)], gate).apply(1)
        gate.check(3)

    def test_cut_and_heal_drive_the_plan(self):
        gate, plan = self.equipment()
        schedule = [
            NemesisEvent(0, "cut", ((0, 1), 50)),
            NemesisEvent(10, "heal", None),
        ]
        nemesis = Nemesis(schedule, gate)
        nemesis.apply(0)
        with pytest.raises(ServerUnreachable):
            gate.check(0)
        gate.advance(10)
        nemesis.apply(10)
        gate.check(0)

    def test_flap_installs_both_directions(self):
        gate, plan = self.equipment()
        nemesis = Nemesis([NemesisEvent(0, "flap", ((2,), 100, 8, 0.5))], gate)
        nemesis.apply(0)
        assert plan.blocked(CLIENT, 2, 0)
        assert plan.blocked(2, CLIENT, 0)
        assert not plan.blocked(CLIENT, 2, 4)  # flap phase open

    def test_on_kill_and_on_restore_callbacks(self):
        gate, plan = self.equipment()
        seen = []
        nemesis = Nemesis(
            [NemesisEvent(0, "kill", 5), NemesisEvent(1, "restore", 5)],
            gate,
            on_kill=lambda sid: seen.append(("kill", sid)),
            on_restore=lambda sid: seen.append(("restore", sid)),
        )
        nemesis.apply(1)
        assert seen == [("kill", 5), ("restore", 5)]

    def test_metrics_count_applied_events(self):
        gate, plan = self.equipment()
        registry = MetricsRegistry()
        nemesis = Nemesis(
            [NemesisEvent(0, "kill", 1), NemesisEvent(2, "restore", 1)],
            gate,
            metrics=registry,
        )
        nemesis.apply(3)
        snap = registry.snapshot()["rnb_nemesis_events_total"]["series"]
        assert snap['kind="kill"'] == 1
        assert snap['kind="restore"'] == 1

    def test_full_generated_schedule_replays_cleanly(self):
        gate, plan = self.equipment()
        schedule = make_nemesis_schedule(9, 6, 120, n_faults=6)
        nemesis = Nemesis(schedule, gate)
        for tick in range(120):
            nemesis.apply(tick)
            gate.advance(1)
        assert nemesis.pending() == 0
        assert not gate.down and not gate.busy

    def test_actions_partition_cleanly(self):
        assert not (NODE_ACTIONS & LINK_ACTIONS)
