"""Link-level fault family: rules, plans, windows, and the gate's link cuts."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.placement import make_placer
from repro.errors import (
    ConfigurationError,
    ServerDown,
    ServerTimeout,
    ServerUnreachable,
)
from repro.faults.injector import FaultInjector
from repro.faults.partition import (
    CLIENT,
    LinkRule,
    PartitionPlan,
    link_blackout_windows,
)
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import MetricsRegistry


class TestLinkRule:
    def test_window_edges(self):
        rule = LinkRule(srcs=None, dsts=None, start=5, end=10)
        assert not rule.active(4)
        assert rule.active(5)
        assert rule.active(9)
        assert not rule.active(10)  # end is exclusive

    def test_open_ended(self):
        rule = LinkRule(srcs=None, dsts=None, start=3)
        assert rule.active(3) and rule.active(10_000)

    def test_endpoint_matching(self):
        rule = LinkRule(srcs=frozenset({CLIENT}), dsts=frozenset({1, 2}))
        assert rule.blocks(CLIENT, 1, 0)
        assert rule.blocks(CLIENT, 2, 0)
        assert not rule.blocks(CLIENT, 3, 0)
        assert not rule.blocks(1, CLIENT, 0)  # directed

    def test_none_matches_everything(self):
        rule = LinkRule(srcs=None, dsts=None)
        assert rule.blocks(-7, 123, 0)

    def test_flap_duty_cycle_is_pure_arithmetic(self):
        rule = LinkRule(srcs=None, dsts=None, start=10, period=10, duty=0.3)
        pattern = [rule.active(10 + t) for t in range(20)]
        # 3 blocked ticks per 10-tick period, phase-locked to start
        assert pattern == ([True] * 3 + [False] * 7) * 2
        # and identical when asked again (no hidden state)
        assert pattern == [rule.active(10 + t) for t in range(20)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkRule(srcs=None, dsts=None, start=5, end=4)
        with pytest.raises(ConfigurationError):
            LinkRule(srcs=None, dsts=None, period=1)
        with pytest.raises(ConfigurationError):
            LinkRule(srcs=None, dsts=None, duty=0.0)


class TestPartitionPlan:
    def test_symmetric_split_blocks_both_directions(self):
        plan = PartitionPlan()
        plan.symmetric_split((CLIENT, 0, 1), (2, 3), start=0)
        assert plan.blocked(CLIENT, 2, 0)
        assert plan.blocked(2, CLIENT, 0)
        assert plan.blocked(0, 3, 0)
        assert not plan.blocked(0, 1, 0)  # same side stays connected
        assert not plan.blocked(2, 3, 0)

    def test_split_validation(self):
        plan = PartitionPlan()
        with pytest.raises(ConfigurationError):
            plan.symmetric_split((), (1,))
        with pytest.raises(ConfigurationError):
            plan.symmetric_split((0, 1), (1, 2))

    def test_one_way_is_asymmetric(self):
        plan = PartitionPlan()
        plan.one_way((CLIENT,), (4,), start=0)
        assert plan.blocked(CLIENT, 4, 0)
        assert not plan.blocked(4, CLIENT, 0)

    def test_heal_closes_open_rules_but_keeps_history(self):
        plan = PartitionPlan()
        plan.symmetric_split((CLIENT,), (1,), start=2)
        assert plan.blocked(CLIENT, 1, 5)
        assert plan.heal(7) == 2  # both directed rules were open
        assert not plan.blocked(CLIENT, 1, 7)
        assert plan.blocked(CLIENT, 1, 5)  # the past still answers truthfully

    def test_heal_none_clears_everything(self):
        plan = PartitionPlan()
        plan.one_way(None, (1,), start=0)
        plan.heal()
        assert not plan.rules

    def test_heal_never_produces_invalid_rules(self):
        plan = PartitionPlan()
        plan.one_way((CLIENT,), (1,), start=50)  # scheduled in the future
        plan.heal(10)  # heal *before* the rule opens
        assert all(r.end is None or r.end >= r.start for r in plan.rules)
        assert not plan.blocked(CLIENT, 1, 60)

    def test_describe_fingerprint_is_deterministic(self):
        def build():
            plan = PartitionPlan()
            plan.symmetric_split((CLIENT, 0), (1, 2), start=3, end=9)
            plan.flapping_link((CLIENT,), (4,), period=6, duty=0.5, start=0)
            return plan

        assert build().describe() == build().describe()


class TestLinkBlackoutWindows:
    def test_deterministic_and_cross_seed_distinct(self):
        a = link_blackout_windows(7, 1000)
        assert a == link_blackout_windows(7, 1000)
        assert a != link_blackout_windows(8, 1000)

    def test_sorted_non_overlapping_within_horizon(self):
        windows = link_blackout_windows(3, 500, n_windows=4, min_len=10, max_len=50)
        assert windows == tuple(sorted(windows))
        for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            assert e1 < s2
        assert all(0 <= s < e <= 500 for s, e in windows)

    def test_small_horizon_yields_fewer_windows_not_errors(self):
        windows = link_blackout_windows(3, 30, n_windows=5, min_len=10, max_len=20)
        assert len(windows) <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            link_blackout_windows(1, 0)
        with pytest.raises(ConfigurationError):
            link_blackout_windows(1, 100, min_len=5, max_len=4)


class TestLinkGate:
    def make(self, *, plan=None, metrics=None):
        injector = FaultInjector(plan)
        if metrics is not None:
            injector.bind_metrics(metrics)
        return injector.partitions, injector

    def test_request_edge_cut_refuses_immediately(self):
        plan, injector = self.make()
        plan.one_way((CLIENT,), (2,), start=0)
        with pytest.raises(ServerUnreachable):
            injector.check(2)
        injector.check(3)  # other servers unaffected
        assert injector.blocked_requests == 1

    def test_reply_edge_cut_surfaces_as_timeout(self):
        plan, injector = self.make()
        plan.one_way((2,), (CLIENT,), start=0)
        with pytest.raises(ServerTimeout):
            injector.check(2)
        assert injector.blocked_replies == 1

    def test_rules_expire_with_the_clock(self):
        plan, injector = self.make()
        plan.one_way((CLIENT,), (1,), start=0, end=3)
        with pytest.raises(ServerUnreachable):
            injector.check(1)
        injector.advance(3)
        injector.check(1)  # the cut expired

    def test_node_faults_still_fire(self):
        plan, injector = self.make()
        injector.kill(4)
        with pytest.raises(ServerDown):
            injector.check(4)
        # a cut takes precedence over the node fault (checked first)
        plan.one_way((CLIENT,), (4,), start=0)
        with pytest.raises(ServerUnreachable):
            injector.check(4)

    def test_can_reach_is_round_trip_and_vantage_explicit(self):
        plan, injector = self.make()
        plan.one_way((5,), (-2,), start=0)  # only the reply path to -2
        assert injector.can_reach(CLIENT, 5)  # client -1 unaffected
        assert not injector.can_reach(-2, 5)  # round trip broken for -2
        injector.kill(3)
        assert not injector.can_reach(CLIENT, 3)  # dead is unreachable too

    def test_can_reach_sees_a_plan_driven_crash(self):
        # the seeded plan's crashes, not only the killed set
        _, injector = self.make(plan=FaultPlan(4, FaultConfig(crash_rate=1.0, horizon=1)))
        for _ in range(5):
            injector.advance()
        with pytest.raises(ServerDown):
            injector.check(0)
        assert not injector.can_reach(CLIENT, 0)

    def test_vantage_is_repointable(self):
        plan, injector = self.make()
        plan.symmetric_split((-1, 0), (-2, 1), start=0)
        injector.vantage = -1
        with pytest.raises(ServerUnreachable):
            injector.check(1)
        injector.vantage = -2
        injector.check(1)  # same side now
        with pytest.raises(ServerUnreachable):
            injector.check(0)

    def test_gates_cluster_access(self):
        placer = make_placer("rch", 4, 2, seed=0, vnodes=16)
        cluster = Cluster(placer, range(20), memory_factor=None)
        plan, injector = self.make()
        cluster.attach_injector(injector)
        plan.one_way((CLIENT,), (0,), start=0)
        with pytest.raises(ServerUnreachable):
            cluster.server(0)
        cluster.server(1)

    def test_metrics_families(self):
        registry = MetricsRegistry()
        plan, injector = self.make(metrics=registry)
        plan.one_way((CLIENT,), (1,), start=0)
        with pytest.raises(ServerUnreachable):
            injector.check(1)
        snap = registry.snapshot()
        assert "rnb_partition_blocked_total" in snap
        assert "rnb_partition_links_active" in snap
        series = snap["rnb_partition_links_active"]["series"]
        assert list(series.values()) == [1.0]
