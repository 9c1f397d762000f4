"""Tests for the Bundler: cover plans, single-item rule, hitchhiking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacer
from repro.core import bundling
from repro.core.bundling import Bundler
from repro.errors import CoverError
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.membership import EpochedPlacer
from repro.perf.table import PlacementTable
from repro.types import ReplicaSet, Request


class FixedPlacer:
    """Explicit item->servers table for precise assertions."""

    def __init__(self, table, n_servers):
        self.table = table
        self.n_servers = n_servers
        self.replication = max(len(v) for v in table.values())

    def servers_for(self, item):
        return self.table[item]

    def replicas_for(self, item):
        return ReplicaSet(item=item, servers=self.table[item])

    def distinguished_for(self, item):
        return self.table[item][0]


class TestPlanBasics:
    def test_empty_request(self):
        placer = RangedConsistentHashPlacer(4, 2)
        plan = Bundler(placer).plan(Request(items=()))
        assert plan.transactions == ()

    def test_plan_covers_all_items(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        bundler = Bundler(placer)
        request = Request(items=tuple(range(40)))
        plan = bundler.plan(request)
        assert plan.planned_items() == set(range(40))

    def test_each_item_planned_once(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(40))))
        all_primary = [i for t in plan.transactions for i in t.primary]
        assert len(all_primary) == len(set(all_primary))

    def test_items_assigned_to_replica_servers(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, single_item_rule=False).plan(
            Request(items=tuple(range(30)))
        )
        for txn in plan.transactions:
            for item in txn.primary:
                assert txn.server in placer.servers_for(item)

    def test_one_transaction_per_server(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(50))))
        servers = [t.server for t in plan.transactions]
        assert len(servers) == len(set(servers))

    def test_fewer_transactions_with_more_replicas(self):
        r1 = RangedConsistentHashPlacer(16, 1, vnodes=32)
        r4 = RangedConsistentHashPlacer(16, 4, vnodes=32)
        items = tuple(range(100, 160))
        n1 = Bundler(r1).plan(Request(items=items)).n_transactions
        n4 = Bundler(r4).plan(Request(items=items)).n_transactions
        assert n4 < n1

    def test_deterministic_plans(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        b = Bundler(placer)
        req = Request(items=tuple(range(25)))
        assert b.plan(req) == b.plan(req)


class TestSingleItemRule:
    def test_singleton_moves_to_distinguished(self):
        # item 0 can be fetched from server 2 (bundled with nothing) but
        # its distinguished copy is on server 9
        table = {
            0: (9, 2),
            1: (1, 3),
            2: (1, 4),
        }
        placer = FixedPlacer(table, 10)
        plan = Bundler(placer, single_item_rule=True).plan(Request(items=(0, 1, 2)))
        by_server = {t.server: t.primary for t in plan.transactions}
        assert by_server[1] == (1, 2)
        assert by_server.get(9) == (0,)

    def test_singletons_rebundle_on_shared_distinguished(self):
        table = {
            0: (5, 1),
            1: (5, 2),
            2: (3, 4),
            3: (3, 4),
        }
        placer = FixedPlacer(table, 6)
        plan = Bundler(placer, single_item_rule=True).plan(
            Request(items=(0, 1, 2, 3))
        )
        by_server = {t.server: set(t.primary) for t in plan.transactions}
        # 2,3 bundle on 3; 0,1 are singletons rebundled on distinguished 5
        assert by_server[3] == {2, 3}
        assert by_server[5] == {0, 1}
        assert plan.n_transactions == 2

    def test_rule_off_keeps_greedy_pick(self):
        table = {0: (9, 2), 1: (1, 3), 2: (1, 4)}
        placer = FixedPlacer(table, 10)
        plan = Bundler(placer, single_item_rule=False).plan(Request(items=(0, 1, 2)))
        servers = {t.server for t in plan.transactions}
        assert 9 not in servers  # greedy never picked the distinguished


class TestHitchhiking:
    def test_hitchhikers_have_replica_on_server(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=tuple(range(40))))
        for txn in plan.transactions:
            for item in txn.hitchhikers:
                assert txn.server in placer.servers_for(item)

    def test_hitchhikers_disjoint_from_primary(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=tuple(range(40))))
        for txn in plan.transactions:
            assert not set(txn.primary) & set(txn.hitchhikers)

    def test_hitchhikers_only_requested_items(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        items = tuple(range(40))
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=items))
        for txn in plan.transactions:
            assert set(txn.hitchhikers) <= set(items)

    def test_no_hitchhikers_by_default(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(40))))
        assert all(t.hitchhikers == () for t in plan.transactions)

    def test_every_eligible_hitchhiker_included(self):
        """Every (requested item, chosen server) replica pair appears as
        primary or hitchhiker — maximal piggybacking."""
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        items = tuple(range(30))
        plan = Bundler(placer, hitchhiking=True, single_item_rule=False).plan(
            Request(items=items)
        )
        for txn in plan.transactions:
            carried = set(txn.primary) | set(txn.hitchhikers)
            for item in items:
                if txn.server in placer.servers_for(item):
                    assert item in carried


def _hitchhikers_oracle(server, primary_idxs, items, replica_sets):
    """The per-transaction definition ``Bundler`` used to apply: requested
    items with a replica on ``server`` not already assigned to it, in
    request order — one scan of the request per transaction."""
    primary_set = set(primary_idxs)
    out = []
    for idx, servers in enumerate(replica_sets):
        if idx in primary_set:
            continue
        if server in servers:
            out.append(items[idx])
    return tuple(out)


_HH_PLACERS = {
    "rch": RangedConsistentHashPlacer(16, 3, vnodes=32),
    "random": RandomPlacer(12, 4, seed=3),
    "table": PlacementTable.compile(RandomPlacer(8, 2, seed=5), 200),
}


@given(
    st.sampled_from(sorted(_HH_PLACERS)),
    st.lists(st.lists(st.integers(0, 199), max_size=40, unique=True), max_size=6),
    st.booleans(),
    st.sets(st.integers(0, 7), max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_hitchhikers_match_the_per_transaction_definition(
    placer_name, item_lists, single_item_rule, exclude
):
    """``plan`` — and ``plan_batch`` without exclusions — with hitchhiking,
    with and without the single-item rule, carries on every transaction
    exactly the hitchhikers the per-transaction scan gives it."""
    placer = _HH_PLACERS[placer_name]
    bundler = Bundler(placer, hitchhiking=True, single_item_rule=single_item_rule)
    requests = [Request(items=tuple(items)) for items in item_lists]
    plans = [bundler.plan(r, exclude=exclude or None) for r in requests]
    if not exclude:
        assert bundler.plan_batch(requests) == plans
    for request, plan in zip(requests, plans):
        items = request.items
        replica_sets = [placer.servers_for(item) for item in items]
        for txn in plan.transactions:
            primary_idxs = [items.index(item) for item in txn.primary]
            assert txn.hitchhikers == _hitchhikers_oracle(
                txn.server, primary_idxs, items, replica_sets
            )


class TestLimitPlans:
    def test_limit_plan_covers_required_only(self):
        placer = RangedConsistentHashPlacer(16, 2, vnodes=32)
        request = Request(items=tuple(range(40)), limit_fraction=0.5)
        plan = Bundler(placer, single_item_rule=False).plan(request)
        planned = len(plan.planned_items())
        assert planned == request.required_items == 20

    def test_limit_uses_fewer_transactions(self):
        placer = RangedConsistentHashPlacer(16, 2, vnodes=32)
        items = tuple(range(40))
        full = Bundler(placer).plan(Request(items=items))
        half = Bundler(placer).plan(Request(items=items, limit_fraction=0.5))
        assert half.n_transactions < full.n_transactions

    def test_random_tie_break_requires_rng(self):
        placer = RangedConsistentHashPlacer(4, 2)
        bundler = Bundler(placer, tie_break="random")  # no rng
        with pytest.raises(ValueError):
            bundler.plan(Request(items=(1, 2, 3)))


class TestPackedMemo:
    """The per-epoch memo of packed replica rows behind ``plan``."""

    REQUEST = Request(items=tuple(f"key{i}" for i in range(40)))

    def test_a_new_epoch_is_planned_afresh(self):
        placer = EpochedPlacer("rch", 6, 3, seed=2013)
        bundler = Bundler(placer)
        first = bundler.plan(self.REQUEST)
        victim = first.transactions[0].server
        placer.install_view(placer.view.without(victim))
        after_loss = bundler.plan(self.REQUEST)
        assert after_loss == Bundler(placer).plan(self.REQUEST)
        assert victim not in after_loss.servers
        # a joining id past 64 widens every row to nine bytes; the keys it
        # takes over were memoised without it
        placer.install_view(placer.view.with_join(70))
        taken = tuple(k for k in self.REQUEST.items if 70 in placer.servers_for(k))
        moved = Request(items=taken)
        after_join = bundler.plan(moved)
        assert after_join == Bundler(placer).plan(moved)
        assert 70 in after_join.servers

    def test_a_full_memo_is_cleared_and_refilled(self, monkeypatch):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        monkeypatch.setattr(bundling, "_MEMO_LIMIT", 50)
        bundler = Bundler(placer)
        requests = [Request(items=tuple(range(lo, lo + 30))) for lo in (0, 30, 60, 0)]
        for request in requests:
            assert bundler.plan(request) == Bundler(placer).plan(request)
            assert len(bundler._rows) <= 50

    def test_an_item_without_replicas_raises_as_before(self):
        placer = FixedPlacer({"a": (0, 1), "b": (1, 2), "orphan": ()}, 3)
        bundler = Bundler(placer)
        assert bundler.plan(Request(items=("a", "b"))).servers == (1,)
        with pytest.raises(CoverError, match="infeasible"):
            bundler.plan(Request(items=("a", "orphan")))
