"""Tests for the core value types."""

from __future__ import annotations

import pytest

from repro.types import (
    ClusterStats,
    FetchPlan,
    FetchResult,
    ReplicaSet,
    Request,
    Transaction,
)


class TestRequest:
    def test_distinct_items_enforced(self):
        with pytest.raises(ValueError):
            Request(items=(1, 1, 2))

    def test_size(self):
        assert Request(items=(1, 2, 3)).size == 3

    def test_limit_fraction_validation(self):
        with pytest.raises(ValueError):
            Request(items=(1,), limit_fraction=0.0)
        with pytest.raises(ValueError):
            Request(items=(1,), limit_fraction=1.5)

    def test_required_items_full(self):
        assert Request(items=(1, 2, 3)).required_items == 3

    @pytest.mark.parametrize(
        "n,frac,expected",
        [
            (4, 0.5, 2),
            (3, 0.5, 2),  # ceil(1.5)
            (10, 0.9, 9),
            (10, 0.95, 10),  # ceil(9.5)
            (5, 1.0, 5),
            (3, 0.01, 1),  # never zero
            (20, 0.9, 18),
        ],
    )
    def test_required_items_limit(self, n, frac, expected):
        req = Request(items=tuple(range(n)), limit_fraction=frac)
        assert req.required_items == expected

    @pytest.mark.parametrize("frac", [0.01, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.9, 0.95, 1.0])
    def test_required_items_is_the_guarded_ceiling(self, frac):
        import math  # the expression as it read with the import inside the property

        for n in range(0, 70):
            want = max(1, min(n, math.ceil(frac * n - 1e-9)))
            assert Request(items=tuple(range(n)), limit_fraction=frac).required_items == want

    def test_empty_request_allowed(self):
        assert Request(items=()).size == 0


class TestTransaction:
    def test_n_items(self):
        t = Transaction(server=1, primary=(1, 2), hitchhikers=(3,))
        assert t.n_items == 3


class TestFetchPlan:
    def test_servers_and_planned(self):
        plan = FetchPlan(
            request=Request(items=(1, 2, 3)),
            transactions=(
                Transaction(server=0, primary=(1, 2)),
                Transaction(server=3, primary=(3,)),
            ),
        )
        assert plan.n_transactions == 2
        assert plan.servers == (0, 3)
        assert plan.planned_items() == {1, 2, 3}


class TestReplicaSet:
    def test_distinct_servers_enforced(self):
        with pytest.raises(ValueError):
            ReplicaSet(item=1, servers=(0, 0))

    def test_nonempty_enforced(self):
        with pytest.raises(ValueError):
            ReplicaSet(item=1, servers=())

    def test_distinguished_is_first(self):
        rs = ReplicaSet(item=1, servers=(4, 2, 7))
        assert rs.distinguished == 4
        assert rs.replication == 3


class TestClusterStats:
    def make_result(self, txns=2, items=5, sizes=(3, 2), servers=(0, 1)):
        return FetchResult(
            request=Request(items=tuple(range(items))),
            transactions=txns,
            items_fetched=items,
            items_transferred=items,
            misses=1,
            second_round_transactions=0,
            servers_contacted=servers,
            txn_sizes=sizes,
        )

    def test_record_and_tpr(self):
        stats = ClusterStats()
        stats.record(self.make_result(txns=2))
        stats.record(self.make_result(txns=4))
        assert stats.requests == 2
        assert stats.tpr == 3.0

    def test_tprps(self):
        stats = ClusterStats()
        stats.record(self.make_result(txns=4))
        assert stats.tprps(8) == 0.5
        with pytest.raises(ValueError):
            stats.tprps(0)

    def test_empty_tpr(self):
        assert ClusterStats().tpr == 0.0
        assert ClusterStats().miss_rate == 0.0

    def test_histograms_accumulate(self):
        stats = ClusterStats()
        stats.record(self.make_result(sizes=(3, 2)))
        stats.record(self.make_result(sizes=(3,)))
        assert stats.txn_size_histogram == {3: 2, 2: 1}

    def test_per_server_counts(self):
        stats = ClusterStats()
        stats.record(self.make_result(servers=(0, 1)))
        stats.record(self.make_result(servers=(1, 2)))
        assert stats.per_server_transactions == {0: 1, 1: 2, 2: 1}

    def test_miss_rate(self):
        stats = ClusterStats()
        stats.record(self.make_result(items=9))  # 1 miss, 9 fetched
        assert stats.miss_rate == pytest.approx(0.1)
