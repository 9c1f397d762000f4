"""Partition chaos: split-brain safety gates and seeded determinism."""

from __future__ import annotations

from repro.experiments import partition_chaos
from repro.experiments.registry import EXPERIMENTS

# default 10/3 topology, scaled down: the majority must keep quorum even
# after its own victim crashes (6 reachable of 10 members >= 10//2+1)
TINY = dict(
    n_servers=10,
    replication=3,
    minority_size=3,
    n_items=600,
    n_steps=300,
    repair_rate=200,
    scrub_buckets=32,
    window=25,
    scale=0.3,
)


#: the two seeds ``test_soaks.py`` gates the ``rnb run`` files at
SEEDS = (7, 2014)


def run_tiny(seed, **overrides):
    (result,) = partition_chaos.run(seed=seed, **{**TINY, **overrides})
    return result


def metas():
    return [run_tiny(seed).meta for seed in SEEDS]


class TestSplit:
    def test_seeded_disjoint_split(self):
        majority, minority = partition_chaos.make_split(7, 10, 3)
        assert len(minority) == 3
        assert set(majority) | set(minority) == set(range(10))
        assert not set(majority) & set(minority)
        assert (majority, minority) == partition_chaos.make_split(7, 10, 3)
        assert (majority, minority) != partition_chaos.make_split(8, 10, 3)


class TestAcceptance:
    def test_safety_gates(self):
        for meta in metas():
            assert meta["violations"] == 0
            assert meta["consistent"] is True
            assert meta["violations_rendered"] == ""
            assert meta["divergent_after_scrub"] == 0
            assert meta["minority_epoch_commits"] == 0

    def test_minority_tried_and_was_refused(self):
        for meta in metas():
            assert meta["quorum_rejections"] > 0
            assert meta["noquorum_raised"] >= 1
            assert meta["writes_rejected"] > 0
            assert meta["epoch_min_at_heal"] == 0

    def test_partition_actually_bit(self):
        for meta in metas():
            assert meta["blocked_requests"] > 0
            assert meta["divergent_before_scrub"] > 0

    def test_majority_made_progress(self):
        for meta in metas():
            assert meta["writes_committed"] > 0
            assert meta["removal_committed"] is True
            # removal during the split + recovery after heal
            assert meta["final_epoch"] >= 2
            assert meta["victim"] in meta["majority"]

    def test_history_covers_the_whole_keyspace(self):
        for meta in metas():
            assert meta["history_final_reads"] >= meta["n_items"]
            assert meta["history_writes_acked"] > meta["n_items"] // 2


def test_registered():
    assert EXPERIMENTS["partition_chaos"] is partition_chaos.run
