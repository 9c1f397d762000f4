"""Write chaos: quorum writes under kills must converge, deterministically."""

from __future__ import annotations

from repro.experiments import write_chaos

TINY = dict(
    n_servers=8,
    replication=3,
    n_items=120,
    n_writes=400,
    n_kills=2,
    read_sample=60,
    scale=1.0,
)


#: 11, plus the two seeds ``test_soaks.py`` gates the ``rnb run`` files at
SEEDS = (11, 2014, 7)


def run_tiny(seed, **overrides):
    (result,) = write_chaos.run(seed=seed, **{**TINY, **overrides})
    return result


def metas(**overrides):
    return [run_tiny(seed, **overrides).meta for seed in SEEDS]


class TestAcceptance:
    def test_kills_happen_mid_burst_and_seed_divergence(self):
        for meta in metas():
            kills = [e for e in meta["schedule"] if e[1] == "kill"]
            assert len(kills) == TINY["n_kills"]
            assert all(0 < at < TINY["n_writes"] for at, _, _ in kills)
            assert meta["writes_partial"] > 0
            assert meta["divergent_before_repair"] > 0

    def test_majority_quorum_survives_the_kills(self):
        for meta in metas():
            # two kills, R=3: each write still reaches a majority
            assert meta["writes_failed"] == 0
            assert meta["writes_committed"] + meta["writes_partial"] == TINY["n_writes"]

    def test_converges_to_zero_divergent_keys(self):
        for meta in metas():
            assert meta["divergent_after_scrub"] == 0
            assert meta["converged"] is True
            # read-repair alone does not finish the job — the scrubber
            # must have had real work (the unread tail)
            assert meta["scrub_repairs"] > 0

    def test_read_repair_is_throttled_through_the_executor(self):
        for meta in metas():
            if meta["repairs_queued"]:
                assert meta["repair_drain_ticks"] >= 1

    def test_p99_overhead_reported(self):
        for meta in metas():
            assert meta["best_effort_p99"] > 0
            assert meta["quorum_p99"] > 0
            assert meta["quorum_p99_overhead"] == (
                meta["quorum_p99"] / meta["best_effort_p99"]
            )
            # waiting on every replica is never cheaper than a majority
            assert meta["all_replicas_p99"] >= meta["quorum_p99"]

    def test_w_all_flags_failures_instead_of_partials(self):
        for meta in metas(w="all"):
            assert meta["w_resolved"] == TINY["replication"]
            # with a server down, W=all writes cannot commit
            assert meta["writes_failed"] > 0
            assert meta["converged"] is True


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a, b = run_tiny(23), run_tiny(23)
        assert a.series == b.series
        assert a.meta["determinism_token"] == b.meta["determinism_token"]
        assert a.meta["metrics_token"] == b.meta["metrics_token"]
        assert a.meta["schedule"] == b.meta["schedule"]

    def test_different_seed_different_run(self):
        a, b = run_tiny(23), run_tiny(24)
        assert a.meta["determinism_token"] != b.meta["determinism_token"]
        assert a.meta["schedule"] != b.meta["schedule"]
