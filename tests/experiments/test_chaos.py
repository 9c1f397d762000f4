"""Chaos soak: acceptance criteria of the self-healing loop."""

from __future__ import annotations

from repro.experiments import chaos

TINY = dict(
    n_servers=8,
    replication=3,
    n_items=400,
    request_size=12,
    n_kills=2,
    n_joins=1,
    repair_rate=80,
    scale=1.0,
)


def run_tiny(seed):
    (result,) = chaos.run(seed=seed, **TINY)
    return result


class TestAcceptance:
    def test_single_failure_availability_is_one_at_r_ge_2(self):
        result = run_tiny(11)
        assert result.meta["availability_min"] == 1.0
        assert all(a == 1.0 for a in result.series["availability"])

    def test_full_replication_restored_within_horizon(self):
        result = run_tiny(11)
        assert result.meta["final_pending_repair"] == 0
        for event in result.meta["events"]:
            assert event["time_to_full_r"] is not None
            # the throttle bounds each batch's drain time
            assert (
                event["time_to_full_r"]
                <= event["repair_items"] / TINY["repair_rate"] + 2
            )

    def test_membership_actually_reacted(self):
        result = run_tiny(11)
        kinds = [e["kind"] for e in result.meta["events"]]
        assert "remove" in kinds and "recover" in kinds and "join" in kinds
        assert result.meta["final_epoch"] == len(result.meta["events"])
        assert result.meta["membership_commits"] >= 1  # client verdicts drove it

    def test_tpr_settles_after_the_storm(self):
        result = run_tiny(11)
        before, after = result.meta["tpr_before"], result.meta["tpr_after"]
        assert after <= before * 1.5  # no permanent degradation
