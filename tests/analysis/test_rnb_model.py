"""Tests for the semi-analytic RnB TPR model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.rnb_model import (
    greedy_step_coverage,
    predicted_tpr,
    predicted_tpr_curve,
    required_replication,
)
from repro.analysis.urn import expected_tpr
from repro.sim.montecarlo import mc_tpr


class TestBoundaryCases:
    def test_full_replication_one_transaction(self):
        assert predicted_tpr(8, 50, 8) == 1.0

    def test_r1_matches_urn_exactly(self):
        for n, m in [(4, 10), (16, 40), (32, 5)]:
            assert predicted_tpr(n, m, 1) == pytest.approx(expected_tpr(n, m))

    def test_single_item(self):
        assert predicted_tpr(16, 1, 3) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_tpr(4, 10, 5)
        with pytest.raises(ValueError):
            predicted_tpr(4, 0, 2)


class TestAccuracy:
    @pytest.mark.parametrize(
        "n,m,r",
        [(8, 20, 2), (16, 40, 3), (16, 100, 4), (32, 40, 2), (32, 100, 5), (64, 40, 4)],
    )
    def test_within_15_percent_of_monte_carlo(self, n, m, r):
        pred = predicted_tpr(n, m, r)
        mc = mc_tpr(n, m, r, n_trials=400, seed=3).mean_tpr
        assert pred == pytest.approx(mc, rel=0.15)

    def test_mean_error_over_grid(self):
        """Documented accuracy: mean relative error < 10% across the grid."""
        errs = []
        for n in (8, 16, 32):
            for m in (10, 40, 100):
                for r in (2, 3, 4):
                    pred = predicted_tpr(n, m, r)
                    mc = mc_tpr(n, m, r, n_trials=250, seed=4).mean_tpr
                    errs.append(abs(pred - mc) / mc)
        assert float(np.mean(errs)) < 0.10


class TestMonotonicity:
    def test_decreasing_in_replication(self):
        tprs = [predicted_tpr(16, 40, r) for r in (1, 2, 3, 4, 5, 8)]
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))

    def test_increasing_in_request_size(self):
        tprs = [predicted_tpr(16, m, 3) for m in (5, 10, 20, 40, 80)]
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_curve_helper(self):
        curve = predicted_tpr_curve([8, 16, 32], 40, 3)
        assert len(curve) == 3
        assert all(a <= b for a, b in zip(curve, curve[1:]))


class TestStepCoverage:
    def test_zero_cases(self):
        assert greedy_step_coverage(0, 5, 0.5) == 0.0
        assert greedy_step_coverage(10, 0, 0.5) == 0.0

    def test_at_least_one(self):
        assert greedy_step_coverage(10, 8, 0.01) >= 1.0

    def test_p_one_covers_all(self):
        assert greedy_step_coverage(10, 3, 1.0) == 10.0


class TestPlanning:
    def test_required_replication_monotone_target(self):
        r_loose = required_replication(16, 40, target_tpr=10.0)
        r_tight = required_replication(16, 40, target_tpr=4.0)
        assert r_loose <= r_tight

    def test_unreachable_target(self):
        assert required_replication(16, 100, target_tpr=1.0, max_replication=2) is None

    def test_trivial_target(self):
        assert required_replication(16, 10, target_tpr=16.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            required_replication(16, 10, target_tpr=0.5)


class TestPinnedValues:
    """The module docstring's validation grid, pinned to literals generated
    once on the commit before the normal quantile moved to the standard
    library's ``NormalDist.inv_cdf``: the swap must not move the model."""

    # (n_servers, request_size, replication) -> predicted_tpr
    PREDICTED_TPR = {
        (8, 10, 2): 4.080802099212372,
        (8, 10, 3): 3.044591634019622,
        (8, 10, 4): 2.318262876218209,
        (8, 10, 5): 1.9147722798869453,
        (8, 40, 2): 6.037395495196547,
        (8, 40, 3): 4.409560130704276,
        (8, 40, 4): 3.460473707106642,
        (8, 40, 5): 2.8612873374906638,
        (8, 100, 2): 7.0,
        (8, 100, 3): 5.103531403062332,
        (8, 100, 4): 3.979293057274646,
        (8, 100, 5): 3.0344578088626504,
        (16, 10, 2): 5.584309963541368,
        (16, 10, 3): 4.425231330336402,
        (16, 10, 4): 3.6432267938635423,
        (16, 10, 5): 3.085610080269811,
        (16, 40, 2): 9.57081360890377,
        (16, 40, 3): 7.374870533720035,
        (16, 40, 4): 6.046894982391908,
        (16, 40, 5): 5.025505399340981,
        (16, 100, 2): 12.024948566828133,
        (16, 100, 3): 9.330144989512304,
        (16, 100, 4): 7.663310139984442,
        (16, 100, 5): 6.377956188283037,
        (32, 10, 2): 7.192892030874393,
        (32, 10, 3): 5.983632267039669,
        (32, 10, 4): 5.097712511067832,
        (32, 10, 5): 4.4822792869850385,
        (32, 40, 2): 14.071408750686802,
        (32, 40, 3): 11.142674079580697,
        (32, 40, 4): 9.380639414644966,
        (32, 40, 5): 8.094114623864241,
        (32, 100, 2): 19.23187733864222,
        (32, 100, 3): 15.15614826277569,
        (32, 100, 4): 12.595668420455388,
        (32, 100, 5): 10.831407457862134,
        (64, 10, 2): 8.767305640121233,
        (64, 10, 3): 7.581359184905239,
        (64, 10, 4): 6.709627281651192,
        (64, 10, 5): 6.058926123195894,
        (64, 40, 2): 19.51420953150595,
        (64, 40, 3): 15.859627032104264,
        (64, 40, 4): 13.51265250453469,
        (64, 40, 5): 11.894576794733753,
        (64, 100, 2): 28.79671097445027,
        (64, 100, 3): 22.98884702436066,
        (64, 100, 4): 19.389143262986426,
        (64, 100, 5): 16.893121877862047,
    }
    # (u, k) -> greedy_step_coverage(u, k, 3 / k)
    STEP_COVERAGE = {
        (10, 4): 8.652437336258023,
        (10, 8): 5.618716258830539,
        (10, 16): 3.8063044923241955,
        (10, 32): 2.6670195729041004,
        (10, 64): 1.9125540435245734,
        (10, 199): 1.1433043916438073,
        (40, 4): 32.30487467251605,
        (40, 8): 18.73743251766108,
        (40, 16): 11.362608984648391,
        (40, 32): 7.209039145808201,
        (40, 64): 4.762608087049147,
        (40, 199): 2.5881163209760567,
        (100, 4): 78.6443268431927,
        (100, 8): 43.409399678493244,
        (100, 16): 24.857321051059635,
        (100, 32): 14.844221108218594,
        (100, 64): 9.253209272498532,
        (100, 199): 4.646258349507554,
    }
    # (n_servers, request_size) -> required_replication for targets 2, 4, 8
    REQUIRED_REPLICATION = {
        (8, 10): (5, 3, 1),
        (8, 40): (6, 4, 1),
        (8, 100): (7, 4, 1),
        (16, 10): (8, 4, 1),
        (16, 40): (12, 7, 3),
        (16, 100): (13, 9, 4),
        (32, 10): (14, 7, 2),
        (32, 40): (22, 12, 6),
        (32, 100): (25, 16, 8),
        (64, 10): (25, 11, 3),
        (64, 40): (41, 22, 10),
        (64, 100): (49, 30, 15),
    }

    def test_predicted_tpr(self):
        for (n, m, r), pinned in self.PREDICTED_TPR.items():
            assert predicted_tpr(n, m, r) == pytest.approx(pinned, rel=1e-12), (n, m, r)

    def test_greedy_step_coverage(self):
        for (u, k), pinned in self.STEP_COVERAGE.items():
            got = greedy_step_coverage(float(u), k, 3 / k)
            assert got == pytest.approx(pinned, rel=1e-12), (u, k)

    def test_required_replication(self):
        for (n, m), pinned in self.REQUIRED_REPLICATION.items():
            got = tuple(required_replication(n, m, target) for target in (2.0, 4.0, 8.0))
            assert got == pinned, (n, m)
