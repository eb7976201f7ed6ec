import numpy as np
import pytest

from crisishedge.errors import DataError, DegenerateSampleError
from crisishedge.quantiles import order_statistic_rank
from crisishedge.tailsel import (
    build_triplet,
    min_feasible_tail_quantile,
    tail_variance_check,
    unify_tail_quantile,
)


class TestMinFeasible:
    def test_seventy_five_months(self):
        assert min_feasible_tail_quantile(np.zeros(75)) == 0.08

    def test_small_sample_hits_half(self):
        assert min_feasible_tail_quantile(np.zeros(12)) == 0.5

    def test_century(self):
        assert min_feasible_tail_quantile(np.zeros(100)) == 0.06

    def test_too_short(self):
        with pytest.raises(DataError):
            min_feasible_tail_quantile(np.zeros(5))


def test_unify_takes_the_binding_constraint():
    per = {"a": 6 / 75, "b": 6 / 120}
    assert unify_tail_quantile(per) == 0.08


class TestVarianceCheck:
    def test_ratio_matches_two_pass_oracle(self):
        returns = np.array([-10.0, -9.0] + [0.0] * 8)
        passes, ratio = tail_variance_check(returns, 0.2)
        tail = np.array([-10.0, -9.0])
        expected = np.var(tail, ddof=1) / np.var(returns, ddof=1)
        assert ratio == pytest.approx(expected)
        assert passes == (expected >= 2.0)

    def test_dispersed_tail_passes(self):
        # Two far-apart crash months against a tightly clustered bulk: the
        # conditional variance dominates the unconditional one.
        returns = np.concatenate([[-100.0, -50.0], np.linspace(0.0, 0.98, 98)])
        passes, ratio = tail_variance_check(returns, 0.02)
        assert ratio >= 2.0
        assert passes

    def test_normal_tail_is_thin(self):
        rng = np.random.default_rng(42)
        draws = rng.standard_normal(10_000)
        passes, ratio = tail_variance_check(draws, 0.08)
        assert not passes
        assert ratio < 2.0

    def test_single_point_tail_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            tail_variance_check(np.arange(20.0), 0.04)

    def test_zero_total_variance_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            tail_variance_check(np.zeros(30), 0.3)


class TestBuildTriplet:
    def test_three_countries_at_seventy_five_months(self):
        rng = np.random.default_rng(0)
        samples = {c: rng.standard_normal(75) for c in ("a", "b", "c")}
        triplet = build_triplet(samples)
        assert triplet.tau_low == 0.08
        assert triplet.tau_mid == 0.5
        assert triplet.tau_high == 0.92
        assert triplet.tau_high == 1.0 - triplet.tau_low

    def test_mixed_lengths_take_the_max(self):
        rng = np.random.default_rng(1)
        samples = {"short": rng.standard_normal(75), "long": rng.standard_normal(120)}
        triplet = build_triplet(samples)
        assert triplet.tau_low == 0.08
        assert triplet.per_country_taus == {"short": 0.08, "long": 0.05}

    def test_sixty_months(self):
        triplet = build_triplet({"x": np.random.default_rng(2).standard_normal(60)})
        assert (triplet.tau_low, triplet.tau_mid, triplet.tau_high) == (0.10, 0.5, 0.90)

    def test_thin_tails_warn_but_do_not_fail(self):
        rng = np.random.default_rng(3)
        triplet = build_triplet({"x": rng.standard_normal(200)})
        assert not triplet.variance_pass["x"]
        assert any("variance ratio" in w for w in triplet.warnings)

    def test_override_must_be_feasible_everywhere(self):
        rng = np.random.default_rng(4)
        returns = rng.standard_normal(75)
        with pytest.raises(DataError):
            build_triplet({"x": returns}, tau_override=0.05)
        # ceil(0.0666 * 75) = 5 points is one short; ceil(0.0667 * 75) = 6 is enough.
        assert (order_statistic_rank(0.0666, 75), order_statistic_rank(0.0667, 75)) == (5, 6)
        with pytest.raises(DataError, match="fewer than 6 tail observations"):
            build_triplet({"x": returns}, tau_override=0.0666)
        assert build_triplet({"x": returns}, tau_override=0.0667).tau_low == 0.0667

    def test_override_outside_lower_half_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DataError):
            build_triplet({"x": rng.standard_normal(75)}, tau_override=0.6)

    def test_tiny_common_sample_cannot_form_a_lower_tail(self):
        # tau_low would be 6/11 > 0.5; no valid triplet exists.
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateSampleError):
            build_triplet({"x": rng.standard_normal(11)})

    def test_no_countries_rejected(self):
        with pytest.raises(DataError):
            build_triplet({})
