import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisishedge.copula import (
    CopulaFamily,
    CopulaFit,
    PseudoBatch,
    PseudoSample,
    ReplicateValues,
    THETA_BOUNDS,
    attach_ci,
    block_bootstrap_ci,
    empirical_lambda_statistic,
    empirical_tail_dependence,
    family_lambda_statistic,
    fit_copula,
    fit_families,
    log_density,
    lower_tail_dependence,
    pseudo_observations,
    select_family,
    simulate_copula,
)
from crisishedge.errors import DataError, FitError, NumericalError, DegenerateSampleError
from crisishedge.resample import default_block_length, moving_block_indices


def sample_from(family, theta, n, seed):
    rng = np.random.default_rng(seed)
    u, v = simulate_copula(family, theta, n, rng)
    return PseudoSample.from_data(u, v)


class TestPseudoObservations:
    def test_rank_over_n_plus_one(self):
        assert_allclose(pseudo_observations([3.0, 1.0, 2.0]), [0.75, 0.25, 0.5])

    def test_ties_get_average_ranks(self):
        assert_allclose(pseudo_observations([5.0, 5.0]), [0.5, 0.5])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        assert_allclose(pseudo_observations(x), pseudo_observations(np.exp(x)))

    def test_strictly_inside_unit_interval(self):
        p = pseudo_observations(np.arange(1000.0))
        assert p.min() > 0.0
        assert p.max() < 1.0


class TestAnalyticTailDependence:
    @pytest.mark.parametrize(
        "family,theta,expected",
        [
            (CopulaFamily.CLAYTON, 1.0, 0.5),
            (CopulaFamily.CLAYTON, 2.0, 2.0 ** -0.5),
            (CopulaFamily.GUMBEL, 2.0, 0.0),
            (CopulaFamily.FRANK, 5.0, 0.0),
            (CopulaFamily.FRANK, -5.0, 0.0),
        ],
    )
    def test_closed_forms(self, family, theta, expected):
        assert lower_tail_dependence(family, theta) == pytest.approx(expected)

    def test_gumbel_lower_tail_vanishes_in_simulation(self):
        rng = np.random.default_rng(12)
        u, v = simulate_copula(CopulaFamily.GUMBEL, 2.0, 200_000, rng)
        s = PseudoSample.from_data(u, v)
        # The limit is 0 but the conditional frequency decays slowly (roughly
        # tau to the power 2**(1/theta) - 1), so check decay toward zero rather
        # than smallness at a single finite tau.
        coarse = empirical_tail_dependence(s, 0.10)
        fine = empirical_tail_dependence(s, 0.01)
        assert fine < coarse
        assert fine < 0.25
        # Clayton at the same Kendall-tau strength stays pinned near its
        # positive limit, which is what makes the two families separable.
        u2, v2 = simulate_copula(CopulaFamily.CLAYTON, 2.0, 200_000, rng)
        s2 = PseudoSample.from_data(u2, v2)
        assert empirical_tail_dependence(s2, 0.01) > 0.5

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            lower_tail_dependence(CopulaFamily.CLAYTON, -1.0)
        with pytest.raises(ValueError):
            lower_tail_dependence(CopulaFamily.GUMBEL, 0.5)
        with pytest.raises(ValueError):
            lower_tail_dependence(CopulaFamily.FRANK, 0.0)


class TestLogDensity:
    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_finite_on_interior_grid(self, family):
        theta = {"clayton": 50.0, "gumbel": 50.0, "frank": -50.0}[family.value]
        grid = np.linspace(1.0 / 1001.0, 1000.0 / 1001.0, 64)
        uu, vv = np.meshgrid(grid, grid)
        ld = log_density(family, theta, uu.ravel(), vv.ravel())
        assert np.all(np.isfinite(ld))

    @pytest.mark.parametrize(
        "family,theta",
        [(CopulaFamily.CLAYTON, 2.0), (CopulaFamily.GUMBEL, 2.0), (CopulaFamily.FRANK, 4.0)],
    )
    def test_density_integrates_to_one(self, family, theta):
        # Midpoint rule on a fine grid; the densities are smooth inside (0,1)^2.
        k = 400
        centers = (np.arange(k) + 0.5) / k
        uu, vv = np.meshgrid(centers, centers)
        total = np.exp(log_density(family, theta, uu.ravel(), vv.ravel())).sum() / k**2
        assert total == pytest.approx(1.0, abs=0.02)


class TestFitCopula:
    def test_clayton_recovery(self):
        s = sample_from(CopulaFamily.CLAYTON, 3.0, 2000, seed=100)
        fit = fit_copula(s, "clayton")
        assert fit.converged
        assert abs(fit.theta - 3.0) < 0.3
        assert fit.aic == pytest.approx(2.0 - 2.0 * fit.log_likelihood)
        assert fit.bic == pytest.approx(math.log(2000) - 2.0 * fit.log_likelihood)

    def test_near_independence_hits_boundary_with_diagnostic(self):
        rng = np.random.default_rng(101)
        s = PseudoSample.from_data(rng.random(2000), rng.random(2000))
        fit = fit_copula(s, "clayton")
        assert fit.theta < 0.05
        assert fit.boundary
        assert any("boundary" in d for d in fit.diagnostics)

    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_upper_bound_fit_reports_comonotone_limit(self, family, monkeypatch):
        if family is CopulaFamily.FRANK:
            # On comonotone ranks Frank's likelihood peaks near theta = 37,
            # inside its range; a narrower range puts the fit on its edge.
            monkeypatch.setitem(THETA_BOUNDS, family, (-30.0, 30.0))
        upper = THETA_BOUNDS[family][1]
        x = np.random.default_rng(107).normal(size=120)
        s = PseudoSample.from_data(x, 2.0 * x + 1.0)  # Kendall tau = 1
        fit = fit_copula(s, family)
        assert fit.boundary
        assert fit.theta >= upper - 0.01
        assert fit.lambda_lower == 1.0
        assert any(
            "at parameter-space boundary; lambda_L=1 from the comonotone limit" in d
            for d in fit.diagnostics
        )
        assert family_lambda_statistic(family)(PseudoBatch.of(s)).values[0] == 1.0

    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_lower_bound_fit_keeps_zero(self, family):
        x = np.random.default_rng(108).normal(size=120)
        s = PseudoSample.from_data(x, -x)  # Kendall tau = -1
        fit = fit_copula(s, family)
        assert fit.boundary
        assert fit.lambda_lower == 0.0
        lower = THETA_BOUNDS[family][0]
        assert fit.diagnostics == (
            f"{family.value}: theta={fit.theta:.6g} at parameter-space boundary",
        )
        assert fit.theta <= lower + 0.01

    def test_frank_negative_dependence(self):
        s = sample_from(CopulaFamily.FRANK, -6.0, 2000, seed=102)
        fit = fit_copula(s, "frank")
        assert fit.converged
        assert abs(fit.theta + 6.0) < 1.0

    def test_small_sample_rejected(self):
        rng = np.random.default_rng(103)
        s = PseudoSample.from_data(rng.random(19), rng.random(19))
        with pytest.raises(DataError):
            fit_copula(s, "clayton")

    def test_empirical_estimate_rides_along(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 500, seed=104)
        fit = fit_copula(s, "clayton", tau=0.1)
        assert fit.empirical_lambda_at_tau == pytest.approx(
            empirical_tail_dependence(s, 0.1)
        )


class TestSelection:
    def test_generating_family_wins(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 2000, seed=105)
        chosen = select_family(fit_families(s), "aic")
        assert chosen.family is CopulaFamily.CLAYTON

    def test_bic_criterion_accepted(self):
        s = sample_from(CopulaFamily.GUMBEL, 3.0, 1000, seed=106)
        chosen = select_family(fit_families(s), "bic")
        assert chosen.family is CopulaFamily.GUMBEL

    def test_exact_tie_breaks_by_family_order(self):
        def fit(family, ll):
            return CopulaFit(
                family=family, theta=2.0, log_likelihood=ll,
                aic=2.0 - 2.0 * ll, bic=math.log(100) - 2.0 * ll,
                lambda_lower=0.0 if family is not CopulaFamily.CLAYTON else 0.5,
                n=100,
            )

        fits = [fit(CopulaFamily.FRANK, 5.0), fit(CopulaFamily.CLAYTON, 5.0)]
        assert select_family(fits).family is CopulaFamily.CLAYTON

    def test_unconverged_fits_are_ignored(self):
        good = CopulaFit(
            family=CopulaFamily.GUMBEL, theta=2.0, log_likelihood=1.0,
            aic=0.0, bic=math.log(100) - 2.0, lambda_lower=0.0, n=100,
        )
        bad = CopulaFit(
            family=CopulaFamily.CLAYTON, theta=2.0, log_likelihood=50.0,
            aic=2.0 - 100.0, bic=math.log(100) - 100.0, lambda_lower=0.5,
            n=100, converged=False,
        )
        assert select_family([bad, good]).family is CopulaFamily.GUMBEL
        with pytest.raises(FitError):
            select_family([bad])

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            select_family([], "hqic")


class TestEmpiricalTailDependence:
    def test_hand_counted(self):
        s = PseudoSample(
            u=np.array([0.05, 0.08, 0.5, 0.9]), v=np.array([0.02, 0.7, 0.05, 0.1])
        )
        # u <= 0.1 at 2 points; v <= 0.1 jointly at 1 of them
        assert empirical_tail_dependence(s, 0.1) == 0.5

    def test_independence_gives_tau(self):
        rng = np.random.default_rng(107)
        s = PseudoSample.from_data(rng.random(100_000), rng.random(100_000))
        assert empirical_tail_dependence(s, 0.08) == pytest.approx(0.08, abs=0.01)

    def test_empty_conditioning_set_raises(self):
        s = PseudoSample(u=np.array([0.5, 0.6]), v=np.array([0.5, 0.6]))
        with pytest.raises(DegenerateSampleError):
            empirical_tail_dependence(s, 0.01)


class TestBlocks:
    def test_default_block_length_is_cube_root(self):
        assert default_block_length(8) == 2
        assert default_block_length(100) == 5
        assert default_block_length(1000) == 10
        assert default_block_length(1) == 1

    def test_indices_cover_exactly_n(self):
        rng = np.random.default_rng(108)
        idx = moving_block_indices(103, 7, rng)
        assert idx.shape == (103,)
        assert idx.min() >= 0
        assert idx.max() < 103

    def test_blocks_are_contiguous_runs(self):
        rng = np.random.default_rng(109)
        idx = moving_block_indices(100, 10, rng)
        for start in range(0, 100, 10):
            block = idx[start : start + 10]
            assert_allclose(np.diff(block), 1)

    def test_invalid_block_length(self):
        rng = np.random.default_rng(110)
        with pytest.raises(DataError):
            moving_block_indices(10, 11, rng)


class TestBootstrapCI:
    def test_deterministic_under_fixed_seed(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 300, seed=111)
        stat = family_lambda_statistic(CopulaFamily.CLAYTON)
        a = block_bootstrap_ci(s, stat, replications=150, seed=9)
        b = block_bootstrap_ci(s, stat, replications=150, seed=9)
        assert a == b
        c = block_bootstrap_ci(s, stat, replications=150, seed=10)
        assert a != c

    def test_interval_brackets_the_point_estimate(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 500, seed=112)
        fit = fit_copula(s, "clayton")
        lo, hi = block_bootstrap_ci(
            s, family_lambda_statistic(CopulaFamily.CLAYTON),
            replications=200, seed=11,
        ).interval
        assert lo <= fit.lambda_lower <= hi

    def test_too_many_degenerate_replicates_raise(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 100, seed=113)

        def flaky(batch):
            # Decided by each replicate's own data, so it holds in any chunk.
            failing = batch.u[:, 0] < 0.5
            return ReplicateValues(
                np.full(len(batch), 0.5),
                tuple("synthetic failure" if f else None for f in failing),
            )

        with pytest.raises(NumericalError, match="64/100 replicates degenerate"):
            block_bootstrap_ci(s, flaky, replications=100, seed=12)

    def test_skipped_replicates_are_reported(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 100, seed=113)

        def flaky(batch):
            # Skips 3 of 100 here: under the 5% bound, so the interval stands.
            failing = batch.u[:, 0] < 0.03
            return ReplicateValues(
                batch.v[:, 0].copy(),
                tuple("synthetic failure" if f else None for f in failing),
            )

        ci = block_bootstrap_ci(s, flaky, replications=100, seed=12)
        assert (ci.skipped, ci.replications) == (3, 100)
        lo, hi = ci.interval
        assert 0.0 < lo <= hi < 1.0

    def test_replication_floor(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 100, seed=114)
        with pytest.raises(ValueError):
            block_bootstrap_ci(
                s, family_lambda_statistic("clayton"), replications=50, seed=1
            )

    def test_attach_ci_validates_interval(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 300, seed=115)
        fit = fit_copula(s, "clayton")
        updated = attach_ci(fit, (fit.lambda_lower - 0.1, fit.lambda_lower + 0.1))
        assert updated.lambda_lower_ci == (
            fit.lambda_lower - 0.1, fit.lambda_lower + 0.1,
        )
        assert fit.lambda_lower_ci is None
        with pytest.raises(ValueError):
            attach_ci(fit, (0.5, 0.2))
        with pytest.raises(ValueError):
            attach_ci(fit, (float("nan"), 0.2))


class TestStatistics:
    def test_family_statistic_refits_on_replicate(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 400, seed=116)
        stat = family_lambda_statistic(CopulaFamily.CLAYTON)
        values = stat(PseudoBatch.of(s))
        fit = fit_copula(s, "clayton")
        assert values.values[0] == fit.lambda_lower
        assert values.skipped == (None,)
        assert values.converged[0] == fit.converged
        assert values.boundary[0] == fit.boundary

    def test_empirical_statistic_closure(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 400, seed=117)
        stat = empirical_lambda_statistic(0.1)
        assert stat(PseudoBatch.of(s)).values[0] == empirical_tail_dependence(s, 0.1)

    def test_empirical_statistic_skips_empty_conditioning_set(self):
        batch = PseudoBatch(u=np.array([[0.05, 0.5], [0.5, 0.6]]),
                            v=np.array([[0.05, 0.5], [0.5, 0.6]]))
        values = empirical_lambda_statistic(0.1)(batch)
        assert values.values[0] == 1.0
        assert values.skipped == (
            None, "no observations with u <= 0.1; conditioning set empty",
        )


class TestSimulate:
    def test_deterministic(self):
        a = simulate_copula("clayton", 2.0, 50, np.random.default_rng(5))
        b = simulate_copula("clayton", 2.0, 50, np.random.default_rng(5))
        assert_allclose(a, b)

    @pytest.mark.parametrize("family,theta", [
        ("clayton", 2.0), ("gumbel", 2.0), ("frank", 4.0), ("frank", -4.0),
    ])
    def test_marginals_are_uniform(self, family, theta):
        rng = np.random.default_rng(6)
        u, v = simulate_copula(family, theta, 20_000, rng)
        assert np.all((u > 0) & (u < 1))
        assert np.all((v > 0) & (v < 1))
        assert u.mean() == pytest.approx(0.5, abs=0.02)
        assert v.mean() == pytest.approx(0.5, abs=0.02)
        assert v.var() == pytest.approx(1.0 / 12.0, abs=0.01)

    def test_gumbel_inversion_satisfies_conditional_cdf(self):
        # The bisection should agree with an independent check: Kendall tau of
        # Gumbel(theta) is 1 - 1/theta.
        rng = np.random.default_rng(7)
        u, v = simulate_copula("gumbel", 2.0, 5000, rng)
        from scipy import stats

        tau = stats.kendalltau(u, v).statistic
        assert tau == pytest.approx(0.5, abs=0.04)
