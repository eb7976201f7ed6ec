import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crisishedge import copula
from crisishedge.copula import (
    FAMILIES,
    CopulaFamily,
    CopulaFit,
    PseudoBatch,
    PseudoSample,
    THETA_BOUNDS,
    _log_density,
    _counted_ranks,
    _dense_codes,
    _margins,
    attach_ci,
    block_bootstrap_ci,
    empirical_tail_dependence,
    fit_batch,
    fit_copula,
    fit_families,
    pseudo_observations,
    select_family,
    simulate_copula,
)
from crisishedge.errors import DataError, FitError, DegenerateSampleError
from crisishedge.resample import block_resamples, default_block_length

from oracles import _rank, log_density, log_density_expression, lower_tail_dependence


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


class TestRank:
    """The numpy ranks against ``scipy.stats.rankdata``, compared as bytes.

    ``_rank`` is the sorted reference; the shipped rule is ``_counted_ranks``,
    reached through ``pseudo_observations`` on 1-D lanes.
    """

    @staticmethod
    def lanes():
        rng = np.random.default_rng(12)
        yield "random 1-D", rng.normal(size=57)
        yield "ties 1-D", rng.integers(0, 5, size=40).astype(float)
        yield "n = 2", np.array([0.3, -0.1])
        yield "n = 2 tied", np.array([0.3, 0.3])
        yield "random lanes", rng.random((9, 31))
        ties = rng.integers(0, 4, size=(6, 25)).astype(float)
        ties[2] = 7.0  # one lane where every value is tied
        yield "tied lanes", ties
        yield "n = 2 lanes", np.array([[1.0, 0.0], [2.0, 2.0], [-1.0, 3.0]])

    def test_matches_scipy_bit_for_bit(self):
        from scipy import stats

        for label, x in self.lanes():
            got = _rank(x)
            want = stats.rankdata(x, method="average", axis=-1)
            assert got.dtype == want.dtype, label
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label
            if x.ndim == 1:
                shipped = pseudo_observations(x)
                scaled = want / (x.size + 1.0)
                assert shipped.dtype == scaled.dtype, label
                assert shipped.tobytes() == scaled.tobytes(), label

    def test_counted_ranks_equal_sorted_ranks(self):
        rng = np.random.default_rng(13)
        margins = {
            "untied": rng.normal(size=60),
            "tied": rng.integers(0, 5, size=60).astype(float),
            "all tied": np.full(60, 0.25),
        }
        rows = block_resamples(60, replications=40, seed=14)
        rows[0] = 7  # one replicate that repeats a single row
        for label, x in margins.items():
            got = _counted_ranks(_dense_codes(x)[rows])
            assert got.dtype == np.float64, label
            assert got.tobytes() == _rank(x[rows]).tobytes(), label

    def test_counted_ranks_of_two_points(self):
        codes = np.array([[1, 0], [0, 0], [0, 1]])
        assert _counted_ranks(codes).tolist() == [[2.0, 1.0], [1.5, 1.5], [1.0, 2.0]]


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


def reference_log_likelihood(family, theta, u, v):
    """Summed log-density from the textbook formulas, in 50-digit ``decimal``.

    Every float input converts to Decimal exactly, and 50 digits leave more
    than 25 after the worst cancellation on the grids below (Frank's
    denominator at |theta| = 50), so the sum is exact for a float comparison.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        t, one, total = Decimal(theta), Decimal(1), Decimal(0)
        for a, b in zip(map(Decimal, u.tolist()), map(Decimal, v.tolist())):
            if family is CopulaFamily.CLAYTON:
                s = (-t * a.ln()).exp() + (-t * b.ln()).exp() - one
                total += (one + t).ln() - (one + t) * (a * b).ln() - (2 + one / t) * s.ln()
            elif family is CopulaFamily.GUMBEL:
                x, y = -a.ln(), -b.ln()
                s = (t * x.ln()).exp() + (t * y.ln()).exp()
                big_a = (s.ln() / t).exp()
                total += (-big_a + x + y + (t - one) * (x * y).ln()
                          + (one / t - 2) * s.ln() + (big_a + t - one).ln())
            else:
                g = lambda z: one - (-z).exp()
                denom = g(t) - g(t * a) * g(t * b)
                total += (t * g(t) * (-t * (a + b)).exp() / (denom * denom)).ln()
        return total


class TestLogDensityPrecision:
    """Summed log-likelihoods against the 50-digit oracle, one bound for all.

    Ranks of n = 120 comonotone, countermonotone and independent pairs; each
    family's grid holds both of its ``THETA_BOUNDS``.  Near independence
    (Clayton at 1e-6, Gumbel at 1 + 1e-6) the log-likelihood is of the order
    of theta's distance from it, so a relative bound there needs a density
    written without cancelling terms.  Frank's adds logs of numbers near 1,
    each rounded at about 1e-16, which is not small against a
    log-likelihood of order theta, so its grid stops at |theta| = 0.1 (at
    theta = -0.01 the error reaches 1.1e-12 relative).
    """

    REL = 1e-12
    GRIDS = {
        CopulaFamily.CLAYTON: (1e-3, 0.1, 1.0, 10.0, 37.4),
        CopulaFamily.GUMBEL: (1.001, 1.1, 2.0, 10.0, 37.4),
        CopulaFamily.FRANK: (-37.4, -10.0, -1.0, -0.1, 0.1, 1.0, 10.0, 37.4),
    }

    @staticmethod
    def samples():
        ranks = np.arange(1.0, 121.0) / 121.0
        perm = np.random.default_rng(3).permutation(120)
        return {
            "comonotone": (ranks, ranks),
            "countermonotone": (ranks, ranks[::-1].copy()),
            "independent": (ranks, ranks[perm]),
        }

    @pytest.mark.parametrize(
        "family,theta",
        [(f, th) for f, grid in GRIDS.items() for th in sorted({*THETA_BOUNDS[f], *grid})],
    )
    def test_matches_decimal_oracle(self, family, theta):
        for label, (u, v) in self.samples().items():
            got = float(np.sum(log_density(family, theta, u, v)))
            want = reference_log_likelihood(family, theta, u, v)
            assert math.isfinite(got), label
            assert abs(Decimal(got) - want) <= Decimal(self.REL) * abs(want), (
                f"{label}: {got!r} vs {float(want)!r}"
            )

    def test_frank_independence_limit(self):
        u, v = self.samples()["independent"]
        assert np.array_equal(_log_density(CopulaFamily.FRANK, 0.0, *_margins(
            CopulaFamily.FRANK, u, v)), np.zeros_like(u))
        for theta in (-1e-12, 1e-12):
            assert_allclose(log_density(CopulaFamily.FRANK, theta, u, v), 0.0, atol=1e-12)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceLogDensity:
    """The buffered ``_log_density`` equals its plain-expression oracle bit for bit."""

    THETAS = {
        CopulaFamily.CLAYTON: (1e-6, 0.01, 0.5, 0.999, 1.0, 1.000001, 3.0, 50.0),
        CopulaFamily.GUMBEL: (1.000001, 1.01, 1.5, 2.0, 3.0, 10.0, 25.0, 50.0),
        CopulaFamily.FRANK: (-50.0, -3.0, -1e-6, 0.0, 1e-12, 0.5, 7.0, 50.0),
    }

    @staticmethod
    def lanes(count):
        """Bootstrap-like lanes: block resamples of one sample, ranked lane by lane."""
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 96, seed=120)
        rows = block_resamples(s.n, replications=count, seed=4)
        return PseudoBatch.from_codes(_dense_codes(s.u)[rows], _dense_codes(s.v)[rows])

    @staticmethod
    def both(family, theta, margins, work):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return (
                _log_density(family, theta, *margins, work=work),
                log_density_expression(family, theta, *margins),
            )

    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_distinct_and_shared_thetas_then_fewer_lanes(self, family):
        grid = np.array(self.THETAS[family])
        batch = self.lanes(3 * grid.size)
        margins = _margins(family, batch.u, batch.v)
        work = np.empty((4, len(batch), batch.n))
        # Every lane its own theta, then lanes sharing three thetas (Frank's
        # theta = 0 among them), in and out of order.
        thetas = (
            np.concatenate([grid, grid / 2 + grid[::-1] / 2, grid[::-1]]),
            grid[np.arange(3 * grid.size) % 3 + 2],
        )
        for theta in thetas:
            got, want = self.both(family, theta[:, None], margins, work)
            assert same_bits(got, want)
        # The same buffers, now with the first few lanes only.
        few = [m[:5] for m in margins]
        got, want = self.both(family, thetas[0][:5, None], few, work[:, :5])
        assert same_bits(got, want)

    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_scalar_theta_allocates_its_own_buffers(self, family):
        s = sample_from(CopulaFamily.FRANK, -3.0, 120, seed=2)
        margins = _margins(family, s.u, s.v)
        for theta in self.THETAS[family]:
            got, want = self.both(family, theta, margins, None)
            assert same_bits(got, want), theta


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
    def test_upper_bound_fit_reports_comonotone_limit(self, family):
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
        assert fit_batch(PseudoBatch.of(s), family).lambda_lower[0] == 1.0

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


class TestFitFamilies:
    @staticmethod
    def samples():
        x = np.random.default_rng(109).normal(size=120)
        return [
            sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=116),
            PseudoSample.from_data(x, 2.0 * x + 1.0),  # every family at its upper bound
            sample_from(CopulaFamily.FRANK, -3.0, 120, seed=2),
        ]

    def test_every_lane_equals_its_single_fit(self):
        samples = self.samples()
        fitted = fit_families(samples)
        assert len(fitted) == len(samples)
        for sample, fits in zip(samples, fitted):
            assert fits == tuple(fit_copula(sample, family) for family in FAMILIES)
        assert any(fit.diagnostics for fits in fitted for fit in fits)

    def test_one_search_whose_lanes_stop_apart_or_run_out(self, monkeypatch):
        # These lanes' own searches converge after 14 to 46 evaluations,
        # except Clayton on the Frank sample (58), which 50 cuts short.
        monkeypatch.setattr(copula, "MAXITER", 50)
        searched, evaluated = [], []
        minimize, density = copula._minimize_bounded, copula._log_density

        def search_spy(*args, **kwargs):
            searched.append(len(args[1]))
            return minimize(*args, **kwargs)

        def density_spy(family, theta, *margins, work):
            evaluated.append((family, theta.shape[0]))
            return density(family, theta, *margins, work=work)

        monkeypatch.setattr(copula, "_minimize_bounded", search_spy)
        monkeypatch.setattr(copula, "_log_density", density_spy)
        samples = self.samples()
        fitted = fit_families(samples)
        assert searched == [len(FAMILIES) * len(samples)]
        for family in FAMILIES:
            lane_counts = [count for f, count in evaluated if f is family]
            assert lane_counts[0] == len(samples) and len(set(lane_counts)) > 1
        monkeypatch.setattr(copula, "_log_density", density)
        out_of_evaluations = []
        for sample, fits in zip(samples, fitted):
            assert fits == tuple(fit_copula(sample, family) for family in FAMILIES)
            out_of_evaluations += [
                (fit.family, not fit.converged)
                for fit in fits
                if any("Maximum number of function calls" in d for d in fit.diagnostics)
            ]
        assert out_of_evaluations == [(CopulaFamily.CLAYTON, True)]

    @pytest.mark.parametrize("margin", ["u", "v"])
    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_batch_outside_unit_square_rejected(self, margin, edge):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 40, seed=119)
        u, v = np.stack([s.u, s.u]), np.stack([s.v, s.v])
        {"u": u, "v": v}[margin][1, 7] = edge
        message = r"^copula arguments must lie strictly inside \(0, 1\)$"
        with pytest.raises(ValueError, match=message):
            PseudoBatch(u, v)

    def test_samples_must_share_one_length(self):
        a = sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=1)
        b = sample_from(CopulaFamily.CLAYTON, 2.0, 121, seed=1)
        with pytest.raises(DataError, match="one length"):
            fit_families([a, b])

    @pytest.mark.parametrize("family", list(CopulaFamily))
    def test_lane_lambdas_equal_the_analytic_formula(self, family):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=118)
        rows = block_resamples(s.n, replications=200, seed=3)
        codes = _dense_codes(s.u)[rows], _dense_codes(s.v)[rows]
        lanes = fit_batch(PseudoBatch.from_codes(*codes), family)
        inside = ~lanes.at_upper
        expected = [lower_tail_dependence(family, t) for t in lanes.theta[inside]]
        assert lanes.lambda_lower[inside].tolist() == expected
        assert (lanes.lambda_lower[lanes.at_upper] == 1.0).all()


class TestSelection:
    def test_generating_family_wins(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 2000, seed=105)
        (fits,) = fit_families([s])
        chosen = select_family(fits, "aic")
        assert chosen.family is CopulaFamily.CLAYTON

    def test_bic_criterion_accepted(self):
        s = sample_from(CopulaFamily.GUMBEL, 3.0, 1000, seed=106)
        (fits,) = fit_families([s])
        chosen = select_family(fits, "bic")
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
        with pytest.raises(
            DegenerateSampleError,
            match=r"^no observations with u <= 0\.01; conditioning set empty$",
        ):
            empirical_tail_dependence(s, 0.01)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_tau_outside_unit_interval_raises(self, tau):
        s = PseudoSample(u=np.array([0.05, 0.6]), v=np.array([0.05, 0.6]))
        with pytest.raises(ValueError, match=r"^tau must lie in \(0, 1\)"):
            empirical_tail_dependence(s, tau)


class TestBlocks:
    def test_default_block_length_is_cube_root(self):
        assert default_block_length(8) == 2
        assert default_block_length(100) == 5
        assert default_block_length(1000) == 10
        assert default_block_length(1) == 1

    def test_indices_cover_exactly_n(self):
        idx = block_resamples(103, replications=50, block_length=7, seed=108)
        assert idx.shape == (50, 103)
        assert idx.dtype == np.intp
        assert idx.min() >= 0
        assert idx.max() < 103

    def test_blocks_are_contiguous_runs(self):
        # ceil(103 / 7) = 15 runs of 7 consecutive indices, the last cut to 5.
        idx = block_resamples(103, replications=50, block_length=7, seed=109)
        for row in idx:
            starts = row[::7]
            assert len(starts) == 15
            runs = (starts[:, None] + np.arange(7)).ravel()
            assert np.array_equal(row, runs[:103])

    def test_block_starts_cover_both_ends_of_range(self):
        # 14 admissible starts, 600 draws: an off-by-one at either end fails.
        idx = block_resamples(20, replications=200, block_length=7, seed=110)
        starts = idx[:, ::7]
        assert (starts.min(), starts.max()) == (0, 20 - 7)

    def test_invalid_block_length(self):
        with pytest.raises(DataError):
            block_resamples(10, replications=5, block_length=11, seed=110)


class TestBootstrapCI:
    def test_one_scratch_buffer_serves_every_chunk(self, monkeypatch):
        # 2 legs x 150 replicates of 40 points in chunks of 64 lanes: five
        # chunks, the last of 44 lanes.
        monkeypatch.setattr(copula, "CHUNK_POINTS", 64 * 40)
        buffers, lanes = [], []
        real_fit = copula.fit_batch

        def recording_fit(batch, family, *, work):
            buffers.append(work)
            lanes.append(len(batch))
            return real_fit(batch, family, work=work)

        monkeypatch.setattr(copula, "fit_batch", recording_fit)
        samples = [sample_from(CopulaFamily.FRANK, 3.0, 40, seed=s) for s in (7, 8)]
        block_bootstrap_ci(samples, "frank", seeds=[1, 2], replications=150)
        assert lanes == [64, 64, 64, 64, 44]
        assert all(b is buffers[0] for b in buffers) and buffers[0].shape == (4, 64, 40)

    def test_deterministic_under_fixed_seed(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 300, seed=111)
        family = CopulaFamily.CLAYTON
        a = block_bootstrap_ci([s], family, seeds=[9], replications=150)
        b = block_bootstrap_ci([s], family, seeds=[9], replications=150)
        assert a == b
        c = block_bootstrap_ci([s], family, seeds=[10], replications=150)
        assert a != c

    def test_interval_brackets_the_point_estimate(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 500, seed=112)
        fit = fit_copula(s, "clayton")
        (ci,) = block_bootstrap_ci([s], CopulaFamily.CLAYTON, seeds=[11], replications=200)
        lo, hi = ci.interval
        assert lo <= fit.lambda_lower <= hi

    def test_replication_floor(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 100, seed=114)
        with pytest.raises(ValueError):
            block_bootstrap_ci([s], "clayton", seeds=[1], replications=50)

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
        lanes = fit_batch(PseudoBatch.of(s), CopulaFamily.CLAYTON)
        fit = fit_copula(s, "clayton")
        assert lanes.lambda_lower[0] == fit.lambda_lower
        assert lanes.converged[0] == fit.converged
        assert lanes.boundary[0] == fit.boundary

    def test_empirical_statistic_closure(self):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 400, seed=117)
        in_u = [v for u, v in zip(s.u, s.v) if u <= 0.1]
        expected = sum(v <= 0.1 for v in in_u) / len(in_u)
        value = empirical_tail_dependence(s, 0.1)
        assert value == expected
        assert type(value) is float


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
