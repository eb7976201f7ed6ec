"""Feature engineering and check-loss quantile fitting."""

from __future__ import annotations

from itertools import compress

import numpy as np
import pytest
from scipy import optimize

from crisishedge import months as mo
from crisishedge import qreg
from crisishedge.dataio import MacroSeries
from crisishedge.errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    EndogeneityError,
)
from crisishedge.qreg import (
    INTERCEPT_LABEL,
    DesignMatrix,
    FeatureSchema,
    QuantileModel,
    check_loss,
    engineer_features,
    expanding_window_cv,
    fit_quantile,
    fit_quantiles,
    lag_column_name,
    predict,
    pseudo_r2,
    solve_check_loss,
)
from crisishedge.quantiles import empirical_quantile
from crisishedge.returns import ReturnSeries

from conftest import make_series
from oracles import restandardized_subset


def dm(values, target, columns=None, start="2015-01", **kwargs) -> DesignMatrix:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    months = tuple(mo.month_range(start, mo.shift_month(start, n - 1)))
    if columns is None:
        columns = tuple(f"x{j}" for j in range(values.shape[1]))
    return DesignMatrix(
        months=months,
        columns=tuple(columns),
        values=values,
        target=np.asarray(target, dtype=float),
        **kwargs,
    )


def nominal_returns(values, start="2020-01") -> ReturnSeries:
    """A return series whose nominal returns are ``values``, from ``start``.

    The real returns differ from them, so a design that takes its target from
    the wrong array shows.
    """
    values = np.asarray(values, dtype=float)
    months = tuple(mo.month_range(start, mo.shift_month(start, len(values) - 1)))
    zeros = np.zeros(len(values))
    return ReturnSeries(months, values, values / 2, values / 4, zeros, zeros)


def intercept_only(target, start="2015-01") -> DesignMatrix:
    target = np.asarray(target, dtype=float)
    return dm(np.empty((len(target), 0)), target, columns=(), start=start)


def objective_at(X: DesignMatrix, tau: float, intercept: float, coef: np.ndarray) -> float:
    residual = X.target - (intercept + X.values @ coef)
    return float(np.sum(check_loss(residual, tau)))


def packed_coefficients(model: QuantileModel, X: DesignMatrix) -> np.ndarray:
    parts = [model.betas[c] for c in X.columns[: X.n_linear]]
    parts += [model.gammas[p] for p in X.interaction_pairs]
    return np.array(parts, dtype=float)


def assert_first_order_optimal(model: QuantileModel, X: DesignMatrix) -> None:
    base = objective_at(X, model.tau, model.intercept, packed_coefficients(model, X))
    coef = packed_coefficients(model, X)
    for delta in (1e-4, -1e-4):
        assert objective_at(X, model.tau, model.intercept + delta, coef) >= base - 1e-8
        for j in range(len(coef)):
            bumped = coef.copy()
            bumped[j] += delta
            assert objective_at(X, model.tau, model.intercept, bumped) >= base - 1e-8


class TestCheckLoss:
    def test_positive_residual(self):
        assert check_loss(1.0, 0.9) == pytest.approx(0.9)

    def test_negative_residual(self):
        assert check_loss(-1.0, 0.9) == pytest.approx(0.1)

    @pytest.mark.parametrize("tau", [0.08, 0.5, 0.92])
    def test_zero_residual(self, tau):
        assert check_loss(0.0, tau) == 0.0

    def test_vectorized_and_nonnegative(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=500)
        out = check_loss(u, 0.3)
        assert out.shape == u.shape
        assert np.all(out >= 0.0)
        assert out[0] == pytest.approx(check_loss(float(u[0]), 0.3))

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError):
            check_loss(1.0, tau)
        with pytest.raises(ValueError):
            check_loss(np.ones(3), np.array([[0.5], [tau]]))

    def test_levels_broadcast_against_residuals(self):
        u = np.random.default_rng(1).normal(size=50)
        taus = np.array([0.08, 0.5, 0.92])
        out = check_loss(u, taus[:, None])
        for t, tau in enumerate(taus):
            assert np.array_equal(out[t], check_loss(u, float(tau)))


class TestLagColumnName:
    def test_zero_lag_is_bare_name(self):
        assert lag_column_name("policy_rate", 0) == "policy_rate"

    def test_positive_lag_suffix(self):
        assert lag_column_name("m2_growth", 3) == "m2_growth_lag3"


class TestFeatureSchema:
    def test_linear_columns_ordered(self):
        schema = FeatureSchema(
            base_features=("a", "b"),
            lag_spec={"b": (1, 3)},
            event_dummies={"d": (0, 1)},
        )
        assert schema.linear_columns() == ("a", "b_lag1", "b_lag3", "d", "d_lag1")
        assert schema.dummy_columns() == frozenset({"d", "d_lag1"})

    def test_interaction_names(self):
        schema = FeatureSchema(
            base_features=("a", "b"),
            interaction_pairs=(("a", "b"),),
        )
        assert schema.interaction_names() == ("a*b",)

    def test_equity_prefix_rejected_everywhere(self):
        with pytest.raises(EndogeneityError, match="equity"):
            FeatureSchema(base_features=("equity_return_lag1",))
        with pytest.raises(EndogeneityError):
            FeatureSchema(base_features=("a",), event_dummies={"equity_dummy": (0,)})
        with pytest.raises(EndogeneityError):
            FeatureSchema(
                base_features=("a", "b"),
                interaction_pairs=(("a", "equity_x"),),
            )

    def test_excluded_identifier_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema(base_features=("a",), excluded=("a",))

    def test_lag_spec_must_name_base_feature(self):
        with pytest.raises(ConfigError):
            FeatureSchema(base_features=("a",), lag_spec={"b": (1,)})

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema(base_features=("a",), lag_spec={"a": (-1,)})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema(base_features=("a", "a"))

    def test_interaction_must_reference_generated_column(self):
        with pytest.raises(ConfigError):
            FeatureSchema(base_features=("a",), interaction_pairs=(("a", "missing"),))

    def test_duplicate_interaction_pairs_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema(
                base_features=("a", "b"),
                interaction_pairs=(("a", "b"), ("a", "b")),
            )


class TestDesignMatrixValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DesignMatrix(
                months=("2020-01", "2020-02"),
                columns=("x",),
                values=np.zeros((3, 1)),
                target=np.zeros(2),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dm([1.0, np.nan, 2.0], [0.0, 0.0, 0.0])

    def test_equity_column_unreachable(self):
        with pytest.raises(EndogeneityError):
            dm(np.zeros((3, 1)), np.zeros(3), columns=("equity_momentum",))


class TestEngineerFeatures:
    def panel(self, n=24, start="2020-01"):
        rng = np.random.default_rng(7)
        returns = nominal_returns(rng.normal(0.01, 0.05, n), start=start)
        return {
            "policy_rate": make_series("policy_rate", rng.normal(0.1, 0.02, n), start=start),
            "m2_growth": make_series("m2_growth", rng.normal(0.01, 0.01, n), start=start),
            "regime_break": make_series(
                "regime_break", [1.0 if 8 <= i <= 10 else 0.0 for i in range(n)], start=start
            ),
        }, returns

    def test_lag_one_drops_first_row(self):
        # Four target months, feature values 1..4: the lag-1 column should read
        # [1, 2, 3] for Feb..Apr and the Jan row has no history so it drops.
        panel = {"f": make_series("f", [1.0, 2.0, 3.0, 4.0], start="2020-01")}
        schema = FeatureSchema(base_features=("f",), lag_spec={"f": (1,)})
        X = engineer_features(panel, schema, nominal_returns([0.1, 0.2, 0.3, 0.4]))
        assert X.months == ("2020-02", "2020-03", "2020-04")
        assert X.dropped_rows == 1
        np.testing.assert_allclose(X.raw_linear[:, 0], [1.0, 2.0, 3.0])

    def test_lag_reads_history_instead_of_shifting(self):
        # Feature history extends one month before the first target month, so
        # no row is dropped and the lag-1 column starts at the earlier value.
        panel = {"f": make_series("f", [10.0, 20.0, 30.0, 40.0], start="2020-01")}
        schema = FeatureSchema(base_features=("f",), lag_spec={"f": (1,)})
        X = engineer_features(panel, schema, nominal_returns([0.1, 0.2, 0.3], start="2020-02"))
        assert X.months == ("2020-02", "2020-03", "2020-04")
        assert X.dropped_rows == 0
        np.testing.assert_allclose(X.raw_linear[:, 0], [10.0, 20.0, 30.0])

    def test_gap_at_lagged_month_drops_the_row_it_feeds(self):
        # f is missing 2020-03; with lag 2 that gap feeds the 2020-05 row only.
        f = make_series("f", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], start="2020-01")
        kept = np.array(f.stamps) != "2020-03"
        f = MacroSeries("f", tuple(compress(f.stamps, kept)), f.values[kept])
        returns = nominal_returns([0.1, 0.2, 0.3, 0.4, 0.5], start="2020-03")
        schema = FeatureSchema(base_features=("f",), lag_spec={"f": (0, 2)})
        X = engineer_features({"f": f}, schema, returns)
        assert X.months == ("2020-04", "2020-06", "2020-07")
        assert X.dropped_rows == 2  # 2020-03 (lag 0) and 2020-05 (lag 2)
        np.testing.assert_array_equal(X.raw_linear, [[4.0, 2.0], [6.0, 4.0], [7.0, 5.0]])
        np.testing.assert_array_equal(X.target, [0.2, 0.4, 0.5])

    def test_continuous_columns_standardized(self):
        panel, returns = self.panel()
        schema = FeatureSchema(base_features=("policy_rate", "m2_growth"))
        X = engineer_features(panel, schema, returns)
        np.testing.assert_allclose(X.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(X.values.std(axis=0), 1.0, atol=1e-12)

    def test_dummies_pass_through_unscaled(self):
        panel, returns = self.panel()
        schema = FeatureSchema(
            base_features=("policy_rate",), event_dummies={"regime_break": (0, 1)}
        )
        X = engineer_features(panel, schema, returns)
        j = X.columns.index("regime_break")
        assert set(np.unique(X.values[:, j])) <= {0.0, 1.0}
        regime = panel["regime_break"]
        raw = [regime.values[regime.stamps.index(m)] for m in X.months]
        np.testing.assert_array_equal(X.values[:, j], raw)

    def test_interaction_is_product_of_standardized_parents(self):
        panel = {
            "a": make_series("a", [2.0, 0.0, 2.0, 0.0], start="2020-01"),
            "b": make_series("b", [3.0, 3.0, 1.0, 1.0], start="2020-01"),
        }
        schema = FeatureSchema(base_features=("a", "b"), interaction_pairs=(("a", "b"),))
        X = engineer_features(panel, schema, nominal_returns([0.1, 0.2, 0.3, 0.4]))
        ja, jb = X.columns.index("a"), X.columns.index("b")
        np.testing.assert_allclose(X.values[:, ja], [1.0, -1.0, 1.0, -1.0])
        np.testing.assert_allclose(X.values[:, jb], [1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(X.values[:, X.columns.index("a*b")], [1.0, -1.0, -1.0, 1.0])

    def test_gap_in_feature_drops_row_and_counts(self):
        from crisishedge.dataio import MacroSeries

        panel, returns = self.panel()
        months = returns.months
        rate = panel["policy_rate"]
        kept = np.array(rate.stamps) != months[5]
        panel["policy_rate"] = MacroSeries(
            name="policy_rate", stamps=tuple(compress(rate.stamps, kept)), values=rate.values[kept]
        )
        schema = FeatureSchema(base_features=("policy_rate",))
        X = engineer_features(panel, schema, returns)
        assert months[5] not in X.months
        assert X.dropped_rows == 1

    def test_window_filters_target_months(self):
        panel, returns = self.panel()
        months = returns.months
        window = returns.window(months[6], months[11])
        X = engineer_features(panel, FeatureSchema(base_features=("policy_rate",)), window)
        assert X.months == tuple(months[6:12])
        np.testing.assert_array_equal(X.target, returns.nominal[6:12])

    def test_absent_feature_raises(self):
        panel, returns = self.panel()
        with pytest.raises(DataError, match="oil_price"):
            engineer_features(panel, FeatureSchema(base_features=("oil_price",)), returns)

    def test_non_binary_dummy_raises(self):
        panel, returns = self.panel()
        schema = FeatureSchema(
            base_features=("policy_rate",), event_dummies={"m2_growth": (0,)}
        )
        with pytest.raises(DataError, match="m2_growth"):
            engineer_features(panel, schema, returns)

    def test_empty_window_raises(self):
        panel, returns = self.panel()
        schema = FeatureSchema(base_features=("policy_rate",))
        with pytest.raises(DataError, match="no return months"):
            engineer_features(panel, schema, returns.window("2030-01", "2030-06"))


class TestFitQuantile:
    def test_intercept_only_median_is_lower_order_statistic(self):
        X = intercept_only(np.arange(1.0, 11.0))
        model = fit_quantile(X, 0.5)
        assert model.intercept == pytest.approx(5.0, abs=1e-12)

    def test_intercept_only_low_tail(self):
        X = intercept_only(np.arange(1.0, 11.0))
        model = fit_quantile(X, 0.08)
        assert model.intercept == pytest.approx(1.0, abs=1e-12)

    def test_intercept_only_matches_sorted_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(10, 120))
            y = rng.normal(size=n)
            tau = float(rng.choice([0.08, 0.25, 0.5, 0.92]))
            model = fit_quantile(intercept_only(y), tau)
            k = int(np.ceil(tau * n - 1e-9))
            assert model.intercept == pytest.approx(np.sort(y)[k - 1], abs=1e-8)

    def test_intercept_monotone_in_tau(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=80)
        X = intercept_only(y)
        fitted = [fit_quantile(X, t).intercept for t in (0.08, 0.5, 0.92)]
        assert fitted == sorted(fitted)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_exact_linear_fit(self, tau):
        rng = np.random.default_rng(23)
        x = rng.normal(size=40)
        X = dm(x, 2.0 * x, columns=("x",))
        model = fit_quantile(X, tau)
        assert model.betas["x"] == pytest.approx(2.0, abs=1e-8)
        assert model.intercept == pytest.approx(0.0, abs=1e-8)
        assert model.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_first_order_optimality_with_interactions(self):
        rng = np.random.default_rng(24)
        n = 60
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        values = np.column_stack([a, b, a * b])
        y = 0.3 + 1.2 * a - 0.7 * b + 0.5 * a * b + rng.normal(0, 0.4, n)
        X = dm(values, y, columns=("a", "b", "a*b"), interaction_pairs=(("a", "b"),))
        for tau in (0.08, 0.5, 0.92):
            model = fit_quantile(X, tau)
            assert_first_order_optimal(model, X)

    def test_equivariance_under_target_scaling(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=50)
        y = 1.0 + 0.8 * x + rng.normal(0, 0.3, 50)
        X = dm(x, y, columns=("x",))
        scaled = dm(x, 3.5 * y, columns=("x",))
        m1 = fit_quantile(X, 0.3)
        m2 = fit_quantile(scaled, 0.3)
        assert m2.intercept == pytest.approx(3.5 * m1.intercept, rel=1e-7, abs=1e-9)
        assert m2.betas["x"] == pytest.approx(3.5 * m1.betas["x"], rel=1e-7, abs=1e-9)
        assert m2.objective_value == pytest.approx(3.5 * m1.objective_value, rel=1e-7)

    def test_zero_variance_column_dropped_with_zero_coefficient(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=30)
        values = np.column_stack([x, np.full(30, 2.0)])
        X = dm(values, 1.0 + x, columns=("x", "flat"))
        model = fit_quantile(X, 0.5)
        assert model.betas["flat"] == 0.0
        assert model.betas["x"] == pytest.approx(1.0, abs=1e-8)

    def test_constant_target_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_quantile(intercept_only(np.full(20, 3.0)), 0.5)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            fit_quantile(intercept_only(np.arange(9.0)), 0.5)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError):
            fit_quantile(intercept_only(np.arange(10.0)), tau)
        with pytest.raises(ValueError):
            fit_quantiles(intercept_only(np.arange(10.0)), (0.5, tau))

    def test_levels_fitted_together_equal_single_fits(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(80, 2))
        y = 0.2 + x @ np.array([0.9, -0.4]) + rng.standard_t(3, size=80)
        X = dm(x, y, columns=("a", "b"))
        taus = (0.0104, 0.08, 0.5, 0.92)
        together = fit_quantiles(X, taus)
        assert len(together) == len(taus)
        for tau, model in zip(taus, together):
            alone = fit_quantile(X, tau)
            assert model.tau == alone.tau
            assert model.coef.tobytes() == alone.coef.tobytes()
            assert model.objective_value == alone.objective_value
            assert model.certificate == alone.certificate and len(model.certificate) == 1
            assert model.columns == alone.columns

    def test_coef_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="coef must hold 4 entries"):
            QuantileModel(
                tau=0.5,
                coef=[0.0, 1.0, 0.0],
                objective_value=0.0,
                columns=("a", "b"),
                interaction_pairs=(("a", "b"),),
            )

    def test_pair_naming_an_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown column"):
            QuantileModel(
                tau=0.5,
                coef=[0.0, 1.0, 0.0, 1.0],
                objective_value=0.0,
                columns=("a", "b"),
                interaction_pairs=(("a", "c"),),
            )

    def test_coefficient_views_read_the_vector(self):
        model = QuantileModel(
            tau=0.5,
            coef=[0.5, 1.0, -2.0, 3.0],
            objective_value=0.0,
            columns=("a", "b"),
            interaction_pairs=(("a", "b"),),
        )
        assert model.intercept == 0.5
        assert model.betas == {"a": 1.0, "b": -2.0}
        assert model.gammas == {("a", "b"): 3.0}
        with pytest.raises(ValueError):
            model.coef[0] = 1.0


def highs_loss(design: np.ndarray, y: np.ndarray, tau: float) -> float:
    """Optimal check loss of one problem by HiGHS on the split-residual LP."""
    n, p = design.shape
    res = optimize.linprog(
        np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)]),
        A_eq=np.hstack([design, np.eye(n), -np.eye(n)]),
        b_eq=y,
        bounds=[(None, None)] * p + [(0.0, None)] * (2 * n),
        method="highs",
    )
    assert res.success
    return float(res.fun)


LEVELS = (0.0104, 0.08, 0.5, 0.92)


def padded_problems(seed: int, count: int = 12, p: int = 4, shortest: int = 20):
    """Problems of unequal length, zero-padded to the longest."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(shortest, 90, size=count)
    designs = np.zeros((count, lengths.max(), 1 + p))
    targets = np.zeros((count, lengths.max()))
    for b, n in enumerate(lengths):
        x = rng.normal(size=(n, p))
        x[:, -1] = rng.random(n) < 0.1  # a sparse dummy
        designs[b, :n, 0] = 1.0
        designs[b, :n, 1:] = x
        targets[b, :n] = x @ rng.normal(size=p) + rng.standard_t(3, size=n)
    return designs, targets, lengths


class TestSolveCheckLoss:
    GAP_TOL = 1e-9

    def test_losses_match_the_highs_optimum(self):
        designs, targets, lengths = padded_problems(60)
        coef, fits = solve_check_loss(designs, targets, LEVELS)
        assert coef.shape == (len(LEVELS), len(lengths), designs.shape[2])
        assert len(fits) == len(LEVELS) * len(lengths) and fits.fallbacks == 0
        for t, tau in enumerate(LEVELS):
            for b, n in enumerate(lengths):
                i = t * len(lengths) + b
                oracle = highs_loss(designs[b, :n], targets[b, :n], tau)
                assert abs(fits.loss[i] - oracle) <= self.GAP_TOL * (1.0 + oracle)
                assert fits.gap[i] <= self.GAP_TOL * (1.0 + fits.loss[i])

    def test_fit_alone_equals_fit_in_batch(self, monkeypatch):
        # Members stop at different iterations, so the running batch is
        # compacted mid-solve; each step's mu must be the gap the stopping
        # test computed on the same state.
        designs, targets, _ = padded_problems(61)
        batch_sizes = []
        newton_step = qreg._newton_step

        def spy(X, weight, usable, x, s, z, w, dual, mu):
            assert np.array_equal(
                mu, np.sum(x * z * weight, axis=1) + np.sum(s * w * weight, axis=1)
            )
            batch_sizes.append(len(X))
            return newton_step(X, weight, usable, x, s, z, w, dual, mu)

        monkeypatch.setattr(qreg, "_newton_step", spy)
        batched, batched_fits = solve_check_loss(designs, targets, LEVELS)
        assert len(set(batch_sizes)) >= 4
        monkeypatch.setattr(qreg, "CHUNK_ROWS", 3 * designs.shape[1])
        chunked, chunked_fits = solve_check_loss(designs, targets, LEVELS)
        assert np.array_equal(chunked, batched) and chunked_fits == batched_fits
        for t, tau in enumerate(LEVELS):
            for b in range(len(designs)):
                alone, fits = solve_check_loss(designs[b:b + 1], targets[b:b + 1], (tau,))
                assert np.array_equal(alone[0, 0], batched[t, b])
                i = t * len(designs) + b
                assert fits == batched_fits[i:i + 1]

    def test_all_levels_in_one_solve_equal_one_solve_per_level(self, monkeypatch):
        # 12 designs at each of 4 levels in chunks of 8 members: chunks end
        # inside a level (at 8, 16, ...) and where one does (at 24), and the
        # chunk of members 8-15 holds two levels.  Every design is longer
        # than the width ladder's second rung, so all are solved at the row
        # axis's width.
        designs, targets, lengths = padded_problems(66, shortest=70)
        assert np.all(qreg._widths(lengths, designs.shape[1]) == designs.shape[1])
        monkeypatch.setattr(qreg, "CHUNK_ROWS", 8 * designs.shape[1])
        chunk_levels = []
        frisch_newton = qreg._frisch_newton

        def spy(chunk, chunk_targets, tau, weight):
            chunk_levels.append(tuple(np.unique(tau).tolist()))
            return frisch_newton(chunk, chunk_targets, tau, weight)

        monkeypatch.setattr(qreg, "_frisch_newton", spy)
        together, fits = solve_check_loss(designs, targets, LEVELS)
        assert chunk_levels[:3] == [LEVELS[:1], LEVELS[:2], LEVELS[1:2]]
        assert len(chunk_levels) == 6
        count = len(designs)
        for t, tau in enumerate(LEVELS):
            alone, alone_fits = solve_check_loss(designs, targets, (tau,))
            assert together[t].tobytes() == alone[0].tobytes()
            assert fits[t * count: (t + 1) * count] == alone_fits

    def test_affine_step_is_never_taken_whole(self, monkeypatch):
        # Why every step takes Mehrotra's corrector: the predictor's dual step
        # length, the first one of each step, is below 1 for every member.
        designs, targets, _ = padded_problems(61)
        dual_lengths = []
        newton_step, step_lengths = qreg._newton_step, qreg._step_lengths

        def step_spy(*args):
            dual_lengths.append(None)
            return newton_step(*args)

        def lengths_spy(*args):
            fp, fd = step_lengths(*args)
            if dual_lengths[-1] is None:
                dual_lengths[-1] = fd
            return fp, fd

        monkeypatch.setattr(qreg, "_newton_step", step_spy)
        monkeypatch.setattr(qreg, "_step_lengths", lengths_spy)
        solve_check_loss(designs, targets, LEVELS)
        assert dual_lengths and all(np.all(fd < 1.0) for fd in dual_lengths)

    def test_padding_leaves_the_optimum(self):
        designs, targets, lengths = padded_problems(62)
        _, padded = solve_check_loss(designs, targets, LEVELS)
        for t, tau in enumerate(LEVELS):
            for b, n in enumerate(lengths):
                _, alone = solve_check_loss(designs[b:b + 1, :n], targets[b:b + 1, :n], (tau,))
                i = t * len(lengths) + b
                assert abs(padded.loss[i] - alone.loss[0]) <= self.GAP_TOL * (1.0 + alone.loss[0])

    def test_dummy_on_repeated_rows(self):
        # A block-resampled dummy that covers only copies of one row leaves a
        # least-squares residual of ~1e-17 there: the start must stay feasible.
        rng = np.random.default_rng(63)
        x = rng.normal(size=(60, 2))
        y = x @ np.array([0.5, -0.3]) + rng.normal(0, 0.1, 60)
        x[:5], y[:5] = x[0], y[0]
        dummy = np.zeros(60)
        dummy[:5] = 1.0
        design = np.column_stack([np.ones(60), x, dummy])
        _, fits = solve_check_loss(design[None], y[None], LEVELS)
        assert fits.fallbacks == 0
        for t, tau in enumerate(LEVELS):
            oracle = highs_loss(design, y, tau)
            assert abs(fits.loss[t] - oracle) <= self.GAP_TOL * (1.0 + oracle)

    def test_constant_column_gets_positive_zero(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=40)
        design = np.column_stack([np.ones(40), x, np.full(40, 3.0)])
        coef, _ = solve_check_loss(design[None], (1.0 + x)[None], (0.3,))
        assert coef[0, 0, 2] == 0.0 and not np.signbit(coef[0, 0, 2])

    def test_fit_that_misses_its_gap_falls_back_to_highs(self, monkeypatch):
        designs, targets, lengths = padded_problems(65, count=3)
        monkeypatch.setattr(qreg, "_MAX_ITER", 2)
        _, fits = solve_check_loss(designs, targets, (0.25,))
        assert fits.fallback == (True, True, True)
        for b, n in enumerate(lengths):
            oracle = highs_loss(designs[b, :n], targets[b, :n], 0.25)
            assert fits.loss[b] == pytest.approx(oracle, rel=1e-9, abs=1e-12)
            assert fits.gap[b] > self.GAP_TOL * (1.0 + fits.loss[b])

    def test_empty_batch(self):
        coef, fits = solve_check_loss(np.zeros((0, 10, 3)), np.zeros((0, 10)), (0.5,))
        assert coef.shape == (1, 0, 3) and len(fits) == 0


def weighted_problem(seed: int, n: int = 40, p: int = 3):
    """A weighted design (column 0 the weights, 1 to 3 copies a row) with
    zero rows of weight 0 spread among its rows, and the same problem with
    each row repeated as often as its weight."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x @ rng.normal(size=p) + rng.standard_t(3, size=n)
    copies = rng.integers(1, 4, size=n)
    design = np.column_stack([copies, x]).astype(float)
    gaps = rng.choice(n + 1, size=n // 4)
    design = np.insert(design, gaps, 0.0, axis=0)
    target = np.insert(y, gaps, 0.0)
    repeated = np.column_stack([np.ones(copies.sum()), np.repeat(x, copies, axis=0)])
    return design, target, repeated, np.repeat(y, copies)


class TestRowWeights:
    """Column 0 of a design weighs its row: weight k stands for k copies."""

    GAP_TOL = 1e-9

    def test_k_copies_equal_weight_k(self):
        # The optimum of continuous random data is unique, so the weighted
        # and the repeated fit reach one point, not only one loss.
        for seed in (70, 71, 72):
            design, target, repeated, y = weighted_problem(seed)
            weighted, fits = solve_check_loss(design[None], target[None], LEVELS)
            copied, copied_fits = solve_check_loss(repeated[None], y[None], LEVELS)
            assert fits.fallbacks == copied_fits.fallbacks == 0
            for t in range(len(LEVELS)):
                loss = copied_fits.loss[t]
                assert abs(fits.loss[t] - loss) <= self.GAP_TOL * (1.0 + loss)
                assert np.max(np.abs(weighted[t, 0] - copied[t, 0])) <= 1e-8

    def test_weighted_iterates_are_the_repeated_rows_iterates(self, monkeypatch):
        # In exact arithmetic a weighted solve takes the repeated problem's
        # steps: the same count, each at the same duality gap.
        newton_step = qreg._newton_step
        gaps = []

        def spy(X, weight, usable, x, s, z, w, dual, mu):
            gaps.append(float(mu[0]))
            return newton_step(X, weight, usable, x, s, z, w, dual, mu)

        monkeypatch.setattr(qreg, "_newton_step", spy)
        for seed in (70, 71, 72):
            design, target, repeated, y = weighted_problem(seed)
            for tau in LEVELS:
                gaps.clear()
                _, fits = solve_check_loss(design[None], target[None], (tau,))
                weighted = np.array(gaps + list(fits.gap))
                gaps.clear()
                _, fits = solve_check_loss(repeated[None], y[None], (tau,))
                copied = np.array(gaps + list(fits.gap))
                assert len(weighted) == len(copied)
                assert np.max(np.abs(weighted - copied) / copied) <= 1e-8

    def test_member_fit_depends_only_on_its_own_rows(self):
        # A member is solved on its positive-weight rows, in order, at a
        # width set by their count and the row axis, so where its zero rows
        # sit and which members share its batch change no bit.
        design, target, _, _ = weighted_problem(73)
        real = design[:, 0] > 0.0
        packed = np.zeros_like(design)
        packed_target = np.zeros_like(target)
        packed[: real.sum()], packed_target[: real.sum()] = design[real], target[real]
        other, other_target, _, _ = weighted_problem(74)
        together, fits = solve_check_loss(
            np.stack([other, design, packed]), np.stack([other_target, target, packed_target]),
            LEVELS,
        )
        for t in range(len(LEVELS)):
            assert together[t, 1].tobytes() == together[t, 2].tobytes()
            alone, alone_fits = solve_check_loss(design[None], target[None], LEVELS[t: t + 1])
            assert alone[0, 0].tobytes() == together[t, 1].tobytes()
            assert alone_fits == fits[3 * t + 1: 3 * t + 2]

    def test_zero_weight_rows_never_move(self, monkeypatch):
        # Their directions are zero, so they also never bound a step.
        newton_step = qreg._newton_step
        padded = []

        def spy(X, weight, usable, x, s, z, w, dual, mu):
            out = newton_step(X, weight, usable, x, s, z, w, dual, mu)
            zero = weight == 0.0
            padded.append(zero.any())
            for before, after in zip((x, s, z, w), out):
                assert np.array_equal(after[zero], before[zero])
            return out

        monkeypatch.setattr(qreg, "_newton_step", spy)
        design, target, _, _ = weighted_problem(78)
        solve_check_loss(design[None], target[None], LEVELS)
        assert padded and all(padded)

    @pytest.mark.parametrize("tau", [0.0104, 0.08, 0.25, 0.5, 0.92])
    def test_order_statistic_intercept_of_the_repeated_target(self, tau):
        # No usable column besides the intercept: the exact order statistic.
        # The second column is constant over the positive-weight rows; the
        # zero rows alone would make it vary.
        rng = np.random.default_rng(75)
        y = rng.normal(size=30)
        copies = rng.integers(0, 4, size=30)
        copies[:2] = 1
        design = np.column_stack([copies, np.full(30, 2.5)]).astype(float)
        design[copies == 0] = 0.0
        target = np.where(copies > 0, y, 0.0)
        coef, fits = solve_check_loss(design[None], target[None], (tau,))
        assert coef[0, 0, 0] == empirical_quantile(np.repeat(y, copies), tau)
        assert coef[0, 0, 1] == 0.0
        assert fits.gap == (0.0,) and fits.fallbacks == 0

    def test_usable_columns_are_judged_on_positive_weight_rows(self):
        rng = np.random.default_rng(76)
        x = rng.normal(size=40)
        design = np.column_stack([rng.integers(1, 3, size=40), x, np.full(40, 3.0)])
        padded = np.vstack([design, np.zeros((10, 3))])
        target = np.concatenate([1.0 + x + rng.normal(0, 0.1, 40), np.zeros(10)])
        coef, fits = solve_check_loss(padded[None], target[None], (0.3,))
        assert coef[0, 0, 2] == 0.0 and not np.signbit(coef[0, 0, 2])
        _, unpadded = solve_check_loss(design[None], target[None, :40], (0.3,))
        assert abs(fits.loss[0] - unpadded.loss[0]) <= self.GAP_TOL * (1.0 + unpadded.loss[0])

    def test_weighted_fit_that_falls_back_matches_highs_on_repeated_rows(self, monkeypatch):
        monkeypatch.setattr(qreg, "_MAX_ITER", 0)
        design, target, repeated, y = weighted_problem(77)
        _, fits = solve_check_loss(design[None], target[None], LEVELS)
        assert fits.fallback == (True,) * len(LEVELS)
        for t, tau in enumerate(LEVELS):
            oracle = highs_loss(repeated, y, tau)
            assert abs(fits.loss[t] - oracle) <= self.GAP_TOL * (1.0 + oracle)


class TestPredict:
    def test_matches_manual_evaluation(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=30)
        X = dm(x, 0.5 + 2.0 * x + rng.normal(0, 0.1, 30), columns=("x",))
        model = fit_quantile(X, 0.5)
        np.testing.assert_allclose(
            predict(model, X), model.intercept + model.betas["x"] * X.values[:, 0]
        )

    def test_missing_column_raises(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=30)
        model = fit_quantile(dm(x, x, columns=("x",)), 0.5)
        other = dm(x, x, columns=("z",))
        with pytest.raises(DataError):
            predict(model, other)

    def test_reordered_columns_rejected(self):
        rng = np.random.default_rng(29)
        values = rng.normal(size=(30, 2))
        target = values @ np.array([1.0, -2.0]) + rng.normal(0, 0.1, 30)
        model = fit_quantile(dm(values, target, columns=("a", "b")), 0.5)
        with pytest.raises(DataError, match="do not match"):
            predict(model, dm(values[:, ::-1], target, columns=("b", "a")))

    def test_interaction_pairs_must_match(self):
        rng = np.random.default_rng(30)
        values = rng.normal(size=(30, 2))
        target = values.sum(axis=1) + rng.normal(0, 0.1, 30)
        model = fit_quantile(dm(values, target, columns=("a", "b")), 0.5)
        with_pair = dm(
            np.column_stack([values, values[:, 0] * values[:, 1]]),
            target,
            columns=("a", "b", "a*b"),
            interaction_pairs=(("a", "b"),),
        )
        with pytest.raises(DataError, match="do not match"):
            predict(model, with_pair)


class TestPseudoR2:
    def test_intercept_only_in_sample_is_zero(self):
        y = np.arange(1.0, 21.0)
        X = intercept_only(y)
        model = fit_quantile(X, 0.5)
        assert pseudo_r2(model, X) == pytest.approx(0.0, abs=1e-12)

    def test_exact_fit_is_one(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=30)
        X = dm(x, 2.0 * x, columns=("x",))
        model = fit_quantile(X, 0.5)
        assert pseudo_r2(model, X) == pytest.approx(1.0, abs=1e-9)

    def test_in_sample_bounded(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=60)
        y = 0.5 * x + rng.normal(0, 1.0, 60)
        X = dm(x, y, columns=("x",))
        for tau in (0.08, 0.5, 0.92):
            model = fit_quantile(X, tau)
            assert 0.0 <= pseudo_r2(model, X) <= 1.0

    def test_reversed_trend_goes_negative(self):
        t = np.linspace(0.0, 1.0, 40)
        train = dm(t, 2.0 * t, columns=("x",))
        model = fit_quantile(train, 0.5)
        held_out = dm(t, -2.0 * t, columns=("x",))
        assert pseudo_r2(model, held_out) < 0.0

    def test_constant_target_raises(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=20)
        model = fit_quantile(dm(x, x, columns=("x",)), 0.5)
        flat = dm(x, np.zeros(20), columns=("x",))
        with pytest.raises(DegenerateSampleError):
            pseudo_r2(model, flat)


def noise_matrix(n: int, seed: int, p: int = 2) -> DesignMatrix:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, p))
    target = rng.normal(size=n)
    return dm(values, target)


def cv_at(X: DesignMatrix, tau: float, **kwargs):
    """The report of one tail level from ``expanding_window_cv``."""
    return expanding_window_cv(X, (tau,), **kwargs)[tau]


class TestExpandingWindowCV:
    def test_fold_arithmetic_30_20_5(self):
        X = noise_matrix(30, seed=40)
        report = cv_at(X, 0.5, initial_window=20, step=5)
        assert len(report.folds) == 2
        assert report.folds[0].train_rows == 20
        assert report.folds[0].test_months == (X.months[20], X.months[24])
        assert report.folds[1].train_rows == 25
        assert report.folds[1].test_months == (X.months[25], X.months[29])

    def test_final_fold_may_be_short(self):
        X = noise_matrix(28, seed=41)
        report = cv_at(X, 0.5, initial_window=20, step=5)
        assert [f.n_test for f in report.folds] == [5, 3]

    def test_no_test_row_precedes_training(self):
        X = noise_matrix(60, seed=42)
        report = cv_at(X, 0.5, initial_window=20, step=10)
        for fold in report.folds:
            last_train = X.months[fold.train_rows - 1]
            assert mo.month_index(fold.test_months[0]) > mo.month_index(last_train)

    def test_white_noise_pooled_r2_small(self):
        X = noise_matrix(120, seed=43)
        report = cv_at(X, 0.5, initial_window=36, step=12)
        assert report.pooled_pseudo_r2 <= 0.05

    def test_coefficient_paths_cover_all_terms(self):
        X = noise_matrix(40, seed=44)
        report = cv_at(X, 0.5, initial_window=20, step=10)
        assert set(report.coefficient_paths) == {INTERCEPT_LABEL, *X.columns}
        for path in report.coefficient_paths.values():
            assert len(path) == len(report.folds)

    def test_force_test_month_shrinks_initial_window(self):
        X = noise_matrix(30, seed=45)
        forced = X.months[15]
        report = cv_at(
            X, 0.5, initial_window=20, step=5, force_test_month=forced
        )
        assert report.folds[0].train_rows == 15
        assert report.folds[0].test_months[0] == forced

    def test_force_test_month_too_early(self):
        X = noise_matrix(30, seed=46)
        with pytest.raises(DataError):
            cv_at(
                X, 0.5, initial_window=20, step=5, force_test_month=X.months[5]
            )

    def test_force_test_month_unknown(self):
        X = noise_matrix(30, seed=47)
        with pytest.raises(DataError):
            cv_at(
                X, 0.5, initial_window=20, step=5, force_test_month="1999-01"
            )

    def test_insufficient_rows_for_two_folds(self):
        X = noise_matrix(22, seed=48)
        with pytest.raises(DataError):
            cv_at(X, 0.5, initial_window=20, step=5)

    def test_initial_window_floor(self):
        X = noise_matrix(30, seed=49)
        with pytest.raises(DataError):
            cv_at(X, 0.5, initial_window=9, step=5)

    def test_step_floor(self):
        X = noise_matrix(30, seed=50)
        with pytest.raises(DataError):
            cv_at(X, 0.5, initial_window=20, step=0)

    def test_pooled_mae_matches_fold_errors(self):
        X = noise_matrix(40, seed=51)
        report = cv_at(X, 0.5, initial_window=20, step=10)
        weighted = sum(f.mae * f.n_test for f in report.folds)
        total = sum(f.n_test for f in report.folds)
        assert report.pooled_mae == pytest.approx(weighted / total)

    def test_folds_reach_the_unpadded_optimum(self):
        # Each fold is solved at its own rung of the width ladder, with zero
        # rows after its own, and matches its fit alone in loss and point.
        X = noise_matrix(70, seed=55, p=3)
        report = cv_at(X, 0.25, initial_window=20, step=10)
        paths = np.array(list(report.coefficient_paths.values()))
        for k, fold in enumerate(report.folds):
            rows = np.arange(fold.train_rows)
            alone = fit_quantile(restandardized_subset(X, rows, rows), 0.25)
            batched = report.certificates.loss[k]
            assert abs(batched - alone.objective_value) <= 1e-9 * (1.0 + alone.objective_value)
            assert np.max(np.abs(paths[:, k] - alone.coef) / (1.0 + np.abs(alone.coef))) <= 1e-6

    def test_levels_match_single_level_runs(self):
        X = noise_matrix(60, seed=52, p=3)
        taus = (0.1, 0.5, 0.9)
        together = expanding_window_cv(X, taus, initial_window=20, step=10)
        assert list(together) == list(taus)
        for tau in taus:
            assert repr(together[tau]) == repr(cv_at(X, tau, initial_window=20, step=10))

    def test_every_level_and_fold_goes_through_one_solve(self, monkeypatch):
        from crisishedge import qreg

        calls = []
        real_solve = qreg.solve_check_loss

        def counting_solve(designs, targets, taus):
            calls.append((designs.shape[0], tuple(taus)))
            return real_solve(designs, targets, taus)

        monkeypatch.setattr(qreg, "solve_check_loss", counting_solve)
        X = noise_matrix(60, seed=53)
        reports = expanding_window_cv(X, (0.1, 0.5, 0.9), initial_window=20, step=10)
        assert calls == [(4, (0.1, 0.5, 0.9))]
        assert all(len(r.folds) == 4 for r in reports.values())
        assert all(len(r.certificates) == 4 for r in reports.values())

    def test_scores_equal_per_fold_models(self, monkeypatch):
        # Every fold's scores and coefficient-path entries, and the pooled
        # values, against a QuantileModel and predict on each fold's own
        # train and test designs, with the coefficients the batch returned.
        rng = np.random.default_rng(56)
        a, b = rng.normal(size=(2, 64))
        event = (rng.random(64) < 0.3).astype(float)
        y = 0.8 * a - 0.5 * b + 0.6 * a * b + 0.4 * event + rng.normal(0, 0.3, 64)
        X = dm(
            np.column_stack([a, b, event, a * b]), y, ("a", "b", "event", "a*b"),
            interaction_pairs=(("a", "b"),), dummy_columns=frozenset({"event"}),
        )
        solved = []
        real_solve = qreg.solve_check_loss

        def recording_solve(designs, targets, taus):
            out = real_solve(designs, targets, taus)
            solved.append((designs, out))
            return out

        monkeypatch.setattr(qreg, "solve_check_loss", recording_solve)
        taus = (0.2, 0.5)
        reports = expanding_window_cv(X, taus, initial_window=20, step=9)
        [(designs, (coefs, certificates))] = solved
        for t, tau in enumerate(taus):
            report = reports[tau]
            errors, model_losses, base_losses = [], 0.0, 0.0
            for k, fold in enumerate(report.folds):
                rows = np.arange(fold.train_rows)
                test_rows = np.arange(fold.train_rows, fold.train_rows + fold.n_test)
                train = restandardized_subset(X, rows, rows)
                test = restandardized_subset(X, rows, test_rows)
                assert np.array_equal(designs[k, : len(rows), 1:], train.values)
                model = qreg._quantile_model(
                    train, tau, coefs[t, k], certificates.loss[t * len(report.folds) + k]
                )
                err = test.target - predict(model, test)
                model_loss = float(np.sum(check_loss(err, tau)))
                base = empirical_quantile(test.target, tau)
                base = float(np.sum(check_loss(test.target - base, tau)))
                assert fold.test_months == (test.months[0], test.months[-1])
                assert fold.mae == float(np.mean(np.abs(err)))
                assert fold.pseudo_r2 == 1.0 - model_loss / base
                assert report.coefficient_paths[INTERCEPT_LABEL][k] == model.intercept
                for col in X.columns[:3]:
                    assert report.coefficient_paths[col][k] == model.betas[col]
                assert report.coefficient_paths["a*b"][k] == model.gammas[("a", "b")]
                errors.append(np.abs(err))
                model_losses += model_loss
                base_losses += base
            assert report.pooled_mae == float(np.mean(np.concatenate(errors)))
            assert report.pooled_pseudo_r2 == 1.0 - model_losses / base_losses

    def test_constant_target_raises_once_for_all_levels(self):
        X = dm(np.random.default_rng(54).normal(size=(40, 2)), np.full(40, 0.3))
        with pytest.raises(DegenerateSampleError, match="constant"):
            expanding_window_cv(X, (0.1, 0.5, 0.9), initial_window=20, step=10)
