"""Loss composition, variance-reduction scoring, and report assembly."""

from __future__ import annotations

from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest

from crisishedge import months as mo
from crisishedge.copula import CopulaFamily, CopulaFit
from crisishedge.dataio import MacroSeries, pct_change
from crisishedge.errors import DataError, DegenerateSampleError
from crisishedge.hedge import (
    HedgeReport,
    Residency,
    build_hedge_report,
    hedge_effectiveness,
    loss_series,
    net_real_return,
)
from crisishedge.returns import ReturnSeries, build_return_series

import oracles
from conftest import make_series


def months_from(start: str, n: int) -> tuple[str, ...]:
    return tuple(mo.month_range(start, mo.shift_month(start, n - 1)))


def fit_with(lambda_lower: float, ci=None) -> CopulaFit:
    ll, n = 10.0, 60
    return CopulaFit(
        family=CopulaFamily.CLAYTON,
        theta=2.0,
        log_likelihood=ll,
        aic=2.0 - 2.0 * ll,
        bic=float(np.log(n)) - 2.0 * ll,
        lambda_lower=lambda_lower,
        n=n,
        lambda_lower_ci=ci,
    )


def returns_of(pi, fx, start="2020-02"):
    """Returns on flat equity: ``pi`` from ``start``, ``fx`` levels from the month before."""
    lead = mo.shift_month(start, -1)
    fx = fx if isinstance(fx, MacroSeries) else make_series("fx_usd", fx, start=lead)
    equity = make_series("equity", [100.0] * (len(pi) + 1), start=lead)
    return build_return_series(equity, fx, make_series("cpi_rate", pi, start=start))


def with_gaps(series: MacroSeries, rng: np.random.Generator, share: float) -> MacroSeries:
    kept = rng.random(len(series)) >= share
    return MacroSeries(
        series.name, tuple(compress(series.stamps, kept)), series.values[kept], unit=series.unit
    )


def bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


class TestLossSeries:
    def test_local_mean_erosion_equals_mean_inflation(self):
        returns = returns_of([0.0205] * 12, [4.0] * 13)
        out = loss_series(returns, Residency.LOCAL)
        assert float(np.mean(out)) == pytest.approx(0.0205)
        assert out is returns.pi

    def test_foreign_flat_fx_and_zero_inflation(self):
        out = loss_series(returns_of([0.0] * 6, [4.0] * 7), Residency.FOREIGN)
        np.testing.assert_allclose(out, 0.0)

    def test_foreign_additive_composition(self):
        returns = returns_of([0.02], [1.00, 1.05])
        out = loss_series(returns, Residency.FOREIGN)
        assert returns.months == ("2020-02",)
        assert out[0] == pytest.approx(0.02 + 0.05)
        assert returns.pi[0] == pytest.approx(0.02)
        assert returns.fx_ret[0] == pytest.approx(0.05)
        assert list(out) == [returns.pi[0] + returns.fx_ret[0]]

    def test_foreign_skips_months_without_prior_fx_level(self):
        # Inflation and equity reach back to the first FX month, which has no
        # prior FX level, so no return and no loss.
        fx = make_series("fx_usd", [2.0, 2.1, 2.2], start="2020-01")
        returns = returns_of([0.01, 0.01, 0.01], fx, start="2020-01")
        out = loss_series(returns, Residency.FOREIGN)
        assert returns.months == ("2020-02", "2020-03")
        assert out.shape == (2,)

    def test_foreign_fx_gap_drops_the_months_it_feeds(self):
        levels = {"2020-01": 2.0, "2020-02": 2.2, "2020-04": 2.5, "2020-05": 2.4, "2020-06": 3.1}
        pi = [0.01, 0.02, 0.03, 0.04, 0.05]
        returns = returns_of(pi, MacroSeries("fx_usd", tuple(levels), tuple(levels.values())))
        out = loss_series(returns, Residency.FOREIGN)
        # 2020-03 has no FX level, 2020-04 none at m-1.
        assert returns.months == ("2020-02", "2020-05", "2020-06")
        expected_fx = [
            levels["2020-02"] / levels["2020-01"] - 1.0,
            levels["2020-05"] / levels["2020-04"] - 1.0,
            levels["2020-06"] / levels["2020-05"] - 1.0,
        ]
        assert list(returns.fx_ret) == expected_fx
        assert list(out) == [p + r for p, r in zip((0.01, 0.04, 0.05), expected_fx)]

    def test_residency_accepts_strings(self):
        returns = returns_of([0.01] * 4, [1.0, 1.1, 1.2, 1.3, 1.4])
        assert loss_series(returns, "local") is returns.pi
        assert bits(loss_series(returns, "foreign")) == bits(returns.pi + returns.fx_ret)

    @pytest.mark.parametrize("inflation_kind", ["rate", "index"])
    def test_matches_losses_aligned_apart_from_the_returns(self, inflation_kind):
        # The oracle differences FX over every inflation month and picks the
        # return months out afterwards; building on the return series' own
        # months must give the same losses bit for bit, gaps or not.
        rng = np.random.default_rng(31 if inflation_kind == "rate" else 32)
        for trial in range(60):
            n = int(rng.integers(8, 48))
            start = f"{2000 + trial % 20}-{1 + trial % 12:02d}"
            equity = make_series("equity", 100.0 * np.cumprod(rng.uniform(0.8, 1.25, n)), start)
            fx = make_series("fx_usd", 3.0 * np.cumprod(rng.uniform(0.9, 1.3, n)), start)
            if inflation_kind == "rate":
                inflation = make_series("cpi_rate", rng.uniform(-0.02, 0.2, n), start)
            else:
                cpi = make_series("cpi", 100.0 * np.cumprod(rng.uniform(0.99, 1.2, n)), start)
                inflation = pct_change(with_gaps(cpi, rng, 0.1), name="cpi_rate")
            share = float(rng.uniform(0.0, 0.2))
            equity, fx, inflation = (with_gaps(s, rng, share) for s in (equity, fx, inflation))
            try:
                returns = build_return_series(equity, fx, inflation)
            except DataError:
                continue
            window = returns.window(returns.months[int(rng.integers(len(returns)))], None)
            for series in (returns, window):
                for residency in Residency:
                    want = oracles.loss_at(
                        oracles.loss_series(inflation, fx, residency), series.months
                    )
                    assert bits(loss_series(series, residency)) == bits(want.loss)
                    assert bits(series.pi) == bits(want.pi)
                    if residency is Residency.FOREIGN:
                        assert bits(series.fx_ret) == bits(want.fx_ret)


class TestNetRealReturn:
    def test_table_row_identity(self):
        # Means 3.74% nominal and 4.12% erosion must net to -0.38%.
        nominal = np.array([0.0374 - 0.01, 0.0374 + 0.01, 0.0374])
        loss = np.array([0.0412 + 0.002, 0.0412 - 0.002, 0.0412])
        net = net_real_return(nominal, loss)
        assert 100.0 * float(np.mean(net)) == pytest.approx(-0.38, abs=1e-9)

    def test_self_cancellation(self):
        values = np.array([0.0142, 0.02, -0.01])
        np.testing.assert_allclose(net_real_return(values, values), 0.0)

    def test_accepts_loss_series(self):
        loss = loss_series(returns_of([0.01, 0.02], [1.0] * 3), Residency.LOCAL)
        net = net_real_return([0.03, 0.03], loss)
        np.testing.assert_allclose(net, [0.02, 0.01])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            net_real_return([0.1, 0.2], [0.1])


class TestHedgeEffectiveness:
    def test_constant_net_is_perfect(self):
        loss = np.array([0.01, 0.05, -0.02, 0.03])
        net = np.full(4, 0.007)
        assert hedge_effectiveness(net, loss) == 1.0

    def test_noisier_net_clamps_to_zero(self):
        rng = np.random.default_rng(80)
        loss = rng.normal(0, 0.01, 60)
        net = 2.0 * (loss - loss.mean())
        assert hedge_effectiveness(net, loss) == 0.0

    def test_half_variance_scores_half(self):
        rng = np.random.default_rng(81)
        loss = rng.normal(0, 0.02, 100)
        net = loss.mean() + (loss - loss.mean()) * np.sqrt(0.5)
        assert hedge_effectiveness(net, loss) == pytest.approx(0.5, abs=1e-9)

    def test_bounded_for_arbitrary_inputs(self):
        rng = np.random.default_rng(82)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            loss = rng.normal(size=n)
            net = rng.normal(size=n)
            if np.var(loss, ddof=1) == 0.0:
                continue
            he = hedge_effectiveness(net, loss)
            assert 0.0 <= he <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(83)
        loss = rng.normal(0, 0.03, 50)
        net = rng.normal(0, 0.01, 50)
        base = hedge_effectiveness(net, loss)
        for c in (0.5, -2.0, 1e4):
            assert hedge_effectiveness(c * net, c * loss) == pytest.approx(base)

    def test_shift_invariance(self):
        rng = np.random.default_rng(84)
        loss = rng.normal(0, 0.03, 50)
        net = rng.normal(0, 0.01, 50)
        base = hedge_effectiveness(net, loss)
        assert hedge_effectiveness(net + 0.25, loss) == pytest.approx(base)

    def test_perfect_characterization(self):
        rng = np.random.default_rng(85)
        loss = rng.normal(0, 0.02, 30)
        # any nonzero variance keeps the score strictly below 1
        net = loss * 1e-3
        assert hedge_effectiveness(net, loss) < 1.0

    def test_zero_loss_variance_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            hedge_effectiveness([0.1, 0.2, 0.3], [0.01, 0.01, 0.01])

    def test_too_few_observations(self):
        with pytest.raises(DataError):
            hedge_effectiveness([0.1], [0.2])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            hedge_effectiveness([0.1, 0.2], [0.1, 0.2, 0.3])


class TestHedgeReportType:
    def test_effectiveness_must_be_percentage(self):
        with pytest.raises(ValueError):
            HedgeReport(
                country="x",
                residency=Residency.LOCAL,
                crisis_date="2020-01",
                hedge_effectiveness_pct=120.0,
                mean_erosion_pct=1.0,
                mean_net_real_pct=0.0,
                tail_dependence=0.3,
                tail_dependence_ci=(0.2, 0.4),
                tail_dependence_empirical=0.25,
            )

    def test_ci_must_bracket_point(self):
        with pytest.raises(ValueError, match="bracket"):
            HedgeReport(
                country="x",
                residency=Residency.LOCAL,
                crisis_date="2020-01",
                hedge_effectiveness_pct=10.0,
                mean_erosion_pct=1.0,
                mean_net_real_pct=0.0,
                tail_dependence=0.5,
                tail_dependence_ci=(0.1, 0.3),
                tail_dependence_empirical=0.25,
            )


class TestBuildHedgeReport:
    def build_inputs(self, n=24, seed=86):
        # Moments tuned so the row comes out (HE 0.0, erosion 4.12, net -0.38,
        # tail dependence 0.34): net deviations are double the loss deviations
        # so the variance ratio is 4 and the score clamps at zero.
        rng = np.random.default_rng(seed)
        months = months_from("2021-01", n)
        dev = rng.normal(0.0, 0.01, n)
        dev -= dev.mean()
        loss_values = 0.0412 + dev
        nominal = 0.0374 + 2.0 * dev
        returns = ReturnSeries(
            months=months,
            nominal=nominal,
            real_domestic=nominal,
            real_foreign=nominal,
            pi=loss_values * 0.6,
            fx_ret=loss_values * 0.4,
        )
        episode = SimpleNamespace(country="turkey", crisis_month="2021-01")
        return episode, returns

    def test_reconstructed_table_row(self):
        episode, returns = self.build_inputs()
        report = build_hedge_report(
            episode,
            returns,
            Residency.FOREIGN,
            fit_with(0.34, ci=(0.21, 0.47)),
            0.31,
        )
        assert report.hedge_effectiveness_pct == 0.0
        assert report.mean_erosion_pct == pytest.approx(4.12, abs=1e-9)
        assert report.mean_net_real_pct == pytest.approx(-0.38, abs=1e-9)
        assert report.tail_dependence == pytest.approx(0.34)
        assert report.tail_dependence_empirical == pytest.approx(0.31)
        assert report.country == "turkey"
        assert report.residency is Residency.FOREIGN

    def test_net_mean_obeys_subtraction_identity(self):
        episode, returns = self.build_inputs(seed=87)
        for residency in Residency:
            report = build_hedge_report(
                episode, returns, residency, fit_with(0.3, ci=(0.2, 0.4)), 0.25
            )
            loss = loss_series(returns, residency)
            expected = 100.0 * (float(np.mean(returns.nominal)) - float(np.mean(loss)))
            assert report.mean_net_real_pct == pytest.approx(expected, abs=1e-12)
            assert report.mean_erosion_pct == 100.0 * float(np.mean(loss))
            assert report.residency is residency

    def test_missing_ci_rejected(self):
        episode, returns = self.build_inputs()
        with pytest.raises(DataError, match="confidence"):
            build_hedge_report(episode, returns, Residency.LOCAL, fit_with(0.3), 0.25)

    def test_all_zero_inputs_surface_degenerate_loss(self):
        months = months_from("2021-01", 12)
        zeros = np.zeros(12)
        returns = ReturnSeries(
            months=months, nominal=zeros, real_domestic=zeros, real_foreign=zeros,
            pi=zeros, fx_ret=zeros,
        )
        episode = SimpleNamespace(country="x", crisis_month="2021-01")
        with pytest.raises(DegenerateSampleError):
            build_hedge_report(
                episode, returns, Residency.LOCAL, fit_with(0.0, ci=(0.0, 0.0)), 0.0
            )
