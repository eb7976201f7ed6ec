"""Loss composition, variance-reduction scoring, and report assembly."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from crisishedge.copula import CopulaFamily, CopulaFit
from crisishedge.errors import DataError, DegenerateSampleError
from crisishedge.hedge import (
    HedgeReport,
    LossSeries,
    Residency,
    build_hedge_report,
    hedge_effectiveness,
    loss_series,
    net_real_return,
)
from crisishedge.returns import ReturnSeries

from conftest import make_series


def months_from(start: str, n: int) -> tuple[str, ...]:
    from crisishedge import months as mo

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


class TestLossSeries:
    def test_at_takes_exactly_the_requested_months(self):
        pi = make_series("cpi_rate", [0.01 * k for k in range(6)])
        out = loss_series(pi, None, Residency.LOCAL)
        picked = out.at(("2020-02", "2020-05"))
        assert picked.months == ("2020-02", "2020-05")
        np.testing.assert_array_equal(picked.loss, [0.01, 0.04])
        with pytest.raises(DataError, match="lack 1 requested month"):
            out.at(("2020-02", "2021-01"))

    def test_local_mean_erosion_equals_mean_inflation(self):
        pi = make_series("cpi_rate", [0.0205] * 12)
        out = loss_series(pi, None, Residency.LOCAL)
        assert float(np.mean(out.loss)) == pytest.approx(0.0205)
        assert np.all(out.fx_ret == 0.0)
        np.testing.assert_array_equal(out.loss, out.pi)

    def test_foreign_flat_fx_and_zero_inflation(self):
        pi = make_series("cpi_rate", [0.0] * 6, start="2020-02")
        fx = make_series("fx_usd", [4.0] * 7, start="2020-01")
        out = loss_series(pi, fx, Residency.FOREIGN)
        np.testing.assert_allclose(out.loss, 0.0)

    def test_foreign_additive_composition(self):
        pi = make_series("cpi_rate", [0.02], start="2020-02")
        fx = make_series("fx_usd", [1.00, 1.05], start="2020-01")
        out = loss_series(pi, fx, Residency.FOREIGN)
        assert out.months == ("2020-02",)
        assert out.loss[0] == pytest.approx(0.02 + 0.05)
        assert out.pi[0] == pytest.approx(0.02)
        assert out.fx_ret[0] == pytest.approx(0.05)

    def test_foreign_skips_months_without_prior_fx_level(self):
        pi = make_series("cpi_rate", [0.01, 0.01, 0.01], start="2020-01")
        fx = make_series("fx_usd", [2.0, 2.1, 2.2], start="2020-01")
        out = loss_series(pi, fx, Residency.FOREIGN)
        assert out.months == ("2020-02", "2020-03")

    def test_foreign_fx_gap_drops_the_months_it_feeds(self):
        from crisishedge.dataio import MacroSeries

        pi = make_series("cpi_rate", [0.01, 0.02, 0.03, 0.04, 0.05], start="2020-02")
        levels = {"2020-01": 2.0, "2020-02": 2.2, "2020-04": 2.5, "2020-05": 2.4, "2020-06": 3.1}
        fx = MacroSeries("fx_usd", tuple(levels.items()))
        out = loss_series(pi, fx, Residency.FOREIGN)
        # 2020-03 has no FX level, 2020-04 none at m-1.
        assert out.months == ("2020-02", "2020-05", "2020-06")
        p = pi.as_dict()
        expected_fx = [
            levels["2020-02"] / levels["2020-01"] - 1.0,
            levels["2020-05"] / levels["2020-04"] - 1.0,
            levels["2020-06"] / levels["2020-05"] - 1.0,
        ]
        assert list(out.fx_ret) == expected_fx
        assert list(out.loss) == [p[m] + r for m, r in zip(out.months, expected_fx)]

    def test_residency_accepts_strings(self):
        pi = make_series("cpi_rate", [0.01] * 4)
        out = loss_series(pi, None, "local")
        assert out.residency is Residency.LOCAL

    def test_foreign_requires_fx(self):
        pi = make_series("cpi_rate", [0.01] * 4)
        with pytest.raises(DataError):
            loss_series(pi, None, Residency.FOREIGN)

    def test_non_positive_fx_level_rejected(self):
        pi = make_series("cpi_rate", [0.01] * 3, start="2020-02")
        fx = make_series("fx_usd", [1.0, -0.5, 1.0, 1.0], start="2020-01")
        with pytest.raises(DataError, match="non-positive level at 2020-02"):
            loss_series(pi, fx, Residency.FOREIGN)

    def test_no_alignment_rejected(self):
        pi = make_series("cpi_rate", [0.01] * 3, start="2020-01")
        fx = make_series("fx_usd", [1.0, 1.1, 1.2], start="2023-01")
        with pytest.raises(DataError, match="align"):
            loss_series(pi, fx, Residency.FOREIGN)

    def test_empty_inflation_rejected(self):
        from crisishedge.dataio import MacroSeries

        pi = MacroSeries(name="cpi_rate", observations=())
        with pytest.raises(DataError, match="empty"):
            loss_series(pi, None, Residency.LOCAL)

    def test_local_cannot_carry_fx_returns(self):
        months = months_from("2020-01", 3)
        with pytest.raises(ValueError):
            LossSeries(
                months=months,
                loss=np.array([0.01, 0.01, 0.01]),
                residency=Residency.LOCAL,
                pi=np.array([0.01, 0.01, 0.01]),
                fx_ret=np.array([0.0, 0.1, 0.0]),
            )


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
        pi = make_series("cpi_rate", [0.01, 0.02])
        loss = loss_series(pi, None, Residency.LOCAL)
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
        loss = LossSeries(
            months=months,
            loss=loss_values,
            residency=Residency.FOREIGN,
            pi=loss_values * 0.6,
            fx_ret=loss_values * 0.4,
        )
        returns = ReturnSeries(
            months=months,
            nominal=nominal,
            real_domestic=nominal,
            real_foreign=nominal,
        )
        episode = SimpleNamespace(country="turkey", crisis_month="2021-01")
        return episode, returns, loss

    def test_reconstructed_table_row(self):
        episode, returns, loss = self.build_inputs()
        report = build_hedge_report(
            episode,
            returns,
            loss,
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
        episode, returns, loss = self.build_inputs(seed=87)
        report = build_hedge_report(
            episode, returns, loss, fit_with(0.3, ci=(0.2, 0.4)), 0.25
        )
        expected = 100.0 * (float(np.mean(returns.nominal)) - float(np.mean(loss.loss)))
        assert report.mean_net_real_pct == pytest.approx(expected, abs=1e-12)

    def test_window_mismatch_rejected(self):
        episode, returns, loss = self.build_inputs()
        shifted = loss.at(loss.months[1:])
        with pytest.raises(DataError, match="mismatch"):
            build_hedge_report(
                episode, returns, shifted, fit_with(0.3, ci=(0.2, 0.4)), 0.25
            )

    def test_missing_ci_rejected(self):
        episode, returns, loss = self.build_inputs()
        with pytest.raises(DataError, match="confidence"):
            build_hedge_report(episode, returns, loss, fit_with(0.3), 0.25)

    def test_all_zero_inputs_surface_degenerate_loss(self):
        months = months_from("2021-01", 12)
        zeros = np.zeros(12)
        loss = LossSeries(
            months=months, loss=zeros, residency=Residency.LOCAL,
            pi=zeros, fx_ret=zeros,
        )
        returns = ReturnSeries(
            months=months, nominal=zeros, real_domestic=zeros, real_foreign=zeros
        )
        episode = SimpleNamespace(country="x", crisis_month="2021-01")
        with pytest.raises(DegenerateSampleError):
            build_hedge_report(
                episode, returns, loss, fit_with(0.0, ci=(0.0, 0.0)), 0.0
            )
