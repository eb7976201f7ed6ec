import logging
from itertools import compress

import numpy as np
import pytest

from crisishedge import months as mo
from crisishedge.dataio import MacroSeries
from crisishedge.errors import DataError
from crisishedge.returns import (
    build_return_series,
    real_return_domestic,
    real_return_foreign,
)

from conftest import make_series


class TestSingleLegFormulas:
    def test_nominal(self):
        series = build_return_series(
            make_series("eq", [100.0, 110.0]),
            make_series("fx", [1.0, 1.0]),
            make_series("pi", [0.0, 0.0]),
        )
        assert series.nominal == pytest.approx([0.10])

    def test_domestic_deflation_only(self):
        assert real_return_domestic(0.0, 0.25) == pytest.approx(-0.2)

    def test_domestic_fisher(self):
        assert real_return_domestic(0.21, 0.10) == pytest.approx(0.10)

    def test_domestic_differs_from_additive_approximation(self):
        # r - pi would give 0.30; the exact Fisher form gives 0.25, and for
        # these inputs the division is exact in binary.
        assert real_return_domestic(0.5, 0.2) == 0.25

    def test_foreign_depreciation_cancels_gain(self):
        # 1.21 * (2.0/2.2) / 1.10 - 1 = 0 in real arithmetic; the FX ratio
        # itself is not representable, so allow one ulp.
        assert real_return_foreign(0.21, 2.0, 2.2, 0.10) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_foreign_with_flat_fx_matches_domestic_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = float(rng.uniform(-0.5, 0.5))
            pi = float(rng.uniform(-0.3, 0.5))
            e = float(rng.uniform(0.1, 100.0))
            assert real_return_foreign(r, e, e, pi) == real_return_domestic(r, pi)

    def test_fisher_identity_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            r = float(rng.uniform(-0.9, 2.0))
            pi = float(rng.uniform(-0.5, 3.0))
            e_prev = float(rng.uniform(0.01, 50.0))
            e_t = float(rng.uniform(0.01, 50.0))
            dom = real_return_domestic(r, pi)
            assert (1.0 + dom) * (1.0 + pi) == pytest.approx(1.0 + r, abs=1e-12)
            for_ = real_return_foreign(r, e_prev, e_t, pi)
            assert (1.0 + for_) * (1.0 + pi) * (e_t / e_prev) == pytest.approx(
                1.0 + r, abs=1e-12
            )

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            real_return_domestic(0.1, -1.0)
        with pytest.raises(ValueError):
            real_return_foreign(0.1, 0.0, 1.0, 0.1)


class TestSeriesComposition:
    def test_flat_fx_composition(self):
        equity = make_series("eq", [100.0, 110.0])
        fx = make_series("fx", [1.0, 1.0])
        pi = make_series("pi", [0.10, 0.10])
        series = build_return_series(equity, fx, pi)
        assert series.months == ("2020-02",)
        assert series.nominal == pytest.approx([0.10])
        assert series.real_domestic == pytest.approx([0.0])
        assert series.real_foreign == pytest.approx([0.0])

    def test_per_leg_arithmetic(self):
        equity = make_series("eq", [100.0, 121.0])
        fx = make_series("fx", [2.0, 2.2])
        pi = make_series("pi", [0.10, 0.10])
        series = build_return_series(equity, fx, pi)
        assert series.nominal == pytest.approx([0.21])
        assert series.real_domestic == pytest.approx([0.10])
        assert series.real_foreign == pytest.approx([0.0])

    def test_gap_months_are_skipped_with_warning(self, caplog):
        equity = MacroSeries("eq", ("2020-01", "2020-02", "2020-04"), (100.0, 110.0, 121.0))
        fx = make_series("fx", [1.0, 1.0, 1.0, 1.0], start="2020-01")
        pi = make_series("pi", [0.0, 0.0, 0.0, 0.0], start="2020-01")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months == ("2020-02",)
        assert any("2020-04" in r.message for r in caplog.records)

    def test_months_without_inflation_are_dropped(self, caplog):
        equity = make_series("eq", [100.0, 110.0, 121.0])
        fx = make_series("fx", [1.0, 1.0, 1.0])
        pi = make_series("pi", [0.1], start="2020-02")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months == ("2020-02",)

    def test_no_usable_months_is_an_error(self):
        equity = make_series("eq", [100.0])
        fx = make_series("fx", [1.0])
        with pytest.raises(DataError):
            build_return_series(equity, fx, make_series("pi", [0.1]))

    def test_window_restricts_months(self):
        equity = make_series("eq", [100.0, 110.0, 121.0, 133.1])
        fx = make_series("fx", [1.0, 1.0, 1.0, 1.0])
        pi = make_series("pi", [0.0, 0.0, 0.0, 0.0])
        series = build_return_series(equity, fx, pi)
        w = series.window("2020-03", "2020-03")
        assert w.months == ("2020-03",)
        assert w.nominal == pytest.approx([0.10])


def drop_month(series, month):
    kept = np.array(series.stamps) != month
    return MacroSeries(series.name, tuple(compress(series.stamps, kept)), series.values[kept])


class TestAlignment:
    """Equity, FX and inflation meet through ``MacroSeries.at``."""

    def levels(self):
        equity = make_series("eq", [100.0, 104.0, 99.0, 103.0, 110.0, 108.0])
        fx = make_series("fx", [2.0, 2.1, 2.3, 2.2, 2.6, 2.7])
        pi = make_series("pi", [0.01, 0.02, 0.015, 0.03, 0.025, 0.01])
        return equity, fx, pi

    def reference(self, equity, fx, pi, months):
        """The per-month formulas, applied one month at a time."""
        e, f, p = (dict(zip(s.stamps, s.values.tolist())) for s in (equity, fx, pi))
        rows = []
        for m in months:
            prev = mo.shift_month(m, -1)
            r = e[m] / e[prev] - 1.0
            rows.append((
                r,
                real_return_domestic(r, p[m]),
                real_return_foreign(r, f[prev], f[m], p[m]),
                p[m],
                f[m] / f[prev] - 1.0,
            ))
        return [np.array(col) for col in zip(*rows)]

    def assert_matches_reference(self, series, equity, fx, pi):
        expected = self.reference(equity, fx, pi, series.months)
        for label, values in zip(
            ("nominal", "real_domestic", "real_foreign", "pi", "fx_ret"), expected
        ):
            np.testing.assert_array_equal(getattr(series, label), values, err_msg=label)

    def test_complete_panel_matches_per_month_formulas(self, caplog):
        equity, fx, pi = self.levels()
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months == equity.stamps[1:]
        self.assert_matches_reference(series, equity, fx, pi)
        assert not caplog.records

    def test_equity_gap_skips_the_month_after_it(self, caplog):
        equity, fx, pi = self.levels()
        equity = drop_month(equity, "2020-03")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months == ("2020-02", "2020-05", "2020-06")
        assert [r.getMessage() for r in caplog.records] == [
            "gap before 2020-04 (previous observation 2020-02); skipping return"
        ]
        self.assert_matches_reference(series, equity, fx, pi)

    def test_fx_gap_at_previous_month_skips_return(self, caplog):
        equity, fx, pi = self.levels()
        fx = drop_month(fx, "2020-04")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        # 2020-04 is not a common month; 2020-05 lacks the FX level at m-1.
        assert series.months == ("2020-02", "2020-03", "2020-06")
        assert [r.getMessage() for r in caplog.records] == [
            "gap before 2020-05 (previous observation 2020-03); skipping return"
        ]
        self.assert_matches_reference(series, equity, fx, pi)

    def test_inflation_gap_drops_the_month(self, caplog):
        equity, fx, pi = self.levels()
        pi = drop_month(pi, "2020-04")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months == ("2020-02", "2020-03", "2020-05", "2020-06")
        assert [r.getMessage() for r in caplog.records] == [
            "no inflation for 2020-04; dropping month"
        ]
        self.assert_matches_reference(series, equity, fx, pi)

    def test_first_common_month_has_no_return_and_no_warning(self, caplog):
        equity, fx, pi = self.levels()
        # FX starts a month later than equity: the equity level before the
        # first common month exists, the FX level does not.
        fx = drop_month(fx, "2020-01")
        with caplog.at_level(logging.WARNING, logger="crisishedge.returns"):
            series = build_return_series(equity, fx, pi)
        assert series.months[0] == "2020-03"
        assert not caplog.records

    def test_inflation_at_minus_one_names_the_month(self):
        equity, fx, _ = self.levels()
        pi = make_series("pi", [0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DataError, match="inflation at 2020-03 must exceed -1"):
            build_return_series(equity, fx, pi)

    def test_non_positive_levels_name_the_month(self):
        equity, fx, pi = self.levels()
        bad_fx = make_series("fx", [2.0, 2.1, 0.0, 2.2, 2.6, 2.7])
        with pytest.raises(DataError, match="FX rate must be positive at 2020-03"):
            build_return_series(equity, bad_fx, pi)
        bad_eq = make_series("eq", [100.0, 104.0, 99.0, -3.0, 110.0, 108.0])
        with pytest.raises(DataError, match="non-positive level at 2020-04"):
            build_return_series(bad_eq, fx, pi)

    def test_no_inflation_months_rejected(self):
        equity, fx, _ = self.levels()
        pi = make_series("pi", [0.01, 0.02], start="2023-01")
        with pytest.raises(DataError, match="no months with complete price and inflation"):
            build_return_series(equity, fx, pi)

    def test_no_overlap_rejected(self):
        equity, _, pi = self.levels()
        fx = make_series("fx", [1.0, 1.0], start="2023-01")
        with pytest.raises(DataError, match="no overlapping months"):
            build_return_series(equity, fx, pi)
