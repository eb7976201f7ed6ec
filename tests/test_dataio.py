import csv
import logging
import random

import numpy as np
import pytest

from crisishedge.dataio import (
    ConversionMethod,
    MacroSeries,
    ReliabilityInputs,
    SourceKind,
    fuse_hybrid,
    load_manifest,
    load_panel,
    load_series,
    pct_change,
    reliability_score,
    save_series,
    to_monthly,
)
from crisishedge.errors import ConfigError, DataError
from crisishedge import months as mo
from crisishedge.months import month_indexes, shift_month
from crisishedge.returns import ReturnSeries

from conftest import FIXTURE_ROOT, make_series
from oracles import (
    at_months,
    fuse_hybrid_rows,
    load_series_rows,
    pct_change_validated,
    to_monthly_rows,
    window_validated,
    within,
)


class TestMacroSeries:
    def test_rejects_unsorted_stamps(self):
        with pytest.raises(ValueError, match="increasing"):
            MacroSeries("x", ("2020-02", "2020-01"), (1.0, 2.0))

    def test_rejects_duplicate_stamps(self):
        with pytest.raises(ValueError):
            MacroSeries("x", ("2020-01", "2020-01"), (1.0, 2.0))

    def test_rejects_mixed_precision(self):
        with pytest.raises(ValueError, match="mixes"):
            MacroSeries("x", ("2020-01", "2020-02-03"), (1.0, 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            MacroSeries("x", ("2020-01",), (float("nan"),))

    def test_rejects_non_ascii_digits(self):
        # Full-width digits once passed as a stamp sorting after 2011-08.
        with pytest.raises(ValueError, match="bad date stamp"):
            MacroSeries("x", ("2011-08", "\uff12\uff10\uff11\uff11-07"), (1.0, 2.0))

    def test_rejects_a_day_the_month_lacks(self):
        with pytest.raises(ValueError, match="bad day"):
            MacroSeries("x", ("2011-02-28", "2011-02-29"), (1.0, 2.0))

    def test_rejects_reliability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            MacroSeries("x", ("2020-01",), (1.0,), reliability=1.5)

    def test_rejects_values_not_one_per_stamp(self):
        for values in ((1.0,), (1.0, 2.0, 3.0), ((1.0, 2.0),)):
            with pytest.raises(ValueError, match="^series 'x' has 2 stamps but values of shape"):
                MacroSeries("x", ("2020-01", "2020-02"), values)

    def test_keeps_its_own_copy_of_the_values(self):
        values = np.array([1.0, 2.0])
        s = MacroSeries("x", ("2020-01", "2020-02"), values)
        values[0] = 9.0
        assert list(s.values) == [1.0, 2.0]
        assert values.flags.writeable

    def test_window_is_inclusive(self):
        s = make_series("x", [1, 2, 3, 4], start="2020-01")
        w = s.window("2020-02", "2020-03")
        assert w.stamps == ("2020-02", "2020-03")
        assert list(w.values) == [2.0, 3.0]


class TestCsvRoundtrip:
    def test_values_survive_exactly(self, tmp_path):
        values = [0.1, 1 / 3, 2.0 ** -40, 123456.789]
        s = make_series("x", values)
        path = save_series(s, tmp_path / "x.csv")
        back = load_series(path, name="x")
        assert list(back.values) == values

    def test_duplicate_stamp_names_the_month(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("date,value\n2020-01,1.0\n2020-01,2.0\n")
        with pytest.raises(DataError, match="2020-01"):
            load_series(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,value\n2020-01,1.0\nnot-a-date,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_series(p)

    def test_empty_value_cell_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("date,value\n2020-01,\n")
        with pytest.raises(DataError):
            load_series(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("month,value\n2020-01,1.0\n")
        with pytest.raises(DataError, match="date"):
            load_series(p)


class TestToMonthly:
    def make_daily(self):
        return MacroSeries("d", ("2020-01-05", "2020-01-20", "2020-02-10"), (10.0, 20.0, 40.0))

    def test_last(self):
        m = to_monthly(self.make_daily(), ConversionMethod.LAST)
        assert _pairs(m) == {"2020-01": 20.0, "2020-02": 40.0}

    def test_mean(self):
        m = to_monthly(self.make_daily(), ConversionMethod.MEAN)
        assert _pairs(m) == {"2020-01": 15.0, "2020-02": 40.0}

    def test_linear_interp_fills_gap_months(self):
        m = to_monthly(MacroSeries("d", ("2020-01-31", "2020-04-30"), (10.0, 40.0)), "linear_interp")
        assert _pairs(m) == {
            "2020-01": 10.0, "2020-02": 20.0, "2020-03": 30.0, "2020-04": 40.0,
        }

    def test_identity_on_monthly_input(self):
        s = make_series("x", [1.0, 2.0])
        assert _pairs(to_monthly(s, ConversionMethod.LAST)) == _pairs(s)


class TestReliability:
    def test_weighted_combination(self):
        inputs = ReliabilityInputs(
            timeliness=0.75, revision_volatility=0.5, crosscheck_error=0.5
        )
        assert reliability_score(inputs) == pytest.approx(0.6, abs=1e-12)

    def test_perfect_source(self):
        inputs = ReliabilityInputs(1.0, 0.0, 0.0)
        assert reliability_score(inputs) == 1.0

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            ReliabilityInputs(1.2, 0.0, 0.0)


class TestFuseHybrid:
    def test_convex_combination(self):
        a = make_series("official", [10.0])
        p = make_series("proxy", [20.0])
        fused = fuse_hybrid(a, p, 0.6, name="hybrid")
        assert _pairs(fused) == {"2020-01": 14.0}
        assert fused.source_kind is SourceKind.HYBRID
        assert fused.reliability == 0.6

    def test_single_source_months_pass_through(self, caplog):
        a = make_series("official", [10.0, 11.0], start="2020-01")
        p = make_series("proxy", [20.0], start="2020-02")
        with caplog.at_level(logging.INFO, logger="crisishedge.dataio"):
            fused = fuse_hybrid(a, p, 0.5)
        assert _pairs(fused) == {"2020-01": 10.0, "2020-02": 15.5}
        assert any("official only" in r.message for r in caplog.records)

    def test_q_validation(self):
        a = make_series("a", [1.0])
        with pytest.raises(ValueError):
            fuse_hybrid(a, a, 1.5)

    def test_day_stamped_input_rejected(self):
        daily = MacroSeries("d", ("2020-01-05",), (1.0,))
        with pytest.raises(DataError):
            fuse_hybrid(daily, daily, 0.5)


def idx(*months):
    return month_indexes(months)


class TestLaggedLookup:
    def series(self):
        # 2020-03 is not observed.
        return MacroSeries("s", ("2020-01", "2020-02", "2020-04", "2020-05"), (1.0, 2.0, 4.0, 5.0))

    def test_same_month_values_and_gaps(self):
        got = self.series().at(idx("2020-02", "2020-03", "2020-05"))
        np.testing.assert_array_equal(got, [2.0, np.nan, 5.0])

    def test_lag_reads_earlier_months(self):
        got = self.series().at(idx("2020-02", "2020-04", "2020-05", "2021-01"), lag=1)
        np.testing.assert_array_equal(got, [1.0, np.nan, 4.0, np.nan])

    def test_lag_before_first_month_is_nan(self):
        got = self.series().at(idx("2020-01", "2020-02", "2020-03"), lag=2)
        np.testing.assert_array_equal(got, [np.nan, np.nan, 1.0])

    def test_months_after_last_observation_are_nan(self):
        got = self.series().at(idx("2020-06", "2019-12"))
        assert np.isnan(got).all()

    def test_year_boundary(self):
        s = make_series("s", [1.0, 2.0], start="2019-12")
        np.testing.assert_array_equal(s.at(idx("2020-01"), lag=1), [1.0])

    def test_empty_series_and_empty_query(self):
        empty = MacroSeries("e", (), ())
        assert np.isnan(empty.at(idx("2020-01", "2020-02"), lag=1)).all()
        assert self.series().at(idx()).shape == (0,)

    def test_day_stamped_series_rejected(self):
        s = MacroSeries("d", ("2020-01-03",), (1.0,))
        with pytest.raises(DataError, match="day-stamped"):
            s.at(idx("2020-01"))

    def test_window_looks_up_its_own_months(self):
        s = self.series()
        s.at(idx("2020-01"))
        w = s.window("2020-02", "2020-04")
        got = w.at(idx("2020-01", "2020-02", "2020-04"))
        np.testing.assert_array_equal(got, [np.nan, 2.0, 4.0])
        assert _bits(w) == _bits(MacroSeries("s", ("2020-02", "2020-04"), (2.0, 4.0)))


class TestPctChange:
    def test_levels_to_fractions(self):
        s = make_series("idx", [100.0, 110.0, 99.0])
        r = pct_change(s)
        assert r.values == pytest.approx([0.1, 99.0 / 110.0 - 1.0])
        assert r.unit == "fraction/month"

    def test_gap_months_propagate_as_gaps(self):
        s = MacroSeries("idx", ("2020-01", "2020-03", "2020-04"), (100.0, 110.0, 121.0))
        r = pct_change(s)
        # 2020-03 has no prior month observed, so no jump is synthesized.
        assert r.stamps == ("2020-04",)
        assert r.values == pytest.approx([0.1])

    def test_rejects_non_positive_levels(self):
        s = make_series("idx", [100.0, -1.0])
        with pytest.raises(DataError):
            pct_change(s)

    def test_non_positive_level_names_its_month(self):
        s = make_series("idx", [100.0, 110.0, 0.0, 120.0])
        with pytest.raises(DataError, match="non-positive level at 2020-03 in series 'idx'"):
            pct_change(s)

    def test_a_change_too_large_for_a_float_is_rejected(self):
        # Stored as inf, it would break the finite values ``at`` relies on.
        s = MacroSeries("cpi", ("2020-01", "2020-02"), (1e-300, 1e10))
        for change in (pct_change, pct_change_validated):
            with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^non-finite value at 2020-02 in series 'cpi_pct'$"
            ):
                change(s)

    def test_values_are_level_over_previous_level_minus_one(self):
        s = make_series("idx", [3.0, 7.0, 11.0, 13.0])
        levels = [3.0, 7.0, 11.0, 13.0]
        expected = [b / a - 1.0 for a, b in zip(levels, levels[1:])]
        assert list(pct_change(s).values) == expected


class TestManifest:
    def test_fixture_manifest_loads_fused_panel(self, fixture_root):
        manifest = load_manifest(fixture_root / "clayton_coupled" / "manifest.yaml")
        panel = load_panel(manifest)
        assert manifest.roles["inflation"] == "cpi_rate"
        fused = panel["cpi_rate"]
        assert fused.source_kind is SourceKind.HYBRID
        # q from the reliability block: 0.4*0.8 + 0.3*(1-0.3) + 0.3*(1-0.2)
        assert fused.reliability == pytest.approx(0.77)
        official = _pairs(panel["cpi_official"])
        proxy = _pairs(panel["cpi_proxy"])
        got = _pairs(fused)
        for m in list(got)[:5]:
            assert got[m] == pytest.approx(0.77 * official[m] + 0.23 * proxy[m])

    def test_unknown_role_reference_rejected(self, tmp_path):
        (tmp_path / "m.yaml").write_text(
            "schema_version: 1\n"
            "series: [{name: a, path: a.csv}]\n"
            "roles: {equity: a, fx: a, inflation: ghost}\n"
        )
        with pytest.raises(ConfigError, match="ghost"):
            load_manifest(tmp_path / "m.yaml")

    def test_missing_role_rejected(self, tmp_path):
        (tmp_path / "m.yaml").write_text(
            "schema_version: 1\n"
            "series: [{name: a, path: a.csv}]\n"
            "roles: {equity: a, fx: a}\n"
        )
        with pytest.raises(ConfigError, match="inflation"):
            load_manifest(tmp_path / "m.yaml")

    def test_wrong_schema_version_rejected(self, tmp_path):
        (tmp_path / "m.yaml").write_text("schema_version: 99\nroles: {}\n")
        with pytest.raises(ConfigError, match="schema_version"):
            load_manifest(tmp_path / "m.yaml")


def test_mutating_returned_values_leaves_series_intact():
    s = make_series("x", [1.0, 2.0])
    arr = s.values
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 9.0
    assert list(s.values) == [1.0, 2.0]


def _pairs(series):
    """A series' values by stamp."""
    return dict(zip(series.stamps, series.values.tolist()))


def _oracle_view(series):
    return series.stamps, np.asarray(series.values).tobytes(), series.is_monthly


def _rows_view(rows):
    stamps, values, is_monthly = rows
    return stamps, np.asarray(values, dtype=float).tobytes(), is_monthly


def _write(path, header, rows, *, newline="\n", pad=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(header)
        writer.writerows([f"  {c}\t" if pad and c else c for c in row] for row in rows)
    return path


def _random_rows(rng, *, days=False, n=40):
    start = rng.randrange(1990 * 12, 2030 * 12)
    months = sorted(rng.sample(range(start, start + 3 * n), n))  # with gaps
    stamps = []
    for m in months:
        stamp = f"{m // 12:04d}-{m % 12 + 1:02d}"
        stamps.append(f"{stamp}-{rng.randrange(1, 29):02d}" if days else stamp)
    rows = [[s, repr(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-12, 12))] for s in stamps]
    rng.shuffle(rows)
    return rows


class TestLoaderMatchesRowOracle:
    """``load_series`` against the row-at-a-time reference in ``oracles``."""

    @pytest.mark.parametrize(
        "path", sorted(FIXTURE_ROOT.glob("*/*.csv")), ids=lambda p: f"{p.parent.name}/{p.name}"
    )
    def test_fixture_series(self, path):
        assert _oracle_view(load_series(path)) == _rows_view(load_series_rows(path))

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_series(self, tmp_path, seed):
        rng = random.Random(seed)
        days = seed % 2 == 1
        rows, header = _random_rows(rng, days=days), ["date", "value"]
        if seed > 2:
            rows, header = [[v, d, "n"] for d, v in rows], ["value", "date", "note"]
            rows[-1].pop()  # a short row
        rows[0].append("extra")
        for k in sorted(rng.sample(range(len(rows)), 3), reverse=True):
            rows.insert(k, ["", ""] if k % 2 else [])  # empty cells, blank lines
        path = _write(
            tmp_path / "g.csv", header, rows,
            newline="\r\n" if seed % 3 == 0 else "\n", pad=seed % 2 == 0,
        )
        got = load_series(path)
        assert _oracle_view(got) == _rows_view(load_series_rows(path))
        if days:
            want = MacroSeries("g", *load_series_rows(path)[:2])
            for method in ConversionMethod:
                assert _bits(to_monthly(got, method)) == _bits(to_monthly(want, method))

    @pytest.mark.parametrize(
        "rows",
        [
            [["2020-01", "1.0"], ["2020-02", ""]],
            [["2020-01", "1.0"], ["", "2.0"]],
            [["2020-01", "1.0"], ["2020-02"]],
            [["2020-03", "1.0"], ["2020-01", "2.0"], ["2020-03", "3.0"]],
            [["2020-01", "1.0"], ["2020-02", "nan"]],
            [["2020-01", "1.0"], ["2020-02", "-inf"]],
            [["2020-01", "1.0"], ["2020-02", "1e999"]],
            [["2020-01", "1.0"], ["2020-02", "1,5"]],
            [["2020-01", "1.0"], ["2020-13", "2.0"]],
            [["2020-01", "1.0"], ["2020/02", "2.0"]],
            [["2020-01", "1.0"], ["\uff12\uff10\uff12\uff10-02", "2.0"]],
            [["2020-01-31", "1.0"], ["2020-02-30", "2.0"]],
            [["2020-01", "1.0"], ["2020-02-03", "2.0"]],
            [["2020-01-01", "1.0"], ["2020-01", "2.0"], ["2020-01-01", "3.0"]],
            [["2020-01", "1.0"], [], ["2020-02", "x"], ["2020-0", "inf"]],
            [["2020-01", "nan"], [], ["2020-0", "1.0"]],
        ],
    )
    def test_rejections_match(self, tmp_path, rows):
        path = _write(tmp_path / "bad.csv", ["date", "value"], rows)
        with pytest.raises(DataError) as want:
            load_series_rows(path)
        with pytest.raises(DataError) as got:
            load_series(path)
        assert str(got.value) == str(want.value)

    def test_repeated_column_name_reads_its_last_column(self, tmp_path):
        rows = [["2020-02", "9.0", "2.0"], ["2020-01", "8.0", "1.0"], ["2020-03", "7.0"]]
        path = _write(tmp_path / "rep.csv", ["date", "value", "value"], rows)
        with pytest.raises(DataError) as want:
            load_series_rows(path)
        with pytest.raises(DataError) as got:
            load_series(path)
        assert str(got.value) == str(want.value)
        path = _write(tmp_path / "rep.csv", ["date", "value", "value"], rows[:2])
        assert _oracle_view(load_series(path)) == _rows_view(load_series_rows(path))

    def test_missing_column_matches(self, tmp_path):
        path = _write(tmp_path / "cols.csv", ["month", "value"], [["2020-01", "1.0"]])
        with pytest.raises(DataError) as want:
            load_series_rows(path)
        with pytest.raises(DataError) as got:
            load_series(path)
        assert str(got.value) == str(want.value)


class TestBisectWindows:
    """``window`` slices by ``bisect``; the reference filters by ``within``."""

    def series(self, rng, days):
        stamps, values = zip(*sorted(_random_rows(rng, days=days, n=30)))
        return MacroSeries(
            "s", stamps, np.array(values, dtype=float),
            unit="u", source_kind=SourceKind.PROXY, reliability=0.25,
        )

    def bounds(self, rng, stamps):
        """Two of: None, a stamp, a month beside one (gap months among them), far bounds."""
        months = {s[:7] for s in stamps}
        beside = {shift_month(m, k) for m in months for k in (-1, 1)}
        pool = [None, "0000-01", "9999-12", *stamps, *sorted(months | beside)]
        return rng.choice(pool), rng.choice(pool)

    @pytest.mark.parametrize("days", [False, True])
    def test_macro_series(self, days):
        rng = random.Random(7 + days)
        for _ in range(60):
            s = self.series(rng, days)
            start, end = self.bounds(rng, s.stamps)
            rows = zip(s.stamps, s.values.tolist())
            want = [(d, v) for d, v in rows if within(d, start, end)]
            w = s.window(start, end)
            assert list(zip(w.stamps, w.values.tolist())) == want
            # Empty windows of a day-stamped series are among these.
            assert _bits(w) == _bits(_rebuilt(w)) == _bits(window_validated(s, start, end))

    def test_return_series(self):
        rng = random.Random(11)
        for _ in range(60):
            s = self.series(rng, False)
            values = np.abs(s.values) / (1.0 + np.abs(s.values))
            r = ReturnSeries(s.stamps, values, values / 2, values / 3, values / 4, values / 5)
            start, end = self.bounds(rng, s.stamps)
            keep = [i for i, m in enumerate(r.months) if within(m, start, end)]
            w = r.window(start, end)
            assert w.months == tuple(r.months[i] for i in keep)
            np.testing.assert_array_equal(w.month_index, month_indexes(w.months))
            for label in ("nominal", "real_domestic", "real_foreign", "pi", "fx_ret"):
                np.testing.assert_array_equal(getattr(w, label), getattr(r, label)[keep])


def _bits(series):
    """Everything a series holds, its arrays as bits with their dtypes and write flags."""
    return (
        series.name, series.stamps, series.month_index.dtype, series.month_index.tobytes(),
        series.values.dtype, series.values.tobytes(), series.values.flags.writeable,
        series.unit, series.source_kind, series.reliability, series.is_monthly,
    )


def _rebuilt(series):
    """``series`` built again from its stamps and values, through every check."""
    return MacroSeries(
        series.name, series.stamps, series.values, series.unit, series.source_kind,
        series.reliability,
    )


def _outcome(caplog, fn, *args, **kwargs):
    """``fn``'s series (or error) and the (level, message) of each record it logs."""
    caplog.clear()
    with caplog.at_level(logging.INFO):
        try:
            got = _bits(fn(*args, **kwargs))
        except (DataError, ValueError) as exc:
            got = (type(exc), str(exc))
    return got, [(r.levelno, r.getMessage()) for r in caplog.records]


def _random_months(rng, lo, hi, share):
    """A random subset of the month indexes in [lo, hi), as month stamps."""
    picked = [m for m in range(lo, hi) if rng.random() < share]
    return [f"{m // 12:04d}-{m % 12 + 1:02d}" for m in picked]


def _random_value(rng):
    return rng.choice([-0.0, 0.0, rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-12, 12)])


def _random_series(rng, name, stamps, **fields):
    return MacroSeries(name, stamps, [_random_value(rng) for _ in stamps], **fields)


class TestMonthRunsMatchRowOracle:
    """``to_monthly`` and ``fuse_hybrid`` against the per-month dict references."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("method", list(ConversionMethod))
    def test_to_monthly_day_stamped(self, caplog, seed, method):
        rng = random.Random(seed)
        for _ in range(10):
            start = rng.randrange(1990 * 12, 2030 * 12)
            stamps, values = [], []
            for month in _random_months(rng, start, start + rng.randrange(1, 40), 0.6):
                for day in sorted(rng.sample(range(1, 29), rng.randint(1, 5))):
                    stamps.append(f"{month}-{day:02d}")
                    values.append(_random_value(rng))
            s = MacroSeries("d", stamps, values, unit="u", reliability=0.5)
            want = _outcome(caplog, to_monthly_rows, s, method)
            assert _outcome(caplog, to_monthly, s, method) == want

    @pytest.mark.parametrize("method", list(ConversionMethod))
    def test_to_monthly_monthly_and_empty(self, caplog, method):
        rng = random.Random(3)
        for months in (_random_months(rng, 24000, 24060, 0.5), []):
            s = MacroSeries("m", months, [_random_value(rng) for _ in months])
            want = _outcome(caplog, to_monthly_rows, s, method.value)
            assert _outcome(caplog, to_monthly, s, method.value) == want

    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_fuse_hybrid(self, caplog, seed, q):
        rng = random.Random(seed)
        for k in range(12):
            start = rng.randrange(1990 * 12, 2030 * 12)
            share = (0.0, 0.3, 0.9)[k % 3]  # an empty source, sparse, dense
            sources = [
                _random_series(rng, label, _random_months(rng, start, start + 50, p), unit=unit)
                for label, p, unit in (
                    ("official", share, "pct"),
                    ("proxy", rng.choice([0.0, 0.5, 1.0]), rng.choice(["", "pct", "bp"])),
                )
            ]
            want = _outcome(caplog, fuse_hybrid_rows, *sources, q, name="hybrid")
            assert _outcome(caplog, fuse_hybrid, *sources, q, name="hybrid") == want
            want = _outcome(caplog, fuse_hybrid_rows, *sources[::-1], q)
            assert _outcome(caplog, fuse_hybrid, *sources[::-1], q) == want


class TestDerivedSeriesMatchValidatingOracles:
    """``pct_change`` and ``at`` on month indexes against the oracles that parse stamps."""

    def levels(self, rng, *, bad=False):
        start = rng.randrange(1990 * 12, 2030 * 12)
        share = rng.choice([0.3, 0.7, 1.0])
        picked = _random_months(rng, start, start + rng.randrange(1, 60), share)
        values = [rng.uniform(0.5, 2.0) * 10.0 ** rng.randrange(-6, 6) for _ in picked]
        if bad and values:
            values[rng.randrange(len(values))] = rng.choice([0.0, -1.0])
        return MacroSeries(
            "lvl", picked, values, unit="idx", source_kind="proxy", reliability=0.8
        )

    def some_window(self, rng, series):
        pool = [None, *series.stamps]
        return series.window(rng.choice(pool), rng.choice(pool))

    @pytest.mark.parametrize("seed", range(6))
    def test_pct_change(self, caplog, seed):
        rng = random.Random(seed)
        for k in range(20):
            s = self.levels(rng, bad=k % 5 == 4)
            name = rng.choice([None, "rate"])
            want = _outcome(caplog, pct_change_validated, s, name=name)
            assert _outcome(caplog, pct_change, s, name=name) == want
            if k % 5 == 4:
                continue
            for got in (pct_change(s), pct_change(self.some_window(rng, s))):
                assert _bits(got) == _bits(_rebuilt(got))

    @pytest.mark.parametrize("seed", range(6))
    def test_at_on_month_indexes(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            s = self.levels(rng)
            lo = (int(s.month_index[0]) if len(s) else 24000) - 3
            query = _random_months(rng, lo, lo + 70, 0.5)
            rng.shuffle(query)
            for series in (s, self.some_window(rng, s), pct_change(s)):
                for lag in (0, 1, 2, 5, -1):
                    got = series.at(month_indexes(query), lag)
                    # Equal bits put the NaNs in the same places.
                    assert got.tobytes() == at_months(series, query, lag).tobytes()
        daily = MacroSeries("d", ("2020-01-03",), (1.0,))
        with pytest.raises(DataError) as want:
            at_months(daily, ["2020-01"])
        with pytest.raises(DataError) as got:
            daily.at(month_indexes(["2020-01"]))
        assert str(got.value) == str(want.value)

    def test_derived_series_check_no_stamp_again(self, monkeypatch):
        s = make_series("lvl", [1.0, 2.0, 4.0, 8.0], unit="idx")  # 2020-01 .. 2020-04
        r = ReturnSeries(s.stamps, *np.full((5, 4), 0.01))
        daily = MacroSeries("d", ("2020-01-03", "2020-01-28", "2020-03-28"), (3.0, 1.0, 5.0))
        proxy = make_series("proxy", [10.0, 20.0], start="2020-04")

        def refuse(stamps):
            raise AssertionError(f"stamps checked again: {list(stamps)}")

        monkeypatch.setattr(mo, "month_indexes", refuse)
        monkeypatch.setattr(mo, "stamp_indexes", refuse)
        w = s.window("2020-02", None)
        assert w.stamps == ("2020-02", "2020-03", "2020-04")
        assert pct_change(w).values.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(w.at(s.month_index, lag=1), [np.nan, np.nan, 2.0, 4.0])
        assert r.window("2020-03", None).months == ("2020-03", "2020-04")
        monthly = {method: to_monthly(daily, method) for method in ConversionMethod}
        assert _pairs(monthly[ConversionMethod.LAST]) == {"2020-01": 1.0, "2020-03": 5.0}
        assert _pairs(monthly[ConversionMethod.MEAN]) == {"2020-01": 2.0, "2020-03": 5.0}
        assert _pairs(monthly[ConversionMethod.LINEAR_INTERP]) == {
            "2020-01": 1.0, "2020-02": 3.0, "2020-03": 5.0,
        }
        assert all(m.is_monthly for m in monthly.values())
        # 2020-04 is in both sources; the other months are in one.
        fused = fuse_hybrid(s, proxy, 0.25)
        assert _pairs(fused) == {
            "2020-01": 1.0, "2020-02": 2.0, "2020-03": 4.0, "2020-04": 9.5, "2020-05": 20.0,
        }
        np.testing.assert_array_equal(fused.at(proxy.month_index), [9.5, 20.0])
