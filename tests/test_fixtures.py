"""Synthetic fixture bundles: determinism, structure, and designed regimes."""

from __future__ import annotations

import numpy as np
import pytest

from crisishedge.config import load_episode
from crisishedge.dataio import SourceKind, load_manifest, load_panel
from crisishedge.errors import ConfigError
from crisishedge.fixtures import (
    LEAD_MONTHS,
    MIN_FIXTURE_MONTHS,
    FixtureKind,
    generate_fixture,
)

CORE_FILES = {
    "equity_tr_index.csv",
    "fx_usd.csv",
    "policy_rate.csv",
    "m2_growth.csv",
    "oil_price.csv",
    "regime_break.csv",
    "manifest.yaml",
    "episode.yaml",
}


class TestGeneration:
    def test_minimum_length_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="24"):
            generate_fixture(FixtureKind.PERFECT_HEDGE, tmp_path, n=MIN_FIXTURE_MONTHS - 1)

    def test_kind_accepts_strings(self, tmp_path):
        files = generate_fixture("perfect_hedge", tmp_path, n=30, seed=1)
        assert all(p.exists() for p in files)

    @pytest.mark.parametrize(
        "kind,extra",
        [
            (FixtureKind.PERFECT_HEDGE, {"cpi_rate.csv"}),
            (FixtureKind.ANTI_HEDGE, {"cpi_rate.csv"}),
            (FixtureKind.CLAYTON_COUPLED, {"cpi_official.csv", "cpi_proxy.csv"}),
            (FixtureKind.INDEPENDENT, {"cpi_official.csv", "cpi_proxy.csv"}),
        ],
    )
    def test_file_sets_by_kind(self, tmp_path, kind, extra):
        files = generate_fixture(kind, tmp_path / kind.value, n=36, seed=2)
        assert {p.name for p in files} == CORE_FILES | extra

    def test_bit_identical_regeneration(self, tmp_path):
        a = generate_fixture(FixtureKind.CLAYTON_COUPLED, tmp_path / "a", n=48, seed=11)
        b = generate_fixture(FixtureKind.CLAYTON_COUPLED, tmp_path / "b", n=48, seed=11)
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_seed_changes_content(self, tmp_path):
        a = generate_fixture(FixtureKind.INDEPENDENT, tmp_path / "a", n=48, seed=1)
        b = generate_fixture(FixtureKind.INDEPENDENT, tmp_path / "b", n=48, seed=2)
        changed = [
            pa.name
            for pa, pb in zip(a, b)
            if pa.suffix == ".csv" and pa.read_bytes() != pb.read_bytes()
        ]
        assert changed


class TestGeneratedBundleLoads:
    def test_episode_and_manifest_round_trip(self, tmp_path):
        generate_fixture(FixtureKind.CLAYTON_COUPLED, tmp_path, n=40, seed=3)
        episode = load_episode(tmp_path / "episode.yaml")
        assert episode.country == "clayton_coupled"
        assert episode.window_start < episode.crisis_month <= episode.window_end
        assert episode.cv.force_test_month == episode.crisis_month
        panel = load_manifest(episode.series_manifest)
        series = load_panel(panel)
        assert {"equity_tr_index", "fx_usd", "cpi_rate"} <= set(series)

    def test_fused_inflation_reliability(self, tmp_path):
        generate_fixture(FixtureKind.INDEPENDENT, tmp_path, n=40, seed=4)
        series = load_panel(load_manifest(tmp_path / "manifest.yaml"))
        fused = series["cpi_rate"]
        assert fused.source_kind is SourceKind.HYBRID
        assert fused.reliability == pytest.approx(0.77)

    def test_window_has_lead_history(self, tmp_path):
        generate_fixture(FixtureKind.PERFECT_HEDGE, tmp_path, n=30, seed=5)
        episode = load_episode(tmp_path / "episode.yaml")
        series = load_panel(load_manifest(tmp_path / "manifest.yaml"))
        first_grid = series["equity_tr_index"].stamps[0]
        from crisishedge import months as mo

        assert mo.month_index(episode.window_start) - mo.month_index(first_grid) == LEAD_MONTHS

    def test_perfect_hedge_regime_by_construction(self, tmp_path):
        generate_fixture(FixtureKind.PERFECT_HEDGE, tmp_path, n=40, seed=6)
        series = load_panel(load_manifest(tmp_path / "manifest.yaml"))
        equity = series["equity_tr_index"].values
        pi = series["cpi_rate"].values
        nominal = equity[1:] / equity[:-1] - 1.0
        np.testing.assert_allclose(nominal - pi[1:], 0.002, atol=1e-12)
        fx = series["fx_usd"].values
        assert np.ptp(fx) == 0.0

    def test_anti_hedge_regime_by_construction(self, tmp_path):
        generate_fixture(FixtureKind.ANTI_HEDGE, tmp_path, n=40, seed=7)
        series = load_panel(load_manifest(tmp_path / "manifest.yaml"))
        equity = series["equity_tr_index"].values
        pi = series["cpi_rate"].values
        nominal = equity[1:] / equity[:-1] - 1.0
        np.testing.assert_allclose(nominal + pi[1:], 0.014, atol=1e-12)

    def test_independent_kind_carries_override(self, tmp_path):
        generate_fixture(FixtureKind.INDEPENDENT, tmp_path, n=40, seed=8)
        episode = load_episode(tmp_path / "episode.yaml")
        assert episode.quantile_override == (0.10,)

    def test_regime_break_is_binary_and_spans_crisis(self, tmp_path):
        generate_fixture(FixtureKind.ANTI_HEDGE, tmp_path, n=40, seed=9)
        episode = load_episode(tmp_path / "episode.yaml")
        series = load_panel(load_manifest(tmp_path / "manifest.yaml"))
        regime = series["regime_break"]
        assert set(np.unique(regime.values)) == {0.0, 1.0}
        assert regime.values[regime.stamps.index(episode.crisis_month)] == 1.0
