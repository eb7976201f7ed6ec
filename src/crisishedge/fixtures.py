"""Synthetic country panels with known hedge behaviour.

Each fixture is a complete on-disk bundle (series CSVs, panel manifest,
episode config) whose headline numbers are known by construction:

* ``perfect_hedge``    equity return = inflation + 2e-3 every month, flat FX,
                       so the net real return is constant and hedge
                       effectiveness is exactly 100%.
* ``anti_hedge``       equity return = 1.4e-2 - inflation, flat FX; the net
                       return has four times the loss variance, so
                       effectiveness clamps to exactly 0% with a negative
                       mean net real return for both residencies.
* ``clayton_coupled``  returns and inflation share a Clayton copula with a
                       chosen theta (lower-tail dependence 2^(-1/theta)).
* ``independent``      same marginals, independent draws; the episode pins
                       the tail level at 0.10 so the empirical tail statistic
                       has enough conditioning observations to sit near 0.10.

Generation is reproducible bit for bit: every random stream is a fixed-order
child of one seed, and CSV floats use shortest round-trip formatting.
"""

from __future__ import annotations

import logging
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from . import months as mo
from .config import CONFIG_SCHEMA_VERSION
from .copula import CopulaFamily, simulate_copula
from .dataio import MacroSeries, SourceKind, save_series
from .errors import ConfigError

logger = logging.getLogger(__name__)

LEAD_MONTHS = 6
WINDOW_START = "2012-01"
BASE_EQUITY_LEVEL = 100.0
BASE_FX_LEVEL = 10.0
MIN_FIXTURE_MONTHS = 24


class FixtureKind(str, Enum):
    PERFECT_HEDGE = "perfect_hedge"
    ANTI_HEDGE = "anti_hedge"
    CLAYTON_COUPLED = "clayton_coupled"
    INDEPENDENT = "independent"


def _crisis_offset(n: int) -> int:
    return max(2, min(24, n // 5))


def _ar1(rng: np.random.Generator, n: int, phi: float, scale: float) -> np.ndarray:
    eps = rng.standard_normal(n) * scale
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + eps[i]
        out[i] = acc
    return out


def generate_fixture(
    kind: FixtureKind | str,
    out_dir: str | Path,
    *,
    n: int = 120,
    seed: int = 0,
    theta: float = 2.0,
) -> list[Path]:
    """Write one fixture bundle and return the created file paths.

    ``n`` is the number of analysis-window months; six lead months are added
    so lagged features and the return base month have history.  The random
    streams are drawn in a fixed order (inflation/coupling first, then
    features, then proxy noise), so a given (kind, n, seed, theta) always
    reproduces identical files.
    """
    kind = FixtureKind(kind)
    if n < MIN_FIXTURE_MONTHS:
        raise ConfigError(f"fixture needs at least {MIN_FIXTURE_MONTHS} months, got {n}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    total = n + LEAD_MONTHS
    grid = mo.month_range(
        mo.shift_month(WINDOW_START, -LEAD_MONTHS),
        mo.shift_month(WINDOW_START, n - 1),
    )
    window = grid[LEAD_MONTHS:]
    c = _crisis_offset(n)
    crisis_month = window[c]

    children = np.random.SeedSequence(seed).spawn(4)
    rng_core = np.random.default_rng(children[0])
    rng_features = np.random.default_rng(children[1])
    rng_proxy = np.random.default_rng(children[2])

    # Inflation for every grid month; equity returns for grid[1:].
    fused = False
    if kind in (FixtureKind.PERFECT_HEDGE, FixtureKind.ANTI_HEDGE):
        pi = 0.012 + 0.006 * rng_core.standard_normal(total)
        if kind is FixtureKind.PERFECT_HEDGE:
            returns = pi[1:] + 0.002
        else:
            returns = 0.014 - pi[1:]
        fx_growth = 0.0
    else:
        from scipy import stats  # only fixture generation needs normal quantiles

        fused = True
        fx_growth = 0.001
        if kind is FixtureKind.CLAYTON_COUPLED:
            u, v = simulate_copula(CopulaFamily.CLAYTON, theta, total, rng_core)
        else:
            u = rng_core.random(total)
            v = rng_core.random(total)
        returns = 0.01 + 0.04 * stats.norm.ppf(u[1:])
        pi = 0.012 + 0.006 * stats.norm.ppf(v)

    equity = BASE_EQUITY_LEVEL * np.concatenate([[1.0], np.cumprod(1.0 + returns)])
    fx = BASE_FX_LEVEL * (1.0 + fx_growth) ** np.arange(total)

    policy = 0.10 + 0.01 * _ar1(rng_features, total, 0.8, 0.5)
    m2 = 0.012 + 0.004 * _ar1(rng_features, total, 0.6, 0.5)
    oil = 70.0 * np.exp(np.cumsum(rng_features.standard_normal(total) * 0.03))
    regime = np.zeros(total)
    regime[LEAD_MONTHS + c : LEAD_MONTHS + c + 3] = 1.0

    def series(name: str, values: np.ndarray, unit: str,
               source_kind: SourceKind = SourceKind.OFFICIAL) -> MacroSeries:
        return MacroSeries(
            name=name,
            stamps=grid,
            values=values,
            unit=unit,
            source_kind=source_kind,
        )

    written: list[Path] = []

    def emit(s: MacroSeries, filename: str) -> None:
        written.append(save_series(s, out / filename))

    emit(series("equity_tr_index", equity, "index"), "equity_tr_index.csv")
    emit(series("fx_usd", fx, "lcu_per_usd"), "fx_usd.csv")

    series_blocks = [
        {"name": "equity_tr_index", "path": "equity_tr_index.csv", "unit": "index"},
        {"name": "fx_usd", "path": "fx_usd.csv", "unit": "lcu_per_usd"},
    ]
    fusion_blocks = []
    if fused:
        noise = 1.0 + 1e-4 * rng_proxy.standard_normal(total)
        emit(series("cpi_official", pi, "fraction/month"), "cpi_official.csv")
        emit(
            series("cpi_proxy", pi * noise, "fraction/month", SourceKind.PROXY),
            "cpi_proxy.csv",
        )
        series_blocks += [
            {"name": "cpi_official", "path": "cpi_official.csv", "unit": "fraction/month"},
            {
                "name": "cpi_proxy",
                "path": "cpi_proxy.csv",
                "unit": "fraction/month",
                "source_kind": "proxy",
            },
        ]
        fusion_blocks.append(
            {
                "name": "cpi_rate",
                "actual": "cpi_official",
                "proxy": "cpi_proxy",
                "reliability": {
                    "timeliness": 0.8,
                    "revision_volatility": 0.3,
                    "crosscheck_error": 0.2,
                },
            }
        )
    else:
        emit(series("cpi_rate", pi, "fraction/month"), "cpi_rate.csv")
        series_blocks.append(
            {"name": "cpi_rate", "path": "cpi_rate.csv", "unit": "fraction/month"}
        )

    emit(series("policy_rate", policy, "fraction"), "policy_rate.csv")
    emit(series("m2_growth", m2, "fraction/month"), "m2_growth.csv")
    emit(series("oil_price", oil, "usd"), "oil_price.csv")
    emit(series("regime_break", regime, "flag"), "regime_break.csv")
    series_blocks += [
        {"name": "policy_rate", "path": "policy_rate.csv", "unit": "fraction"},
        {"name": "m2_growth", "path": "m2_growth.csv", "unit": "fraction/month"},
        {"name": "oil_price", "path": "oil_price.csv", "unit": "usd"},
        {"name": "regime_break", "path": "regime_break.csv", "unit": "flag"},
    ]

    manifest_doc = {
        "schema_version": 1,
        "series": series_blocks,
        "fusions": fusion_blocks,
        "roles": {"equity": "equity_tr_index", "fx": "fx_usd", "inflation": "cpi_rate"},
        "inflation_kind": "rate",
    }
    manifest_path = out / "manifest.yaml"
    manifest_path.write_text(
        yaml.safe_dump(manifest_doc, sort_keys=False), encoding="utf-8"
    )
    written.append(manifest_path)

    episode_doc = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "country": kind.value,
        "crisis_date": f"{crisis_month}-15",
        "window_start": window[0],
        "window_end": window[-1],
        "residency": ["local", "foreign"],
        "series_manifest": "manifest.yaml",
        "features": {
            "base": ["policy_rate", "m2_growth", "oil_price"],
            "lags": {"policy_rate": [0, 1], "m2_growth": [1, 3, 6]},
            "event_dummies": {"regime_break": [0, 1]},
            "interactions": [["policy_rate", "m2_growth_lag1"]],
        },
        "bootstrap": {"replications": 1000, "seed": seed},
        "cv": {
            "initial_window": 36,
            "step": 12,
            "force_test_month": crisis_month,
        },
        "criterion": "aic",
    }
    if kind is FixtureKind.INDEPENDENT:
        episode_doc["quantile_override"] = [0.10]
    episode_path = out / "episode.yaml"
    episode_path.write_text(
        yaml.safe_dump(episode_doc, sort_keys=False), encoding="utf-8"
    )
    written.append(episode_path)

    logger.info("fixture %s written to %s (%d files)", kind.value, out, len(written))
    return written
