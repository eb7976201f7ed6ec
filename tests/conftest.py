from __future__ import annotations

import os
from pathlib import Path

import pytest

from crisishedge.dataio import MacroSeries
from crisishedge.months import month_range, shift_month

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "fixtures"
GOLDEN_ROOT = Path(__file__).resolve().parent / "golden"


def make_series(name, values, start="2020-01", unit="", **kwargs):
    months = month_range(start, shift_month(start, len(values) - 1))
    return MacroSeries(
        name=name,
        observations=tuple(zip(months, [float(v) for v in values])),
        unit=unit,
        **kwargs,
    )


@pytest.fixture(scope="session")
def fixture_root():
    assert FIXTURE_ROOT.is_dir(), "shipped fixtures are missing"
    return FIXTURE_ROOT


@pytest.fixture(scope="session")
def golden_root():
    assert GOLDEN_ROOT.is_dir(), "golden files are missing"
    return GOLDEN_ROOT


@pytest.fixture
def one_cpu(monkeypatch):
    """A one-CPU affinity mask: the pipeline runs every stage in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
