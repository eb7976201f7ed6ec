from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from crisishedge.config import load_episode
from crisishedge.dataio import MacroSeries
from crisishedge.months import month_range, shift_month
from crisishedge.pipeline import run_pipeline

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "fixtures"
GOLDEN_ROOT = Path(__file__).resolve().parent / "golden"


def make_series(name, values, start="2020-01", unit="", **kwargs):
    months = month_range(start, shift_month(start, len(values) - 1))
    return MacroSeries(name=name, stamps=months, values=values, unit=unit, **kwargs)


def wobble_fx(fixture: Path, out: Path) -> Path:
    """A copy of ``fixture`` whose FX strays from its inflation path by up to 3%.

    Data row ``k`` (numbered from 2, after the header) is scaled by
    ``1 + 0.03 ((7919 k mod 13) - 6) / 6`` and written to 10 significant
    digits, as the CI workflow's ``awk`` step does, so the two residencies'
    losses rank differently.  Returns the copy's episode file.
    """
    shutil.copytree(fixture, out)
    header, *lines = (fixture / "fx_usd.csv").read_text().splitlines()
    rows = [header]
    for k, line in enumerate(lines, start=2):
        month, value = line.split(",")
        rows.append(f"{month},{float(value) * (1 + 0.03 * ((k * 7919) % 13 - 6) / 6):.10g}")
    (out / "fx_usd.csv").write_text("\n".join(rows) + "\n")
    return out / "episode.yaml"


@pytest.fixture(scope="session")
def fixture_root():
    assert FIXTURE_ROOT.is_dir(), "shipped fixtures are missing"
    return FIXTURE_ROOT


@pytest.fixture(scope="session")
def golden_root():
    assert GOLDEN_ROOT.is_dir(), "golden files are missing"
    return GOLDEN_ROOT


def _pin_one_cpu(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """A one-CPU affinity mask: the pipeline runs every stage in this process."""
    _pin_one_cpu(monkeypatch)


@pytest.fixture(scope="session")
def clayton_full_one_cpu(tmp_path_factory):
    """The full clayton_coupled run on one CPU: its result and output directory.

    One run serves every test that reads it: A05 holds it to the goldens and
    the forked run with a helper is compared with it byte for byte.
    """
    out = tmp_path_factory.mktemp("clayton_full_one_cpu")
    episode = load_episode(FIXTURE_ROOT / "clayton_coupled" / "episode.yaml")
    with pytest.MonkeyPatch.context() as mp:
        _pin_one_cpu(mp)
        result = run_pipeline(episode, out_dir=out)
    return result, out
