"""End-to-end tests: pipeline orchestration, output files, and the CLI."""

import csv
import dataclasses
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import crisishedge
from crisishedge import attribution, copula, pipeline, qreg
from crisishedge.cli import main
from crisishedge.config import BootstrapConfig, load_episode
from crisishedge.copula import FAMILIES, CopulaFamily
from crisishedge.errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    FitError,
    NumericalError,
)
from crisishedge.fixtures import FixtureKind, generate_fixture
from crisishedge.hedge import Residency
from crisishedge.pipeline import (
    ENV_OUT_DIR,
    REPORT_COLUMNS,
    resolve_out_dir,
    run_pipeline,
    sensitivity_sweep,
)

from conftest import wobble_fx
from oracles import restandardized_subset

# Small but non-degenerate bundle: 60 months keeps the LP and bootstrap fast
# while leaving a 48-month post-collapse window for the tail machinery.
BUNDLE_N = 60
BUNDLE_SEED = 21
FAST_REPS = 100

# The columns of each CSV a run writes that must hold plain numbers.
NUMERIC_FIELDS = {
    "report.csv": REPORT_COLUMNS[3:],
    "coefficients.csv": ("tau", "coefficient"),
    "attribution.csv": ("phi",),
    "figures/real_returns.csv": ("value",),
    "figures/risk_return.csv": ("mean_pct", "std_pct"),
    "figures/importance_bars.csv": ("share_pct",),
    "sweep.csv": (
        "tau", "he_pct", "tail_dependence", "tail_dependence_empirical",
        "delta_he_pct", "delta_tail_dependence", "delta_tail_dependence_empirical",
    ),
}


def assert_numeric_fields_parse(out: Path) -> None:
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))
    assert set(written) <= set(NUMERIC_FIELDS), written
    for name in written:
        with (out / name).open(encoding="utf-8", newline="") as fh:
            assert next(fh).startswith("# crisishedge ")
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for field in NUMERIC_FIELDS[name]:
                value = row[field]
                # sweep rows of infeasible levels leave the numbers empty
                if value == "" and name == "sweep.csv":
                    continue
                float(value)


def stall_replicates(monkeypatch, stalled):
    """Mark the copula bootstrap's replicate fits unconverged where ``stalled(u)`` holds.

    Only the fits made inside ``copula.block_bootstrap_ci`` are touched:
    stalling a point fit would leave no family to select.  ``stalled`` sees
    each lane's own ranks, so its verdict holds in any chunk.
    """
    real_fit, real_ci = copula.fit_batch, copula.block_bootstrap_ci

    def stalling_fit(batch, family, **kwargs):
        fit = real_fit(batch, family, **kwargs)
        return dataclasses.replace(fit, converged=fit.converged & ~stalled(batch.u))

    def stalling_ci(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(copula, "fit_batch", stalling_fit)
            return real_ci(*args, **kwargs)

    monkeypatch.setattr(copula, "block_bootstrap_ci", stalling_ci)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("perfect_bundle")
    generate_fixture(FixtureKind.PERFECT_HEDGE, root, n=BUNDLE_N, seed=BUNDLE_SEED)
    return root


@pytest.fixture(scope="module")
def episode(bundle_dir):
    loaded = load_episode(bundle_dir / "episode.yaml")
    return dataclasses.replace(
        loaded, bootstrap=BootstrapConfig(replications=FAST_REPS, seed=BUNDLE_SEED)
    )


@pytest.fixture(scope="module")
def run(episode, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_out")
    return run_pipeline(episode, out_dir=out)


class TestOutputs:
    def test_all_files_written(self, run):
        for name in ("report.csv", "coefficients.csv", "attribution.csv", "report.full"):
            assert (run.out_dir / name).is_file(), name
        for name in ("real_returns.csv", "risk_return.csv", "importance_bars.csv"):
            assert (run.out_dir / "figures" / name).is_file(), name

    def test_provenance_line_leads_every_csv(self, run):
        paths = [
            run.out_dir / "report.csv",
            run.out_dir / "coefficients.csv",
            run.out_dir / "attribution.csv",
            run.out_dir / "figures" / "real_returns.csv",
            run.out_dir / "figures" / "risk_return.csv",
            run.out_dir / "figures" / "importance_bars.csv",
        ]
        for path in paths:
            first = path.read_text().splitlines()[0]
            assert first.startswith("# crisishedge "), path.name
            assert f"seed={BUNDLE_SEED}" in first
            assert f"replications={FAST_REPS}" in first

    def test_report_csv_header_and_rows(self, run):
        lines = (run.out_dir / "report.csv").read_text().splitlines()
        assert lines[1] == ",".join(REPORT_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("perfect_hedge", "Foreign"),
            ("perfect_hedge", "Local"),
        ]
        # The fixture hedges real purchasing power exactly, for both legs.
        assert all(r[3] == "100.0" for r in rows)

    def test_full_report_json_structure(self, run):
        doc = json.loads((run.out_dir / "report.full").read_text())
        assert doc["schema_version"] == 1
        assert doc["episode"]["country"] == "perfect_hedge"
        assert set(doc["copula"]) == {"local", "foreign"}
        for leg in doc["copula"].values():
            assert {"selected", "candidates"} <= set(leg)
        taus = {float(k) for k in doc["quantile_models"]}
        assert taus == {
            run.triplet.tau_low,
            run.triplet.tau_mid,
            run.triplet.tau_high,
        }
        assert doc["cv"] and doc["attribution"] is not None

    def test_numeric_fields_parse_as_floats(self, run):
        assert_numeric_fields_parse(run.out_dir)

    def test_rerun_is_bit_identical(self, episode, run, tmp_path):
        again = run_pipeline(episode, out_dir=tmp_path)
        for rel in ("report.csv", "report.full", "coefficients.csv"):
            assert (tmp_path / rel).read_bytes() == (run.out_dir / rel).read_bytes()


class TestRunResult:
    def test_models_cover_the_triplet(self, run):
        assert set(run.models) == {
            run.triplet.tau_low,
            run.triplet.tau_mid,
            run.triplet.tau_high,
        }
        for tau, r2 in run.pseudo_r2_in_sample.items():
            assert r2 <= 1.0, tau

    def test_reports_have_bracketing_cis(self, run):
        assert {r.residency for r in run.reports} == {Residency.LOCAL, Residency.FOREIGN}
        for report in run.reports:
            lo, hi = report.tail_dependence_ci
            assert lo <= report.tail_dependence <= hi
            assert report.hedge_effectiveness_pct == pytest.approx(100.0)

    def test_copula_fits_carry_cis(self, run):
        for residency, fit in run.copula_fits.items():
            assert fit.lambda_lower_ci is not None, residency
            assert 0.0 <= fit.lambda_lower <= 1.0

    def test_empirical_tail_dependence_is_taken_at_tau_low(self, run):
        for report in run.reports:
            expected = copula.empirical_tail_dependence(
                run.pseudo_samples[report.residency], run.triplet.tau_low
            )
            assert report.tail_dependence_empirical == expected
            assert run.tail_dependence_empirical[report.residency] == expected
        doc = json.loads((run.out_dir / "report.full").read_text())
        for residency, block in doc["copula"].items():
            listed = {
                fit["empirical_lambda_at_tau"]
                for fit in (block["selected"], *block["candidates"])
            }
            assert listed == {run.tail_dependence_empirical[Residency(residency)]}

    def test_attribution_stability_in_range(self, run):
        summary = run.attributions
        assert summary is not None
        assert summary.stability_kendall_tau is not None
        assert -1.0 <= summary.stability_kendall_tau <= 1.0
        assert sum(summary.shares.values()) == pytest.approx(100.0)

    def test_diagnostics_are_strings(self, run):
        assert all(isinstance(d, str) for d in run.diagnostics)
        assert not any("skipped" in d for d in run.diagnostics)

    def test_skipped_stability_replicates_reach_diagnostics(
        self, episode, tmp_path, monkeypatch
    ):
        check = attribution.require_varying

        def flaky_check(target):
            # Decided by the replicate's own rows.
            if target[0] > 0.02:
                raise DegenerateSampleError("forced")
            check(target)

        monkeypatch.setattr(attribution, "require_varying", flaky_check)
        result = run_pipeline(episode, out_dir=tmp_path)
        expected = f"attribution stability: skipped 21/{FAST_REPS} replicates"
        assert expected in result.diagnostics
        doc = json.loads((tmp_path / "report.full").read_text())
        assert expected in doc["diagnostics"]
        assert doc["attribution"]["stability_kendall_tau"] is not None

    def test_boundary_replicate_fits_reach_diagnostics(self, run):
        # The perfect hedge is comonotone, so every replicate fits at the upper bound.
        expected = [
            f"copula ({leg}): bootstrap {FAST_REPS}/{FAST_REPS} replicate fits "
            "at a parameter bound"
            for leg in ("foreign", "local")
        ]
        assert [d for d in run.diagnostics if "replicate fits" in d] == expected
        doc = json.loads((run.out_dir / "report.full").read_text())
        assert [d for d in doc["diagnostics"] if "replicate fits" in d] == expected

    def test_nonconverged_copula_replicates_reach_diagnostics(
        self, episode, tmp_path, monkeypatch
    ):
        stall_replicates(monkeypatch, lambda u: u[:, 0] < 0.03)
        result = run_pipeline(episode, out_dir=tmp_path)
        expected = [
            f"copula ({leg}): bootstrap {count}/{FAST_REPS} replicate fits did not converge"
            for leg, count in (("foreign", 5), ("local", 4))
        ]
        assert [d for d in result.diagnostics if "converge" in d] == expected
        doc = json.loads((tmp_path / "report.full").read_text())
        assert [d for d in doc["diagnostics"] if "converge" in d] == expected

    def test_unstable_copula_leg_fails_under_its_own_stage(
        self, episode, tmp_path, monkeypatch, caplog
    ):
        # Both legs select Gumbel and are bootstrapped together; this rule
        # stalls 4 foreign and 10 local replicates, so only the second leg
        # breaks the 5% rule.
        stall_replicates(monkeypatch, lambda u: u[:, 6] < 0.1)
        message = f"bootstrap unstable: 10/{FAST_REPS} replicate fits did not converge"
        with pytest.raises(NumericalError, match=rf"^copula \(local\): {message}$"):
            run_pipeline(episode, out_dir=tmp_path)
        warnings = [r.getMessage() for r in caplog.records if r.name == "crisishedge.copula"]
        assert warnings == [
            f"bootstrap: {count}/{FAST_REPS} replicate fits did not converge"
            for count in (4, 10)
        ]


def bootstrap_calls(patch):
    """Record (family, number of samples) of every copula bootstrap call."""
    calls = []
    real = copula.block_bootstrap_ci

    def spy(samples, family, **kwargs):
        calls.append((CopulaFamily(family), len(samples)))
        return real(samples, family, **kwargs)

    patch.setattr(copula, "block_bootstrap_ci", spy)
    return calls


class TestCopulaGrouping:
    """One point-fit search per family; one bootstrap per selected family."""

    def test_residencies_of_one_family_share_one_bootstrap(self, episode, monkeypatch):
        calls = bootstrap_calls(monkeypatch)
        run_pipeline(episode, write_outputs=False)
        assert calls == [(CopulaFamily.GUMBEL, 2)]

    @pytest.fixture(scope="class")
    def split_run(self, fixture_root, tmp_path_factory):
        config = wobble_fx(
            fixture_root / "clayton_coupled", tmp_path_factory.mktemp("split") / "fixture"
        )
        with pytest.MonkeyPatch.context() as patch:
            calls = bootstrap_calls(patch)
            result = run_pipeline(load_episode(config), fast=True, write_outputs=False)
        return result, calls

    def test_split_residencies_are_bootstrapped_apart(self, split_run):
        _, calls = split_run
        assert calls == [(CopulaFamily.FRANK, 1), (CopulaFamily.CLAYTON, 1)]

    def test_split_residencies_keep_their_fits_and_intervals(self, split_run):
        # Pinned from the code that fitted and bootstrapped each residency on
        # its own, before residencies shared searches.
        expected = {
            Residency.FOREIGN: (CopulaFamily.FRANK, 4.247766416592059, (0.0, 0.0)),
            Residency.LOCAL: (
                CopulaFamily.CLAYTON, 1.9477726950314975,
                (0.6549802034950378, 0.7393901287646134),
            ),
        }
        result, _ = split_run
        got = {
            residency: (fit.family, fit.theta, fit.lambda_lower_ci)
            for residency, fit in result.copula_fits.items()
        }
        assert got == expected

    def test_split_point_fits_equal_single_fits(self, split_run):
        result, _ = split_run
        for residency, sample in result.pseudo_samples.items():
            single = tuple(copula.fit_copula(sample, family) for family in FAMILIES)
            assert result.copula_candidates[residency] == single, residency


class TestQuantileFitCertificates:
    """The LP optimality certificate of every quantile fit in a shipped run."""

    # Stated here, not imported: the solver's stop rule is what is checked.
    GAP_TOL = 1e-9

    @pytest.fixture(scope="class")
    def clayton_run(self, fixture_root):
        episode = load_episode(fixture_root / "clayton_coupled" / "episode.yaml")
        return run_pipeline(episode, fast=True, write_outputs=False)

    def test_every_fit_met_its_gap_or_fell_back(self, clayton_run):
        fits = clayton_run.quantile_fits
        stability = pipeline.FAST_REPLICATIONS
        cv = sum(len(r.folds) for r in clayton_run.cv.values())
        assert cv > 0
        assert len(fits) == 3 + cv + stability
        for loss, gap, fell_back in zip(fits.loss, fits.gap, fits.fallback):
            assert fell_back or 0.0 <= gap <= self.GAP_TOL * (1.0 + loss)
        assert fits.fallbacks == 0
        assert not any(d.startswith("qreg:") for d in clayton_run.diagnostics)

    def test_base_fits_match_the_highs_optimum(self, clayton_run):
        X = clayton_run.design
        n, p = X.values.shape
        for tau, model in clayton_run.models.items():
            res = optimize.linprog(
                np.concatenate([np.zeros(p + 1), np.full(n, tau), np.full(n, 1.0 - tau)]),
                A_eq=np.hstack([np.ones((n, 1)), X.values, np.eye(n), -np.eye(n)]),
                b_eq=X.target,
                bounds=[(None, None)] * (p + 1) + [(0.0, None)] * (2 * n),
                method="highs",
            )
            assert res.success
            assert abs(model.objective_value - res.fun) <= self.GAP_TOL * (1.0 + res.fun)

    def test_fallbacks_reach_diagnostics(self, episode, tmp_path, monkeypatch):
        # With no iterations allowed, every interior-point fit falls back.
        monkeypatch.setattr(qreg, "_MAX_ITER", 0)
        result = run_pipeline(episode, out_dir=tmp_path)
        fits = result.quantile_fits
        assert len(fits) > FAST_REPS
        assert fits.fallbacks == len(fits)
        expected = f"qreg: {len(fits)}/{len(fits)} quantile fits fell back to HiGHS"
        assert expected in result.diagnostics
        doc = json.loads((tmp_path / "report.full").read_text())
        assert expected in doc["diagnostics"]


class TestCVFoldsAtTheirOwnWidths:
    """Every CV fold of a shipped run, solved among all (level, fold) pairs,
    matches the fold fitted alone.

    The coefficients multiply standardized features and are of order 1e-2,
    so the bound is on each coefficient's error against 1 + its size.  Where
    a fold's optimum is flat along a direction (clayton_coupled's
    ``regime_break`` and its lag at tau = 0.5, fold 34, where the two
    coefficients trade 3.3e-8 at equal loss) rounding chooses the point.
    """

    @pytest.mark.parametrize("kind", ["clayton_coupled", "independent", "perfect_hedge"])
    def test_every_fold_matches_its_fit_alone(self, fixture_root, kind):
        episode = load_episode(fixture_root / kind / "episode.yaml")
        result = run_pipeline(episode, fast=True, write_outputs=False)
        X = result.design
        for tau, report in result.cv.items():
            paths = np.array(list(report.coefficient_paths.values()))
            for k, fold in enumerate(report.folds):
                rows = np.arange(fold.train_rows)
                alone = qreg.fit_quantile(restandardized_subset(X, rows, rows), tau)
                loss = alone.objective_value
                assert abs(report.certificates.loss[k] - loss) <= 1e-9 * (1.0 + loss)
                error = np.abs(paths[:, k] - alone.coef) / (1.0 + np.abs(alone.coef))
                assert error.max() <= 1e-6, (tau, k + 1)


class TestColdPath:
    """A run imports numpy and PyYAML, not scipy's heavy subpackages."""

    HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg")

    def test_fast_run_loads_no_scipy_subpackage(self, fixture_root):
        # Other tests import scipy into this process, so the run gets a fresh one.
        # anti_hedge selects Frank and bootstraps its fit.
        config = fixture_root / "anti_hedge" / "episode.yaml"
        script = (
            "import json, sys\n"
            "import crisishedge\n"
            f"episode = crisishedge.load_episode({str(config)!r})\n"
            "result = crisishedge.run_pipeline(episode, fast=True, write_outputs=False)\n"
            "fits = [f.family.value for c in result.copula_candidates.values() for f in c]\n"
            "print(json.dumps({'families': fits, 'modules': sorted(sys.modules)}))\n"
        )
        package_root = str(Path(crisishedge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert "frank" in seen["families"]
        heavy = [m for m in seen["modules"]
                 if any(m == h or m.startswith(h + ".") for h in self.HEAVY)]
        assert heavy == []


# Where the pipeline forks its attribution stability stage.
FORKS = (
    hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    and len(os.sched_getaffinity(0)) >= 2
)
needs_fork = pytest.mark.skipif(not FORKS, reason="the stability stage runs inline here")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> list[str]:
    return sorted(os.listdir("/dev/fd"))


@pytest.fixture(params=["forked", "one_cpu"])
def cpus(request):
    """Each test runs once with the stability stage forked and once inline."""
    if request.param == "one_cpu":
        request.getfixturevalue("one_cpu")
    elif not FORKS:
        pytest.skip("the stability stage runs inline here")
    return request.param


def attribution_records(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "crisishedge.attribution"]


def written_files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class Workers:
    """Watches the stability workers of a run and steers them.

    Every chunk solved is logged as "pid index" to a file, since the
    workers are separate processes.  ``forks`` holds the pids the run forked;
    a worker's copy holds those forked before it, so the lead sees none and
    the helper sees the lead.  ``on_plan(role)`` runs before a worker plans
    (the lead plans before its first claim) and ``on_chunk(role, index)``
    after a chunk is logged; with ``log_records`` set, both the plan and
    each chunk also emit a package log record.
    """

    def __init__(self, path: Path, mp: pytest.MonkeyPatch) -> None:
        self.path = path
        self.forks: list[int] = []
        self.on_plan = lambda role: None
        self.on_chunk = lambda role, index: None
        self.log_records = False
        log = logging.getLogger("crisishedge.attribution")
        real_fork = os.fork
        real_plan = attribution.StabilityPlan
        real_solve = attribution.solve_stability_chunk

        def fork():
            pid = real_fork()
            if pid:
                self.forks.append(pid)
            return pid

        def plan(*args, **kwargs):
            self.on_plan(self.role())
            if self.log_records:
                log.warning("planned")
            return real_plan(*args, **kwargs)

        def solve(plan, index):
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {index}\n")
            self.on_chunk(self.role(), index)
            if self.log_records:
                log.warning("chunk %d", index)
            return real_solve(plan, index)

        mp.setattr(os, "fork", fork)
        mp.setattr(attribution, "StabilityPlan", plan)
        mp.setattr(attribution, "solve_stability_chunk", solve)

    def role(self) -> str:
        return "helper" if self.forks else "lead"

    def solved(self) -> list[tuple[int, int]]:
        if not self.path.exists():
            return []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return [tuple(map(int, line.split())) for line in lines]

    def wait_for(self, seen) -> None:
        """Poll the chunk log until ``seen(entries)`` holds (30 s at most)."""
        deadline = time.monotonic() + 30.0
        while not seen(self.solved()) and time.monotonic() < deadline:
            time.sleep(0.005)

    def wait_for_other_worker(self) -> None:
        me = os.getpid()
        self.wait_for(lambda entries: any(pid != me for pid, _ in entries))


@pytest.fixture
def workers(tmp_path, monkeypatch):
    return Workers(tmp_path / "chunks.log", monkeypatch)


@pytest.fixture(scope="module", params=["perfect_hedge", "clayton_coupled"])
def forked_fast_run(request, fixture_root, tmp_path_factory):
    """A ``--fast`` run of a shipped fixture, its output directory and the
    pids of the processes that solved the stability chunks."""
    episode = load_episode(fixture_root / request.param / "episode.yaml")
    out = tmp_path_factory.mktemp(f"forked_{request.param}")
    with pytest.MonkeyPatch.context() as mp:
        workers = Workers(out.parent / f"{out.name}.chunks", mp)
        run_pipeline(episode, fast=True, out_dir=out)
    return episode, out, [pid for pid, _ in workers.solved()]


class TestForkedStability:
    """The stability bootstrap solved by forked workers equals it inline."""

    @needs_fork
    def test_forked_run_equals_one_cpu_run_byte_for_byte(
        self, forked_fast_run, one_cpu, tmp_path, monkeypatch
    ):
        episode, forked_out, forked_pids = forked_fast_run
        assert forked_pids and os.getpid() not in forked_pids
        real = attribution.bootstrap_stability
        pids = []

        def recording(*args, **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(attribution, "bootstrap_stability", recording)
        run_pipeline(episode, fast=True, out_dir=tmp_path)
        assert pids == [os.getpid()]
        forked, inline = written_files(forked_out), written_files(tmp_path)
        assert len(forked) == 7
        assert forked == inline
        assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("tokens", ["one per chunk", "runs of chunks"])
    def test_helper_shares_the_chunks_and_changes_no_byte_or_record(
        self, fixture_root, workers, tokens, tmp_path, monkeypatch, caplog
    ):
        # The lead waits before its first claim until the helper has solved a
        # chunk, so the helper runs and takes chunk 0 on.  The 200 replicates
        # of 120 rows are cut into 4 chunks of 50; with 3 tokens for the 4
        # chunks, the last token stands for chunks 2 and 3.
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 50 * 120)
        if tokens == "runs of chunks":
            monkeypatch.setattr(pipeline, "_MAX_TOKENS", 3)
        episode = load_episode(fixture_root / "perfect_hedge" / "episode.yaml")
        workers.log_records = True
        workers.on_plan = lambda role: role == "lead" and workers.wait_for_other_worker()
        before = open_fds()
        with caplog.at_level(logging.WARNING, logger="crisishedge.attribution"):
            run_pipeline(episode, fast=True, out_dir=tmp_path / "forked")
        assert open_fds() == before
        assert_no_child_left()
        forked_records = attribution_records(caplog)
        lead, helper = workers.forks
        solved = workers.solved()
        count = len(solved)
        assert sorted(index for _, index in solved) == list(range(count))
        assert count == 4
        assert (helper, 0) in solved
        assert {pid for pid, _ in solved} <= {lead, helper}
        assert forked_records == ["planned", *(f"chunk {i}" for i in range(count))]
        if tokens == "runs of chunks":
            solver = dict((index, pid) for pid, index in solved)
            assert solver[2] == solver[3]

        caplog.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with caplog.at_level(logging.WARNING, logger="crisishedge.attribution"):
            run_pipeline(episode, fast=True, out_dir=tmp_path / "one_cpu")
        assert attribution_records(caplog) == forked_records
        forked, inline = written_files(tmp_path / "forked"), written_files(tmp_path / "one_cpu")
        assert len(forked) == 7
        assert forked == inline

    @needs_fork
    def test_full_run_with_a_helper_equals_one_cpu_run_byte_for_byte(
        self, fixture_root, clayton_full_one_cpu, workers, tmp_path
    ):
        # R = 1000: the lead waits before its first claim until the helper
        # forked at the join has solved a chunk, so both workers fit
        # replicates on their distinct rows.  The one-CPU run is A05's.
        episode = load_episode(fixture_root / "clayton_coupled" / "episode.yaml")
        workers.on_plan = lambda role: role == "lead" and workers.wait_for_other_worker()
        run_pipeline(episode, out_dir=tmp_path / "forked")
        assert_no_child_left()
        lead, helper = workers.forks
        solved = workers.solved()
        assert sorted(index for _, index in solved) == list(range(len(solved)))
        assert (helper, 0) in solved
        assert {pid for pid, _ in solved} <= {lead, helper}

        forked = written_files(tmp_path / "forked")
        inline = written_files(clayton_full_one_cpu[1])
        assert len(forked) == 7
        assert forked == inline

    @needs_fork
    @pytest.mark.parametrize("lowest", ["lead", "helper"])
    def test_the_lowest_failing_chunk_is_raised_whichever_worker_solved_it(
        self, episode, workers, lowest, tmp_path, monkeypatch
    ):
        # One replicate per chunk.  The lead takes chunk 0 and holds it until
        # the helper (forked at the join) has taken chunk 1.  Then both fail:
        # the lead at chunk 0, or, in the other case, the helper at chunk 1
        # once the lead has failed at a later chunk.
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 1)

        def chunk(role, index):
            if role == "lead" and index == 0:
                workers.wait_for_other_worker()
                if lowest == "lead":
                    raise NumericalError("chunk 0")
            elif role == "lead":
                raise NumericalError(f"chunk {index}")
            elif lowest == "helper":
                workers.wait_for(lambda entries: len(entries) >= 3)
                raise NumericalError(f"chunk {index}")
            else:
                raise NumericalError(f"chunk {index}")

        workers.on_chunk = chunk
        with pytest.raises(NumericalError) as info:
            run_pipeline(episode, out_dir=tmp_path)
        lead, helper = workers.forks
        solved = workers.solved()
        assert (lead, 0) in solved and (helper, 1) in solved
        if lowest == "lead":
            assert str(info.value) == "attribution: chunk 0"
        else:
            assert (lead, 2) in solved
            assert str(info.value) == "attribution: chunk 1"
        assert_no_child_left()

    @needs_fork
    def test_a_helper_dying_names_the_chunk_it_left_unsolved(
        self, episode, workers, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 1)

        def chunk(role, index):
            if role == "helper":
                os._exit(4)
            if index == 0:
                workers.wait_for_other_worker()

        workers.on_chunk = chunk
        before = open_fds()
        with pytest.raises(ChildProcessError, match="^stability chunk 1 was claimed by a helper"):
            run_pipeline(episode, out_dir=tmp_path)
        assert open_fds() == before
        lead, helper = workers.forks
        assert (helper, 1) in workers.solved()
        assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("failing", ["lead", "helper"])
    def test_a_failed_fork_fails_the_run_and_leaves_no_worker(
        self, episode, workers, failing, tmp_path, monkeypatch
    ):
        # A failed helper fork comes after the lead's, which is killed and reaped.
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 1)
        workers.on_chunk = lambda role, index: time.sleep(60.0)
        forking = os.fork

        def failing_fork():
            if len(workers.forks) == ("lead", "helper").index(failing):
                raise OSError("forced")
            return forking()

        monkeypatch.setattr(os, "fork", failing_fork)
        before = open_fds()
        start = time.monotonic()
        with pytest.raises(OSError, match="^forced$"):
            run_pipeline(episode, out_dir=tmp_path)
        assert time.monotonic() - start < 30.0
        assert open_fds() == before
        assert len(workers.forks) == ("lead", "helper").index(failing)
        assert_no_child_left()

    @needs_fork
    def test_parent_failure_after_the_helper_fork_kills_and_reaps_both(
        self, episode, workers, tmp_path, monkeypatch
    ):
        # The helper signals the parent, whose handler raises while the
        # parent waits at the join; the lead is still planning.
        def helper_signals(role, index):
            if role == "helper":
                os.kill(os.getppid(), signal.SIGUSR1)
            time.sleep(60.0)

        def forced(signum, frame):
            raise RuntimeError("forced")

        workers.on_plan = lambda role: role == "lead" and time.sleep(60.0)
        workers.on_chunk = helper_signals
        previous = signal.signal(signal.SIGUSR1, forced)
        before = open_fds()
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="^forced$"):
                run_pipeline(episode, out_dir=tmp_path)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert time.monotonic() - start < 30.0
        assert open_fds() == before
        assert len(workers.forks) == 2
        assert_no_child_left()

    def test_degenerate_stability_becomes_the_same_diagnostic(
        self, episode, cpus, tmp_path, monkeypatch
    ):
        def degenerate(*args, **kwargs):
            raise DegenerateSampleError("forced")

        monkeypatch.setattr(attribution, "finish_stability", degenerate)
        result = run_pipeline(episode, out_dir=tmp_path)
        assert "attribution stability: forced" in result.diagnostics
        assert result.attributions.stability_kendall_tau is None
        assert_no_child_left()

    def test_numerical_error_reraised_with_its_type_and_stage(
        self, episode, cpus, tmp_path, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(attribution, "solve_stability_chunk", failing)
        with pytest.raises(NumericalError) as info:
            run_pipeline(episode, out_dir=tmp_path)
        assert type(info.value) is NumericalError
        assert str(info.value) == "attribution: forced"
        assert_no_child_left()

    @needs_fork
    def test_child_dying_without_a_result_raises_promptly(
        self, episode, tmp_path, monkeypatch
    ):
        def dying(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(attribution, "StabilityPlan", dying)
        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="exit status 3"):
            run_pipeline(episode, out_dir=tmp_path)
        assert time.monotonic() - start < 30.0
        assert_no_child_left()

    def test_parent_failure_after_the_fork_kills_and_reaps_the_child(
        self, episode, cpus, tmp_path, monkeypatch
    ):
        def slow(*args, **kwargs):
            time.sleep(60.0)

        def failing_ci(*args, **kwargs):
            raise FitError("forced")

        monkeypatch.setattr(attribution, "solve_stability_chunk", slow)
        monkeypatch.setattr(copula, "block_bootstrap_ci", failing_ci)
        start = time.monotonic()
        with pytest.raises(FitError, match=r"^copula \(foreign\): forced$"):
            run_pipeline(episode, out_dir=tmp_path)
        assert time.monotonic() - start < 30.0
        assert_no_child_left()

    def test_stability_logs_reach_the_parent_once_in_order(
        self, episode, cpus, tmp_path, monkeypatch, caplog
    ):
        real = attribution.StabilityPlan
        log = logging.getLogger("crisishedge.attribution")

        def logging_stability(*args, **kwargs):
            log.warning("first %s", "warning")
            log.warning("second warning")
            return real(*args, **kwargs)

        monkeypatch.setattr(attribution, "StabilityPlan", logging_stability)
        # A handler writing to a file would show a record emitted by the
        # child through the handlers it inherited, as well as by the parent.
        stream = logging.FileHandler(tmp_path / "log.txt", encoding="utf-8")
        logging.getLogger().addHandler(stream)
        try:
            with caplog.at_level(logging.WARNING, logger="crisishedge"):
                run_pipeline(episode, out_dir=tmp_path / "out")
        finally:
            logging.getLogger().removeHandler(stream)
            stream.close()
        tail_warning = "perfect_hedge: tail variance ratio 0.240 below 2.0 at tau=0.125"
        seen = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert seen == [
            ("crisishedge.tailsel", logging.WARNING, tail_warning),
            ("crisishedge.attribution", logging.WARNING, "first warning"),
            ("crisishedge.attribution", logging.WARNING, "second warning"),
        ]
        assert (tmp_path / "log.txt").read_text() == (
            f"{tail_warning}\nfirst warning\nsecond warning\n"
        )
        assert_no_child_left()



class TestDayStampedInput:
    def test_day_stamps_collapsed_on_load_leave_every_output_unchanged(
        self, fixture_root, tmp_path
    ):
        """No shipped fixture is day-stamped, so a copy of anti_hedge is made one.

        Each month of its policy rate gets two rows, the 3rd at 1.5 times the
        value and the 28th at the value itself; ``to_monthly: last`` keeps the
        28th, so the run must write the fixture's own files.
        """
        source, copy = fixture_root / "anti_hedge", tmp_path / "daily"
        shutil.copytree(source, copy)
        header, *rows = (source / "policy_rate.csv").read_text().splitlines()
        lines = [header]
        for row in rows:
            month, value = row.split(",")
            lines += [f"{month}-03,{float(value) * 1.5!r}", f"{month}-28,{value}"]
        (copy / "policy_rate.csv").write_text("\n".join(lines) + "\n")
        manifest = (source / "manifest.yaml").read_text()
        entry = "  path: policy_rate.csv\n"
        assert entry in manifest
        (copy / "manifest.yaml").write_text(manifest.replace(entry, f"{entry}  to_monthly: last\n"))
        for root in (source, copy):
            out = tmp_path / "out" / root.name
            run_pipeline(load_episode(root / "episode.yaml"), fast=True, out_dir=out)
        assert written_files(tmp_path / "out" / "daily") == written_files(
            tmp_path / "out" / "anti_hedge"
        )

class TestResolveOutDir:
    def test_explicit_argument_wins(self, episode, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "env"))
        assert resolve_out_dir(episode, tmp_path / "given") == tmp_path / "given"

    def test_environment_beats_episode_default(self, episode, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "env"))
        assert resolve_out_dir(episode, None) == tmp_path / "env"

    def test_episode_output_dir(self, episode, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        ep = dataclasses.replace(episode, output_dir=tmp_path / "ep")
        assert resolve_out_dir(ep, None) == tmp_path / "ep"

    def test_fallback_constant(self, episode, monkeypatch):
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        assert resolve_out_dir(episode, None) == Path("crisishedge_out")


class TestFailureModes:
    def test_stage_prefix_on_config_errors(self, episode, tmp_path):
        broken = dataclasses.replace(
            episode, series_manifest=tmp_path / "missing-manifest.yaml"
        )
        with pytest.raises(ConfigError, match="^dataio: "):
            run_pipeline(broken, write_outputs=False)

    def test_stage_prefix_on_data_errors(self, bundle_dir, tmp_path):
        for name in ("episode.yaml", "manifest.yaml"):
            (tmp_path / name).write_text((bundle_dir / name).read_text())
        for csv_path in bundle_dir.glob("*.csv"):
            (tmp_path / csv_path.name).write_text(csv_path.read_text())
        (tmp_path / "equity_tr_index.csv").unlink()
        episode = load_episode(tmp_path / "episode.yaml")
        with pytest.raises(DataError, match="^dataio: "):
            run_pipeline(episode, write_outputs=False)

    def test_equity_gap_pairs_returns_and_losses_month_by_month(
        self, fixture_root, tmp_path
    ):
        # Without 2016-06 equity there are no returns for 2016-06 and 2016-07,
        # while inflation and FX still give both months a loss. Without the
        # 2016-06 FX level instead, the same two months lose their returns;
        # anti_hedge's FX is flat, so that copy writes the same files.
        written = {}
        for gapped in ("equity_tr_index.csv", "fx_usd.csv"):
            copy = tmp_path / gapped
            copy.mkdir()
            for path in (fixture_root / "anti_hedge").iterdir():
                lines = path.read_text().splitlines(keepends=True)
                if path.name == gapped:
                    lines = [line for line in lines if not line.startswith("2016-06,")]
                (copy / path.name).write_text("".join(lines))
            # As loaded: the provenance hash is the episode file's.
            episode = load_episode(copy / "episode.yaml")
            result = run_pipeline(episode, fast=True, out_dir=copy / "out")
            post = result.post_window.months
            assert "2016-06" not in post and "2016-07" not in post
            assert {r.residency for r in result.reports} == {Residency.LOCAL, Residency.FOREIGN}
            for residency, loss in result.losses.items():
                assert loss.shape == (len(post),)
                assert result.pseudo_samples[residency].n == len(post)
            written[gapped] = {
                str(f.relative_to(copy / "out")): f.read_bytes()
                for f in sorted((copy / "out").rglob("*"))
                if f.is_file()
            }
        assert "report.csv" in written["fx_usd.csv"]
        assert written["fx_usd.csv"] == written["equity_tr_index.csv"]

    def test_force_test_month_outside_the_design_becomes_diagnostics(self, episode):
        # A month stamp is checked when the config loads; whether the design
        # holds that month is known only once it is built.
        cv = dataclasses.replace(episode.cv, force_test_month="1999-01")
        result = run_pipeline(dataclasses.replace(episode, cv=cv), write_outputs=False)
        assert result.cv == {}
        taus = (result.triplet.tau_low, result.triplet.tau_mid, result.triplet.tau_high)
        assert [d for d in result.diagnostics if d.startswith("cv ")] == [
            f"cv (tau={tau:.4g}): 1999-01 is not a design-matrix month" for tau in taus
        ]

    def test_degenerate_inflation_becomes_diagnostics(self, tmp_path):
        generate_fixture(
            FixtureKind.PERFECT_HEDGE, tmp_path, n=BUNDLE_N, seed=BUNDLE_SEED
        )
        cpi = tmp_path / "cpi_rate.csv"
        lines = cpi.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        flat = [header] + [f"{line.split(',')[0]},0.01" for line in rows]
        cpi.write_text("\n".join(flat) + "\n")
        episode = load_episode(tmp_path / "episode.yaml")
        episode = dataclasses.replace(
            episode, bootstrap=BootstrapConfig(replications=FAST_REPS, seed=1)
        )
        result = run_pipeline(episode, write_outputs=False)
        # Constant real losses kill the variance in both legs: every report row
        # is skipped but the run itself completes and explains why.
        assert result.reports == []
        assert any(
            d.startswith("hedge (local): loss variance is zero") for d in result.diagnostics
        )
        assert any(
            d.startswith("hedge (foreign): loss variance is zero") for d in result.diagnostics
        )


@pytest.fixture(scope="module")
def sweep(episode, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_out")
    base, entries = sensitivity_sweep(episode, [0.10, 0.15, 0.9], out_dir=out)
    return base, entries, out


@pytest.fixture(scope="module")
def clayton_sweep(tmp_path_factory):
    """A sweep of a generated clayton_coupled bundle, counting its base runs."""
    root = tmp_path_factory.mktemp("clayton_bundle")
    generate_fixture(FixtureKind.CLAYTON_COUPLED, root, n=120, seed=BUNDLE_SEED)
    episode = dataclasses.replace(
        load_episode(root / "episode.yaml"),
        bootstrap=BootstrapConfig(replications=FAST_REPS, seed=BUNDLE_SEED),
    )
    calls = []

    def counting_run(*args, **kwargs):
        calls.append(args)
        return run_pipeline(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "run_pipeline", counting_run)
        _, entries = sensitivity_sweep(
            episode, [0.05, 0.10, 0.20], write_outputs=False
        )
    return episode, entries, len(calls)


class TestSensitivitySweep:
    def test_base_entry_first(self, sweep):
        base, entries, _ = sweep
        assert entries[0].reason == "base run"
        assert entries[0].feasible
        assert entries[0].tau == pytest.approx(base.triplet.tau_low)
        for row in entries[0].rows:
            assert row.delta_hedge_effectiveness_pct == 0.0
            assert row.delta_tail_dependence == 0.0

    def test_sparse_tail_level_is_rejected(self, sweep):
        _, entries, _ = sweep
        entry = next(e for e in entries if e.tau == pytest.approx(0.10))
        assert not entry.feasible
        assert "tail observations" in entry.reason
        assert entry.rows == ()

    def test_feasible_override_reports_deltas(self, sweep):
        _, entries, _ = sweep
        entry = next(e for e in entries if e.tau == pytest.approx(0.15))
        assert entry.feasible and entry.reason == ""
        assert {row.residency for row in entry.rows} == {
            Residency.LOCAL,
            Residency.FOREIGN,
        }
        for row in entry.rows:
            # The perfect hedge stays perfect at any lower-tail level.
            assert row.delta_hedge_effectiveness_pct == pytest.approx(0.0)

    def test_upper_tail_level_is_rejected(self, sweep):
        _, entries, _ = sweep
        entry = next(e for e in entries if e.tau == pytest.approx(0.9))
        assert not entry.feasible
        assert entry.reason == "not a lower-tail level"
        assert entry.rows == ()

    def test_sweep_csv_written(self, sweep):
        _, _, out = sweep
        assert_numeric_fields_parse(out)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# crisishedge ")
        assert lines[1] == (
            "tau,feasible,reason,residency,he_pct,tail_dependence,"
            "tail_dependence_empirical,delta_he_pct,delta_tail_dependence,"
            "delta_tail_dependence_empirical"
        )
        assert len(lines) > 2

    def test_rows_match_override_runs(self, clayton_sweep):
        episode, entries, _ = clayton_sweep
        overrides = [e for e in entries[1:] if e.feasible]
        assert [e.tau for e in overrides] == [0.10, 0.20]
        for entry in overrides:
            ref = run_pipeline(
                dataclasses.replace(episode, quantile_override=(entry.tau,)),
                write_outputs=False,
            )
            assert [
                (row.residency, row.hedge_effectiveness_pct, row.tail_dependence,
                 row.tail_dependence_empirical)
                for row in entry.rows
            ] == [
                (r.residency, r.hedge_effectiveness_pct, r.tail_dependence,
                 r.tail_dependence_empirical)
                for r in ref.reports
            ]
        # The empirical estimate differs between the base level and both
        # overrides, so rows computed at the wrong level would not match.
        empirical = {e.tau: e.rows[0].tail_dependence_empirical for e in entries if e.rows}
        assert len(set(empirical.values())) == 3

    def test_one_pipeline_run_per_sweep(self, clayton_sweep):
        _, _, calls = clayton_sweep
        assert calls == 1

    def test_empty_empirical_tail_raises_with_stage(self, episode, monkeypatch):
        real = copula.empirical_tail_dependence

        def empty_at_override(sample, tau):
            if tau == 0.15:
                raise DegenerateSampleError("forced empty tail")
            return real(sample, tau)

        monkeypatch.setattr(copula, "empirical_tail_dependence", empty_at_override)
        with pytest.raises(
            DegenerateSampleError, match=r"^copula \(foreign\): forced empty tail$"
        ):
            sensitivity_sweep(episode, [0.15], write_outputs=False)


class TestCli:
    def test_run_exit_zero_and_outputs(self, bundle_dir, tmp_path, capsys):
        code = main(
            ["run", str(bundle_dir / "episode.yaml"), "--out", str(tmp_path), "--fast"]
        )
        assert code == 0
        assert (tmp_path / "report.csv").is_file()
        out = capsys.readouterr().out
        assert "outputs:" in out and "perfect_hedge" in out

    def test_validate_ok(self, bundle_dir, capsys):
        assert main(["validate", str(bundle_dir / "episode.yaml")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_missing_config(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_mistyped_number_is_a_config_error(self, bundle_dir, capsys):
        text = (bundle_dir / "episode.yaml").read_text()
        config = bundle_dir / "mistyped.yaml"
        config.write_text(re.sub(r"seed: \d+", "seed: many", text, count=1))
        assert main(["validate", str(config)]) == 2
        assert f"error: {config}: bootstrap.seed must be a number" in capsys.readouterr().err

    def test_run_window_without_data_is_a_data_error(self, bundle_dir, tmp_path, capsys):
        text = (bundle_dir / "episode.yaml").read_text()
        for year in ("2012-", "2013-", "2016-"):
            text = text.replace(year, year.replace("201", "203"))
        # The config must sit next to the series files so the relative
        # manifest path still resolves; only the window has moved.
        config = bundle_dir / "future.yaml"
        config.write_text(text)
        code = main(["run", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_fixture_rejects_bad_theta(self, tmp_path, capsys):
        code = main(
            ["fixture", "clayton_coupled", "--out", str(tmp_path), "--theta", "-1"]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_fixture_generates_files(self, tmp_path, capsys):
        code = main(
            ["fixture", "independent", "--out", str(tmp_path), "--n", "48", "--seed", "3"]
        )
        assert code == 0
        assert (tmp_path / "episode.yaml").is_file()
        assert (tmp_path / "cpi_official.csv").is_file()

    def test_sweep_exit_zero(self, bundle_dir, tmp_path, capsys):
        code = main(
            [
                "sweep",
                str(bundle_dir / "episode.yaml"),
                "--taus",
                "0.1",
                "0.15",
                "--out",
                str(tmp_path),
                "--fast",
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.csv").is_file()
