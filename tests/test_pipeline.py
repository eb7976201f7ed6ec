"""End-to-end tests: pipeline orchestration, output files, and the CLI."""

import csv
import dataclasses
import json
import logging
import os
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
        expected = f"attribution stability: skipped 18/{FAST_REPS} replicates"
        assert expected in result.diagnostics
        doc = json.loads((tmp_path / "report.full").read_text())
        assert expected in doc["diagnostics"]
        assert doc["attribution"]["stability_kendall_tau"] is not None

    def test_skipped_copula_replicates_reach_diagnostics(
        self, episode, tmp_path, monkeypatch
    ):
        real = copula.family_lambda_statistic

        def flaky_statistic(family):
            stat = real(family)

            def flaky(batch):
                # Decided by each replicate's own data, so it holds in any chunk.
                values = stat(batch)
                forced = batch.u[:, 0] < 0.03
                return dataclasses.replace(values, skipped=tuple(
                    "forced" if f else s for f, s in zip(forced, values.skipped)
                ))

            return flaky

        monkeypatch.setattr(copula, "family_lambda_statistic", flaky_statistic)
        result = run_pipeline(episode, out_dir=tmp_path)
        expected = [
            f"copula ({leg}): bootstrap skipped 3/{FAST_REPS} replicates"
            for leg in ("foreign", "local")
        ]
        assert [d for d in result.diagnostics if "skipped" in d] == expected
        doc = json.loads((tmp_path / "report.full").read_text())
        assert [d for d in doc["diagnostics"] if "skipped" in d] == expected

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
        real = copula.family_lambda_statistic

        def stalling_statistic(family):
            stat = real(family)

            def stalling(batch):
                values = stat(batch)
                stalled = batch.u[:, 0] < 0.03
                return dataclasses.replace(values, converged=values.converged & ~stalled)

            return stalling

        monkeypatch.setattr(copula, "family_lambda_statistic", stalling_statistic)
        result = run_pipeline(episode, out_dir=tmp_path)
        expected = [
            f"copula ({leg}): bootstrap 3/{FAST_REPS} replicate fits did not converge"
            for leg in ("foreign", "local")
        ]
        assert [d for d in result.diagnostics if "converge" in d] == expected
        doc = json.loads((tmp_path / "report.full").read_text())
        assert [d for d in doc["diagnostics"] if "converge" in d] == expected


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


class TestColdPath:
    """A run imports numpy and PyYAML, not scipy's heavy subpackages."""

    HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg")

    def test_fast_run_loads_no_scipy_subpackage(self, fixture_root):
        # Other tests import scipy into this process, so the run gets a fresh one.
        # anti_hedge's Frank fit picks its half-interval from dense ranks.
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


@pytest.fixture(params=["forked", "one_cpu"])
def cpus(request):
    """Each test runs once with the stability stage forked and once inline."""
    if request.param == "one_cpu":
        request.getfixturevalue("one_cpu")
    elif not FORKS:
        pytest.skip("the stability stage runs inline here")
    return request.param


def written_files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.fixture(scope="module", params=["perfect_hedge", "clayton_coupled"])
def forked_fast_run(request, fixture_root, tmp_path_factory):
    """A ``--fast`` run of a shipped fixture, its output directory and the
    pid of the process that ran the stability bootstrap."""
    episode = load_episode(fixture_root / request.param / "episode.yaml")
    out = tmp_path_factory.mktemp(f"forked_{request.param}")
    pid_file = out.parent / f"{out.name}.pid"
    real = attribution.bootstrap_stability

    def recording(*args, **kwargs):
        pid_file.write_text(str(os.getpid()))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attribution, "bootstrap_stability", recording)
        run_pipeline(episode, fast=True, out_dir=out)
    return episode, out, int(pid_file.read_text())


class TestForkedStability:
    """The stability bootstrap forked beside the other stages equals it inline."""

    @needs_fork
    def test_forked_run_equals_one_cpu_run_byte_for_byte(
        self, forked_fast_run, one_cpu, tmp_path, monkeypatch
    ):
        episode, forked_out, forked_pid = forked_fast_run
        assert forked_pid != os.getpid()
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

    def test_degenerate_stability_becomes_the_same_diagnostic(
        self, episode, cpus, tmp_path, monkeypatch
    ):
        def degenerate(*args, **kwargs):
            raise DegenerateSampleError("forced")

        monkeypatch.setattr(attribution, "bootstrap_stability", degenerate)
        result = run_pipeline(episode, out_dir=tmp_path)
        assert "attribution stability: forced" in result.diagnostics
        assert result.attributions.stability_kendall_tau is None
        assert_no_child_left()

    def test_numerical_error_reraised_with_its_type_and_stage(
        self, episode, cpus, tmp_path, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(attribution, "bootstrap_stability", failing)
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

        monkeypatch.setattr(attribution, "bootstrap_stability", dying)
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

        monkeypatch.setattr(attribution, "bootstrap_stability", slow)
        monkeypatch.setattr(copula, "block_bootstrap_ci", failing_ci)
        start = time.monotonic()
        with pytest.raises(FitError, match=r"^copula \(foreign\): forced$"):
            run_pipeline(episode, out_dir=tmp_path)
        assert time.monotonic() - start < 30.0
        assert_no_child_left()

    def test_stability_logs_reach_the_parent_once_in_order(
        self, episode, cpus, tmp_path, monkeypatch, caplog
    ):
        real = attribution.bootstrap_stability
        log = logging.getLogger("crisishedge.attribution")

        def logging_stability(*args, **kwargs):
            log.warning("first %s", "warning")
            log.warning("second warning")
            return real(*args, **kwargs)

        monkeypatch.setattr(attribution, "bootstrap_stability", logging_stability)
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
        # while inflation and FX still give both months a loss.
        for path in (fixture_root / "anti_hedge").iterdir():
            lines = path.read_text().splitlines(keepends=True)
            if path.name == "equity_tr_index.csv":
                lines = [line for line in lines if not line.startswith("2016-06,")]
            (tmp_path / path.name).write_text("".join(lines))
        episode = dataclasses.replace(
            load_episode(tmp_path / "episode.yaml"),
            bootstrap=BootstrapConfig(replications=FAST_REPS, seed=1),
        )
        result = run_pipeline(episode, write_outputs=False)
        post = result.post_window.months
        assert "2016-06" not in post and "2016-07" not in post
        assert {r.residency for r in result.reports} == {Residency.LOCAL, Residency.FOREIGN}
        for residency, loss in result.losses.items():
            assert loss.months == post
            assert result.pseudo_samples[residency].n == len(post)

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
