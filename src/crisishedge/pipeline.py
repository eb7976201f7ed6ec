"""End-to-end orchestration of a crisis episode run.

Stage order: ingest panel, build returns, select tail quantiles, fit the
quantile regressions, fit copulas and bootstrap tail-dependence intervals,
assemble hedge reports, and only then compute attribution.  Hedge outputs are
flushed to disk before attribution starts, so a late-stage failure can never
corrupt the already-written report files; every file is written atomically.
The attribution stability bootstrap is the one stage that runs elsewhere:
a forked lead starts claiming its chunks once the design exists, and at the
attribution stage's join a forked helper takes any chunks still unclaimed.
This process never solves a chunk itself, so what it runs is the same on
every run, however the chunks were split.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np

from . import __version__
from . import attribution as attr
from . import copula as cop
from . import dataio
from . import hedge
from . import months as mo
from . import qreg
from . import returns as ret
from . import tailsel
from .config import CrisisEpisode, config_hash
from .errors import (
    BootstrapUnstableError,
    CrisisHedgeError,
    DataError,
    DegenerateSampleError,
)
from .hedge import HedgeReport, LossSeries, Residency
from .quantiles import order_statistic_rank
from .resample import chunks
from .tailsel import MIN_TAIL_COUNT

logger = logging.getLogger(__name__)

ENV_OUT_DIR = "CRISISHEDGE_OUTDIR"
FAST_REPLICATIONS = 200

REPORT_COLUMNS = (
    "Country",
    "Residents",
    "Crisis Date",
    "Hedge Eff. (%)",
    "Erosion (%)",
    "Net Real (%)",
    "Tail Dependence",
)


@dataclass
class RunResult:
    """Everything a run produced, in memory, plus where it was written."""

    episode: CrisisEpisode
    triplet: tailsel.TailQuantileTriplet
    return_series: ret.ReturnSeries
    post_window: ret.ReturnSeries
    losses: dict[Residency, LossSeries]
    pseudo_samples: dict[Residency, cop.PseudoSample]
    design: qreg.DesignMatrix
    models: dict[float, qreg.QuantileModel]
    pseudo_r2_in_sample: dict[float, float]
    cv: dict[float, qreg.CVReport]
    copula_candidates: dict[Residency, tuple[cop.CopulaFit, ...]]
    copula_fits: dict[Residency, cop.CopulaFit]
    tail_dependence_empirical: dict[Residency, float]
    reports: list[HedgeReport]
    attributions: attr.ImportanceSummary | None
    attribution_window: attr.WindowAttribution | None
    diagnostics: list[str]
    provenance: dict[str, object]
    out_dir: Path | None
    quantile_fits: qreg.FitCertificates = qreg.FitCertificates()


@contextmanager
def _stage(name: str):
    try:
        yield
    except CrisisHedgeError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _serve(fd: int, work: str, *args) -> NoReturn:
    """Child side of a fork: ``workers.serve``, imported only after the fork."""
    try:
        from . import workers

        workers.serve(fd, work, *args)
    finally:
        os._exit(1)  # never unwind into the caller's stack


# A chunk token is 2 bytes.  A fresh pipe holds at least one page, so every
# token is written before the first fork without blocking; past that many
# chunks a token stands for a run of consecutive chunks.
_TOKEN = 2
_MAX_TOKENS = 4096 // _TOKEN


class _ForkedStability:
    """``attr.bootstrap_stability(design, tau, **kwargs)`` in forked workers.

    With ``os.fork`` and two CPUs, entering writes the chunk tokens and forks
    the lead (see ``workers``).  :meth:`join` claims one token and, if it
    gets one, forks a helper for it; it then reads the lead's outcome, reaps
    both, re-emits the lead's log records in order, and returns or raises.
    This process never solves a chunk.  Elsewhere ``join`` makes the call
    itself.  Leaving the ``with`` block kills and reaps every worker.
    """

    def __init__(
        self, design: qreg.DesignMatrix, tau: float, *, replications: int, **kwargs
    ) -> None:
        self._job = functools.partial(
            attr.StabilityPlan, design, tau, replications=replications, **kwargs
        )
        # Only the chunk count: the plan is built in the workers, so a bad
        # input still raises at the join, under the attribution stage.
        self._chunks = sum(1 for _ in chunks(replications, len(design), attr.CHUNK_ROWS))
        self._lead: int | None = None
        self._helper: int | None = None
        self._tokens = self._to_lead = self._result = -1

    def __enter__(self) -> _ForkedStability:
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return self
        lead_ends: list[int] = []  # the parent's copies of the lead's pipe ends
        try:
            self._tokens, write = os.pipe()
            try:
                os.write(write, b"".join(
                    t.to_bytes(_TOKEN, "big") for t in range(min(self._chunks, _MAX_TOKENS))
                ))
            finally:
                os.close(write)  # before any fork: an empty pipe then reads as EOF
            os.set_blocking(self._tokens, False)
            from_helper, self._to_lead = os.pipe()
            lead_ends.append(from_helper)
            self._result, write = os.pipe()
            lead_ends.append(write)
            self._lead = os.fork()
            if self._lead == 0:
                os.close(self._to_lead)
                os.close(self._result)
                _serve(write, "lead", self._job, self._tokens, from_helper)
        except BaseException:
            self.__exit__()
            raise
        finally:
            for fd in lead_ends:
                os.close(fd)
        return self

    def join(self) -> attr.StabilityResult:
        if self._lead is None:
            return attr.bootstrap_stability(*self._job.args, **self._job.keywords)
        token = os.read(self._tokens, _TOKEN)
        if token:
            self._helper = os.fork()
            if self._helper == 0:
                _serve(self._to_lead, "helper", self._job, self._tokens, token)
        os.close(self._to_lead)
        self._to_lead = -1
        with os.fdopen(self._result, "rb") as pipe:
            self._result = -1  # the file object closes it
            data = pipe.read()
        _, status = os.waitpid(self._lead, 0)
        self._lead = None
        self.__exit__()
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise ChildProcessError(
                f"forked stability bootstrap ended without a result "
                f"(wait status {status}, {how})"
            )
        (ok, value), records = pickle.loads(data)
        for record in records:
            logging.getLogger(record.name).handle(record)
        if not ok:
            raise value
        return value

    def __exit__(self, *exc_info) -> None:
        for pid in (self._lead, self._helper):
            if pid is not None:
                import signal  # only this path needs it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._lead = self._helper = None
        for fd in (self._tokens, self._to_lead, self._result):
            if fd >= 0:
                os.close(fd)
        self._tokens = self._to_lead = self._result = -1


def resolve_out_dir(episode: CrisisEpisode, out_dir: str | Path | None) -> Path:
    """Precedence: explicit argument, then environment, then config, then cwd."""
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    if episode.output_dir is not None:
        return episode.output_dir
    return Path("crisishedge_out")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _fmt(value: float, decimals: int) -> str:
    s = f"{value:.{decimals}f}"
    if float(s) == 0.0:
        s = f"{0.0:.{decimals}f}"
    return s


def _provenance_line(prov: Mapping[str, object]) -> str:
    return (
        f"# crisishedge {prov['version']} config={prov['config_sha256']} "
        f"seed={prov['seed']} replications={prov['replications']}"
    )


def render_report_csv(
    episode: CrisisEpisode, reports: Sequence[HedgeReport], prov: Mapping[str, object]
) -> str:
    """Flat CSV mirroring the crisis-report table column order bit-exactly."""
    lines = [_provenance_line(prov), ",".join(REPORT_COLUMNS)]
    ordered = sorted(reports, key=lambda r: (r.country, r.residency.value))
    for r in ordered:
        lines.append(
            ",".join(
                [
                    r.country,
                    r.residency.value.capitalize(),
                    episode.crisis_date,
                    _fmt(r.hedge_effectiveness_pct, 1),
                    _fmt(r.mean_erosion_pct, 2),
                    _fmt(r.mean_net_real_pct, 2),
                    _fmt(r.tail_dependence, 2),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write_coefficients(path: Path, result: "RunResult", prov: Mapping[str, object]) -> None:
    lines = [_provenance_line(prov), "tau,column,coefficient"]
    labels = (qreg.INTERCEPT_LABEL, *result.design.columns)
    for tau in sorted(result.models):
        lines.extend(
            f"{tau!r},{label},{value!r}"
            for label, value in zip(labels, result.models[tau].coef.tolist())
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_attribution(path: Path, window: attr.WindowAttribution,
                       prov: Mapping[str, object]) -> None:
    lines = [_provenance_line(prov), "month,column,phi"]
    for month, row in zip(window.months, window.phi.T.tolist()):
        lines.append(f"{month},(baseline),{window.phi0!r}")
        lines.extend(f"{month},{col},{phi!r}" for col, phi in zip(window.columns, row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_figures(out: Path, result: "RunResult", prov: Mapping[str, object]) -> None:
    rs = result.return_series
    lines = [_provenance_line(prov), "month,measure,value"]
    for i, month in enumerate(rs.months):
        lines.append(f"{month},nominal,{float(rs.nominal[i])!r}")
        lines.append(f"{month},real_domestic,{float(rs.real_domestic[i])!r}")
        lines.append(f"{month},real_foreign,{float(rs.real_foreign[i])!r}")
    _atomic_write(out / "real_returns.csv", "\n".join(lines) + "\n")

    lines = [_provenance_line(prov), "label,mean_pct,std_pct"]
    post = result.post_window

    def stat_row(label: str, values: np.ndarray) -> str:
        return (
            f"{label},{100.0 * float(np.mean(values))!r},"
            f"{100.0 * float(np.std(values, ddof=1))!r}"
        )

    lines.append(stat_row("nominal", post.nominal))
    lines.append(stat_row("real_domestic", post.real_domestic))
    lines.append(stat_row("real_foreign", post.real_foreign))
    for residency in sorted(result.losses, key=lambda r: r.value):
        loss = result.losses[residency]
        lines.append(stat_row(f"loss_{residency.value}", loss.loss))
        lines.append(
            stat_row(f"net_{residency.value}", post.nominal - loss.loss)
        )
    _atomic_write(out / "risk_return.csv", "\n".join(lines) + "\n")

    if result.attributions is not None:
        lines = [_provenance_line(prov), "column,share_pct"]
        for col in result.attributions.ranking:
            lines.append(f"{col},{result.attributions.shares[col]!r}")
        _atomic_write(out / "importance_bars.csv", "\n".join(lines) + "\n")


def _copula_fit_dict(fit: cop.CopulaFit, empirical: float) -> dict[str, object]:
    return {
        "family": fit.family.value,
        "theta": fit.theta,
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "bic": fit.bic,
        "lambda_lower": fit.lambda_lower,
        "lambda_lower_ci": list(fit.lambda_lower_ci) if fit.lambda_lower_ci else None,
        "empirical_lambda_at_tau": empirical,
        "n": fit.n,
        "converged": fit.converged,
        "boundary": fit.boundary,
        "diagnostics": list(fit.diagnostics),
    }


def _write_full_report(path: Path, result: "RunResult") -> None:
    episode = result.episode
    triplet = result.triplet
    doc = {
        "schema_version": 1,
        "provenance": result.provenance,
        "episode": {
            "country": episode.country,
            "crisis_date": episode.crisis_date,
            "crisis_month": episode.crisis_month,
            "window": [episode.window_start, episode.window_end],
            "residency": [r.value for r in episode.residency],
            "criterion": episode.criterion,
            "quantile_override": list(episode.quantile_override or ()) or None,
        },
        "quantile_triplet": {
            "tau_low": triplet.tau_low,
            "tau_mid": triplet.tau_mid,
            "tau_high": triplet.tau_high,
            "per_country": dict(triplet.per_country_taus),
            "variance_ratio": {
                k: (None if np.isnan(v) else v)
                for k, v in triplet.variance_ratio.items()
            },
            "variance_pass": dict(triplet.variance_pass),
            "warnings": list(triplet.warnings),
        },
        "reports": [
            {
                "country": r.country,
                "residency": r.residency.value,
                "crisis_month": r.crisis_date,
                "hedge_effectiveness_pct": r.hedge_effectiveness_pct,
                "mean_erosion_pct": r.mean_erosion_pct,
                "mean_net_real_pct": r.mean_net_real_pct,
                "tail_dependence": r.tail_dependence,
                "tail_dependence_ci": list(r.tail_dependence_ci),
                "tail_dependence_empirical": r.tail_dependence_empirical,
            }
            for r in sorted(result.reports, key=lambda r: (r.country, r.residency.value))
        ],
        "copula": {
            residency.value: {
                "selected": _copula_fit_dict(
                    result.copula_fits[residency],
                    result.tail_dependence_empirical[residency],
                ),
                "candidates": [
                    _copula_fit_dict(f, result.tail_dependence_empirical[residency])
                    for f in result.copula_candidates[residency]
                ],
            }
            for residency in sorted(result.copula_fits, key=lambda r: r.value)
        },
        "quantile_models": {
            repr(tau): {
                "intercept": m.intercept,
                "betas": dict(m.betas),
                "gammas": {f"{a}*{b}": g for (a, b), g in m.gammas.items()},
                "objective_value": m.objective_value,
                "pseudo_r2_in_sample": result.pseudo_r2_in_sample.get(tau),
            }
            for tau, m in sorted(result.models.items())
        },
        "cv": {
            repr(tau): {
                "pooled_mae": report.pooled_mae,
                "pooled_pseudo_r2": report.pooled_pseudo_r2,
                "coefficient_paths": {
                    col: list(path)
                    for col, path in report.coefficient_paths.items()
                },
                "folds": [
                    {
                        "fold": f.fold,
                        "train_rows": f.train_rows,
                        "test_months": list(f.test_months),
                        "n_test": f.n_test,
                        "mae": f.mae,
                        "pseudo_r2": (None if np.isnan(f.pseudo_r2) else f.pseudo_r2),
                    }
                    for f in report.folds
                ],
            }
            for tau, report in sorted(result.cv.items())
        },
        "attribution": (
            None
            if result.attributions is None
            else {
                "ranking": list(result.attributions.ranking),
                "shares_pct": dict(result.attributions.shares),
                "stability_kendall_tau": result.attributions.stability_kendall_tau,
            }
        ),
        "diagnostics": result.diagnostics,
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def run_pipeline(
    episode: CrisisEpisode,
    *,
    fast: bool = False,
    out_dir: str | Path | None = None,
    write_outputs: bool = True,
) -> RunResult:
    """Execute the full analysis for one crisis episode.

    ``fast`` caps bootstrap replications at 200 for desk-scale runs; the
    report CSV is unaffected because its headline numbers never depend on the
    bootstrap.

    The lower tail level ``tau_low`` reaches only the triplet's variance
    warnings, the quantile regressions at ``tau_low``/``tau_high`` (with
    their CV and the attribution built on them) and each residency's
    empirical tail dependence.  Hedge effectiveness, the selected copula
    family, its analytic lambda_L and the bootstrap interval are free of it.
    """
    diagnostics: list[str] = []
    replications = (
        min(FAST_REPLICATIONS, episode.bootstrap.replications)
        if fast
        else episode.bootstrap.replications
    )
    prov: dict[str, object] = {
        "version": __version__,
        "config_sha256": config_hash(episode),
        "seed": episode.bootstrap.seed,
        "replications": replications,
        "fast": fast,
    }

    with _stage("dataio"):
        manifest = dataio.load_manifest(episode.series_manifest)
        panel = dataio.load_panel(manifest)
        inflation = panel[manifest.roles["inflation"]]
        if manifest.inflation_kind == "index":
            inflation = dataio.pct_change(inflation, name=f"{inflation.name}_rate")

    with _stage("returns"):
        lead = mo.shift_month(episode.window_start, -1)
        full_series = ret.build_return_series(
            panel[manifest.roles["equity"]].window(lead, episode.window_end),
            panel[manifest.roles["fx"]].window(lead, episode.window_end),
            inflation,
        )
        window_series = full_series.window(episode.window_start, episode.window_end)
        if len(window_series) < 2:
            raise DataError("fewer than 2 return months inside the analysis window")

    with _stage("tailsel"):
        post = window_series.window(episode.crisis_month, None)
        if len(post) < MIN_TAIL_COUNT:
            raise DataError(
                f"post-collapse window holds {len(post)} return month(s); "
                f"need at least {MIN_TAIL_COUNT}"
            )
        triplet = tailsel.build_triplet(
            {episode.country: post.nominal},
            tau_override=episode.active_override,
        )
        diagnostics.extend(triplet.warnings)
    tau_levels = (triplet.tau_low, triplet.tau_mid, triplet.tau_high)

    with _stage("qreg"):
        target = dataio.MacroSeries(
            name=qreg.TARGET_COLUMN,
            observations=tuple(zip(window_series.months, window_series.nominal)),
            unit="fraction/month",
        )
        qpanel = dict(panel)
        qpanel[qreg.TARGET_COLUMN] = target
        design = qreg.engineer_features(
            qpanel,
            episode.feature_schema,
            window=(episode.window_start, episode.window_end),
        )
        if design.dropped_rows:
            diagnostics.append(
                f"qreg: dropped {design.dropped_rows} row(s) with feature gaps"
            )

    seeds = np.random.SeedSequence(episode.bootstrap.seed).generate_state(3)
    # The stability bootstrap needs only the design, tau_low and its seed, so
    # it runs in forked workers beside the fits, CV and copula legs and is
    # joined where attribution needs it (inline with fewer than two CPUs).
    with _ForkedStability(
        design,
        triplet.tau_low,
        replications=replications,
        block_length=episode.bootstrap.block_length,
        seed=int(seeds[2]),
    ) as stability_job:
        with _stage("qreg"):
            models: dict[float, qreg.QuantileModel] = {}
            r2: dict[float, float] = {}
            cv_reports: dict[float, qreg.CVReport] = {}
            for tau in tau_levels:
                model = qreg.fit_quantile(design, tau)
                models[tau] = model
                r2[tau] = qreg.pseudo_r2(model, design)
            if episode.cv is not None:
                try:
                    cv_reports = qreg.expanding_window_cv(
                        design,
                        tau_levels,
                        episode.cv.initial_window,
                        episode.cv.step,
                        force_test_month=episode.cv.force_test_month,
                    )
                except (DataError, DegenerateSampleError) as exc:
                    diagnostics.extend(f"cv (tau={tau:.4g}): {exc}" for tau in tau_levels)

        residency_seed = {Residency.LOCAL: int(seeds[0]), Residency.FOREIGN: int(seeds[1])}
        residencies = sorted(episode.residency, key=lambda r: r.value)
        losses: dict[Residency, LossSeries] = {}
        samples: dict[Residency, cop.PseudoSample] = {}
        for residency in residencies:
            with _stage(f"hedge ({residency.value})"):
                # A return month has the inflation and FX observations its loss
                # needs, so every post-collapse month has a loss.
                loss = hedge.loss_series(
                    inflation, panel[manifest.roles["fx"]], residency
                ).at(post.months)
                losses[residency] = loss
            with _stage(f"copula ({residency.value})"):
                samples[residency] = cop.PseudoSample.from_data(post.nominal, loss.loss)

        # Every residency's sample is fitted in one search per family, and
        # the residencies that select one family are bootstrapped together.
        with _stage(f"copula ({residencies[0].value})"):
            fitted = cop.fit_families([samples[r] for r in residencies])
        candidates = dict(zip(residencies, fitted))
        empirical: dict[Residency, float] = {}
        chosen: dict[Residency, cop.CopulaFit] = {}
        by_family: dict[cop.CopulaFamily, list[Residency]] = {}
        for residency in residencies:
            with _stage(f"copula ({residency.value})"):
                empirical[residency] = cop.empirical_tail_dependence(
                    samples[residency], triplet.tau_low
                )
                chosen[residency] = cop.select_family(candidates[residency], episode.criterion)
            by_family.setdefault(chosen[residency].family, []).append(residency)
        boots: dict[Residency, cop.BootstrapCI] = {}
        for family, legs in by_family.items():
            try:
                intervals = cop.block_bootstrap_ci(
                    [samples[r] for r in legs],
                    family,
                    seeds=[residency_seed[r] for r in legs],
                    replications=replications,
                    block_length=episode.bootstrap.block_length,
                )
            except CrisisHedgeError as exc:
                # Reported under the stage of the residency whose leg failed.
                failing = legs[exc.leg if isinstance(exc, BootstrapUnstableError) else 0]
                with _stage(f"copula ({failing.value})"):
                    raise
            boots.update(zip(legs, intervals))

        selected: dict[Residency, cop.CopulaFit] = {}
        reports: list[HedgeReport] = []
        for residency in residencies:
            for fit in candidates[residency]:
                diagnostics.extend(f"copula ({residency.value}): {d}" for d in fit.diagnostics)
            boot = boots[residency]
            if boot.nonconverged:
                diagnostics.append(
                    f"copula ({residency.value}): bootstrap {boot.nonconverged}/"
                    f"{boot.replications} replicate fits did not converge"
                )
            diagnostics.append(
                f"copula ({residency.value}): bootstrap {boot.boundary}/"
                f"{boot.replications} replicate fits at a parameter bound"
            )
            selected[residency] = cop.attach_ci(chosen[residency], boot.interval)

            with _stage(f"hedge ({residency.value})"):
                try:
                    reports.append(
                        hedge.build_hedge_report(
                            episode, post, losses[residency], selected[residency],
                            empirical[residency],
                        )
                    )
                except DegenerateSampleError as exc:
                    diagnostics.append(f"hedge ({residency.value}): {exc}")

        result = RunResult(
            episode=episode,
            triplet=triplet,
            return_series=window_series,
            post_window=post,
            losses=losses,
            pseudo_samples=samples,
            design=design,
            models=models,
            pseudo_r2_in_sample=r2,
            cv=cv_reports,
            copula_candidates=candidates,
            copula_fits=selected,
            tail_dependence_empirical=empirical,
            reports=reports,
            attributions=None,
            attribution_window=None,
            diagnostics=diagnostics,
            provenance=prov,
            out_dir=None,
        )

        destination: Path | None = None
        if write_outputs:
            destination = resolve_out_dir(episode, out_dir)
            result.out_dir = destination
            _atomic_write(
                destination / "report.csv", render_report_csv(episode, reports, prov)
            )
            _write_coefficients(destination / "coefficients.csv", result, prov)

        with _stage("attribution"):
            low_model = models[triplet.tau_low]
            window = attr.attribute_window(low_model, design)
            stability: float | None = None
            fits = sum(
                [models[tau].certificate for tau in tau_levels]
                + [report.certificates for report in cv_reports.values()],
                qreg.FitCertificates(),
            )
            try:
                stable = stability_job.join()
            except DegenerateSampleError as exc:
                diagnostics.append(f"attribution stability: {exc}")
            else:
                stability = stable.kendall_tau
                fits += stable.certificates
                if stable.skipped:
                    diagnostics.append(
                        f"attribution stability: skipped {stable.skipped}/"
                        f"{stable.replications} replicates"
                    )
            try:
                result.attributions = attr.importance_summary(
                    window.columns, window.phi, stability=stability
                )
            except DegenerateSampleError as exc:
                diagnostics.append(f"attribution: {exc}")
            result.attribution_window = window
            result.quantile_fits = fits
            if fits.fallbacks:
                diagnostics.append(
                    f"qreg: {fits.fallbacks}/{len(fits)} quantile fits fell back to HiGHS"
                )

    if destination is not None:
        _write_attribution(destination / "attribution.csv", window, prov)
        _write_figures(destination / "figures", result, prov)
        _write_full_report(destination / "report.full", result)
        logger.info("outputs written to %s", destination)
    return result


@dataclass(frozen=True)
class SweepRow:
    residency: Residency
    hedge_effectiveness_pct: float
    tail_dependence: float
    tail_dependence_empirical: float
    delta_hedge_effectiveness_pct: float
    delta_tail_dependence: float
    delta_tail_dependence_empirical: float


@dataclass(frozen=True)
class SweepEntry:
    tau: float
    feasible: bool
    reason: str
    rows: tuple[SweepRow, ...] = ()


def sensitivity_sweep(
    episode: CrisisEpisode,
    taus: Sequence[float],
    *,
    fast: bool = False,
    out_dir: str | Path | None = None,
    write_outputs: bool = True,
) -> tuple[RunResult, list[SweepEntry]]:
    """Tabulate the hedge outcome at alternative lower-tail levels.

    Every level's rows come from one base run, which executes in full (and
    writes its outputs).  Of the tabulated quantities only the empirical
    tail dependence varies with tau; it is recomputed from the base run's
    pseudo-samples.  Hedge effectiveness and the analytic tail dependence do
    not depend on the tail level, so they are copied and their deltas are
    exactly zero.  Infeasible levels are listed with a reason and the sweep
    continues; a feasible level with an empty empirical tail raises.
    """
    base = run_pipeline(
        episode, fast=fast, out_dir=out_dir, write_outputs=write_outputs
    )
    t_post = len(base.post_window)

    def rows_at(tau: float) -> tuple[SweepRow, ...]:
        rows = []
        for report in base.reports:
            with _stage(f"copula ({report.residency.value})"):
                emp = cop.empirical_tail_dependence(
                    base.pseudo_samples[report.residency], tau
                )
            rows.append(
                SweepRow(
                    residency=report.residency,
                    hedge_effectiveness_pct=report.hedge_effectiveness_pct,
                    tail_dependence=report.tail_dependence,
                    tail_dependence_empirical=emp,
                    delta_hedge_effectiveness_pct=0.0,
                    delta_tail_dependence=0.0,
                    delta_tail_dependence_empirical=(
                        emp - report.tail_dependence_empirical
                    ),
                )
            )
        return tuple(rows)

    entries: list[SweepEntry] = [
        SweepEntry(
            tau=base.triplet.tau_low,
            feasible=True,
            reason="base run",
            rows=rows_at(base.triplet.tau_low),
        )
    ]
    for tau in taus:
        tau = float(tau)
        if not 0.0 < tau < 0.5:
            entries.append(
                SweepEntry(tau=tau, feasible=False, reason="not a lower-tail level")
            )
            continue
        if order_statistic_rank(tau, t_post) < MIN_TAIL_COUNT:
            entries.append(
                SweepEntry(
                    tau=tau,
                    feasible=False,
                    reason=(
                        f"fewer than {MIN_TAIL_COUNT} tail observations "
                        f"in {t_post} post-collapse months"
                    ),
                )
            )
            continue
        entries.append(SweepEntry(tau=tau, feasible=True, reason="", rows=rows_at(tau)))

    if write_outputs:
        destination = resolve_out_dir(episode, out_dir)
        lines = [
            _provenance_line(base.provenance),
            "tau,feasible,reason,residency,he_pct,tail_dependence,"
            "tail_dependence_empirical,delta_he_pct,delta_tail_dependence,"
            "delta_tail_dependence_empirical",
        ]
        for entry in entries:
            if not entry.rows:
                lines.append(
                    f"{entry.tau!r},{entry.feasible},{entry.reason},,,,,,,"
                )
                continue
            for row in entry.rows:
                lines.append(
                    f"{entry.tau!r},{entry.feasible},{entry.reason},"
                    f"{row.residency.value},{row.hedge_effectiveness_pct!r},"
                    f"{row.tail_dependence!r},{row.tail_dependence_empirical!r},"
                    f"{row.delta_hedge_effectiveness_pct!r},"
                    f"{row.delta_tail_dependence!r},"
                    f"{row.delta_tail_dependence_empirical!r}"
                )
        _atomic_write(destination / "sweep.csv", "\n".join(lines) + "\n")
    return base, entries
