"""Block resampling and the batched fits of the bootstrap and
cross-validation loops.

Every batched fit is held to one standard: it must equal, bit for bit, the
same fit done one replicate at a time.  For the copula bootstrap the
one-at-a-time reference is scipy's scalar bounded search on each
replicate's own pseudo-sample, kept here as an oracle.
"""

import math
from functools import cache

import numpy as np
import pytest
from scipy import optimize, stats

from crisishedge import attribution, copula, load_episode, qreg, run_pipeline
from crisishedge.attribution import (
    _shapley_matrix,
    bootstrap_stability,
    importance_summary,
    stability_kendall,
)
from crisishedge.copula import (
    THETA_BOUNDS,
    CopulaFamily,
    PseudoSample,
    block_bootstrap_ci,
    family_lambda_statistic,
    log_density,
    lower_tail_dependence,
)
from crisishedge.errors import DataError, NumericalError
from crisishedge.qreg import (
    FitCertificates,
    _restandardized_subset,
    expanding_window_cv,
    fit_quantile,
)
from crisishedge.resample import block_resamples

from test_attribution import make_design
from test_copula import sample_from
from test_qreg import noise_matrix


def reference_fit(sample, family, maxiter=500):
    """One copula fit the scalar way: scipy's bounded search on one replicate.

    Returns theta, lambda_L, whether it converged, whether it sits at a
    bound, and which of Frank's half-intervals the sample's Kendall tau chose.
    """
    u, v = sample.u, sample.v

    def nll(theta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = -float(np.sum(log_density(family, theta, u, v)))
        return total if math.isfinite(total) else 1e300

    lo, hi = THETA_BOUNDS[family]
    half = None
    if family is CopulaFamily.FRANK:
        tau = float(stats.kendalltau(u, v).statistic)
        if not math.isfinite(tau) or abs(tau) < 0.05:
            half, intervals = "both", [(1e-6, hi), (lo, -1e-6)]
        elif tau > 0:
            half, intervals = "positive", [(1e-6, hi)]
        else:
            half, intervals = "negative", [(lo, -1e-6)]
    else:
        intervals = [(lo, hi)]
    best, converged = None, True
    for a, b in intervals:
        res = optimize.minimize_scalar(
            nll, bounds=(a, b), method="bounded",
            options={"xatol": 1e-10, "maxiter": maxiter},
        )
        converged = converged and bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    theta, ll = float(best.x), -float(best.fun)
    converged = converged and math.isfinite(ll) and ll > -1e299
    edge = 1e-4 * (hi - lo)
    at_upper = theta >= hi - edge
    lam = 1.0 if at_upper else lower_tail_dependence(family, theta)
    return theta, lam, converged, at_upper or theta <= lo + edge, half


def comonotone_sample():
    x = np.random.default_rng(107).normal(size=120)
    return PseudoSample.from_data(x, 2.0 * x + 1.0)


# name -> (sample, family fitted to each replicate)
COPULA_CASES = {
    "clayton": (lambda: sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=116),
                CopulaFamily.CLAYTON),
    "gumbel-upper-bound": (comonotone_sample, CopulaFamily.GUMBEL),
    "gumbel-near-independence": (
        lambda: sample_from(CopulaFamily.GUMBEL, 1.05, 120, seed=117), CopulaFamily.GUMBEL),
    # Replicate taus fall on both sides of +-0.05 and between them.
    "frank-both-halves": (lambda: sample_from(CopulaFamily.FRANK, 0.45, 120, seed=2),
                          CopulaFamily.FRANK),
}
COPULA_REPS = 100


@cache
def one_at_a_time(case, maxiter=500):
    make, family = COPULA_CASES[case]
    sample = make()
    rows = block_resamples(sample.n, replications=COPULA_REPS, seed=5)
    return [
        reference_fit(PseudoSample.from_data(sample.u[r], sample.v[r]), family, maxiter)
        for r in rows
    ]


def batched(monkeypatch, case, chunk=None):
    """The bootstrap CI of ``case`` and every lane fit it made, in replicate order."""
    make, family = COPULA_CASES[case]
    sample = make()
    if chunk is not None:
        monkeypatch.setattr(copula, "CHUNK_POINTS", chunk * sample.n)
    fits = []
    real_fit = copula.fit_batch

    def recording_fit(batch, family):
        fit = real_fit(batch, family)
        fits.append(fit)
        return fit

    monkeypatch.setattr(copula, "fit_batch", recording_fit)
    ci = block_bootstrap_ci(
        sample, family_lambda_statistic(family), replications=COPULA_REPS, seed=5
    )
    lanes = {
        name: np.concatenate([getattr(f, name) for f in fits])
        for name in ("theta", "lambda_lower", "converged", "boundary")
    }
    return ci, lanes


class TestBlockBootstrap:
    def test_block_length_validated(self):
        with pytest.raises(DataError, match="exceeds sample size"):
            block_resamples(5, replications=3, block_length=6, seed=1)
        with pytest.raises(DataError, match=">= 1"):
            block_resamples(5, replications=3, block_length=0, seed=1)

    def test_replicate_rows_independent_of_replications(self):
        few = block_resamples(60, replications=5, seed=3)
        many = block_resamples(60, replications=50, seed=3)
        assert np.array_equal(many[:5], few)


class TestSerialEqualsBatched:
    def test_block_bootstrap_ci(self, monkeypatch):
        ci, lanes = batched(monkeypatch, "clayton")
        reference = np.array([fit[1] for fit in one_at_a_time("clayton")])
        assert ci.interval == tuple(np.quantile(reference, [0.025, 0.975]))
        assert np.array_equal(lanes["lambda_lower"], reference)
        assert (ci.skipped, ci.nonconverged, ci.boundary) == (0, 0, 0)

    def test_pipeline_outputs_byte_identical(self, fixture_root, tmp_path, monkeypatch):
        episode = load_episode(fixture_root / "perfect_hedge" / "episode.yaml")
        samples = run_pipeline(episode, fast=True, out_dir=tmp_path / "batched").pseudo_samples
        # One replicate per chunk: the bootstrap fits one replicate at a time.
        monkeypatch.setattr(copula, "CHUNK_POINTS", min(s.n for s in samples.values()))
        run_pipeline(episode, fast=True, out_dir=tmp_path / "alone")
        outs = {k: tmp_path / k for k in ("batched", "alone")}
        files = sorted(p.relative_to(outs["batched"]) for p in outs["batched"].rglob("*")
                       if p.is_file())
        assert len(files) == 7
        assert files == sorted(
            p.relative_to(outs["alone"]) for p in outs["alone"].rglob("*") if p.is_file()
        )
        for rel in files:
            assert (outs["batched"] / rel).read_bytes() == (outs["alone"] / rel).read_bytes(), rel


def crowded_design(n=48, seed=68):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 4))
    y = Z @ np.array([1.0, 0.9, 0.8, 0.7]) + rng.normal(0, 0.5, n)
    return make_design(Z, y, ("a", "b", "c", "d"))


class TestBatchedEqualsOneAtATime:
    def test_bootstrap_stability(self):
        X = crowded_design()
        batched = bootstrap_stability(X, 0.25, replications=24, seed=9)
        rankings = []
        certificates = FitCertificates()
        for rows in np.sort(block_resamples(len(X), replications=24, seed=9), axis=1):
            replicate = _restandardized_subset(X, rows, rows)
            model = fit_quantile(replicate, 0.25)
            linear = replicate.values[:, : replicate.n_linear]
            _, phi = _shapley_matrix(model, linear, np.mean(linear, axis=0))
            rankings.append(importance_summary(model.columns, phi).ranking)
            certificates += model.certificate
        assert batched.kendall_tau == stability_kendall(rankings)
        assert batched.skipped == 0
        assert batched.certificates == certificates

    def test_expanding_window_cv(self):
        X = noise_matrix(80, seed=41)
        taus = (0.1, 0.5, 0.9)
        together = expanding_window_cv(X, taus, initial_window=20, step=10)
        assert len(together[0.5].folds) == 6
        alone = {tau: expanding_window_cv(X, (tau,), initial_window=20, step=10)[tau]
                 for tau in taus}
        assert repr(together) == repr(alone)

    def test_replicate_fit_independent_of_replications_and_chunk(self, monkeypatch):
        X = crowded_design()
        solved = []
        real_solve = attribution.solve_check_loss

        def recording_solve(designs, targets, taus):
            coef, certificates = real_solve(designs, targets, taus)
            solved.extend(coef[0])
            return coef, certificates

        monkeypatch.setattr(attribution, "solve_check_loss", recording_solve)
        bootstrap_stability(X, 0.25, replications=24, seed=9)
        one_chunk = np.array(solved)
        solved.clear()
        # Chunks of 5 replicates, each solved in chunks of 2.
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 5 * len(X))
        monkeypatch.setattr(qreg, "CHUNK_ROWS", 2 * len(X))
        bootstrap_stability(X, 0.25, replications=40, seed=9)
        assert len(solved) == 40
        assert np.array_equal(np.array(solved[:24]), one_chunk)

    @pytest.mark.parametrize("chunk", [1, 7, COPULA_REPS])
    @pytest.mark.parametrize("case", sorted(COPULA_CASES))
    def test_copula_replicate_fits(self, monkeypatch, case, chunk):
        reference = one_at_a_time(case)
        _, lanes = batched(monkeypatch, case, chunk)
        for k, name in enumerate(("theta", "lambda_lower", "converged", "boundary")):
            assert np.array_equal(lanes[name], np.array([fit[k] for fit in reference])), name
        halves = {fit[4] for fit in reference}
        if case.startswith("frank"):
            assert halves == {"positive", "negative", "both"}
        if case.startswith("gumbel"):
            assert lanes["boundary"].any()

    def test_nonconverged_fits_are_excluded_and_counted(self, monkeypatch):
        monkeypatch.setattr(copula, "MAXITER", 25)
        reference = one_at_a_time("clayton", maxiter=25)
        ci, lanes = batched(monkeypatch, "clayton")
        converged = np.array([fit[2] for fit in reference])
        assert np.array_equal(lanes["converged"], converged)
        assert (ci.nonconverged, ci.skipped) == (3, 0)
        kept = [fit[1] for fit in reference if fit[2]]
        assert ci.interval == tuple(np.quantile(kept, [0.025, 0.975]))

        # 16 of 100 fail at 20 evaluations: over the 5% bound.
        monkeypatch.setattr(copula, "MAXITER", 20)
        with pytest.raises(NumericalError, match="16/100 replicates degenerate or not converged"):
            batched(monkeypatch, "clayton")
