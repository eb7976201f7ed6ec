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
from scipy import optimize

from crisishedge import attribution, copula, load_episode, qreg, run_pipeline
from crisishedge.attribution import bootstrap_stability
from crisishedge.copula import (
    THETA_BOUNDS,
    CopulaFamily,
    PseudoSample,
    block_bootstrap_ci,
)
from crisishedge.errors import BootstrapUnstableError, DataError, NumericalError
from crisishedge.qreg import (
    FitCertificates,
    expanding_window_cv,
    fit_quantile,
    restandardized_values,
)
from crisishedge.resample import block_resamples, chunks, stacked_resamples

from oracles import (
    kendall_oracle,
    log_density,
    lower_tail_dependence,
    restandardized_subset,
    summary_oracle,
    window_phi,
)
from test_attribution import make_design
from test_copula import sample_from
from test_qreg import noise_matrix


def reference_fit(sample, family, maxiter=500):
    """One copula fit the scalar way: scipy's bounded search on one replicate.

    Returns theta, lambda_L, whether it converged and whether it sits at a
    bound.
    """
    u, v = sample.u, sample.v

    def nll(theta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = -float(np.sum(log_density(family, theta, u, v)))
        return total if math.isfinite(total) else 1e300

    lo, hi = THETA_BOUNDS[family]
    res = optimize.minimize_scalar(
        nll, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10, "maxiter": maxiter},
    )
    theta, ll = float(res.x), -float(res.fun)
    converged = bool(res.success) and math.isfinite(ll) and ll > -1e299
    edge = 1e-4 * (hi - lo)
    at_upper = theta >= hi - edge
    lam = 1.0 if at_upper else lower_tail_dependence(family, theta)
    return theta, lam, converged, at_upper or theta <= lo + edge


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
    # Replicate thetas fall on both sides of 0.
    "frank-both-signs": (lambda: sample_from(CopulaFamily.FRANK, 0.45, 120, seed=2),
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

    def recording_fit(batch, family, **kwargs):
        fit = real_fit(batch, family, **kwargs)
        fits.append(fit)
        return fit

    monkeypatch.setattr(copula, "fit_batch", recording_fit)
    (ci,) = block_bootstrap_ci([sample], family, seeds=[5], replications=COPULA_REPS)
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
        rows = {r: block_resamples(60, replications=r, seed=3) for r in (100, 200, 1000)}
        assert np.array_equal(rows[1000][:100], rows[100])
        assert np.array_equal(rows[1000][:200], rows[200])

    @pytest.mark.parametrize("block_length", [None, 7])
    def test_stacked_rows_are_each_legs_draw_offset_by_leg(self, block_length):
        seeds, reps, n = (5, 6, 5), 40, 60
        stacked = stacked_resamples(n, seeds=seeds, replications=reps, block_length=block_length)
        assert stacked.dtype == np.int32
        assert stacked.shape == (len(seeds) * reps, n)
        for k, seed in enumerate(seeds):
            leg = block_resamples(n, replications=reps, block_length=block_length, seed=seed)
            for r in range(reps):
                assert np.array_equal(stacked[k * reps + r], leg[r] + k * n)

    @pytest.mark.parametrize(
        "count, n, budget, sizes",
        [
            (10, 3, 7, [2, 2, 2, 2, 2]),
            (11, 3, 9, [3, 3, 3, 2]),
            (4, 10, 3, [1, 1, 1, 1]),  # a budget below n: one replicate a slice
            (5, 4, 100, [5]),
            (0, 4, 100, []),
        ],
    )
    def test_chunks_cover_every_replicate_in_order(self, count, n, budget, sizes):
        parts = list(chunks(count, n, budget))
        assert [p.stop - p.start for p in parts] == sizes
        assert [i for p in parts for i in range(count)[p]] == list(range(count))
        assert all(p.stop - p.start == max(1, budget // n) for p in parts[:-1])


class TestSerialEqualsBatched:
    def test_block_bootstrap_ci(self, monkeypatch):
        ci, lanes = batched(monkeypatch, "clayton")
        reference = np.array([fit[1] for fit in one_at_a_time("clayton")])
        assert ci.interval == tuple(np.quantile(reference, [0.025, 0.975]))
        assert np.array_equal(lanes["lambda_lower"], reference)
        assert (ci.nonconverged, ci.boundary) == (0, 0)

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


class TestLegsEqualSingleCalls:
    """Samples bootstrapped as one stream get the intervals they get alone."""

    LEGS = {
        "gumbel": (lambda: [COPULA_CASES[case][0]() for case in
                            ("gumbel-upper-bound", "gumbel-near-independence")], 500),
        # 5 and 3 of 100 replicate fits stop unconverged at 23 evaluations.
        "clayton": (lambda: [sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=s)
                             for s in (116, 120)], 23),
    }

    @pytest.mark.parametrize("family", sorted(LEGS))
    def test_each_leg_equals_its_single_call(self, monkeypatch, family):
        make, maxiter = self.LEGS[family]
        samples = make()
        monkeypatch.setattr(copula, "MAXITER", maxiter)
        alone = tuple(
            block_bootstrap_ci([s], family, seeds=[seed], replications=COPULA_REPS)[0]
            for s, seed in zip(samples, (5, 6))
        )
        # Chunks of 7 replicates: the 15th holds the first leg's last 2 and
        # the second leg's first 5.
        monkeypatch.setattr(copula, "CHUNK_POINTS", 7 * samples[0].n)
        together = block_bootstrap_ci(samples, family, seeds=[5, 6], replications=COPULA_REPS)
        assert together == alone
        assert sum(ci.boundary + ci.nonconverged for ci in together) > 0

    def test_the_leg_that_breaks_the_5pct_rule_is_named(self, monkeypatch, caplog):
        # At 23 evaluations the first sample leaves 5 of 100 fits unconverged,
        # the second 6.
        monkeypatch.setattr(copula, "MAXITER", 23)
        monkeypatch.setattr(copula, "CHUNK_POINTS", 7 * 120)
        samples = [sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=s) for s in (116, 117)]
        message = "^bootstrap unstable: 6/100 replicate fits did not converge$"
        with pytest.raises(BootstrapUnstableError, match=message) as raised:
            block_bootstrap_ci(samples, "clayton", seeds=[5, 5], replications=COPULA_REPS)
        assert raised.value.leg == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"bootstrap: {k}/100 replicate fits did not converge" for k in (5, 6)
        ]

    def test_samples_must_share_one_length(self):
        a = sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=1)
        b = sample_from(CopulaFamily.CLAYTON, 2.0, 121, seed=1)
        with pytest.raises(DataError, match="one length"):
            block_bootstrap_ci([a, b], "clayton", seeds=[1, 2], replications=COPULA_REPS)
        with pytest.raises(ValueError, match="one seed per sample"):
            block_bootstrap_ci([a], "clayton", seeds=[1, 2], replications=COPULA_REPS)


def crowded_design(n=48, seed=68):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 4))
    y = Z @ np.array([1.0, 0.9, 0.8, 0.7]) + rng.normal(0, 0.5, n)
    return make_design(Z, y, ("a", "b", "c", "d"))


class TestBatchedEqualsOneAtATime:
    def test_bootstrap_stability(self):
        # Each replicate is fitted alone on its distinct rows, weighted by
        # their counts and zero-padded to its length; its Shapley values are
        # taken over all its drawn rows.
        X = crowded_design()
        batched = bootstrap_stability(X, 0.25, replications=24, seed=9)
        rankings = []
        certificates = FitCertificates()
        for rows in np.sort(block_resamples(len(X), replications=24, seed=9), axis=1):
            replicate = restandardized_subset(X, rows, rows)
            distinct, counts = np.unique(rows, return_counts=True)
            assert len(distinct) < len(rows)
            design = np.zeros((1, len(rows), 1 + len(X.columns)))
            target = np.zeros((1, len(rows)))
            design[0, : len(distinct), 0] = counts
            design[0, : len(distinct), 1:] = restandardized_values(X, rows, distinct)
            target[0, : len(distinct)] = X.target[distinct]
            coef, fits = qreg.solve_check_loss(design, target, (0.25,))
            duplicated = fit_quantile(replicate, 0.25).objective_value
            assert abs(fits.loss[0] - duplicated) <= 1e-9 * (1.0 + duplicated)
            model = qreg._quantile_model(replicate, 0.25, coef[0, 0], fits.loss[0])
            linear = replicate.values[:, : replicate.n_linear]
            phi = window_phi(model, linear, np.mean(linear, axis=0))
            rankings.append(summary_oracle(model.columns, phi)[0])
            certificates += fits
        assert batched.kendall_tau == kendall_oracle(rankings)
        assert batched.skipped == 0
        assert batched.certificates == certificates

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_stability_chunks_solved_in_any_order(self, monkeypatch, order):
        X = crowded_design()
        monkeypatch.setattr(attribution, "CHUNK_ROWS", 5 * len(X))
        expected = bootstrap_stability(X, 0.25, replications=24, seed=9)
        def plan():
            return attribution.StabilityPlan(X, 0.25, replications=24, seed=9)

        indices = list(range(len(plan().parts)))[::-1]
        assert len(indices) == 5
        if order == "shuffled":
            np.random.default_rng(3).shuffle(indices)
            assert indices not in (sorted(indices), sorted(indices)[::-1])
        # Each chunk on a plan of its own, as in a worker process of its own.
        solved = {index: attribution.solve_stability_chunk(plan(), index) for index in indices}
        merged = attribution.finish_stability(plan(), [solved[k] for k in range(len(indices))])
        assert merged == expected
        assert len(merged.certificates) == 24

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
        if case.startswith("frank"):
            assert (lanes["theta"] < 0).any() and (lanes["theta"] > 0).any()
        if case.startswith("gumbel"):
            assert lanes["boundary"].any()

    def test_nonconverged_fits_are_excluded_and_counted(self, monkeypatch):
        monkeypatch.setattr(copula, "MAXITER", 23)
        reference = one_at_a_time("clayton", maxiter=23)
        ci, lanes = batched(monkeypatch, "clayton")
        converged = np.array([fit[2] for fit in reference])
        assert np.array_equal(lanes["converged"], converged)
        assert ci.nonconverged == 5
        kept = [fit[1] for fit in reference if fit[2]]
        assert ci.interval == tuple(np.quantile(kept, [0.025, 0.975]))

        # 11 of 100 fail at 19 evaluations: over the 5% bound.
        monkeypatch.setattr(copula, "MAXITER", 19)
        with pytest.raises(NumericalError, match="11/100 replicate fits did not converge"):
            batched(monkeypatch, "clayton")
