"""The replicate driver (ordered map over forked workers, block bootstrap)
and the batched quantile fits of the bootstrap and cross-validation loops.

Tests that need the pool set two CPUs through ``set_cpus``, so they use
workers on any machine that can fork; one CPU runs the same maps inline,
which is the serial reference every pooled result must equal bit for bit.
Batched fits are held to the same standard against one fit at a time.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from crisishedge import attribution, load_episode, qreg, run_pipeline
from crisishedge.attribution import (
    _shapley_matrix,
    bootstrap_stability,
    importance_summary,
    stability_kendall,
)
from crisishedge.copula import CopulaFamily, block_bootstrap_ci, family_lambda_statistic
from crisishedge.errors import DataError, DegenerateSampleError, FitError
from crisishedge.qreg import (
    FitCertificates,
    _restandardized_subset,
    expanding_window_cv,
    fit_quantile,
)
from crisishedge.resample import block_bootstrap, block_resamples, ordered_map

from test_attribution import make_design
from test_copula import sample_from
from test_qreg import noise_matrix

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool needs the fork start method",
)


def serial_and_pooled(set_cpus, fn):
    set_cpus(1)
    serial = fn()
    set_cpus(2)
    return serial, fn()


class TestOrderedMap:
    def test_results_in_index_order(self, set_cpus):
        set_cpus(2)
        # Later indices finish first, so completion order differs from index order.
        def slow_early(i):
            time.sleep(0.001 * (40 - i))
            return i * i

        assert ordered_map(slow_early, 40) == [i * i for i in range(40)]
        assert ordered_map(slow_early, 0) == []

    @needs_fork
    def test_work_runs_in_worker_processes(self, set_cpus):
        set_cpus(2)
        pids = ordered_map(lambda i: os.getpid(), 8)
        assert os.getpid() not in pids
        set_cpus(1)
        assert ordered_map(lambda i: os.getpid(), 8) == [os.getpid()] * 8

    @needs_fork
    def test_nested_map_runs_inline_in_the_worker(self, set_cpus):
        set_cpus(2)
        inner = ordered_map(lambda i: ordered_map(lambda j: os.getpid(), 3), 4)
        for pids in inner:
            assert len(set(pids)) == 1 and pids[0] != os.getpid()

    def test_closure_as_fn(self, set_cpus):
        set_cpus(2)
        table = {i: f"item-{i}" for i in range(12)}
        scale = np.arange(12.0)

        def lookup(i):
            return table[i], float(scale[i] * 2.0)

        assert ordered_map(lookup, 12) == [lookup(i) for i in range(12)]

    def test_worker_exception_reaches_caller(self, set_cpus):
        set_cpus(2)

        def fn(i):
            if i == 7:
                raise FitError(f"replicate {i} did not converge")
            return i

        with pytest.raises(FitError, match="replicate 7 did not converge"):
            ordered_map(fn, 20)
        assert multiprocessing.active_children() == []

    def test_no_children_left(self, set_cpus):
        set_cpus(2)
        assert ordered_map(lambda i: i + 1, 10) == list(range(1, 11))
        assert multiprocessing.active_children() == []


class TestBlockBootstrap:
    def test_skips_keep_messages_in_replicate_order(self, set_cpus):
        def fn(rows):
            if rows[0] < 10:
                raise DegenerateSampleError(f"starts at row {rows[0]}")
            return int(rows[0])

        serial, pooled = serial_and_pooled(
            set_cpus, lambda: block_bootstrap(fn, 60, replications=50, seed=3)
        )
        assert serial == pooled
        assert len(serial.values) + len(serial.skipped) == 50
        assert serial.skipped and serial.values
        assert all(r.startswith("starts at row ") for r in serial.skipped)

    def test_block_length_validated(self):
        with pytest.raises(DataError, match="exceeds sample size"):
            block_bootstrap(len, 5, replications=3, block_length=6, seed=1)
        with pytest.raises(DataError, match=">= 1"):
            block_bootstrap(len, 5, replications=3, block_length=0, seed=1)


class TestSerialEqualsPooled:
    def test_block_bootstrap_ci(self, set_cpus):
        s = sample_from(CopulaFamily.CLAYTON, 2.0, 120, seed=116)
        stat = family_lambda_statistic(CopulaFamily.CLAYTON)
        serial, pooled = serial_and_pooled(
            set_cpus, lambda: block_bootstrap_ci(s, stat, replications=100, seed=5)
        )
        assert serial == pooled

    def test_pipeline_outputs_byte_identical(self, set_cpus, fixture_root, tmp_path):
        episode = load_episode(fixture_root / "perfect_hedge" / "episode.yaml")
        outs = {}
        for cpus in (1, 2):
            set_cpus(cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            run_pipeline(episode, fast=True, out_dir=outs[cpus])
        files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert len(files) == 7
        assert files == sorted(
            p.relative_to(outs[2]) for p in outs[2].rglob("*") if p.is_file()
        )
        for rel in files:
            assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes(), rel


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
