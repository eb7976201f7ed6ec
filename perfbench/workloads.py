"""The benchmark's workloads: which fixture, which entry point, which flags.

Each workload is one call of the library entry point the CLI uses
(``run_pipeline`` for ``crisishedge run``, ``sensitivity_sweep`` for
``crisishedge sweep``) on one shipped fixture.  They were chosen so that each
planned optimisation has a workload that exercises it and one that does not:

* ``large_fast`` (clayton_coupled, ``run --fast``): 600 design rows, 576
  post-collapse months, R=200, an interior Clayton fit.  Quantile LPs at
  n=600 and per-row Shapley dominate; copula work is ~3%.
* ``small_full`` (perfect_hedge, ``run`` at R=1000): 120 rows, 96 post
  months, a Gumbel fit on its boundary.  Many small LPs and 2,006 copula
  fits; per-call overhead and the copula bootstrap show here, CV does not.
* ``sweep_fast`` (anti_hedge, ``sweep --taus 0.05 0.10 0.15 0.20 --fast``):
  one base run plus three override runs (0.05 is infeasible at 96 months),
  a Frank fit on its boundary.  The only workload that calls
  ``run_pipeline`` more than once.

``baseline_counts`` are the traced counts at the config's own seed for the
commit that introduced the benchmark.  Optimisations are expected to change
them, so they are reported next to the observed counts, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    fast: bool
    taus: tuple[float, ...] | None  # None runs the pipeline once; else a sweep
    baseline_counts: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large_fast",
            fixture="clayton_coupled",
            fast=True,
            taus=None,
            baseline_counts={
                "qreg.fit_quantile.calls": 347,
                "attribution.shapley_values.calls": 120_600,
                "copula.fit_copula.calls": 406,
                "copula.fit_copula.boundary": 0,
                "pipeline.run_pipeline.calls": 1,
            },
        ),
        Workload(
            name="small_full",
            fixture="perfect_hedge",
            fast=False,
            taus=None,
            baseline_counts={
                "qreg.fit_quantile.calls": 1_027,
                "attribution.shapley_values.calls": 120_120,
                "copula.fit_copula.calls": 2_006,
                "copula.fit_copula.boundary": 2_004,
                "pipeline.run_pipeline.calls": 1,
            },
        ),
        Workload(
            name="sweep_fast",
            fixture="anti_hedge",
            fast=True,
            taus=(0.05, 0.10, 0.15, 0.20),
            baseline_counts={
                "qreg.fit_quantile.calls": 236,
                "attribution.shapley_values.calls": 24_120,
                "copula.fit_copula.calls": 1_624,
                "copula.fit_copula.boundary": 1_624,
                "pipeline.run_pipeline.calls": 4,
            },
        ),
    )
}
