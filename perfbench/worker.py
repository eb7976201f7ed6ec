"""Benchmark worker: one client in one process, one pipeline call at a time.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the package,
loads and validates the episode, and reports how long that took since the
parent started the process.  With ``--probe`` it stops there (a set-up
sample).  Otherwise it makes timed calls, each into a fresh temporary
directory under ``--work``, checks every call's outputs, and prints one JSON
object as its last line of standard output.

* ``--trace 0``: calls back to back until another call would end after
  ``--seconds`` (at least one call).
* ``--trace 1``: a warm-up call, then untraced and traced calls in turn
  (``TRACED_CALLS`` of each); the tracer is installed for each traced call
  and removed after it.  The per-layer metrics come from the traced calls,
  which must give identical counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from crisishedge import CrisisEpisode, load_episode, pipeline

from checks import check_outputs, digests, output_bytes
from spans import Trace, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TRACED_CALLS = 2


@dataclass
class Attempt:
    wall_s: float
    cpu_s: float
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class Bench:
    work: Path
    workload: Workload
    episode: CrisisEpisode
    default_seed: int

    @property
    def replications(self) -> int:
        configured = self.episode.bootstrap.replications
        return min(pipeline.FAST_REPLICATIONS, configured) if self.workload.fast else configured

    def _call(self, out: Path) -> int:
        """The timed call; returns the number of post-collapse months."""
        w = self.workload
        if w.taus is None:
            result = pipeline.run_pipeline(self.episode, fast=w.fast, out_dir=out)
        else:
            result, _ = pipeline.sensitivity_sweep(
                self.episode, w.taus, fast=w.fast, out_dir=out
            )
        return len(result.post_window)

    def attempt(self) -> Attempt:
        """One timed call into a fresh directory, then its output checks."""
        out = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=self.work))
        try:
            start, cpu = time.perf_counter(), time.process_time()
            try:
                t_post = self._call(out)
            except Exception as exc:  # a failed call is counted, not fatal
                return Attempt(time.perf_counter() - start, time.process_time() - cpu,
                               problems=[f"{type(exc).__name__}: {exc}"])
            result = Attempt(time.perf_counter() - start, time.process_time() - cpu)
            try:
                result.problems = check_outputs(
                    out,
                    golden=ROOT / "tests" / "golden" / f"{self.workload.fixture}_report.csv",
                    seed=self.episode.bootstrap.seed,
                    replications=self.replications,
                    taus=self.workload.taus,
                    t_post=t_post,
                )
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result.problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            result.digests = digests(out)
            result.bytes_written = output_bytes(out)
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)


def setup(workload: Workload, seed: int | None) -> tuple[CrisisEpisode, int]:
    episode = load_episode(ROOT / "fixtures" / workload.fixture / "episode.yaml")
    default_seed = episode.bootstrap.seed
    if seed is not None:
        episode = dataclasses.replace(
            episode, bootstrap=dataclasses.replace(episode.bootstrap, seed=seed)
        )
    return episode, default_seed


def timed_calls(bench: Bench, seconds: float) -> list[Attempt]:
    attempts: list[Attempt] = []
    begin = time.perf_counter()
    while True:
        attempts.append(bench.attempt())
        typical = statistics.median(a.wall_s for a in attempts)
        if time.perf_counter() - begin + typical > seconds:
            return attempts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traces: list[Trace], traced: list[Attempt], untraced: list[Attempt],
                  attempts: list[Attempt]) -> dict[str, dict]:
    """Per-layer metrics of the traced calls: counts from the first, times as medians."""

    def med(get) -> float:
        return statistics.median(get(t) for t in traces)

    def total(name):
        return med(lambda t: t.functions[name].total_s if name in t.functions else 0.0)

    def self_s(name):
        return med(lambda t: t.functions[name].self_s if name in t.functions else 0.0)

    first = traces[0]
    fq = first.functions.get("qreg.fit_quantile")
    counters = first.counters
    overhead = (statistics.median(a.wall_s for a in traced)
                - statistics.median(a.wall_s for a in untraced))
    values = {
        "attribution.shapley_values.calls": (first.calls("attribution.shapley_values"), "count"),
        "attribution.shapley_values.self_s": (self_s("attribution.shapley_values"), "s"),
        "attribution.attribute_window.calls": (first.calls("attribution.attribute_window"), "count"),
        "attribution.attribute_window.self_s": (self_s("attribution.attribute_window"), "s"),
        "attribution.stability_s": (total("attribution.bootstrap_stability"), "s"),
        "attribution.stability.self_s": (self_s("attribution.bootstrap_stability"), "s"),
        "attribution.stability.useful_ratio": (
            _ratio(counters["attribution.stability.rankings"],
                   counters["attribution.stability.replicates"]), "ratio"),
        "qreg.fit_quantile.calls": (first.calls("qreg.fit_quantile"), "count"),
        "qreg.fit_quantile.rows": (counters["qreg.fit_quantile.rows"], "count"),
        "qreg.fit_quantile.self_s": (self_s("qreg.fit_quantile"), "s"),
        "qreg.fit_quantile.failed": (fq.failed if fq else 0, "count"),
        "qreg.cv_s": (total("qreg.expanding_window_cv"), "s"),
        "qreg.cv.self_s": (self_s("qreg.expanding_window_cv"), "s"),
        "qreg.engineer_features_s": (total("qreg.engineer_features"), "s"),
        "copula.fit_copula.calls": (first.calls("copula.fit_copula"), "count"),
        "copula.fit_copula.self_s": (self_s("copula.fit_copula"), "s"),
        "copula.fit_copula.boundary": (counters["copula.fit_copula.boundary"], "count"),
        "copula.fit_copula.nonconverged": (counters["copula.fit_copula.nonconverged"], "count"),
        "copula.bootstrap_ci_s": (total("copula.block_bootstrap_ci"), "s"),
        "copula.bootstrap_ci.self_s": (self_s("copula.block_bootstrap_ci"), "s"),
        "copula.bootstrap.useful_ratio": (
            _ratio(counters["copula.bootstrap.useful_fits"],
                   counters["copula.bootstrap.replicates"]), "ratio"),
        "pipeline.run_pipeline.calls": (first.calls("pipeline.run_pipeline"), "count"),
        "pipeline.self_s": (med(lambda t: t.self_by_layer["pipeline"]), "s"),
        "pipeline.bytes_written": (traced[0].bytes_written, "bytes"),
        "dataio.load_s": (med(lambda t: t.layer_s["dataio"]), "s"),
        "dataio.series": (counters["dataio.series"], "count"),
        "returns.build_s": (med(lambda t: t.layer_s["returns"]), "s"),
        "tailsel.build_triplet_s": (total("tailsel.build_triplet"), "s"),
        "hedge.self_s": (med(lambda t: t.self_by_layer["hedge"]), "s"),
        "process.cpu_s": (statistics.median(a.cpu_s for a in traced), "s"),
        "trace.overhead_s": (overhead, "s"),
        "fail_ratio": (
            _ratio(sum(bool(a.problems) for a in attempts), len(attempts)), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_calls(bench: Bench) -> tuple[list[Attempt], dict]:
    """Untraced and traced calls in turn, after a warm-up call.

    The warm-up (the workload with ``fast`` set, so at most 200 replications)
    takes the first call's one-off costs out of the untraced samples, and
    interleaving spreads drift in CPU speed over both kinds of call.
    ``trace.overhead_s`` is the median traced minus the median untraced wall.
    """
    warm = dataclasses.replace(bench.workload, fast=True)
    warm_up = dataclasses.replace(bench, workload=warm).attempt()
    tracer = Tracer()
    untraced: list[Attempt] = []
    traced: list[Attempt] = []
    traces: list[Trace] = []
    for _ in range(TRACED_CALLS):
        untraced.append(bench.attempt())
        tracer.install()
        tracer.reset()
        try:
            traced.append(bench.attempt())
        finally:
            tracer.remove()
        traces.append(tracer.trace)
    attempts = [warm_up, *untraced, *traced]

    counts = [t.counts() for t in traces]
    if any(c != counts[0] for c in counts[1:]):
        differing = sorted(k for k in set().union(*counts)
                           if any(c.get(k) != counts[0].get(k) for c in counts))
        traced[-1].problems.append(f"traced runs gave different counts: {differing}")
    baseline = bench.workload.baseline_counts
    # boundary counts depend on the bootstrap seed; call counts do not
    seed_is_default = bench.episode.bootstrap.seed == bench.default_seed
    compared = {k: v for k, v in baseline.items() if seed_is_default or k.endswith(".calls")}
    observed = {k: counts[0].get(k, 0) for k in baseline}
    trace = {
        "metrics": layer_metrics(traces, traced, untraced, attempts),
        "counts": counts[0],
        "baseline_counts": {
            "expected": baseline,
            "observed": observed,
            "compared": sorted(compared),
            "match": all(observed[k] == v for k, v in compared.items()),
        },
        "warm_up_wall_s": warm_up.wall_s,
        "untraced_wall_s": [a.wall_s for a in untraced],
        "traced_wall_s": [a.wall_s for a in traced],
    }
    return attempts, trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before the parent started this process")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    episode, default_seed = setup(workload, args.seed)
    report: dict[str, object] = {"setup_s": time.monotonic() - args.started}
    if not args.probe:
        bench = Bench(args.work, workload, episode, default_seed)
        if args.trace:
            attempts, report["trace"] = traced_calls(bench)
        else:
            attempts = timed_calls(bench, args.seconds)
        report.update(
            attempts=[dataclasses.asdict(a) for a in attempts],
            seed=episode.bootstrap.seed,
            default_seed=default_seed,
            replications=bench.replications,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
