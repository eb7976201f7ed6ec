"""crisishedge benchmark: one workload, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_fast --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  ``--seed`` replaces the episode's
``bootstrap.seed``; without it each fixture keeps its own seed.  Every call
runs the same library entry point the CLI calls, writes into a fresh
temporary directory, and has its outputs checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of the timed calls (quartiles and sample count
  are in the record);
* ``setup_s``: median, over ``SETUP_SAMPLES`` fresh processes, of the time
  from starting the process to a loaded, validated episode (interpreter,
  numpy/scipy and package imports, ``load_episode``);
* ``peak_rss_mb``: peak resident set of the process that ran the calls.

``--trace 1`` reports the per-layer metrics of a separate traced run
(``spans.py``, ``worker.py``).

The full record (environment, samples, output digests, trace counts) is
printed as JSON before the last line.  The last line is the one-line
result: ``correct``, ``attempted``, ``failed`` and ``metrics``.  This script uses only the standard library; the work runs
in a child process (``worker.py``) with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # the worker plus SETUP_SAMPLES - 1 probe processes
# Beyond --seconds, the watchdog allows for the set-up probes, the overshoot
# of the last timed call (up to one ~20 s call), and, with --trace 1, the
# warm-up plus untraced and traced calls (~100 s on the slowest workload).
DEADLINE_SLACK_S = 135.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _missing_inputs(fixture: str) -> list[Path]:
    needed = [
        ROOT / "src" / "crisishedge" / "__init__.py",
        ROOT / "fixtures" / fixture / "episode.yaml",
        ROOT / "tests" / "golden" / f"{fixture}_report.csv",
    ]
    return [p for p in needed if not p.is_file()]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=10,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict[str, object]:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def run_worker(args: argparse.Namespace, work: Path, deadline: float, *, probe: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--work", str(work),
        "--workload", args.workload,
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if probe:
        cmd.append("--probe")
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker passed the deadline of --seconds plus "
                         f"{DEADLINE_SLACK_S:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _spread(samples: list[float]) -> dict[str, object]:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + args.seconds + DEADLINE_SLACK_S
    record: dict[str, object] = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_worker(args, work, deadline, probe=True)["setup_s"])
    report = run_worker(args, work, deadline, probe=False)
    setup.append(report["setup_s"])

    attempts = report["attempts"]
    walls = [a["wall_s"] for a in attempts]
    problems = [p for a in attempts for p in a["problems"]]
    record["environment"].update(report["versions"])
    record.update(
        seed=report["seed"],
        config_seed=report["default_seed"],
        replications=report["replications"],
        wall_s=_spread(walls),
        cpu_s=[a["cpu_s"] for a in attempts],
        setup_s=_spread(setup),
        peak_rss_mb=report["peak_rss_mb"],
        digests=attempts[0]["digests"],
        digests_stable=all(a["digests"] == attempts[0]["digests"] for a in attempts),
        problems=problems,
    )
    if args.trace:
        record["trace"] = report["trace"]
        metrics = report["trace"]["metrics"]
    else:
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    failed = sum(1 for a in attempts if a["problems"])
    result = {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="bootstrap seed (default: the fixture config's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_inputs(WORKLOADS[args.workload].fixture)
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"error: not a crisishedge checkout; missing {names}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
            record, result = measure(args, Path(work))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
