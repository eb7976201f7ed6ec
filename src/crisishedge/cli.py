"""Command line entry points.

Exit codes: 0 success, 2 configuration problems, 3 data problems, 4 numerical
failures.  Anything the pipeline raises deliberately carries its own code;
unexpected arithmetic errors map to 4.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_episode
from .dataio import load_manifest, load_panel
from .errors import EXIT_NUMERICAL, EXIT_OK, CrisisHedgeError
from .fixtures import FixtureKind, generate_fixture
from .pipeline import resolve_out_dir, run_pipeline, sensitivity_sweep

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisishedge",
        description="Crisis-window equity hedge analysis for one country episode.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v for progress, -vv for debug output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline for an episode config")
    run.add_argument("config", type=Path, help="episode YAML file")
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument(
        "--fast", action="store_true",
        help="cap bootstrap replications at 200",
    )

    sweep = sub.add_parser(
        "sweep", help="tabulate the episode at alternative lower-tail levels"
    )
    sweep.add_argument("config", type=Path, help="episode YAML file")
    sweep.add_argument(
        "--taus", nargs="+", type=float, required=True, metavar="LEVEL",
        help="lower-tail levels to try",
    )
    sweep.add_argument("--out", type=Path, default=None, help="output directory")
    sweep.add_argument("--fast", action="store_true",
                       help="cap bootstrap replications at 200")

    fixture = sub.add_parser("fixture", help="generate a synthetic test panel")
    fixture.add_argument("kind", choices=[k.value for k in FixtureKind])
    fixture.add_argument("--out", type=Path, required=True, help="target directory")
    fixture.add_argument("--n", type=int, default=120,
                         help="analysis window length in months")
    fixture.add_argument("--seed", type=int, default=0)
    fixture.add_argument("--theta", type=float, default=2.0,
                         help="copula theta for clayton_coupled")

    validate = sub.add_parser(
        "validate", help="check an episode config and its data without running"
    )
    validate.add_argument("config", type=Path, help="episode YAML file")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    episode = load_episode(args.config)
    result = run_pipeline(episode, fast=args.fast, out_dir=args.out)
    for report in sorted(result.reports, key=lambda r: (r.country, r.residency.value)):
        print(
            f"{report.country} ({report.residency.value}): "
            f"HE {report.hedge_effectiveness_pct:.1f}%, "
            f"erosion {report.mean_erosion_pct:.2f}%/m, "
            f"net real {report.mean_net_real_pct:.2f}%/m, "
            f"tail dependence {report.tail_dependence:.2f}"
        )
    for line in result.diagnostics:
        print(f"note: {line}")
    print(f"outputs: {result.out_dir}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    episode = load_episode(args.config)
    base, entries = sensitivity_sweep(
        episode, args.taus, fast=args.fast, out_dir=args.out
    )
    for entry in entries:
        if not entry.feasible:
            print(f"tau={entry.tau:g}: infeasible ({entry.reason})")
            continue
        label = " (base)" if entry.reason == "base run" else ""
        for row in entry.rows:
            print(
                f"tau={entry.tau:g}{label} {row.residency.value}: "
                f"HE {row.hedge_effectiveness_pct:.1f}% "
                f"(delta {row.delta_hedge_effectiveness_pct:+.1f}), "
                f"tail dependence {row.tail_dependence:.3f} "
                f"(delta {row.delta_tail_dependence:+.3f})"
            )
    print(f"outputs: {resolve_out_dir(episode, args.out)}")
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    paths = generate_fixture(
        args.kind, args.out, n=args.n, seed=args.seed, theta=args.theta
    )
    print(f"wrote {len(paths)} files to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    episode = load_episode(args.config)
    manifest = load_manifest(episode.series_manifest)
    panel = load_panel(manifest)
    print(
        f"{args.config}: ok ({episode.country}, crisis {episode.crisis_date}, "
        f"window {episode.window_start}..{episode.window_end}, "
        f"{len(panel)} series)"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "fixture": _cmd_fixture,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except CrisisHedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
