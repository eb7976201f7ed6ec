"""Output checks that gate a benchmark call, and digests that only record.

``check_outputs`` returns a list of problems (empty when the call's outputs
are correct).  The gate covers what the repository's golden files and
contracts define:

* ``report.csv`` equals ``tests/golden/<fixture>_report.csv`` byte for byte
  when the run used the golden's seed and replication count (a ``--fast``
  run at the config's own seed); otherwise every row after the
  provenance line must match, since the headline numbers depend on neither.
  The golden's own provenance line says which seed and replication count it
  was made with.
* every CSV's provenance line, and ``report.full``'s provenance block, carry
  the run's seed and replication count;
* in ``report.full`` every ``lambda_lower_ci`` is a finite ordered pair
  (present on each selected fit) and ``stability_kendall_tau`` lies in
  [-1, 1];
* ``sweep.csv`` lists every requested tau with feasibility equal to
  ``ceil(tau * T_post) >= 6``.

``digests`` fingerprints the hot-path outputs that no golden covers
(coefficients, attribution, the full report, the sweep table) so that a later
change to them is visible in the benchmark record without failing the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

MIN_TAIL_COUNT = 6
CEIL_FUZZ = 1e-9
DIGESTED = ("coefficients.csv", "attribution.csv", "report.full", "sweep.csv")

_PROVENANCE = re.compile(r"^# crisishedge \S+ config=\S+ seed=(\S+) replications=(\d+)$")


def _provenance(path: Path) -> tuple[str, str] | None:
    """(seed, replications) from a CSV's provenance line, or None."""
    first = path.read_text(encoding="utf-8").split("\n", 1)[0]
    match = _PROVENANCE.match(first)
    return None if match is None else match.groups()


def _check_provenance(out: Path, seed: int, replications: int) -> list[str]:
    problems = []
    csvs = sorted(out.rglob("*.csv"))
    if not csvs:
        problems.append("no CSV outputs written")
    for path in csvs:
        found = _provenance(path)
        if found is None:
            problems.append(f"{path.relative_to(out)}: no provenance line")
        elif found != (str(seed), str(replications)):
            problems.append(
                f"{path.relative_to(out)}: provenance says seed={found[0]} "
                f"replications={found[1]}, run used {seed}/{replications}"
            )
    return problems


def _check_report_csv(out: Path, golden: Path, seed: int, replications: int) -> list[str]:
    actual = (out / "report.csv").read_bytes()
    expected = golden.read_bytes()
    golden_run = _provenance(golden)
    if golden_run is None:
        raise ValueError(f"{golden.name}: no provenance line")
    if golden_run == (str(seed), str(replications)):
        return [] if actual == expected else [f"report.csv differs from {golden.name}"]
    if actual.split(b"\n")[1:] != expected.split(b"\n")[1:]:
        return [f"report.csv rows differ from {golden.name}"]
    return []


def _finite_ordered(ci) -> bool:
    return (
        isinstance(ci, list) and len(ci) == 2
        and all(isinstance(x, (int, float)) and math.isfinite(x) for x in ci)
        and ci[0] <= ci[1]
    )


def _check_full_report(out: Path, seed: int, replications: int) -> list[str]:
    doc = json.loads((out / "report.full").read_text(encoding="utf-8"))
    problems = []
    prov = doc["provenance"]
    if (prov["seed"], prov["replications"]) != (seed, replications):
        problems.append(
            f"report.full provenance says seed={prov['seed']} "
            f"replications={prov['replications']}"
        )
    if not doc["copula"]:
        problems.append("report.full has no copula fits")
    for residency, block in doc["copula"].items():
        if not _finite_ordered(block["selected"]["lambda_lower_ci"]):
            problems.append(f"report.full: {residency} selected lambda_lower_ci "
                            f"{block['selected']['lambda_lower_ci']!r}")
        for fit in block["candidates"]:
            ci = fit["lambda_lower_ci"]
            if ci is not None and not _finite_ordered(ci):
                problems.append(f"report.full: {residency} {fit['family']} "
                                f"lambda_lower_ci {ci!r}")
    attribution = doc["attribution"]
    kendall = None if attribution is None else attribution["stability_kendall_tau"]
    if not (isinstance(kendall, (int, float)) and -1.0 <= kendall <= 1.0):
        problems.append(f"report.full: stability_kendall_tau {kendall!r}")
    return problems


def _check_sweep(out: Path, taus: tuple[float, ...], t_post: int) -> list[str]:
    with (out / "sweep.csv").open(encoding="utf-8", newline="") as fh:
        next(fh, None)  # provenance
        feasible_by_tau: dict[float, set[str]] = {}
        for row in csv.DictReader(fh):
            feasible_by_tau.setdefault(float(row["tau"]), set()).add(row["feasible"])
    problems = []
    for tau in taus:
        expected = str(math.ceil(tau * t_post - CEIL_FUZZ) >= MIN_TAIL_COUNT)
        listed = feasible_by_tau.get(tau)
        if listed is None:
            problems.append(f"sweep.csv: tau={tau!r} missing")
        elif listed != {expected}:
            problems.append(
                f"sweep.csv: tau={tau!r} feasible={sorted(listed)}, expected "
                f"{expected} for {t_post} post-collapse months"
            )
    return problems


def check_outputs(
    out: Path,
    *,
    golden: Path,
    seed: int,
    replications: int,
    taus: tuple[float, ...] | None,
    t_post: int,
) -> list[str]:
    """Every problem found in one call's output directory; empty when correct."""
    problems = _check_provenance(out, seed, replications)
    problems += _check_report_csv(out, golden, seed, replications)
    problems += _check_full_report(out, seed, replications)
    if taus is not None:
        problems += _check_sweep(out, taus, t_post)
    return problems


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of each hot-path output the call wrote."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (out / name).exists()
    }


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
