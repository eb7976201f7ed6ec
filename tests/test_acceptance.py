"""Release gate: analytic oracles, simulation recovery, and golden-file checks.

Each test certifies one headline guarantee of the library and prints a single
PASS/FAIL line to the live log so the gate can be audited from the test
output alone.  Tolerances are part of the contract; do not loosen them.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from crisishedge import dataio, months as mo, qreg
from crisishedge.config import BootstrapConfig, load_episode
from crisishedge.copula import (
    CopulaFamily,
    PseudoSample,
    block_bootstrap_ci,
    empirical_tail_dependence,
    fit_families,
    select_family,
    simulate_copula,
)
from crisishedge.fixtures import FixtureKind, generate_fixture
from crisishedge.hedge import hedge_effectiveness
from crisishedge.pipeline import run_pipeline, sensitivity_sweep
from crisishedge.qreg import DesignMatrix, QuantileModel, check_loss, fit_quantile
from crisishedge.tailsel import build_triplet

from conftest import wobble_fx
from oracles import (
    interaction_values,
    interaction_values_brute_force,
    shapley_brute_force,
    shapley_values,
)

TAUS = (0.08, 0.5, 0.92)
TAU_EXACT = {0.08: Fraction(2, 25), 0.5: Fraction(1, 2), 0.92: Fraction(23, 25)}

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_gate_output(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _gate(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _design(values, target, columns, interaction_pairs=()) -> DesignMatrix:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    months = tuple(mo.month_range("1960-01", mo.shift_month("1960-01", n - 1)))
    return DesignMatrix(
        months=months,
        columns=tuple(columns),
        values=values,
        target=np.asarray(target, dtype=float),
        interaction_pairs=tuple(interaction_pairs),
    )


def _objective(X: DesignMatrix, tau: float, intercept: float, coef: np.ndarray) -> float:
    residual = X.target - (intercept + X.values @ coef)
    return float(np.sum(check_loss(residual, tau)))


def _packed(model: QuantileModel, X: DesignMatrix) -> np.ndarray:
    parts = [model.betas[c] for c in X.columns[: X.n_linear]]
    parts += [model.gammas[p] for p in X.interaction_pairs]
    return np.array(parts, dtype=float)


def _best_perturbation_gain(model: QuantileModel, X: DesignMatrix) -> float:
    coef = _packed(model, X)
    base = _objective(X, model.tau, model.intercept, coef)
    gain = 0.0
    for delta in (1e-4, -1e-4):
        gain = max(gain, base - _objective(X, model.tau, model.intercept + delta, coef))
        for j in range(coef.size):
            bumped = coef.copy()
            bumped[j] += delta
            gain = max(gain, base - _objective(X, model.tau, model.intercept, bumped))
    return gain


def _random_model(rng: np.random.Generator, m: int, n_pairs: int):
    columns = tuple(f"x{j}" for j in range(m))
    betas = [float(rng.normal()) for _ in columns]
    all_pairs = [(columns[i], columns[j]) for i in range(m) for j in range(i + 1, m)]
    idx = rng.choice(len(all_pairs), size=n_pairs, replace=False)
    pairs = tuple(all_pairs[i] for i in idx)
    gammas = [float(rng.normal()) for _ in pairs]
    model = QuantileModel(
        tau=0.5,
        coef=[float(rng.normal()), *betas, *gammas],
        objective_value=1.0,
        columns=columns,
        interaction_pairs=pairs,
    )
    mu = {c: float(rng.normal()) for c in columns}
    x = {c: float(rng.normal()) for c in columns}
    return model, mu, x


@pytest.fixture(scope="module")
def small_perfect_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_bundle")
    generate_fixture(FixtureKind.PERFECT_HEDGE, root, n=60, seed=21)
    episode = load_episode(root / "episode.yaml")
    episode = dataclasses.replace(
        episode, bootstrap=BootstrapConfig(replications=100, seed=21)
    )
    return episode, run_pipeline(episode, write_outputs=False)


def test_unified_tail_triplet_at_seventy_five_months():
    rng = np.random.default_rng(11)
    samples = {
        "alpha": rng.normal(0.0, 0.05, size=75),
        "beta": rng.normal(0.0, 0.05, size=75),
    }
    build_triplet(samples)
    start = time.perf_counter()
    triplet = build_triplet(samples)
    elapsed = time.perf_counter() - start
    got = (triplet.tau_low, triplet.tau_mid, triplet.tau_high)
    ok = got == (0.08, 0.50, 0.92) and elapsed < 1e-3
    _gate("A01 tail-quantile triplet", ok, f"triplet={got} in {elapsed * 1e3:.3f} ms")


def test_quantile_fit_matches_order_statistics_and_is_optimal():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(10, 501))
        values = rng.normal(0.0, float(rng.uniform(0.1, 5.0)), size=t)
        X = _design(np.empty((t, 0)), values, columns=())
        for tau in TAUS:
            model = fit_quantile(X, tau)
            k = math.ceil(TAU_EXACT[tau] * t)
            oracle = float(np.sort(values)[k - 1])
            worst = max(worst, abs(model.intercept - oracle))

    worst_gain = 0.0
    for i in range(50):
        t = int(rng.integers(40, 140))
        a, b, c = rng.normal(size=(3, t))
        noise = rng.normal(0.0, 0.5, size=t)
        y = 0.2 + 1.5 * a - 0.8 * b + 0.3 * c + 0.6 * a * b + noise
        X = _design(
            np.column_stack([a, b, c, a * b]),
            y,
            columns=("a", "b", "c", "a*b"),
            interaction_pairs=(("a", "b"),),
        )
        model = fit_quantile(X, TAUS[i % 3])
        worst_gain = max(worst_gain, _best_perturbation_gain(model, X))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_gain <= 1e-8 and elapsed < 30.0
    _gate(
        "A02 check-loss fit oracle",
        ok,
        f"order-statistic gap {worst:.2e}, perturbation gain {worst_gain:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_clayton_tail_dependence_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    u, v = simulate_copula(CopulaFamily.CLAYTON, 2.0, 200_000, rng)
    sample = PseudoSample.from_data(u, v)
    empirical = empirical_tail_dependence(sample, 0.02)
    analytic = 2.0 ** (-0.5)
    elapsed = time.perf_counter() - start
    ok = abs(empirical - analytic) <= 0.05 and elapsed < 10.0
    _gate(
        "A03 tail-dependence Monte Carlo",
        ok,
        f"empirical {empirical:.5f} vs analytic {analytic:.5f}, {elapsed:.1f} s",
    )


def test_copula_mle_recovery_and_family_selection():
    start = time.perf_counter()
    details = []
    ok = True
    for offset, (family, theta) in enumerate(
        ((CopulaFamily.CLAYTON, 3.0), (CopulaFamily.GUMBEL, 2.0))
    ):
        estimates = []
        picked = 0
        for seed in range(50):
            rng = np.random.default_rng(10_000 * (offset + 1) + seed)
            u, v = simulate_copula(family, theta, 2000, rng)
            sample = PseudoSample.from_data(u, v)
            (fits,) = fit_families([sample])
            estimates.append(next(f.theta for f in fits if f.family is family))
            if select_family(fits, "aic").family is family:
                picked += 1
        median = float(np.median(estimates))
        ok = ok and abs(median - theta) <= 0.3 and picked >= 45
        details.append(f"{family.value}: median {median:.3f} (true {theta}), {picked}/50 selected")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _gate("A04 copula MLE recovery", ok, "; ".join(details) + f", {elapsed:.1f} s")


def test_bootstrap_ci_determinism_and_coverage(golden_root, clayton_full_one_cpu):
    rng = np.random.default_rng(42)
    small = PseudoSample.from_data(*simulate_copula(CopulaFamily.CLAYTON, 2.0, 500, rng))
    big = PseudoSample.from_data(*simulate_copula(CopulaFamily.CLAYTON, 2.0, 2000, rng))
    family = CopulaFamily.CLAYTON
    ci_a = block_bootstrap_ci([small], family, seeds=[7], replications=1000)[0].interval
    ci_b = block_bootstrap_ci([small], family, seeds=[7], replications=1000)[0].interval
    ci_big = block_bootstrap_ci([big], family, seeds=[7], replications=1000)[0].interval

    # The full clayton_coupled run (R = 1000, on one CPU) is pinned like A10's
    # --fast runs; the forked run with a helper is held to it byte for byte.
    result, out = clayton_full_one_cpu
    brackets = []
    for residency, fit in sorted(result.copula_fits.items(), key=lambda kv: kv[0].value):
        lo, hi = fit.lambda_lower_ci
        brackets.append(lo <= fit.lambda_lower <= hi)
    golden_full = json.loads(
        (golden_root / "clayton_coupled_full_report_full.json").read_text(encoding="utf-8")
    )
    mismatches = _golden_mismatches(
        out, golden_root, "clayton_coupled_full",
        golden_full["attribution"]["stability_kendall_tau"],
    )

    width_small = ci_a[1] - ci_a[0]
    width_big = ci_big[1] - ci_big[0]
    ok = ci_a == ci_b and all(brackets) and width_big < width_small and not mismatches
    _gate(
        "A05 bootstrap determinism",
        ok,
        f"identical={ci_a == ci_b}, bracketing={brackets}, "
        f"width n=2000 {width_big:.4f} < n=500 {width_small:.4f}, "
        f"full run against goldens: {'; '.join(mismatches) or 'equal'}",
    )


def test_shapley_closed_form_matches_enumeration(small_perfect_run):
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_phi = 0.0
    for _ in range(100):
        model, mu, x = _random_model(rng, m=8, n_pairs=5)
        closed = shapley_values(model, mu, x)
        brute = shapley_brute_force(model, mu, x)
        worst_phi = max(
            worst_phi,
            abs(closed.phi0 - brute.phi0),
            max(abs(closed.phi[c] - brute.phi[c]) for c in model.columns),
        )

    worst_pair = 0.0
    for _ in range(50):
        model, mu, x = _random_model(rng, m=6, n_pairs=3)
        exact = interaction_values(model, mu, x)
        enum = interaction_values_brute_force(model, mu, x)
        worst_pair = max(worst_pair, max(abs(exact[p] - enum[p]) for p in exact))

    episode, result = small_perfect_run
    manifest = dataio.load_manifest(episode.series_manifest)
    design = qreg.engineer_features(
        dataio.load_panel(manifest), episode.feature_schema, result.return_series
    )
    low_model = result.models[result.triplet.tau_low]
    predictions = qreg.predict(low_model, design)
    window = result.attribution_window
    aligned = window.months == design.months and window.columns == low_model.columns
    worst_eff = max(
        abs(window.phi0 + sum(row) - pred)
        for row, pred in zip(window.phi.T.tolist(), predictions)
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_phi <= 1e-10
        and worst_pair <= 1e-10
        and aligned
        and worst_eff <= 1e-10
        and elapsed < 30.0
    )
    _gate(
        "A06 exact attribution",
        ok,
        f"enumeration gap {worst_phi:.2e}, interaction gap {worst_pair:.2e}, "
        f"efficiency gap {worst_eff:.2e} over {window.phi.shape[1]} rows, {elapsed:.1f} s",
    )


def test_hedge_effectiveness_characterization(fixture_root):
    observed = {}
    for kind in ("perfect_hedge", "anti_hedge", "independent"):
        episode = load_episode(fixture_root / kind / "episode.yaml")
        result = run_pipeline(episode, fast=True, write_outputs=False)
        observed[kind] = sorted(
            (r.residency.value, r.hedge_effectiveness_pct) for r in result.reports
        )
        if kind == "perfect_hedge":
            # Comonotone data: the reported (analytic) tail dependence must
            # agree with the empirical one, whichever family wins at its bound.
            tail_gap = max(
                (
                    abs(r.tail_dependence - r.tail_dependence_empirical)
                    for r in result.reports
                ),
                default=math.inf,
            )

    rng = np.random.default_rng(77)
    loss = rng.normal(0.02, 0.01, size=200)
    net = 3.0 + (loss - loss.mean()) * math.sqrt(0.5)
    halved = 100.0 * hedge_effectiveness(net, loss)

    ok = (
        all(he == 100.0 for _, he in observed["perfect_hedge"])
        and all(he == 0.0 for _, he in observed["anti_hedge"])
        and all(he == 0.0 for _, he in observed["independent"])
        and abs(halved - 50.0) <= 1e-9
        and tail_gap <= 0.05
    )
    _gate(
        "A07 hedge-effectiveness characterization",
        ok,
        f"perfect={observed['perfect_hedge']}, anti={observed['anti_hedge']}, "
        f"noise={observed['independent']}, half-variance {halved:.12f}%, "
        f"perfect-hedge analytic vs empirical tail dependence gap {tail_gap:.4f}",
    )


def test_sensitivity_sweep_stability(fixture_root, golden_root, tmp_path):
    taus = [0.10, 0.15, 0.20]

    # anti_hedge is swept as CI and the benchmark sweep it, with the
    # infeasible 0.05 first, and its sweep.csv is compared byte for byte.
    anti = load_episode(fixture_root / "anti_hedge" / "episode.yaml")
    _, anti_entries = sensitivity_sweep(anti, [0.05, *taus], fast=True, out_dir=tmp_path)
    infeasible = anti_entries.pop(1)
    anti_he = {
        round(entry.tau, 4): sorted(r.hedge_effectiveness_pct for r in entry.rows)
        for entry in anti_entries
    }
    anti_empirical = {
        row.tail_dependence_empirical for entry in anti_entries[1:] for row in entry.rows
    }
    sweep_pinned = (tmp_path / "sweep.csv").read_bytes() == (
        golden_root / "anti_hedge_sweep.csv"
    ).read_bytes()
    anti_ok = (
        all(entry.feasible for entry in anti_entries)
        and (infeasible.tau, infeasible.feasible) == (0.05, False)
        and all(values == [0.0, 0.0] for values in anti_he.values())
        and anti_empirical == {0.0}
        and sweep_pinned
    )

    clayton = load_episode(fixture_root / "clayton_coupled" / "episode.yaml")
    _, clayton_entries = sensitivity_sweep(clayton, taus, fast=True, write_outputs=False)
    drift = max(
        abs(row.delta_tail_dependence)
        for entry in clayton_entries
        if entry.feasible
        for row in entry.rows
    )
    # The empirical estimate at each swept level stays near the analytic one;
    # at the base level (tau_low near 0.01) it does not.
    empirical_gap = max(
        (
            abs(row.tail_dependence_empirical - row.tail_dependence)
            for entry in clayton_entries[1:]
            for row in entry.rows
        ),
        default=math.inf,
    )
    clayton_ok = (
        all(entry.feasible for entry in clayton_entries)
        and drift <= 0.05
        and empirical_gap <= 0.05
    )

    ok = anti_ok and clayton_ok
    _gate(
        "A08 sweep stability",
        ok,
        f"anti-hedge HE by tau {anti_he}, anti-hedge empirical {sorted(anti_empirical)}, "
        f"anti-hedge sweep.csv equals golden {sweep_pinned}, "
        f"tail-dependence drift {drift:.4f}, clayton empirical gap {empirical_gap:.4f}",
    )


def test_real_return_identities():
    from crisishedge.returns import real_return_domestic, real_return_foreign

    rng = np.random.default_rng(909)
    worst_fisher = 0.0
    worst_fx = 0.0
    exact_collapse = True
    for _ in range(10_000):
        r = float(rng.uniform(-0.6, 2.0))
        pi = float(rng.uniform(-0.5, 1.2))
        fx_prev = float(np.exp(rng.normal(0.0, 0.25)))
        fx_t = float(np.exp(rng.normal(0.0, 0.25)))

        real = real_return_domestic(r, pi)
        worst_fisher = max(worst_fisher, abs((1.0 + real) * (1.0 + pi) - (1.0 + r)))

        foreign = real_return_foreign(r, fx_prev, fx_t, pi)
        composed = (1.0 + real) * (fx_prev / fx_t) - 1.0
        worst_fx = max(worst_fx, abs(foreign - composed))

        if real_return_foreign(r, fx_prev, fx_prev, pi) != real:
            exact_collapse = False

    point = real_return_domestic(0.5, 0.2)
    exact_point = point == 0.25 and point != 0.5 - 0.2
    ok = worst_fisher <= 1e-12 and worst_fx <= 1e-12 and exact_collapse and exact_point
    _gate(
        "A09 real-return identities",
        ok,
        f"composition gap {worst_fisher:.2e}, FX-leg gap {worst_fx:.2e}, "
        f"flat-FX collapse exact={exact_collapse}, (0.5, 0.2) -> {point}",
    )


# Hot-path outputs compared against goldens: (output path, golden suffix).
# Rows and labels must match exactly; numeric fields within REL/ABS below.
GOLDEN_CSVS = (
    ("coefficients.csv", "coefficients.csv"),
    ("attribution.csv", "attribution.csv"),
    ("figures/real_returns.csv", "real_returns.csv"),
)
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12


def _golden_csv_mismatch(produced: str, golden: str) -> str | None:
    """First difference between two CSV texts, or None when they agree.

    The provenance comment and every non-numeric field must be identical;
    numeric fields may differ within GOLDEN_REL_TOL relative (GOLDEN_ABS_TOL
    absolute).
    """
    got, want = produced.splitlines(), golden.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, golden has {len(want)}"
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        if g == w:
            continue
        g_fields, w_fields = g.split(","), w.split(",")
        if w.startswith("#") or len(g_fields) != len(w_fields):
            return f"line {lineno}: {g!r} != {w!r}"
        for gf, wf in zip(g_fields, w_fields):
            try:
                expected = float(wf)
            except ValueError:
                if gf != wf:
                    return f"line {lineno}: label {gf!r} != {wf!r}"
                continue
            try:
                actual = float(gf)
            except ValueError:
                return f"line {lineno}: {gf!r} is not a number (golden {wf})"
            if not math.isclose(
                actual, expected, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL
            ):
                return f"line {lineno}: {actual!r} vs golden {expected!r}"
    return None


def _golden_json_mismatch(produced, golden, path: str = "") -> str | None:
    """First difference between two parsed JSON documents, or None when they agree.

    Keys, strings, booleans, nulls and list lengths must be identical; numbers
    may differ within GOLDEN_REL_TOL relative (GOLDEN_ABS_TOL absolute).
    """
    if isinstance(golden, dict):
        if not isinstance(produced, dict) or list(produced) != list(golden):
            got = list(produced) if isinstance(produced, dict) else produced
            return f"{path or '/'}: keys {got!r} != {list(golden)!r}"
        for key, value in golden.items():
            problem = _golden_json_mismatch(produced[key], value, f"{path}/{key}")
            if problem is not None:
                return problem
        return None
    if isinstance(golden, list):
        if not isinstance(produced, list) or len(produced) != len(golden):
            return f"{path}: {produced!r} != {golden!r}"
        for i, (got, want) in enumerate(zip(produced, golden)):
            problem = _golden_json_mismatch(got, want, f"{path}/{i}")
            if problem is not None:
                return problem
        return None
    numbers = all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in (produced, golden)
    )
    if numbers and math.isclose(
        produced, golden, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL
    ):
        return None
    if not numbers and type(produced) is type(golden) and produced == golden:
        return None
    return f"{path}: {produced!r} vs golden {golden!r}"


def _golden_mismatches(out, golden_root, prefix: str, stability: float) -> list[str]:
    """How a run's files in ``out`` differ from the ``<prefix>_*`` goldens.

    ``report.csv`` must match byte for byte and the stability value exactly;
    the other files are compared within the tolerances above.
    """
    mismatches = []
    if (out / "report.csv").read_bytes() != (golden_root / f"{prefix}_report.csv").read_bytes():
        mismatches.append(f"{prefix}: report.csv differs from golden")
    for name, suffix in GOLDEN_CSVS:
        problem = _golden_csv_mismatch(
            (out / name).read_text(encoding="utf-8"),
            (golden_root / f"{prefix}_{suffix}").read_text(encoding="utf-8"),
        )
        if problem is not None:
            mismatches.append(f"{prefix}: {name} {problem}")
    full = json.loads((out / "report.full").read_text(encoding="utf-8"))
    problem = _golden_json_mismatch(
        full,
        json.loads((golden_root / f"{prefix}_report_full.json").read_text(encoding="utf-8")),
    )
    if problem is not None:
        mismatches.append(f"{prefix}: report.full {problem}")
    got = full["attribution"]["stability_kendall_tau"]
    if got != stability:
        mismatches.append(f"{prefix}: stability_kendall_tau {got!r} != {stability!r}")
    return mismatches


# The --fast run of clayton_coupled with its FX wobbled (conftest.wobble_fx):
# the two residencies select different copula families.
SPLIT = "clayton_coupled_split"


def _split_stability(golden_root) -> dict[str, float]:
    """Each --fast golden run's stability value, the split copy's included.

    The split copy's is read from its own ``report.full`` golden, as the
    full runs' are.
    """
    stability = json.loads(
        (golden_root / "stability_kendall_tau.json").read_text(encoding="utf-8")
    )
    split = json.loads((golden_root / f"{SPLIT}_report_full.json").read_text(encoding="utf-8"))
    stability[SPLIT] = split["attribution"]["stability_kendall_tau"]
    return stability


def test_golden_end_to_end_reports(fixture_root, golden_root, tmp_path):
    stability_golden = _split_stability(golden_root)
    configs = {
        kind: fixture_root / kind / "episode.yaml"
        for kind in ("perfect_hedge", "anti_hedge", "clayton_coupled", "independent")
    }
    configs[SPLIT] = wobble_fx(fixture_root / "clayton_coupled", tmp_path / "split_fixture")
    mismatches = []
    for kind, config in configs.items():
        out = tmp_path / kind
        proc = subprocess.run(
            [sys.executable, "-m", "crisishedge", "run", str(config), "--out", str(out), "--fast"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            mismatches.append(f"{kind}: exit {proc.returncode} ({proc.stderr.strip()})")
            continue
        mismatches += _golden_mismatches(out, golden_root, kind, stability_golden[kind])
    ok = not mismatches
    _gate(
        "A10 golden end-to-end",
        ok,
        (
            "all four fixture reports and the split-residency copy's byte-identical; "
            "coefficients, attribution, real returns and report.full within 1e-9 rel "
            "and stability exact"
        )
        if ok
        else "; ".join(mismatches),
    )


def test_golden_full_runs(fixture_root, golden_root, tmp_path):
    # A05 pins the full clayton_coupled run; these are the other three fixtures
    # at R = 1000. The full anti_hedge sweep's base run writes anti_hedge's files.
    for kind in ("perfect_hedge", "independent"):
        run_pipeline(load_episode(fixture_root / kind / "episode.yaml"), out_dir=tmp_path / kind)
    anti = load_episode(fixture_root / "anti_hedge" / "episode.yaml")
    sensitivity_sweep(anti, [0.05, 0.10, 0.15, 0.20], out_dir=tmp_path / "anti_hedge")
    mismatches = []
    if (tmp_path / "anti_hedge" / "sweep.csv").read_bytes() != (
        golden_root / "anti_hedge_full_sweep.csv"
    ).read_bytes():
        mismatches.append("anti_hedge: sweep.csv differs from golden")
    for kind in ("perfect_hedge", "independent", "anti_hedge"):
        golden_full = json.loads(
            (golden_root / f"{kind}_full_report_full.json").read_text(encoding="utf-8")
        )
        mismatches += _golden_mismatches(
            tmp_path / kind, golden_root, f"{kind}_full",
            golden_full["attribution"]["stability_kendall_tau"],
        )
    ok = not mismatches
    _gate(
        "A11 golden full runs",
        ok,
        "perfect_hedge, independent and the anti_hedge sweep's base run equal their "
        "full-run goldens; the full sweep.csv is byte-identical"
        if ok
        else "; ".join(mismatches),
    )


def test_one_cpu_runs_equal_their_goldens(fixture_root, golden_root, tmp_path, one_cpu):
    # On one CPU the stability bootstrap runs inline in this process. A05
    # holds full clayton_coupled there; these are the other golden-pinned
    # runs that A10, A11 and A08 take with it forked.
    run_pipeline(
        load_episode(fixture_root / "independent" / "episode.yaml"),
        fast=True, out_dir=tmp_path / "independent",
    )
    run_pipeline(
        load_episode(fixture_root / "perfect_hedge" / "episode.yaml"),
        out_dir=tmp_path / "perfect_hedge_full",
    )
    run_pipeline(
        load_episode(wobble_fx(fixture_root / "clayton_coupled", tmp_path / "split_fixture")),
        fast=True, out_dir=tmp_path / SPLIT,
    )
    anti = load_episode(fixture_root / "anti_hedge" / "episode.yaml")
    for prefix, fast in (("anti_hedge", True), ("anti_hedge_full", False)):
        sensitivity_sweep(anti, [0.05, 0.10, 0.15, 0.20], fast=fast, out_dir=tmp_path / prefix)
    stability = _split_stability(golden_root)
    for prefix in ("perfect_hedge_full", "anti_hedge_full"):
        golden_full = json.loads(
            (golden_root / f"{prefix}_report_full.json").read_text(encoding="utf-8")
        )
        stability[prefix] = golden_full["attribution"]["stability_kendall_tau"]
    mismatches = []
    for prefix in ("anti_hedge", "anti_hedge_full"):
        if (tmp_path / prefix / "sweep.csv").read_bytes() != (
            golden_root / f"{prefix}_sweep.csv"
        ).read_bytes():
            mismatches.append(f"{prefix}: sweep.csv differs from golden")
    for prefix in ("independent", "perfect_hedge_full", SPLIT, "anti_hedge", "anti_hedge_full"):
        mismatches += _golden_mismatches(
            tmp_path / prefix, golden_root, prefix, stability[prefix]
        )
    ok = not mismatches
    _gate(
        "A12 one-CPU golden runs",
        ok,
        "independent --fast, perfect_hedge full, the split-residency copy --fast and "
        "the anti_hedge sweep's base runs (--fast and full) equal their goldens on one "
        "CPU; both sweep.csv files are byte-identical"
        if ok
        else "; ".join(mismatches),
    )
