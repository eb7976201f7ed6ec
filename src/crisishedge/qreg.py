"""Quantile regression on engineered macro features.

Feature engineering turns a monthly panel into a design matrix of lagged,
standardized columns plus declared pairwise interaction products; fitting
minimizes the asymmetric check loss, posed as a linear program over split
residuals and solved exactly.  The target is always the nominal equity return
and an endogeneity guard keeps any equity-derived identifier out of the
feature side by construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize, sparse

from . import months as mo
from .dataio import MacroSeries
from .errors import ConfigError, DataError, DegenerateSampleError, EndogeneityError, FitError
from .quantiles import empirical_quantile
from .resample import ordered_map

logger = logging.getLogger(__name__)

TARGET_COLUMN = "equity_nominal_return"
ENDOGENOUS_PREFIX = "equity"
INTERCEPT_LABEL = "(intercept)"


def check_loss(u: float | np.ndarray, tau: float) -> float | np.ndarray:
    """Asymmetric check loss: u * (tau - 1[u < 0]); nonnegative everywhere."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    arr = np.asarray(u, dtype=float)
    out = arr * (tau - (arr < 0.0))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def lag_column_name(feature: str, lag: int) -> str:
    return feature if lag == 0 else f"{feature}_lag{lag}"


@dataclass(frozen=True)
class FeatureSchema:
    """Declares which panel series enter the model and how.

    ``lag_spec`` maps a base feature to the lags (in months) it enters with;
    a feature without an entry enters contemporaneously (lag 0).  Event
    dummies work the same way but skip standardization.  Interaction pairs
    name generated columns (post-lag), e.g. ``("policy_rate",
    "m2_growth_lag1")``.  Any identifier carrying the reserved equity prefix
    is rejected outright: the target must never leak into the feature side.
    """

    base_features: tuple[str, ...]
    lag_spec: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    event_dummies: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    interaction_pairs: tuple[tuple[str, str], ...] = ()
    excluded: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = list(self.base_features) + list(self.event_dummies)
        for pair in self.interaction_pairs:
            if len(pair) != 2:
                raise ConfigError(f"interaction pair must have 2 members: {pair!r}")
        for ident in names + [c for p in self.interaction_pairs for c in p]:
            if ident.startswith(ENDOGENOUS_PREFIX):
                raise EndogeneityError(
                    f"identifier {ident!r} carries the reserved "
                    f"{ENDOGENOUS_PREFIX!r} prefix; equity-derived features "
                    "are barred from the model"
                )
            if ident in self.excluded:
                raise ConfigError(f"identifier {ident!r} is on the excluded list")
        for feature in self.lag_spec:
            if feature not in self.base_features:
                raise ConfigError(f"lag spec names unknown feature {feature!r}")
        for feature, lags in list(self.lag_spec.items()) + list(self.event_dummies.items()):
            for lag in lags:
                if not (isinstance(lag, int) and lag >= 0):
                    raise ConfigError(f"{feature!r}: lags must be integers >= 0, got {lag!r}")
        cols = self.linear_columns()
        if len(set(cols)) != len(cols):
            raise ConfigError("schema generates duplicate columns")
        col_set = set(cols)
        for a, b in self.interaction_pairs:
            for ident in (a, b):
                if ident not in col_set:
                    raise ConfigError(
                        f"interaction pair ({a!r}, {b!r}) references "
                        f"{ident!r}, which is not a generated column"
                    )
        if len(set(self.interaction_pairs)) != len(self.interaction_pairs):
            raise ConfigError("duplicate interaction pairs")

    def lagged_sources(self) -> tuple[tuple[str, int], ...]:
        """(series, lag) behind each linear column, in column order."""
        return tuple(
            (feature, lag)
            for feature in self.base_features
            for lag in self.lag_spec.get(feature, (0,))
        ) + tuple(
            (dummy, lag) for dummy, lags in self.event_dummies.items() for lag in lags
        )

    def linear_columns(self) -> tuple[str, ...]:
        return tuple(lag_column_name(f, lag) for f, lag in self.lagged_sources())

    def dummy_columns(self) -> frozenset[str]:
        return frozenset(
            lag_column_name(d, lag)
            for d, lags in self.event_dummies.items()
            for lag in lags
        )

    def interaction_names(self) -> tuple[str, ...]:
        return tuple(f"{a}*{b}" for a, b in self.interaction_pairs)


@dataclass(frozen=True)
class DesignMatrix:
    """Fully materialized regression data for one window.

    ``values`` holds standardized linear columns followed by interaction
    products of standardized parents; ``raw_linear`` keeps the
    pre-standardization linear columns so cross-validation folds can re-derive
    train-window scalings without touching the panel again.
    """

    months: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray
    target: np.ndarray
    interaction_pairs: tuple[tuple[str, str], ...] = ()
    dummy_columns: frozenset[str] = frozenset()
    raw_linear: np.ndarray | None = None
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        target = np.asarray(self.target, dtype=float)
        n = len(self.months)
        if values.shape != (n, len(self.columns)):
            raise ValueError("values shape must be (months, columns)")
        if target.shape != (n,):
            raise ValueError("target must have one value per month")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(target))):
            raise ValueError("design matrix must be gap-free and finite")
        for col in self.columns:
            if col.startswith(ENDOGENOUS_PREFIX):
                raise EndogeneityError(
                    f"column {col!r} carries the reserved equity prefix"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target", target)
        raw = self.raw_linear
        if raw is None:
            raw = values[:, : self.n_linear].copy()
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (n, self.n_linear):
            raise ValueError("raw_linear shape must be (months, linear columns)")
        object.__setattr__(self, "raw_linear", raw)

    @property
    def n_linear(self) -> int:
        return len(self.columns) - len(self.interaction_pairs)

    @property
    def linear_column_names(self) -> tuple[str, ...]:
        return self.columns[: self.n_linear]

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class QuantileModel:
    """Coefficients of one check-loss fit at a single quantile level."""

    tau: float
    intercept: float
    betas: Mapping[str, float]
    gammas: Mapping[tuple[str, str], float]
    objective_value: float
    columns: tuple[str, ...]
    schema: FeatureSchema | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.objective_value < 0.0:
            raise ValueError("objective value cannot be negative")
        if self.schema is not None:
            declared = set(self.schema.interaction_pairs)
            for pair in self.gammas:
                if pair not in declared:
                    raise ValueError(f"gamma for undeclared pair {pair!r}")


def _standardize_columns(
    raw: np.ndarray,
    is_dummy: np.ndarray,
    stats_rows: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Z-score continuous columns using moments from ``stats_rows`` only.

    Dummies pass through untouched.  A column with zero variance over the
    statistics window divides by 1 instead of 0 and is reported back so the
    fit can drop it.
    """
    out = raw.astype(float).copy()
    degenerate: list[int] = []
    for j in range(raw.shape[1]):
        if is_dummy[j]:
            continue
        col = raw[stats_rows, j]
        mean = float(np.mean(col))
        std = float(np.std(col))
        if std == 0.0:
            degenerate.append(j)
            out[:, j] = raw[:, j] - mean
        else:
            out[:, j] = (raw[:, j] - mean) / std
    return out, degenerate


def _assemble_values(
    standardized: np.ndarray,
    columns: Sequence[str],
    interaction_pairs: Sequence[tuple[str, str]],
) -> np.ndarray:
    pos = {c: i for i, c in enumerate(columns)}
    blocks = [standardized]
    for a, b in interaction_pairs:
        blocks.append((standardized[:, pos[a]] * standardized[:, pos[b]])[:, None])
    return np.hstack(blocks)


def engineer_features(
    panel: Mapping[str, MacroSeries],
    schema: FeatureSchema,
    *,
    window: tuple[str | None, str | None] = (None, None),
) -> DesignMatrix:
    """Build the design matrix for the target months of a window.

    Each column is one ``MacroSeries.at`` lookup ``lag`` months back, so a
    series only needs history, not shifting, to contribute.  Rows missing any
    feature input are dropped and counted.  Continuous columns are z-scored over
    the retained rows; event dummies must already be 0/1 and stay unscaled;
    interaction products are formed from the standardized parents.
    """
    if TARGET_COLUMN not in panel:
        raise DataError(f"panel is missing the target series {TARGET_COLUMN!r}")
    target_series = panel[TARGET_COLUMN]
    needed = list(schema.base_features) + list(schema.event_dummies)
    missing = [f for f in needed if f not in panel]
    if missing:
        raise DataError(f"schema references absent series: {', '.join(missing)}")

    start, end = window
    months = [
        m
        for m in target_series.stamps
        if (start is None or m >= start) and (end is None or m <= end)
    ]
    if not months:
        raise DataError("no target months inside the requested window")

    linear_cols = schema.linear_columns()
    dummy_cols = schema.dummy_columns()
    raw = np.empty((len(months), len(linear_cols)))
    for j, (feature, lag) in enumerate(schema.lagged_sources()):
        raw[:, j] = panel[feature].at(months, lag)
    complete = ~np.isnan(raw).any(axis=1)
    dropped = int(np.count_nonzero(~complete))
    if dropped:
        logger.info("engineer_features: dropped %d row(s) with gaps", dropped)
    if not complete.any():
        raise DataError("every row in the window had gaps; nothing to fit")
    raw = raw[complete]
    is_dummy = np.array([c in dummy_cols for c in linear_cols])
    for j, col in enumerate(linear_cols):
        if is_dummy[j] and not np.all(np.isin(raw[:, j], (0.0, 1.0))):
            raise DataError(f"event dummy {col!r} has values outside {{0, 1}}")

    all_rows = np.arange(raw.shape[0])
    standardized, degenerate = _standardize_columns(raw, is_dummy, all_rows)
    for j in degenerate:
        logger.warning("column %r has zero variance over the window", linear_cols[j])
    values = _assemble_values(standardized, linear_cols, schema.interaction_pairs)

    return DesignMatrix(
        months=tuple(compress(months, complete)),
        columns=linear_cols + schema.interaction_names(),
        values=values,
        target=target_series.at(months)[complete],
        interaction_pairs=schema.interaction_pairs,
        dummy_columns=dummy_cols,
        raw_linear=raw,
        dropped_rows=dropped,
    )


def fit_quantile(X: DesignMatrix, tau: float) -> QuantileModel:
    """Minimize the summed check loss over intercept + linear + interaction terms.

    The problem is linear: residuals split into positive and negative parts
    u, v >= 0 with equality X b + u - v = y and objective
    tau * sum(u) + (1 - tau) * sum(v).  Solved by the HiGHS simplex/interior
    LP, which certifies a global optimum of this convex program and is
    deterministic for fixed inputs.  Columns with zero variance over the fit
    window are dropped (coefficient 0) to avoid LP degeneracy, and a model
    with no usable columns falls back to the exact order-statistic rule for
    the intercept.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    n = len(X)
    if n < 10:
        raise DataError(f"need at least 10 rows to fit, got {n}")
    y = X.target
    if np.ptp(y) == 0.0:
        raise DegenerateSampleError("target is constant; quantile fit undefined")

    keep = [j for j in range(len(X.columns)) if np.ptp(X.values[:, j]) > 0.0]
    for j in range(len(X.columns)):
        if j not in keep:
            # Constant columns get coefficient 0.0 by convention; debug level
            # because CV folds and bootstrap replicates hit this routinely.
            logger.debug(
                "fit_quantile: dropping zero-variance column %r", X.columns[j]
            )

    coef = np.zeros(len(X.columns))
    if keep:
        mat = X.values[:, keep]
        p = mat.shape[1]
        c = np.concatenate(
            [np.zeros(p + 1), np.full(n, tau), np.full(n, 1.0 - tau)]
        )
        design = sparse.hstack(
            [
                sparse.csr_matrix(np.column_stack([np.ones(n), mat])),
                sparse.identity(n, format="csr"),
                -sparse.identity(n, format="csr"),
            ]
        )
        bounds = [(None, None)] * (p + 1) + [(0.0, None)] * (2 * n)
        res = optimize.linprog(c, A_eq=design, b_eq=y, bounds=bounds, method="highs")
        if not res.success:
            raise FitError(f"quantile LP did not converge: {res.message}")
        intercept = float(res.x[0])
        for idx, j in enumerate(keep):
            coef[j] = float(res.x[1 + idx])
    else:
        intercept = empirical_quantile(y, tau)

    n_linear = X.n_linear
    betas = {col: float(coef[j]) for j, col in enumerate(X.columns[:n_linear])}
    gammas = {
        pair: float(coef[n_linear + i])
        for i, pair in enumerate(X.interaction_pairs)
    }
    residual = y - (intercept + X.values @ coef)
    objective = float(np.sum(check_loss(residual, tau)))
    return QuantileModel(
        tau=tau,
        intercept=intercept,
        betas=betas,
        gammas=gammas,
        objective_value=max(objective, 0.0),
        columns=X.columns[:n_linear],
    )


def predict(model: QuantileModel, X: DesignMatrix) -> np.ndarray:
    """Evaluate a fitted model on a design matrix with matching columns."""
    coef = np.empty(len(X.columns))
    n_linear = X.n_linear
    for j, col in enumerate(X.columns[:n_linear]):
        if col not in model.betas:
            raise DataError(f"model has no coefficient for column {col!r}")
        coef[j] = model.betas[col]
    for i, pair in enumerate(X.interaction_pairs):
        if pair not in model.gammas:
            raise DataError(f"model has no coefficient for interaction {pair!r}")
        coef[n_linear + i] = model.gammas[pair]
    return model.intercept + X.values @ coef


def pseudo_r2(model: QuantileModel, X: DesignMatrix, tau: float | None = None) -> float:
    """One minus the model's check loss over the intercept-only check loss.

    The baseline intercept is the evaluation window's own tau-quantile, so an
    in-sample value lands in [0, 1] while out-of-sample evaluation can go
    negative when the model underperforms the local constant.
    """
    tau = model.tau if tau is None else tau
    baseline = empirical_quantile(X.target, tau)
    base_loss = float(np.sum(check_loss(X.target - baseline, tau)))
    if base_loss == 0.0:
        raise DegenerateSampleError("intercept-only loss is zero; target constant")
    model_loss = float(np.sum(check_loss(X.target - predict(model, X), tau)))
    return 1.0 - model_loss / base_loss


@dataclass(frozen=True)
class FoldResult:
    fold: int
    train_rows: int
    test_months: tuple[str, str]
    n_test: int
    mae: float
    pseudo_r2: float


@dataclass(frozen=True)
class CVReport:
    folds: tuple[FoldResult, ...]
    pooled_mae: float
    pooled_pseudo_r2: float
    coefficient_paths: Mapping[str, tuple[float, ...]]


def _restandardized_subset(X: DesignMatrix, stats_rows: np.ndarray, rows: np.ndarray) -> DesignMatrix:
    """Rebuild a row subset with scalings derived from ``stats_rows`` only."""
    is_dummy = np.array([c in X.dummy_columns for c in X.linear_column_names])
    standardized, _ = _standardize_columns(X.raw_linear, is_dummy, stats_rows)
    values = _assemble_values(
        standardized[rows], X.linear_column_names, X.interaction_pairs
    )
    return DesignMatrix(
        months=tuple(X.months[i] for i in rows),
        columns=X.columns,
        values=values,
        target=X.target[rows],
        interaction_pairs=X.interaction_pairs,
        dummy_columns=X.dummy_columns,
        raw_linear=X.raw_linear[rows],
    )


def expanding_window_cv(
    X: DesignMatrix,
    taus: Sequence[float],
    initial_window: int,
    step: int,
    *,
    force_test_month: str | None = None,
) -> dict[float, CVReport]:
    """Walk-forward evaluation at each level in ``taus``, train-window-only scaling.

    Fold k trains on the first ``initial_window + (k-1) * step`` rows and
    tests on the following ``step`` rows (the final fold may be shorter).
    ``force_test_month`` shrinks the initial window if needed so that month
    falls in a test region; every fold's ordering is re-checked so no test row
    can precede a training row.

    The folds' designs are built once and every (tau, fold) pair is one unit
    of a single ``ordered_map`` call.  The folds do not depend on tau, and
    neither does any way they can fail (too few folds, a constant training or
    test target), so a failure raises once for all levels.
    """
    if initial_window < 10:
        raise DataError(f"initial window must be >= 10, got {initial_window}")
    if step < 1:
        raise DataError("step must be >= 1")
    n = len(X)

    if force_test_month is not None:
        if force_test_month not in X.months:
            raise DataError(f"{force_test_month} is not a design-matrix month")
        pos = X.months.index(force_test_month)
        if pos < 10:
            raise DataError(
                f"cannot place {force_test_month} in a test fold: only {pos} "
                "rows precede it"
            )
        if pos < initial_window:
            logger.info(
                "shrinking initial window %d -> %d so %s is tested",
                initial_window, pos, force_test_month,
            )
            initial_window = pos

    cuts = list(range(initial_window, n, step))
    if len(cuts) < 2:
        raise DataError(
            f"{n} rows with initial_window={initial_window}, step={step} "
            "yield fewer than 2 folds"
        )

    folds: list[tuple[DesignMatrix, DesignMatrix]] = []
    for cut in cuts:
        train_rows = np.arange(cut)
        test_rows = np.arange(cut, min(cut + step, n))
        train = _restandardized_subset(X, train_rows, train_rows)
        test = _restandardized_subset(X, train_rows, test_rows)
        if mo.month_index(train.months[-1]) >= mo.month_index(test.months[0]):
            raise RuntimeError(
                "lookahead guard tripped: test rows precede training rows"
            )
        folds.append((train, test))

    def run_fold(i: int) -> tuple[FoldResult, QuantileModel, np.ndarray, float, float]:
        tau, k = taus[i // len(folds)], i % len(folds)
        train, test = folds[k]
        model = fit_quantile(train, tau)
        err = test.target - predict(model, test)
        fold_model_loss = float(np.sum(check_loss(err, tau)))
        base = empirical_quantile(test.target, tau)
        fold_base_loss = float(np.sum(check_loss(test.target - base, tau)))
        fold_r2 = (
            1.0 - fold_model_loss / fold_base_loss if fold_base_loss > 0.0 else float("nan")
        )
        fold = FoldResult(
            fold=k + 1,
            train_rows=len(train),
            test_months=(test.months[0], test.months[-1]),
            n_test=len(test),
            mae=float(np.mean(np.abs(err))),
            pseudo_r2=fold_r2,
        )
        return fold, model, np.abs(err), fold_model_loss, fold_base_loss

    results = ordered_map(run_fold, len(taus) * len(folds))
    return {
        tau: _pooled_report(X, results[t * len(folds): (t + 1) * len(folds)])
        for t, tau in enumerate(taus)
    }


def _pooled_report(
    X: DesignMatrix,
    fold_results: Sequence[tuple[FoldResult, QuantileModel, np.ndarray, float, float]],
) -> CVReport:
    """One level's report from its folds' results.

    The folds may have run on worker processes; the sums are formed here in
    fold order so they match a serial walk exactly.
    """
    folds: list[FoldResult] = []
    paths: dict[str, list[float]] = {INTERCEPT_LABEL: []}
    for col in X.columns:
        paths[col] = []
    abs_errors: list[np.ndarray] = []
    model_losses = 0.0
    baseline_losses = 0.0
    for fold, model, abs_err, fold_model_loss, fold_base_loss in fold_results:
        folds.append(fold)
        abs_errors.append(abs_err)
        model_losses += fold_model_loss
        baseline_losses += fold_base_loss
        paths[INTERCEPT_LABEL].append(model.intercept)
        for col in X.columns[: X.n_linear]:
            paths[col].append(model.betas[col])
        for pair, name in zip(X.interaction_pairs, X.columns[X.n_linear:]):
            paths[name].append(model.gammas[pair])

    pooled_mae = float(np.mean(np.concatenate(abs_errors)))
    if baseline_losses == 0.0:
        raise DegenerateSampleError("all test targets constant; pooled fit undefined")
    pooled_r2 = 1.0 - model_losses / baseline_losses
    return CVReport(
        folds=tuple(folds),
        pooled_mae=pooled_mae,
        pooled_pseudo_r2=pooled_r2,
        coefficient_paths={k: tuple(v) for k, v in paths.items()},
    )
