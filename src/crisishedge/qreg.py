"""Quantile regression on engineered macro features.

Feature engineering turns a monthly panel into a design matrix of lagged,
standardized columns plus declared pairwise interaction products; fitting
minimizes the asymmetric check loss, a linear program solved in batches by a
Frisch-Newton interior-point method and certified by its duality gap.  The
target is always the nominal equity return and an endogeneity guard keeps any
equity-derived identifier out of the feature side by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from . import months as mo
from .dataio import MacroSeries
from .errors import ConfigError, DataError, DegenerateSampleError, EndogeneityError, FitError
from .quantiles import empirical_quantile, order_statistic_rank
from .resample import chunks
from .returns import ReturnSeries

logger = logging.getLogger(__name__)

ENDOGENOUS_PREFIX = "equity"
INTERCEPT_LABEL = "(intercept)"
MIN_FIT_ROWS = 10  # fewest design rows a fit or a CV training window may have


def check_loss(u: float | np.ndarray, tau: float | np.ndarray) -> float | np.ndarray:
    """Asymmetric check loss: u * (tau - 1[u < 0]); nonnegative everywhere.

    ``tau`` may be an array of levels that broadcasts against ``u``.
    """
    if not np.all((0.0 < tau) & (tau < 1.0)):
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
class FitCertificates:
    """How each of a group of check-loss fits was certified, in fit order.

    ``loss`` is the check loss of the returned coefficients and ``gap`` the
    duality gap at which the interior-point method stopped (0 for an exact
    order-statistic fit).  A fit whose gap did not reach
    ``GAP_TOL * (1 + loss)`` within the iteration cap was re-solved by HiGHS
    and is flagged in ``fallback``; its gap is the last one reached.
    """

    loss: tuple[float, ...] = ()
    gap: tuple[float, ...] = ()
    fallback: tuple[bool, ...] = ()

    def __len__(self) -> int:
        return len(self.loss)

    def __getitem__(self, part: slice) -> FitCertificates:
        return FitCertificates(self.loss[part], self.gap[part], self.fallback[part])

    def __add__(self, other: FitCertificates) -> FitCertificates:
        return FitCertificates(
            self.loss + other.loss, self.gap + other.gap, self.fallback + other.fallback
        )

    @property
    def fallbacks(self) -> int:
        return sum(self.fallback)


@dataclass(frozen=True)
class QuantileModel:
    """Coefficients of one check-loss fit at a single quantile level.

    ``coef`` is the fit's coefficient vector in design order: the intercept,
    one entry per linear column, then one per interaction pair.
    ``intercept``, ``betas`` and ``gammas`` are read from it on access.
    """

    tau: float
    coef: np.ndarray
    objective_value: float
    columns: tuple[str, ...]
    interaction_pairs: tuple[tuple[str, str], ...] = ()
    certificate: FitCertificates | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.objective_value < 0.0:
            raise ValueError("objective value cannot be negative")
        coef = np.array(self.coef, dtype=float)
        expected = 1 + len(self.columns) + len(self.interaction_pairs)
        if coef.shape != (expected,):
            raise ValueError(f"coef must hold {expected} entries, got shape {coef.shape}")
        for a, b in self.interaction_pairs:
            if a not in self.columns or b not in self.columns:
                raise ValueError(f"interaction ({a!r}, {b!r}) names an unknown column")
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def intercept(self) -> float:
        return float(self.coef[0])

    @property
    def betas(self) -> dict[str, float]:
        return dict(zip(self.columns, self.coef[1:].tolist()))

    @property
    def gammas(self) -> dict[tuple[str, str], float]:
        return dict(zip(self.interaction_pairs, self.coef[1 + len(self.columns):].tolist()))


def _standardize_columns(
    raw: np.ndarray,
    is_dummy: np.ndarray,
    stats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Z-score the continuous columns of ``raw`` with the moments of ``stats``.

    ``raw`` is (..., n, L) and ``stats`` (..., m, L) holds the rows whose
    moments scale it, so a stack of row sets is standardized in one call.
    Dummies pass through untouched.  A column with zero variance over its
    statistics rows is centred and divided by 1 instead of 0; the returned
    (..., L) mask marks those columns so callers can report them.  Each
    column's moments are taken over a contiguous row, so the result for one
    row set does not depend on the others stacked with it.
    """
    cols = np.ascontiguousarray(np.swapaxes(stats, -1, -2))
    mean = np.mean(cols, axis=-1)[..., None, :]
    std = np.std(cols, axis=-1)[..., None, :]
    degenerate = (std == 0.0) & ~is_dummy
    scaled = (raw - mean) / np.where(std == 0.0, 1.0, std)
    return np.where(is_dummy, raw, scaled), degenerate[..., 0, :]


def _assemble_values(
    standardized: np.ndarray,
    columns: Sequence[str],
    interaction_pairs: Sequence[tuple[str, str]],
) -> np.ndarray:
    pos = {c: i for i, c in enumerate(columns)}
    blocks = [standardized]
    for a, b in interaction_pairs:
        blocks.append((standardized[..., pos[a]] * standardized[..., pos[b]])[..., None])
    return np.concatenate(blocks, axis=-1)


def engineer_features(
    panel: Mapping[str, MacroSeries],
    schema: FeatureSchema,
    returns: ReturnSeries,
) -> DesignMatrix:
    """Build the design matrix on the months of ``returns``.

    The target is each month's nominal equity return.  Each column is one
    ``MacroSeries.at`` lookup ``lag`` months back, so a series only needs
    history, not shifting, to contribute.  Rows missing any feature input are
    dropped and counted.  Continuous columns are z-scored over the retained
    rows; event dummies must already be 0/1 and stay unscaled; interaction
    products are formed from the standardized parents.
    """
    needed = list(schema.base_features) + list(schema.event_dummies)
    missing = [f for f in needed if f not in panel]
    if missing:
        raise DataError(f"schema references absent series: {', '.join(missing)}")

    months = returns.months
    if not months:
        raise DataError("no return months to build the design on")

    linear_cols = schema.linear_columns()
    dummy_cols = schema.dummy_columns()
    raw = np.empty((len(months), len(linear_cols)))
    for j, (feature, lag) in enumerate(schema.lagged_sources()):
        raw[:, j] = panel[feature].at(returns.month_index, lag)
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

    standardized, degenerate = _standardize_columns(raw, is_dummy, raw)
    for j in np.flatnonzero(degenerate):
        logger.warning("column %r has zero variance over the window", linear_cols[j])
    values = _assemble_values(standardized, linear_cols, schema.interaction_pairs)

    return DesignMatrix(
        months=tuple(compress(months, complete)),
        columns=linear_cols + schema.interaction_names(),
        values=values,
        target=returns.nominal[complete],
        interaction_pairs=schema.interaction_pairs,
        dummy_columns=dummy_cols,
        raw_linear=raw,
        dropped_rows=dropped,
    )


# Batched Frisch-Newton interior-point method for check-loss fits.
GAP_TOL = 1e-9  # a fit stops once its duality gap <= GAP_TOL * (1 + check loss)
CHUNK_ROWS = 12_000  # design rows solved together; bounds the solver's memory
_MAX_ITER = 50  # iterations before a fit falls back to HiGHS
_STEP = 0.99995  # fraction of the distance to the boundary a step may cover
_RIDGE = 1e-14  # diagonal ridge on the normal equations, relative to their trace


def require_varying(target: np.ndarray) -> None:
    """Reject a constant target, for which no quantile fit is defined."""
    if np.ptp(target) == 0.0:
        raise DegenerateSampleError("target is constant; quantile fit undefined")


def _normal_matrix(left: np.ndarray, right: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """X' W X as ``left @ right`` per member, ridged, unused columns pinned by a unit diagonal."""
    M = left @ right
    k = np.arange(M.shape[-1])
    diag = M[:, k, k]
    M[:, k, k] = np.where(usable, diag + _RIDGE * diag.sum(axis=1, keepdims=True), 1.0)
    return M


def _step_lengths(
    x: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    dx: np.ndarray,
    dz: np.ndarray,
    dw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Primal and dual step lengths per member, as (B, 1) columns.

    Each is ``_STEP`` times the largest step that keeps its variables
    nonnegative, capped at 1.  An entry v with a falling dv allows v / |dv|,
    which equals -v / dv exactly; every other entry divides inf and allows
    any step, so no finite number is ever divided by zero.  The primal pair
    x, s = 1 - x moves by dx and -dx, so one pass covers both: x bounds a
    falling dx and s a rising one.  A zero-weight row comes with zero
    directions (``_newton_step``), so it never bounds a step.
    """
    primal = np.where(dx > 0.0, s, np.where(dx < 0.0, x, np.inf)) / np.abs(dx)
    dual = np.minimum(
        (np.where(dz < 0.0, z, np.inf) / np.abs(dz)).min(axis=1),
        (np.where(dw < 0.0, w, np.inf) / np.abs(dw)).min(axis=1),
    )
    return (
        np.minimum(_STEP * primal.min(axis=1), 1.0)[:, None],
        np.minimum(_STEP * dual, 1.0)[:, None],
    )


def _newton_step(
    X: np.ndarray,
    weight: np.ndarray,
    usable: np.ndarray,
    x: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    dual: np.ndarray,
    mu: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One Mehrotra predictor-corrector step for every member of a batch.

    The bounded dual LP is min c'Wx subject to X'Wx = (1 - tau) X'W1 and
    0 <= x <= 1, with slack s = 1 - x and W the diagonal of the row weights;
    its dual has X dual + z - w = c with z, w >= 0.  Both feasibilities are
    kept, so the step only drives the complementarity products x*z and s*w
    towards 0; ``mu`` is their current weighted sum per member, the duality
    gap.  A row of weight k takes the step that each of k copies of it would
    take, and a zero-weight row's directions are zero: it never moves and
    never bounds a step.
    """
    Xt = np.swapaxes(X, 1, 2)
    on = np.sign(weight)
    q = 1.0 / (z / x + w / s)
    r = z - w
    qw = q * weight
    M = _normal_matrix(Xt * qw[:, None, :], X, usable)
    q *= on

    def direction(v):
        # The Newton system reduced to the normal equations; v = 0 is the
        # affine (predictor) step.
        dy = np.linalg.solve(M, Xt @ (qw * (r - v))[:, :, None])[:, :, 0]
        return dy, q * ((X @ dy[:, :, None])[:, :, 0] + v - r)

    dy, dx = direction(0.0)
    ds = -dx
    dz = -z * (dx / x + 1.0) * on
    dw = -w * (ds / s + 1.0) * on
    fp, fd = _step_lengths(x, s, z, w, dx, dz, dw)
    # Corrector, taken on every step: the affine step can never be taken
    # whole, since in each row z + dz = -z dx/x and w + dw = w dx/s cannot
    # both be positive.  It aims at the centring target Mehrotra's heuristic
    # picks from how far the affine step got, less the affine second-order
    # term.
    step = fp * dx
    reach = ((x + step) * (z + fd * dz) * weight).sum(axis=1) + (
        (s - step) * (w + fd * dw) * weight
    ).sum(axis=1)
    ratio = reach / mu
    target = (mu * ratio * ratio * ratio / (2 * weight.sum(axis=1)))[:, None]
    dxdz = dx * dz
    dsdw = ds * dw
    xinv = 1.0 / x
    sinv = 1.0 / s
    dy, dx = direction(target * (xinv - sinv) - xinv * dxdz + sinv * dsdw)
    dz = (xinv * (target - dxdz - z * dx) - z) * on
    dw = (sinv * (target - dsdw + w * dx) - w) * on
    fp, fd = _step_lengths(x, s, z, w, dx, dz, dw)
    step = fp * dx
    return x + step, s - step, z + fd * dz, w + fd * dw, dual + fd * dy


def _order_statistic(target: np.ndarray, weight: np.ndarray, tau: float) -> float:
    """The type-1 ``tau``-quantile of ``target`` with row i counted ``weight[i]`` times.

    With integer weights it is ``empirical_quantile`` of the target with each
    row repeated that many times; zero-weight rows never count.
    """
    order = np.argsort(target, kind="stable")
    counted = np.cumsum(weight[order])
    k = order_statistic_rank(tau, float(counted[-1]))
    return float(target[order[np.searchsorted(counted, k)]])


def _start(
    X: np.ndarray, targets: np.ndarray, weight: np.ndarray, usable: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted least-squares dual start and its residual split into z and w.

    The normal matrix is the Gram matrix of the rows scaled by root weights.
    x = 1 - tau is feasible for the bounded dual; z and w split the residual
    exactly, with a small floor on both sides of a near-zero residual so
    that neither complementarity pair starts stuck.
    """
    c = -targets
    root = X * np.sqrt(weight)[:, :, None]
    dual = np.linalg.solve(
        _normal_matrix(np.swapaxes(root, 1, 2), root, usable),
        np.swapaxes(X, 1, 2) @ (weight * c)[:, :, None],
    )[:, :, 0]
    r = c - (X @ dual[:, :, None])[:, :, 0]
    floor = 0.001 * (np.abs(r) < 1e-9 * (1.0 + np.abs(targets)))
    z = np.maximum(r, 0.0) + floor
    return dual, z, z - r


def _frisch_newton(
    designs: np.ndarray, targets: np.ndarray, tau: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefficients, gaps, converged) for one chunk of problems, ``tau`` the level of each.

    ``designs`` (intercept 1 on every positive-weight row) is the chunk's own
    copy: its unusable columns are zeroed in place.  ``weight`` holds the
    (B, n) row weights, and a zero-weight row must be 0 throughout, target
    included.  A row of weight k stands for k copies of it: it enters the
    least-squares start, the normal matrix and its right-hand side, the gap
    mu, Mehrotra's reach, the centring target's row count (the sum of the
    weights) and the stopping test's check loss k times, so in exact
    arithmetic the iterates are those of the problem with the row repeated.
    A zero-weight row adds nothing to any of them, never moves and stays out
    of the step lengths and the usable-column test, so padding is inert; a
    weight of 1 multiplies exactly, so an unweighted fit takes the same
    steps bit for bit.  The iterates of the members still running are kept
    compacted: a member that stops is dropped from every state array once,
    when it stops.
    """
    batch, n, p = designs.shape
    real = weight > 0.0
    lo = np.min(designs, axis=1, where=real[:, :, None], initial=np.inf)
    hi = np.max(designs, axis=1, where=real[:, :, None], initial=-np.inf)
    usable = hi > lo
    usable[:, 0] = True
    X = np.multiply(designs, usable[:, None, :], out=designs)
    tau = tau[:, None]
    dual, z, w = _start(X, targets, weight, usable)
    x = np.full((batch, n), 1.0 - tau)
    s = 1.0 - x

    gap = np.full(batch, np.inf)
    converged = np.zeros(batch, dtype=bool)
    coef = np.zeros((batch, p))
    # A design whose only usable column is the intercept has the exact
    # order-statistic solution.
    exact = ~usable[:, 1:].any(axis=1)
    for b in np.flatnonzero(exact):
        coef[b, 0] = _order_statistic(targets[b], weight[b], float(tau[b, 0]))
    gap[exact] = 0.0
    converged[exact] = True
    live = np.flatnonzero(~exact)
    if exact.any():
        X, weight, usable, targets, tau, x, s, z, w, dual = (
            a[live] for a in (X, weight, usable, targets, tau, x, s, z, w, dual)
        )
    for it in range(_MAX_ITER + 1):
        resid = targets + (X @ dual[:, :, None])[:, :, 0]
        loss = (resid * (tau - (resid < 0.0)) * weight).sum(axis=1)  # check loss
        mu = (x * z * weight).sum(axis=1) + (s * w * weight).sum(axis=1)
        gap[live] = mu
        done = mu <= GAP_TOL * (1.0 + loss)
        converged[live[done]] = True
        coef[live[done]] = np.where(usable[done], -dual[done], 0.0)
        running = ~done & np.isfinite(mu)
        if it == _MAX_ITER or not running.any():
            break
        if not running.all():
            live = live[running]
            X, weight, usable, targets, tau, x, s, z, w, dual, mu = (
                a[running] for a in (X, weight, usable, targets, tau, x, s, z, w, dual, mu)
            )
        x, s, z, w, dual = _newton_step(X, weight, usable, x, s, z, w, dual, mu)
    return coef, gap, converged


def _highs_fit(
    design: np.ndarray, target: np.ndarray, tau: float, weight: np.ndarray
) -> np.ndarray:
    """One weighted check-loss fit as the primal LP over split residuals, by HiGHS.

    Residuals split into u, v >= 0 with design @ b + u - v = y, minimizing
    tau * w'u + (1 - tau) * w'v.  Zero-weight rows and columns constant over
    the other rows (except the intercept) are dropped; dropped columns get
    0.  scipy is imported here, so only a run that falls back pays for it.
    """
    from scipy import optimize, sparse

    rows = weight > 0.0
    mat, y, wt = design[rows], target[rows], weight[rows]
    keep = np.ptp(mat, axis=0) > 0.0
    keep[0] = True
    mat = mat[:, keep]
    n, p = mat.shape
    c = np.concatenate([np.zeros(p), tau * wt, (1.0 - tau) * wt])
    identity = sparse.identity(n, format="csr")
    A = sparse.hstack([sparse.csr_matrix(mat), identity, -identity])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = optimize.linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise FitError(f"quantile LP did not converge: {res.message}")
    coef = np.zeros(design.shape[1])
    coef[keep] = res.x[:p]
    return coef


def _widths(counts: np.ndarray, n: int) -> np.ndarray:
    """The width each positive-weight row count is solved at, for a row axis of n.

    The ladder's top rung is n; each rung below is three quarters of the
    one above, rounded up, down to the first rung under 64 rows.  A count
    takes the lowest rung that holds it.
    """
    ladder = [n]
    while ladder[-1] >= 64:
        ladder.append(-(-3 * ladder[-1] // 4))
    ladder.reverse()
    return np.asarray(ladder)[np.searchsorted(ladder, counts)]


def solve_check_loss(
    designs: np.ndarray, targets: np.ndarray, taus: Sequence[float]
) -> tuple[np.ndarray, FitCertificates]:
    """Fit every design at every level; returns (T, B, p) coefficients.

    ``designs`` is (B, n, p), ``targets`` is (B, n) and ``taus`` holds the T
    levels.  Column 0 of a design holds each row's nonnegative weight: a row
    of weight w counts as w copies of the row with intercept 1, so the fit
    minimizes sum_i w_i rho_tau(y_i - b0 - x_i'b).  Weight 1 is a plain row.
    Weight 0 is padding, and a zero-weight row must be 0 throughout, target
    included, so problems of unequal length share one array.  Padding is
    inert (``_frisch_newton``): up to rounding, a member's iterates are
    those of its positive-weight rows alone, and a weight-k row's are those
    of k copies of it.  Columns constant over a design's positive-weight
    rows get coefficient 0, and a design with no other usable column takes
    the exact order-statistic intercept of its target, each row counted as
    often as its weight.

    Each member is solved on its positive-weight rows, in order, followed by
    zero rows up to its width: the lowest rung of ``_widths``'s ladder (n,
    then three quarters of the rung above, down to the first rung under 64
    rows) that holds its count of positive-weight rows.  The width depends
    on nothing else, and an unpadded member keeps the width n.  The ladder
    was picked by timing the clayton_coupled CV (48 folds at 3 levels) and
    the stability bootstraps of clayton_coupled (200 replicates of 600 rows)
    and perfect_hedge (1000 of 120), whose replicates have 63% distinct rows
    (standard deviation 3% at 600 rows, 5% at 120): rungs three quarters
    apart keep most of a chunk's replicates on one rung, where fixed steps
    of 64 or 128 rows split them or leave 120 rows unshrunk (perfect_hedge
    178 to 189 ms against 163 ms), and rungs under 64 rows cost more solves
    than their padding saves (anti_hedge CV 8.9 ms with rungs down to 3
    rows, 7.1 ms without; medians on a 2-vCPU Linux machine, numpy 2.4).

    Every (level, design) pair is one member, level by level in design
    order; the members of one width are solved together, in that order, in
    chunks of about ``CHUNK_ROWS`` rows by the Frisch-Newton method of
    ``fit_quantile``, so a chunk may span two levels.  Each fit stops on its
    own duality gap and is then frozen, and its width is its own, so its
    coefficients do not depend on the batch, the chunk, the other designs
    or the other levels it is solved with.  A fit that does not reach its
    gap within the iteration cap is re-solved by HiGHS and flagged in the
    certificates, which list the fits in member order with their weighted
    check losses.
    """
    designs = np.asarray(designs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    batch, n, p = designs.shape
    levels = np.repeat(np.asarray(taus, dtype=float), batch)
    positive = designs[:, :, 0] > 0.0
    order = np.argsort(~positive, axis=1, kind="stable")
    counts = np.count_nonzero(positive, axis=1)
    widths = _widths(counts, n)
    member_widths = np.tile(widths, len(taus))
    coef = np.empty((levels.size, p))
    gap = np.empty(levels.size)
    fallback = np.empty(levels.size, dtype=bool)
    loss = np.empty(levels.size)
    for width in np.unique(widths):
        group = np.flatnonzero(member_widths == width)
        for part in chunks(group.size, int(width), CHUNK_ROWS):
            members = group[part]
            rows = members % batch
            kept = order[rows, :width]
            chunk = designs[rows[:, None], kept]
            y = targets[rows[:, None], kept]
            weight = chunk[:, :, 0].copy()
            chunk[:, :, 0] = weight > 0.0
            tau = levels[members]
            coef[members], gap[members], converged = _frisch_newton(chunk, y, tau, weight)
            fallback[members] = ~converged
            for j in np.flatnonzero(~converged):
                coef[members[j]] = _highs_fit(chunk[j], y[j], float(tau[j]), weight[j])
            resid = y - (chunk @ coef[members, :, None])[:, :, 0]
            loss[members] = np.sum(check_loss(resid, tau[:, None]) * weight, axis=1)
    return coef.reshape(len(taus), batch, p), FitCertificates(
        tuple(loss.tolist()),
        tuple(np.where(np.isfinite(gap), gap, np.inf).tolist()),
        tuple(fallback.tolist()),
    )


def _quantile_model(
    X: DesignMatrix,
    tau: float,
    coef: np.ndarray,
    objective: float,
    certificate: FitCertificates | None = None,
) -> QuantileModel:
    """Wrap a solver's (intercept, columns...) coefficient row for ``X``."""
    return QuantileModel(
        tau=tau,
        coef=coef,
        objective_value=max(objective, 0.0),
        columns=X.linear_column_names,
        interaction_pairs=X.interaction_pairs,
        certificate=certificate,
    )


def _with_intercept(values: np.ndarray) -> np.ndarray:
    """Prepend the intercept column to (..., n, M) feature values."""
    ones = np.ones(values.shape[:-1] + (1,))
    return np.concatenate([ones, values], axis=-1)


def fit_quantile(X: DesignMatrix, tau: float) -> QuantileModel:
    """Minimize the summed check loss over intercept + linear + interaction terms.

    The fit is ``fit_quantiles`` at one level, a batch of one for
    ``solve_check_loss``: the Frisch-Newton interior-point method, a
    Mehrotra predictor-corrector on the bounded dual
    ``max y'a s.t. X'a = (1 - tau) X'1, 0 <= a <= 1`` (Portnoy & Koenker
    1997; Koenker 2005, section 6.2; the algorithm of R quantreg's
    ``rq.fit.fnb``).  It stops once the duality gap is at most
    ``GAP_TOL * (1 + check loss)``, which certifies the loss to that
    tolerance, and falls back to the HiGHS LP if it does not get there.

    Canonical point: when the minimizer is not unique (the shipped fixtures'
    lower-tail fits are not), the result is the interior-point optimum, a
    point inside the optimal face, not a simplex vertex.  On the
    clayton_coupled fixture its coefficients move by less than 1e-9 across
    stop tolerances from 1e-7 to 1e-10, so it is reproducible, whereas a
    vertex depends on the simplex solver's pivoting.  Columns with zero
    variance over the fit window get coefficient 0, and a model with no
    usable columns takes the exact order-statistic rule for the intercept.
    """
    return fit_quantiles(X, (tau,))[0]


def fit_quantiles(X: DesignMatrix, taus: Sequence[float]) -> tuple[QuantileModel, ...]:
    """``fit_quantile`` at every level in ``taus``, solved as one batch."""
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")
    n = len(X)
    if n < MIN_FIT_ROWS:
        raise DataError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")
    require_varying(X.target)
    for j in np.flatnonzero(np.ptp(X.values, axis=0) == 0.0):
        # Constant columns get coefficient 0.0 by convention; debug level
        # because CV folds and bootstrap replicates hit this routinely.
        logger.debug("fit_quantile: dropping zero-variance column %r", X.columns[j])
    coef, certificates = solve_check_loss(
        _with_intercept(X.values)[None], X.target[None], taus
    )
    return tuple(
        _quantile_model(X, tau, coef[t, 0], certificates.loss[t], certificates[t: t + 1])
        for t, tau in enumerate(taus)
    )


def require_design(model: QuantileModel, X: DesignMatrix) -> None:
    """Reject a design whose columns or interaction pairs differ from the model's."""
    if (X.linear_column_names, X.interaction_pairs) != (
        model.columns, model.interaction_pairs
    ):
        raise DataError("design matrix columns do not match the model")


def _evaluate(coef: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The intercept plus ``values @ coef[1:]``, the one prediction rule."""
    return float(coef[0]) + values @ coef[1:]


def predict(model: QuantileModel, X: DesignMatrix) -> np.ndarray:
    """Evaluate a fitted model on a design matrix with matching columns."""
    require_design(model, X)
    return _evaluate(model.coef, X.values)


def pseudo_r2(model: QuantileModel, X: DesignMatrix) -> float:
    """One minus the model's check loss over the intercept-only check loss.

    The baseline intercept is the evaluation window's own tau-quantile, so an
    in-sample value lands in [0, 1] while out-of-sample evaluation can go
    negative when the model underperforms the local constant.
    """
    tau = model.tau
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
    certificates: FitCertificates = FitCertificates()


def restandardized_values(
    X: DesignMatrix, stats_rows: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Design values of ``rows`` scaled with the moments of ``stats_rows`` only.

    Both index arrays may carry leading batch axes, (..., m) and (..., k), to
    rebuild a stack of row subsets in one call; the result is (..., k, M).
    """
    is_dummy = np.array([c in X.dummy_columns for c in X.linear_column_names])
    standardized, _ = _standardize_columns(
        X.raw_linear[rows], is_dummy, X.raw_linear[stats_rows]
    )
    return _assemble_values(standardized, X.linear_column_names, X.interaction_pairs)


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

    The folds' designs are built once, each fold's rows followed by zero
    padding up to the longest training window, and every (tau, fold) pair
    is one member of a single ``solve_check_loss`` call, which solves each
    fold at its own width.  Padding is inert, so a fold's fit is its fit
    alone up to rounding: on the shipped fixtures every coefficient is
    within 1e-6 of it, relative to 1 plus its size.  The folds do not depend
    on tau, and neither does any way they can fail (too few folds, a
    constant training or test target), so a failure raises once for all
    levels.
    """
    if initial_window < MIN_FIT_ROWS:
        raise DataError(f"initial window must be >= {MIN_FIT_ROWS}, got {initial_window}")
    if step < 1:
        raise DataError("step must be >= 1")
    n = len(X)

    if force_test_month is not None:
        if force_test_month not in X.months:
            raise DataError(f"{force_test_month} is not a design-matrix month")
        pos = X.months.index(force_test_month)
        if pos < MIN_FIT_ROWS:
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

    for cut in cuts:
        if mo.month_index(X.months[cut - 1]) >= mo.month_index(X.months[cut]):
            raise RuntimeError(
                "lookahead guard tripped: test rows precede training rows"
            )

    designs = np.zeros((len(cuts), cuts[-1], 1 + len(X.columns)))
    targets = np.zeros((len(cuts), cuts[-1]))
    tests: list[tuple[np.ndarray, np.ndarray]] = []
    for k, cut in enumerate(cuts):
        train_rows = np.arange(cut)
        test_rows = np.arange(cut, min(cut + step, n))
        require_varying(X.target[train_rows])
        designs[k, :cut] = _with_intercept(restandardized_values(X, train_rows, train_rows))
        targets[k, :cut] = X.target[train_rows]
        tests.append((test_rows, restandardized_values(X, train_rows, test_rows)))
    coefs, certificates = solve_check_loss(designs, targets, taus)

    reports = {}
    for t, tau in enumerate(taus):
        folds: list[FoldResult] = []
        abs_errors: list[np.ndarray] = []
        model_losses = 0.0
        baseline_losses = 0.0
        for k, (test_rows, values) in enumerate(tests):
            target = X.target[test_rows]
            err = target - _evaluate(coefs[t, k], values)
            fold_model_loss = float(np.sum(check_loss(err, tau)))
            base = empirical_quantile(target, tau)
            fold_base_loss = float(np.sum(check_loss(target - base, tau)))
            folds.append(FoldResult(
                fold=k + 1,
                train_rows=cuts[k],
                test_months=(X.months[test_rows[0]], X.months[test_rows[-1]]),
                n_test=len(test_rows),
                mae=float(np.mean(np.abs(err))),
                pseudo_r2=(
                    1.0 - fold_model_loss / fold_base_loss
                    if fold_base_loss > 0.0 else float("nan")
                ),
            ))
            abs_errors.append(np.abs(err))
            model_losses += fold_model_loss
            baseline_losses += fold_base_loss
        if baseline_losses == 0.0:
            raise DegenerateSampleError("all test targets constant; pooled fit undefined")
        reports[tau] = CVReport(
            folds=tuple(folds),
            pooled_mae=float(np.mean(np.concatenate(abs_errors))),
            pooled_pseudo_r2=1.0 - model_losses / baseline_losses,
            coefficient_paths=dict(
                zip((INTERCEPT_LABEL, *X.columns), map(tuple, coefs[t].T.tolist()))
            ),
            certificates=certificates[t * len(cuts): (t + 1) * len(cuts)],
        )
    return reports
