"""Archimedean copula fitting and lower-tail-dependence inference.

Paired monthly series (equity return, purchasing-power loss) are transformed
to pseudo-uniform marginals by ranking, fitted to the Clayton, Gumbel and
Frank one-parameter families by maximum likelihood, and compared by
information criteria.  Lower tail dependence comes in two flavours: the
analytic coefficient implied by the fitted family and the empirical
conditional frequency at a finite threshold.  Confidence intervals use a
moving-block bootstrap of the paired raw sequence with per-replicate ranks.

Boundary rule.  The likelihood is maximized over a bounded theta range
(``THETA_BOUNDS``), and a maximum at either edge stands for the family's limit
copula rather than for a finite theta.  At the upper bound all three families
tend to the comonotone copula M, whose lower tail dependence is 1, so such a
fit reports lambda_L = 1 (Gumbel's and Frank's finite-theta formula would say
0, Clayton's slightly below 1).  At the lower bound Clayton and Gumbel tend to
independence and Frank to the countermonotone copula W, all with lambda_L = 0,
which the finite-theta formula already gives.  Either way the fit carries
``boundary=True`` and a diagnostic; an upper-bound diagnostic names the limit.

Batched search.  Every fit is one lane of ``fit_batch``: a port of scipy's
bounded Brent minimizer (``_minimize_scalar_bounded``: same operation order,
xatol 1e-10, at most 500 evaluations, a success flag per lane) run over a
row-wise log-density, so all bootstrap replicates of a family are fitted in
one search and each lane's theta is the one a scalar search would find on
that replicate alone.  ``fit_copula`` is a batch of one.

Replicate policy.  The bootstrap ranks its replicates in chunks of about
``CHUNK_POINTS`` observations and hands each chunk to a batch statistic.  A
degenerate replicate is skipped; a replicate whose search did not converge is
left out of the percentile interval; both are counted, and together they may
not exceed 5% of the replications.  A replicate fitted at a parameter bound
stays in at its limit value (the boundary rule above) and is counted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .errors import DataError, DegenerateSampleError, FitError, NumericalError
from .resample import block_resamples

logger = logging.getLogger(__name__)


class CopulaFamily(str, Enum):
    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"


FAMILIES = (CopulaFamily.CLAYTON, CopulaFamily.GUMBEL, CopulaFamily.FRANK)

# Likelihood stays finite on these ranges; hitting an edge is reported as a
# boundary diagnostic rather than silently clamped.
THETA_BOUNDS: dict[CopulaFamily, tuple[float, float]] = {
    CopulaFamily.CLAYTON: (1e-6, 50.0),
    CopulaFamily.GUMBEL: (1.0 + 1e-6, 50.0),
    CopulaFamily.FRANK: (-50.0, 50.0),
}

_BOUNDARY_REL = 1e-4
_FRANK_AMBIGUOUS_TAU = 0.05
_FRANK_EDGE = 1e-6  # Frank's half-intervals stop this far from theta = 0

XATOL = 1e-10  # absolute theta tolerance of the bounded search
MAXITER = 500  # log-likelihood evaluations per lane before a search gives up
CHUNK_POINTS = 16_384  # replicate observations ranked and fitted together; bounds memory
_SEARCH_MESSAGES = {1: "Maximum number of function calls reached.",
                    2: "NaN result encountered."}


def pseudo_observations(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rank-transform a sample to (0,1): average rank over n + 1.

    Invariant under strictly monotone transforms of the input; ties share
    their average rank.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DataError("pseudo-observations need a 1-D sample of length >= 2")
    if not np.all(np.isfinite(arr)):
        raise DataError("pseudo-observations need finite input")
    return stats.rankdata(arr, method="average") / (arr.size + 1.0)


@dataclass(frozen=True)
class PseudoSample:
    """Paired pseudo-uniform marginals; `u` from returns, `v` from losses."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be 1-D of equal length")
        for label, arr in (("u", u), ("v", v)):
            if not np.all((arr > 0.0) & (arr < 1.0)):
                raise ValueError(f"{label} must lie strictly inside (0, 1)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return int(self.u.size)

    @classmethod
    def from_data(cls, x: Sequence[float], y: Sequence[float]) -> "PseudoSample":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise DataError("paired samples must have equal length")
        return cls(u=pseudo_observations(x), v=pseudo_observations(y))


@dataclass(frozen=True)
class CopulaFit:
    """One family's maximum-likelihood fit with tail-dependence summaries.

    ``lambda_lower`` is the analytic coefficient implied by theta, or the limit
    value 1 for a fit at the upper bound (see the module docstring);
    ``empirical_lambda_at_tau`` is the finite-threshold conditional frequency
    recorded when a threshold was supplied.  The bootstrap CI is attached by
    the caller after fitting (``dataclasses.replace``).
    """

    family: CopulaFamily
    theta: float
    log_likelihood: float
    aic: float
    bic: float
    lambda_lower: float
    n: int
    converged: bool = True
    boundary: bool = False
    lambda_lower_ci: tuple[float, float] | None = None
    empirical_lambda_at_tau: float | None = None
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _validate_theta(self.family, self.theta)
        if not math.isclose(self.aic, 2.0 - 2.0 * self.log_likelihood, abs_tol=1e-7):
            raise ValueError("aic inconsistent with log-likelihood")
        if not math.isclose(
            self.bic, math.log(self.n) - 2.0 * self.log_likelihood, abs_tol=1e-7
        ):
            raise ValueError("bic inconsistent with log-likelihood")
        if not 0.0 <= self.lambda_lower <= 1.0:
            raise ValueError("lambda_lower must lie in [0, 1]")
        if self.lambda_lower_ci is not None:
            lo, hi = self.lambda_lower_ci
            if not lo <= hi:
                raise ValueError("CI bounds out of order")


def _validate_theta(family: CopulaFamily, theta: float) -> None:
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if family is CopulaFamily.CLAYTON and theta <= 0.0:
        raise ValueError("Clayton needs theta > 0")
    if family is CopulaFamily.GUMBEL and theta < 1.0:
        raise ValueError("Gumbel needs theta >= 1")
    if family is CopulaFamily.FRANK and theta == 0.0:
        raise ValueError("Frank needs theta != 0")


def _check_unit_interval(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u > 0) & (u < 1)) and np.all((v > 0) & (v < 1))):
        raise ValueError("copula arguments must lie strictly inside (0, 1)")
    return u, v


def log_density(
    family: CopulaFamily | str, theta: float, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Pointwise log copula density, numerically stable over the whole bounds.

    Clayton works in log space so u^(-theta) never overflows even at
    theta = 50 with n in the hundreds of thousands.
    """
    family = CopulaFamily(family)
    _validate_theta(family, theta)
    u, v = _check_unit_interval(u, v)
    if family is CopulaFamily.FRANK and abs(theta) < 1e-10:
        return np.zeros_like(u)
    return _log_density(family, theta, *_margins(family, u, v))


def _margins(family: CopulaFamily, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The theta-free transforms of (u, v) that ``_log_density`` starts from."""
    if family is CopulaFamily.CLAYTON:
        lu, lv = np.log(u), np.log(v)
        return lu, lv, lu + lv
    if family is CopulaFamily.GUMBEL:
        x, y = -np.log(u), -np.log(v)
        lx, ly = np.log(x), np.log(y)
        return x, y, lx, ly, lx + ly
    return u, v, u + v


def _log_density(
    family: CopulaFamily, theta: float | np.ndarray, *margins: np.ndarray
) -> np.ndarray:
    """``log_density`` from ``_margins``, without checks; ``theta`` broadcasts.

    With (L, n) margins and an (L, 1) theta column this is the log-density of
    L lanes at once, each element computed in the same order as with a scalar
    theta, so every lane equals its own scalar evaluation bit for bit.
    """
    if family is CopulaFamily.CLAYTON:
        lu, lv, luv = margins
        a = -theta * lu
        b = -theta * lv
        m = np.maximum(a, b)
        # log(u^-th + v^-th - 1) without forming the powers directly
        log_s = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
        return np.log1p(theta) - (1.0 + theta) * luv - (2.0 + 1.0 / theta) * log_s

    if family is CopulaFamily.GUMBEL:
        x, y, lx, ly, lxy = margins
        log_s = np.logaddexp(theta * lx, theta * ly)
        big_a = np.exp(log_s / theta)
        return (
            -big_a
            + x
            + y
            + (theta - 1.0) * lxy
            + (1.0 / theta - 2.0) * log_s
            + np.log(big_a + theta - 1.0)
        )

    # Frank; expm1 keeps both signs of theta stable.  math.expm1, one lane at
    # a time, because numpy's expm1 rounds differently in the last place.
    u, v, uv = margins
    g1 = np.array([math.expm1(-t) for t in np.ravel(theta)]).reshape(np.shape(theta))
    gu = np.expm1(-theta * u)
    gv = np.expm1(-theta * v)
    denom = -(g1 + gu * gv)
    return np.log(-theta * g1) - theta * uv - 2.0 * np.log(np.abs(denom))


def lower_tail_dependence(family: CopulaFamily | str, theta: float) -> float:
    """Analytic lower-tail-dependence coefficient of a fitted family.

    Only Clayton has a lower tail: 2^(-1/theta).  Gumbel's dependence sits in
    the upper tail and Frank has none, so both map to 0.
    """
    family = CopulaFamily(family)
    _validate_theta(family, theta)
    if family is CopulaFamily.CLAYTON:
        return float(2.0 ** (-1.0 / theta))
    return 0.0


def _minimize_bounded(
    fun: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    data: tuple[np.ndarray, ...],
    *,
    xatol: float,
    maxiter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounded Brent minimization of one scalar function per lane.

    A port of scipy's ``_minimize_scalar_bounded`` with every scalar turned
    into a lane vector: golden-section steps, parabolic steps and the
    bracket update happen in the same order with the same arithmetic, so each
    lane follows exactly the path of a scalar search.  ``data`` holds arrays
    whose rows belong to the lanes; ``fun(x, *rows)`` returns the objective of
    the lanes still searching at ``x``, given their rows.  A lane leaves the
    search, and is no longer evaluated, once its bracket meets the tolerance.
    Returns the minimizer, its objective and scipy's status per lane: 0
    converged, 1 out of evaluations, 2 NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    count = lo.size
    x_out = np.empty(count)
    f_out = np.empty(count)
    fu_out = np.empty(count)
    status = np.zeros(count, dtype=int)

    lanes = np.arange(count)
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = nfc = fulc = a + golden_mean * (b - a)
    rat = e = np.zeros(count)
    fx = fnfc = ffulc = fun(xf, *data)
    fu = np.full(count, np.inf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        going = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if not going.all():
            done = lanes[~going]
            x_out[done], f_out[done], fu_out[done] = xf[~going], fx[~going], fu[~going]
            lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, fu, xm, tol1, tol2 = (
                arr[going] for arr in
                (lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, fu, xm, tol1, tol2)
            )
            data = tuple(rows[going] for rows in data)
        if not lanes.size:
            break

        # A parabolic step where the step before last was long enough and the
        # parabola's minimum falls inside the bracket; golden section elsewhere.
        parabolic = np.abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        accept = (
            parabolic
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        step = np.divide(p + 0.0, q, out=np.zeros_like(p), where=accept)
        x = xf + step
        toward_middle = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        near_edge = ((x - a) < tol2) | ((b - x) < tol2)
        golden = np.where(xf >= xm, a - xf, b - xf)
        rat, e = (
            np.where(accept, np.where(near_edge, toward_middle, step), golden_mean * golden),
            np.where(accept, rat, golden),
        )

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fun(x, *data)
        num += 1

        better = fu <= fx
        right = x >= xf
        a = np.where(better & right, xf, np.where(~better & ~right, x, a))
        b = np.where(better & ~right, xf, np.where(~better & right, x, b))
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc = np.where(better | second, nfc, np.where(third, x, fulc))
        ffulc = np.where(better | second, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
        if num >= maxiter:
            status[lanes] = 1
            x_out[lanes], f_out[lanes], fu_out[lanes] = xf, fx, fu
            break

    status[np.isnan(x_out) | np.isnan(f_out) | np.isnan(fu_out)] = 2
    return x_out, f_out, status


@dataclass(frozen=True)
class PseudoBatch:
    """Pseudo-samples of one length stacked in rows; lane ``i`` is ``(u[i], v[i])``."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 2-D of equal shape")

    def __len__(self) -> int:
        return int(self.u.shape[0])

    @property
    def n(self) -> int:
        return int(self.u.shape[1])

    @classmethod
    def of(cls, sample: PseudoSample) -> "PseudoBatch":
        return cls(sample.u[None, :], sample.v[None, :])

    @classmethod
    def from_rows(cls, sample: PseudoSample, rows: np.ndarray) -> "PseudoBatch":
        """Each row of ``rows`` resamples ``sample``; ranks are recomputed per lane."""
        scale = rows.shape[1] + 1.0
        return cls(
            stats.rankdata(sample.u[rows], method="average", axis=1) / scale,
            stats.rankdata(sample.v[rows], method="average", axis=1) / scale,
        )


def _kendall_tau(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of every lane, as ``scipy.stats.kendalltau`` computes it.

    Knight's method on all lanes at once: sort each lane by (u, v), count tied
    pairs, and count discordant pairs as the inversions of v in that order.
    The counts are exact integers and tau follows scipy's formula from them;
    NaN where a margin is constant.
    """
    n = u.shape[1]
    x = stats.rankdata(u, method="dense", axis=1).astype(np.int64)
    y = stats.rankdata(v, method="dense", axis=1).astype(np.int64)
    order = np.lexsort((y, x), axis=-1)
    x = np.take_along_axis(x, order, axis=1)
    y = np.take_along_axis(y, order, axis=1)
    total = n * (n - 1) // 2
    u_ties = _tied_pairs(x)
    v_ties = _tied_pairs(np.sort(y, axis=1))
    concordance = total - u_ties - v_ties + _tied_pairs(x * (n + 1) + y) - 2 * _inversions(y)
    constant = (u_ties == total) | (v_ties == total)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = concordance / np.sqrt(total - u_ties) / np.sqrt(total - v_ties)
    return np.where(constant, np.nan, np.clip(tau, -1.0, 1.0))


def _tied_pairs(s: np.ndarray) -> np.ndarray:
    """Pairs of equal entries in each row of the row-sorted integer array ``s``."""
    index = np.arange(s.shape[1])
    first = np.where(np.diff(s, axis=1, prepend=s[:, :1] - 1) != 0, index, 0)
    return np.sum(index - np.maximum.accumulate(first, axis=1), axis=1)


def _inversions(y: np.ndarray) -> np.ndarray:
    """Pairs i < j with ``y[i] > y[j]`` in each row, by one merge sort over all rows.

    Rows are padded to a power of two with a value above every entry, which
    adds no inversion.  At each level the left half of a run pair is sorted,
    so one ``searchsorted`` over all pairs (kept apart by an offset) counts
    the left entries above each right entry.
    """
    lanes, n = y.shape
    size = 1 << (n - 1).bit_length()
    top = int(y.max()) + 1
    runs = np.full((lanes, size), top, dtype=np.int64)
    runs[:, :n] = y
    count = np.zeros(lanes, dtype=np.int64)
    width = 1
    while width < size:
        pairs = runs.reshape(-1, 2, width)
        offset = np.arange(pairs.shape[0])[:, None] * (top + 1)
        below = np.searchsorted(
            (pairs[:, 0] + offset).ravel(), (pairs[:, 1] + offset).ravel(), side="right"
        )
        above = np.repeat(np.arange(1, pairs.shape[0] + 1) * width, width) - below
        count += above.reshape(lanes, -1).sum(axis=1)
        runs = np.sort(pairs.reshape(-1, 2 * width), axis=1)
        width *= 2
    return count


@dataclass(frozen=True)
class BatchFit:
    """One family's maximum-likelihood fit on every lane of a ``PseudoBatch``.

    Arrays are indexed by lane.  ``converged`` is false where a search ran out
    of evaluations or the likelihood was not finite at the optimum;
    ``search_failures`` keeps each lane's optimizer messages in interval order.
    """

    theta: np.ndarray
    log_likelihood: np.ndarray
    lambda_lower: np.ndarray
    converged: np.ndarray
    boundary: np.ndarray
    at_upper: np.ndarray
    search_failures: tuple[tuple[str, ...], ...]


def fit_batch(batch: PseudoBatch, family: CopulaFamily | str) -> BatchFit:
    """Maximum-likelihood fit of one family on every lane, in one bounded search.

    The profile is one-dimensional, so a bounded Brent search to ``XATOL`` is
    both simpler and more robust than a Newton iteration from a moment start.
    Frank admits negative dependence; each lane's Kendall tau picks the
    half-interval it searches (both halves when it is near zero, keeping the
    better one, the positive half on a tie).  Inputs are checked once for the
    batch and every lane's final theta is validated.
    """
    family = CopulaFamily(family)
    if batch.n < 20:
        raise DataError(f"need at least 20 paired observations, got {batch.n}")
    u, v = _check_unit_interval(batch.u, batch.v)
    count = len(batch)

    lo, hi = THETA_BOUNDS[family]
    if family is CopulaFamily.FRANK:
        tau_hat = _kendall_tau(u, v)
        ambiguous = ~np.isfinite(tau_hat) | (np.abs(tau_hat) < _FRANK_AMBIGUOUS_TAU)
        positive = np.flatnonzero(ambiguous | (tau_hat > 0))
        negative = np.flatnonzero(ambiguous | (tau_hat < 0))
        intervals = [((_FRANK_EDGE, hi), positive), ((lo, -_FRANK_EDGE), negative)]
    else:
        intervals = [((lo, hi), np.arange(count))]
    for (a, b), _ in intervals:
        _validate_theta(family, a)
        _validate_theta(family, b)

    # One search over every (lane, interval) pair.
    owner = np.concatenate([lanes for _, lanes in intervals])
    lower = np.concatenate([np.full(lanes.size, a) for (a, _), lanes in intervals])
    upper = np.concatenate([np.full(lanes.size, b) for (_, b), lanes in intervals])

    def nll(theta: np.ndarray, *margins: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = -np.sum(_log_density(family, theta[:, None], *margins), axis=1)
        return np.where(np.isfinite(total), total, 1e300)

    margins = tuple(m[owner] for m in _margins(family, u, v))
    x, f, status = _minimize_bounded(
        nll, lower, upper, margins, xatol=XATOL, maxiter=MAXITER
    )

    # Each lane keeps its first interval's optimum unless a later one is lower.
    theta = np.empty(count)
    fun = np.full(count, np.inf)
    seen = np.zeros(count, dtype=bool)
    offset = 0
    for _, lanes in intervals:
        xs, fs = x[offset: offset + lanes.size], f[offset: offset + lanes.size]
        take = ~seen[lanes] | (fs < fun[lanes])
        theta[lanes[take]], fun[lanes[take]] = xs[take], fs[take]
        seen[lanes] = True
        offset += lanes.size
    failures: list[tuple[str, ...]] = [()] * count
    for k in np.flatnonzero(status):
        failures[owner[k]] += (_SEARCH_MESSAGES[int(status[k])],)

    ll = -fun
    edge_tol = _BOUNDARY_REL * (hi - lo)
    at_upper = theta >= hi - edge_tol
    # lower_tail_dependence validates every lane's final theta.
    analytic = np.array([lower_tail_dependence(family, t) for t in theta])
    return BatchFit(
        theta=theta,
        log_likelihood=ll,
        lambda_lower=np.where(at_upper, 1.0, analytic),
        converged=(
            np.isfinite(ll) & (ll > -1e299) & np.array([not msgs for msgs in failures])
        ),
        boundary=at_upper | (theta <= lo + edge_tol),
        at_upper=at_upper,
        search_failures=tuple(failures),
    )


def fit_copula(
    sample: PseudoSample,
    family: CopulaFamily | str,
    *,
    tau: float | None = None,
) -> CopulaFit:
    """Maximum-likelihood fit of one family over its admissible parameter range.

    A batch of one through ``fit_batch``.  A parameter landing within a
    relative 1e-4 of an interval edge is flagged as a boundary fit (an
    upper-bound fit reports its limit lambda_L = 1), and an optimizer failure
    comes back as ``converged=False`` rather than an exception so family
    selection can still see the fit.

    ``tau`` optionally records the finite-threshold empirical tail estimate
    alongside the analytic one.
    """
    family = CopulaFamily(family)
    fit = fit_batch(PseudoBatch.of(sample), family)
    theta = float(fit.theta[0])
    ll = float(fit.log_likelihood[0])
    diagnostics = [
        f"{family.value}: optimizer reported {message!r}"
        for message in fit.search_failures[0]
    ]
    if not math.isfinite(ll) or ll <= -1e299:
        diagnostics.append(f"{family.value}: likelihood not finite at optimum")
        ll = float("-inf") if not math.isfinite(ll) else ll
    at_upper = bool(fit.at_upper[0])
    boundary = bool(fit.boundary[0])
    if family is CopulaFamily.FRANK and abs(theta) <= 1e-3:
        diagnostics.append("frank: theta near 0 (independence limit)")
    if boundary:
        diagnostics.append(
            f"{family.value}: theta={theta:.6g} at parameter-space boundary"
            + ("; lambda_L=1 from the comonotone limit" if at_upper else "")
        )

    empirical = (
        empirical_tail_dependence(sample, tau) if tau is not None else None
    )
    return CopulaFit(
        family=family,
        theta=theta,
        log_likelihood=ll,
        aic=2.0 - 2.0 * ll,
        bic=math.log(sample.n) - 2.0 * ll,
        lambda_lower=float(fit.lambda_lower[0]),
        n=sample.n,
        converged=bool(fit.converged[0]),
        boundary=boundary,
        empirical_lambda_at_tau=empirical,
        diagnostics=tuple(diagnostics),
    )


def fit_families(
    sample: PseudoSample,
    *,
    families: Sequence[CopulaFamily | str] = FAMILIES,
    tau: float | None = None,
) -> tuple[CopulaFit, ...]:
    """Fit every candidate family on the same sample."""
    return tuple(fit_copula(sample, f, tau=tau) for f in families)


def select_family(
    fits: Sequence[CopulaFit], criterion: str = "aic"
) -> CopulaFit:
    """Pick the converged fit with the smallest information criterion.

    Exact ties break deterministically by family order clayton < gumbel <
    frank, independent of input ordering.
    """
    if criterion not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    order = {f: i for i, f in enumerate(FAMILIES)}
    usable = [f for f in fits if f.converged]
    if not usable:
        raise FitError("no converged copula fit to select from")
    return min(usable, key=lambda f: (getattr(f, criterion), order[f.family]))


def empirical_tail_dependence(sample: PseudoSample, tau: float) -> float:
    """Conditional joint-tail frequency count{u<=tau, v<=tau} / count{u<=tau}."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    in_u = sample.u <= tau
    denom = int(np.count_nonzero(in_u))
    if denom == 0:
        raise DegenerateSampleError(
            f"no observations with u <= {tau}; conditioning set empty"
        )
    joint = int(np.count_nonzero(in_u & (sample.v <= tau)))
    return joint / denom


@dataclass(frozen=True)
class ReplicateValues:
    """A batch statistic: one value per lane, and which lanes cannot be used.

    ``skipped[i]`` says why lane ``i`` is degenerate, or is None.  A lane that
    is not ``converged`` is left out of the interval; a ``boundary`` lane
    stays in.  Both default to "every lane".
    """

    values: np.ndarray
    skipped: tuple[str | None, ...]
    converged: np.ndarray | None = None
    boundary: np.ndarray | None = None

    def __post_init__(self) -> None:
        count = len(self.values)
        if self.converged is None:
            object.__setattr__(self, "converged", np.ones(count, dtype=bool))
        if self.boundary is None:
            object.__setattr__(self, "boundary", np.zeros(count, dtype=bool))
        if not len(self.skipped) == len(self.converged) == len(self.boundary) == count:
            raise ValueError("replicate values, skips and flags must have one entry per lane")


BatchStatistic = Callable[[PseudoBatch], ReplicateValues]


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile interval of a bootstrap statistic and what it left out or flagged.

    ``skipped`` counts degenerate replicates and ``nonconverged`` replicates
    whose fit did not converge; neither enters the interval.  ``boundary``
    counts the replicates in the interval whose fit sits at a parameter bound.
    """

    interval: tuple[float, float]
    skipped: int
    replications: int
    boundary: int
    nonconverged: int


def block_bootstrap_ci(
    sample: PseudoSample,
    statistic: BatchStatistic,
    *,
    replications: int = 1000,
    level: float = 0.95,
    block_length: int | None = None,
    seed: int,
) -> BootstrapCI:
    """Percentile CI of a tail statistic under a paired moving-block bootstrap.

    Blocks are drawn over the paired (u, v) sequence so temporal dependence
    within each margin and the cross-dependence survive together; ranks are
    recomputed inside every replicate, keeping the statistic rank-based.
    Each replicate draws its rows from its own seed derived from ``seed``
    (``resample.block_resamples``), and the statistic sees about
    ``CHUNK_POINTS`` observations of replicates at a time, so a replicate's
    value depends on neither ``replications`` nor the chunking.  Degenerate
    and non-converged replicates are left out and counted; more than 5% of
    them together raises ``NumericalError``.
    """
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")

    rows = block_resamples(
        sample.n, replications=replications, block_length=block_length, seed=seed
    )
    per = max(1, CHUNK_POINTS // sample.n)
    parts = [
        statistic(PseudoBatch.from_rows(sample, rows[start: start + per]))
        for start in range(0, replications, per)
    ]
    values = np.concatenate([p.values for p in parts])
    degenerate = np.array([s is not None for p in parts for s in p.skipped], dtype=bool)
    converged = np.concatenate([p.converged for p in parts])
    boundary = np.concatenate([p.boundary for p in parts])
    nonconverged = ~degenerate & ~converged
    kept = ~degenerate & converged

    skipped = int(np.count_nonzero(degenerate))
    failed = int(np.count_nonzero(nonconverged))
    if skipped:
        logger.warning("bootstrap: %d/%d degenerate replicates skipped",
                       skipped, replications)
    if failed:
        logger.warning("bootstrap: %d/%d replicate fits did not converge",
                       failed, replications)
    if skipped + failed > 0.05 * replications:
        raise NumericalError(
            f"bootstrap unstable: {skipped + failed}/{replications} replicates "
            "degenerate or not converged"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(values[kept], [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        (float(lo), float(hi)), skipped, replications,
        boundary=int(np.count_nonzero(boundary & kept)), nonconverged=failed,
    )


def family_lambda_statistic(family: CopulaFamily | str) -> BatchStatistic:
    """Bootstrap statistic: refit the given family on every lane, return ``lambda_lower``.

    The refit applies ``fit_copula``'s boundary rule, so a replicate at the
    upper bound counts as 1, like the point estimate.
    """
    family = CopulaFamily(family)

    def stat(batch: PseudoBatch) -> ReplicateValues:
        fit = fit_batch(batch, family)
        return ReplicateValues(
            fit.lambda_lower, (None,) * len(batch), fit.converged, fit.boundary
        )

    return stat


def empirical_lambda_statistic(tau: float) -> BatchStatistic:
    """Bootstrap statistic: empirical conditional tail frequency at a fixed threshold."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    empty = f"no observations with u <= {tau}; conditioning set empty"

    def stat(batch: PseudoBatch) -> ReplicateValues:
        in_u = batch.u <= tau
        denom = np.count_nonzero(in_u, axis=1)
        joint = np.count_nonzero(in_u & (batch.v <= tau), axis=1)
        values = np.divide(joint, denom, out=np.full(len(batch), np.nan), where=denom > 0)
        return ReplicateValues(values, tuple(None if d else empty for d in denom))

    return stat


def attach_ci(fit: CopulaFit, ci: tuple[float, float]) -> CopulaFit:
    lo, hi = float(ci[0]), float(ci[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"confidence interval must be a finite ordered pair, got ({lo}, {hi})")
    return replace(fit, lambda_lower_ci=(lo, hi))


# --- simulation (conditional-inverse samplers for tests and fixtures) ---------


def simulate_copula(
    family: CopulaFamily | str,
    theta: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs from a copula via the conditional-inverse method.

    Gumbel's conditional CDF has no closed-form inverse; it is inverted by a
    fixed-depth vectorized bisection, accurate to ~1e-12 in v.
    """
    family = CopulaFamily(family)
    _validate_theta(family, theta)
    if n < 1:
        raise ValueError("n must be positive")
    u = rng.random(n)
    w = rng.random(n)

    if family is CopulaFamily.CLAYTON:
        v = (u ** (-theta) * (w ** (-theta / (1.0 + theta)) - 1.0) + 1.0) ** (
            -1.0 / theta
        )
        return u, v

    if family is CopulaFamily.FRANK:
        if abs(theta) < 1e-10:
            return u, w
        g1 = math.expm1(-theta)
        gu = np.expm1(-theta * u)
        gv = w * g1 / (np.exp(-theta * u) - w * gu)
        return u, -np.log1p(gv) / theta

    # Gumbel: bisection on the conditional CDF, increasing in v
    x = -np.log(u)

    def conditional(v: np.ndarray) -> np.ndarray:
        y = -np.log(v)
        log_s = np.logaddexp(theta * np.log(x), theta * np.log(y))
        big_a = np.exp(log_s / theta)
        return np.exp(-big_a) * big_a ** (1.0 - theta) * x ** (theta - 1.0) / u

    lo = np.full(n, 1e-12)
    hi = np.full(n, 1.0 - 1e-12)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        take_hi = conditional(mid) < w
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return u, 0.5 * (lo + hi)
