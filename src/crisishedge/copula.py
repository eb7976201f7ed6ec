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

Batched search.  Every fit is one lane of a port of scipy's bounded Brent
minimizer (``_minimize_scalar_bounded``: same operation order, xatol 1e-10,
at most 500 evaluations, a success flag per lane) run over a row-wise
log-density, so each lane's theta is the one a scalar search would find on
that lane's sample alone, whatever else shares the search.  A lane carries
its family's bounds and log-density: ``fit_families`` fits every (family,
sample) pair in one search, ``fit_batch`` one family on every lane of a
batch, and ``fit_copula`` is a batch of one.  Every family is searched over
its one ``THETA_BOUNDS`` interval, Frank's spanning both signs of theta.
The log-densities are written so that no terms cancel anywhere on those
intervals (Frank's denominator as two terms of the sign of theta, see
``_log_density``), so the search sees the true likelihood up to both bounds.
They are computed in place, in the order of their plain expressions, into
scratch arrays allocated once per search, or once per bootstrap.

Replicate policy.  The bootstrap takes several samples of one family, each
with its own seed.  Their replicate rows are drawn once as one stack, leg
after leg (``resample.stacked_resamples``), and fitted in the
``resample.chunks`` of about ``CHUNK_POINTS`` observations, one ``fit_batch``
per chunk; a chunk may span two legs.  Every sample's ranks, a point
sample's and a replicate's alike, are counted from dense codes
(``_counted_ranks``); a replicate gathers its sample's codes from one table
of every leg's codes, so no replicate is sorted.  A replicate whose search
did not converge is left out of its leg's percentile interval and counted;
such replicates may not exceed 5% of a leg's replications.  A replicate
fitted at a parameter bound stays in at its limit value (the boundary rule
above) and is counted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import BootstrapUnstableError, DataError, DegenerateSampleError, FitError
from .resample import chunks, stacked_resamples

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

XATOL = 1e-10  # absolute theta tolerance of the bounded search
MAXITER = 500  # log-likelihood evaluations per lane before a search gives up
CHUNK_POINTS = 32_768  # replicate observations ranked and fitted together; bounds memory
CI_LEVEL = 0.95  # coverage of the bootstrap percentile interval
_SEARCH_MESSAGES = {1: "Maximum number of function calls reached.",
                    2: "NaN result encountered."}


def _dense_codes(x: np.ndarray) -> np.ndarray:
    """0-based dense ranks of a 1-D sample: equal values share one code."""
    return np.unique(x, return_inverse=True)[1]


def _counted_ranks(codes: np.ndarray) -> np.ndarray:
    """Average ranks from 1 of each row of (lanes, n) dense codes in [0, n).

    One ``bincount`` over lane-offset codes sizes every (lane, code) tie
    group.  A group's running total is its last rank, so its mean rank is
    that total less (count - 1) / 2.  Every term is an integer or a
    half-integer, so the ranks equal ``scipy.stats.rankdata(method="average")``
    of any values the codes order, bit for bit.  The arithmetic is in place,
    and the offset codes are dropped once counted.
    """
    lanes, n = codes.shape
    counts = np.bincount(
        (codes + n * np.arange(lanes)[:, None]).ravel(), minlength=lanes * n
    ).reshape(lanes, n)
    mean = np.cumsum(counts, axis=1, dtype=float)
    counts -= 1
    mean -= counts / 2
    return np.take_along_axis(mean, codes, axis=1)


def pseudo_observations(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rank-transform a sample to (0,1): average rank over n + 1.

    Invariant under strictly monotone transforms of the input; ties share
    their average rank.  The ranks are counted from the sample's dense codes
    by ``_counted_ranks``, the rule every bootstrap replicate uses, and equal
    ``scipy.stats.rankdata(x, method="average")`` bit for bit.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DataError("pseudo-observations need a 1-D sample of length >= 2")
    if not np.all(np.isfinite(arr)):
        raise DataError("pseudo-observations need finite input")
    return _counted_ranks(_dense_codes(arr)[None])[0] / (arr.size + 1.0)


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
    value 1 for a fit at the upper bound (see the module docstring).  The
    bootstrap CI is attached by the caller after fitting
    (``dataclasses.replace``).
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


def _validate_theta(family: CopulaFamily, theta: float | np.ndarray) -> None:
    """Raise ``ValueError`` unless ``theta``, a value or an array, is admissible."""
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be finite, got {theta}")
    if family is CopulaFamily.CLAYTON and np.any(theta <= 0.0):
        raise ValueError("Clayton needs theta > 0")
    if family is CopulaFamily.GUMBEL and np.any(theta < 1.0):
        raise ValueError("Gumbel needs theta >= 1")
    if family is CopulaFamily.FRANK and np.any(theta == 0.0):
        raise ValueError("Frank needs theta != 0")


def _margins(family: CopulaFamily, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The theta-free transforms of (u, v) that ``_log_density`` starts from.

    Intermediates are overwritten once spent, so that few arrays of the
    batch's size exist at once.
    """
    if family is CopulaFamily.CLAYTON:
        lu, lv = np.log(u), np.log(v)
        return lu + lv, np.maximum(lu, lv), np.minimum(lu, lv, out=lu)
    if family is CopulaFamily.GUMBEL:
        x, y = np.log(u), np.log(v)
        np.negative(x, out=x)
        np.negative(y, out=y)
        xy = x + y
        ratio = np.minimum(x, y)
        np.divide(ratio, np.maximum(x, y), out=ratio)
        lxy = np.add(np.log(x, out=x), np.log(y, out=y), out=x)
        share = np.add(1.0, ratio)
        np.divide(ratio, share, out=share)
        return xy, np.log(xy), lxy, np.log(ratio, out=y), share, np.log1p(ratio)
    return u, v, 1.0 - v


def _log_density(
    family: CopulaFamily,
    theta: float | np.ndarray,
    *margins: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise log copula density from ``_margins``, without checks.

    Accurate to rounding over all of ``THETA_BOUNDS``: no power u^(-theta) is
    formed, so nothing overflows even at theta = 50 with n in the hundreds of
    thousands.  ``theta`` broadcasts: with (L, n) margins and an (L, 1) theta
    column this is the log-density of L lanes at once, each element computed
    in the same order as with a scalar theta, so every lane equals its own
    scalar evaluation bit for bit.  Every step writes into ``work``, four
    scratch arrays of the result's shape (allocated when None), and the
    result is one of them.
    """
    if work is None:
        work = np.empty((4,) + np.broadcast(theta, margins[0]).shape)
    one, two, three, four = work
    if family is CopulaFamily.CLAYTON:
        # log c = log(1 + th) + th log(uv) - (2 + 1/th) log(1 - P), where
        # P = (1 - u^th)(1 - v^th) and u^th >= v^th names the larger power.
        # Up to th = 1, log1p(-P) is exact to rounding: 1 - P >= u^th, which
        # is at least 1/(n + 1).  Beyond, 1 - P = u^th (1 + (v/u)^th (1 - u^th))
        # adds two positive terms, and ``shift`` is log u^th.  Either way no
        # terms cancel, as theta -> 0 included.
        luv, high, low = margins
        above = theta > 1.0
        shift = np.multiply(np.where(above, theta, 0.0), high, out=one)
        ratio = np.subtract(np.multiply(theta, low, out=two), shift, out=two)
        np.add(np.expm1(ratio, out=ratio), above, out=ratio)
        log_1mp = np.negative(np.expm1(np.multiply(theta, high, out=three), out=three), out=three)
        np.log1p(np.multiply(log_1mp, ratio, out=log_1mp), out=log_1mp)
        np.add(shift, log_1mp, out=log_1mp)
        head = np.add(np.log1p(theta), np.multiply(theta, luv, out=two), out=two)
        return np.subtract(head, np.multiply(2.0 + 1.0 / theta, log_1mp, out=log_1mp), out=head)

    if family is CopulaFamily.GUMBEL:
        # With x = -log u, y = -log v, A = (x^th + y^th)^(1/th) and d = th - 1:
        # log c = (x + y - A) + d log(xy) - 2d log A + log1p(d / A).
        # log A - log(x + y), computed from r = min/max(x, y) in two
        # same-signed O(d) terms, keeps every term O(d) near independence.
        xy, log_xy, lxy, log_r, r_share, log1p_r = margins
        d = theta - 1.0
        log_a_rel = np.expm1(np.multiply(d, log_r, out=one), out=one)
        np.log1p(np.multiply(r_share, log_a_rel, out=log_a_rel), out=log_a_rel)
        np.subtract(log_a_rel, np.multiply(d, log1p_r, out=two), out=log_a_rel)
        np.divide(log_a_rel, theta, out=log_a_rel)
        growth = np.expm1(log_a_rel, out=three)
        big_a = np.add(xy, np.multiply(xy, growth, out=two), out=two)
        last = np.log1p(np.divide(d, big_a, out=big_a), out=big_a)
        log_c = np.negative(np.multiply(xy, growth, out=growth), out=growth)
        np.add(log_c, np.multiply(d, lxy, out=four), out=log_c)
        np.multiply(2.0 * d, np.add(log_xy, log_a_rel, out=log_a_rel), out=log_a_rel)
        np.subtract(log_c, log_a_rel, out=log_c)
        return np.add(log_c, last, out=log_c)

    # Frank: the density's denominator
    # e^{-th u} (1 - e^{-th v}) + e^{-th v} (1 - e^{-th (1 - v)})
    # is a sum of two terms of the sign of theta, so nothing cancels.  It is
    # taken over theta, which keeps its log of order theta as theta -> 0;
    # theta = 0 is the independence limit.  The per-lane scale uses math,
    # once per distinct theta, because numpy's expm1 rounds differently in
    # the last place.
    u, v, w = margins
    distinct, lane = np.unique(theta, return_inverse=True)
    scale = np.array(
        [math.log(-math.expm1(-t) / t) if t else 0.0 for t in distinct.tolist()]
    )[lane].reshape(np.shape(theta))
    neg = -theta
    a, b = np.multiply(neg, u, out=one), np.multiply(neg, v, out=two)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.multiply(np.exp(a, out=three), np.expm1(b, out=four), out=three)
        other = np.expm1(np.multiply(neg, w, out=four), out=four)
        log_c = np.add(np.add(scale, a, out=a), b, out=a)
        np.add(denom, np.multiply(np.exp(b, out=b), other, out=b), out=denom)
        np.log(np.divide(denom, neg, out=denom), out=denom)
        np.subtract(log_c, np.multiply(2.0, denom, out=denom), out=log_c)
    np.copyto(log_c, 0.0, where=theta == 0)
    return log_c


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
        to_middle = xm - xf
        going = np.abs(to_middle) > (tol2 - 0.5 * (b - a))
        if not going.all():
            stopped = ~going
            done = lanes[stopped]
            x_out[done], f_out[done], fu_out[done] = xf[stopped], fx[stopped], fu[stopped]
            lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, fu, xm, tol1, tol2, to_middle = (
                arr[going] for arr in (
                    lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, fu, xm, tol1, tol2,
                    to_middle,
                )
            )
            data = tuple(rows[going] for rows in data)
        if not lanes.size:
            break

        # A parabolic step where the step before last was long enough and the
        # parabola's minimum falls inside the bracket; golden section elsewhere.
        to_a, to_b = a - xf, b - xf
        from_nfc, from_fulc = xf - nfc, xf - fulc
        r = from_nfc * (fx - ffulc)
        q = from_fulc * (fx - fnfc)
        p = from_fulc * q - from_nfc * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        accept = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * to_a)
            & (p < q * to_b)
        )
        step = np.divide(p + 0.0, q, out=np.zeros_like(p), where=accept)
        x = xf + step
        toward_middle = tol1 * (np.sign(to_middle) + (to_middle == 0))
        near_edge = ((x - a) < tol2) | ((b - x) < tol2)
        golden = np.where(xf >= xm, to_a, to_b)
        rat, e = (
            np.where(accept, np.where(near_edge, toward_middle, step), golden_mean * golden),
            np.where(accept, rat, golden),
        )

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fun(x, *data)
        num += 1

        # Of x and xf, the one that does not become the best is the new
        # bracket end on its side.
        better = fu <= fx
        moved = np.where(better, xf, x)
        lower = better == (x >= xf)
        a = np.where(lower, moved, a)
        b = np.where(lower, b, moved)
        worse = ~better
        second = worse & ((fu <= fnfc) | (nfc == xf))
        third = worse & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
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
        # Extremes rather than elementwise masks: checking a bootstrap chunk
        # then allocates nothing, and NaN fails both comparisons.
        if not (self.u.min() > 0 and self.u.max() < 1 and self.v.min() > 0 and self.v.max() < 1):
            raise ValueError("copula arguments must lie strictly inside (0, 1)")

    def __len__(self) -> int:
        return int(self.u.shape[0])

    @property
    def n(self) -> int:
        return int(self.u.shape[1])

    @classmethod
    def of(cls, *samples: PseudoSample) -> "PseudoBatch":
        """One lane per sample, in order; the samples must share one length."""
        return cls(np.stack([s.u for s in samples]), np.stack([s.v for s in samples]))

    @classmethod
    def from_codes(cls, u_codes: np.ndarray, v_codes: np.ndarray) -> "PseudoBatch":
        """Lane ``i`` ranks row ``i`` of each margin's dense codes (``_counted_ranks``)."""
        scale = u_codes.shape[1] + 1.0
        u, v = _counted_ranks(u_codes), _counted_ranks(v_codes)
        u /= scale
        v /= scale
        return cls(u, v)


@dataclass(frozen=True)
class BatchFit:
    """One family's maximum-likelihood fit on every lane of a ``PseudoBatch``.

    Arrays are indexed by lane.  ``converged`` is false where a search ran out
    of evaluations or the likelihood was not finite at the optimum;
    ``status`` is the search's own outcome: 0 converged, or a key of
    ``_SEARCH_MESSAGES``.
    """

    theta: np.ndarray
    log_likelihood: np.ndarray
    lambda_lower: np.ndarray
    converged: np.ndarray
    boundary: np.ndarray
    at_upper: np.ndarray
    status: np.ndarray


def fit_batch(
    batch: PseudoBatch, family: CopulaFamily | str, *, work: np.ndarray | None = None
) -> BatchFit:
    """Maximum-likelihood fit of one family on every lane, in one bounded search.

    The profile is one-dimensional, so a bounded Brent search to ``XATOL`` is
    both simpler and more robust than a Newton iteration from a moment start.
    Every lane searches the family's whole ``THETA_BOUNDS`` interval; for
    Frank that one interval spans negative and positive dependence, on a
    log-density whose denominator does not cancel for either sign.  The
    batch has checked its (u, v) on construction; every lane's final theta is
    validated.  ``work`` is ``_log_density``'s scratch for at least
    ``len(batch)`` lanes, so that a caller fitting batch after batch
    allocates it once.
    """
    return _fit_blocks(batch, (CopulaFamily(family),), work)[0]


def _fit_blocks(
    batch: PseudoBatch, families: Sequence[CopulaFamily], work: np.ndarray | None = None
) -> list[BatchFit]:
    """``fit_batch`` of ``families[k]`` on the k-th of equal blocks of lanes, in one search.

    Each lane keeps its family's bounds and log-density, so it follows the
    path of its own scalar search.  Every family's margins are taken on every
    lane, which gives the search one row per lane.
    """
    if batch.n < 20:
        raise DataError(f"need at least 20 paired observations, got {batch.n}")
    block = len(batch) // len(families)
    for family in families:
        _validate_theta(family, np.array(THETA_BOUNDS[family]))
    margins = [_margins(family, batch.u, batch.v) for family in families]
    offsets = np.cumsum([0] + [len(m) for m in margins]).tolist()
    work = np.empty((4, block, batch.n)) if work is None else work[:, :block]

    def nll(theta: np.ndarray, codes: np.ndarray, *rows: np.ndarray) -> np.ndarray:
        # ``codes`` names each lane's family; the lanes stay in family order.
        total = np.empty(theta.size)
        edges = np.searchsorted(codes, np.arange(len(families) + 1)).tolist()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k, family in enumerate(families):
                start, stop = edges[k], edges[k + 1]
                if start < stop:
                    log_c = _log_density(
                        family, theta[start:stop, None],
                        *(m[start:stop] for m in rows[offsets[k]: offsets[k + 1]]),
                        work=work[:, : stop - start],
                    )
                    np.sum(log_c, axis=1, out=total[start:stop])
        np.negative(total, out=total)
        return np.where(np.isfinite(total), total, 1e300)

    thetas, funs, statuses = _minimize_bounded(
        nll, *np.repeat([THETA_BOUNDS[f] for f in families], block, axis=0).T,
        (np.repeat(np.arange(len(families)), block), *sum(margins, ())),
        xatol=XATOL, maxiter=MAXITER,
    )
    fits = []
    for k, family in enumerate(families):
        part = slice(k * block, (k + 1) * block)
        theta, ll, status = thetas[part], -funs[part], statuses[part]
        lo, hi = THETA_BOUNDS[family]
        edge_tol = _BOUNDARY_REL * (hi - lo)
        at_upper = theta >= hi - edge_tol
        _validate_theta(family, theta)
        # Only Clayton has a lower tail, 2^(-1/theta); Gumbel's dependence sits in
        # the upper tail and Frank has none.  Python's ``**`` per lane, because
        # numpy's power rounds differently in the last place.
        analytic = (
            np.array([2.0 ** (-1.0 / t) for t in theta.tolist()])
            if family is CopulaFamily.CLAYTON else np.zeros(block)
        )
        fits.append(BatchFit(
            theta=theta,
            log_likelihood=ll,
            lambda_lower=np.where(at_upper, 1.0, analytic),
            converged=np.isfinite(ll) & (ll > -1e299) & (status == 0),
            boundary=at_upper | (theta <= lo + edge_tol),
            at_upper=at_upper,
            status=status,
        ))
    return fits


def _lane_fit(fit: BatchFit, lane: int, family: CopulaFamily, n: int) -> CopulaFit:
    """The ``CopulaFit`` of one lane of ``fit``, with its diagnostics."""
    theta = float(fit.theta[lane])
    ll = float(fit.log_likelihood[lane])
    message = _SEARCH_MESSAGES.get(int(fit.status[lane]))
    diagnostics = [] if message is None else [f"{family.value}: optimizer reported {message!r}"]
    if not math.isfinite(ll) or ll <= -1e299:
        diagnostics.append(f"{family.value}: likelihood not finite at optimum")
        ll = float("-inf") if not math.isfinite(ll) else ll
    at_upper = bool(fit.at_upper[lane])
    boundary = bool(fit.boundary[lane])
    if family is CopulaFamily.FRANK and abs(theta) <= 1e-3:
        diagnostics.append("frank: theta near 0 (independence limit)")
    if boundary:
        diagnostics.append(
            f"{family.value}: theta={theta:.6g} at parameter-space boundary"
            + ("; lambda_L=1 from the comonotone limit" if at_upper else "")
        )
    return CopulaFit(
        family=family,
        theta=theta,
        log_likelihood=ll,
        aic=2.0 - 2.0 * ll,
        bic=math.log(n) - 2.0 * ll,
        lambda_lower=float(fit.lambda_lower[lane]),
        n=n,
        converged=bool(fit.converged[lane]),
        boundary=boundary,
        diagnostics=tuple(diagnostics),
    )


def _common_length(samples: Sequence[PseudoSample]) -> int:
    """The one length of samples that share a batch; ``DataError`` if they differ."""
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise DataError("samples fitted together must share one length")
    return n


def fit_copula(
    sample: PseudoSample,
    family: CopulaFamily | str,
) -> CopulaFit:
    """Maximum-likelihood fit of one family over its admissible parameter range.

    A batch of one through ``fit_batch``.  A parameter landing within a
    relative 1e-4 of an interval edge is flagged as a boundary fit (an
    upper-bound fit reports its limit lambda_L = 1), and an optimizer failure
    comes back as ``converged=False`` rather than an exception so family
    selection can still see the fit.
    """
    family = CopulaFamily(family)
    return _lane_fit(fit_batch(PseudoBatch.of(sample), family), 0, family, sample.n)


def fit_families(samples: Sequence[PseudoSample]) -> tuple[tuple[CopulaFit, ...], ...]:
    """Fit every candidate family on every sample, in one search.

    The samples must share one length; each (family, sample) pair is one
    lane.  Returns each sample's fits in ``FAMILIES`` order; every fit
    equals ``fit_copula(sample, family)`` field for field.
    """
    n = _common_length(samples)
    fits = _fit_blocks(PseudoBatch.of(*list(samples) * len(FAMILIES)), FAMILIES)
    return tuple(
        tuple(_lane_fit(fit, lane, family, n) for family, fit in zip(FAMILIES, fits))
        for lane in range(len(samples))
    )


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
    denom = np.count_nonzero(in_u)
    if not denom:
        raise DegenerateSampleError(f"no observations with u <= {tau}; conditioning set empty")
    return float(np.count_nonzero(in_u & (sample.v <= tau)) / denom)


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile interval of a family's lambda_L and what it left out or flagged.

    ``nonconverged`` counts the replicates whose fit did not converge, which
    the interval leaves out; ``boundary`` counts the replicates in the
    interval whose fit sits at a parameter bound.
    """

    interval: tuple[float, float]
    replications: int
    boundary: int
    nonconverged: int


def block_bootstrap_ci(
    samples: Sequence[PseudoSample],
    family: CopulaFamily | str,
    *,
    seeds: Sequence[int],
    replications: int = 1000,
    block_length: int | None = None,
) -> tuple[BootstrapCI, ...]:
    """95% percentile CI of a family's lambda_L under a paired moving-block bootstrap.

    One leg per sample, all of one length: blocks are drawn over the paired
    (u, v) sequence so temporal dependence within each margin and the
    cross-dependence survive together; ranks are recomputed inside every
    replicate, keeping the statistic rank-based.  The legs' replicates, one
    draw from each leg's seed, form one ``resample.stacked_resamples`` stack,
    and ``fit_batch`` refits the family on one ``resample.chunks`` slice of
    about ``CHUNK_POINTS`` observations at a time, so a replicate's value
    depends on neither ``replications``, the chunking nor the other legs.
    The refit applies the boundary rule, so a replicate at the upper bound
    counts as 1, like the point estimate.
    Non-converged replicates are left out and counted; more than 5% of them
    in a leg raises ``BootstrapUnstableError`` naming that leg.  Returns one
    interval per sample.
    """
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if len(seeds) != len(samples):
        raise ValueError("need one seed per sample")
    n = _common_length(samples)
    # Every leg's dense codes side by side, (2, legs * n), which a stacked
    # row indexes with its leg's offset; int32 keeps a chunk's gathered codes
    # no larger than one margin's values.
    codes = np.hstack([[_dense_codes(s.u), _dense_codes(s.v)] for s in samples]).astype(np.int32)
    rows = stacked_resamples(n, seeds=seeds, replications=replications, block_length=block_length)
    parts = list(chunks(len(rows), n, CHUNK_POINTS))
    work = np.empty((4, parts[0].stop - parts[0].start, n))
    fits = [
        fit_batch(PseudoBatch.from_codes(*codes[:, rows[part]]), family, work=work)
        for part in parts
    ]

    def legs(name: str) -> np.ndarray:
        return np.concatenate([getattr(f, name) for f in fits]).reshape(len(samples), -1)

    values, converged, boundary = legs("lambda_lower"), legs("converged"), legs("boundary")
    alpha = 1.0 - CI_LEVEL
    intervals = []
    for leg in range(len(samples)):
        failed = int(np.count_nonzero(~converged[leg]))
        if failed:
            logger.warning("bootstrap: %d/%d replicate fits did not converge",
                           failed, replications)
        if failed > 0.05 * replications:
            raise BootstrapUnstableError(
                f"bootstrap unstable: {failed}/{replications} replicate fits did not converge",
                leg=leg,
            )
        lo, hi = np.quantile(values[leg][converged[leg]], [alpha / 2.0, 1.0 - alpha / 2.0])
        intervals.append(BootstrapCI(
            (float(lo), float(hi)), replications,
            boundary=int(np.count_nonzero(boundary[leg] & converged[leg])), nonconverged=failed,
        ))
    return tuple(intervals)


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
