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
Bootstrap replicates refit through ``fit_copula`` and follow the same rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, stats

from .errors import DataError, DegenerateSampleError, FitError, NumericalError
from .resample import block_bootstrap

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

    if family is CopulaFamily.CLAYTON:
        a = -theta * np.log(u)
        b = -theta * np.log(v)
        m = np.maximum(a, b)
        # log(u^-th + v^-th - 1) without forming the powers directly
        log_s = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
        return (
            np.log1p(theta)
            - (1.0 + theta) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / theta) * log_s
        )

    if family is CopulaFamily.GUMBEL:
        x = -np.log(u)
        y = -np.log(v)
        lx = np.log(x)
        ly = np.log(y)
        log_s = np.logaddexp(theta * lx, theta * ly)
        big_a = np.exp(log_s / theta)
        return (
            -big_a
            + x
            + y
            + (theta - 1.0) * (lx + ly)
            + (1.0 / theta - 2.0) * log_s
            + np.log(big_a + theta - 1.0)
        )

    # Frank; expm1 keeps both signs of theta stable
    if abs(theta) < 1e-10:
        return np.zeros_like(u)
    g1 = math.expm1(-theta)
    gu = np.expm1(-theta * u)
    gv = np.expm1(-theta * v)
    denom = -(g1 + gu * gv)
    return np.log(-theta * g1) - theta * (u + v) - 2.0 * np.log(np.abs(denom))


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


def fit_copula(
    sample: PseudoSample,
    family: CopulaFamily | str,
    *,
    tau: float | None = None,
) -> CopulaFit:
    """Maximum-likelihood fit of one family over its admissible parameter range.

    The profile is one-dimensional, so a bounded Brent search to xatol 1e-10
    is both simpler and more robust than a Newton iteration from a moment
    start.  Frank admits negative dependence; the sample Kendall tau picks the
    half-interval to search (both halves when it is near zero).  A parameter
    landing within a relative 1e-4 of an interval edge is flagged as a
    boundary fit (an upper-bound fit reports its limit lambda_L = 1), and an
    optimizer failure comes back as ``converged=False`` rather than an
    exception so family selection can still see the fit.

    ``tau`` optionally records the finite-threshold empirical tail estimate
    alongside the analytic one.
    """
    family = CopulaFamily(family)
    if sample.n < 20:
        raise DataError(f"need at least 20 paired observations, got {sample.n}")

    u, v = sample.u, sample.v

    def nll(theta: float) -> float:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total = -float(np.sum(log_density(family, theta, u, v)))
        return total if math.isfinite(total) else 1e300

    lo, hi = THETA_BOUNDS[family]
    diagnostics: list[str] = []
    if family is CopulaFamily.FRANK:
        tau_hat = float(stats.kendalltau(u, v).statistic)
        if not math.isfinite(tau_hat) or abs(tau_hat) < _FRANK_AMBIGUOUS_TAU:
            intervals = [(1e-6, hi), (lo, -1e-6)]
        elif tau_hat > 0:
            intervals = [(1e-6, hi)]
        else:
            intervals = [(lo, -1e-6)]
    else:
        intervals = [(lo, hi)]

    best = None
    converged = True
    for a, b in intervals:
        res = optimize.minimize_scalar(
            nll, bounds=(a, b), method="bounded",
            options={"xatol": 1e-10, "maxiter": 500},
        )
        if not res.success:
            converged = False
            diagnostics.append(f"{family.value}: optimizer reported {res.message!r}")
        if best is None or res.fun < best.fun:
            best = res

    theta = float(best.x)
    ll = -float(best.fun)
    if not math.isfinite(ll) or ll <= -1e299:
        converged = False
        diagnostics.append(f"{family.value}: likelihood not finite at optimum")
        ll = float("-inf") if not math.isfinite(ll) else ll

    edge_tol = _BOUNDARY_REL * (hi - lo)
    at_upper = theta >= hi - edge_tol
    boundary = at_upper or theta <= lo + edge_tol
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
        lambda_lower=1.0 if at_upper else lower_tail_dependence(family, theta),
        n=sample.n,
        converged=converged,
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
class BootstrapCI:
    """Percentile interval of a bootstrap statistic and how many replicates it skipped."""

    interval: tuple[float, float]
    skipped: int
    replications: int


def block_bootstrap_ci(
    sample: PseudoSample,
    statistic: Callable[[PseudoSample], float],
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
    Replicates run through ``resample.block_bootstrap``, each from its own
    seed derived from ``seed``, so results are identical no matter how the
    loop is ordered or distributed.  Replicates whose statistic raises
    ``DegenerateSampleError`` are skipped and counted; more than 5% skipped
    raises ``NumericalError``.
    """
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")

    def replicate(rows: np.ndarray) -> float:
        return float(statistic(PseudoSample.from_data(sample.u[rows], sample.v[rows])))

    boot = block_bootstrap(
        replicate, sample.n, replications=replications,
        block_length=block_length, seed=seed,
    )
    failures = len(boot.skipped)
    if failures:
        logger.warning("bootstrap: %d/%d degenerate replicates skipped",
                       failures, replications)
    if failures > 0.05 * replications:
        raise NumericalError(
            f"bootstrap unstable: {failures}/{replications} replicates degenerate"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(np.array(boot.values), [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI((float(lo), float(hi)), failures, replications)


def family_lambda_statistic(
    family: CopulaFamily | str,
) -> Callable[[PseudoSample], float]:
    """Bootstrap statistic: refit the given family, return its ``lambda_lower``.

    The refit applies ``fit_copula``'s boundary rule, so a replicate at the
    upper bound counts as 1, like the point estimate.
    """
    family = CopulaFamily(family)

    def stat(replicate: PseudoSample) -> float:
        return fit_copula(replicate, family).lambda_lower

    return stat


def empirical_lambda_statistic(tau: float) -> Callable[[PseudoSample], float]:
    """Bootstrap statistic: empirical conditional tail frequency at a fixed threshold."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")

    def stat(replicate: PseudoSample) -> float:
        return empirical_tail_dependence(replicate, tau)

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
