"""Data-driven tail quantile selection.

Each country's post-collapse return sample fixes the smallest left-tail level
that still holds a minimum number of observations; the cross-country maximum
becomes the unified lower quantile, mirrored around the median to form the
(low, median, high) triplet used everywhere downstream.  A conditional
variance check verifies the selected tail is genuinely more volatile than the
full sample.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateSampleError
from .quantiles import empirical_quantile, order_statistic_rank

logger = logging.getLogger(__name__)

MIN_TAIL_COUNT = 6
VARIANCE_RATIO_THRESHOLD = 2.0


@dataclass(frozen=True)
class TailQuantileTriplet:
    """The unified quantile levels plus per-country selection metadata.

    ``warnings`` carries variance-check failures and other non-fatal notes;
    a failed check never aborts the run because the sensitivity sweep must be
    able to proceed regardless.
    """

    tau_low: float
    tau_mid: float
    tau_high: float
    per_country_taus: Mapping[str, float]
    variance_ratio: Mapping[str, float]
    variance_pass: Mapping[str, bool]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_low < 0.5:
            raise ValueError(f"tau_low must lie in (0, 0.5), got {self.tau_low}")
        if self.tau_mid != 0.5:
            raise ValueError("tau_mid must be 0.5")
        if self.tau_high != 1.0 - self.tau_low:
            raise ValueError("tau_high must mirror tau_low exactly")
        if not self.per_country_taus:
            raise ValueError("per-country taus must be non-empty")


def min_feasible_tail_quantile(returns: Sequence[float] | np.ndarray) -> float:
    """Smallest tau whose empirical tail holds at least ``MIN_TAIL_COUNT`` points.

    With the order-statistic quantile convention that is exactly
    ``MIN_TAIL_COUNT / T``.
    """
    n = len(returns)
    if n < MIN_TAIL_COUNT:
        raise DataError(f"sample of {n} cannot hold a {MIN_TAIL_COUNT}-point tail")
    return MIN_TAIL_COUNT / n


def unify_tail_quantile(per_country: Mapping[str, float]) -> float:
    """Cross-country unification: the largest per-country tail level."""
    if not per_country:
        raise DataError("no per-country tail levels to unify")
    return max(per_country.values())


def tail_variance_check(
    returns: Sequence[float] | np.ndarray, tau: float
) -> tuple[bool, float]:
    """Compare tail-conditional variance against the full-sample variance.

    Returns ``(passes, ratio)`` where ``ratio`` is Var(R | R <= q_tau) over
    Var(R), both unbiased, and the check passes when the tail is at least
    twice as variable.  Degenerate inputs (tail of one point, zero overall
    variance) raise rather than masquerading as a pass or fail.
    """
    arr = np.asarray(returns, dtype=float)
    if arr.ndim != 1:
        raise ValueError("returns must be one-dimensional")
    threshold = empirical_quantile(arr, tau)
    tail = arr[arr <= threshold]
    if tail.size < 2:
        raise DegenerateSampleError(
            f"tail at tau={tau} holds {tail.size} observation(s); variance undefined"
        )
    total_var = float(np.var(arr, ddof=1))
    if total_var == 0.0:
        raise DegenerateSampleError("zero unconditional variance; ratio undefined")
    ratio = float(np.var(tail, ddof=1)) / total_var
    return ratio >= VARIANCE_RATIO_THRESHOLD, ratio


def build_triplet(
    per_country_returns: Mapping[str, Sequence[float] | np.ndarray],
    *,
    tau_override: float | None = None,
) -> TailQuantileTriplet:
    """Select the unified quantile triplet over post-collapse return samples.

    ``tau_override`` replaces the data-driven unified level (the sensitivity
    hook) but must still leave every country with at least ``MIN_TAIL_COUNT``
    tail observations.  Variance-check failures and degeneracies are recorded
    as warnings on the triplet.
    """
    if not per_country_returns:
        raise DataError("no countries supplied")
    per_taus: dict[str, float] = {}
    for country, returns in per_country_returns.items():
        try:
            per_taus[country] = min_feasible_tail_quantile(returns)
        except DataError as exc:
            raise DataError(f"{country}: {exc}") from exc

    if tau_override is None:
        tau_low = unify_tail_quantile(per_taus)
    else:
        if not 0.0 < tau_override < 0.5:
            raise DataError(
                f"tau override must lie in (0, 0.5), got {tau_override}"
            )
        tau_low = float(tau_override)
        for country, returns in per_country_returns.items():
            n = len(returns)
            if order_statistic_rank(tau_low, n) < MIN_TAIL_COUNT:
                raise DataError(
                    f"{country}: tau={tau_low} leaves fewer than "
                    f"{MIN_TAIL_COUNT} tail observations (T={n})"
                )

    if not tau_low < 0.5:
        raise DegenerateSampleError(
            f"unified tail level {tau_low} is not a lower tail; shortest sample "
            "too small for a meaningful triplet"
        )

    warnings: list[str] = []
    ratios: dict[str, float] = {}
    passes: dict[str, bool] = {}
    for country, returns in per_country_returns.items():
        try:
            ok, ratio = tail_variance_check(returns, tau_low)
        except DegenerateSampleError as exc:
            warnings.append(f"{country}: variance check degenerate: {exc}")
            ratios[country] = float("nan")
            passes[country] = False
            continue
        ratios[country] = ratio
        passes[country] = ok
        if not ok:
            warnings.append(
                f"{country}: tail variance ratio {ratio:.3f} below "
                f"{VARIANCE_RATIO_THRESHOLD} at tau={tau_low:.4g}"
            )
    for w in warnings:
        logger.warning("%s", w)

    return TailQuantileTriplet(
        tau_low=tau_low,
        tau_mid=0.5,
        tau_high=1.0 - tau_low,
        per_country_taus=per_taus,
        variance_ratio=ratios,
        variance_pass=passes,
        warnings=tuple(warnings),
    )
