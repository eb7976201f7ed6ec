"""Purchasing-power loss, net real returns, and variance-reduction hedge scores.

The loss side of the ledger is additive: local residents erode by inflation
alone, foreign residents by inflation plus currency depreciation.  Net real
return is nominal minus loss, and hedge effectiveness is the Ederington-style
variance reduction of the net position against the loss exposure, clamped at
zero.  Report assembly flattens one (country, residency) pair into the row
shape used by the CSV output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .copula import CopulaFit
from .errors import DataError, DegenerateSampleError
from .returns import ReturnSeries

if TYPE_CHECKING:
    from .config import CrisisEpisode

logger = logging.getLogger(__name__)


class Residency(str, Enum):
    LOCAL = "local"
    FOREIGN = "foreign"


def loss_series(returns: ReturnSeries, residency: Residency | str) -> np.ndarray:
    """The additive loss of each return month for one residency.

    Local residents lose the month's inflation, ``returns.pi`` itself;
    foreign residents lose it plus the FX change.  Both are read from the
    return series, so every return month has its loss.
    """
    if Residency(residency) is Residency.LOCAL:
        return returns.pi
    return returns.pi + returns.fx_ret


def net_real_return(
    nominal: Sequence[float] | np.ndarray,
    loss: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Additive net position: nominal return minus same-month loss."""
    nom = np.asarray(nominal, dtype=float)
    loss = np.asarray(loss, dtype=float)
    if nom.shape != loss.shape:
        raise DataError(
            f"length mismatch: {nom.shape[0]} returns vs {loss.shape[0]} losses"
        )
    return nom - loss


def hedge_effectiveness(
    net: Sequence[float] | np.ndarray,
    loss: Sequence[float] | np.ndarray,
) -> float:
    """Variance-reduction score max(0, 1 - Var(net)/Var(loss)), in [0, 1].

    Equals 1 exactly when the net position is constant; clamps to 0 whenever
    holding the asset is no less variable than the bare loss exposure.
    Variances are unbiased (n - 1).
    """
    net = np.asarray(net, dtype=float)
    loss = np.asarray(loss, dtype=float)
    if net.shape != loss.shape:
        raise DataError("net and loss must have equal length")
    if net.size < 2:
        raise DataError(f"need at least 2 observations, got {net.size}")
    var_loss = float(np.var(loss, ddof=1))
    if var_loss == 0.0:
        raise DegenerateSampleError(
            "loss variance is zero; hedge effectiveness undefined"
        )
    ratio = float(np.var(net, ddof=1)) / var_loss
    return max(0.0, 1.0 - ratio)


@dataclass(frozen=True)
class HedgeReport:
    """One report row: crisis outcome for a (country, residency) pair.

    Percentages are monthly means over the post-collapse window.  The tail
    dependence figure is the analytic coefficient of the selected copula fit;
    the empirical estimate at the lower tail level rides along for reference.
    """

    country: str
    residency: Residency
    crisis_date: str
    hedge_effectiveness_pct: float
    mean_erosion_pct: float
    mean_net_real_pct: float
    tail_dependence: float
    tail_dependence_ci: tuple[float, float]
    tail_dependence_empirical: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hedge_effectiveness_pct <= 100.0:
            raise ValueError("hedge effectiveness must lie in [0, 100] percent")
        lo, hi = self.tail_dependence_ci
        if not lo <= self.tail_dependence <= hi:
            raise ValueError(
                f"tail-dependence CI ({lo}, {hi}) does not bracket "
                f"the point estimate {self.tail_dependence}"
            )


def build_hedge_report(
    episode: "CrisisEpisode",
    returns: ReturnSeries,
    residency: Residency | str,
    taildep: CopulaFit,
    tail_dependence_empirical: float,
) -> HedgeReport:
    """Flatten one residency's post-collapse outcome into a report row.

    The losses are read from ``returns``, so they cover its months exactly.
    """
    if taildep.lambda_lower_ci is None:
        raise DataError("copula fit carries no confidence interval")
    residency = Residency(residency)
    loss = loss_series(returns, residency)
    net = net_real_return(returns.nominal, loss)
    he = hedge_effectiveness(net, loss)
    return HedgeReport(
        country=episode.country,
        residency=residency,
        crisis_date=episode.crisis_month,
        hedge_effectiveness_pct=100.0 * he,
        mean_erosion_pct=100.0 * float(np.mean(loss)),
        mean_net_real_pct=100.0 * float(np.mean(net)),
        tail_dependence=taildep.lambda_lower,
        tail_dependence_ci=taildep.lambda_lower_ci,
        tail_dependence_empirical=tail_dependence_empirical,
    )
