"""Nominal and real return construction for local and foreign residents.

Real returns are multiplicative (Fisher) deflations, never the additive
shortcut: a local resident deflates the nominal equity return by local
inflation, a foreign (reference-currency) resident additionally converts
through the FX rate, quoted as local currency per unit of reference currency.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import months as mo
from .dataio import MacroSeries, pct_change
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReturnSeries:
    """Aligned monthly nominal and real returns for both residencies.

    ``pi`` and ``fx_ret`` are each month's inflation and FX change (local
    currency per reference unit), the inputs the real returns deflate by; the
    purchasing-power losses are built from them on the same months.
    """

    months: tuple[str, ...]
    nominal: np.ndarray
    real_domestic: np.ndarray
    real_foreign: np.ndarray
    pi: np.ndarray
    fx_ret: np.ndarray
    month_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.months)
        for label in ("nominal", "real_domestic", "real_foreign", "pi", "fx_ret"):
            arr = np.asarray(getattr(self, label), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{label} must have one value per month")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{label} contains non-finite returns")
            if np.any(arr <= -1.0):
                raise ValueError(f"{label} contains returns at or below -100%")
            object.__setattr__(self, label, arr)
        index = mo.month_indexes(self.months)
        if np.any(np.diff(index) <= 0):
            raise ValueError("months must be strictly increasing")
        object.__setattr__(self, "month_index", index)

    def __len__(self) -> int:
        return len(self.months)

    def window(self, start: str | None = None, end: str | None = None) -> "ReturnSeries":
        """The months within ``[start, end]`` (inclusive, either side optional)."""
        lo = 0 if start is None else bisect.bisect_left(self.months, start)
        hi = len(self) if end is None else bisect.bisect_right(self.months, end)
        # A run of validated months is valid: its rows are not checked again.
        out = object.__new__(ReturnSeries)
        vars(out).update({label: value[lo:hi] for label, value in vars(self).items()})
        return out


def real_return_domestic(
    nominal: float | np.ndarray, inflation: float | np.ndarray
) -> float | np.ndarray:
    """Deflate a nominal return by same-period inflation, both fractions.

    Scalars or aligned arrays; arrays are deflated elementwise.
    """
    if not np.all(1.0 + inflation > 0.0):
        raise ValueError("inflation must exceed -1")
    return (1.0 + nominal) / (1.0 + inflation) - 1.0


def real_return_foreign(
    nominal: float | np.ndarray,
    fx_prev: float | np.ndarray,
    fx_t: float | np.ndarray,
    inflation: float | np.ndarray,
) -> float | np.ndarray:
    """Real return for a reference-currency resident, scalars or aligned arrays.

    The position converts through the FX rate (local per reference unit), so
    the gross nominal return is scaled by ``fx_prev / fx_t`` before deflating.
    The FX factor is formed first; with an unchanged rate it is exactly 1.0 and
    the result coincides bit for bit with the domestic real return.
    """
    if not (np.all(fx_prev > 0.0) and np.all(fx_t > 0.0)):
        raise ValueError("FX rates must be positive")
    if not np.all(1.0 + inflation > 0.0):
        raise ValueError("inflation must exceed -1")
    fx_factor = fx_prev / fx_t
    return (1.0 + nominal) * fx_factor / (1.0 + inflation) - 1.0


def build_return_series(
    equity: MacroSeries, fx: MacroSeries, inflation: MacroSeries
) -> ReturnSeries:
    """Align monthly equity and FX levels with inflation into return triples.

    Returns are formed on the months where both levels are observed.  The
    return for month ``t`` needs both levels at ``t-1`` too (the nominal leg
    is ``pct_change`` of the equity levels); a month after a gap is skipped
    with a warning, and a month without inflation is dropped with a warning.
    """
    for s in (equity, fx):
        if len(s) and not s.is_monthly:
            raise DataError(f"series {s.name!r} must be monthly")
    index, rows, _ = np.intersect1d(
        equity.month_index, fx.month_index, assume_unique=True, return_indices=True
    )
    if not index.size:
        raise DataError(
            f"no overlapping months between {equity.name!r} and {fx.name!r}"
        )
    months = [equity.stamps[k] for k in rows.tolist()]
    nominal = pct_change(equity).at(index)
    rate, rate_prev = fx.at(index), fx.at(index, lag=1)
    bad = np.flatnonzero(rate <= 0.0)
    if bad.size:
        raise DataError(f"FX rate must be positive at {months[bad[0]]}")
    if len(months) < 2:
        raise DataError("need at least 2 price observations to form returns")
    if len(inflation) and not inflation.is_monthly:
        raise DataError(f"inflation series {inflation.name!r} must be monthly")
    pi = inflation.at(index)

    gap = np.isnan(nominal) | np.isnan(rate_prev)
    for k in np.flatnonzero(gap[1:]) + 1:
        logger.warning(
            "gap before %s (previous observation %s); skipping return",
            months[k], months[k - 1],
        )
    for k in np.flatnonzero(~gap & np.isnan(pi)):
        logger.warning("no inflation for %s; dropping month", months[k])
    kept = ~gap & ~np.isnan(pi)
    bad = np.flatnonzero(kept & ~(1.0 + pi > 0.0))
    if bad.size:
        k = bad[0]
        raise DataError(f"inflation at {months[k]} must exceed -1, got {pi[k]}")
    if not kept.any():
        raise DataError("no months with complete price and inflation data")
    r, pi, rate, rate_prev = nominal[kept], pi[kept], rate[kept], rate_prev[kept]
    return ReturnSeries(
        months=tuple(compress(months, kept)),
        nominal=r,
        real_domestic=real_return_domestic(r, pi),
        real_foreign=real_return_foreign(r, rate_prev, rate, pi),
        pi=pi,
        fx_ret=rate / rate_prev - 1.0,
    )
