"""Certificate-only references that the tests hold the shipped code to.

Nothing here is on a run's path.  Each oracle is one of these kinds:

* a slow, obviously correct reference: Shapley values and interaction
  indices by 2^M subset enumeration, importance shares one column at a time,
  the stability Kendall tau over rankings of names (``kendall_oracle``),
  average ranks by sorting (``_rank``, against the counted ranks a run uses);
* a one-value-at-a-time copy of a formula a run computes per lane:
  ``lower_tail_dependence``, the analytic lambda_L of one fitted theta,
  against ``copula.fit_batch``'s;
* a plain-expression copy of a kernel a run computes in place:
  ``log_density_expression``, the copula log-density with one new array per
  operation, against ``copula._log_density``'s buffered steps, bit for bit;
* a one-at-a-time input for a batched path: a row subset of a design as a
  design of its own;
* a row-at-a-time copy of a columnar path a run takes: ``load_series_rows``,
  CSV ingestion through ``csv.DictReader`` with one ``parse_stamp`` and one
  ``float`` per row, against ``dataio.load_series``; ``within``, the window
  predicate, against the ``bisect`` windows of ``MacroSeries`` and
  ``ReturnSeries``; ``to_monthly_rows`` and ``fuse_hybrid_rows``, month
  grouping and fusion through per-month dicts, against ``dataio.to_monthly``
  and ``dataio.fuse_hybrid`` on their month indexes; ``loss_series`` and
  ``loss_at``, losses built over every inflation month from a second
  ``pct_change`` of the FX levels and then picked out month by month, kept
  in a ``LossRecord`` of their own, against ``hedge.loss_series`` on a
  return series' own months;
* a copy that validates again what a run validates once: ``at_months``,
  the lagged lookup on month stamps parsed through ``month_indexes``,
  against ``MacroSeries.at`` on the month indexes a series holds;
  ``window_validated`` and ``pct_change_validated``, and the row-at-a-time
  ``to_monthly_rows`` and ``fuse_hybrid_rows``, derived series rebuilt
  through ``dataclasses.replace`` or the ``MacroSeries`` constructor so that
  every stamp and value is checked again, against the shipped functions,
  which build from the stamp and value columns of the series they start
  from without parsing a stamp again;
* a checked per-call entry point to a private kernel.  These call the
  shipped kernel itself and carry no formula of their own, so what they
  certify is the kernel a run uses: ``shapley_values`` and ``window_phi``
  run ``attribution._shapley_batch``, and ``log_density`` runs
  ``copula._log_density``.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from crisishedge.attribution import _pair_positions, _shapley_batch
from crisishedge.copula import (
    CopulaFamily,
    _log_density,
    _margins,
    _validate_theta,
)
from crisishedge.dataio import ConversionMethod, MacroSeries, SourceKind
from crisishedge.errors import DataError, DegenerateSampleError
from crisishedge.hedge import Residency
from crisishedge.months import index_to_month, is_month, month_indexes, parse_stamp
from crisishedge.qreg import DesignMatrix, QuantileModel, restandardized_values

logger = logging.getLogger(__name__)
_ENUMERATION_LIMIT = 12
_INTERACTION_ENUMERATION_LIMIT = 10


@dataclass(frozen=True)
class AttributionResult:
    """Per-instance attribution: phi0 + sum(phi) reproduces the prediction."""

    phi: Mapping[str, float]
    phi0: float
    phi_interactions: Mapping[tuple[str, str], float]
    instance_month: str = ""

    @property
    def prediction(self) -> float:
        return self.phi0 + float(sum(self.phi.values()))


def _gather(model: QuantileModel, mapping: Mapping[str, float], what: str) -> np.ndarray:
    out = np.empty(len(model.columns))
    for j, col in enumerate(model.columns):
        if col not in mapping:
            raise DataError(f"{what} is missing column {col!r}")
        out[j] = float(mapping[col])
    return out


def _pairs(model: QuantileModel) -> list[tuple[int, int]]:
    return _pair_positions(model.columns, model.interaction_pairs)


def _coalition_value(
    model: QuantileModel,
    x: np.ndarray,
    mu: np.ndarray,
    pairs: list[tuple[int, int]],
    mask: int,
) -> float:
    chosen = np.array(
        [x[j] if mask >> j & 1 else mu[j] for j in range(x.size)]
    )
    m = x.size
    value = model.intercept + float(np.dot(model.coef[1: 1 + m], chosen))
    for (i, j), gamma in zip(pairs, model.coef[1 + m:].tolist()):
        value += gamma * chosen[i] * chosen[j]
    return value


def window_phi(model: QuantileModel, linear: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The kernel's (M x n) Shapley values of one (n x M) block: a stack of one."""
    return _shapley_batch(model.coef[None], linear[None], mu[None], _pairs(model))[1][0]


def shapley_values(
    model: QuantileModel,
    background_means: Mapping[str, float],
    instance: Mapping[str, float],
    *,
    instance_month: str = "",
) -> AttributionResult:
    """Closed-form Shapley attribution of one instance: the kernel on one row."""
    x = _gather(model, instance, "instance")
    mu = _gather(model, background_means, "background means")
    pairs = _pairs(model)
    phi0, phi = _shapley_batch(model.coef[None], x[None, None, :], mu[None], pairs)
    c = (x - mu).tolist()
    return AttributionResult(
        phi=dict(zip(model.columns, phi[0, :, 0].tolist())),
        phi0=float(phi0[0]),
        phi_interactions={
            pair: g * c[i] * c[j] for (pair, g), (i, j) in zip(model.gammas.items(), pairs)
        },
        instance_month=instance_month,
    )


def shapley_brute_force(
    model: QuantileModel,
    background_means: Mapping[str, float],
    instance: Mapping[str, float],
    *,
    instance_month: str = "",
) -> AttributionResult:
    """Shapley values by 2^M subset enumeration."""
    m = len(model.columns)
    if m > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {_ENUMERATION_LIMIT} features")
    x = _gather(model, instance, "instance")
    mu = _gather(model, background_means, "background means")
    pairs = _pairs(model)

    values = np.array(
        [_coalition_value(model, x, mu, pairs, mask) for mask in range(1 << m)]
    )
    fact = [math.factorial(k) for k in range(m + 1)]
    phi = {}
    for j, col in enumerate(model.columns):
        total = 0.0
        for mask in range(1 << m):
            if mask >> j & 1:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[m - s - 1] / fact[m]
            total += weight * (values[mask | (1 << j)] - values[mask])
        phi[col] = total

    interactions = interaction_values_brute_force(model, background_means, instance)
    return AttributionResult(
        phi=phi, phi0=float(values[0]), phi_interactions=interactions,
        instance_month=instance_month,
    )


def interaction_values(
    model: QuantileModel,
    background_means: Mapping[str, float],
    instance: Mapping[str, float],
) -> dict[tuple[str, str], float]:
    """Closed-form pairwise Shapley interaction indices for declared pairs."""
    return dict(shapley_values(model, background_means, instance).phi_interactions)


def interaction_values_brute_force(
    model: QuantileModel,
    background_means: Mapping[str, float],
    instance: Mapping[str, float],
) -> dict[tuple[str, str], float]:
    """Pairwise interaction indices by subset enumeration."""
    m = len(model.columns)
    if m > _INTERACTION_ENUMERATION_LIMIT:
        raise ValueError(
            f"interaction enumeration limited to {_INTERACTION_ENUMERATION_LIMIT} features"
        )
    x = _gather(model, instance, "instance")
    mu = _gather(model, background_means, "background means")
    pairs = _pairs(model)
    values = np.array(
        [_coalition_value(model, x, mu, pairs, mask) for mask in range(1 << m)]
    )
    fact = [math.factorial(k) for k in range(m + 1)]
    out: dict[tuple[str, str], float] = {}
    for pair, (i, j) in zip(model.interaction_pairs, pairs):
        bit_i, bit_j = 1 << i, 1 << j
        total = 0.0
        for mask in range(1 << m):
            if mask & bit_i or mask & bit_j:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[m - s - 2] / fact[m - 1]
            delta = (
                values[mask | bit_i | bit_j]
                - values[mask | bit_i]
                - values[mask | bit_j]
                + values[mask]
            )
            total += weight * delta
        out[pair] = total
    return out


def summary_oracle(columns, phi):
    """(ranking, shares) of mean |phi| per column, one column at a time in Python.

    The reference for ``importance_summary`` and the stability bootstrap's
    batched ranking.  Totals are summed left to right in explicit loops, as
    the shares are defined (``sum`` compensates from Python 3.12 on).
    """
    means = {col: float(np.mean(np.abs(row))) for col, row in zip(columns, phi)}
    total = 0.0
    for value in means.values():
        total += value
    if total == 0.0:
        raise DegenerateSampleError("all attributions are zero; shares undefined")
    shares = {col: 100.0 * means[col] / total for col in columns}
    summed = 0.0
    for value in shares.values():
        summed += value
    drift = 100.0 - summed
    if drift != 0.0:
        # push float summation residue into the largest share
        top = max(shares, key=lambda c: (shares[c], c))
        shares[top] += drift
    ranking = tuple(sorted(columns, key=lambda c: (-shares[c], c)))
    return ranking, shares


def kendall_oracle(rankings):
    """Mean pairwise Kendall tau over rankings given as tuples of column names.

    The reference for ``attribution.stability_kendall``'s integer orders: for
    every unordered name pair, how many rankings order it each way, counted
    one ranking at a time over position dicts.
    """
    if len(rankings) < 2:
        raise DataError("need at least 2 rankings")
    items = sorted(rankings[0])
    if len(items) < 2:
        raise DataError("need at least 2 ranked items")
    for r in rankings:
        if sorted(r) != items:
            raise DataError("rankings cover different column sets")
    r_count = len(rankings)
    positions = [
        {col: pos for pos, col in enumerate(r)} for r in rankings
    ]
    ranking_pairs = r_count * (r_count - 1) // 2
    item_pairs = len(items) * (len(items) - 1) // 2
    net = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            c = sum(1 for pos in positions if pos[a] < pos[b])
            d = r_count - c
            agree = c * (c - 1) // 2 + d * (d - 1) // 2
            net += agree - c * d
    return net / (ranking_pairs * item_pairs)


def restandardized_subset(X, stats_rows, rows):
    """Rows of ``X`` as a design of their own, scaled with the moments of ``stats_rows``."""
    return DesignMatrix(
        months=tuple(X.months[i] for i in rows),
        columns=X.columns,
        values=restandardized_values(X, stats_rows, rows),
        target=X.target[rows],
        interaction_pairs=X.interaction_pairs,
        dummy_columns=X.dummy_columns,
        raw_linear=X.raw_linear[rows],
    )


def _rank(x: np.ndarray) -> np.ndarray:
    """Average ranks from 1 along the last axis, as ``scipy.stats.rankdata`` gives them.

    Ties share the mean of their positions; the float64 ranks are exact,
    being integers or half-integers.  Input must be NaN-free.
    """
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    # A tie group starting at 0-based position f with c members has mean
    # rank f + (c + 1) / 2; f is taken modulo the lane length.
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=starts.size)
    ranked = np.repeat(first % x.shape[-1] + (counts + 1) / 2, counts).reshape(x.shape)
    ranks = np.empty_like(ranked)
    np.put_along_axis(ranks, order, ranked, axis=-1)
    return ranks


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


def _check_unit_interval(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u > 0) & (u < 1)) and np.all((v > 0) & (v < 1))):
        raise ValueError("copula arguments must lie strictly inside (0, 1)")
    return u, v


def log_density(
    family: CopulaFamily | str, theta: float, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Pointwise log copula density with its arguments checked.

    ``copula._log_density`` after the checks a caller outside the fitting
    code needs: a valid theta for the family and (u, v) strictly inside the
    unit square.
    """
    family = CopulaFamily(family)
    _validate_theta(family, theta)
    u, v = _check_unit_interval(u, v)
    return _log_density(family, theta, *_margins(family, u, v))


def log_density_expression(family: CopulaFamily, theta, *margins: np.ndarray) -> np.ndarray:
    """``copula._log_density`` as plain expressions, one new array per operation.

    The same operations in the same order as the in-place kernel, so the two
    agree bit for bit; Frank's per-lane scale is computed lane by lane.
    """
    if family is CopulaFamily.CLAYTON:
        luv, high, low = margins
        above = theta > 1.0
        shift = np.where(above, theta, 0.0) * high
        log_1mp = shift + np.log1p(
            -np.expm1(theta * high) * (np.expm1(theta * low - shift) + above)
        )
        return np.log1p(theta) + theta * luv - (2.0 + 1.0 / theta) * log_1mp

    if family is CopulaFamily.GUMBEL:
        xy, log_xy, lxy, log_r, r_share, log1p_r = margins
        d = theta - 1.0
        log_a_rel = (np.log1p(r_share * np.expm1(d * log_r)) - d * log1p_r) / theta
        growth = np.expm1(log_a_rel)
        big_a = xy + xy * growth
        return -xy * growth + d * lxy - 2.0 * d * (log_xy + log_a_rel) + np.log1p(d / big_a)

    u, v, w = margins
    scale = np.array(
        [math.log(-math.expm1(-t) / t) if t else 0.0 for t in np.ravel(theta).tolist()]
    ).reshape(np.shape(theta))
    a, b = -theta * u, -theta * v
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = scale + a + b - 2.0 * np.log(
            (np.exp(a) * np.expm1(b) + np.exp(b) * np.expm1(-theta * w)) / -theta
        )
    return np.where(theta == 0, 0.0, log_c)


def within(stamp: str, start: str | None, end: str | None) -> bool:
    """Whether ``stamp`` lies in ``[start, end]``; a None bound is open."""
    return (start is None or stamp >= start) and (end is None or stamp <= end)


def load_series_rows(path, *, date_column="date", value_column="value", name=None):
    """One CSV series, a row at a time: its (stamps, values, is_monthly).

    Each row is checked as it is read, so a rejection names the first bad row
    with the message ``dataio.load_series`` gives; rows are then sorted by
    stamp, and a duplicate stamp or a mix of month and day stamps raises.
    """
    path = Path(path)
    rows: list[tuple[str, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (date_column, value_column):
            if col not in header:
                raise DataError(f"{path}: missing column {col!r} (header was {header})")
        for lineno, row in enumerate(reader, start=2):
            raw_date = (row.get(date_column) or "").strip()
            raw_value = (row.get(value_column) or "").strip()
            if not raw_date and not raw_value:
                continue
            if not raw_date or not raw_value:
                raise DataError(f"{path}: malformed row {lineno}: {row}")
            try:
                stamp = parse_stamp(raw_date)
                value = float(raw_value)
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if not np.isfinite(value):
                raise DataError(f"{path}: row {lineno}: non-finite value {raw_value!r}")
            rows.append((stamp, value))
    rows.sort(key=lambda r: r[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise DataError(f"{path}: duplicate stamp {a[0]!r}")
    flags = {is_month(stamp) for stamp, _ in rows}
    if len(flags) > 1:
        raise DataError(f"{path}: series {name or path.stem!r} mixes month and day stamps")
    return tuple(s for s, _ in rows), [v for _, v in rows], False not in flags


def to_monthly_rows(series: MacroSeries, method: ConversionMethod | str) -> MacroSeries:
    """``dataio.to_monthly`` grouping observations by month through a dict.

    The result is built through ``replace``, so every stamp is checked again.
    """
    method = ConversionMethod(method)
    if len(series) == 0:
        raise DataError(f"cannot convert empty series {series.name!r}")
    by_month: dict[str, list[float]] = {}
    order: list[str] = []
    for stamp, value in zip(series.stamps, series.values.tolist()):
        month = stamp[:7]
        if month not in by_month:
            by_month[month] = []
            order.append(month)
        by_month[month].append(value)
    if method is ConversionMethod.MEAN:
        collapsed = [(m, float(np.mean(by_month[m]))) for m in order]
    else:
        collapsed = [(m, by_month[m][-1]) for m in order]
    if method is ConversionMethod.LINEAR_INTERP:
        idx = month_indexes([s for s, _ in collapsed]).astype(float)
        vals = np.array([v for _, v in collapsed], dtype=float)
        full = np.arange(idx[0], idx[-1] + 1)
        filled = np.interp(full, idx, vals)
        collapsed = [(index_to_month(int(i)), float(v)) for i, v in zip(full, filled)]
    stamps, values = zip(*collapsed)
    return replace(series, stamps=stamps, values=values)


def fuse_hybrid_rows(
    actual: MacroSeries, proxy: MacroSeries, q: float, *, name: str | None = None
) -> MacroSeries:
    """``dataio.fuse_hybrid`` month by month through two dicts.

    Logs the same messages as the shipped function, to this module's logger,
    and builds the result through the validating constructor.
    """
    if not (np.isfinite(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"fusion weight q must lie in [0, 1], got {q}")
    for s in (actual, proxy):
        if len(s) and not s.is_monthly:
            raise DataError(f"fuse_hybrid needs monthly series; {s.name!r} is day-stamped")
    a = dict(zip(actual.stamps, actual.values.tolist()))
    p = dict(zip(proxy.stamps, proxy.values.tolist()))
    all_months = sorted(set(a) | set(p))
    if not all_months:
        raise DataError("cannot fuse two empty series")
    fused: list[tuple[str, float]] = []
    only_actual, only_proxy = [], []
    for m in all_months:
        if m in a and m in p:
            fused.append((m, q * a[m] + (1.0 - q) * p[m]))
        elif m in a:
            fused.append((m, a[m]))
            only_actual.append(m)
        else:
            fused.append((m, p[m]))
            only_proxy.append(m)
    if only_actual:
        logger.info(
            "fuse %s: %d month(s) from official only: %s",
            actual.name, len(only_actual), ", ".join(only_actual),
        )
    if only_proxy:
        logger.info(
            "fuse %s: %d month(s) from proxy only: %s",
            actual.name, len(only_proxy), ", ".join(only_proxy),
        )
    if actual.unit and proxy.unit and actual.unit != proxy.unit:
        logger.warning(
            "fusing series with different units: %r vs %r", actual.unit, proxy.unit
        )
    stamps, values = zip(*fused)
    return MacroSeries(
        name=name or actual.name,
        stamps=stamps,
        values=values,
        unit=actual.unit or proxy.unit,
        source_kind=SourceKind.HYBRID,
        reliability=q,
    )


def at_months(series: MacroSeries, months, lag: int = 0) -> np.ndarray:
    """``MacroSeries.at`` on month stamps, both sides parsed through ``month_indexes``."""
    if not series.is_monthly:
        raise DataError(f"series {series.name!r} is day-stamped; lookups need months")
    have = month_indexes(series.stamps)
    want = month_indexes(months) - lag
    out = np.full(want.shape, np.nan)
    if have.size:
        pos = np.minimum(np.searchsorted(have, want), have.size - 1)
        hit = have[pos] == want
        out[hit] = series.values[pos[hit]]
    return out


def window_validated(series: MacroSeries, start: str | None, end: str | None) -> MacroSeries:
    """``MacroSeries.window`` rebuilt through ``replace``, so every stamp is checked again."""
    lo = 0 if start is None else bisect.bisect_left(series.stamps, start)
    hi = len(series) if end is None else bisect.bisect_right(series.stamps, end)
    return replace(series, stamps=series.stamps[lo:hi], values=series.values[lo:hi])


def pct_change_validated(series: MacroSeries, *, name: str | None = None) -> MacroSeries:
    """``dataio.pct_change`` built through ``replace`` on a string-month lookup."""
    if not series.is_monthly:
        raise DataError(f"pct_change needs a monthly series; {series.name!r} is not")
    levels = series.values
    bad = np.flatnonzero(levels <= 0.0)
    if bad.size:
        raise DataError(
            f"non-positive level at {series.stamps[bad[0]]} in series {series.name!r}"
        )
    prev = at_months(series, series.stamps, lag=1)
    kept = ~np.isnan(prev)
    change = levels[kept] / prev[kept] - 1.0
    return replace(
        series,
        name=name or f"{series.name}_pct",
        stamps=tuple(m for m, k in zip(series.stamps, kept) if k),
        values=change,
        unit="fraction/month",
    )
@dataclass(frozen=True)
class LossRecord:
    """One residency's losses month by month, with their two components."""

    months: tuple[str, ...]
    loss: np.ndarray
    residency: Residency
    pi: np.ndarray
    fx_ret: np.ndarray


def loss_series(pi: MacroSeries, fx: MacroSeries | None, residency: Residency | str) -> LossRecord:
    """Losses over every month of ``pi``, FX differenced apart from the returns.

    For foreign residents a month needs its own and the prior month's FX
    level; local residents ignore ``fx``.
    """
    residency = Residency(residency)
    if len(pi) and not pi.is_monthly:
        raise DataError(f"inflation series {pi.name!r} must be monthly")
    if not len(pi):
        raise DataError("inflation series is empty")
    if residency is Residency.LOCAL:
        return LossRecord(pi.stamps, pi.values, residency, pi.values, np.zeros(len(pi)))
    if fx is None:
        raise DataError("foreign residency needs an FX series")
    fx_ret = at_months(pct_change_validated(fx), pi.stamps)
    kept = ~np.isnan(fx_ret)
    if not kept.any():
        raise DataError(
            f"no months where {pi.name!r} and consecutive {fx.name!r} levels align"
        )
    pis, fx_ret = pi.values[kept], fx_ret[kept]
    return LossRecord(
        tuple(m for m, k in zip(pi.stamps, kept) if k), pis + fx_ret, residency, pis, fx_ret
    )


def loss_at(loss: LossRecord, months) -> LossRecord:
    """The rows of ``loss`` at exactly ``months``, each of which must be present."""
    index = {m: i for i, m in enumerate(loss.months)}
    missing = [m for m in months if m not in index]
    if missing:
        raise DataError(f"losses lack {len(missing)} requested month(s), first {missing[0]}")
    keep = [index[m] for m in months]
    return LossRecord(
        tuple(months), loss.loss[keep], loss.residency, loss.pi[keep], loss.fx_ret[keep]
    )
