"""Series ingestion, frequency conversion, reliability scoring and fusion.

Macro inputs arrive as per-series CSV files (one ``date,value`` pair per row).
This module loads them into immutable :class:`MacroSeries` containers, collapses
daily series to monthly, scores source reliability, and fuses official with
proxy series into hybrid ones.  A YAML manifest describes a whole panel.
"""

from __future__ import annotations

import bisect
import csv
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from itertools import compress, zip_longest
from typing import Mapping

import numpy as np
import yaml

from . import months as mo
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)


class SourceKind(str, Enum):
    OFFICIAL = "official"
    PROXY = "proxy"
    HYBRID = "hybrid"


class ConversionMethod(str, Enum):
    LAST = "last"
    MEAN = "mean"
    LINEAR_INTERP = "linear_interp"


@dataclass(frozen=True, eq=False)
class MacroSeries:
    """A named scalar time series: strictly increasing stamps and their values.

    ``values`` is the series' own read-only float array, one finite value per
    stamp.  The constructor checks its input in full; a series derived from a
    validated one (window, change, monthly conversion, fusion) is built from
    its columns without parsing a stamp again.

    Canonical stamps are month precision (``YYYY-MM``).  Day-stamped series are
    accepted so raw market data can be loaded, but must pass through
    :func:`to_monthly` before alignment with other series.
    """

    name: str
    stamps: tuple[str, ...]
    values: np.ndarray
    unit: str = ""
    source_kind: SourceKind = SourceKind.OFFICIAL
    reliability: float | None = None
    # Derived once from ``stamps``; a day stamp's month index is its month's.
    is_monthly: bool = field(init=False, repr=False)
    month_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("series name must be non-empty")
        stamps = tuple(map(str.strip, self.stamps))
        index, day = mo.stamp_indexes(stamps)
        values = np.array(self.values, dtype=float)
        if values.shape != (len(stamps),):
            raise ValueError(
                f"series {self.name!r} has {len(stamps)} stamps but values of shape "
                f"{values.shape}"
            )
        _check_finite(self.name, stamps, values)
        monthly = day == 0
        if monthly.any() and not monthly.all():
            raise ValueError(f"series {self.name!r} mixes month and day stamps")
        bad = np.flatnonzero(np.diff(index * 32 + day) <= 0)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"stamps not strictly increasing in series {self.name!r}: "
                f"{stamps[k]} then {stamps[k + 1]}"
            )
        if self.reliability is not None and not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability must lie in [0, 1], got {self.reliability}")
        values.flags.writeable = False
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "source_kind", SourceKind(self.source_kind))
        object.__setattr__(self, "is_monthly", bool(monthly.all()))
        object.__setattr__(self, "month_index", index)

    def __len__(self) -> int:
        return len(self.stamps)

    def at(self, index: np.ndarray, lag: int = 0) -> np.ndarray:
        """Values at the month indexes ``index`` shifted back by ``lag``, NaN where unobserved.

        This is the one rule for reading a series at month ``m - lag``.  NaN
        cannot be confused with data because observations are always finite.
        """
        if not self.is_monthly:
            raise DataError(f"series {self.name!r} is day-stamped; lookups need months")
        have = self.month_index
        want = index - lag
        out = np.full(want.shape, np.nan)
        if have.size:
            pos = np.minimum(np.searchsorted(have, want), have.size - 1)
            hit = have[pos] == want
            out[hit] = self.values[pos[hit]]
        return out

    def window(self, start: str | None = None, end: str | None = None) -> "MacroSeries":
        """Restrict to stamps within ``[start, end]`` (inclusive, either side optional).

        Stamps sort as strings, so the bounds compare with them as strings:
        a month bound keeps a day-stamped series' whole month at the start and
        none of it at the end.
        """
        lo = 0 if start is None else bisect.bisect_left(self.stamps, start)
        hi = len(self) if end is None else bisect.bisect_right(self.stamps, end)
        return self._derive(self.stamps[lo:hi], self.month_index[lo:hi], self.values[lo:hi])

    def _derive(self, stamps, month_index, values, **fields) -> "MacroSeries":
        """A series like this one holding ``values`` on ``stamps`` at ``month_index``.

        The stamps come in order from validated series, so they are not parsed
        again; only the values are checked, for being finite.  ``fields``
        replaces name, unit and the like.
        """
        values = np.asarray(values, dtype=float)
        _check_finite(fields.get("name", self.name), stamps, values)
        values.flags.writeable = False
        out = object.__new__(MacroSeries)
        vars(out).update(vars(self), is_monthly=self.is_monthly or not stamps)
        vars(out).update(fields, stamps=stamps, month_index=month_index, values=values)
        return out


def _check_finite(name: str, stamps: tuple[str, ...], values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value at {stamps[bad[0]]} in series {name!r}")


def load_series(
    path: str | Path,
    *,
    date_column: str = "date",
    value_column: str = "value",
    name: str | None = None,
    unit: str = "",
    source_kind: SourceKind | str = SourceKind.OFFICIAL,
) -> MacroSeries:
    """Load one series from a CSV file.

    Rows may arrive in any order; they are sorted by stamp.  A duplicate stamp
    is a hard error naming the offending stamp, never a silent overwrite.
    Missing months are simply absent rows; empty value cells are rejected so
    sentinel encodings cannot sneak through.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"series file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in (date_column, value_column):
            if col not in header:
                raise DataError(f"{path}: missing column {col!r} (header was {header})")
        # Rows are numbered as csv.DictReader numbers them: after blank lines.
        rows = [row for row in reader if row]
    position = {col: i for i, col in enumerate(header)}  # a repeated name: its last column
    columns = list(zip_longest(*rows, fillvalue=""))
    columns += [("",) * len(rows)] * (len(header) - len(columns))
    dates = list(map(str.strip, columns[position[date_column]]))
    cells = list(map(str.strip, columns[position[value_column]]))
    if "" in dates or "" in cells:
        filled = [k for k, pair in enumerate(zip(dates, cells)) if any(pair)]
        dates, cells = [dates[k] for k in filled], [cells[k] for k in filled]
    try:
        index, day = mo.stamp_indexes(dates)
        values = np.asarray(cells, dtype=float)
        clean = bool(np.isfinite(values).all())
    except ValueError:
        clean = False
    if not clean:
        _raise_first_bad_row(path, header, rows, date_column, value_column)
    keys = index * 32 + day
    order = np.argsort(keys, kind="stable")
    duplicate = np.flatnonzero(np.diff(keys[order]) == 0)
    if duplicate.size:
        raise DataError(f"{path}: duplicate stamp {dates[order[duplicate[0]]]!r}")
    try:
        return MacroSeries(
            name=name or path.stem,
            stamps=tuple(map(dates.__getitem__, order.tolist())),
            values=values[order],
            unit=unit,
            source_kind=SourceKind(source_kind),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _raise_first_bad_row(
    path: Path, header: list[str], rows: list[list[str]], date_column: str, value_column: str
) -> None:
    """Raise the error of the first bad row, checking one row at a time.

    Runs only once :func:`load_series`'s column checks have failed, to name
    the row; a row is shown as the dict ``csv.DictReader`` makes of it.
    """
    for lineno, cells in enumerate(rows, start=2):
        row = dict(zip(header, cells))
        if len(cells) > len(header):
            row[None] = cells[len(header):]
        row.update(dict.fromkeys(header[len(cells):]))
        raw_date = (row.get(date_column) or "").strip()
        raw_value = (row.get(value_column) or "").strip()
        if not raw_date and not raw_value:
            continue
        if not raw_date or not raw_value:
            raise DataError(f"{path}: malformed row {lineno}: {row}")
        try:
            mo.parse_stamp(raw_date)
            value = float(raw_value)
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
        if not np.isfinite(value):
            raise DataError(f"{path}: row {lineno}: non-finite value {raw_value!r}")
    raise AssertionError(f"{path}: column checks failed but no row is bad")


def save_series(series: MacroSeries, path: str | Path) -> Path:
    """Write a series back to CSV; values use shortest round-trip formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "value"])
        for stamp, value in zip(series.stamps, series.values.tolist()):
            writer.writerow([stamp, repr(value)])
    return path


def to_monthly(series: MacroSeries, method: ConversionMethod | str) -> MacroSeries:
    """Collapse a series to one observation per month.

    ``last`` and ``mean`` aggregate within each observed month and leave gaps
    alone.  ``linear_interp`` first collapses to last-in-month, then fills
    interior monthly gaps by linear interpolation on the month index; it never
    extrapolates.  Passing an already-monthly series through ``last`` or
    ``mean`` is the identity.
    """
    method = ConversionMethod(method)
    if len(series) == 0:
        raise DataError(f"cannot convert empty series {series.name!r}")
    index, values = series.month_index, series.values
    cut = np.flatnonzero(np.diff(index)) + 1  # where a month's run of stamps begins
    last = np.append(cut - 1, index.size - 1)
    months = index[last]
    stamps = tuple(np.array(series.stamps, dtype="U7")[last].tolist())  # "U7" keeps the month
    if method is ConversionMethod.MEAN:
        collapsed = [np.mean(run) for run in np.split(values, cut)]
    else:
        collapsed = values[last]
    if method is ConversionMethod.LINEAR_INTERP:
        full = np.arange(months[0], months[-1] + 1)
        collapsed = np.interp(full, months, collapsed)
        months, stamps = full, tuple(map(mo.index_to_month, full.tolist()))
    return series._derive(stamps, months, collapsed, is_monthly=True)


@dataclass(frozen=True)
class ReliabilityInputs:
    """Normalized source-quality components, each already scaled to [0, 1].

    ``timeliness`` is high when publication lags are short; the other two are
    penalties (high is bad): ``revision_volatility`` measures how much past
    values get restated, ``crosscheck_error`` the discrepancy against an
    independent measurement of the same quantity.
    """

    timeliness: float
    revision_volatility: float
    crosscheck_error: float

    def __post_init__(self) -> None:
        for label in ("timeliness", "revision_volatility", "crosscheck_error"):
            v = getattr(self, label)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{label} must lie in [0, 1], got {v}")


def reliability_score(inputs: ReliabilityInputs) -> float:
    """Convex data-quality weight in [0, 1]; 1 means fully trustworthy.

    Timeliness carries weight 0.4, the two penalty components 0.3 each.
    """
    return (
        0.4 * inputs.timeliness
        + 0.3 * (1.0 - inputs.revision_volatility)
        + 0.3 * (1.0 - inputs.crosscheck_error)
    )


def fuse_hybrid(
    actual: MacroSeries,
    proxy: MacroSeries,
    q: float,
    *,
    name: str | None = None,
) -> MacroSeries:
    """Blend an official series with a proxy, month by month.

    Months present in both get the convex combination ``q * actual +
    (1 - q) * proxy``.  Months present in only one source pass through
    unchanged; those months are logged so the provenance of every point in the
    hybrid stays auditable.
    """
    if not (np.isfinite(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"fusion weight q must lie in [0, 1], got {q}")
    for s in (actual, proxy):
        if len(s) and not s.is_monthly:
            raise DataError(f"fuse_hybrid needs monthly series; {s.name!r} is day-stamped")
    months = np.union1d(actual.month_index, proxy.month_index)
    if not months.size:
        raise DataError("cannot fuse two empty series")
    # Monthly stamps sort as their months, so the stamps' union lines up with ``months``.
    stamps = tuple(sorted({*actual.stamps, *proxy.stamps}))
    in_a, in_p = np.isin(months, actual.month_index), np.isin(months, proxy.month_index)
    a, p = np.zeros(months.size), np.zeros(months.size)
    a[in_a], p[in_p] = actual.values, proxy.values
    fused = np.where(in_a & in_p, q * a + (1.0 - q) * p, np.where(in_a, a, p))
    for source, only in (("official", in_a & ~in_p), ("proxy", in_p & ~in_a)):
        if only.any():
            logger.info(
                "fuse %s: %d month(s) from %s only: %s",
                actual.name, int(only.sum()), source, ", ".join(compress(stamps, only)),
            )
    if actual.unit and proxy.unit and actual.unit != proxy.unit:
        logger.warning(
            "fusing series with different units: %r vs %r", actual.unit, proxy.unit
        )
    return actual._derive(
        stamps, months, fused, name=name or actual.name, unit=actual.unit or proxy.unit,
        source_kind=SourceKind.HYBRID, reliability=q,
    )


def pct_change(series: MacroSeries, *, name: str | None = None) -> MacroSeries:
    """Month-over-month fractional change of a positive monthly level series.

    This is the one-period-return rule for every level series (equity, FX,
    price indices).  Output at month ``t`` exists only when month ``t-1`` is
    also observed, so gaps in the input become gaps in the output rather than
    multi-month jumps.
    """
    if not series.is_monthly:
        raise DataError(f"pct_change needs a monthly series; {series.name!r} is not")
    levels = series.values
    bad = np.flatnonzero(levels <= 0.0)
    if bad.size:
        raise DataError(
            f"non-positive level at {series.stamps[bad[0]]} in series {series.name!r}"
        )
    prev = series.at(series.month_index, lag=1)
    kept = ~np.isnan(prev)
    change = levels[kept] / prev[kept] - 1.0
    return series._derive(
        tuple(compress(series.stamps, kept)), series.month_index[kept], change,
        name=name or f"{series.name}_pct", unit="fraction/month",
    )


# --- panel manifest -----------------------------------------------------------

ROLE_NAMES = ("equity", "fx", "inflation")
INFLATION_KINDS = ("rate", "index")


@dataclass(frozen=True)
class SeriesSpec:
    name: str
    path: Path
    unit: str = ""
    source_kind: SourceKind = SourceKind.OFFICIAL
    date_column: str = "date"
    value_column: str = "value"
    to_monthly: ConversionMethod | None = None


@dataclass(frozen=True)
class FusionSpec:
    name: str
    actual: str
    proxy: str
    q: float


@dataclass(frozen=True)
class PanelManifest:
    """Declarative description of a country panel.

    ``roles`` binds the three pipeline roles (equity index level, FX rate
    level, inflation) to series names; ``inflation_kind`` says whether the
    inflation series is already a monthly rate or a price index that needs
    differencing.
    """

    series: tuple[SeriesSpec, ...]
    fusions: tuple[FusionSpec, ...]
    roles: Mapping[str, str]
    inflation_kind: str
    base_dir: Path

    def __post_init__(self) -> None:
        known = {s.name for s in self.series} | {f.name for f in self.fusions}
        if len(known) != len(self.series) + len(self.fusions):
            raise ConfigError("duplicate series names in manifest")
        for role in ROLE_NAMES:
            if role not in self.roles:
                raise ConfigError(f"manifest roles must bind {role!r}")
            if self.roles[role] not in known:
                raise ConfigError(
                    f"role {role!r} refers to unknown series {self.roles[role]!r}"
                )
        for f in self.fusions:
            for ref in (f.actual, f.proxy):
                if ref not in {s.name for s in self.series}:
                    raise ConfigError(f"fusion {f.name!r} refers to unknown series {ref!r}")
        if self.inflation_kind not in INFLATION_KINDS:
            raise ConfigError(
                f"inflation_kind must be one of {INFLATION_KINDS}, got {self.inflation_kind!r}"
            )


def parse_number(kind: type, value, where: str):
    """``kind(value)`` for a config entry, or ConfigError naming ``where``.

    A bool is no number, and an integer entry must be integral: ``int`` would
    turn ``true`` into 1 and ``102.9`` into 102.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _resolve_q(block: Mapping, context: str) -> float:
    if "q" in block and "reliability" in block:
        raise ConfigError(f"{context}: give either q or reliability components, not both")
    if "q" in block:
        q = parse_number(float, block["q"], f"{context}: q")
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"{context}: q must lie in [0, 1], got {q}")
        return q
    if "reliability" in block:
        comp = block["reliability"]
        if not isinstance(comp, Mapping):
            raise ConfigError(f"{context}: reliability must be a mapping")
        try:
            inputs = ReliabilityInputs(*(
                parse_number(float, _require(comp, label, context), f"{context}: {label}")
                for label in ("timeliness", "revision_volatility", "crosscheck_error")
            ))
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
        return reliability_score(inputs)
    raise ConfigError(f"{context}: needs q or reliability components")


def load_manifest(path: str | Path) -> PanelManifest:
    """Parse and validate a YAML panel manifest."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: manifest must be a mapping")
    if doc.get("schema_version") != 1:
        raise ConfigError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")

    series = []
    for i, block in enumerate(doc.get("series") or []):
        ctx = f"{path}: series[{i}]"
        if not isinstance(block, dict):
            raise ConfigError(f"{ctx}: must be a mapping")
        conv = block.get("to_monthly")
        try:
            conv = ConversionMethod(conv) if conv is not None else None
            kind = SourceKind(block.get("source_kind", "official"))
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
        series.append(
            SeriesSpec(
                name=str(_require(block, "name", ctx)),
                path=Path(str(_require(block, "path", ctx))),
                unit=str(block.get("unit", "")),
                source_kind=kind,
                date_column=str(block.get("date_column", "date")),
                value_column=str(block.get("value_column", "value")),
                to_monthly=conv,
            )
        )

    fusions = []
    for i, block in enumerate(doc.get("fusions") or []):
        ctx = f"{path}: fusions[{i}]"
        if not isinstance(block, dict):
            raise ConfigError(f"{ctx}: must be a mapping")
        fusions.append(
            FusionSpec(
                name=str(_require(block, "name", ctx)),
                actual=str(_require(block, "actual", ctx)),
                proxy=str(_require(block, "proxy", ctx)),
                q=_resolve_q(block, ctx),
            )
        )

    roles_block = _require(doc, "roles", str(path))
    if not isinstance(roles_block, dict):
        raise ConfigError(f"{path}: roles must be a mapping")
    roles = {k: str(v) for k, v in roles_block.items() if k in ROLE_NAMES}

    return PanelManifest(
        series=tuple(series),
        fusions=tuple(fusions),
        roles=roles,
        inflation_kind=str(doc.get("inflation_kind", "rate")),
        base_dir=path.parent,
    )


def load_panel(manifest: PanelManifest) -> dict[str, MacroSeries]:
    """Materialize every series a manifest declares, fusions included.

    File paths resolve relative to the manifest's directory.  Series with a
    ``to_monthly`` method are converted on load, so the returned panel is
    consistently month-stamped.
    """
    panel: dict[str, MacroSeries] = {}
    for spec in manifest.series:
        p = spec.path if spec.path.is_absolute() else manifest.base_dir / spec.path
        s = load_series(
            p,
            date_column=spec.date_column,
            value_column=spec.value_column,
            name=spec.name,
            unit=spec.unit,
            source_kind=spec.source_kind,
        )
        if spec.to_monthly is not None:
            s = to_monthly(s, spec.to_monthly)
        if len(s) and not s.is_monthly:
            raise DataError(
                f"series {spec.name!r} is day-stamped; declare a to_monthly method"
            )
        panel[spec.name] = s
    for f in manifest.fusions:
        panel[f.name] = fuse_hybrid(panel[f.actual], panel[f.proxy], f.q, name=f.name)
    return panel
