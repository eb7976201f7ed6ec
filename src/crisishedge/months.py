"""Month-stamp helpers.

Series in this package are keyed by ISO month stamps (``"YYYY-MM"``).  Daily
stamps (``"YYYY-MM-DD"``) are accepted at the ingestion boundary and collapsed
to months before any alignment arithmetic.  Stamps are kept as strings, which
sort correctly and stay readable in CSV output; arithmetic goes through a flat
month index.
"""

from __future__ import annotations

import functools
import re

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")
_DAY_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def parse_stamp(text: str) -> str:
    """Validate an ISO ``YYYY-MM`` or ``YYYY-MM-DD`` stamp and return it.

    Raises ValueError for anything else, including out-of-range months/days.
    """
    text = text.strip()
    m = _MONTH_RE.match(text)
    if m is None:
        m = _DAY_RE.match(text)
        if m is None:
            raise ValueError(f"bad date stamp {text!r}; expected YYYY-MM or YYYY-MM-DD")
        day = int(m.group(3))
        if not 1 <= day <= 31:
            raise ValueError(f"bad day in date stamp {text!r}")
    month = int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"bad month in date stamp {text!r}")
    return text


def is_month(stamp: str) -> bool:
    m = _MONTH_RE.match(stamp)
    return m is not None and 1 <= int(m.group(2)) <= 12


def month_of(stamp: str) -> str:
    """Truncate a validated stamp to month precision."""
    return parse_stamp(stamp)[:7]


@functools.lru_cache(maxsize=4096)
def month_index(month: str) -> int:
    """Map ``YYYY-MM`` to a flat count of months since year 0.

    Memoized: series alignment looks up the same few hundred stamps tens of
    thousands of times per run.  A bad stamp is not cached and raises on
    every call.
    """
    m = _MONTH_RE.match(month)
    if m is None:
        raise ValueError(f"not a month stamp: {month!r}")
    return int(m.group(1)) * 12 + int(m.group(2)) - 1


def within(stamp: str, start: str | None, end: str | None) -> bool:
    """Whether ``stamp`` lies in ``[start, end]``; a None bound is open."""
    return (start is None or stamp >= start) and (end is None or stamp <= end)


def index_to_month(index: int) -> str:
    year, rem = divmod(index, 12)
    return f"{year:04d}-{rem + 1:02d}"


def shift_month(month: str, k: int) -> str:
    return index_to_month(month_index(month) + k)


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of consecutive months from ``first`` to ``last``."""
    i, j = month_index(first), month_index(last)
    if j < i:
        raise ValueError(f"month range end {last!r} precedes start {first!r}")
    return [index_to_month(k) for k in range(i, j + 1)]
