"""Month-stamp helpers.

Series in this package are keyed by ISO month stamps (``"YYYY-MM"``).  Daily
stamps (``"YYYY-MM-DD"``) are accepted at the ingestion boundary and collapsed
to months before any alignment arithmetic.  Stamps are kept as strings, which
sort correctly and stay readable in CSV output; arithmetic goes through a flat
month index.

A stamp is ASCII digits and dashes only: a month in 01..12 and, for a day
stamp, a day that exists in that month (29 February only in leap years).
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")
_DAY_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")
# Days per month in a common year; February gains a day in leap years.
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# Character bounds at each position of a day stamp; a month stamp is its first 7.
_LOW = np.frombuffer(b"0000-00-00", dtype=np.uint8)
_HIGH = np.frombuffer(b"9999-99-99", dtype=np.uint8)
_ZERO = ord("0")
_PLACES = np.array([1000, 100, 10, 1])


def _is_leap(year):
    """Gregorian leap years, for an int or an integer array."""
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def _check_stamp(text: str) -> None:
    """Raise ValueError unless ``text`` is exactly one valid stamp."""
    day = 0
    m = _MONTH_RE.fullmatch(text)
    if m is None:
        m = _DAY_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"bad date stamp {text!r}; expected YYYY-MM or YYYY-MM-DD")
        day = int(m.group(3))
        if not 1 <= day <= 31:
            raise ValueError(f"bad day in date stamp {text!r}")
    month = int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"bad month in date stamp {text!r}")
    if day > _MONTH_DAYS[month - 1] + (month == 2 and _is_leap(int(m.group(1)))):
        raise ValueError(f"bad day in date stamp {text!r}")


def parse_stamp(text: str) -> str:
    """Validate an ISO ``YYYY-MM`` or ``YYYY-MM-DD`` stamp and return it.

    Surrounding whitespace is stripped.  Raises ValueError for anything else,
    including out-of-range months and days.
    """
    text = text.strip()
    _check_stamp(text)
    return text


def stamp_indexes(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Validate stamps at once: each one's flat month index and day (0 for a month).

    The stamps' characters are checked in numpy by the rules of
    :func:`parse_stamp`, without stripping.  If any stamp fails, they are
    checked one at a time, so the first offender raises its own message.
    ``index * 32 + day`` orders stamps as their strings sort.
    """
    n = len(stamps)
    lengths = np.fromiter(map(len, stamps), dtype=np.intp, count=n)
    width = int(lengths.max(initial=0))
    text = "".join(stamps)
    if not text.isascii():
        _raise_first_bad(stamps)
    if np.all(lengths == width):
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.asarray(stamps, dtype=bytes).view(np.uint8)  # zero-padded
    chars = np.zeros((n, 10), dtype=np.uint8)
    chars[:, : min(width, 10)] = codes.reshape(n, width)[:, :10]
    is_day = lengths == 10
    shape_ok = (chars >= _LOW) & (chars <= _HIGH)
    shape_ok[:, 7:] |= ~is_day[:, None]
    year = (chars[:, :4] - _ZERO) @ _PLACES
    month = (chars[:, 5] - _ZERO) * 10 + chars[:, 6] - _ZERO
    day = np.where(is_day, (chars[:, 8] - _ZERO) * 10 + chars[:, 9] - _ZERO, 0)
    valid = (
        np.all(is_day | (lengths == 7)) and shape_ok.all()
        and np.all((month >= 1) & (month <= 12))
    )
    if valid and is_day.any():
        last = np.take(_MONTH_DAYS, month - 1) + ((month == 2) & _is_leap(year))
        valid = np.all(~is_day | ((day >= 1) & (day <= last)))
    if not valid:
        _raise_first_bad(stamps)
    return year * 12 + month - 1, day


def _raise_first_bad(stamps: Sequence[str]) -> None:
    """Check stamps one at a time; the first bad one raises."""
    for stamp in stamps:
        _check_stamp(stamp)
    raise AssertionError("vectorized stamp check rejected valid stamps")


def month_indexes(months: Sequence[str]) -> np.ndarray:
    """:func:`month_index` of each stamp at once; each must be a valid ``YYYY-MM``."""
    try:
        index, day = stamp_indexes(months)
    except ValueError:
        for month in months:
            month_index(month)  # one that is no YYYY-MM at all raises as month_index does
        raise
    if day.any():
        raise ValueError(f"not a month stamp: {months[int(np.argmax(day))]!r}")
    return index


def is_month(stamp: str) -> bool:
    m = _MONTH_RE.fullmatch(stamp)
    return m is not None and 1 <= int(m.group(2)) <= 12


def month_of(stamp: str) -> str:
    """Truncate a validated stamp to month precision."""
    return parse_stamp(stamp)[:7]


def month_index(month: str) -> int:
    """Map ``YYYY-MM`` to a flat count of months since year 0."""
    m = _MONTH_RE.fullmatch(month)
    if m is None:
        raise ValueError(f"not a month stamp: {month!r}")
    return int(m.group(1)) * 12 + int(m.group(2)) - 1


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
