import random
import re

import numpy as np
import pytest

from crisishedge.months import (
    index_to_month,
    is_month,
    month_index,
    month_indexes,
    month_of,
    month_range,
    parse_stamp,
    shift_month,
    stamp_indexes,
)


class TestParseStamp:
    def test_month_precision(self):
        assert parse_stamp("2021-03") == "2021-03"

    def test_day_precision(self):
        assert parse_stamp("2021-03-15") == "2021-03-15"

    @pytest.mark.parametrize(
        "bad",
        ["2021", "2021-13", "2021-00", "2021-3", "21-03",
         "2021-03-00", "2021-03-32", "2021/03", "", "2021-03-15T00:00",
         "\uff12\uff10\uff11\uff11-07", "2011-0\u0667", "2011-07-\u0661\u0665",
         "2011-02-31", "2011-04-31", "2011-02-29", "1900-02-29", "2011-07\n-01"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_stamp(bad)

    def test_leap_days(self):
        assert parse_stamp("2012-02-29") == "2012-02-29"
        assert parse_stamp("2000-02-29") == "2000-02-29"
        assert parse_stamp("2011-01-31") == "2011-01-31"

    def test_strips_surrounding_whitespace(self):
        assert parse_stamp(" 2011-07\n") == "2011-07"

    def test_is_month(self):
        assert is_month("2021-03")
        assert not is_month("2021-03-15")
        assert not is_month("2021-13")
        assert not is_month("2021-00")
        assert not is_month("2011-07\n")
        assert not is_month("\uff12\uff10\uff11\uff11-07")


def test_month_of_truncates_day():
    assert month_of("2018-12-03") == "2018-12"
    assert month_of("2018-12") == "2018-12"


def test_shift_month_wraps_year():
    assert shift_month("2020-01", -1) == "2019-12"
    assert shift_month("2020-12", 1) == "2021-01"
    assert shift_month("2020-06", 0) == "2020-06"
    assert shift_month("2020-06", -18) == "2018-12"


def test_month_index_roundtrip():
    for stamp in ("1999-01", "2020-12", "2021-06"):
        assert index_to_month(month_index(stamp)) == stamp


def test_month_index_is_consecutive():
    assert month_index("2020-02") - month_index("2020-01") == 1
    assert month_index("2021-01") - month_index("2020-12") == 1


@pytest.mark.parametrize("bad", ["2021-3", "2021-03-15", ""])
def test_month_index_rejects_a_bad_stamp_every_time(bad):
    for _ in range(3):
        with pytest.raises(ValueError, match="not a month stamp"):
            month_index(bad)


def test_month_range_inclusive():
    assert month_range("2020-11", "2021-02") == [
        "2020-11", "2020-12", "2021-01", "2021-02",
    ]
    assert month_range("2020-11", "2020-11") == ["2020-11"]


def test_month_range_rejects_reversed():
    with pytest.raises(ValueError):
        month_range("2021-02", "2020-11")


def _scalar(stamp):
    """(month index, day) by ``parse_stamp``, or its message; padding is invalid."""
    if stamp != stamp.strip():
        return "padded"
    try:
        parse_stamp(stamp)
    except ValueError as exc:
        return str(exc)
    return month_index(stamp[:7]), int(stamp[8:] or 0)


def _near_stamps(rng, n):
    """Valid stamps and one- or two-character corruptions of them."""
    alphabet = "0123456789-- \n\x00/T\uff11\u0667"
    out = []
    for _ in range(n):
        year, month, day = rng.randrange(0, 10000), rng.randrange(0, 14), rng.randrange(0, 33)
        stamp = f"{year:04d}-{month:02d}" + (f"-{day:02d}" if rng.random() < 0.5 else "")
        for _ in range(rng.choice([0, 0, 1, 2])):
            k = rng.randrange(len(stamp) + 1)
            stamp = rng.choice([
                stamp[:k] + rng.choice(alphabet) + stamp[k + 1:],
                stamp[:k] + rng.choice(alphabet) + stamp[k:],
                stamp[:k] + stamp[k + 1:],
            ])
        out.append(stamp)
    return out


class TestStampIndexes:
    """The vectorized check accepts and rejects what ``parse_stamp`` does."""

    def test_each_stamp_alone(self):
        rng = random.Random(3)
        for stamp in _near_stamps(rng, 4000) + ["", "2020-02-29", "2100-02-29", "0000-02-29"]:
            want = _scalar(stamp)
            if isinstance(want, tuple):
                index, day = stamp_indexes([stamp])
                assert (int(index[0]), int(day[0])) == want, stamp
            else:
                with pytest.raises(ValueError) as got:
                    stamp_indexes([stamp])
                assert want in (str(got.value), "padded"), stamp

    def test_first_offender_raises(self):
        rng = random.Random(5)
        for _ in range(200):
            stamps = _near_stamps(rng, rng.randrange(1, 12))
            results = [_scalar(s) for s in stamps]
            bad = [r for r in results if not isinstance(r, tuple)]
            if bad and bad[0] != "padded":
                with pytest.raises(ValueError, match="^" + re.escape(bad[0]) + "$"):
                    stamp_indexes(stamps)
            elif not bad:
                index, day = stamp_indexes(stamps)
                assert list(zip(index.tolist(), day.tolist())) == results

    def test_empty_and_mixed_precision(self):
        index, day = stamp_indexes(())
        assert index.shape == day.shape == (0,)
        index, day = stamp_indexes(["2020-02-29", "2020-03", "2021-12-31"])
        assert index.tolist() == [month_index(m) for m in ("2020-02", "2020-03", "2021-12")]
        assert day.tolist() == [29, 0, 31]

    def test_month_indexes(self):
        np.testing.assert_array_equal(
            month_indexes(["2020-01", "1999-12"]), [month_index("2020-01"), month_index("1999-12")]
        )
        with pytest.raises(ValueError, match="not a month stamp: '2020-01-05'"):
            month_indexes(["2020-01", "2020-01-05"])
        with pytest.raises(ValueError, match="not a month stamp: '2020-1'"):
            month_indexes(["2020-13", "2020-1", "2020-01-05"])
        with pytest.raises(ValueError, match="bad month in date stamp '2020-13'"):
            month_indexes(["2020-01", "2020-13"])
