import pytest

from crisishedge.months import (
    index_to_month,
    is_month,
    month_index,
    month_of,
    month_range,
    parse_stamp,
    shift_month,
)


class TestParseStamp:
    def test_month_precision(self):
        assert parse_stamp("2021-03") == "2021-03"

    def test_day_precision(self):
        assert parse_stamp("2021-03-15") == "2021-03-15"

    @pytest.mark.parametrize(
        "bad",
        ["2021", "2021-13", "2021-00", "2021-3", "21-03",
         "2021-03-00", "2021-03-32", "2021/03", "", "2021-03-15T00:00"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_stamp(bad)

    def test_is_month(self):
        assert is_month("2021-03")
        assert not is_month("2021-03-15")
        assert not is_month("2021-13")
        assert not is_month("2021-00")


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


def test_month_index_is_memoized():
    before = month_index.cache_info().hits
    assert month_index("1987-04") == month_index("1987-04") == 1987 * 12 + 3
    assert month_index.cache_info().hits > before


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
