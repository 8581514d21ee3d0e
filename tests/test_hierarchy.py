import time
from collections import Counter
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    date_of_index,
    days_in_month,
    finer_than_oracle,
    groups_into_oracle,
    ladder_boundaries,
    largest_count,
    periodical_oracle,
)
from timegrain import (
    ComputationError,
    ConstantPeriod,
    Hierarchy,
    IrregularMapping,
    Rung,
    TimegrainError,
    ValidationError,
    enumerate_cyclic,
    evaluate,
    finer_than,
    granule_start,
    groups_into,
    is_periodical,
    linear_granule,
    period_length,
    validate_hierarchy,
)
from timegrain.fixtures import gregorian_calendar


@pytest.fixture(scope="module")
def minutes():
    """Minute-bottom ladder with a week rung (origin 2012-01-01)."""
    return gregorian_calendar(bottom="minute", years=4).hierarchy


class TestValidate:
    def test_gregorian_ladder_valid(self, gregorian):
        assert validate_hierarchy(gregorian.hierarchy) is gregorian.hierarchy

    def test_mayan_ladder_valid(self, mayan):
        h = validate_hierarchy(mayan.hierarchy)
        periods = [r.rule.period for r in h.rungs]
        assert periods == [20, 18, 20, 20, 1]

    def test_duplicate_rung_name(self):
        h = Hierarchy(
            "broken",
            (Rung("day", ConstantPeriod(7)), Rung("day", ConstantPeriod(1))),
        )
        with pytest.raises(ValidationError) as err:
            validate_hierarchy(h)
        assert err.value.kind == "duplicate-rung"

    def test_non_sentinel_top(self):
        h = Hierarchy(
            "broken",
            (Rung("day", ConstantPeriod(7)), Rung("week", ConstantPeriod(4))),
        )
        with pytest.raises(ValidationError) as err:
            validate_hierarchy(h)
        assert err.value.kind == "bad-sentinel"

    def test_too_few_rungs(self):
        with pytest.raises(ValidationError) as err:
            validate_hierarchy(Hierarchy("one", (Rung("day", ConstantPeriod(1)),)))
        assert err.value.kind == "empty-hierarchy"

    def test_bad_period(self):
        h = Hierarchy(
            "broken",
            (Rung("day", ConstantPeriod(0)), Rung("week", ConstantPeriod(1))),
        )
        with pytest.raises(ValidationError) as err:
            validate_hierarchy(h)
        assert err.value.kind == "bad-period"

    def test_bad_cardinality(self):
        h = Hierarchy(
            "broken",
            (Rung("day", IrregularMapping((31, 0))), Rung("month", ConstantPeriod(1))),
        )
        with pytest.raises(ValidationError) as err:
            validate_hierarchy(h)
        assert err.value.kind == "bad-cardinality"


class TestPeriodLength:
    def test_minute_ladder_periods(self, minutes):
        assert period_length(minutes, "minute", "hour") == 60
        assert period_length(minutes, "minute", "day") == 1440
        assert period_length(minutes, "hour", "day") == 24
        assert period_length(minutes, "hour", "week") == 168
        assert period_length(minutes, "day", "week") == 7

    def test_same_rung_is_one(self, minutes):
        for name in minutes.rung_names:
            assert period_length(minutes, name, name) == 1

    def test_irregular_span_rejected(self, gregorian):
        with pytest.raises(ComputationError) as err:
            period_length(gregorian.hierarchy, "hour", "month")
        assert err.value.kind == "irregular-span"

    def test_composition_identity(self, mayan):
        h = mayan.hierarchy
        names = h.rung_names
        for i, lo in enumerate(names):
            for j in range(i, len(names)):
                for k in range(j, len(names)):
                    mid, hi = names[j], names[k]
                    assert period_length(h, lo, hi) == period_length(
                        h, lo, mid
                    ) * period_length(h, mid, hi)


class TestLinearGranule:
    def test_minutes_to_day(self, minutes):
        assert linear_granule(minutes, 25 * 60, "day") == 1

    def test_leap_february(self, gregorian_days):
        # day 59 from 2012-01-01 lands in February (oracle: stdlib date)
        h = gregorian_days.hierarchy
        assert date_of_index(2012, 59).month == 2
        assert linear_granule(h, 59, "month") == 1

    def test_mayan_katun(self, mayan):
        assert linear_granule(mayan.hierarchy, 7200, "katun") == 1

    def test_matches_date_oracle_over_2012(self, gregorian_days):
        h = gregorian_days.hierarchy
        for z in range(0, 4 * 366, 17):
            d = date_of_index(2012, z)
            assert linear_granule(h, z, "month") == (d.year - 2012) * 12 + d.month - 1
            assert linear_granule(h, z, "year") == d.year - 2012

    def test_monotone_and_surjective(self, gregorian):
        h = gregorian.hierarchy
        zs = np.arange(0, 48 * 500)
        idx = linear_granule(h, zs, "month")
        assert (np.diff(idx) >= 0).all()
        assert set(np.unique(idx)) == set(range(int(idx.max()) + 1))

    def test_month_cardinalities_2013(self, gregorian_days):
        h = gregorian_days.hierarchy
        start_2013 = 366
        sizes = []
        for m in range(12, 24):
            sizes.append(granule_start(h, "month", m + 1) - granule_start(h, "month", m))
        assert Counter(sizes) == Counter([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
        assert granule_start(h, "month", 12) == start_2013


class TestRelativities:
    def test_day_finer_than_week(self, gregorian):
        assert finer_than(gregorian.hierarchy, "day", "week", 28 * 48)

    def test_week_not_finer_than_month(self, gregorian):
        h = gregorian.hierarchy
        span = 366 * 48
        assert not finer_than(h, "week", "month", span)
        assert not groups_into(h, "week", "month", span)

    def test_reflexive(self, gregorian):
        h = gregorian.hierarchy
        assert finer_than(h, "day", "day", 48 * 40)
        assert groups_into(h, "day", "day", 48 * 40)

    def test_day_groups_into_week_and_month(self, gregorian):
        h = gregorian.hierarchy
        span = 366 * 48
        assert groups_into(h, "day", "week", span)
        assert groups_into(h, "day", "month", span)

    def test_hour_groups_into_day(self, gregorian):
        assert groups_into(gregorian.hierarchy, "hour", "day", 48 * 30)

    def test_split_granule_is_not_grouping(self):
        # a coarse granularity whose first granule splits a day: 30 then 66 half hours
        h = validate_hierarchy(
            Hierarchy(
                "odd",
                (
                    Rung("halfhour", ConstantPeriod(2)),
                    Rung("hour", ConstantPeriod(24)),
                    Rung("day", IrregularMapping((30, 66), unit="halfhour")),
                    Rung("odd", ConstantPeriod(1)),
                ),
            )
        )
        assert not groups_into(h, "day", "odd", 48 * 10)

    def test_empty_span(self, gregorian):
        h = gregorian.hierarchy
        for check in (finer_than, groups_into, is_periodical):
            with pytest.raises(ComputationError) as err:
                check(h, "day", "day", 0)
            assert err.value.kind == "empty-span"


class TestIsPeriodical:
    def test_day_week(self, gregorian):
        assert is_periodical(gregorian.hierarchy, "day", "week", 48 * 7 * 20) == (1, 7)

    def test_day_month_without_leap_years(self, gregorian_2013_days):
        # 2013-2015 contains no leap day, so months repeat yearly
        assert is_periodical(gregorian_2013_days.hierarchy, "day", "month", 3 * 365) == (12, 365)

    def test_day_month_with_leap_years(self, gregorian_days):
        assert is_periodical(gregorian_days.hierarchy, "day", "month", 3 * 365) is None

    def test_insufficient_span(self, gregorian_days):
        with pytest.raises(ComputationError) as err:
            is_periodical(gregorian_days.hierarchy, "day", "month", 20)
        assert err.value.kind == "insufficient-span"


@st.composite
def proper_ladders(draw):
    """Rules of a ladder: constant bottom, one irregular rung, one or two constant rungs."""
    return [
        draw(st.integers(2, 5)),
        tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))),
        *draw(st.lists(st.integers(2, 13), min_size=1, max_size=2)),
    ]


def build_ladder(rules) -> Hierarchy:
    rungs = [
        Rung(f"r{k}", ConstantPeriod(r) if isinstance(r, int) else IrregularMapping(r))
        for k, r in enumerate(rules)
    ]
    return validate_hierarchy(Hierarchy("random", (*rungs, Rung("top", ConstantPeriod(1)))))


def verdict(check, *args):
    try:
        return check(*args)
    except TimegrainError as exc:
        return exc.kind


class TestAgainstTickingOracle:
    @settings(max_examples=60, deadline=None)
    @given(rules=proper_ladders(), span=st.integers(1, 3000))
    def test_locators_levels_and_relativities(self, rules, span):
        h = build_ladder(rules)
        names = h.rung_names
        bottom, cards, *periods = rules
        # one full cycle of the top rung's sizes, so every rung repeats within it
        cycle = bottom * sum(cards) * lcm(len(cards), prod(periods)) // len(cards)
        starts = dict(zip(names, ladder_boundaries(rules, max(cycle, span))))
        for name, b in starts.items():
            assert granule_start(h, name, np.arange(len(b))).tolist() == b
            granule_of = np.repeat(np.arange(len(b) - 1), np.diff(b))
            assert (linear_granule(h, np.arange(b[-1]), name) == granule_of).all()
        for d in enumerate_cyclic(h):
            assert d.levels == largest_count(starts[d.lower], starts[d.upper]), d.name
        for fine in names:
            for coarse in names:
                f, c = starts[fine], starts[coarse]
                assert finer_than(h, fine, coarse, span) == finer_than_oracle(f, c, span)
                assert groups_into(h, fine, coarse, span) == groups_into_oracle(f, c, span)
                assert verdict(is_periodical, h, fine, coarse, span) == periodical_oracle(
                    f, c, span
                )


def test_levels_when_irregular_rules_nest():
    # r2's rule counts r2 granules, whose sizes vary: r2_top counts whole lower
    # granules, and r0_top sizes (18, 20, 22) recur only every third top granule
    rules = [2, (3, 1, 2), (2, 3), 2]
    h = build_ladder(rules)
    starts = dict(zip(h.rung_names, ladder_boundaries(rules, 600)))
    for d in enumerate_cyclic(h):
        assert d.levels == largest_count(starts[d.lower], starts[d.upper]), d.name
        assert evaluate(h, d, np.arange(600)).max() == d.levels - 1, d.name


def test_coprime_ladder_validates_quickly():
    # 9,973 cardinalities grouped by 9,967: the grouped table must not be tiled to the lcm
    cards = tuple(1 + i % 9 for i in range(9973))
    t0 = time.perf_counter()
    build_ladder([2, cards, 9967])
    assert time.perf_counter() - t0 < 1.0


def test_days_in_month_oracle_against_fixture_table(gregorian_days):
    rule = gregorian_days.hierarchy.rungs[0].rule
    expected = [days_in_month(2012 + w // 12, w % 12 + 1) for w in range(len(rule.cardinalities))]
    assert list(rule.cardinalities) == expected
