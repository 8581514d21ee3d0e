import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mayan_counters, mayan_pair_value
from timegrain import (
    ComputationError,
    ConstantPeriod,
    Hierarchy,
    IrregularMapping,
    Rung,
    ValidationError,
    apply_labels,
    compose_up,
    derive_descriptor,
    evaluate,
    pairwise_descriptor,
    reduce_to_single,
)
from timegrain.fixtures import gregorian_calendar


@pytest.fixture(scope="module")
def minutes():
    return gregorian_calendar(bottom="minute", years=4).hierarchy


class TestCircular:
    def test_hour_of_day_from_minutes(self, minutes):
        d = pairwise_descriptor(minutes, "hour", "day")
        assert evaluate(minutes, d, 1500) == 1

    def test_day_of_week_from_minutes(self, minutes):
        d = pairwise_descriptor(minutes, "day", "week")
        assert evaluate(minutes, d, 1440) == 1

    def test_zero_index(self, minutes):
        for lower, upper in [("minute", "hour"), ("hour", "day"), ("day", "week")]:
            d = pairwise_descriptor(minutes, lower, upper)
            assert evaluate(minutes, d, 0) == 0

    @settings(max_examples=200)
    @given(z=st.integers(min_value=0, max_value=10**9), t=st.integers(min_value=0, max_value=1000))
    def test_range_and_periodicity(self, z, t):
        h = gregorian_calendar(bottom="minute", years=4).hierarchy
        d = pairwise_descriptor(h, "hour", "week")
        v = evaluate(h, d, z)
        assert 0 <= v < 168
        assert evaluate(h, d, z + t * 7 * 1440) == v


class TestQuasiCircular:
    def test_first_of_february_2013(self, gregorian_2013_days):
        h = gregorian_2013_days.hierarchy
        d = pairwise_descriptor(h, "day", "month")
        assert evaluate(h, d, 31) == 0

    def test_leap_day_2012(self, gregorian_days):
        h = gregorian_days.hierarchy
        d = pairwise_descriptor(h, "day", "month")
        assert evaluate(h, d, 59) == 28

    def test_level_never_reaches_granule_size(self, gregorian_days):
        # value stays below the containing granule's cardinality
        h = gregorian_days.hierarchy
        d = pairwise_descriptor(h, "day", "month")
        cards = h.rungs[0].rule.cardinalities
        zs = np.arange(4 * 366)
        vals = evaluate(h, d, zs)
        months = np.asarray([int(h._reps[1].idx(z)) for z in zs])
        sizes = np.asarray([cards[m % len(cards)] for m in months])
        assert (vals < sizes).all()

    def test_increments_by_one_and_resets(self, gregorian_days):
        h = gregorian_days.hierarchy
        d = pairwise_descriptor(h, "day", "month")
        vals = evaluate(h, d, np.arange(3 * 366))
        steps = np.diff(vals)
        assert set(steps).issubset({1 - 0, *[-c + 1 for c in (28, 29, 30, 31)]})
        resets = np.where(steps < 0)[0]
        assert (vals[resets + 1] == 0).all()
        inside = np.where(steps > 0)[0]
        assert (steps[inside] == 1).all()


class TestAperiodic:
    def test_in_session(self, semester):
        ev = semester.events["semester_type"]
        assert ev.category_of(70) == 1

    def test_outside_all_intervals(self, semester):
        ev = semester.events["semester_type"]
        assert ev.category_of(0) == 0

    def test_inclusive_start_boundary(self, semester):
        ev = semester.events["semester_type"]
        start = ev.categories[0].intervals[0][0]
        assert ev.category_of(start) == 1
        assert ev.category_of(start - 1) == 2  # orientation week just before

    def test_exclusive_end_boundary(self, semester):
        ev = semester.events["semester_type"]
        end = ev.categories[3].intervals[0][1]
        assert ev.category_of(end - 1) == 4
        assert ev.category_of(end) == 0


class TestComposeUp:
    def test_worked_hour_of_month(self, gregorian_hours):
        # hour-of-day 5 on the second day of the month
        h = gregorian_hours.hierarchy
        assert compose_up(h, "hour", "month", 24 * 1 + 5) == 29

    def test_day_of_year_march_2013(self, gregorian_hours):
        h = gregorian_hours.hierarchy
        z = (366 + 31 + 28) * 24
        assert compose_up(h, "day", "year", z) == 59

    def test_mayan_against_counter_oracle(self, mayan):
        h = mayan.hierarchy
        counters = mayan_counters(3 * 7200)
        for z in range(0, 3 * 7200, 97):
            assert compose_up(h, "uinal", "baktun", z) == mayan_pair_value(
                counters[z], "uinal", "baktun"
            )

    def test_two_irregular_rungs_rejected(self):
        h = Hierarchy(
            "double",
            (
                Rung("day", IrregularMapping((31, 28, 31))),
                Rung("month", IrregularMapping((3, 4))),
                Rung("block", ConstantPeriod(1)),
            ),
        )
        with pytest.raises(ComputationError) as err:
            compose_up(h, "day", "block", 10)
        assert err.value.kind == "unsupported-span"

    def test_sliding_lower_rejected(self, gregorian):
        # week-of-month is not chain-composable; the evaluator handles it instead
        with pytest.raises(ComputationError) as err:
            compose_up(gregorian.hierarchy, "week", "month", 1000)
        assert err.value.kind == "unsupported-span"

    def test_collapses_sliding_rung_inside_span(self, gregorian):
        # day..month passes over the sliding week rung
        h = gregorian.hierarchy
        d = pairwise_descriptor(h, "day", "month")
        for z in range(0, 48 * 400, 131):
            assert compose_up(h, "day", "month", z) == evaluate(h, d, z)

    def test_matches_evaluator_on_proper_chain(self, gregorian_hours):
        h = gregorian_hours.hierarchy
        pairs = [("hour", "day"), ("hour", "month"), ("hour", "year"),
                 ("day", "month"), ("day", "year"), ("month", "year")]
        zs = range(0, 35064, 449)
        for lower, upper in pairs:
            d = pairwise_descriptor(h, lower, upper)
            for z in zs:
                assert compose_up(h, lower, upper, z) == evaluate(h, d, z)


class TestReduceToSingle:
    def test_tun_of_katun_from_uinal_of_baktun(self, mayan):
        h = mayan.hierarchy
        assert reduce_to_single(h, ("uinal", "baktun", 37), ("tun", "katun")) == 2

    def test_identity_target(self, mayan):
        h = mayan.hierarchy
        assert reduce_to_single(h, ("uinal", "baktun", 37), ("uinal", "baktun")) == 37

    def test_day_of_week_from_hour_of_week(self, gregorian):
        h = gregorian.hierarchy
        assert reduce_to_single(h, ("hour", "week", 73), ("day", "week")) == 3

    def test_irregular_span_rejected(self, gregorian_hours):
        h = gregorian_hours.hierarchy
        with pytest.raises(ComputationError) as err:
            reduce_to_single(h, ("hour", "year", 100), ("hour", "day"))
        assert err.value.kind == "irregular-span"

    def test_bad_nesting_rejected(self, mayan):
        h = mayan.hierarchy
        with pytest.raises(ValidationError) as err:
            reduce_to_single(h, ("uinal", "tun", 5), ("kin", "tun"))
        assert err.value.kind == "bad-span"

    @settings(max_examples=200, deadline=None)
    @given(z=st.integers(min_value=0, max_value=20 * 18 * 20 * 20 - 1))
    def test_round_trip_through_compose(self, mayan, z):
        h = mayan.hierarchy
        names = h.rung_names
        for lo in range(len(names) - 1):
            for hi in range(lo + 1, len(names)):
                wide = compose_up(h, names[lo], names[hi], z)
                for a in range(lo, hi):
                    single = compose_up(h, names[a], names[a + 1], z)
                    got = reduce_to_single(
                        h, (names[lo], names[hi], wide), (names[a], names[a + 1])
                    )
                    assert got == single


class TestLabels:
    def test_weekday_labels(self, gregorian):
        h = gregorian.hierarchy
        d = pairwise_descriptor(h, "day", "week")
        assert apply_labels(d, 0) == "Sunday"
        assert apply_labels(d, 6) == "Saturday"

    def test_default_decimal(self, mayan):
        d = pairwise_descriptor(mayan.hierarchy, "kin", "uinal")
        assert apply_labels(d, 13) == "13"

    def test_offset_labels(self, gregorian):
        d = pairwise_descriptor(gregorian.hierarchy, "day", "month")
        assert apply_labels(d, 0) == "1"
        assert apply_labels(d, 28) == "29"

    def test_out_of_domain(self, gregorian):
        d = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        with pytest.raises(ValidationError) as err:
            apply_labels(d, 7)
        assert err.value.kind == "label-domain"

    def test_label_bijection_enforced(self, gregorian):
        with pytest.raises(ValidationError) as err:
            pairwise_descriptor(gregorian.hierarchy, "day", "week", labels=("a", "b"))
        assert err.value.kind == "bad-labels"


class TestEvaluateArray:
    def test_matches_scalar_ops(self, gregorian):
        h = gregorian.hierarchy
        rng = np.random.default_rng(7)
        zs = rng.integers(0, 48 * 366 * 4, size=300)
        for lower, upper in [("hour", "day"), ("day", "week"), ("day", "month"),
                             ("week", "month"), ("day", "year"), ("month", "year")]:
            d = pairwise_descriptor(h, lower, upper)
            arr = evaluate(h, d, zs.astype(np.int64))
            for z, v in zip(zs, arr):
                assert evaluate(h, d, int(z)) == int(v)

    def test_aperiodic_array(self, semester):
        ev = semester.events["semester_type"]
        zs = np.arange(0, 800, dtype=np.int64)
        arr = ev.category_of(zs)
        for z, v in zip(zs, arr):
            assert ev.category_of(int(z)) == int(v)


class TestDerived:
    def test_remap_values(self, gregorian):
        h = gregorian.hierarchy
        base = pairwise_descriptor(h, "day", "week")
        wknd = derive_descriptor(base, {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday")
        assert wknd.levels == 2
        assert evaluate(h, wknd, 0) == 1  # origin is a Sunday
        assert evaluate(h, wknd, 48) == 0

    def test_partial_remap_rejected(self, gregorian):
        base = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        with pytest.raises(ValidationError) as err:
            derive_descriptor(base, {0: 1, 6: 1}, "broken")
        assert err.value.kind == "partial-remap"
