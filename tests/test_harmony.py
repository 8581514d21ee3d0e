import io

import numpy as np
import pytest

from timegrain import (
    ComputationError,
    IndexSpan,
    classify_pair,
    cross_tab,
    derive_descriptor,
    harmony_table,
    pairwise_descriptor,
    write_harmony_table,
)

YEAR_2013 = IndexSpan(start=366 * 48, length=365 * 48)


@pytest.fixture(scope="module")
def ds(gregorian):
    h = gregorian.hierarchy
    names = [("hour", "day"), ("day", "week"), ("day", "month"),
             ("week", "month"), ("month", "year"), ("day", "year")]
    out = {f"{a}_{b}": pairwise_descriptor(h, a, b) for a, b in names}
    out["wknd_wday"] = derive_descriptor(
        out["day_week"], {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday"
    )
    return out


class TestCrossTab:
    def test_weekday_by_month_fully_occupied(self, gregorian, ds):
        occ = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        assert occ.counts.shape == (7, 12)
        assert (occ.counts > 0).all()
        assert occ.counts.sum() == 365  # counted in days, not half-hours

    def test_day_month_week_month_structural_hole(self, gregorian, ds):
        occ = cross_tab(YEAR_2013, ds["day_month"], ds["week_month"], gregorian)
        assert occ.counts[0, 4] == 0  # first day never in the fifth week

    def test_single_level_marginal(self, gregorian, ds):
        allone = derive_descriptor(ds["wknd_wday"], {0: 0, 1: 0}, "constant")
        occ = cross_tab(YEAR_2013, allone, ds["hour_day"], gregorian)
        assert occ.counts.shape == (1, 24)
        assert occ.counts.sum() == occ.total

    def test_observed_counts_rows(self, smart_table, smart_calendar, smart_catalog):
        occ = cross_tab(
            smart_table, smart_catalog["hour_day"], smart_catalog["day_week"], smart_calendar
        )
        assert occ.counts.sum() == len(smart_table)
        assert occ.mode == "observed"

    def test_insufficient_span_for_circular_pair(self, gregorian, ds):
        with pytest.raises(ComputationError) as err:
            cross_tab(IndexSpan(length=100), ds["hour_day"], ds["day_week"], gregorian)
        assert err.value.kind == "insufficient-span"

    def test_structural_determinism(self, gregorian, ds):
        a = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        b = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        assert (a.counts == b.counts).all()


class TestClassify:
    def test_clash(self, gregorian, ds):
        c = classify_pair(cross_tab(YEAR_2013, ds["day_month"], ds["week_month"], gregorian))
        assert c.verdict == "clash"
        assert (0, 4, 0) in c.evidence
        assert all(count == 0 for _, _, count in c.evidence)
        assert all(c.occupancy.counts[k, l] == 0 for k, l, _ in c.evidence)

    def test_harmony(self, gregorian, ds):
        c = classify_pair(cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian))
        assert c.verdict == "harmony"
        assert c.evidence == ()

    def test_near_clash_leap_day(self, gregorian, ds):
        # 28 synthetic years: the 366th day pairs with each weekday exactly once
        span = IndexSpan(length=10227 * 48)
        c = classify_pair(cross_tab(span, ds["day_year"], ds["day_week"], gregorian))
        assert c.verdict == "near-clash"
        cited = {(k, l) for k, l, _ in c.evidence}
        assert {(365, wd) for wd in range(7)} <= cited

    def test_verdict_symmetric(self, gregorian, ds):
        for a, b in [("day_month", "week_month"), ("day_week", "month_year"),
                     ("day_year", "day_week")]:
            span = IndexSpan(length=10227 * 48)
            va = classify_pair(cross_tab(span, ds[a], ds[b], gregorian)).verdict
            vb = classify_pair(cross_tab(span, ds[b], ds[a], gregorian)).verdict
            assert va == vb

    def test_transposed_occupancy(self, gregorian, ds):
        occ_ab = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        occ_ba = cross_tab(YEAR_2013, ds["month_year"], ds["day_week"], gregorian)
        assert (occ_ab.counts == occ_ba.counts.T).all()


class TestHarmonyTable:
    def test_two_descriptors(self, gregorian, ds):
        rows = harmony_table([ds["hour_day"], ds["day_week"]], YEAR_2013, gregorian)
        assert len(rows) == 2
        assert {(r.facet, r.x) for r in rows} == {("hour_day", "day_week"), ("day_week", "hour_day")}

    def test_max_levels_one_empties_table(self, gregorian, ds):
        rows = harmony_table(list(ds.values()), YEAR_2013, gregorian, max_levels=1)
        assert rows == []

    def test_level_filter_drops_descriptor(self, gregorian, ds):
        rows = harmony_table(
            [ds["hour_day"], ds["day_week"], ds["day_year"]], YEAR_2013, gregorian,
            max_levels=31,
        )
        names = {r.facet for r in rows} | {r.x for r in rows}
        assert "day_year" not in names

    def test_keep_near_clashes_flag(self, gregorian, ds):
        span = IndexSpan(length=10227 * 48)
        base = harmony_table([ds["day_year"], ds["day_week"]], span, gregorian, max_levels=400)
        kept = harmony_table(
            [ds["day_year"], ds["day_week"]], span, gregorian, max_levels=400,
            keep_near_clashes=True,
        )
        assert base == []
        assert len(kept) == 2

    def test_rows_sorted_lexicographically(self, smart_table, smart_calendar, smart_catalog):
        rows = harmony_table(list(smart_catalog.values()), smart_table, smart_calendar)
        assert rows == sorted(rows, key=lambda r: (r.facet, r.x))

    def test_export_header(self, gregorian, ds):
        rows = harmony_table([ds["hour_day"], ds["day_week"]], YEAR_2013, gregorian)
        buf = io.StringIO()
        write_harmony_table(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "facet_variable,x_variable,facet_levels,x_levels"
        assert "day_week,hour_day,7,24" in lines
