import io
from datetime import date
import tracemalloc
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import blocked_structural_scan, constant_block, pair_verdict_oracle, write_csv_oracle
from test_distill import DELIMITERS, LABELS
from test_hierarchy import proper_ladders
from timegrain import (
    Calendar,
    ComputationError,
    ConstantPeriod,
    Hierarchy,
    IrregularMapping,
    Rung,
    GranularTable,
    HarmonyRow,
    IndexSpan,
    OccupancyTable,
    ValidationError,
    aperiodic_descriptor,
    augment,
    classify_pair,
    cross_tab,
    derive_descriptor,
    enumerate_cyclic,
    evaluate,
    granule_start,
    harmony_table,
    pairwise_descriptor,
    write_harmony_table,
)
from timegrain import harmony
from timegrain.harmony import DEFAULT_NEAR_FLOOR, DEFAULT_NEAR_THRESHOLD, SCAN_BLOCK

YEAR_2013 = IndexSpan(start=366 * 48, length=365 * 48)

count_tables = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 60), min_size=k, max_size=k), min_size=1, max_size=5
    )
)


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

    def test_span_past_the_int64_index_is_rejected(self, gregorian, ds):
        with pytest.raises(ValidationError) as err:
            cross_tab(IndexSpan(1000, 2**63 - 500), ds["hour_day"], ds["day_week"], gregorian)
        assert err.value.kind == "index-overflow" and err.value.exit_code == 3

    def test_span_up_to_the_last_index_is_counted(self, gregorian, ds):
        # the last index is 2**63 - 1, counted hour by hour; negative starts stay accepted
        h, ci, cj = gregorian.hierarchy, ds["hour_day"], ds["day_week"]
        occ = cross_tab(IndexSpan(100_001, 2**63 - 100_001), ci, cj, gregorian)
        counts, points = blocked_structural_scan(evaluate, h, ci, cj, 2**63 - 100_001, 100_001, 2)
        assert occ.total == points == 50_001 and (occ.counts == counts).all()
        assert IndexSpan(10, -5).start == -5

    def test_insufficient_span_for_circular_pair(self, gregorian, ds):
        with pytest.raises(ComputationError) as err:
            cross_tab(IndexSpan(length=100), ds["hour_day"], ds["day_week"], gregorian)
        assert err.value.kind == "insufficient-span"

    def test_insufficient_span_spares_an_irregular_upper_rung(self, gregorian, ds):
        # month_year is circular, but years vary in length: 800 days, far short of the
        # pair's joint period, are counted; hour_day's regular day still refuses 100 half-hours
        ci, cj = ds["month_year"], ds["day_week"]
        span = IndexSpan(length=800 * 48)
        assert span.length < harmony._joint_period(gregorian, [ci, cj])
        occ = cross_tab(span, ci, cj, gregorian)
        assert occ.counts.shape == (12, 7) and (occ.counts > 0).all()
        with pytest.raises(ComputationError) as err:
            cross_tab(IndexSpan(length=100), ds["hour_day"], cj, gregorian)
        assert err.value.kind == "insufficient-span"

    @settings(max_examples=20, deadline=None)
    @given(
        pair=st.sampled_from(
            [(1, "halfhour_hour", "day_month"), (2, "hour_day", "week_month"),
             (48, "day_week", "month_year")]
        ),
        n=st.integers(2 * SCAN_BLOCK + 1, 4 * SCAN_BLOCK),
        start=st.integers(1, 500 * 365 * 48),
        short=st.integers(0, 47),
    )
    def test_blocked_scans_agree(self, gregorian, pair, n, start, short):
        stride, a, b = pair
        h = gregorian.hierarchy
        ci, cj = pairwise_descriptor(h, *a.split("_")), pairwise_descriptor(h, *b.split("_"))
        # n points at the stride; a span ending up to stride - 1 units early keeps all n
        span = IndexSpan(length=n * stride - short % stride, start=start)
        zs = start + stride * np.arange(n, dtype=np.int64)
        table = GranularTable(index=zs, timestamps=("",) * n, timestamp_column="t")
        structural = cross_tab(span, ci, cj, gregorian)
        observed = cross_tab(table, ci, cj, gregorian)
        once = np.bincount(
            evaluate(h, ci, zs) * cj.levels + evaluate(h, cj, zs), minlength=ci.levels * cj.levels
        )
        assert structural.total == observed.total == n
        assert (structural.counts == observed.counts).all()
        assert (structural.counts == once.reshape(ci.levels, cj.levels)).all()

    def test_structural_determinism(self, gregorian, ds):
        a = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        b = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        assert (a.counts == b.counts).all()


    def test_sliding_week_counted_per_day(self, gregorian):
        # week_month moves at month starts inside a week, so it is sampled per day
        h = gregorian.hierarchy
        ci, cj = pairwise_descriptor(h, "week", "month"), pairwise_descriptor(h, "week", "year")
        occ = cross_tab(IndexSpan(366 * 48), ci, cj, gregorian)
        zs = np.arange(366 * 48, dtype=np.int64)
        scan = np.bincount(
            evaluate(h, ci, zs) * cj.levels + evaluate(h, cj, zs), minlength=ci.levels * cj.levels
        ).reshape(ci.levels, cj.levels)
        assert ((occ.counts > 0) == (scan > 0)).all()
        assert (occ.counts * 48 == scan).all()  # one point per day against 48 half-hours


def screen_ladder(rules, week: int, fine: int) -> Hierarchy:
    """Ladder of ``proper_ladders`` rules, changed in two optional ways.

    With ``week`` > 0, rung r1 first steps into weeks of ``week`` r1
    granules that slide across the r2 boundaries, and r2's table still
    counts r1 granules (as Gregorian weeks and months). With ``fine`` > 0,
    a bottom rung of which ``fine`` granules make one r0 granule goes
    under r0, so circular pairs repeat more than once per r1 granule.
    """
    rungs = [
        Rung(f"r{k}", ConstantPeriod(r) if isinstance(r, int) else IrregularMapping(r))
        for k, r in enumerate(rules)
    ]
    if week:
        rungs[1:2] = [Rung("r1", ConstantPeriod(week)),
                      Rung("wk", IrregularMapping(rules[1], unit="r1"))]
    if fine:
        rungs.insert(0, Rung("fine", ConstantPeriod(fine)))
    return Hierarchy("screen", (*rungs, Rung("top", ConstantPeriod(1))))


@st.composite
def screens(draw):
    """A ladder, its descriptors of at most 40 levels plus one derived from
    one of them, and a span with an unaligned start, often shorter than or
    just over the widest block on which a descriptor is constant."""
    h = screen_ladder(draw(proper_ladders()), draw(st.sampled_from([0, 2, 3, 4])),
                      draw(st.sampled_from([0, 2, 3])))
    names = h.rung_names
    descriptors = [d for d in (pairwise_descriptor(h, names[lo], names[hi])
                               for lo, hi in combinations(range(len(names)), 2)) if d.levels <= 40]
    base = draw(st.sampled_from(descriptors))
    remap = draw(st.lists(st.integers(0, 3), min_size=base.levels, max_size=base.levels))
    values = sorted(set(remap))
    descriptors.append(derive_descriptor(base, [values.index(v) for v in remap], "derived"))
    block = max(constant_block(h, d) for d in descriptors)
    length = draw(st.one_of(st.integers(1, block), st.integers(block, block + 4),
                            st.integers(block, 60 * block)))
    return h, descriptors, IndexSpan(length=length, start=draw(st.integers(0, 10**6)))


@settings(max_examples=100, deadline=None)
@given(screen=screens())
def test_structural_counts_match_blocked_scan(screen):
    h, descriptors, span = screen
    cal = Calendar(h)
    for ci, cj in combinations(descriptors, 2):
        try:
            occ = cross_tab(span, ci, cj, cal)
        except ComputationError as err:
            assert err.kind == "insufficient-span"
            with pytest.raises(ComputationError):
                cross_tab(span, cj, ci, cal)
            continue
        flipped = cross_tab(span, cj, ci, cal)
        stride = gcd(constant_block(h, ci), constant_block(h, cj))
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, stride)
        assert occ.total == flipped.total == n
        assert (occ.counts == want).all()
        assert (flipped.counts == want.T).all()
        # the stride loses no joint granule: every index of the stride blocks
        # the grid falls in occupies the same cells
        lo = span.start - span.start % stride
        hi = (span.start + (n - 1) * stride) // stride * stride + stride
        fine, _ = blocked_structural_scan(evaluate, h, ci, cj, lo, hi - lo, 1)
        assert ((fine > 0) == (want > 0)).all()


def test_structural_scan_memory_is_bounded(gregorian):
    # 2012-01-01 to 2101-01-01 at stride 1: 1,560,336 points, 12 MB per int64 column
    h = gregorian.hierarchy
    ci, cj = pairwise_descriptor(h, "halfhour", "hour"), pairwise_descriptor(h, "day", "month")
    tracemalloc.start()
    try:
        occ = cross_tab(IndexSpan(length=32_507 * 48), ci, cj, gregorian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert occ.total == 1_560_336
    assert peak < 16 * 2**20


@pytest.mark.parametrize("mode", ["structural", "observed"])
def test_screen_memory_is_bounded(gregorian, mode):
    # the six half-hour Gregorian descriptors of at most 31 levels over 2012 to 2101, as a
    # span and as a table of its every index (12 MB per int64 column, made before the
    # count): one block of values serves all descriptors, not one per pair or per descriptor
    descriptors = [d for d in enumerate_cyclic(gregorian.hierarchy) if d.levels <= 31]
    assert len(descriptors) == 6
    n = 32_507 * 48
    if mode == "structural":
        data = IndexSpan(length=n)
    else:
        data = GranularTable(index=np.arange(n, dtype=np.int64), timestamps=("",) * n,
                             timestamp_column="t")
    tracemalloc.start()
    try:
        harmony_table(descriptors, data, gregorian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_scan_holds_one_block_of_values(semester):
    # a scan of k blocks peaks as one of a single block: each block's points and values
    # are freed before the next block's are made
    h = semester.hierarchy
    day_week = pairwise_descriptor(h, "day", "week")
    semester_type = aperiodic_descriptor(semester.events["semester_type"])
    peaks = []
    for k in (1, 2, 4):
        tracemalloc.start()
        try:
            cross_tab(IndexSpan(k * SCAN_BLOCK), day_week, semester_type, semester)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) <= 1.01 * peaks[0]


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

    @settings(max_examples=300, deadline=None)
    @given(
        counts=count_tables,
        near_threshold=st.floats(0.0, 1.0),
        near_floor=st.integers(0, 3),
    )
    def test_matches_oracle(self, counts, near_threshold, near_floor):
        table = np.asarray(counts, dtype=np.int64)
        # classify_pair reads only the counts and the mode
        occ = OccupancyTable(None, None, table, "observed", int(table.sum()))
        c = classify_pair(occ, near_threshold, near_floor)
        verdict, evidence, cutoff = pair_verdict_oracle(counts, near_threshold, near_floor)
        assert (c.verdict, c.evidence, c.threshold) == (verdict, tuple(evidence), cutoff)

    def test_transposed_occupancy(self, gregorian, ds):
        occ_ab = cross_tab(YEAR_2013, ds["day_week"], ds["month_year"], gregorian)
        occ_ba = cross_tab(YEAR_2013, ds["month_year"], ds["day_week"], gregorian)
        assert (occ_ab.counts == occ_ba.counts.T).all()


def rows_from_verdicts(descriptors, data, cal, max_levels, keep_near):
    """Harmony rows rebuilt from ``classify_pair`` on each unordered pair."""
    kept = {"harmony", "near-clash"} if keep_near else {"harmony"}
    rows = []
    for a, b in combinations([d for d in descriptors if d.levels <= max_levels], 2):
        if classify_pair(cross_tab(data, a, b, cal)).verdict in kept:
            rows += [HarmonyRow(a.name, b.name, a.levels, b.levels),
                     HarmonyRow(b.name, a.name, b.levels, a.levels)]
    return sorted(rows, key=lambda r: (r.facet, r.x))


# levels of a harmony row: small ones make a column that is looked up, the rest are formatted
LEVELS = st.integers(0, 30) | st.integers(0, 2**63 - 1)


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

    @pytest.mark.parametrize("keep_near", [False, True])
    @pytest.mark.parametrize("days", [366, 10227])
    def test_structural_rows_follow_classify_pair(self, gregorian, ds, days, keep_near):
        span = IndexSpan(length=days * 48)
        rows = harmony_table(
            list(ds.values()), span, gregorian, max_levels=400, keep_near_clashes=keep_near
        )
        assert rows == rows_from_verdicts(list(ds.values()), span, gregorian, 400, keep_near)

    @pytest.mark.parametrize("keep_near", [False, True])
    def test_observed_rows_follow_classify_pair(
        self, smart_table, smart_calendar, smart_catalog, keep_near
    ):
        descriptors = list(smart_catalog.values())
        rows = harmony_table(descriptors, smart_table, smart_calendar, keep_near_clashes=keep_near)
        assert rows == rows_from_verdicts(descriptors, smart_table, smart_calendar, 31, keep_near)

    def test_export_header(self, gregorian, ds):
        rows = harmony_table([ds["hour_day"], ds["day_week"]], YEAR_2013, gregorian)
        buf = io.StringIO()
        write_harmony_table(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "facet_variable,x_variable,facet_levels,x_levels"
        assert "day_week,hour_day,7,24" in lines

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.builds(HarmonyRow, LABELS, LABELS, LEVELS, LEVELS), max_size=40),
           delimiter=DELIMITERS)
    def test_export_equals_row_by_row_csv_writer(self, rows, delimiter):
        got, want = io.StringIO(), io.StringIO()
        write_harmony_table(rows, got, delimiter)
        write_csv_oracle(want, ["facet_variable", "x_variable", "facet_levels", "x_levels"],
                         [(r.facet, r.x, r.facet_levels, r.x_levels) for r in rows], delimiter)
        assert got.getvalue() == want.getvalue()


def rows_from_counts(descriptors, counts_of, keep_near):
    """Harmony rows rebuilt from ``pair_verdict_oracle`` on each unordered pair's counts."""
    kept = {"harmony", "near-clash"} if keep_near else {"harmony"}
    rows = []
    for a, b in combinations(descriptors, 2):
        counts = counts_of(a, b).tolist()
        if pair_verdict_oracle(counts, DEFAULT_NEAR_THRESHOLD, DEFAULT_NEAR_FLOOR)[0] in kept:
            rows += [HarmonyRow(a.name, b.name, a.levels, b.levels),
                     HarmonyRow(b.name, a.name, b.levels, a.levels)]
    return sorted(rows, key=lambda r: (r.facet, r.x))


@pytest.fixture
def evaluations(monkeypatch):
    """Descriptor names that ``harmony`` evaluates, in call order."""
    calls = []

    def counted(h, d, z, events=None):
        calls.append(d.name)
        return evaluate(h, d, z, events)

    monkeypatch.setattr(harmony, "evaluate", counted)
    return calls


class TestScreen:
    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_descriptors_count_nothing(
        self, gregorian, ds, smart_table, smart_calendar, smart_catalog, evaluations, count
    ):
        assert harmony_table(list(ds.values())[:count], YEAR_2013, gregorian) == []
        assert harmony_table(list(smart_catalog.values())[:count], smart_table,
                             smart_calendar) == []
        assert evaluations == []

    def test_insufficient_span_names_first_pair_before_counting(self, gregorian, evaluations):
        # (halfhour_hour, hour_day) fits in 100 half-hours; (halfhour_hour, day_week) is
        # the first pair, in screen order, whose common period of 336 does not
        h = gregorian.hierarchy
        descriptors = [pairwise_descriptor(h, "halfhour", "hour"),
                       pairwise_descriptor(h, "hour", "day"), pairwise_descriptor(h, "day", "week")]
        with pytest.raises(ComputationError) as err:
            harmony_table(descriptors, IndexSpan(length=100), gregorian)
        assert err.value.kind == "insufficient-span"
        assert "of halfhour_hour and day_week" in str(err.value)
        assert evaluations == []

    def test_held_columns_are_read(self, smart_table, smart_calendar, smart_catalog, evaluations):
        descriptors = [d for d in smart_catalog.values() if d.levels <= 31]
        a, b = descriptors[:2]
        bare = harmony_table(descriptors, smart_table, smart_calendar)
        want = cross_tab(smart_table, a, b, smart_calendar).counts
        assert sorted(set(evaluations)) == sorted(d.name for d in descriptors)
        table = augment(smart_table, descriptors, smart_calendar)
        evaluations.clear()
        assert harmony_table(descriptors, table, smart_calendar) == bare
        assert (cross_tab(table, a, b, smart_calendar).counts == want).all()
        assert evaluations == []

    def test_column_of_another_descriptor_is_evaluated(
        self, smart_table, smart_calendar, smart_catalog, evaluations
    ):
        # a day_week column made from wknd_wday under day_week's name is not day_week's
        decoy = derive_descriptor(smart_catalog["wknd_wday"], [0, 1], "day_week")
        table = augment(smart_table, [decoy], smart_calendar)
        descriptors = list(smart_catalog.values())
        assert (harmony_table(descriptors, table, smart_calendar)
                == harmony_table(descriptors, smart_table, smart_calendar))
        hour_day, day_week = smart_catalog["hour_day"], smart_catalog["day_week"]
        evaluations.clear()
        occ = cross_tab(table, hour_day, day_week, smart_calendar)
        assert set(evaluations) == {"day_week", "hour_day"}
        assert (occ.counts == cross_tab(smart_table, hour_day, day_week, smart_calendar).counts).all()


@settings(max_examples=100, deadline=None)
@given(screen=screens(), keep_near=st.booleans())
def test_structural_screen_matches_blocked_scan(screen, keep_near):
    h, descriptors, span = screen
    cal = Calendar(h)
    for ci, cj in combinations(descriptors, 2):  # the first pair the span is too short for
        try:
            cross_tab(span, ci, cj, cal)
        except ComputationError as err:
            with pytest.raises(ComputationError) as screened:
                harmony_table(descriptors, span, cal, max_levels=40, keep_near_clashes=keep_near)
            assert str(screened.value) == str(err)
            return

    def scan(ci, cj):
        stride = gcd(constant_block(h, ci), constant_block(h, cj))
        return blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, stride)[0]

    rows = harmony_table(descriptors, span, cal, max_levels=40, keep_near_clashes=keep_near)
    assert rows == rows_from_counts(descriptors, scan, keep_near)


@settings(max_examples=30, deadline=None)
@given(
    # one block, or several: seven descriptors share a block of 2 * SCAN_BLOCK // 7 rows
    n=st.one_of(st.integers(1, 300), st.integers(SCAN_BLOCK // 4, 3 * SCAN_BLOCK // 4)),
    start=st.integers(0, 100 * 365 * 48),
    width=st.integers(1, 20 * 365 * 48),
    seed=st.integers(0, 2**32 - 1),
    held=st.sets(st.sampled_from(sorted(("hour_day", "day_week", "day_month", "week_month",
                                         "month_year", "day_year", "wknd_wday")))),
    decoy=st.sampled_from([None, "day_week", "month_year", "wknd_wday"]),
    keep_near=st.booleans(),
)
def test_observed_screen_matches_bincount(gregorian, ds, n, start, width, seed, held, decoy,
                                          keep_near):
    h = gregorian.hierarchy
    zs = start + np.random.default_rng(seed).integers(0, width, n)
    table = GranularTable(index=zs, timestamps=("",) * n, timestamp_column="t")
    if decoy is not None:  # a column under that name made from another descriptor
        table = augment(table, [derive_descriptor(ds["hour_day"], [k % 3 for k in range(24)],
                                                  decoy)], gregorian)
    table = augment(table, [ds[name] for name in sorted(held)], gregorian)

    def once(ci, cj):
        return np.bincount(evaluate(h, ci, zs) * cj.levels + evaluate(h, cj, zs),
                           minlength=ci.levels * cj.levels).reshape(ci.levels, cj.levels)

    descriptors = list(ds.values())
    for ci, cj in combinations(descriptors, 2):
        occ = cross_tab(table, ci, cj, gregorian)
        assert occ.total == n
        assert (occ.counts == once(ci, cj)).all()
    rows = harmony_table(descriptors, table, gregorian, max_levels=400, keep_near_clashes=keep_near)
    assert rows == rows_from_counts(descriptors, once, keep_near)


FOLD_PERIOD_CAP = 3000  # joint periods of the descriptors a fold test keeps, in bottom units


@st.composite
def folded_screens(draw):
    """A ladder of ``screens()``, the descriptors of it whose joint period P stays
    within ``FOLD_PERIOD_CAP`` (the shortest first), and a span of q * P + r,
    q in 2 to 6 and r in 0 to P - 1, so every pair of them is folded."""
    h, descriptors, _ = draw(screens())
    cal = Calendar(h)
    descriptors.sort(key=lambda d: harmony._joint_period(cal, [d]))
    kept, period = [], 1
    for d in descriptors:
        joint = harmony._joint_period(cal, [*kept, d])
        if joint <= FOLD_PERIOD_CAP:
            kept, period = [*kept, d], joint
    assume(len(kept) >= 2)
    length = draw(st.integers(2, 6)) * period + draw(st.integers(0, period - 1))
    return cal, kept, IndexSpan(length=length, start=draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(screen=folded_screens(), keep_near=st.booleans())
def test_folded_counts_match_blocked_scan(screen, keep_near):
    cal, descriptors, span = screen
    h = cal.hierarchy

    def scan(ci, cj):
        stride = gcd(constant_block(h, ci), constant_block(h, cj))
        return blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, stride)

    for ci, cj in combinations(descriptors, 2):
        assert span.length // harmony._joint_period(cal, [ci, cj]) >= 2
        want, n = scan(ci, cj)
        occ, flipped = cross_tab(span, ci, cj, cal), cross_tab(span, cj, ci, cal)
        assert occ.total == flipped.total == n
        assert (occ.counts == want).all()
        assert (flipped.counts == want.T).all()
    rows = harmony_table(descriptors, span, cal, max_levels=40, keep_near_clashes=keep_near)
    assert rows == rows_from_counts(descriptors, lambda ci, cj: scan(ci, cj)[0], keep_near)


@settings(max_examples=60, deadline=None)
@given(screen=screens(), shifts=st.integers(1, 3))
def test_joint_period_repeats_values(screen, shifts):
    h, descriptors, span = screen
    cal = Calendar(h)
    zs = span.start + np.arange(min(span.length, 5000), dtype=np.int64)
    for d in descriptors:
        period = harmony._joint_period(cal, [d])
        assert (evaluate(h, d, zs + shifts * period) == evaluate(h, d, zs)).all()


@pytest.fixture
def evaluated_points(monkeypatch):
    """Points at which ``harmony`` evaluates each descriptor, by name."""
    points: dict[str, int] = {}

    def counted(h, d, z, events=None):
        points[d.name] = points.get(d.name, 0) + np.size(z)
        return evaluate(h, d, z, events)

    monkeypatch.setattr(harmony, "evaluate", counted)
    return points


class TestFold:
    def test_joint_period_counts_both_rungs(self, gregorian, ds):
        assert harmony._joint_period(gregorian, [ds["hour_day"], ds["day_week"]]) == 7 * 48
        assert harmony._joint_period(gregorian, [ds["week_month"]]) == 146_097 * 48
        assert harmony._joint_period(gregorian, [ds["wknd_wday"]]) == 7 * 48
        # fortnights of 6 and 8 days slide across months of 30 and 31: the month
        # table repeats after 61 days, where the fortnights inside months do not
        h = Hierarchy("slide", (Rung("day", IrregularMapping((6, 8))),
                                Rung("fort", IrregularMapping((30, 31), unit="day")),
                                Rung("month", ConstantPeriod(1))))
        fort_month = pairwise_descriptor(h, "fort", "month")
        assert harmony._joint_period(Calendar(h), [fort_month]) == 854
        zs = np.arange(2 * 854, dtype=np.int64)
        assert (evaluate(h, fort_month, zs + 854) == evaluate(h, fort_month, zs)).all()
        assert (evaluate(h, fort_month, zs + 61) != evaluate(h, fort_month, zs)).any()

    def test_long_nested_span_counts_one_period(self, gregorian, evaluated_points):
        # 2012 to 2101 in half-hours: 32,507 joint periods of a day
        h = gregorian.hierarchy
        ci, cj = pairwise_descriptor(h, "halfhour", "hour"), pairwise_descriptor(h, "hour", "day")
        span = IndexSpan(32_507 * 48)
        period = harmony._joint_period(gregorian, [ci, cj])
        assert period == 48
        occ = cross_tab(span, ci, cj, gregorian)
        assert sum(evaluated_points.values()) <= 2 * period
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 1)
        assert occ.total == n
        assert (occ.counts == want).all()

    def test_aperiodic_pair_is_not_folded(self, semester, evaluated_points):
        h = semester.hierarchy
        day_week = pairwise_descriptor(h, "day", "week")
        semester_type = aperiodic_descriptor(semester.events["semester_type"])
        assert harmony._joint_period(semester, [day_week, semester_type]) is None
        span = IndexSpan(length=40 * 365, start=3)
        occ = cross_tab(span, day_week, semester_type, semester)
        # every day of the span is evaluated on both sides, once
        assert evaluated_points == {"day_week": span.length, "semester_type": span.length}
        want, n = blocked_structural_scan(evaluate, h, day_week, semester_type, span.start,
                                          span.length, 1, semester.events)
        assert occ.total == n
        assert (occ.counts == want).all()

    def test_sliding_irregular_lower_matches_blocked_scan(self):
        h = Hierarchy("slide", (Rung("day", IrregularMapping((6, 8))),
                                Rung("fort", IrregularMapping((30, 31), unit="day")),
                                Rung("month", ConstantPeriod(1))))
        fort_month = pairwise_descriptor(h, "fort", "month")
        day_fort = pairwise_descriptor(h, "day", "fort")
        occ = cross_tab(IndexSpan(2000), fort_month, day_fort, Calendar(h))
        want, n = blocked_structural_scan(evaluate, h, fort_month, day_fort, 0, 2000, 1)
        assert occ.total == n
        assert (occ.counts == want).all()

    def test_fold_reads_back_to_the_upper_start(self):
        # fort sizes repeat every 4 entries but for entry 1, and forts slide
        # across months of 10 days; fort_month counts forts from the start of
        # the month, so a span from day 2 depends on fort 1 (days 1 to 2) and
        # its first month is not folded
        cards = (1, 1, 1, 5) + (1, 8, 1, 5) * 5
        h = Hierarchy("slide", (Rung("day", IrregularMapping(cards)),
                                Rung("fort", IrregularMapping((10,), unit="day")),
                                Rung("month", ConstantPeriod(2)), Rung("top", ConstantPeriod(1))))
        assert h._reps[h.position("fort")].sub == (4, [1, 21])
        cal, span = Calendar(h), IndexSpan(83, start=2)
        descriptors = [pairwise_descriptor(h, lower, upper) for lower, upper in
                       (("day", "fort"), ("day", "month"), ("fort", "month"), ("month", "top"))]
        for ci, cj in combinations(descriptors, 2):
            want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 1)
            occ = cross_tab(span, ci, cj, cal)
            assert occ.total == n
            assert (occ.counts == want).all()

    def test_gregorian_months_and_years_repeat_between_exceptions(self, gregorian):
        h = gregorian.hierarchy
        for rung, s in (("month", 48), ("year", 4)):
            period, exceptions = h._reps[h.position(rung)].sub
            assert period == s
            assert len(exceptions) == 6
            # 1,461 days from 2012, up to the start of 2096's February or year
            repeat, stop = h.local_repeat(rung, 0)
            assert repeat == 1461 * 48
            assert stop == (date(2096, 2 if rung == "month" else 1, 1) - date(2012, 1, 1)).days * 48
        assert h.local_repeat("week", 5) == (7 * 48, None)

    def test_span_to_2101_folds_before_2096(self, gregorian, ds, evaluated_points):
        h = gregorian.hierarchy
        span = IndexSpan((date(2101, 1, 1) - date(2012, 1, 1)).days * 48)
        ci, cj = ds["day_month"], ds["day_week"]
        occ = cross_tab(span, ci, cj, gregorian)
        # three 10,227-day periods to 2096, then the 1,826 days to 2101 one by one
        assert set(evaluated_points) == {"day_month", "day_week"}
        assert max(evaluated_points.values()) <= 10_227 + 1_826
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 48)
        assert occ.total == n == 32_507
        assert (occ.counts == want).all()

    def test_28_years_count_one_leap_cycle(self, gregorian, ds, evaluated_points):
        h = gregorian.hierarchy
        span = IndexSpan(10_227 * 48)
        ci, cj = ds["day_month"], ds["month_year"]
        occ = cross_tab(span, ci, cj, gregorian)
        assert evaluated_points == {"day_month": 1_461, "month_year": 1_461}
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 48)
        assert occ.total == n
        assert (occ.counts == want).all()

    def test_folded_and_unfolded_pairs_share_one_scan(self, gregorian, ds, evaluated_points):
        # over 28 years the pairs of day_month, day_year and month_year fold to their
        # first 1,461 days, and the pairs with day_week do not: the folded days lie in
        # the unfolded scan, so each descriptor is evaluated once a day all the same
        names = ("day_week", "day_month", "day_year", "month_year")
        harmony_table([ds[n] for n in names], IndexSpan(10_227 * 48), gregorian, max_levels=366)
        assert evaluated_points == dict.fromkeys(names, 10_227)

    def test_table_without_repeating_stretch_folds_globally(self, cricket, evaluated_points):
        h = cricket.hierarchy
        assert h._reps[h.position("season")].sub is None
        ci, cj = pairwise_descriptor(h, "match", "season"), pairwise_descriptor(h, "over", "match")
        period = harmony._joint_period(cricket, [ci, cj])
        span = IndexSpan(3 * period + 17 * 20, start=13 * 20)
        assert harmony._folds(cricket, [ci, cj], span) == (
            (3, IndexSpan(period, span.start)), (1, IndexSpan(17 * 20, span.start + 3 * period)))
        occ = cross_tab(span, ci, cj, cricket)
        folded = dict(evaluated_points)
        evaluated_points.clear()
        for part in (IndexSpan(period, span.start), IndexSpan(17 * 20, span.start + 3 * period)):
            cross_tab(part, ci, cj, cricket)
        assert folded == evaluated_points  # as many points as the global fold
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 1)
        assert occ.total == n
        assert (occ.counts == want).all()

    def test_span_of_global_periods_evaluates_no_more(self, gregorian, ds, evaluated_points):
        h = gregorian.hierarchy
        ci, cj = ds["day_month"], ds["day_week"]
        period = harmony._joint_period(gregorian, [ci, cj])
        assert period == 146_097 * 48
        span = IndexSpan(2 * period + 1_000 * 48 + 5, start=3 * 48)
        occ = cross_tab(span, ci, cj, gregorian)
        # the global fold alone evaluates one period and the rest, at one point a day
        limit = 146_097 + 1_001
        assert max(evaluated_points.values()) <= limit
        want, n = blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, 48)
        assert occ.total == n
        assert (occ.counts == want).all()


@st.composite
def motif_screens(draw):
    """A ladder whose irregular table is a motif tiled several times with a
    few entries changed, its descriptors of at most 40 levels plus one
    derived, and a span that starts anywhere in its first cycles and runs
    across the changed entries.

    The ladder is one of ``screen_ladder`` with that table, or one whose
    "fort" granules are sized by it in days and slide across months of a
    second table counted in days, so that ``fort_month`` reads the fort
    table where the month starts, before the point it is evaluated at.
    """
    motif = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    table = motif * draw(st.integers(4, 16))
    changed = draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=2))
    for k in changed:
        table[k] = draw(st.integers(1, 9))
    fine = draw(st.sampled_from([0, 2]))
    if draw(st.booleans()):
        months = tuple(draw(st.lists(st.integers(6, 20), min_size=1, max_size=2)))
        rungs = [Rung("day", IrregularMapping(tuple(table))),
                 Rung("fort", IrregularMapping(months, unit="day")),
                 Rung("month", ConstantPeriod(draw(st.integers(2, 4)))), Rung("top", ConstantPeriod(1))]
        h, tabled = Hierarchy("slide", (*[Rung("fine", ConstantPeriod(fine))][:bool(fine)], *rungs)), "fort"
    else:
        rules = [draw(st.integers(2, 5)), tuple(table),
                 *draw(st.lists(st.integers(2, 13), min_size=1, max_size=2))]
        h, tabled = screen_ladder(rules, draw(st.sampled_from([0, 2, 3])), fine), "r2"
    names = h.rung_names
    descriptors = [d for d in (pairwise_descriptor(h, names[lo], names[hi])
                               for lo, hi in combinations(range(len(names)), 2)) if d.levels <= 40]
    base = draw(st.sampled_from(descriptors))
    remap = draw(st.lists(st.integers(0, 2), min_size=base.levels, max_size=base.levels))
    values = sorted(set(remap))
    descriptors.append(derive_descriptor(base, [values.index(v) for v in remap], "derived"))
    cycle = h.repeat(tabled)  # bottom units of one cycle of the table
    # often a little after a changed granule, where a value may read what precedes it
    near = granule_start(h, tabled, draw(st.sampled_from(changed))) + draw(st.integers(0, 40))
    span = IndexSpan(length=draw(st.integers(cycle, 3 * cycle)),
                     start=draw(st.one_of(st.integers(0, 2 * cycle), st.just(near))))
    return Calendar(h), descriptors, span


@settings(max_examples=80, deadline=None)
@given(screen=motif_screens(), keep_near=st.booleans())
def test_sub_period_folds_match_blocked_scan(screen, keep_near):
    cal, descriptors, span = screen
    h = cal.hierarchy

    def scan(ci, cj):
        stride = gcd(constant_block(h, ci), constant_block(h, cj))
        return blocked_structural_scan(evaluate, h, ci, cj, span.start, span.length, stride)

    for ci, cj in combinations(descriptors, 2):
        try:
            occ = cross_tab(span, ci, cj, cal)
        except ComputationError as err:  # a circular pair whose common period the span misses
            assert err.kind == "insufficient-span"
            assume(False)
        want, n = scan(ci, cj)
        flipped = cross_tab(span, cj, ci, cal)
        assert occ.total == flipped.total == n
        assert (occ.counts == want).all()
        assert (flipped.counts == want.T).all()
    rows = harmony_table(descriptors, span, cal, max_levels=40, keep_near_clashes=keep_near)
    assert rows == rows_from_counts(descriptors, lambda ci, cj: scan(ci, cj)[0], keep_near)
