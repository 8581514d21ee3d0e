import io

import numpy as np
import pytest

from timegrain import (
    DataError,
    IngestionSchema,
    ValidationError,
    augment,
    derive_descriptor,
    enumerate_cyclic,
    evaluate,
    export_table,
    ingest,
    pairwise_descriptor,
)


def make_csv(rows, header="timestamp,customer,kwh"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


SCHEMA = IngestionSchema(
    timestamp_column="timestamp",
    timestamp_format="%Y-%m-%d %H:%M",
    origin="2012-01-01 00:00",
    bottom_duration="30m",
    key_columns=("customer",),
    measurement_columns=("kwh",),
)


def halfhour_stamp(i):
    day, rem = divmod(i, 48)
    return f"2012-01-{day + 1:02d} {rem // 2:02d}:{(rem % 2) * 30:02d}"


class TestIngest:
    def test_row_count_preserved(self, gregorian):
        rows = [f"{halfhour_stamp(i)},c{1 + i % 2},0.5" for i in range(100)]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert len(t) == 100
        assert sorted(set(np.diff(sorted(t.index[np.array(t.keys['customer']) == 'c1'])))) == [2]

    def test_duplicate_rejected(self, gregorian):
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c1,0.7"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "duplicate-row"

    def test_same_stamp_different_key_ok(self, gregorian):
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:00,c2,0.7"]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert len(t) == 2

    def test_pre_origin_rejected(self, gregorian):
        rows = ["2011-12-31 23:30,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "pre-origin"

    def test_unparseable_timestamp(self, gregorian):
        rows = ["yesterday,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unparseable-timestamp"
        assert "row 2" in err.value.message

    @pytest.mark.parametrize("short", ["2012-01-01 00:30,c1", ""], ids=["truncated", "blank"])
    def test_short_row_rejected(self, gregorian, short):
        rows = ["2012-01-01 00:00,c1,0.5", short, "2012-01-01 01:00,c1,0.5"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "short-row"
        assert err.value.message.startswith("row 3:")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_measurement_rejected(self, gregorian, cell):
        # the nan cell on row 3 is a missing value, not the fault
        rows = ["2012-01-01 00:00,c1,0.5", "2012-01-01 00:30,c1,nan", f"2012-01-01 01:00,c1,{cell}"]
        with pytest.raises(DataError) as err:
            ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "non-finite-measurement"
        assert err.value.message.startswith("row 4:")

    def test_non_utf8_file_rejected(self, gregorian, tmp_path):
        path = tmp_path / "meter.csv"
        path.write_bytes(b"timestamp,customer,kwh\n2012-01-01 00:00,c\xff,0.5\n")
        with pytest.raises(DataError) as err:
            ingest(path, SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "bad-encoding"
        assert str(path) in err.value.message

    def test_missing_column(self, gregorian):
        with pytest.raises(DataError) as err:
            ingest(make_csv(["2012-01-01 00:00,c1"], header="timestamp,customer"),
                   SCHEMA, gregorian.hierarchy)
        assert err.value.kind == "unknown-column"

    def test_missing_measurement_becomes_nan(self, gregorian):
        rows = ["2012-01-01 00:00,c1,", "2012-01-01 00:30,c1,0.25"]
        t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
        assert np.isnan(t.measurements["kwh"][0])
        assert t.measurements["kwh"][1] == 0.25

    def test_index_format(self, cricket, cricket_table):
        assert len(cricket_table) == (6 + 8 + 7 + 9) * 2 * 20 * 6
        assert cricket_table.index.min() == 0
        # six balls share each over index, disambiguated by the ball key
        assert cricket_table.index.max() == (6 + 8 + 7 + 9) * 2 * 20 - 1


class TestEnumerate:
    def test_four_rungs_give_six(self, gregorian):
        ds = enumerate_cyclic(gregorian.hierarchy, rungs=("hour", "day", "week", "month"))
        assert [d.name for d in ds] == [
            "hour_day", "hour_week", "hour_month", "day_week", "day_month", "week_month",
        ]

    def test_two_rungs_give_one(self, mayan):
        ds = enumerate_cyclic(mayan.hierarchy, rungs=("kin", "uinal"))
        assert [d.name for d in ds] == ["kin_uinal"]

    def test_five_rungs_give_ten(self, gregorian):
        ds = enumerate_cyclic(gregorian.hierarchy, max_upper="month")
        assert len(ds) == 10

    def test_counts_are_triangular(self, gregorian):
        for n in range(2, 7):
            rungs = gregorian.hierarchy.rung_names[:n]
            assert len(enumerate_cyclic(gregorian.hierarchy, rungs=rungs)) == n * (n - 1) // 2

    def test_level_counts_match_screening_table(self, gregorian):
        ds = {d.name: d for d in enumerate_cyclic(
            gregorian.hierarchy, rungs=("hour", "day", "week", "month"))}
        assert ds["hour_day"].levels == 24
        assert ds["hour_week"].levels == 168
        assert ds["hour_month"].levels == 744
        assert ds["day_week"].levels == 7
        assert ds["day_month"].levels == 31
        assert ds["week_month"].levels == 5


class TestDerive:
    def test_weekend_weekday(self, gregorian):
        base = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        d = derive_descriptor(base, {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday",
                              labels=("Weekday", "Weekend"))
        assert d.levels == 2

    def test_identity_remap(self, gregorian):
        h = gregorian.hierarchy
        base = pairwise_descriptor(h, "day", "week")
        same = derive_descriptor(base, list(range(7)), "day_week_copy")
        zs = np.arange(0, 48 * 100, dtype=np.int64)
        assert (evaluate(h, same, zs) == evaluate(h, base, zs)).all()

    def test_partial_remap_rejected(self, gregorian):
        base = pairwise_descriptor(gregorian.hierarchy, "day", "week")
        with pytest.raises(ValidationError) as err:
            derive_descriptor(base, {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "broken")
        assert err.value.kind == "partial-remap"


class TestAugment:
    @pytest.fixture()
    def small(self, gregorian):
        rows = [f"{halfhour_stamp(i)},c1,{0.1 * (i % 5):.1f}" for i in range(480)]
        return ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)

    def test_value_ranges(self, gregorian, small):
        h = gregorian.hierarchy
        hour_day = pairwise_descriptor(h, "hour", "day")
        halfhour_day = pairwise_descriptor(h, "halfhour", "day")
        t = augment(small, [hour_day, halfhour_day], gregorian)
        assert set(np.unique(t.cyclic_column("hour_day"))) == set(range(24))
        assert set(np.unique(t.cyclic_column("halfhour_day"))) == set(range(48))

    def test_derived_column_equals_remap(self, gregorian, small):
        h = gregorian.hierarchy
        base = pairwise_descriptor(h, "day", "week")
        wknd = derive_descriptor(base, {0: 1, 6: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, "wknd_wday")
        t = augment(small, [base, wknd], gregorian)
        table = np.asarray([1, 0, 0, 0, 0, 0, 1])
        assert (t.cyclic_column("wknd_wday") == table[t.cyclic_column("day_week")]).all()

    def test_idempotent(self, gregorian, small):
        d = pairwise_descriptor(gregorian.hierarchy, "hour", "day")
        once = augment(small, [d], gregorian)
        twice = augment(once, [d], gregorian)
        assert list(twice.cyclic) == ["hour_day"]
        assert (twice.cyclic_column("hour_day") == once.cyclic_column("hour_day")).all()

    def test_recomputation_invariant(self, gregorian, small):
        h = gregorian.hierarchy
        ds = [pairwise_descriptor(h, "hour", "day"), pairwise_descriptor(h, "day", "month")]
        t = augment(small, ds, gregorian)
        for name, (d, col) in t.cyclic.items():
            recomputed = evaluate(h, d, t.index, gregorian.events)
            assert (col == recomputed).all(), name

    def test_rows_and_columns_untouched(self, gregorian, small):
        d = pairwise_descriptor(gregorian.hierarchy, "hour", "day")
        t = augment(small, [d], gregorian)
        assert (t.index == small.index).all()
        assert t.keys == small.keys
        assert t.timestamps == small.timestamps
        assert (t.measurements["kwh"] == small.measurements["kwh"]).all()

    def test_unknown_rung_rejected(self, gregorian, small, mayan):
        d = pairwise_descriptor(mayan.hierarchy, "kin", "uinal")
        with pytest.raises(ValidationError) as err:
            augment(small, [d], gregorian)
        assert err.value.kind == "unknown-rung"


def test_export_contains_cyclic_columns(gregorian):
    rows = [f"{halfhour_stamp(i)},c1,0.5" for i in range(4)]
    t = ingest(make_csv(rows), SCHEMA, gregorian.hierarchy)
    t = augment(t, [pairwise_descriptor(gregorian.hierarchy, "halfhour", "day")], gregorian)
    buf = io.StringIO()
    export_table(t, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "timestamp,customer,index,kwh,halfhour_day"
    assert lines[1] == "2012-01-01 00:00,c1,0,0.5,0"
    assert len(lines) == 5
